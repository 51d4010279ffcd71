"""``barrier`` — collective synchronization (Table I).

"Collective barriers provide synchronization across Flux groups."

A client enters with ``barrier.enter {name, nprocs}``.  The barrier is
a counting tree reduction (:mod:`.reduce`): a broker's local share is
the entries its clients made, a child's contribution the cumulative
tally of its subtree, and the largest one a child sent stands.  A
broker relays its subtree's total as a one-way ``barrier.enter {name,
nprocs, count}`` the moment the subtree is complete — every collective
client below it entered — so a whole-session barrier is one message
per tree edge; a subtree only some of whose clients join sends after a
short aggregation window instead.  The root publishes ``barrier.exit
{name}`` once ``nprocs`` entries arrived, and that is the relays' only
acknowledgement: until it comes, a rank re-sends its tally on every
``hb.pulse``.  A tally whose ``nprocs`` contradicts the barrier its
parent collects is refused with a one-way ``barrier.abort``, which
fails the entries held at that rank and is passed on to every child
whose tally it recorded.

What is barrier-specific is the generation ``gen`` (omitted while 0):
the exits a rank has seen for a name, so that a name can be reused.  A
tally of an older generation comes from a child that missed that exit.
The parent remembers whose tallies each exited barrier counted and
answers one-way: ``barrier.release`` when that barrier counted the
child's tally (the entries are done), ``barrier.renew`` when it did not
(they belong to the barrier the parent collects now).  DESIGN.md "Tree
reductions" and "Barrier reduction" have the details.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import EHOSTUNREACH, EINVAL
from ..message import Message
from ..module import CommsModule, request_handler
from .reduce import Slot, TreeReduce

__all__ = ["BarrierModule"]

# Fallback aggregation window for barriers a subtree's clients only
# partly join; a complete subtree does not wait for it.
_BARRIER_WINDOW = 5e-5
# Names whose generation a rank remembers (least recently exited first
# out, in the same order at every rank: exits are totally ordered).
_GENS_CAP = 1024


class _BarrierState(Slot):
    """A barrier's reduction: the local share is ``held``, a child's
    contribution its cumulative tally."""

    __slots__ = ("nprocs", "gen", "held", "parents", "flush_scheduled")

    def __init__(self, nprocs: int, gen: int):
        super().__init__()
        self.nprocs = nprocs
        self.gen = gen
        self.held: list[Message] = []        # local client entries
        self.parents: set[int] = set()       # where the tallies went
        self.flush_scheduled = False


class BarrierModule(CommsModule):
    """Named counted barriers over the tree plane."""

    name = "barrier"

    def __init__(self, broker):
        super().__init__(broker)
        self._states = TreeReduce()          # name -> _BarrierState
        self._gens: "OrderedDict[str, int]" = OrderedDict()
        # name -> child rank -> the generation whose exit counted its
        # tally here (kept for the names in ``_gens``)
        self._counted: dict[str, dict[int, int]] = {}

    def start(self) -> None:
        self.broker.subscribe("barrier.exit", self._on_exit)
        self.broker.subscribe("hb.pulse", self._on_pulse)
        self.broker.subscribe("live.down", self._on_live_down)
        self.broker.subscribe("live.reattach", self._on_reattach)

    # ------------------------------------------------------------------
    def _state_for(self, name: str, nprocs: int) -> _BarrierState:
        st = self._states.get(name)
        if st is None:
            st = self._states[name] = _BarrierState(
                nprocs, self._gens.get(name, 0))
        elif st.nprocs != nprocs:
            raise ValueError(f"barrier {name!r}: inconsistent nprocs")
        return st

    @request_handler(required={"name": str, "nprocs": int})
    def req_enter(self, msg: Message) -> None:
        if not (self.check_field(msg, "count", int)
                and self.check_field(msg, "gen", int)):
            return
        p = msg.payload
        name, nprocs = p["name"], p["nprocs"]
        count = p.get("count", 1)
        for field, value in (("nprocs", nprocs), ("count", count)):
            if value < 1:
                self.respond(msg, error=f"barrier.enter: payload field "
                             f"{field!r} must be >= 1, not {value}",
                             code=EINVAL)
                return
        if "count" in p and (msg.src_rank not in self.broker.children
                             or not self._current(msg.src_rank, name,
                                                  p.get("gen", 0))):
            self.respond(msg, {})
            return
        try:
            st = self._state_for(name, nprocs)
        except ValueError as exc:
            self.respond(msg, error=str(exc), code=EINVAL)
            if msg.ctx is None:
                # Nobody reads that answer: the refusal travels down.
                self._abort(msg.src_rank, name, p.get("gen", 0), str(exc),
                            EINVAL, self.rank)
            return
        if "count" not in p:
            # A real client entry: hold for release at exit time.
            st.held.append(msg)
            st.add()
        else:
            # A child's relayed tally: cumulative, so merged by max.
            self.respond(msg, {})
            if not st.put(msg.src_rank, count):
                return
        self._progress(name, st)

    def _current(self, child: int, name: str, gen: int) -> bool:
        """Is a tally of generation ``gen`` from ``child`` for the
        barrier this rank collects?  An older one comes from a child
        that missed that barrier's exit: tell it whether that barrier
        counted its tally.  A newer one means this rank missed an exit
        the child saw (it was re-parented here since): with nothing of
        its own pending it catches up; otherwise the child waits until
        this rank's parent has settled what it holds."""
        mine = self._gens.get(name, 0)
        if gen < mine:
            verdict = {"name": name, "gen": gen, "next": mine}
            if self._counted.get(name, {}).get(child) == gen:
                self.broker.send_hop(child, "barrier.release", verdict)
            else:
                self.broker.send_hop(child, "barrier.renew", verdict)
            return False
        if gen > mine:
            st = self._states.get(name)
            if st is not None and st.total:
                return False
            self._states.pop(name, None)
            self._set_gen(name, gen)
        return True

    def _set_gen(self, name: str, gen: int) -> None:
        self._gens[name] = gen
        self._gens.move_to_end(name)
        if len(self._gens) > _GENS_CAP:
            old, _gen = self._gens.popitem(last=False)
            self._counted.pop(old, None)

    def _progress(self, name: str, st: _BarrierState) -> None:
        if self.is_root:
            if st.total >= st.nprocs:
                payload = {"name": name, "nprocs": st.nprocs}
                if st.gen:
                    payload["gen"] = st.gen
                self.broker.publish("barrier.exit", payload)
            return
        expected = self.broker.session.subtree_procs(self.rank)
        if st.total >= min(expected, st.nprocs):
            # Complete subtree: nothing below is still to come.
            self._flush(name, st)
        elif not st.flush_scheduled:
            st.flush_scheduled = True
            self.broker.after(_BARRIER_WINDOW,
                              lambda: self._window(name, st))

    def _window(self, name: str, st: _BarrierState) -> None:
        # A timer belongs to the state that armed it: the name is
        # reusable once its barrier is over.
        if self._states.get(name) is st:
            st.flush_scheduled = False
            self._flush(name, st)

    def _flush(self, name: str, st: _BarrierState) -> None:
        if st.total > st.sent:
            self._send_tally(name, st)

    def _send_tally(self, name: str, st: _BarrierState) -> None:
        st.sent = st.total
        st.parents.add(self.broker.parent)
        payload = {"name": name, "nprocs": st.nprocs, "count": st.total}
        if st.gen:
            payload["gen"] = st.gen
        self.broker.send_parent("barrier.enter", payload)

    def _on_pulse(self, _msg: Message) -> None:
        """Re-send every tally still waiting for its exit: a tally lost
        on the way up, or an exit lost on the way down, is repaired
        within a pulse."""
        if self.is_root:
            return
        for name in self._states.unfinished():
            self._send_tally(name, self._states[name])

    # -- the children a tally is summed over ------------------------------
    def _on_live_down(self, msg: Message) -> None:
        """A dead child's tally goes with it: its orphans, adopted here,
        re-send theirs on the next pulse."""
        self._states.drop_child(msg.payload.get("rank"))

    def _on_reattach(self, msg: Message) -> None:
        """A revived rank takes back the orphans this rank adopted on
        its behalf: their tallies now reach it, inside its own."""
        rank = msg.payload.get("rank")
        if rank == self.rank:
            return
        for orphan in self.broker.session.children_of(rank):
            self._states.drop_child(orphan)

    # -- completion and refusal ------------------------------------------
    def _on_exit(self, msg: Message) -> None:
        self._exit(msg.payload["name"], msg.payload.get("gen", 0))

    @request_handler(required={"name": str, "gen": int, "next": int})
    def req_release(self, msg: Message) -> None:
        """The parent hands down the exit of barrier ``gen``, which
        counted this rank's tally, and the generation it collects now
        (this rank, stuck on ``gen``, took part in none in between)."""
        p = msg.payload
        self._exit(p["name"], p["gen"], p["next"])

    def _exit(self, name: str, gen: int, after: int = 0) -> None:
        """Barrier ``name`` of generation ``gen`` completed: release
        what it holds here.  Any other generation is a duplicate or a
        stale re-delivery."""
        if gen != self._gens.get(name, 0):
            return
        self._set_gen(name, max(gen + 1, after))
        st = self._states.pop(name, None)
        if st is not None:
            self._counted.setdefault(name, {}).update(
                dict.fromkeys(st.parts, gen))
            for held in st.held:
                self.respond(held, {"name": name})

    @request_handler(required={"name": str, "gen": int, "next": int})
    def req_renew(self, msg: Message) -> None:
        """Barrier ``gen`` exited without the tally this rank sent for
        it: what it holds was entered after the exit it missed, and
        belongs to the barrier its parent collects now (``next``).  The
        children it counted are told the same and re-send theirs."""
        p = msg.payload
        name, nxt = p["name"], p["next"]
        st = self._states.get(name)
        if st is None or st.gen != p["gen"]:
            return
        gone = st.parents - {msg.src_rank}
        if gone:
            # An earlier parent may have counted the tally before the
            # exit was lost: nobody left can say whether it did.
            self._fail(name, st,
                       f"barrier {name!r}: tally went through rank(s) "
                       f"{sorted(gone)}, outcome unknown", EHOSTUNREACH,
                       self.rank)
            return
        for child in st.contributors():
            self.broker.send_hop(child, "barrier.renew",
                                 {"name": name, "gen": st.gen, "next": nxt})
        self._set_gen(name, nxt)
        del self._states[name]
        if st.held:
            renewed = self._states[name] = _BarrierState(st.nprocs, nxt)
            renewed.held = st.held
            renewed.add(len(st.held))
            self._send_tally(name, renewed)

    @request_handler(required={"name": str, "gen": int, "error": str,
                               "errnum": str, "rank": int})
    def req_abort(self, msg: Message) -> None:
        """The parent refused this rank's tally: fail the barrier here
        and below."""
        p = msg.payload
        st = self._states.get(p["name"])
        if st is not None and st.gen == p["gen"]:
            self._fail(p["name"], st, p["error"], p["errnum"], p["rank"])

    def _fail(self, name: str, st: _BarrierState, error: str, code: str,
              err_rank: int) -> None:
        del self._states[name]
        for held in st.held:
            self.respond(held, error=error, code=code, err_rank=err_rank)
        for child in st.contributors():
            self._abort(child, name, st.gen, error, code, err_rank)

    def _abort(self, rank: int, name: str, gen: int, error: str, code: str,
               err_rank: int) -> None:
        self.broker.send_hop(rank, "barrier.abort",
                             {"name": name, "gen": gen, "error": error,
                              "errnum": code, "rank": err_rank})
