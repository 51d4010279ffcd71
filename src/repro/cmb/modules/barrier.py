"""``barrier`` — collective synchronization (Table I).

"Collective barriers provide synchronization across Flux groups."

Protocol: a client enters with ``barrier.enter {name, nprocs}``.  Each
broker tallies entries for the name — local clients plus count-carrying
relays from children — and forwards the tally upstream the moment its
subtree is complete (every collective client below it has entered), so
a whole-session barrier is one message per tree edge and runs at tree
speed.  The root publishes ``barrier.exit {name}`` once ``nprocs``
entries arrived; every broker then releases its held local requests.
A barrier joined by only some of a subtree's clients never completes
that subtree: its entries leave after a short aggregation window
instead, coalesced into one upstream message per window.
"""

from __future__ import annotations

from ..errors import EINVAL
from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["BarrierModule"]

# Fallback aggregation window for barriers a subtree's clients only
# partly join; a complete subtree does not wait for it.
_BARRIER_WINDOW = 5e-5


class _BarrierState:
    __slots__ = ("nprocs", "pending_count", "held", "flush_scheduled",
                 "total")

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.pending_count = 0   # entries not yet forwarded upstream
        self.total = 0           # entries seen from this rank's subtree
        self.held: list[Message] = []
        self.flush_scheduled = False


class BarrierModule(CommsModule):
    """Named counted barriers over the tree plane."""

    name = "barrier"

    def __init__(self, broker):
        super().__init__(broker)
        self._states: dict[str, _BarrierState] = {}

    def start(self) -> None:
        self.broker.subscribe("barrier.exit", self._on_exit)

    # ------------------------------------------------------------------
    def _state_for(self, name: str, nprocs: int) -> _BarrierState:
        st = self._states.get(name)
        if st is None:
            st = self._states[name] = _BarrierState(nprocs)
        elif st.nprocs != nprocs:
            raise ValueError(f"barrier {name!r}: inconsistent nprocs")
        return st

    @request_handler(required={"name": str, "nprocs": int})
    def req_enter(self, msg: Message) -> None:
        if not self.check_field(msg, "count", int):
            return
        name = msg.payload["name"]
        nprocs = msg.payload["nprocs"]
        count = msg.payload.get("count", 1)
        for field, value in (("nprocs", nprocs), ("count", count)):
            if value < 1:
                self.respond(msg, error=f"barrier.enter: payload field "
                             f"{field!r} must be >= 1, not {value}",
                             code=EINVAL)
                return
        try:
            st = self._state_for(name, nprocs)
        except ValueError as exc:
            self.respond(msg, error=str(exc), code=EINVAL)
            return
        if "count" not in msg.payload:
            # A real client entry: hold for release at exit time.
            st.held.append(msg)
            self._add(name, st, count)
        else:
            # A relayed tally from a child broker.  Tally first, then
            # acknowledge: when this tally completes the barrier at the
            # root, the ack must queue on the NIC *behind* the
            # ``barrier.exit`` copies, not ahead of them.
            self._add(name, st, count)
            self.respond(msg, {})

    def _add(self, name: str, st: _BarrierState, count: int) -> None:
        st.total += count
        if self.is_root:
            if st.total >= st.nprocs:
                self.broker.publish("barrier.exit",
                                    {"name": name, "nprocs": st.nprocs})
            return
        st.pending_count += count
        expected = self.broker.session.subtree_procs(self.rank)
        if st.total >= min(expected, st.nprocs):
            # Complete subtree: nothing below is still to come.
            self._flush(name, st)
        elif not st.flush_scheduled:
            st.flush_scheduled = True
            self.broker.after(_BARRIER_WINDOW,
                              lambda: self._flush(name, st))

    def _flush(self, name: str, st: _BarrierState) -> None:
        # A timer belongs to the state that armed it: the name is
        # reusable once its barrier is over.
        if self._states.get(name) is not st:
            return
        st.flush_scheduled = False
        if st.pending_count == 0:
            return
        count, st.pending_count = st.pending_count, 0
        self.broker.rpc_parent_cb(
            "barrier.enter",
            {"name": name, "nprocs": st.nprocs, "count": count},
            lambda resp: self._tally_sent(name, st, resp))

    def _tally_sent(self, name: str, st: _BarrierState,
                    resp: Message) -> None:
        """The parent's answer to a relayed tally.  A refusal (our
        clients' ``nprocs`` contradicts the barrier the parent is
        collecting, or the parent is gone) fails the entries held here
        with the same errnum."""
        if resp.error is None:
            return
        if self._states.get(name) is st:
            del self._states[name]
        held, st.held = st.held, []
        for msg in held:
            self.respond(msg, error=resp.error, code=resp.errnum,
                         err_rank=resp.err_rank)

    def _on_exit(self, msg: Message) -> None:
        name = msg.payload["name"]
        st = self._states.pop(name, None)
        if st is None:
            return
        for held in st.held:
            self.respond(held, {"name": name})
