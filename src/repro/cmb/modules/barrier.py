"""``barrier`` — collective synchronization (Table I).

"Collective barriers provide synchronization across Flux groups."

Protocol: a client enters with ``barrier.enter {name, nprocs}``.  Each
broker tallies entries for the name — local clients plus count-carrying
relays from children — and forwards the increments upstream.  The root
publishes ``barrier.exit {name}`` once ``nprocs`` entries arrived;
every broker then releases its held local requests.  A short
aggregation window lets a broker coalesce near-simultaneous entries
into one upstream message (the tree-reduction the paper describes).
"""

from __future__ import annotations

from ..errors import EINVAL
from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["BarrierModule"]


class _BarrierState:
    __slots__ = ("nprocs", "pending_count", "held", "flush_scheduled",
                 "total")

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.pending_count = 0   # entries not yet forwarded upstream
        self.total = 0           # root only: entries seen session-wide
        self.held: list[Message] = []
        self.flush_scheduled = False


class BarrierModule(CommsModule):
    """Named counted barriers over the tree plane.

    Config
    ------
    window:
        Aggregation window in seconds before forwarding tallies
        upstream (default 50 µs; 0 forwards immediately).
    """

    name = "barrier"

    def __init__(self, broker, *, window: float = 5e-5):
        super().__init__(broker, window=window)
        self.window = window
        self._states: dict[str, _BarrierState] = {}
        self.completed: list[str] = []

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
        try:
            st = self._state_for(name, nprocs)
        except ValueError as exc:
            self.respond(msg, error=str(exc), code=EINVAL)
            return
        if "count" not in msg.payload:
            # A real client entry: hold for release at exit time.
            st.held.append(msg)
        else:
            # A relayed tally from a child broker: acknowledge now.
            self.respond(msg, {})
        self._add(name, st, count)

    def _add(self, name: str, st: _BarrierState, count: int) -> None:
        if self.is_root:
            st.total += count
            if st.total >= st.nprocs:
                self.broker.publish("barrier.exit",
                                    {"name": name, "nprocs": st.nprocs})
            return
        st.pending_count += count
        if not st.flush_scheduled:
            st.flush_scheduled = True
            if self.window > 0:
                self.broker.after(self.window, lambda: self._flush(name))
            else:
                self._flush(name)

    def _flush(self, name: str) -> None:
        st = self._states.get(name)
        if st is None or st.pending_count == 0:
            if st is not None:
                st.flush_scheduled = False
            return
        count, st.pending_count = st.pending_count, 0
        st.flush_scheduled = False
        self.broker.rpc_parent_cb(
            "barrier.enter",
            {"name": name, "nprocs": st.nprocs, "count": count},
            lambda resp: None)

    def _on_exit(self, msg: Message) -> None:
        name = msg.payload["name"]
        st = self._states.pop(name, None)
        self.completed.append(name)
        if st is None:
            return
        for held in st.held:
            self.respond(held, {"name": name})
