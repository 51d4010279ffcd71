"""Tree reductions: the per-key state ``barrier``, ``mon`` and ``health``
share (DESIGN.md "Tree reductions" has the contract).

It never sends: every send and publish stays in its module with its
literal topic, so the protocol-flow analyzer keeps each edge.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable, Optional

__all__ = ["HISTORY", "STALE_EPOCHS", "Slot", "TreeReduce"]

#: Epoch keys older than this many pulses are dropped by
#: :meth:`TreeReduce.gc`: their missing contributions are never coming
#: (lost to a crash that predates ``live.down``, or to a deactivate
#: racing the pulse).
STALE_EPOCHS = 8
#: Completed epochs a root keeps in memory (``mon.results``,
#: ``health.views``), oldest first out.
HISTORY = 64


class Slot:
    """One key's reduction at this rank — a barrier name, a metric's
    epoch.  Each contributor's largest count stands, so a duplicate or a
    stale re-emission changes nothing."""

    __slots__ = ("total", "parts", "sent")

    def __init__(self):
        self.total = 0        # local share + every contributor's count
        # rank -> (count, value); (0, None) once the child was dropped
        # (a barrier tally may still sit in the maximum upstream)
        self.parts: dict[int, tuple[int, Any]] = {}
        self.sent = 0         # the total last sent upward

    def add(self, count: int = 1) -> None:
        """Add to a barrier's local share."""
        self.total += count

    def put(self, rank: int, count: int, value: Any = None) -> bool:
        """Record ``rank``'s contribution; False if it adds nothing."""
        prev = self.parts.get(rank, (0, None))[0]
        if count <= prev:
            return False
        self.parts[rank] = (count, value)
        self.total += count - prev
        return True

    def contributors(self) -> list[int]:
        """The ranks whose contribution counts here, in rank order:
        where a refusal goes down."""
        return sorted(r for r, (n, _v) in self.parts.items() if n)


class TreeReduce(dict):
    """Key -> :class:`Slot`: the reductions open at this rank; ``join``
    folds two contributions' values."""

    def __init__(self, join: Optional[Callable[[Any, Any], Any]] = None):
        super().__init__()
        self.join = join

    def slot(self, key) -> Slot:
        st = self.get(key)
        if st is None:
            st = self[key] = Slot()
        return st

    def take(self, key, members: list[int]) -> Any:
        """Close ``key`` once every rank in ``members`` contributed: the
        fold of their values in that order, else ``None``.  Anything
        else recorded (a dead child's, an orphan's handed back) is
        left out."""
        st = self.get(key)
        if st is None or not all(st.parts.get(m, (0, None))[0]
                                 for m in members):
            return None
        del self[key]
        return reduce(self.join, [st.parts[m][1] for m in members])

    def drop_child(self, child: int) -> None:
        """``child`` no longer counts here (dead, or handed back)."""
        for st in self.values():
            n = st.parts.get(child, (0, None))[0]
            if n:
                st.parts[child] = (0, None)
                st.total -= n

    def stalled(self) -> bool:
        """Every epoch key of the :data:`STALE_EPOCHS` window is still
        open: nothing completed here for that long."""
        return len(self) >= STALE_EPOCHS

    def unfinished(self) -> list:
        """Keys still holding a contribution, oldest first."""
        return [key for key, st in self.items() if st.total]

    def gc(self, epoch: int) -> int:
        """Drop epoch keys more than :data:`STALE_EPOCHS` behind
        ``epoch``; returns how many went."""
        old = [key for key in self if key <= epoch - STALE_EPOCHS]
        for key in old:
            del self[key]
        return len(old)
