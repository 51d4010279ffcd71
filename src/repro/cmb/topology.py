"""Overlay topologies for a comms session.

The paper wires each session with three persistent planes:

- a pub-sub *event* bus (we broadcast down the same tree shape),
- a request-response *tree* for RPCs, barriers and reductions
  ("although a binary tree is pictured, the tree shape is configurable"),
- a rank-addressed *ring* used for debugging tools, "where the high
  latency of a ring is manageable".

:class:`TreeTopology` supports any arity including ``flat`` (arity =
nranks-1, a star) so the ablation benches can sweep fan-out.  The
mutable ``parent_map`` owned by each session supports self-healing:
when an interior node dies, its orphaned children are re-parented to
their grandparent.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = ["TreeTopology", "RingTopology", "flat_topology"]


class TreeTopology:
    """A complete k-ary tree over ranks ``0 .. size-1`` rooted at 0.

    Rank numbering follows the standard heap layout: the children of
    rank ``r`` are ``k*r + 1 .. k*r + k``.
    """

    def __init__(self, size: int, arity: int = 2):
        if size <= 0:
            raise ValueError("topology size must be positive")
        if arity < 1:
            raise ValueError("tree arity must be >= 1")
        self.size = size
        self.arity = arity

    def parent(self, rank: int) -> Optional[int]:
        """Parent of ``rank``; ``None`` for the root."""
        self._check(rank)
        if rank == 0:
            return None
        return (rank - 1) // self.arity

    def children(self, rank: int) -> list[int]:
        """Children of ``rank`` (possibly empty at the leaves)."""
        self._check(rank)
        lo = self.arity * rank + 1
        return [c for c in range(lo, min(lo + self.arity, self.size))]

    def depth(self, rank: int) -> int:
        """Distance from the root (root is depth 0)."""
        self._check(rank)
        d = 0
        while rank != 0:
            rank = (rank - 1) // self.arity
            d += 1
        return d

    def max_depth(self) -> int:
        """Depth of the deepest rank."""
        return self.depth(self.size - 1) if self.size > 1 else 0

    def subtree(self, rank: int) -> Iterator[int]:
        """Iterate ``rank`` and every descendant (preorder)."""
        self._check(rank)
        stack = [rank]
        while stack:
            r = stack.pop()
            yield r
            stack.extend(reversed(self.children(r)))

    def subtree_size(self, rank: int) -> int:
        """Number of ranks in the subtree rooted at ``rank``."""
        return sum(1 for _ in self.subtree(rank))

    def parent_map(self) -> dict[int, Optional[int]]:
        """Mutable ``rank -> parent`` map seeding a session's live wiring."""
        return {r: self.parent(r) for r in range(self.size)}

    def is_in_subtree(self, rank: int, root: int) -> bool:
        """True if ``rank`` lies in the subtree rooted at ``root``."""
        self._check(rank)
        self._check(root)
        while rank >= root:
            if rank == root:
                return True
            rank = (rank - 1) // self.arity
        return False

    def next_hop_toward(self, here: int, dst: int) -> int:
        """The neighbour of ``here`` on the unique tree path to ``dst``.

        Used by the tree-routed rank-addressing extension (a
        low-latency alternative to the ring for point-to-point RPCs)
        and by the distributed-KVS-master extension to route flushes
        and faults toward a non-root master.
        """
        self._check(here)
        self._check(dst)
        if here == dst:
            raise ValueError("already at destination")
        if not self.is_in_subtree(dst, here):
            parent = self.parent(here)
            assert parent is not None  # root's subtree contains everyone
            return parent
        # Walk dst's ancestry until the child of `here` on the path.
        hop = dst
        while (hop - 1) // self.arity != here:
            hop = (hop - 1) // self.arity
        return hop

    def _check(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside topology of {self.size}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TreeTopology size={self.size} arity={self.arity}>"


def flat_topology(size: int) -> TreeTopology:
    """A star: every rank is a direct child of the root.

    This models the traditional centralized daemon layout the paper's
    hierarchical design replaces; the ablation benches compare it
    against trees of increasing arity.
    """
    return TreeTopology(size, arity=max(1, size - 1))


class RingTopology:
    """The secondary rank-addressed overlay: a unidirectional ring."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("topology size must be positive")
        self.size = size

    def next_rank(self, rank: int) -> int:
        """Successor of ``rank`` on the ring."""
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} outside ring of {self.size}")
        return (rank + 1) % self.size

    def distance(self, src: int, dst: int) -> int:
        """Hops from ``src`` to ``dst`` travelling forward."""
        return (dst - src) % self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RingTopology size={self.size}>"
