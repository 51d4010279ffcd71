"""KAP (KVS Access Patterns) configuration.

Mirrors the parameter space of Section V: producer/consumer counts,
value size, puts/gets per process, access striding, value redundancy,
directory organization, synchronization primitive, and the comms-
session topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["KapConfig", "PAPER_VALUE_SIZES", "PAPER_NODE_COUNTS"]

#: Value sizes swept in the paper (bytes).
PAPER_VALUE_SIZES = (8, 32, 128, 512, 2048, 8192, 32768)

#: Node counts swept in the paper (x16 processes per node).
PAPER_NODE_COUNTS = (64, 128, 256, 512)


@dataclass
class KapConfig:
    """One KAP run.

    Attributes
    ----------
    nnodes / procs_per_node:
        Session shape; the paper always fully populates 16-core nodes.
    nproducers / nconsumers:
        Role counts, ``0..nprocs``.  Process ``i`` produces iff
        ``i < nproducers`` and consumes iff ``i < nconsumers`` ("fully
        populated" = both equal to total process count).  ``None``
        means all processes.
    value_size:
        Bytes per stored value (JSON string payload of that length).
    nputs:
        ``kvs_put`` calls per producer (unique keys each).
    naccess:
        ``kvs_get`` calls per consumer.
    stride:
        Consumer access pattern: consumer *i*'s k-th read targets
        object ``(i * stride + k) mod total_objects``; stride 0 makes
        every consumer read the same leading objects, stride 1 gives
        disjoint-ish windows (the paper's "different striding").
    redundant_values:
        True: every producer writes identical values (they reduce to
        one content object up the tree).  False: values are unique.
    dir_width:
        ``None``: all keys in a single KVS directory (Figure 4a).
        ``k``: split into directories of at most ``k`` entries
        (the paper uses 128 for Figure 4b).
    sync:
        ``"fence"`` (the paper's choice) or ``"commit_wait"``
        (per-process commit + ``kvs_wait_version``).
    tree_arity:
        Fan-out of the comms tree (paper fixes binary = 2).
    seed:
        Simulation seed (determinism).
    dedup:
        The walk read path: cold reads ship a ``kvs.walk`` instead of
        faulting directories in (see ``KvsModule``).  Writes are the
        same either way.  Off by default — the paper's fault-in reads
        stay byte-identical, so the golden SAN105 fingerprints keep
        reproducing.
    """

    nnodes: int = 64
    procs_per_node: int = 16
    nproducers: Optional[int] = None
    nconsumers: Optional[int] = None
    value_size: int = 8
    nputs: int = 1
    naccess: int = 1
    stride: int = 1
    redundant_values: bool = False
    dir_width: Optional[int] = None
    sync: str = "fence"
    tree_arity: int = 2
    seed: int = 0
    dedup: bool = False

    def __post_init__(self) -> None:
        if self.nnodes < 1 or self.procs_per_node < 1:
            raise ValueError("need at least one node and one proc")
        for name, count in (("nproducers", self.producers),
                            ("nconsumers", self.consumers)):
            if not 0 <= count <= self.nprocs:
                raise ValueError(
                    f"{name} must be within 0..{self.nprocs} (the "
                    f"session's process count), got {count}")
        if self.nputs < 0 or self.naccess < 0:
            raise ValueError("nputs and naccess must be non-negative")
        if self.sync not in ("fence", "commit_wait"):
            raise ValueError(f"unknown sync primitive {self.sync!r}")
        if self.dir_width is not None and self.dir_width < 1:
            raise ValueError("dir_width must be positive")
        if self.value_size < 1:
            raise ValueError("value_size must be positive")

    @property
    def nprocs(self) -> int:
        """Total tester processes."""
        return self.nnodes * self.procs_per_node

    @property
    def producers(self) -> int:
        """Effective producer count."""
        return self.nprocs if self.nproducers is None else self.nproducers

    @property
    def consumers(self) -> int:
        """Effective consumer count."""
        return self.nprocs if self.nconsumers is None else self.nconsumers

    @property
    def total_objects(self) -> int:
        """Key-value objects written in the producer phase."""
        return self.producers * self.nputs
