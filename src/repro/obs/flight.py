"""Flight recorder: a per-broker black box for post-mortem diagnosis.

Full span tracing is too heavy to leave on at the 8k-65k-producer
scales the ROADMAP targets, yet when a chaos run stalls the *recent
past* of every broker is exactly what the post-mortem needs.  The
:class:`FlightRecorder` squares that: a fixed-capacity ring buffer of
compact structured records that stays on **always** — tracing off,
sanitizers off, benchmarks included — because an append is O(1) and
allocates no object per record: it is five stores into columns,
comparable to the per-message counter update the broker already pays.

Records read back as 6-tuples ``(t, seq, kind, a, b, c)``:

- ``t`` — simulated time of the record;
- ``seq`` — per-recorder monotonically increasing sequence number
  (total order within one broker even when ``t`` ties);
- ``kind`` — a short string tag (``send``, ``event``, ``dispatch``,
  ``retransmit``, ``kvs_promote``, ...);
- ``a``/``b``/``c`` — kind-specific payload slots (topic, rank,
  version, ...), kept to cheap scalars/small tuples.

Storage is column-wise, one slot per record in each column: ``t`` in
an ``array('d')`` (8 B, no float object; a time reads back as a
``float``), ``kind``/``a``/``b``/``c`` in four lists (8 B each, a
reference to an object the caller already holds), and no ``seq`` at
all — record ``i`` lives in slot ``i & mask``, so its position *is*
its sequence number.  That is 40 B per retained record, ≈ 45 B with
list over-allocation, where a stored tuple with its own ``seq`` int
and time float cost 144 B.  The columns grow with occupancy and stop
at capacity, so a quiet broker's ring stays small.

The recorder is a **pure observer** in the simulation's sense: it
schedules no events, draws no randomness, and never affects message
sizes — so enabling it (it is never disabled) cannot perturb the
event stream, and same-seed runs produce bit-identical rings.

Capacity is rounded up to a power of two so the hot-path index is a
single mask; old records are overwritten silently and the overwrite
count is reported as ``dropped`` in :meth:`snapshot`.
"""

from __future__ import annotations

from array import array

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Fixed-capacity ring of structured flight records."""

    __slots__ = ("capacity", "_mask", "_n", "_t", "_kind", "_a", "_b",
                 "_c")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.capacity = cap
        self._mask = cap - 1
        self.clear()

    # -- hot path -------------------------------------------------------
    def rec(self, t: float, kind: str, a=None, b=None, c=None) -> None:
        """Append one record (O(1): five column stores, one add)."""
        i = self._n
        self._n = i + 1
        if i < self.capacity:
            self._t.append(t)
            self._kind.append(kind)
            self._a.append(a)
            self._b.append(b)
            self._c.append(c)
        else:
            i &= self._mask
            self._t[i] = t
            self._kind[i] = kind
            self._a[i] = a
            self._b[i] = b
            self._c[i] = c

    # -- introspection --------------------------------------------------
    @property
    def appended(self) -> int:
        """Total records ever appended (including overwritten ones)."""
        return self._n

    @property
    def dropped(self) -> int:
        """Records lost to ring wrap-around."""
        n = self._n - self.capacity
        return n if n > 0 else 0

    @property
    def peak(self) -> int:
        """Peak ring occupancy (records simultaneously retained)."""
        return self._n if self._n < self.capacity else self.capacity

    def __len__(self) -> int:
        return self.peak

    def records(self) -> list:
        """Retained records, oldest first (each a 6-tuple)."""
        n = self._n
        cols = (self._t, self._kind, self._a, self._b, self._c)
        if n > self.capacity:
            # Full ring: the oldest record sits where the next one goes.
            o = n & self._mask
            cols = [col[o:] + col[:o] for col in cols]
        t, kind, a, b, c = cols
        return list(zip(t, range(n - len(t), n), kind, a, b, c))

    def snapshot(self) -> dict:
        """JSON-able dump: retained records plus occupancy telemetry."""
        return {
            "capacity": self.capacity,
            "appended": self._n,
            "dropped": self.dropped,
            "peak": self.peak,
            "records": [list(r) for r in self.records()],
        }

    def clear(self) -> None:
        """Reset the ring (tests / reuse between workload phases)."""
        self._t = array("d")
        self._kind: list = []
        self._a: list = []
        self._b: list = []
        self._c: list = []
        self._n = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FlightRecorder {self.peak}/{self.capacity} "
                f"(appended={self._n})>")
