"""Metrics registry: counters, gauges, log-bucketed histograms.

The paper's Table I promises ``mon``/``log`` services that make a
running session introspectable; this module supplies the *data model*
those services (and the ``stats`` comms module) serve.  Design goals,
in order:

1. **O(1) hot-path cost** — incrementing a counter or observing a
   histogram sample must be cheap enough to leave in the broker's
   per-message path permanently (no sampling switch to forget).
2. **Bounded memory** — histograms keep O(#buckets) integers, never
   samples, so a million-RPC run costs the same as a ten-RPC run
   (unlike the legacy :class:`~repro.sim.trace.StatSeries`, which
   retains every sample).
3. **Mergeable** — two registries (or two snapshots of the same
   registry) combine losslessly for counters and bucket-exactly for
   histograms, which is what lets the ``stats`` module tree-reduce a
   session-wide aggregate without shipping raw samples.

Histograms use logarithmic buckets (a geometric ladder of upper
bounds): quantile estimates are exact to within one bucket — a
relative-error guarantee of ``growth - 1`` per estimate — and two
histograms built with the same ladder merge by adding bucket counts.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Iterable, Optional

__all__ = [
    "Counter", "Gauge", "Histogram", "CounterVec", "MetricsRegistry",
    "merge_snapshots",
    "DEFAULT_TIME_LADDER", "DEFAULT_SIZE_LADDER", "log_ladder",
]


def log_ladder(lo: float, hi: float, growth: float = 2.0) -> tuple:
    """Geometric bucket upper bounds from ``lo`` up to at least ``hi``.

    The returned tuple is the histogram's finite bucket ladder; values
    above the last bound land in the overflow bucket, values <= ``lo``
    in the first.  With ``growth=2`` a [1e-7, 100] time ladder costs
    ~31 buckets.
    """
    if lo <= 0 or hi <= lo or growth <= 1.0:
        raise ValueError(f"bad ladder ({lo}, {hi}, {growth})")
    n = int(math.ceil(math.log(hi / lo, growth))) + 1
    return tuple(lo * growth ** i for i in range(n))


#: Latency ladder: 100 ns .. ~200 s in powers of two (32 buckets).
DEFAULT_TIME_LADDER = log_ladder(1e-7, 100.0)
#: Count/size ladder: 1 .. ~1M in powers of two (21 buckets).
DEFAULT_SIZE_LADDER = log_ladder(1.0, 1 << 20)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        """Replace the gauge's value."""
        self.value = v

    def snapshot(self) -> dict:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Log-bucketed distribution: O(#buckets) memory, mergeable.

    ``bounds`` are the finite bucket *upper* bounds (ascending); one
    extra overflow bucket catches everything above the last bound.
    ``count``/``total``/``vmin``/``vmax`` are tracked exactly;
    quantiles are estimated by linear interpolation inside the owning
    bucket, so they are never off by more than one bucket width.
    """

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "total",
                 "vmin", "vmax")

    def __init__(self, name: str, labels: tuple = (),
                 bounds: tuple = DEFAULT_TIME_LADDER):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, v: float) -> None:
        """Record one sample."""
        self.buckets[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def observe_zeros(self, n: int) -> None:
        """Record ``n`` samples of ``0.0`` at once: the same state as
        ``n`` calls of ``observe(0.0)`` in any order (adding ``0.0`` to
        the total is exact, and min/max do not depend on order)."""
        self.buckets[bisect_left(self.bounds, 0.0)] += n
        self.count += n
        if 0.0 < self.vmin:
            self.vmin = 0.0
        if 0.0 > self.vmax:
            self.vmax = 0.0

    @property
    def mean(self) -> float:
        """Exact mean of all observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) by bucket
        interpolation; exact to within one bucket width."""
        if self.count == 0:
            return 0.0
        if q <= 0:
            return self.vmin
        if q >= 1:
            return self.vmax
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else (
                    min(self.vmin, self.bounds[0]) if i < len(self.bounds)
                    else self.bounds[-1])
                hi = self.bounds[i] if i < len(self.bounds) else self.vmax
                lo = max(lo, self.vmin)
                hi = min(hi, self.vmax)
                if hi <= lo:
                    return lo
                return lo + (hi - lo) * (rank - seen) / n
            seen += n
        return self.vmax  # pragma: no cover - rank <= count always hits

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (same ladder required)."""
        if other.bounds != self.bounds:
            raise ValueError(f"histogram {self.name!r}: incompatible "
                             f"bucket ladders")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def summary(self) -> dict:
        """Count/mean/min/max plus interpolated p50/p95/p99."""
        if self.count == 0:
            return {"count": 0}
        return {"count": self.count, "mean": self.mean,
                "min": self.vmin, "max": self.vmax,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def snapshot(self) -> dict:
        out = {"type": "histogram", "name": self.name,
               "labels": dict(self.labels), "bounds": list(self.bounds),
               "buckets": list(self.buckets), "count": self.count,
               "sum": self.total}
        if self.count:
            out["min"] = self.vmin
            out["max"] = self.vmax
        return out


class CounterVec:
    """A family of counters over a fixed label-name tuple, stored as a
    plain ``dict[label-values-tuple, int]``.

    This is the hot-path form: the broker's per-message accounting
    increments one dict slot per send, exactly as the legacy raw
    ``msg_counts`` dict did, but the family is registered so snapshots
    and merges see every cell with proper labels.
    """

    __slots__ = ("name", "labels", "label_names", "data")

    def __init__(self, name: str, label_names: tuple, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.label_names = label_names
        self.data: dict[tuple, int] = {}

    def inc(self, key: tuple, n: int = 1) -> None:
        """Add ``n`` to the cell at label-value tuple ``key``."""
        self.data[key] = self.data.get(key, 0) + n

    def snapshot(self) -> list[dict]:
        return [{"type": "counter", "name": self.name,
                 "labels": {**dict(self.labels),
                            **dict(zip(self.label_names, key))},
                 "value": n}
                for key, n in sorted(self.data.items())]


class MetricsRegistry:
    """One broker's (or process's) named metric instruments.

    Instruments are created on first use and keyed by
    ``(name, label-values)``; constant ``labels`` passed at registry
    construction (e.g. ``rank``) are attached to every instrument.
    """

    def __init__(self, **labels: Any):
        self.labels = tuple(sorted(labels.items()))
        self._metrics: dict[tuple, Any] = {}
        self._vecs: list[CounterVec] = []

    # -- instrument factories (get-or-create) ---------------------------
    def _get(self, cls, name: str, labels: dict, **kw):
        key = (name, tuple(sorted(labels.items())))
        inst = self._metrics.get(key)
        if inst is None:
            inst = self._metrics[key] = cls(
                name, labels=self.labels + key[1], **kw)
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get-or-create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: tuple = DEFAULT_TIME_LADDER,
                  **labels: Any) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels, bounds=bounds)

    def counter_vec(self, name: str, label_names: tuple) -> CounterVec:
        """Create (once) a counter family keyed by ``label_names``."""
        for vec in self._vecs:
            if vec.name == name:
                return vec
        vec = CounterVec(name, label_names, labels=self.labels)
        self._vecs.append(vec)
        return vec

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able snapshot of every instrument (deterministic order)."""
        metrics: list[dict] = []
        for (name, _lv), inst in sorted(self._metrics.items()):
            metrics.append(inst.snapshot())
        for vec in self._vecs:
            metrics.extend(vec.snapshot())
        metrics.sort(key=_metric_sort_key)
        return {"labels": dict(self.labels), "metrics": metrics}

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _metric_sort_key(m: dict) -> tuple:
    return (m["name"], tuple(sorted((k, str(v))
                                    for k, v in m["labels"].items())))


def _strip(labels: dict, drop: Iterable[str]) -> tuple:
    return tuple(sorted((k, v) for k, v in labels.items()
                        if k not in drop))


def merge_snapshots(snapshots: Iterable[dict],
                    drop_labels: Iterable[str] = ("rank",)) -> dict:
    """Merge registry snapshots into one aggregate snapshot.

    ``drop_labels`` (by default the per-broker ``rank``) are removed
    before matching, so the same instrument from different brokers
    lands in one aggregate cell: counters and gauges sum; histograms
    merge bucket-wise (count-exact, quantiles within one bucket).
    """
    drop = tuple(drop_labels)
    merged: dict[tuple, dict] = {}
    for snap in snapshots:
        for m in snap.get("metrics", ()):
            labels = {k: v for k, v in m["labels"].items() if k not in drop}
            key = (m["name"], m["type"], _strip(m["labels"], drop))
            cell = merged.get(key)
            if cell is None:
                cell = merged[key] = dict(m, labels=labels)
                if m["type"] == "histogram":
                    cell["buckets"] = list(m["buckets"])
                continue
            if m["type"] in ("counter", "gauge"):
                cell["value"] += m["value"]
            else:
                if cell["bounds"] != m["bounds"]:
                    raise ValueError(
                        f"histogram {m['name']!r}: incompatible ladders")
                cell["buckets"] = [a + b for a, b in
                                   zip(cell["buckets"], m["buckets"])]
                cell["count"] += m["count"]
                cell["sum"] += m["sum"]
                if m.get("count"):
                    cell["min"] = min(cell.get("min", math.inf), m["min"])
                    cell["max"] = max(cell.get("max", -math.inf), m["max"])
    metrics = sorted(merged.values(), key=_metric_sort_key)
    return {"labels": {}, "merged_from": "snapshots", "metrics": metrics}


def histogram_from_snapshot(m: dict) -> Histogram:
    """Rebuild a :class:`Histogram` from its snapshot dict (used to run
    quantile estimation over merged aggregates)."""
    h = Histogram(m["name"], bounds=tuple(m["bounds"]))
    h.buckets = list(m["buckets"])
    h.count = m["count"]
    h.total = m["sum"]
    h.vmin = m.get("min", math.inf)
    h.vmax = m.get("max", -math.inf)
    return h
