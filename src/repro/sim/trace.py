"""Lightweight statistics collection.

The benchmark harness needs per-phase latency distributions (max, mean,
percentiles) over thousands of simulated processes; :class:`StatSeries`
accumulates samples cheaply and summarizes them in the standard
library, reproducing numpy's ``mean`` and linear ``percentile`` bit for
bit so that no simulation run has to load numpy (``values`` still hands
out an ``ndarray``, importing numpy only when it is read).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["StatSeries", "Summary"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics over one latency series (seconds)."""

    count: int
    max: float
    min: float
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for tabular printing / JSON dumps."""
        return {
            "count": self.count, "max": self.max, "min": self.min,
            "mean": self.mean, "p50": self.p50, "p95": self.p95,
            "p99": self.p99,
        }


def _pairwise_sum(x: list[float], lo: int, n: int) -> float:
    """Sum ``x[lo:lo + n]`` in numpy's pairwise order (8-way unrolled
    blocks of at most 128, halves split on multiples of 8), so the
    rounding, and hence the mean, is numpy's to the last bit."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += x[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += x[i]
            r1 += x[i + 1]
            r2 += x[i + 2]
            r3 += x[i + 3]
            r4 += x[i + 4]
            r5 += x[i + 5]
            r6 += x[i + 6]
            r7 += x[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += x[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(x, lo, n2) + _pairwise_sum(x, lo + n2, n - n2)


def _percentile(s: list[float], q: float) -> float:
    """numpy's default (linear) percentile of the sorted list ``s``:
    index ``(n - 1) * q``, interpolated from the nearer neighbour's
    side exactly as ``numpy.lib._function_base_impl._lerp`` does."""
    n = len(s)
    v = (n - 1) * q
    i = int(v)
    if i >= n - 1:
        return s[-1]
    g = v - i
    a, b = s[i], s[i + 1]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


class StatSeries:
    """An append-only series of float samples with numpy-exact
    summarization."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        self._samples.extend(float(v) for v in values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def values(self) -> np.ndarray:
        """Samples as a numpy array (copy)."""
        import numpy as np
        return np.asarray(self._samples, dtype=np.float64)

    def summary(self) -> Summary:
        """Summarize; raises ``ValueError`` on an empty series."""
        x = self._samples
        if not x:
            raise ValueError(f"no samples in series {self.name!r}")
        s = sorted(x)
        return Summary(
            count=len(x),
            max=s[-1],
            min=s[0],
            mean=_pairwise_sum(x, 0, len(x)) / len(x),
            p50=_percentile(s, 0.50),
            p95=_percentile(s, 0.95),
            p99=_percentile(s, 0.99),
        )
