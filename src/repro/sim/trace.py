"""Lightweight statistics collection.

The benchmark harness needs per-phase latency distributions (max, mean,
percentiles) over thousands of simulated processes; :class:`StatSeries`
accumulates samples cheaply and summarizes them with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


class StatSeries:
    """An append-only series of float samples with numpy summarization."""

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
        return np.asarray(self._samples, dtype=np.float64)

    def summary(self) -> Summary:
        """Summarize; raises ``ValueError`` on an empty series."""
        if not self._samples:
            raise ValueError(f"no samples in series {self.name!r}")
        arr = self.values
        return Summary(
            count=int(arr.size),
            max=float(arr.max()),
            min=float(arr.min()),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
        )
