"""KAP result collection and tabular reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.trace import StatSeries, Summary

__all__ = ["KapResult", "format_series_table"]


@dataclass
class KapResult:
    """Latency distributions for the three measured KAP phases.

    All latencies are *simulated* seconds — the quantity the paper's
    figures plot.  The headline metric is the per-phase **max** latency
    across processes ("this metric represents the critical path of the
    performance of many HPC process-management services").
    """

    config: object
    producer: StatSeries = field(default_factory=lambda: StatSeries("producer"))
    sync: StatSeries = field(default_factory=lambda: StatSeries("sync"))
    consumer: StatSeries = field(default_factory=lambda: StatSeries("consumer"))
    setup_time: float = 0.0
    total_time: float = 0.0
    events: int = 0
    bytes_sent: int = 0
    #: Payload bytes sent per fabric plane (tree / event_up /
    #: event_down / ring) — the per-plane attribution the ROADMAP's
    #: fence-payload investigation tabulates.
    plane_bytes: dict = field(default_factory=dict)
    #: Highest flight-recorder ring occupancy across brokers.
    flight_peak: int = 0
    #: Per-(module, plane, kind) message counts from the run's comms
    #: session (see :meth:`repro.cmb.session.CommsSession.message_counts`).
    msg_counts: dict = field(default_factory=dict)
    #: Payload bytes sent per *tree level* (topology depth of the
    #: sending broker) — the breakdown that shows where aggregation
    #: payloads concentrate.
    level_bytes: dict = field(default_factory=dict)
    #: Bytes of work the KVS interning machinery avoided, summed
    #: over ranks (``kvs_interned_bytes_saved_total``; 0 off/idle).
    interned_bytes_saved: int = 0
    #: Runtime-sanitizer findings (``run_kap(sanitize=True)``); empty
    #: on a clean run or when sanitizers were off.
    sanitizer_findings: list = field(default_factory=list)
    #: SHA1 of the processed-event stream when sanitizing — two runs
    #: of the same config must match (replay determinism).
    event_fingerprint: str = ""

    # -- headline metrics ------------------------------------------------
    @property
    def max_producer_latency(self) -> float:
        """Figure 2's y-value for this run."""
        return self.producer.summary().max if len(self.producer) else 0.0

    @property
    def max_sync_latency(self) -> float:
        """Figure 3's y-value for this run."""
        return self.sync.summary().max if len(self.sync) else 0.0

    @property
    def max_consumer_latency(self) -> float:
        """Figure 4's y-value for this run."""
        return self.consumer.summary().max if len(self.consumer) else 0.0

    def summaries(self) -> dict[str, Optional[Summary]]:
        """Per-phase summaries (None for unexercised phases)."""
        return {
            "producer": self.producer.summary() if len(self.producer) else None,
            "sync": self.sync.summary() if len(self.sync) else None,
            "consumer": self.consumer.summary() if len(self.consumer) else None,
        }


def format_series_table(title: str, xlabel: str,
                        columns: dict[str, dict[int, float]],
                        unit: str = "ms", scale: float = 1e3) -> str:
    """Render figure-style series as an aligned text table.

    ``columns`` maps series label -> {x: latency_seconds}; all series'
    x-values are unioned into the row set, matching how the paper's
    figures overlay multiple value-size/access-count plots.
    """
    xs = sorted({x for col in columns.values() for x in col})
    labels = list(columns)
    widths = [max(len(xlabel), 8)] + [max(len(lbl), 10) for lbl in labels]
    lines = [title]
    header = f"{xlabel:>{widths[0]}}" + "".join(
        f"  {lbl:>{w}}" for lbl, w in zip(labels, widths[1:]))
    lines.append(header)
    lines.append("-" * len(header))
    for x in xs:
        row = f"{x:>{widths[0]}}"
        for lbl, w in zip(labels, widths[1:]):
            v = columns[lbl].get(x)
            row += f"  {'-':>{w}}" if v is None else f"  {v * scale:>{w}.3f}"
        lines.append(row)
    lines.append(f"(values in {unit})")
    return "\n".join(lines)
