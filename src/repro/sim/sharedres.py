"""Contended shared resources.

Models center-wide shared services — above all the parallel file
system whose "overlapping I/O bursts coming from only a handful of
unrelated jobs can disrupt the entire center" (paper Section I).

A :class:`SharedResource` has a fixed capacity (e.g. bytes/second of
file-system bandwidth).  Simulated processes move work through it with
:meth:`transfer`; concurrent flows share the capacity under a
configurable discipline — max-min fair, or demand-proportional (the
burst-dominated behaviour of a real parallel FS) — and every
arrival/departure re-paces the survivors, so an I/O burst stretches
everyone else's transfers exactly the way an unscheduled checkpoint
storm does on a real Lustre.
"""

from __future__ import annotations

from typing import Optional

from .kernel import Event, Simulation

__all__ = ["Flow", "SharedResource", "max_min_rates",
           "proportional_rates"]


class Flow:
    """One active transfer through a shared resource."""

    __slots__ = ("demand", "rate", "_change", "label")

    def __init__(self, demand: float, label: str = ""):
        self.demand = demand          # the flow's own max rate
        self.rate = 0.0               # current fair allocation
        self.label = label
        self._change: Optional[Event] = None


def max_min_rates(capacity: float, demands: list[float]) -> list[float]:
    """Max-min fair allocation of ``capacity`` over ``demands``.

    Iteratively satisfies the smallest demands in full and splits the
    leftover evenly among the rest.
    """
    n = len(demands)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining = capacity
    active = sorted(range(n), key=lambda i: demands[i])
    left = n
    for idx in active:
        share = remaining / left
        give = min(demands[idx], share)
        rates[idx] = give
        remaining -= give
        left -= 1
    return rates


def proportional_rates(capacity: float,
                       demands: list[float]) -> list[float]:
    """Demand-proportional allocation: when oversubscribed, every flow
    gets ``capacity * d_i / sum(d)``.

    This is the discipline that matches a parallel file system under a
    checkpoint storm — aggressive bursts squeeze small unrelated I/O
    in proportion to how hard they push, which is precisely the
    center-disruption the paper's introduction describes (max-min, by
    contrast, would protect the small flows).
    """
    total = sum(demands)
    if total <= capacity:
        return list(demands)
    scale = capacity / total
    return [d * scale for d in demands]


class SharedResource:
    """A capacity shared by concurrent flows.

    Parameters
    ----------
    sim:
        The simulation.
    capacity:
        Total service rate (units/second — e.g. bytes/s for a file
        system, requests/s for a metadata server).
    name:
        Label for stats.
    policy:
        ``"maxmin"`` (fair, protects small flows) or ``"proportional"``
        (burst-dominated, models real parallel-FS contention).
    """

    def __init__(self, sim: Simulation, capacity: float, name: str = "",
                 policy: str = "maxmin"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in ("maxmin", "proportional"):
            raise ValueError(f"unknown sharing policy {policy!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.policy = policy
        self._flows: list[Flow] = []
        # Observability.
        self.total_transferred = 0.0
        self.peak_flows = 0

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of concurrent transfers right now."""
        return len(self._flows)

    def _recompute(self) -> None:
        fn = (max_min_rates if self.policy == "maxmin"
              else proportional_rates)
        rates = fn(self.capacity, [f.demand for f in self._flows])
        for flow, rate in zip(self._flows, rates):
            if rate != flow.rate:
                flow.rate = rate
                ev = flow._change
                if ev is not None and not ev.triggered:
                    ev.succeed()

    # ------------------------------------------------------------------
    def transfer(self, amount: float, demand: float, label: str = ""):
        """Move ``amount`` units at up to ``demand`` units/second.

        A generator — run it from a simulated process with ``yield
        from``; returns the elapsed transfer time.  The actual rate is
        the policy's share, re-paced whenever other flows arrive or
        leave.
        """
        if amount < 0 or demand <= 0:
            raise ValueError("need amount >= 0 and demand > 0")
        if amount == 0:
            return 0.0
        flow = Flow(demand, label)
        start = self.sim.now
        self._flows.append(flow)
        self.peak_flows = max(self.peak_flows, len(self._flows))
        self._recompute()
        remaining = amount
        try:
            while remaining > 1e-12:
                rate = flow.rate
                t0 = self.sim.now
                flow._change = self.sim.event(name=f"repace:{label}")
                done = self.sim.timeout(remaining / rate)
                which, _ = yield self.sim.any_of([done, flow._change])
                remaining -= (self.sim.now - t0) * rate
                if which == 0:
                    break
                done.abandon()
        finally:
            flow._change = None
            self._flows.remove(flow)
            self._recompute()
            self.total_transferred += amount - max(remaining, 0.0)
        return self.sim.now - start
