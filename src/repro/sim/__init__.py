"""Discrete-event simulation substrate.

Stands in for the paper's physical testbed (LLNL's Zin/Cab clusters):
a deterministic event loop (:mod:`.kernel`), a LogGP-style network cost
model (:mod:`.network`), node/cluster construction (:mod:`.node`,
:mod:`.cluster`) and statistics collection (:mod:`.trace`).
"""

from .faults import FaultPlan, LinkFaults
from .kernel import (AllOf, AnyOf, Channel, Event, Interrupt, Process,
                     Simulation, SimulationError, Timeout)
from .network import Network, NetworkParams, Nic
from .node import Node, NodeSpec
from .cluster import Cluster, make_cluster, zin_like_params
from .sharedres import (Flow, SharedResource, max_min_rates,
                        proportional_rates)
from .trace import StatSeries, Summary

__all__ = [
    "AllOf", "AnyOf", "Channel", "Event", "Interrupt", "Process",
    "Simulation", "SimulationError", "Timeout",
    "FaultPlan", "LinkFaults",
    "Network", "NetworkParams", "Nic",
    "Node", "NodeSpec",
    "Cluster", "make_cluster", "zin_like_params",
    "Flow", "SharedResource", "max_min_rates",
    "proportional_rates",
    "StatSeries", "Summary",
]
