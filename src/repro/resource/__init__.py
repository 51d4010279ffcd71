"""The generalized resource model (paper Section III).

Typed resource graphs (:mod:`.model`, :mod:`.types`), allocation
bookkeeping with consumable charging (:mod:`.pool`), and hierarchical
admission constraints such as power budgets (:mod:`.constraints`).
"""

from . import types
from .constraints import (MaxCoresPerJob, MaxNodesPerJob,
                          NodeSpreadConstraint, PowerBudget,
                          PredicateConstraint)
from .projection import graft_allocation, project_allocation
from .model import Resource, ResourceGraph, build_cluster_graph
from .pool import (Allocation, AllocationError, AllocationRequest,
                   Constraint, ResourcePool)

__all__ = [
    "types", "MaxCoresPerJob", "MaxNodesPerJob", "NodeSpreadConstraint",
    "PowerBudget", "PredicateConstraint", "Resource", "ResourceGraph",
    "build_cluster_graph", "Allocation", "AllocationError",
    "AllocationRequest", "Constraint", "ResourcePool",
    "graft_allocation", "project_allocation",
]
