"""Allocation bookkeeping over the resource graph.

A :class:`ResourcePool` turns the static :class:`ResourceGraph` into
an allocatable substrate: core-granular allocation with per-node
packing, consumable charging (memory per node, power along the
containment ancestry — how a rack/cluster power cap constrains
placement), and pluggable admission :class:`Constraint` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import types as rt
from .model import Resource, ResourceGraph

__all__ = ["AllocationRequest", "Allocation", "AllocationError",
           "ResourcePool"]


class AllocationError(Exception):
    """An allocation could not be satisfied; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class AllocationRequest:
    """What a job asks for.

    Attributes
    ----------
    ncores:
        Total cores wanted.
    cores_per_node:
        If set, cores must come in groups of exactly this many per node
        (rigid shape); otherwise nodes are packed first-fit.
    memory_per_core:
        Bytes of node memory charged per allocated core.
    watts_per_core:
        Power draw charged per allocated core to every POWER consumable
        on the node's ancestry (rack cap, cluster cap, ...).
    exclusive:
        Take whole nodes even if fewer cores are used.
    node_filter:
        Optional predicate restricting candidate nodes.
    """

    ncores: int
    cores_per_node: Optional[int] = None
    memory_per_core: float = 0.0
    watts_per_core: float = 0.0
    exclusive: bool = False
    node_filter: Optional[Callable[[Resource], bool]] = None
    #: Additional consumable reservations, e.g. shared-filesystem
    #: bandwidth: ``((resource_rid, amount), ...)`` charged atomically
    #: with the cores and refunded at release — the paper's
    #: co-scheduling of "site-wide shared resources such as file
    #: systems" with compute.
    extra_charges: tuple = ()

    def __post_init__(self):
        if self.ncores < 1:
            raise ValueError("ncores must be positive")
        if self.cores_per_node is not None and self.cores_per_node < 1:
            raise ValueError("cores_per_node must be positive")
        for item in self.extra_charges:
            if len(item) != 2 or item[1] < 0:
                raise ValueError(f"bad extra charge {item!r}")


@dataclass
class Allocation:
    """A satisfied request: which cores and consumable charges it holds."""

    jobid: Any
    request: AllocationRequest
    cores: dict[int, list[int]] = field(default_factory=dict)  # node rid -> core rids
    charges: list[tuple[int, float]] = field(default_factory=list)  # (rid, amount)

    @property
    def ncores(self) -> int:
        """Total cores held."""
        return sum(len(v) for v in self.cores.values())

    @property
    def nnodes(self) -> int:
        """Nodes touched."""
        return len(self.cores)

    def node_indices(self, graph: ResourceGraph) -> list[int]:
        """The ``index`` property of each allocated node (sorted) —
        bridges the resource graph to simulator node ids."""
        return sorted(graph.by_id[rid].properties.get("index", rid)
                      for rid in self.cores)


class Constraint:
    """Admission-control hook; subclasses veto allocations.

    :meth:`check` returns ``None`` to accept or a human-readable
    violation string to reject.  Constraints compose: a pool rejects if
    any constraint rejects (the paper's "imposing complex,
    multidimensional resource bounds at any scale").
    """

    def check(self, pool: "ResourcePool", request: AllocationRequest,
              plan: dict[int, list[int]]) -> Optional[str]:
        """Validate a tentative plan (node rid -> core rids)."""
        raise NotImplementedError


class ResourcePool:
    """Allocator over a resource graph subtree.

    Parameters
    ----------
    graph:
        The resource graph.
    within:
        Restrict the pool to the subtree rooted at this rid (how a
        child Flux instance sees only its parent-granted slice —
        the parent bounding rule).
    constraints:
        Extra admission checks applied to every allocation.
    """

    def __init__(self, graph: ResourceGraph, within: Optional[int] = None,
                 constraints: Optional[list[Constraint]] = None):
        self.graph = graph
        self.within = within if within is not None else graph.root_id
        self.constraints: list[Constraint] = list(constraints or [])
        self.allocations: dict[Any, Allocation] = {}
        # node rid -> POWER resources on its ancestry (memoized).
        self._power_path: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def nodes(self) -> list[Resource]:
        """Candidate nodes in this pool's subtree."""
        return self.graph.find(rt.NODE, within=self.within)

    def free_cores(self, node_rid: int) -> list[Resource]:
        """Unallocated cores of a node."""
        return self.graph.find(
            rt.CORE, pred=lambda r: r.allocated_to is None,
            within=node_rid)

    def total_cores(self) -> int:
        """All cores in the pool (allocated or not)."""
        return self.graph.count(rt.CORE, within=self.within)

    def total_free_cores(self) -> int:
        """Currently unallocated cores."""
        return len(self.graph.find(
            rt.CORE, pred=lambda r: r.allocated_to is None,
            within=self.within))

    def _node_memory(self, node_rid: int) -> Optional[Resource]:
        mems = self.graph.find(rt.MEMORY, within=node_rid)
        return mems[0] if mems else None

    def _powers_above(self, node_rid: int) -> list[int]:
        path = self._power_path.get(node_rid)
        if path is None:
            path = []
            for anc in self.graph.ancestors(node_rid):
                for child in self.graph.children(anc.rid):
                    if child.rtype == rt.POWER:
                        path.append(child.rid)
            self._power_path[node_rid] = path
        return path

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, jobid: Any,
                 request: AllocationRequest) -> Allocation:
        """Satisfy ``request`` or raise :class:`AllocationError`.

        First-fit over nodes in graph order; consumables (memory,
        ancestral power) are charged atomically with the core grab.
        """
        if jobid in self.allocations:
            raise AllocationError(f"job {jobid!r} already holds an allocation")
        plan: dict[int, list[int]] = {}
        charges: dict[int, float] = {}
        remaining = request.ncores

        for node in self.nodes():
            if remaining <= 0:
                break
            if request.node_filter is not None and not request.node_filter(node):
                continue
            free = self.free_cores(node.rid)
            if request.exclusive and len(free) != self.graph.count(
                    rt.CORE, within=node.rid):
                continue
            if request.cores_per_node is not None:
                if len(free) < request.cores_per_node:
                    continue
                take = min(request.cores_per_node, remaining)
                if take < request.cores_per_node and remaining < request.cores_per_node:
                    take = remaining  # final partial group
            else:
                take = min(len(free), remaining)
            # Clamp to consumable headroom (memory on the node, power on
            # every ancestor cap); packing requests shrink, rigid
            # cores_per_node shapes must fit whole or skip the node.
            if take > 0 and request.memory_per_core > 0:
                mem = self._node_memory(node.rid)
                avail = ((mem.available - charges.get(mem.rid, 0.0))
                         if mem is not None else 0.0)
                fit = int(avail // request.memory_per_core)
                if request.cores_per_node is not None and fit < take:
                    continue
                take = min(take, fit)
            if take > 0 and request.watts_per_core > 0:
                headroom = min(
                    (self.graph.by_id[p].available - charges.get(p, 0.0)
                     for p in self._powers_above(node.rid)),
                    default=float("inf"))
                fit = int(headroom // request.watts_per_core)
                if request.cores_per_node is not None and fit < take:
                    continue
                take = min(take, fit)
            if take <= 0:
                continue
            mem_need = take * request.memory_per_core
            mem = self._node_memory(node.rid) if mem_need > 0 else None
            watts = take * request.watts_per_core
            # Tentatively take.
            plan[node.rid] = [c.rid for c in free[:take]]
            if mem_need > 0 and mem is not None:
                charges[mem.rid] = charges.get(mem.rid, 0.0) + mem_need
            if watts > 0:
                for prid in self._powers_above(node.rid):
                    charges[prid] = charges.get(prid, 0.0) + watts
            remaining -= take

        if remaining > 0:
            raise AllocationError(
                f"insufficient resources: {remaining} of "
                f"{request.ncores} cores unplaced")
        for rid, amount in request.extra_charges:
            res = self.graph.by_id[rid]
            if res.available - charges.get(rid, 0.0) < amount:
                raise AllocationError(
                    f"shared resource {res.name!r}: {amount:g} exceeds "
                    f"available {res.available:g}")
            charges[rid] = charges.get(rid, 0.0) + amount
        for constraint in self.constraints:
            violation = constraint.check(self, request, plan)
            if violation is not None:
                raise AllocationError(f"constraint violated: {violation}")

        alloc = Allocation(jobid, request)
        for node_rid, core_rids in plan.items():
            for crid in core_rids:
                self.graph.by_id[crid].allocated_to = jobid
            alloc.cores[node_rid] = list(core_rids)
        for rid, amount in charges.items():
            self.graph.by_id[rid].used += amount
            alloc.charges.append((rid, amount))
        self.allocations[jobid] = alloc
        return alloc

    def release(self, jobid: Any) -> Allocation:
        """Free a job's cores and refund its consumable charges."""
        alloc = self.allocations.pop(jobid, None)
        if alloc is None:
            raise AllocationError(f"no allocation for job {jobid!r}")
        for core_rids in alloc.cores.values():
            for crid in core_rids:
                self.graph.by_id[crid].allocated_to = None
        for rid, amount in alloc.charges:
            self.graph.by_id[rid].used -= amount
        return alloc

    # ------------------------------------------------------------------
    def grow(self, jobid: Any, extra_cores: int) -> int:
        """Add up to ``extra_cores`` to an existing allocation (the
        elasticity model's grow); returns cores actually added."""
        alloc = self.allocations.get(jobid)
        if alloc is None:
            raise AllocationError(f"no allocation for job {jobid!r}")
        grown = 0
        req = alloc.request
        for node in self.nodes():
            if grown >= extra_cores:
                break
            free = self.free_cores(node.rid)
            take = min(len(free), extra_cores - grown)
            if take > 0 and req.watts_per_core > 0:
                # Clamp to the power headroom along the ancestry: a grow
                # may be partially granted.
                headroom = min(
                    (self.graph.by_id[p].available
                     for p in self._powers_above(node.rid)),
                    default=float("inf"))
                take = min(take, int(headroom // req.watts_per_core))
            if take > 0 and req.memory_per_core > 0:
                mem = self._node_memory(node.rid)
                avail = mem.available if mem is not None else 0.0
                take = min(take, int(avail // req.memory_per_core))
            if take <= 0:
                continue
            watts = take * req.watts_per_core
            mem_need = take * req.memory_per_core
            mem = self._node_memory(node.rid) if mem_need > 0 else None
            for core in free[:take]:
                core.allocated_to = jobid
            alloc.cores.setdefault(node.rid, []).extend(
                c.rid for c in free[:take])
            if watts > 0:
                for prid in self._powers_above(node.rid):
                    self.graph.by_id[prid].used += watts
                    alloc.charges.append((prid, watts))
            if mem_need > 0 and mem is not None:
                mem.used += mem_need
                alloc.charges.append((mem.rid, mem_need))
            grown += take
        return grown

    def shrink(self, jobid: Any, drop_cores: int) -> int:
        """Give back up to ``drop_cores`` cores; returns cores freed."""
        alloc = self.allocations.get(jobid)
        if alloc is None:
            raise AllocationError(f"no allocation for job {jobid!r}")
        req = alloc.request
        freed = 0
        for node_rid in list(alloc.cores):
            mem = (self._node_memory(node_rid)
                   if req.memory_per_core > 0 else None)
            while alloc.cores[node_rid] and freed < drop_cores:
                crid = alloc.cores[node_rid].pop()
                self.graph.by_id[crid].allocated_to = None
                freed += 1
                watts = req.watts_per_core
                if watts > 0:
                    for prid in self._powers_above(node_rid):
                        self.graph.by_id[prid].used -= watts
                        alloc.charges.append((prid, -watts))
                if mem is not None:
                    mem.used -= req.memory_per_core
                    alloc.charges.append((mem.rid, -req.memory_per_core))
            if not alloc.cores[node_rid]:
                del alloc.cores[node_rid]
            if freed >= drop_cores:
                break
        return freed
