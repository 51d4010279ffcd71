"""Tests for allocation, consumable charging, constraints, projection."""

import pytest

from repro.resource import types as rt
from repro.resource.constraints import (MaxCoresPerJob, MaxNodesPerJob,
                                        NodeSpreadConstraint, PowerBudget,
                                        PredicateConstraint)
from repro.resource.model import build_cluster_graph
from repro.resource.pool import (AllocationError, AllocationRequest,
                                 ResourcePool)
from repro.resource.projection import graft_allocation, project_allocation


def make_pool(**kwargs):
    graph = build_cluster_graph("zin", n_racks=2, nodes_per_rack=2,
                                sockets=2, cores_per_socket=4, **kwargs)
    return graph, ResourcePool(graph)


class TestBasicAllocation:
    def test_allocate_and_release(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j1", AllocationRequest(ncores=10))
        assert alloc.ncores == 10
        assert pool.total_free_cores() == 32 - 10
        pool.release("j1")
        assert pool.total_free_cores() == 32

    def test_first_fit_packs_nodes(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j1", AllocationRequest(ncores=8))
        assert alloc.nnodes == 1  # fits on one 8-core node

    def test_spans_nodes_when_needed(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j1", AllocationRequest(ncores=20))
        assert alloc.nnodes == 3

    def test_insufficient_cores_raises(self):
        graph, pool = make_pool()
        with pytest.raises(AllocationError, match="insufficient"):
            pool.allocate("big", AllocationRequest(ncores=33))
        # Failed allocation holds nothing.
        assert pool.total_free_cores() == 32

    def test_duplicate_jobid_rejected(self):
        graph, pool = make_pool()
        pool.allocate("j", AllocationRequest(ncores=1))
        with pytest.raises(AllocationError, match="already holds"):
            pool.allocate("j", AllocationRequest(ncores=1))

    def test_release_unknown_rejected(self):
        graph, pool = make_pool()
        with pytest.raises(AllocationError):
            pool.release("ghost")

    def test_cores_per_node_shape(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j", AllocationRequest(ncores=12,
                                                     cores_per_node=4))
        assert alloc.nnodes == 3
        assert all(len(v) == 4 for v in alloc.cores.values())

    def test_exclusive_takes_whole_nodes_only(self):
        graph, pool = make_pool()
        pool.allocate("small", AllocationRequest(ncores=1))
        alloc = pool.allocate("excl", AllocationRequest(ncores=8,
                                                        exclusive=True))
        # The partially used node is skipped.
        used_node = next(iter(pool.allocations["small"].cores))
        assert used_node not in alloc.cores

    def test_node_filter(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j", AllocationRequest(
            ncores=4,
            node_filter=lambda n: n.properties["index"] == 3))
        assert alloc.node_indices(graph) == [3]

    def test_allocation_node_indices(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j", AllocationRequest(ncores=16))
        assert alloc.node_indices(graph) == [0, 1]


class TestConsumables:
    def test_memory_charged_and_refunded(self):
        graph, pool = make_pool()
        gib = 2**30
        alloc = pool.allocate("j", AllocationRequest(
            ncores=4, memory_per_core=2 * gib))
        node_rid = next(iter(alloc.cores))
        mem = graph.find(rt.MEMORY, within=node_rid)[0]
        assert mem.used == 8 * gib
        pool.release("j")
        assert mem.used == 0

    def test_memory_exhaustion_skips_node(self):
        graph, pool = make_pool()
        gib = 2**30
        # 8 cores x 4 GiB = 32 GiB: fills one node's memory.
        pool.allocate("a", AllocationRequest(ncores=8, memory_per_core=4 * gib))
        alloc = pool.allocate("b", AllocationRequest(ncores=8,
                                                     memory_per_core=4 * gib))
        assert set(alloc.cores).isdisjoint(set(pool.allocations["a"].cores))

    def test_memory_never_satisfiable_raises(self):
        graph, pool = make_pool()
        with pytest.raises(AllocationError):
            pool.allocate("j", AllocationRequest(
                ncores=1, memory_per_core=33 * 2**30))

    def test_power_charged_up_the_ancestry(self):
        graph, pool = make_pool()
        alloc = pool.allocate("j", AllocationRequest(ncores=8,
                                                     watts_per_core=10.0))
        cluster_power = [r for r in graph.find(rt.POWER)
                         if r.name == "zin-power"][0]
        rack_powers = [r for r in graph.find(rt.POWER) if "rack" in r.name]
        assert cluster_power.used == 80.0
        assert sum(r.used for r in rack_powers) == 80.0
        pool.release("j")
        assert cluster_power.used == 0.0

    def test_rack_power_cap_forces_spreading(self):
        graph = build_cluster_graph("c", n_racks=2, nodes_per_rack=2,
                                    sockets=2, cores_per_socket=4,
                                    rack_power_cap=100.0)
        pool = ResourcePool(graph)
        # 10 W/core: a rack (16 cores worst case = 160 W) can only host
        # 10 cores; 16 cores must span both racks.
        alloc = pool.allocate("j", AllocationRequest(ncores=16,
                                                     watts_per_core=10.0))
        racks_used = {graph.parent(nrid).rid for nrid in alloc.cores}
        assert len(racks_used) == 2

    def test_cluster_power_cap_rejects(self):
        graph = build_cluster_graph("c", n_racks=1, nodes_per_rack=2,
                                    sockets=2, cores_per_socket=4,
                                    cluster_power_cap=50.0)
        pool = ResourcePool(graph)
        with pytest.raises(AllocationError):
            pool.allocate("j", AllocationRequest(ncores=8,
                                                 watts_per_core=10.0))


class TestGrowShrink:
    def test_grow_adds_cores(self):
        graph, pool = make_pool()
        pool.allocate("j", AllocationRequest(ncores=4))
        assert pool.grow("j", 6) == 6
        assert pool.allocations["j"].ncores == 10
        assert pool.total_free_cores() == 22

    def test_grow_partial_when_scarce(self):
        graph, pool = make_pool()
        pool.allocate("big", AllocationRequest(ncores=30))
        pool.allocate("j", AllocationRequest(ncores=1))
        assert pool.grow("j", 5) == 1  # only one core left

    def test_shrink_returns_cores(self):
        graph, pool = make_pool()
        pool.allocate("j", AllocationRequest(ncores=10))
        assert pool.shrink("j", 4) == 4
        assert pool.allocations["j"].ncores == 6
        assert pool.total_free_cores() == 26

    def test_shrink_beyond_allocation_clamps(self):
        graph, pool = make_pool()
        pool.allocate("j", AllocationRequest(ncores=3))
        assert pool.shrink("j", 100) == 3
        assert pool.allocations["j"].ncores == 0

    def test_grow_respects_power_cap(self):
        graph = build_cluster_graph("c", 1, 2, sockets=2, cores_per_socket=4,
                                    cluster_power_cap=60.0)
        pool = ResourcePool(graph)
        pool.allocate("j", AllocationRequest(ncores=4, watts_per_core=10.0))
        # 40 W used; cap 60 W; only 2 more cores fit.
        assert pool.grow("j", 8) == 2

    def test_grow_and_shrink_power_accounting_balances(self):
        graph, pool = make_pool()
        pool.allocate("j", AllocationRequest(ncores=4, watts_per_core=5.0))
        pool.grow("j", 4)
        pool.shrink("j", 8)
        cluster_power = [r for r in graph.find(rt.POWER)
                         if r.name == "zin-power"][0]
        assert cluster_power.used == 0.0

    def test_grow_unknown_job_raises(self):
        graph, pool = make_pool()
        with pytest.raises(AllocationError):
            pool.grow("ghost", 1)


class TestConstraints:
    def test_max_cores_per_job(self):
        graph = build_cluster_graph("c", 1, 2, sockets=2, cores_per_socket=4)
        pool = ResourcePool(graph, constraints=[MaxCoresPerJob(8)])
        pool.allocate("ok", AllocationRequest(ncores=8))
        pool.release("ok")
        with pytest.raises(AllocationError, match="per-job limit"):
            pool.allocate("too-big", AllocationRequest(ncores=9))

    def test_max_nodes_per_job(self):
        graph = build_cluster_graph("c", 1, 4, sockets=1, cores_per_socket=4)
        pool = ResourcePool(graph, constraints=[MaxNodesPerJob(2)])
        with pytest.raises(AllocationError):
            pool.allocate("wide", AllocationRequest(ncores=12))

    def test_node_spread(self):
        graph = build_cluster_graph("c", 1, 4, sockets=1, cores_per_socket=4)
        pool = ResourcePool(graph, constraints=[NodeSpreadConstraint(2)])
        with pytest.raises(AllocationError):
            pool.allocate("narrow", AllocationRequest(ncores=4))
        pool.allocate("wide", AllocationRequest(ncores=4, cores_per_node=2))

    def test_power_budget_policy(self):
        graph = build_cluster_graph("c", 1, 2, sockets=2, cores_per_socket=4)
        power_rid = [r for r in graph.find(rt.POWER)
                     if r.name == "c-power"][0].rid
        pool = ResourcePool(graph,
                            constraints=[PowerBudget(power_rid, 50.0)])
        pool.allocate("ok", AllocationRequest(ncores=4, watts_per_core=10.0))
        with pytest.raises(AllocationError, match="power budget"):
            pool.allocate("over", AllocationRequest(ncores=2,
                                                    watts_per_core=10.0))

    def test_predicate_constraint(self):
        graph, _ = make_pool()
        deny_all = PredicateConstraint(lambda p, r, plan: "denied")
        pool = ResourcePool(graph, constraints=[deny_all])
        with pytest.raises(AllocationError, match="denied"):
            pool.allocate("j", AllocationRequest(ncores=1))

    def test_constraint_failure_leaves_no_residue(self):
        graph = build_cluster_graph("c", 1, 2, sockets=2, cores_per_socket=4)
        pool = ResourcePool(graph, constraints=[MaxCoresPerJob(4)])
        with pytest.raises(AllocationError):
            pool.allocate("j", AllocationRequest(ncores=8,
                                                 watts_per_core=10.0))
        assert pool.total_free_cores() == 16
        assert all(r.used == 0 for r in graph.find(rt.POWER))


class TestProjection:
    def test_projection_contains_only_the_grant(self):
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(ncores=10))
        child = project_allocation(graph, alloc, name="childview")
        assert child.count(rt.CORE) == 10
        assert child.count(rt.NODE) == alloc.nnodes
        assert child.root.name == "childview"

    def test_projection_scales_memory(self):
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(ncores=4))
        child = project_allocation(graph, alloc)
        mem = child.find(rt.MEMORY)[0]
        assert mem.capacity == pytest.approx(32 * 2**30 * 4 / 8)

    def test_projection_preserves_node_indices(self):
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(
            ncores=4, node_filter=lambda n: n.properties["index"] == 2))
        child = project_allocation(graph, alloc)
        assert child.find(rt.NODE)[0].properties["index"] == 2

    def test_child_pool_is_bounded(self):
        """Parent bounding rule: the child cannot allocate more than
        granted, no matter what it asks for."""
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(ncores=6))
        child_pool = ResourcePool(project_allocation(graph, alloc))
        assert child_pool.total_cores() == 6
        with pytest.raises(AllocationError):
            child_pool.allocate("sub", AllocationRequest(ncores=7))

    def test_graft_extends_existing_node(self):
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(ncores=4))
        child = project_allocation(graph, alloc)
        before = {nrid: set(v) for nrid, v in alloc.cores.items()}
        pool.grow("child", 2)
        new_cores = {
            nrid: [c for c in crids if c not in before.get(nrid, set())]
            for nrid, crids in alloc.cores.items()}
        new_cores = {n: c for n, c in new_cores.items() if c}
        added = graft_allocation(graph, child, new_cores)
        assert added == 2
        assert child.count(rt.CORE) == 6

    def test_graft_adds_new_node(self):
        graph, pool = make_pool()
        alloc = pool.allocate("child", AllocationRequest(ncores=8))
        child = project_allocation(graph, alloc)
        assert child.count(rt.NODE) == 1
        before = {nrid: set(v) for nrid, v in alloc.cores.items()}
        pool.grow("child", 8)  # spills onto a second node
        new_cores = {
            nrid: [c for c in crids if c not in before.get(nrid, set())]
            for nrid, crids in alloc.cores.items()}
        new_cores = {n: c for n, c in new_cores.items() if c}
        graft_allocation(graph, child, new_cores)
        assert child.count(rt.NODE) == 2
        assert child.count(rt.CORE) == 16
