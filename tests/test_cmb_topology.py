"""Unit and property-based tests for overlay topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.cmb.topology import RingTopology, TreeTopology, flat_topology


class TestTreeTopology:
    def test_binary_tree_parents(self):
        t = TreeTopology(7, arity=2)
        assert t.parent(0) is None
        assert t.parent(1) == 0 and t.parent(2) == 0
        assert t.parent(3) == 1 and t.parent(4) == 1
        assert t.parent(5) == 2 and t.parent(6) == 2

    def test_binary_tree_children(self):
        t = TreeTopology(7, arity=2)
        assert t.children(0) == [1, 2]
        assert t.children(1) == [3, 4]
        assert t.children(3) == []

    def test_children_clipped_at_size(self):
        t = TreeTopology(4, arity=2)
        assert t.children(1) == [3]

    def test_depths(self):
        t = TreeTopology(15, arity=2)
        assert t.depth(0) == 0
        assert t.depth(1) == 1
        assert t.depth(7) == 3
        assert t.max_depth() == 3

    def test_subtree_covers_descendants(self):
        t = TreeTopology(7, arity=2)
        assert sorted(t.subtree(1)) == [1, 3, 4]
        assert t.subtree_size(0) == 7

    def test_quad_tree(self):
        t = TreeTopology(21, arity=4)
        assert t.children(0) == [1, 2, 3, 4]
        assert t.parent(5) == 1
        assert t.max_depth() == 2

    def test_flat_topology_is_star(self):
        t = flat_topology(10)
        assert t.children(0) == list(range(1, 10))
        assert all(t.parent(r) == 0 for r in range(1, 10))
        assert t.max_depth() == 1

    def test_single_node(self):
        t = TreeTopology(1)
        assert t.parent(0) is None
        assert t.children(0) == []
        assert t.max_depth() == 0

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            TreeTopology(0)
        with pytest.raises(ValueError):
            TreeTopology(4, arity=0)

    def test_out_of_range_rank_rejected(self):
        t = TreeTopology(4)
        with pytest.raises(ValueError):
            t.parent(4)
        with pytest.raises(ValueError):
            t.children(-1)

    def test_parent_map_matches_methods(self):
        t = TreeTopology(9, arity=3)
        pm = t.parent_map()
        assert pm == {r: t.parent(r) for r in range(9)}

    @given(size=st.integers(1, 300), arity=st.integers(1, 8))
    def test_parent_child_consistency(self, size, arity):
        """r is a child of parent(r), for every non-root rank."""
        t = TreeTopology(size, arity)
        for r in range(1, size):
            assert r in t.children(t.parent(r))

    @given(size=st.integers(1, 300), arity=st.integers(1, 8))
    def test_subtree_of_root_is_everything(self, size, arity):
        t = TreeTopology(size, arity)
        assert sorted(t.subtree(0)) == list(range(size))

    @given(size=st.integers(2, 300), arity=st.integers(2, 8))
    def test_depth_is_logarithmic(self, size, arity):
        import math
        t = TreeTopology(size, arity)
        bound = math.ceil(math.log(size, arity)) + 1
        assert t.max_depth() <= bound


class TestTopologyRouting:
    def test_is_in_subtree(self):
        t = TreeTopology(15, arity=2)
        assert t.is_in_subtree(7, 1)   # 7 under 3 under 1
        assert t.is_in_subtree(1, 1)
        assert not t.is_in_subtree(2, 1)
        assert t.is_in_subtree(14, 0)

    def test_next_hop_up_and_down(self):
        t = TreeTopology(15, arity=2)
        assert t.next_hop_toward(7, 0) == 3   # upward
        assert t.next_hop_toward(0, 7) == 1   # downward
        assert t.next_hop_toward(1, 7) == 3
        assert t.next_hop_toward(7, 8) == 3   # over the LCA

    def test_next_hop_same_rank_rejected(self):
        with pytest.raises(ValueError):
            TreeTopology(7).next_hop_toward(3, 3)


class TestRingTopology:
    def test_next_wraps(self):
        r = RingTopology(4)
        assert r.next_rank(0) == 1
        assert r.next_rank(3) == 0

    def test_distance(self):
        r = RingTopology(5)
        assert r.distance(0, 3) == 3
        assert r.distance(3, 0) == 2
        assert r.distance(2, 2) == 0

    def test_out_of_range_rejected(self):
        r = RingTopology(3)
        with pytest.raises(ValueError):
            r.next_rank(3)

    @given(size=st.integers(1, 100), rank=st.integers(0, 99))
    def test_walking_the_ring_visits_everyone(self, size, rank):
        if rank >= size:
            rank %= size
        r = RingTopology(size)
        seen, cur = set(), rank
        for _ in range(size):
            seen.add(cur)
            cur = r.next_rank(cur)
        assert seen == set(range(size))
        assert cur == rank
