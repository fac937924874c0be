"""Tests for the hierarchical resource graph."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sched.resources import (
    Allocation,
    Node,
    ResourceGraph,
    lassen_like,
    summit_like,
)
from repro.sched.resources import ResourceError


class TestNode:
    def test_shape(self):
        n = Node(0, ncores=44, ngpus=6, nsockets=2)
        assert n.free_cores == 44
        assert n.free_gpus == 6
        assert n.subtree_size() == 1 + 2 + 44 + 6

    def test_invalid_shapes(self):
        with pytest.raises(ResourceError):
            Node(0, ncores=0, ngpus=1)
        with pytest.raises(ResourceError):
            Node(0, ncores=45, ngpus=6, nsockets=2)  # uneven split

    def test_can_fit(self):
        n = Node(0, 4, 2)
        assert n.can_fit(4, 2)
        assert not n.can_fit(5, 0)
        assert not n.can_fit(0, 3)

    def test_drained_cannot_fit(self):
        n = Node(0, 4, 2)
        n.drained = True
        assert not n.can_fit(1, 0)

    def test_claim_release_roundtrip(self):
        n = Node(0, 4, 2)
        n.claim([0, 1], [0])
        assert n.free_cores == 2 and n.free_gpus == 1
        n.release([0, 1], [0])
        assert n.vacant

    def test_double_claim_rejected(self):
        n = Node(0, 4, 2)
        n.claim([0], [])
        with pytest.raises(ResourceError):
            n.claim([0], [])

    def test_double_release_rejected(self):
        n = Node(0, 4, 2)
        with pytest.raises(ResourceError):
            n.release([0], [])

    def test_socket_mapping(self):
        n = Node(0, ncores=44, ngpus=6, nsockets=2)
        assert n.socket_of_core(0) == 0
        assert n.socket_of_core(21) == 0
        assert n.socket_of_core(22) == 1
        assert n.socket_of_gpu(0) == 0
        assert n.socket_of_gpu(5) == 1

    def test_pick_prefers_gpu_socket(self):
        # GPU 5 lives on socket 1; its cores should come from socket 1.
        n = Node(0, ncores=44, ngpus=6, nsockets=2)
        n.claim([], [0, 1, 2])  # force pick to take a socket-1 GPU
        cores, gpus = n.pick(ncores=3, ngpus=1)
        assert gpus == [3]
        assert all(n.socket_of_core(c) == n.socket_of_gpu(3) for c in cores)

    def test_pick_falls_back_across_sockets(self):
        n = Node(0, ncores=4, ngpus=2, nsockets=2)
        cores, gpus = n.pick(ncores=4, ngpus=1)
        assert sorted(cores) == [0, 1, 2, 3]

    def test_pick_infeasible_raises(self):
        n = Node(0, 2, 1)
        with pytest.raises(ResourceError):
            n.pick(3, 0)


class TestResourceGraph:
    def test_presets(self):
        g = summit_like(10)
        assert g.total_cores == 440 and g.total_gpus == 60
        g2 = lassen_like(10)
        assert g2.total_gpus == 40

    def test_claim_updates_aggregates(self):
        g = summit_like(2)
        alloc = g.claim([(0, [0, 1, 2], [0])])
        assert g.used_cores == 3 and g.used_gpus == 1
        g.release(alloc)
        assert g.used_cores == 0 and g.used_gpus == 0

    def test_claim_is_atomic(self):
        g = summit_like(2)
        g.claim([(1, [0], [])])
        with pytest.raises(ResourceError):
            g.claim([(0, [5], []), (1, [0], [])])  # second part conflicts
        # first part must have been rolled back
        assert g.nodes[0].free_cores == 44

    def test_feasible_mask_matches_nodes(self):
        g = summit_like(4)
        g.claim([(1, list(range(44)), list(range(6)))])
        mask = g.feasible_mask(3, 1)
        np.testing.assert_array_equal(mask, [True, False, True, True])

    def test_feasible_mask_exclusive(self):
        g = summit_like(3)
        g.claim([(0, [0], [])])
        mask = g.feasible_mask(0, 0, exclusive=True)
        np.testing.assert_array_equal(mask, [False, True, True])

    def test_drain_excludes_from_feasibility(self):
        g = summit_like(3)
        g.drain(1)
        assert list(g.feasible_ids(1, 0)) == [0, 2]
        assert g.drained_nodes() == [1]
        g.undrain(1)
        assert list(g.feasible_ids(1, 0)) == [0, 1, 2]

    def test_first_feasible_wraps_around(self):
        g = summit_like(4)
        ids, scanned = g.first_feasible(start=3, need=2, ncores=1, ngpus=0)
        assert ids == [3, 0]
        assert scanned <= 4

    def test_first_feasible_counts_scan(self):
        g = summit_like(10)
        for i in range(5):  # fill nodes 0-4 completely
            g.claim([(i, list(range(44)), list(range(6)))])
        ids, scanned = g.first_feasible(start=0, need=1, ncores=1, ngpus=0)
        assert ids == [5]
        assert scanned == 6  # inspected nodes 0..5

    def test_first_feasible_not_enough(self):
        g = summit_like(2)
        ids, scanned = g.first_feasible(start=0, need=5, ncores=1, ngpus=0)
        assert len(ids) == 2
        assert scanned >= 2

    def test_total_vertices(self):
        g = summit_like(10)
        assert g.total_vertices() == 1 + 10 * (1 + 2 + 44 + 6)

    def test_needs_a_node(self):
        with pytest.raises(ResourceError):
            ResourceGraph(0, 4, 1)


@given(
    ops=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(0, 2)), max_size=30)
)
def test_property_array_mirror_stays_consistent(ops):
    """The vectorized arrays always agree with per-node bookkeeping."""
    g = ResourceGraph(4, cores_per_node=8, gpus_per_node=2)
    allocs = []
    for node_id, ncores, ngpus in ops:
        node = g.nodes[node_id]
        if node.can_fit(ncores, ngpus):
            cores, gpus = node.pick(ncores, ngpus)
            allocs.append(g.claim([(node_id, cores, gpus)]))
        elif allocs:
            g.release(allocs.pop())
        for n in g.nodes:
            assert g._fc[n.node_id] == n.free_cores
            assert g._fg[n.node_id] == n.free_gpus


def test_occupancy_properties_equal_per_node_sums():
    """The array-backed aggregates the profiler polls agree with sums
    over the Node objects across claims, releases, drains and undrains."""
    rng = np.random.default_rng(5)
    g = ResourceGraph(24, cores_per_node=8, gpus_per_node=3, partition_size=5)
    allocs = []

    def check():
        live = [n for n in g.nodes if not n.drained]
        assert g.free_cores == sum(n.free_cores for n in live)
        assert g.free_gpus == sum(n.free_gpus for n in live)
        assert g.used_cores == g.total_cores - sum(n.free_cores for n in g.nodes)
        assert g.used_gpus == g.total_gpus - sum(n.free_gpus for n in g.nodes)
        for value in (g.free_cores, g.free_gpus, g.used_cores, g.used_gpus):
            assert type(value) is int

    kinds = set()
    for _ in range(400):
        op = rng.random()
        node = g.nodes[int(rng.integers(len(g)))]
        if op < 0.5 and not node.drained and (node.free_cores or node.free_gpus):
            cores, gpus = node.pick(int(rng.integers(0, node.free_cores + 1)),
                                    int(rng.integers(0, node.free_gpus + 1)))
            allocs.append(g.claim([(node.node_id, cores, gpus)]))
            kinds.add("claim")
        elif op < 0.8 and allocs:
            g.release(allocs.pop(int(rng.integers(len(allocs)))))
            kinds.add("release")
        elif op < 0.9:
            g.drain(node.node_id)
            kinds.add("drain")
        elif node.drained:
            g.undrain(node.node_id)
            kinds.add("undrain")
        check()
        if g.used_cores and g.drained_nodes():
            kinds.add("busy while drained")
    assert kinds == {"claim", "release", "drain", "undrain", "busy while drained"}
