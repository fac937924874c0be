"""Tests for the hierarchical resource graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.resources import (
    Allocation,
    ResourceGraph,
    lassen_like,
    summit_like,
)
from repro.sched.resources import ResourceError
from tests.sched.test_matcher_properties import assert_partition_summaries_consistent


def reference_pick(free_cores, free_gpus, ncores, ngpus, cores_per_node,
                   gpus_per_node, nsockets):
    """The list-based per-node pick the graph's bitmask ``pick`` replaced.

    Lowest free GPUs first; then cores on the first GPU's socket; then
    the lowest free cores anywhere. ``free_cores``/``free_gpus`` are
    ascending id lists.
    """
    if len(free_cores) < ncores or len(free_gpus) < ngpus:
        raise ResourceError(f"cannot fit {ncores}c/{ngpus}g")

    def socket_of_core(c):
        return c // (cores_per_node // nsockets)

    def socket_of_gpu(g):
        return g * nsockets // max(gpus_per_node, 1)

    gpu_ids = free_gpus[:ngpus]
    core_ids = []
    if gpu_ids:
        want_socket = socket_of_gpu(gpu_ids[0])
        same = [c for c in free_cores if socket_of_core(c) == want_socket]
        core_ids = same[:ncores]
    if len(core_ids) < ncores:
        chosen = set(core_ids)
        for c in free_cores:
            if len(core_ids) >= ncores:
                break
            if c not in chosen:
                core_ids.append(c)
                chosen.add(c)
    return core_ids, gpu_ids


class TestNode:
    """Per-node behaviour, read and written through the graph."""

    def test_shape(self):
        g = ResourceGraph(1, cores_per_node=44, gpus_per_node=6, nsockets=2)
        assert g.free_core_ids(0) == list(range(44))
        assert g.free_gpu_ids(0) == list(range(6))
        assert g.node_subtree_size == 1 + 2 + 44 + 6

    def test_invalid_shapes(self):
        with pytest.raises(ResourceError):
            ResourceGraph(1, cores_per_node=0, gpus_per_node=1)
        with pytest.raises(ResourceError):
            ResourceGraph(1, cores_per_node=45, gpus_per_node=6, nsockets=2)  # uneven split
        with pytest.raises(ResourceError):
            ResourceGraph(1, cores_per_node=4, gpus_per_node=-1)
        with pytest.raises(ResourceError):
            ResourceGraph(1, cores_per_node=4, gpus_per_node=1, nsockets=0)

    def test_can_fit(self):
        g = ResourceGraph(1, 4, 2)
        assert g.feasible_mask(4, 2)[0]
        assert not g.feasible_mask(5, 0)[0]
        assert not g.feasible_mask(0, 3)[0]

    def test_drained_cannot_fit(self):
        g = ResourceGraph(1, 4, 2)
        g.drain(0)
        assert not g.feasible_mask(1, 0)[0]
        with pytest.raises(ResourceError):
            g.pick(0, 1, 0)

    def test_claim_release_roundtrip(self):
        g = ResourceGraph(1, 4, 2)
        alloc = g.claim([(0, [0, 1], [0])])
        assert g.free_core_ids(0) == [2, 3] and g.free_gpu_ids(0) == [1]
        g.release(alloc)
        assert g.feasible_mask(0, 0, exclusive=True)[0]  # vacant again

    def test_double_claim_rejected(self):
        g = ResourceGraph(1, 4, 2)
        g.claim([(0, [0], [])])
        with pytest.raises(ResourceError):
            g.claim([(0, [0], [])])

    def test_double_release_rejected(self):
        g = ResourceGraph(1, 4, 2)
        with pytest.raises(ResourceError):
            g.release(Allocation(items=((0, (0,), ()),)))

    def test_socket_mapping(self):
        # Cores 0-21 and GPUs 0-2 sit on socket 0; cores 22-43 and GPUs
        # 3-5 on socket 1.
        g = summit_like(1)
        g.claim([(0, list(range(21)), [])])
        assert g.pick(0, ncores=2, ngpus=1) == ([21, 22], [0])
        g.claim([(0, [], [0, 1])])
        assert g.pick(0, ncores=1, ngpus=1) == ([21], [2])
        g.claim([(0, [], [2, 3, 4])])
        assert g.pick(0, ncores=1, ngpus=1) == ([22], [5])

    def test_pick_prefers_gpu_socket(self):
        # GPU 3 lives on socket 1 (cores 22-43); its cores come from there.
        g = summit_like(1)
        g.claim([(0, [], [0, 1, 2])])  # force pick to take a socket-1 GPU
        cores, gpus = g.pick(0, ncores=3, ngpus=1)
        assert gpus == [3]
        assert cores == [22, 23, 24]

    def test_pick_falls_back_across_sockets(self):
        g = ResourceGraph(1, cores_per_node=4, gpus_per_node=2, nsockets=2)
        cores, gpus = g.pick(0, ncores=4, ngpus=1)
        assert sorted(cores) == [0, 1, 2, 3]

    def test_pick_infeasible_raises(self):
        g = ResourceGraph(1, 2, 1)
        with pytest.raises(ResourceError):
            g.pick(0, 3, 0)


@st.composite
def occupied_nodes(draw):
    """A one-node graph of a Summit, Lassen or random shape (one or two
    sockets) with random ids claimed, plus a request to pick."""
    shape = draw(st.sampled_from(["summit", "lassen", "random"]))
    if shape == "summit":
        graph = summit_like(1)
    elif shape == "lassen":
        graph = lassen_like(1)
    else:
        nsockets = draw(st.sampled_from([1, 2]))
        graph = ResourceGraph(1, cores_per_node=nsockets * draw(st.integers(1, 24)),
                              gpus_per_node=draw(st.integers(0, 6)), nsockets=nsockets)
    ncores, ngpus = graph.cores_per_node, graph.gpus_per_node
    used_cores = draw(st.sets(st.integers(0, ncores - 1)))
    used_gpus = draw(st.sets(st.integers(0, ngpus - 1))) if ngpus else set()
    graph.claim([(0, sorted(used_cores), sorted(used_gpus))])
    free_cores = [c for c in range(ncores) if c not in used_cores]
    free_gpus = [g for g in range(ngpus) if g not in used_gpus]
    request = (draw(st.integers(0, ncores)), draw(st.integers(0, ngpus)))
    return graph, free_cores, free_gpus, request


@settings(max_examples=400, deadline=None)
@given(case=occupied_nodes())
def test_pick_equals_the_list_reference(case):
    graph, free_cores, free_gpus, (ncores, ngpus) = case
    assert graph.free_core_ids(0) == free_cores
    assert graph.free_gpu_ids(0) == free_gpus
    try:
        expected = reference_pick(free_cores, free_gpus, ncores, ngpus,
                                  graph.cores_per_node, graph.gpus_per_node,
                                  graph.nsockets)
    except ResourceError:
        with pytest.raises(ResourceError):
            graph.pick(0, ncores, ngpus)
        return
    assert graph.pick(0, ncores, ngpus) == expected


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
        assert len(g.free_core_ids(0)) == 44

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


def _counts(g):
    return (g._fc.tolist(), g._fg.tolist(), g._part_max_fc.tolist(),
            g._part_max_fg.tolist(), g._part_nvacant.tolist())


@pytest.mark.parametrize("placement", [
    [(0, [0], []), (1, [99], [])],
    [(0, [1, 1], [])],
    [(0, [-1], [])],
    [(0, [0], [0, 0])],
    [(0, [0], []), (2, [0], [])],
    [(-1, [0], [])],
], ids=["core-out-of-range", "repeated-core", "negative-core", "repeated-gpu",
        "node-out-of-range", "negative-node"])
def test_bad_ids_raise_and_change_nothing(placement):
    """Every id is checked before the graph changes: no partial claim
    survives a bad id later in the placement."""
    g = ResourceGraph(2, 4, 1)
    counts = _counts(g)
    with pytest.raises(ResourceError):
        g.claim(placement)
    assert _counts(g) == counts
    assert g._core_mask == [0b1111, 0b1111] and g._gpu_mask == [1, 1]


def test_bad_release_changes_nothing():
    g = ResourceGraph(2, 4, 1)
    g.claim([(0, [0], [])])
    counts = _counts(g)
    with pytest.raises(ResourceError):
        g.release(Allocation(items=((0, (0,), ()), (1, (0,), ()))))  # node 1 core 0 is free
    assert _counts(g) == counts
    assert g.free_core_ids(0) == [1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["claim", "release", "drain", "undrain"]),
              st.integers(0, 6), st.integers(0, 8), st.integers(0, 3)),
    max_size=40,
))
def test_counts_and_watermarks_follow_the_masks(ops):
    """After every claim, release, drain and undrain the free counts are
    the masks' popcounts, the masks hold exactly the ids no live
    allocation holds, and the partition summaries equal a recompute."""
    g = ResourceGraph(7, cores_per_node=8, gpus_per_node=3, partition_size=3)
    allocs = []
    for kind, node_id, ncores, ngpus in ops:
        if kind == "claim":
            try:
                cores, gpus = g.pick(node_id, ncores, ngpus)
            except ResourceError:
                continue
            allocs.append(g.claim([(node_id, cores, gpus)]))
        elif kind == "release" and allocs:
            g.release(allocs.pop(ncores % len(allocs)))
        elif kind == "drain":
            g.drain(node_id)
        elif kind == "undrain":
            g.undrain(node_id)
        for i in range(len(g)):
            assert g._fc[i] == g._core_mask[i].bit_count()
            assert g._fg[i] == g._gpu_mask[i].bit_count()
            held = [(c, gp) for a in allocs for nid, c, gp in a.items if nid == i]
            held_cores = sorted(c for cs, _ in held for c in cs)
            held_gpus = sorted(gp for _, gs in held for gp in gs)
            assert held_cores == sorted(set(range(8)) - set(g.free_core_ids(i)))
            assert held_gpus == sorted(set(range(3)) - set(g.free_gpu_ids(i)))
        assert_partition_summaries_consistent(g)


def test_occupancy_properties_equal_per_node_sums():
    """The array-backed aggregates the profiler polls agree with sums of
    per-node free ids across claims, releases, drains and undrains."""
    rng = np.random.default_rng(5)
    g = ResourceGraph(24, cores_per_node=8, gpus_per_node=3, partition_size=5)
    allocs = []

    def check():
        drained = g.drained_nodes()
        live = [i for i in range(len(g)) if i not in drained]
        assert g.free_cores == sum(len(g.free_core_ids(i)) for i in live)
        assert g.free_gpus == sum(len(g.free_gpu_ids(i)) for i in live)
        assert g.used_cores == g.total_cores - sum(
            len(g.free_core_ids(i)) for i in range(len(g)))
        assert g.used_gpus == g.total_gpus - sum(
            len(g.free_gpu_ids(i)) for i in range(len(g)))
        for value in (g.free_cores, g.free_gpus, g.used_cores, g.used_gpus):
            assert type(value) is int

    kinds = set()
    for _ in range(400):
        op = rng.random()
        node_id = int(rng.integers(len(g)))
        drained = node_id in g.drained_nodes()
        free_cores = len(g.free_core_ids(node_id))
        free_gpus = len(g.free_gpu_ids(node_id))
        if op < 0.5 and not drained and (free_cores or free_gpus):
            cores, gpus = g.pick(node_id, int(rng.integers(0, free_cores + 1)),
                                 int(rng.integers(0, free_gpus + 1)))
            allocs.append(g.claim([(node_id, cores, gpus)]))
            kinds.add("claim")
        elif op < 0.8 and allocs:
            g.release(allocs.pop(int(rng.integers(len(allocs)))))
            kinds.add("release")
        elif op < 0.9:
            g.drain(node_id)
            kinds.add("drain")
        elif drained:
            g.undrain(node_id)
            kinds.add("undrain")
        check()
        if g.used_cores and g.drained_nodes():
            kinds.add("busy while drained")
    assert kinds == {"claim", "release", "drain", "undrain", "busy while drained"}
