"""Property-based matcher tests: seeded random graphs + request streams.

No hypothesis in the container, so this is the poor-man's equivalent:
``numpy`` Generators seeded per case drive both the resource-graph
shapes and the job streams, and every property is checked over dozens
of sampled scenarios. Failures print the offending seed so a case can
be replayed exactly.

Properties:

- *capacity*: across any mix of matches and releases, under any
  policy, no node ever has more cores/GPUs claimed than it owns, and no
  resource is double-claimed (the graph raises if a claim conflicts).
- *conservation*: releasing everything returns the graph to fully free
  — checked from 2-node graphs up to 40k-node graphs under churn.
- *cursor*: the first-match round-robin cursor advances only when a
  request fully places (the PR 4 invariant) and always stays a valid
  node index.
- *agreement*: both paper policies succeed or fail together on a fresh
  graph (they differ in cost and choice, never in feasibility) for
  single-node requests.
- *oracle equivalence*: the partitioned matcher is behaviorally
  identical to the flat matcher — same allocations, same cursor, same
  success/failure — under every policy, on mirrored call streams. Only
  the traversal cost may differ, and then only downward (watermark
  skips never add node visits).
- *gang/preemption*: ensembles place all-or-nothing and preemption is
  all-or-nothing too; neither can leak or double-claim resources, and
  a failed attempt leaves graph and cursor untouched.
"""

import numpy as np
import pytest

from repro.sched.jobspec import JobSpec
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import ResourceGraph

SEEDS = range(12)


def random_graph(rng):
    # Cores split across 2 sockets, so per-node core counts are even.
    # Tiny partition sizes force multi-partition graphs so the
    # watermark-skip machinery is always in play.
    return ResourceGraph(
        nnodes=int(rng.integers(2, 20)),
        cores_per_node=2 * int(rng.integers(1, 17)),
        gpus_per_node=int(rng.integers(0, 5)),
        partition_size=int(rng.integers(1, 8)),
    )


def clone_graph(graph):
    """A fresh graph with the same shape (for mirrored-stream oracles)."""
    return ResourceGraph(
        nnodes=len(graph),
        cores_per_node=graph.cores_per_node,
        gpus_per_node=graph.gpus_per_node,
        partition_size=graph.partition_size,
    )


def assert_partition_summaries_consistent(graph):
    """Partition watermarks/vacancy must equal a recompute from scratch."""
    for p in range(graph.npartitions):
        lo, hi = graph._partition_bounds(p)
        drained = graph._drained_mask[lo:hi]
        fc = np.where(drained, -1, graph._fc[lo:hi])
        fg = np.where(drained, -1, graph._fg[lo:hi])
        assert graph._part_max_fc[p] == fc.max(), f"stale core watermark in partition {p}"
        assert graph._part_max_fg[p] == fg.max(), f"stale gpu watermark in partition {p}"
        nvacant = np.count_nonzero(
            (fc == graph.cores_per_node) & (fg == graph.gpus_per_node))
        assert graph._part_nvacant[p] == nvacant, f"stale vacancy count in partition {p}"


def random_spec(rng, graph, tight=False):
    """A request that is sometimes satisfiable, sometimes not."""
    stretch = 2 if tight else 1
    ncores = int(rng.integers(1, stretch * graph.cores_per_node + 1))
    ngpus = int(rng.integers(0, graph.gpus_per_node + 2)) if graph.gpus_per_node else 0
    return JobSpec(
        name=f"job-{int(rng.integers(1e6))}",
        ncores=ncores,
        ngpus=ngpus,
        nnodes=int(rng.integers(1, 4)),
        exclusive=bool(rng.random() < 0.1),
    )


def assert_within_capacity(graph, live_allocs):
    claimed_cores = {}
    claimed_gpus = {}
    for alloc in live_allocs:
        for node_id, cores, gpus in alloc.items:
            for c in cores:
                assert (node_id, c) not in claimed_cores, \
                    f"core {c} on node {node_id} double-claimed"
                claimed_cores[(node_id, c)] = True
            for g in gpus:
                assert (node_id, g) not in claimed_gpus
                claimed_gpus[(node_id, g)] = True
            in_use_here = sum(1 for (n, _) in claimed_cores if n == node_id)
            assert in_use_here <= graph.cores_per_node
            gpus_here = sum(1 for (n, _) in claimed_gpus if n == node_id)
            assert gpus_here <= graph.gpus_per_node


@pytest.mark.parametrize("policy", list(MatchPolicy))
@pytest.mark.parametrize("seed", SEEDS)
def test_no_placement_exceeds_node_capacity(policy, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=policy)
    live = []
    for _ in range(60):
        if live and rng.random() < 0.35:
            matcher.release(live.pop(int(rng.integers(len(live)))))
            continue
        alloc = matcher.match(random_spec(rng, graph, tight=True))
        if alloc is not None:
            live.append(alloc)
        assert_within_capacity(graph, live)
    for alloc in live:
        matcher.release(alloc)
    # Conservation: everything released → graph fully free again.
    assert sum(len(graph.free_core_ids(i)) for i in range(len(graph))) == \
        len(graph) * graph.cores_per_node
    assert sum(len(graph.free_gpu_ids(i)) for i in range(len(graph))) == \
        len(graph) * graph.gpus_per_node


@pytest.mark.parametrize("seed", SEEDS)
def test_rr_cursor_advances_only_on_full_placement(seed):
    rng = np.random.default_rng(100 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    for _ in range(80):
        before = matcher._rr_cursor
        alloc = matcher.match(random_spec(rng, graph, tight=True))
        after = matcher._rr_cursor
        assert 0 <= after < len(graph)
        if alloc is None:
            # The PR 4 invariant: a failed (or partially feasible) match
            # must not rotate the cursor past the few feasible nodes.
            assert after == before, f"cursor moved on failed match (seed {seed})"
        if alloc is not None and rng.random() < 0.5:
            matcher.release(alloc)


@pytest.mark.parametrize("seed", SEEDS)
def test_policies_agree_on_single_node_feasibility(seed):
    rng = np.random.default_rng(200 + seed)
    nnodes = int(rng.integers(2, 12))
    cores = 2 * int(rng.integers(1, 9))
    gpus = int(rng.integers(0, 3))
    for _ in range(40):
        spec_rng = np.random.default_rng(int(rng.integers(2**31)))
        graph_a = ResourceGraph(nnodes, cores, gpus)
        graph_b = ResourceGraph(nnodes, cores, gpus)
        spec = random_spec(spec_rng, graph_a, tight=True)
        if spec.nnodes > 1 or spec.exclusive:
            continue
        a = Matcher(graph_a, policy=MatchPolicy.LOW_ID_FIRST).match(spec)
        b = Matcher(graph_b, policy=MatchPolicy.FIRST_MATCH).match(spec)
        assert (a is None) == (b is None), \
            f"policies disagree on feasibility (seed {seed}, spec {spec})"


@pytest.mark.parametrize("seed", range(6))
def test_first_match_visits_no_more_than_exhaustive(seed):
    rng = np.random.default_rng(300 + seed)
    graph_a = ResourceGraph(16, 8, 2)
    graph_b = ResourceGraph(16, 8, 2)
    low = Matcher(graph_a, policy=MatchPolicy.LOW_ID_FIRST)
    fast = Matcher(graph_b, policy=MatchPolicy.FIRST_MATCH)
    for _ in range(50):
        spec = random_spec(rng, graph_a)
        spec_b = JobSpec(name=spec.name, ncores=spec.ncores, ngpus=spec.ngpus,
                         nnodes=spec.nnodes, exclusive=spec.exclusive)
        low.match(spec)
        fast.match(spec_b)
    assert fast.stats.vertices_visited <= low.stats.vertices_visited


# --- partitioned-vs-flat oracle equivalence ---------------------------------


@pytest.mark.parametrize("policy", list(MatchPolicy))
@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_matches_flat_oracle(policy, seed):
    """The partitioned matcher is observationally identical to the flat
    one on a mirrored call stream: same success/failure, same node and
    resource ids in every allocation, same rotating cursor afterwards —
    and never more node visits (watermark skips only remove work)."""
    rng = np.random.default_rng(400 + seed)
    graph_p = random_graph(rng)
    graph_f = clone_graph(graph_p)
    part = Matcher(graph_p, policy=policy, partitioned=True)
    flat = Matcher(graph_f, policy=policy, partitioned=False)
    live = []  # (partitioned alloc, flat alloc) pairs
    for step in range(80):
        if live and rng.random() < 0.3:
            ap, af = live.pop(int(rng.integers(len(live))))
            part.release(ap)
            flat.release(af)
            continue
        spec = random_spec(rng, graph_p, tight=True)
        before_p = part.stats.vertices_visited
        before_f = flat.stats.vertices_visited
        ap = part.match(spec)
        af = flat.match(spec)
        assert (ap is None) == (af is None), \
            f"feasibility diverged (seed {seed}, step {step}, spec {spec})"
        if ap is not None:
            assert ap.items == af.items, \
                f"placement diverged (seed {seed}, step {step}, spec {spec})"
            live.append((ap, af))
        assert part._rr_cursor == flat._rr_cursor, \
            f"cursor diverged (seed {seed}, step {step})"
        assert (part.stats.vertices_visited - before_p) <= \
            (flat.stats.vertices_visited - before_f), \
            f"partitioned scan cost more than flat (seed {seed}, step {step})"
    assert_partition_summaries_consistent(graph_p)
    for ap, af in live:
        part.release(ap)
        flat.release(af)
    assert np.array_equal(graph_p._fc, graph_f._fc)
    assert np.array_equal(graph_p._fg, graph_f._fg)


# --- capacity conservation under churn at scale -----------------------------


def _churn_and_check(nnodes, seed, ops):
    graph = ResourceGraph(nnodes, cores_per_node=8, gpus_per_node=2,
                          partition_size=256)
    rng = np.random.default_rng(seed)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH, partitioned=True)
    live = []
    for _ in range(ops):
        if live and rng.random() < 0.4:
            matcher.release(live.pop(int(rng.integers(len(live)))))
            continue
        spec = JobSpec(
            name="churn",
            ncores=int(rng.integers(1, 9)),
            ngpus=int(rng.integers(0, 3)),
            nnodes=int(rng.integers(1, 4)),
            exclusive=bool(rng.random() < 0.2),
        )
        alloc = matcher.match(spec)
        if alloc is not None:
            live.append(alloc)
    assert_partition_summaries_consistent(graph)
    for alloc in live:
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores
    assert int(graph._fg.sum()) == graph.total_gpus
    assert graph.free_cores == graph.total_cores
    assert graph.free_gpus == graph.total_gpus
    assert_partition_summaries_consistent(graph)


@pytest.mark.parametrize("seed", range(4))
def test_capacity_conserved_under_churn_1k(seed):
    _churn_and_check(1000, 500 + seed, ops=120)


@pytest.mark.matcher_scale
@pytest.mark.parametrize("seed", range(2))
def test_capacity_conserved_under_churn_10k(seed):
    _churn_and_check(10_000, 600 + seed, ops=120)


@pytest.mark.matcher_scale
@pytest.mark.parametrize("seed", range(2))
def test_capacity_conserved_under_churn_40k(seed):
    _churn_and_check(40_000, 700 + seed, ops=120)


# --- first-match visit-count upper bound with skips -------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_first_match_visit_bound(seed):
    """Per call, the partitioned first-match charge (nodes scanned plus
    one per skipped partition) never exceeds the graph size, and across
    a stream it never exceeds the flat scan's total."""
    rng = np.random.default_rng(800 + seed)
    graph = random_graph(rng)
    graph_flat = clone_graph(graph)
    part = Matcher(graph, policy=MatchPolicy.FIRST_MATCH, partitioned=True)
    flat = Matcher(graph_flat, policy=MatchPolicy.FIRST_MATCH, partitioned=False)
    n = len(graph)
    for _ in range(60):
        spec = random_spec(rng, graph, tight=True)
        before = part.stats.vertices_visited
        ap = part.match(spec)
        af = flat.match(spec)
        scan_charge = part.stats.vertices_visited - before
        if ap is not None:
            # Subtract the claim-enumeration charge to isolate the scan.
            scan_charge -= ap.ncores + ap.ngpus
        assert scan_charge <= n + graph.npartitions, \
            f"scan charged {scan_charge} on a {n}-node graph (seed {seed})"
        if ap is not None:
            part.release(ap)
        if af is not None:
            flat.release(af)
    assert part.stats.vertices_visited <= flat.stats.vertices_visited
    assert part.stats.partitions_skipped >= 0


# --- gang all-or-nothing ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_gang_is_all_or_nothing(seed):
    """A failed gang leaves the graph and cursor exactly as they were; a
    placed gang holds exactly its members' resources and releases back
    to the pre-gang state."""
    rng = np.random.default_rng(900 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.GANG, partitioned=True)
    # Pre-load some background occupancy so gangs sometimes fail.
    background = []
    for _ in range(int(rng.integers(0, 6))):
        alloc = matcher.match(random_spec(rng, graph))
        if alloc is not None:
            background.append(alloc)
    for _ in range(15):
        size = int(rng.integers(1, 5))
        gang = [
            JobSpec(name=f"g{j}", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
                    ngpus=int(rng.integers(0, graph.gpus_per_node + 1)),
                    gang_id="ens")
            for j in range(size)
        ]
        fc_before = graph._fc.copy()
        fg_before = graph._fg.copy()
        cursor_before = matcher._rr_cursor
        allocs = matcher.match_gang(gang)
        if allocs is None:
            assert np.array_equal(graph._fc, fc_before), \
                f"failed gang leaked cores (seed {seed})"
            assert np.array_equal(graph._fg, fg_before), \
                f"failed gang leaked gpus (seed {seed})"
            assert matcher._rr_cursor == cursor_before, \
                f"failed gang moved the cursor (seed {seed})"
        else:
            assert len(allocs) == len(gang)
            for held in allocs:
                matcher.release(held)
            assert np.array_equal(graph._fc, fc_before)
            assert np.array_equal(graph._fg, fg_before)
        assert_partition_summaries_consistent(graph)
    for alloc in background:
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores


# --- preemption no-resource-leak --------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_preempt_never_leaks_resources(seed):
    """Preemption evicts only strictly-lower-priority victims, and both
    outcomes are leak-free: failure restores the graph bit-for-bit,
    success holds exactly the new allocation plus the survivors."""
    rng = np.random.default_rng(1000 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH, partitioned=True)
    running = {}  # key -> (priority, alloc)
    key = 0
    # Fill the machine with low/medium-priority work.
    for _ in range(40):
        prio = int(rng.integers(0, 3))
        alloc = matcher.match(JobSpec(
            name=f"bg{key}", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
            ngpus=int(rng.integers(0, graph.gpus_per_node + 1)), priority=prio))
        if alloc is not None:
            running[key] = (prio, alloc)
            key += 1
    for _ in range(10):
        spec = JobSpec(
            name="urgent", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
            ngpus=int(rng.integers(0, graph.gpus_per_node + 1)),
            priority=int(rng.integers(0, 5)))
        victims = [(prio, k, alloc) for k, (prio, alloc) in running.items()]
        fc_before = graph._fc.copy()
        fg_before = graph._fg.copy()
        result = matcher.preempt(spec, victims)
        if result is None:
            assert np.array_equal(graph._fc, fc_before), \
                f"failed preempt leaked cores (seed {seed})"
            assert np.array_equal(graph._fg, fg_before), \
                f"failed preempt leaked gpus (seed {seed})"
        else:
            placement, evicted_keys = result
            for k in evicted_keys:
                assert running[k][0] < spec.priority, \
                    f"evicted an equal/higher-priority job (seed {seed})"
                del running[k]
            running[key] = (spec.priority, placement)
            key += 1
        # Accounting: free + held == total, with no double claims.
        held = [alloc for _, alloc in running.values()]
        assert_within_capacity(graph, held)
        held_cores = sum(a.ncores for a in held)
        held_gpus = sum(a.ngpus for a in held)
        assert int(graph._fc.sum()) == graph.total_cores - held_cores
        assert int(graph._fg.sum()) == graph.total_gpus - held_gpus
        assert_partition_summaries_consistent(graph)
    for _, alloc in running.values():
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores
    assert int(graph._fg.sum()) == graph.total_gpus
