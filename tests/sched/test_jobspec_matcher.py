"""Tests for job specs and the two matcher policies."""

import pytest

from repro.sched.jobspec import JobRecord, JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import summit_like


class TestJobSpec:
    def test_defaults(self):
        s = JobSpec(name="cg-sim", ncores=2, ngpus=1)
        assert s.total_cores == 2 and s.total_gpus == 1

    def test_multi_node_totals(self):
        s = JobSpec(name="continuum", nnodes=150, ncores=24)
        assert s.total_cores == 150 * 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nnodes=0),
            dict(ncores=-1),
            dict(ngpus=-2),
            dict(ncores=0, ngpus=0),
            dict(duration=-5.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            JobSpec(name="bad", **{**dict(ncores=1), **kwargs})

    def test_exclusive_may_request_zero(self):
        s = JobSpec(name="bundle", exclusive=True, ncores=0, ngpus=0)
        assert s.exclusive

    def test_terminal_states(self):
        assert JobState.COMPLETED.is_terminal
        assert JobState.FAILED.is_terminal
        assert JobState.CANCELLED.is_terminal
        assert not JobState.PENDING.is_terminal
        assert not JobState.RUNNING.is_terminal


class TestJobRecord:
    def test_ids_are_unique(self):
        a = JobRecord(spec=JobSpec(name="x", ncores=1))
        b = JobRecord(spec=JobSpec(name="x", ncores=1))
        assert a.job_id != b.job_id

    def test_wait_and_run_times(self):
        r = JobRecord(spec=JobSpec(name="x", ncores=1), submit_time=10.0)
        assert r.wait_time is None and r.run_time is None
        r.start_time = 15.0
        r.end_time = 40.0
        assert r.wait_time == 5.0
        assert r.run_time == 25.0

    def test_history_row(self):
        r = JobRecord(spec=JobSpec(name="cg", ncores=3, ngpus=1, tag="sim7"))
        row = r.to_dict()
        assert row["name"] == "cg" and row["tag"] == "sim7"
        assert row["state"] == "pending"


GPU_JOB = JobSpec(name="cg-sim", ncores=3, ngpus=1)


class TestMatcherBasics:
    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_match_claims_resources(self, policy):
        g = summit_like(2)
        m = Matcher(g, policy)
        alloc = m.match(GPU_JOB)
        assert alloc is not None
        assert alloc.ncores == 3 and alloc.ngpus == 1
        assert g.used_gpus == 1

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_release_returns_resources(self, policy):
        g = summit_like(1)
        m = Matcher(g, policy)
        alloc = m.match(GPU_JOB)
        m.release(alloc)
        assert g.used_cores == 0 and g.used_gpus == 0

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_fills_machine_exactly(self, policy):
        g = summit_like(2)  # 12 GPUs
        m = Matcher(g, policy)
        allocs = [m.match(GPU_JOB) for _ in range(12)]
        assert all(a is not None for a in allocs)
        assert m.match(GPU_JOB) is None  # 13th GPU job cannot fit
        assert m.stats.failed == 1

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_multi_node_job(self, policy):
        g = summit_like(5)
        m = Matcher(g, policy)
        alloc = m.match(JobSpec(name="continuum", nnodes=3, ncores=24))
        assert alloc.nnodes == 3
        assert alloc.ncores == 72

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_multi_node_infeasible(self, policy):
        g = summit_like(2)
        m = Matcher(g, policy)
        assert m.match(JobSpec(name="big", nnodes=3, ncores=1)) is None

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_exclusive_job_takes_whole_node(self, policy):
        g = summit_like(2)
        m = Matcher(g, policy)
        alloc = m.match(JobSpec(name="bundle", exclusive=True))
        assert alloc.ncores == 44 and alloc.ngpus == 6

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_exclusive_skips_partially_used_nodes(self, policy):
        g = summit_like(2)
        m = Matcher(g, policy)
        m.match(GPU_JOB)  # dirties one node
        alloc = m.match(JobSpec(name="bundle", exclusive=True))
        assert alloc is not None
        dirty = {nid for nid, _, _ in alloc.items}
        assert not g.feasible_mask(0, 0, exclusive=True)[list(dirty)[0]]  # it claimed the clean one

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    def test_drained_node_not_used(self, policy):
        g = summit_like(2)
        g.drain(0)
        m = Matcher(g, policy)
        for _ in range(6):
            alloc = m.match(GPU_JOB)
            assert alloc.node_ids() == [1]
        assert m.match(GPU_JOB) is None


class TestPolicyDifferences:
    def test_low_id_packs_low_nodes_first(self):
        g = summit_like(4)
        m = Matcher(g, MatchPolicy.LOW_ID_FIRST)
        nodes_used = [m.match(GPU_JOB).node_ids()[0] for _ in range(12)]
        assert nodes_used == [0] * 6 + [1] * 6

    def test_first_match_rotates(self):
        g = summit_like(4)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        nodes_used = [m.match(GPU_JOB).node_ids()[0] for _ in range(4)]
        assert nodes_used == [0, 1, 2, 3]  # round-robin across nodes

    def test_exhaustive_visits_far_more_on_vacant_machine(self):
        g = summit_like(100)
        exhaustive = Matcher(summit_like(100), MatchPolicy.LOW_ID_FIRST)
        greedy = Matcher(g, MatchPolicy.FIRST_MATCH)
        exhaustive.match(GPU_JOB)
        greedy.match(GPU_JOB)
        ratio = exhaustive.stats.vertices_visited / greedy.stats.vertices_visited
        assert ratio > 50  # "too many choices": orders of magnitude more work

    def test_visit_accounting_exhaustive(self):
        g = summit_like(10)
        m = Matcher(g, MatchPolicy.LOW_ID_FIRST)
        m.match(GPU_JOB)
        subtree = g.node_subtree_size
        # 10 node checks + 10 feasible subtrees ranked + 4 picked resources
        assert m.stats.vertices_visited == 10 + 10 * (subtree - 1) + 4

    def test_stats_counters(self):
        g = summit_like(1)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        for _ in range(6):
            m.match(GPU_JOB)
        m.match(GPU_JOB)
        assert m.stats.calls == 7
        assert m.stats.matched == 6
        assert m.stats.failed == 1
        assert m.stats.visits_per_call() > 0
