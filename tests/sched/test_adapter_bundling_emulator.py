"""Tests for the Maestro-like adapter, bundling ablation, and emulator."""

import time

import pytest

from repro.sched.adapter import FluxAdapter, ThreadAdapter
from repro.sched.bundling import BundleExpander, bundle_gpu_jobs, bundle_utilization
from repro.sched.emulator import compare_policies, paper_job_mix, run_policy_emulation
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.matcher import MatchPolicy
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop


class TestFluxAdapter:
    def test_submit_poll_cancel(self):
        loop = EventLoop()
        adapter = FluxAdapter(FluxInstance(summit_like(1), loop))
        rec = adapter.submit(JobSpec(name="cg", ncores=1, ngpus=1, duration=10.0))
        assert adapter.poll(rec.job_id) is JobState.PENDING
        loop.run_until(100.0)
        assert adapter.poll(rec.job_id) is JobState.COMPLETED
        adapter.cancel(rec.job_id)  # no-op on terminal


class TestThreadAdapter:
    def test_runs_real_function(self):
        adapter = ThreadAdapter(max_workers=2)
        rec = adapter.submit(JobSpec(name="calc", ncores=1), fn=lambda: 6 * 7)
        adapter.wait_all()
        assert rec.state is JobState.COMPLETED
        assert rec.result == 42
        adapter.shutdown()

    def test_failure_is_captured_not_raised(self):
        adapter = ThreadAdapter()

        def boom():
            raise RuntimeError("sim crashed")

        rec = adapter.submit(JobSpec(name="bad", ncores=1), fn=boom)
        adapter.wait_all()
        assert rec.state is JobState.FAILED
        assert isinstance(rec.result, RuntimeError)
        adapter.shutdown()

    def test_on_complete_callback(self):
        adapter = ThreadAdapter()
        done = []
        adapter.submit(JobSpec(name="x", ncores=1), fn=lambda: 1, on_complete=done.append)
        adapter.wait_all()
        assert len(done) == 1
        adapter.shutdown()

    def test_poll(self):
        adapter = ThreadAdapter()
        rec = adapter.submit(JobSpec(name="x", ncores=1), fn=lambda: None)
        adapter.wait_all()
        assert adapter.poll(rec.job_id) is JobState.COMPLETED
        adapter.shutdown()

    def test_wait_all_covers_jobs_submitted_from_callbacks(self):
        # A tracker retry or a when_done chain submits from A's
        # completion callback, after wait_all may have started waiting.
        adapter = ThreadAdapter(max_workers=2)
        followups = []

        def submit_b(_record):
            followups.append(adapter.submit(
                JobSpec(name="b", ncores=1), fn=lambda: time.sleep(0.2)))

        adapter.submit(JobSpec(name="a", ncores=1), fn=lambda: None,
                       on_complete=submit_b)
        adapter.wait_all()
        assert [r.state for r in followups] == [JobState.COMPLETED]
        adapter.shutdown()


class TestBundling:
    def _sims(self, n, base=100.0):
        return [
            JobSpec(name="cg", ncores=3, ngpus=1, duration=base + 10 * i, tag=f"s{i}")
            for i in range(n)
        ]

    def test_bundles_pack_by_gpu_count(self):
        bundles = bundle_gpu_jobs(self._sims(12), gpus_per_node=6)
        assert len(bundles) == 2
        assert all(b.exclusive for b in bundles)

    def test_bundle_duration_is_max_of_members(self):
        bundles = bundle_gpu_jobs(self._sims(6), gpus_per_node=6)
        assert bundles[0].duration == 150.0

    def test_partial_last_bundle(self):
        bundles = bundle_gpu_jobs(self._sims(8), gpus_per_node=6)
        assert len(bundles) == 2
        assert BundleExpander(bundles[1]).nmembers() == 2

    def test_member_tags_preserved(self):
        bundles = bundle_gpu_jobs(self._sims(6), gpus_per_node=6)
        assert BundleExpander(bundles[0]).member_tags() == [f"s{i}" for i in range(6)]

    def test_rejects_non_gpu_jobs(self):
        with pytest.raises(ValueError):
            bundle_gpu_jobs([JobSpec(name="cpu", ncores=24)], 6)

    def test_unbundled_utilization_is_one(self):
        bundled, unbundled = bundle_utilization([100.0] * 6, 6)
        assert unbundled == 1.0
        assert bundled == pytest.approx(1.0)  # identical durations: no waste

    def test_skewed_durations_waste_gpu_time(self):
        # One straggler keeps the node alive: the paper's 1/6 worst case.
        durations = [10.0, 10.0, 10.0, 10.0, 10.0, 600.0]
        bundled, _ = bundle_utilization(durations, 6)
        assert bundled == pytest.approx(650.0 / 3600.0)
        assert bundled < 0.2

    def test_worst_case_approaches_one_sixth(self):
        durations = [1e-9] * 5 + [100.0]
        bundled, _ = bundle_utilization(durations, 6)
        assert bundled == pytest.approx(1 / 6, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle_utilization([], 6)


class TestEmulator:
    def test_job_mix_shape(self):
        mix = paper_job_mix(scale=1.0)
        assert len(mix) == 24_001
        assert mix[0].nnodes == 150
        assert all(s.ngpus == 1 for s in mix[1:])

    def test_scaled_mix(self):
        mix = paper_job_mix(scale=0.01)
        assert len(mix) == 241
        assert mix[0].nnodes == 1

    def test_both_policies_place_everything(self):
        results = compare_policies(scale=0.02)  # 80 nodes, 480 GPU jobs
        for r in results.values():
            assert r.matched == r.njobs  # machine is exactly big enough

    def test_first_match_visits_far_fewer_vertices(self):
        results = compare_policies(scale=0.02)
        ratio = (
            results["low-id-first"].vertices_visited
            / results["first-match"].vertices_visited
        )
        assert ratio > 20  # orders-of-magnitude gap, grows with scale

    def test_visit_gap_grows_with_scale(self):
        small = compare_policies(scale=0.01)
        large = compare_policies(scale=0.04)
        r_small = (
            small["low-id-first"].vertices_visited
            / small["first-match"].vertices_visited
        )
        r_large = (
            large["low-id-first"].vertices_visited
            / large["first-match"].vertices_visited
        )
        assert r_large > r_small

    def test_result_fields(self):
        r = run_policy_emulation(MatchPolicy.FIRST_MATCH, scale=0.01)
        assert r.policy == "first-match"
        assert r.wall_seconds >= 0
        assert r.visits_per_job() > 0
