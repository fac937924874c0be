"""Tests for the WM round: settle hooks, the round barrier, and
fair-share offload billing.

The WM's round barrier does not join the whole worker pool: it hands
the per-tag *settle* futures of the jobs this round launched to
``adapter.settle``, so only those jobs gate the barrier. These tests
pin down the settle contract on the JobTracker, the one round body
across thread, chaos and fair-share adapters, and the TenantExecutor
that keeps offloads billed to the tenant's fair share.
"""

from __future__ import annotations

import threading

import pytest

from repro import trace
from repro.chaos.harness import ChaosAdapter
from repro.core.jobs import JobTracker, JobTypeConfig
from repro.core.wm import WorkflowManager
from repro.sched.adapter import ThreadAdapter
from repro.sched.jobspec import JobState
from repro.sched.shares import FairShareAdapter, TenantExecutor
from tests.core.test_wm import make_wm


def _tracker(max_retries=2, max_workers=1):
    adapter = ThreadAdapter(max_workers=max_workers)
    cfg = JobTypeConfig(name="probe", max_retries=max_retries)
    return JobTracker(cfg, adapter), adapter


class TestSettleHook:
    def test_fires_once_on_completion(self):
        tracker, adapter = _tracker()
        settled = []
        tracker.launch("t1", fn=lambda: 42, on_settled=settled.append)
        adapter.wait_all()
        assert [r.state for r in settled] == [JobState.COMPLETED]
        assert settled[0].result == 42

    def test_retried_failure_settles_only_at_the_end(self):
        tracker, adapter = _tracker(max_retries=2)
        settled = []

        def boom():
            raise ValueError("first attempt dies")

        tracker.launch("t1", fn=boom, on_settled=settled.append)
        adapter.wait_all()  # failure + its resubmission both drain
        # The failed attempt was resubmitted (fn-less, so it completes);
        # the hook must NOT have fired for the retryable failure.
        assert [r.state for r in settled] == [JobState.COMPLETED]
        assert tracker.abandoned == []
        assert len(tracker.completed) == 1

    def test_exhausted_retries_settle_with_the_failure(self):
        tracker, adapter = _tracker(max_retries=0)
        settled = []

        def boom():
            raise ValueError("no retries left")

        tracker.launch("t1", fn=boom, on_settled=settled.append)
        adapter.wait_all()
        assert [r.state for r in settled] == [JobState.FAILED]
        assert tracker.abandoned == ["t1"]

    def test_cancelled_job_settles(self):
        tracker, adapter = _tracker(max_workers=1)
        release = threading.Event()
        blocker_done = threading.Event()
        settled = []
        # Occupy the only worker so the second launch stays queued,
        # then cancel it while still pending. A queued-cancel fires the
        # settle hook synchronously; the barrier must not hang on it.
        tracker.launch("blocker", fn=lambda: release.wait(10),
                       on_settled=lambda r: blocker_done.set())
        record = tracker.launch("t1", fn=lambda: None,
                                on_settled=settled.append)
        tracker.adapter.cancel(record.job_id)
        assert [r.state for r in settled] == [JobState.CANCELLED]
        release.set()
        assert blocker_done.wait(10)


def _wm_on(adapter, **cfg_kwargs):
    """The make_wm() pipeline on ``adapter`` (None: the WM owns a pool)."""
    base, store = make_wm(**cfg_kwargs)
    wm = WorkflowManager(
        macro=base.macro,
        encoder=base.encoder,
        forcefield=base.forcefield,
        store=store,
        adapter=adapter,
        config=base.config,
        patch_creator=base.patch_creator,
    )
    return wm, store


def _coordination_children(rows):
    """Names of the WM task spans under the single ``wm.round`` span."""
    (round_span,) = [r["span"] for r in rows if r["name"] == "wm.round"]
    return [r["name"] for r in rows
            if r["parent"] == round_span
            and r["name"].startswith(("wm.task", "schedule."))]


class TestOneRound:
    def test_round_runs_on_the_pool_and_leaves_no_thread(self):
        wm, store = _wm_on(None)  # the WM owns (and closes) its pool
        before = set(threading.enumerate())
        try:
            wm.round(advance_us=1.0)
            c = wm.counters
            assert c["patches_selected"] > 0
            assert c["cg_spawned"] > 0
            assert c["cg_finished"] > 0
            assert len(store.keys("rdf/live/")) > 0
            started = set(threading.enumerate()) - before
            assert started <= set(wm.adapter._pool._threads)
        finally:
            wm.close()
        assert not [t for t in started if t.is_alive()]

    def test_round_barrier_leaves_nothing_inflight(self):
        wm, _ = make_wm()
        try:
            for _ in range(2):
                wm.round(advance_us=1.0)
                assert wm._round_inflight == []
                for tracker in wm.trackers.values():
                    assert tracker.nactive() == 0
        finally:
            wm.close()

    def test_thread_and_chaos_adapters_trace_the_same_round(self):
        shapes = []
        for adapter in (ThreadAdapter(max_workers=1), ChaosAdapter()):
            wm, _ = _wm_on(adapter)
            tracer = trace.enable()
            try:
                wm.round(advance_us=1.0)
            finally:
                trace.disable()
                wm.close()
            shapes.append(_coordination_children(tracer.rows()))
        assert shapes[0] == shapes[1] == [
            "wm.task1", "schedule.manage", "schedule.manage", "wm.task4"]

    def test_unstalled_round_drains_jobs_a_stall_left_queued(self):
        # max_cg_sims=0: once the createsim jobs are queued, the next
        # round has nothing to launch, so only the barrier's settle call
        # can drain what the stalled round left behind.
        adapter = ChaosAdapter()
        wm, _ = _wm_on(adapter, max_cg_sims=0)
        adapter.stalled = True
        wm.round(advance_us=1.0)
        queued = adapter.pending()
        assert queued == wm.counters["patches_selected"] > 0
        assert wm.cg_ready == []

        adapter.stalled = False
        wm.round(advance_us=1.0)
        assert wm.counters["patches_selected"] == queued  # launched nothing
        assert adapter.pending() == 0
        assert len(wm.cg_ready) == queued
        assert wm.trackers["createsim"].nactive() == 0

    def test_round_does_not_wait_on_a_same_tenant_sibling(self):
        shared = FairShareAdapter(max_workers=2)
        wm_a, _ = _wm_on(shared.view("acme"))
        wm_b, _ = _wm_on(shared.view("acme"))
        gate, b_done = threading.Event(), threading.Event()

        def blocked():
            gate.wait(20)
            b_done.set()

        try:
            wm_b.trackers["cg-sim"].launch("sibling", fn=blocked)
            wm_a.round(advance_us=1.0)
            assert wm_a.counters["cg_finished"] > 0
            assert not b_done.is_set()  # B's job still holds its slot
            assert wm_b.trackers["cg-sim"].nactive() == 1
        finally:
            gate.set()
            wm_a.close()
            wm_b.close()
            shared.shutdown()
        assert b_done.is_set()


class TestTenantExecutor:
    def test_offload_result_round_trips(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")
            assert ex.submit(lambda a, b: a + b, 40, 2).result(10) == 42
        finally:
            shared.shutdown()

    def test_offload_exception_propagates(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")

            def boom():
                raise RuntimeError("offload died")

            with pytest.raises(RuntimeError, match="offload died"):
                ex.submit(boom).result(10)
        finally:
            shared.shutdown()

    def test_offloads_are_billed_to_the_tenant(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")
            ex.submit(lambda: None).result(10)
            stats = shared.share_stats()
            assert stats["acme"]["dispatched"] >= 1
        finally:
            shared.shutdown()
