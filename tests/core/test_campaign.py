"""Tests for the discrete-event campaign simulator."""

import json

import numpy as np
import pytest

from repro.core.campaign import (
    PAPER_LEDGER,
    CampaignConfig,
    CampaignResult,
    CampaignSimulator,
    RunSpec,
)

# A small ledger that still exercises multi-run carry-over.
SMALL_LEDGER = (RunSpec(20, 3, 2), RunSpec(40, 4, 1))


@pytest.fixture(scope="module")
def small_result():
    cfg = CampaignConfig(ledger=SMALL_LEDGER, seed=7)
    return CampaignSimulator(cfg).run()


class TestLedger:
    def test_paper_ledger_node_hours(self):
        total = sum(r.node_hours for r in PAPER_LEDGER)
        assert total == 600_600  # "over 600,000 node hours"

    def test_table1_rows_match_ledger(self, small_result):
        assert len(small_result.table1) == 2
        assert small_result.table1[0] == {
            "nnodes": 20, "walltime_hours": 3, "runs": 2, "node_hours": 120
        }
        assert small_result.total_node_hours() == 120 + 160


class TestEmergentDistributions:
    def test_cg_and_aa_sims_exist(self, small_result):
        assert len(small_result.cg_lengths_us) > 50
        assert len(small_result.aa_lengths_ns) > 5

    def test_lengths_within_caps(self, small_result):
        cg = np.array(small_result.cg_lengths_us)
        aa = np.array(small_result.aa_lengths_ns)
        assert np.all(cg > 0) and np.all(cg <= 5.0)
        assert np.all(aa > 0) and np.all(aa <= 65.0)

    def test_lengths_vary(self, small_result):
        cg = np.array(small_result.cg_lengths_us)
        assert cg.std() > 0.01  # a distribution, not a constant

    def test_more_cg_than_aa(self, small_result):
        # The paper's mix: ~3.6x more CG sims than AA.
        assert len(small_result.cg_lengths_us) > len(small_result.aa_lengths_ns)

    def test_carryover_lengths_exceed_single_run(self):
        # With two 3h runs back-to-back, resumed sims accumulate more
        # simulated time than one run alone could deliver.
        one = CampaignSimulator(
            CampaignConfig(ledger=(RunSpec(20, 3, 1),), seed=7)
        ).run()
        two = CampaignSimulator(
            CampaignConfig(ledger=(RunSpec(20, 3, 2),), seed=7)
        ).run()
        assert max(two.cg_lengths_us) > max(one.cg_lengths_us) * 1.5


class TestOccupancy:
    def test_gpu_occupancy_high(self, small_result):
        gpu = np.array([e.gpu_occupancy for e in small_result.profile_events])
        assert np.median(gpu) > 0.95

    def test_cpu_occupancy_lower_than_gpu(self, small_result):
        gpu = np.array([e.gpu_occupancy for e in small_result.profile_events])
        cpu = np.array([e.cpu_occupancy for e in small_result.profile_events])
        assert cpu.mean() < gpu.mean()

    def test_profile_cadence(self, small_result):
        # 10-minute profiling over 3+3+4 hours => 6*(18)-ish events.
        expected = int((3 + 3 + 4) * 6)
        assert abs(len(small_result.profile_events) - expected) <= 3


class TestPerfSamples:
    def test_samples_for_all_scales(self, small_result):
        scales = {s.scale for s in small_result.perf_samples}
        assert scales == {"continuum", "cg", "aa"}

    def test_counters_internally_consistent(self, small_result):
        c = small_result.counters
        assert c["cg_sims"] == len(small_result.cg_lengths_us)
        assert c["aa_sims"] == len(small_result.aa_lengths_ns)
        assert c["node_hours"] == 280
        assert c["snapshots"] > 0
        assert c["patches_created"] == c["snapshots"] * 333
        assert 0 < c["cg_selection_percent"] < 100
        assert c["total_data_tb"] > 0

    def test_mpi_bug_epoch_slows_early_cg(self):
        # First third of node-hours uses the slow build: early CG perf
        # samples are slower on average than late ones.
        cfg = CampaignConfig(ledger=(RunSpec(20, 4, 6),), seed=3)
        sim = CampaignSimulator(cfg)
        res = sim.run()
        cg = [s for s in res.perf_samples if s.scale == "cg"]
        n = len(cg)
        early = np.mean([s.rate for s in cg[: n // 3]])
        late = np.mean([s.rate for s in cg[-n // 3:]])
        assert early < late


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = CampaignConfig(ledger=(RunSpec(10, 2, 1),), seed=11)
        a = CampaignSimulator(cfg).run()
        b = CampaignSimulator(cfg).run()
        assert a.cg_lengths_us == b.cg_lengths_us
        assert a.counters == b.counters

    def test_different_seed_differs(self):
        a = CampaignSimulator(
            CampaignConfig(ledger=(RunSpec(10, 2, 1),), seed=1)
        ).run()
        b = CampaignSimulator(
            CampaignConfig(ledger=(RunSpec(10, 2, 1),), seed=2)
        ).run()
        assert a.cg_lengths_us != b.cg_lengths_us


    def test_running_counts_match_the_recount_reference(self, monkeypatch):
        """The queue's incremental per-name count drives the campaign
        exactly as a recount over every running job does."""
        from repro.sched.flux import FluxInstance

        cfg = CampaignConfig(ledger=(RunSpec(20, 3, 1), RunSpec(40, 4, 1)),
                             node_failures_per_1000node_day=200.0, seed=13)
        fast = CampaignSimulator(cfg)
        fast.run()
        assert fast.total_node_failures > 0

        def recount(flux):
            out = {}
            for record in flux.queue.running.values():
                out[record.spec.name] = out.get(record.spec.name, 0) + 1
            return out

        monkeypatch.setattr(FluxInstance, "running_by_name", recount)
        slow = CampaignSimulator(cfg)
        slow.run()
        assert (json.dumps(fast.state_dict(), sort_keys=True)
                == json.dumps(slow.state_dict(), sort_keys=True))


class TestLoadCurves:
    def test_load_curve_recorded_per_size(self, small_result):
        assert set(small_result.load_curves) == {20, 40}
        curve = small_result.load_curves[20]
        assert len(curve) > 0
        times = [t for t, _ in curve]
        assert times == sorted(times)

    def test_submission_throttle_limits_ramp(self):
        # The throttle grants 100/min in poll-sized windows (2 min =>
        # 200 jobs); loading 240 GPUs therefore spans two windows.
        cfg = CampaignConfig(ledger=(RunSpec(40, 2, 1),), seed=5)
        res = CampaignSimulator(cfg).run()
        curve = [t for t, name in res.load_curves[40] if name.endswith("-sim")]
        in_first_window = sum(1 for t in curve if t <= 120.0)
        assert in_first_window <= 200
        assert max(curve) > 120.0  # the rest arrived in a later window
