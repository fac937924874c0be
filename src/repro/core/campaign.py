"""The discrete-event campaign simulator (our Summit).

Replays the paper's three-month campaign (§5.1, Table 1) in virtual
time: a ledger of batch allocations at 100-4000 nodes, each run loading
the machine with unbundled GPU simulation jobs through the Flux-like
scheduler, maintaining setup-job buffers, profiling occupancy every 10
minutes, and carrying simulations across runs via checkpoint/restore —
exactly the mechanics the paper describes, with per-simulation rates
drawn from the published performance models.

What regenerates from one :meth:`CampaignSimulator.run` call:

- **Table 1** — the run ledger with node-hours;
- **Fig. 3** — CG and AA simulation-length distributions (they *emerge*
  from cap-or-retire lifetimes crossing allocation boundaries);
- **Fig. 4** — per-simulation performance samples;
- **Fig. 5** — GPU/CPU occupancy over all profile events;
- the §5.1 aggregate counters (snapshots, patches, frames, selections,
  trajectory totals, data volume, file counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.perfmodel import PerformanceModel, PerfSample
from repro.core.profiling import OccupancyProfiler, ProfileEvent
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.matcher import MatchPolicy
from repro.sched.queue import QueueMode
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop
from repro.util.rng import RngStream
from repro.util import units

__all__ = ["RunSpec", "PAPER_LEDGER", "CampaignConfig", "CampaignResult", "CampaignSimulator"]


@dataclass(frozen=True)
class RunSpec:
    """One row of Table 1: identical runs at one allocation size."""

    nnodes: int
    walltime_hours: float
    count: int

    @property
    def node_hours(self) -> float:
        return self.nnodes * self.walltime_hours * self.count


#: Table 1 verbatim: 5×(100, 6h), 3×(100, 12h), 3×(500, 12h),
#: 20×(1000, 24h), 1×(4000, 24h) — 600,600 node hours total.
PAPER_LEDGER: Tuple[RunSpec, ...] = (
    RunSpec(100, 6, 5),
    RunSpec(100, 12, 3),
    RunSpec(500, 12, 3),
    RunSpec(1000, 24, 20),
    RunSpec(4000, 24, 1),
)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of the campaign simulation; defaults follow the paper."""

    ledger: Tuple[RunSpec, ...] = PAPER_LEDGER
    cg_gpu_fraction: float = 0.78
    """Fraction of GPUs for CG vs AA ("a typical run used 60%-80% of the
    total GPUs for CG whereas the remaining were assigned to AA")."""

    cg_cap_us: float = 5.0
    aa_cap_ns_range: Tuple[float, float] = (50.0, 65.0)
    cg_retire_mean_days: float = 30.0
    """Mean of the exponential early-retirement clock. Long relative to
    the ~4.8-day time-to-cap: most sims run to their cap or to the end
    of the campaign, as the paper's totals imply."""

    aa_retire_mean_days: float = 30.0
    continuum_nodes: int = 150
    continuum_cores_per_node: int = 24
    sim_cores: int = 3
    """Cores bound to each GPU simulation job (sim + analysis share)."""

    setup_cores: int = 24
    createsim_hours: float = 1.5
    backmap_hours: float = 2.0
    poll_interval: float = 120.0
    """WM job-scan period, seconds ("every few minutes")."""

    profile_interval: float = 600.0
    submit_rate_per_min: float = 100.0
    """Throttled job submission rate (§5.2: ~100 jobs/min)."""

    mpi_bug_fraction: float = 1.0 / 3.0
    """Fraction of campaign node-hours run with the slow ddcMD build."""

    node_failures_per_1000node_day: float = 0.0
    """Hard node failures per 1000 node-days (0 disables injection).
    A failure drains the node (Flux's §4.4 response) and kills its
    jobs; failed simulations lose at most the 15-minute checkpoint
    window and resume on other nodes."""

    checkpoint_interval: float = 900.0
    """Simulation self-checkpoint period, seconds (§4.4: ~15 min)."""

    patches_per_snapshot: int = 333
    """6,828,831 patches / 20,507 snapshots ≈ 333."""

    frames_per_cg_day: float = 105.0
    """CG frame candidates per simulation-day (≈9.8M over the campaign)."""

    buffer_provision_factor: float = 1.8
    """Setup-job provisioning relative to expected turnover demand —
    the §4.4 Task 3 trade-off between readiness (GPUs never wait for a
    prepared system) and staleness/CPU use (a full buffer means stale
    configurations and busier CPUs)."""

    seed: int = 2021


@dataclass
class _SimEntry:
    """Registry record of one simulation across allocation runs."""

    sim_id: str
    scale: str  # "cg" | "aa"
    rate_per_day: float  # µs/day or ns/day
    cap: float  # µs or ns
    length: float = 0.0  # accumulated µs or ns
    done: bool = False
    retired: bool = False


@dataclass
class CampaignResult:
    """Everything the Table-1/Fig-3/4/5 benches print."""

    table1: List[Dict] = field(default_factory=list)
    cg_lengths_us: List[float] = field(default_factory=list)
    aa_lengths_ns: List[float] = field(default_factory=list)
    perf_samples: List[PerfSample] = field(default_factory=list)
    profile_events: List[ProfileEvent] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    load_curves: Dict[int, List[Tuple[float, str]]] = field(default_factory=dict)
    """nnodes -> [(start_time_s, job_name)] for the largest run at that size."""

    def total_node_hours(self) -> float:
        return sum(row["node_hours"] for row in self.table1)


class CampaignSimulator:
    """Drives the full multi-run campaign in virtual time."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()
        self.rngs = RngStream(self.config.seed)
        self.perf = PerformanceModel(rng=self.rngs.child("perf"))
        self.registry: Dict[str, _SimEntry] = {}
        # Checkpointed, unfinished sims awaiting resume (restore-across-
        # allocations, Table 1's "seamlessly (re)start" property).
        self._inflight: Dict[str, List[str]] = {"cg": [], "aa": []}
        self._sim_counter = {"cg": 0, "aa": 0}
        self.result = CampaignResult()
        self.runs_completed = 0
        self._continuum_ms_total = 0.0
        self._finalized = False
        self.total_sim_failures = 0
        self.total_node_failures = 0
        self._node_hours_done = 0.0
        self._total_node_hours = sum(r.node_hours for r in self.config.ledger)

    # ------------------------------------------------------------------
    # simulation registry
    # ------------------------------------------------------------------

    def _new_sim(self, scale: str, mpi_bug: bool) -> _SimEntry:
        rng = self.rngs.child("caps")
        self._sim_counter[scale] += 1
        sim_id = f"{scale}-{self._sim_counter[scale]:06d}"
        if scale == "cg":
            sample = self.perf.sample_cg(mpi_bug=mpi_bug)
            cap = self.config.cg_cap_us
        else:
            sample = self.perf.sample_aa()
            lo, hi = self.config.aa_cap_ns_range
            cap = float(rng.uniform(lo, hi))
        self.result.perf_samples.append(sample)
        entry = _SimEntry(sim_id=sim_id, scale=scale, rate_per_day=sample.rate, cap=cap)
        self.registry[entry.sim_id] = entry
        return entry


    # ------------------------------------------------------------------
    # one allocation run
    # ------------------------------------------------------------------

    def _execute_run(self, nnodes: int, walltime_hours: float, mpi_bug: bool,
                     graph_builder=summit_like) -> Dict:
        c = self.config
        walltime = walltime_hours * units.HOUR
        loop = EventLoop()
        flux = FluxInstance(
            graph_builder(nnodes),
            loop,
            policy=MatchPolicy.FIRST_MATCH,
            mode=QueueMode.ASYNC,
            cycle_interval=30.0,
        )
        profiler = OccupancyProfiler(flux, interval=c.profile_interval)
        profiler.start(until=walltime)
        rng = self.rngs.child(f"run-{self.runs_completed}-{nnodes}")

        total_gpus = flux.graph.total_gpus
        cg_target = int(total_gpus * c.cg_gpu_fraction)
        aa_target = total_gpus - cg_target
        # Buffer targets sized to the expected turnover: (sims / mean
        # lifetime) * setup duration, the §4.4 readiness-vs-staleness
        # trade-off.
        cg_lifetime_days = min(c.cg_retire_mean_days, c.cg_cap_us / 1.04)
        aa_lifetime_days = min(
            c.aa_retire_mean_days, float(np.mean(c.aa_cap_ns_range)) / 13.98
        )
        cg_buffer_target = max(
            2, int(cg_target / cg_lifetime_days * c.createsim_hours / 24.0
                   * c.buffer_provision_factor)
        )
        aa_buffer_target = max(
            2, int(aa_target / aa_lifetime_days * c.backmap_hours / 24.0
                   * c.buffer_provision_factor)
        )

        # Continuum job: pinned CPU partition, runs the whole walltime.
        # The reference configuration is 150 nodes x 24 cores at >= 1000
        # nodes; smaller allocations run the continuum on a proportional
        # share ("scaled-down performance was obtained using fewer CPU
        # cores (100 and 500 node runs)"), giving Fig. 4's one mode per
        # allocation size.
        cont_nodes = max(1, int(c.continuum_nodes * min(1.0, nnodes / 1000.0)))
        cont_cores = cont_nodes * c.continuum_cores_per_node
        flux.submit(
            JobSpec(name="continuum", nnodes=cont_nodes,
                    ncores=c.continuum_cores_per_node, duration=None)
        )

        # Mutable run-local state, closed over by the poll callback.
        state = {
            "cg_running": 0, "aa_running": 0, "cg_pending": 0, "aa_pending": 0,
            "ready_cg": 0, "ready_aa": 0, "sim_failures": 0, "nodes_failed": 0,
            "setup_active_createsim": 0, "setup_active_backmap": 0,
            "job_sim": {},  # job_id -> sim_id
        }

        def spawn_sim(scale: str) -> None:
            if self._inflight[scale]:
                entry = self.registry[self._inflight[scale].pop()]
            else:
                ready_key = "ready_cg" if scale == "cg" else "ready_aa"
                if state[ready_key] <= 0:
                    return
                state[ready_key] -= 1
                entry = self._new_sim(scale, mpi_bug)
            remaining = entry.cap - entry.length
            to_cap = remaining / entry.rate_per_day * units.DAY
            retire_mean = (
                c.cg_retire_mean_days if scale == "cg" else c.aa_retire_mean_days
            ) * units.DAY
            retire_at = float(rng.exponential(retire_mean))
            duration = min(to_cap, retire_at)
            spec = JobSpec(
                name=f"{scale}-sim", ncores=c.sim_cores, ngpus=1,
                duration=duration, tag=entry.sim_id,
            )
            record = flux.submit(spec, on_complete=sim_done)
            state["job_sim"][record.job_id] = (entry.sim_id, duration >= to_cap)
            state[f"{scale}_pending"] += 1

        def sim_done(record) -> None:
            sim_id, reached_cap = state["job_sim"].pop(record.job_id)
            entry = self.registry[sim_id]
            scale = entry.scale
            if record.state is JobState.COMPLETED:
                elapsed = record.run_time or 0.0
                entry.length += elapsed / units.DAY * entry.rate_per_day
                entry.done = True
                entry.retired = not reached_cap
            elif record.state is JobState.FAILED:
                # Node failure: the sim loses at most one checkpoint
                # window and goes back in flight to resume elsewhere.
                elapsed = max(0.0, (record.run_time or 0.0) - c.checkpoint_interval)
                entry.length += elapsed / units.DAY * entry.rate_per_day
                state["sim_failures"] += 1
                if entry.length < entry.cap:
                    self._inflight[scale].append(sim_id)
                else:
                    entry.done = True
            key = f"{scale}_running"
            state[key] = max(0, state[key] - 1)

        def setup_done(record) -> None:
            state[f"setup_active_{record.spec.name}"] -= 1
            if record.spec.name == "createsim":
                state["ready_cg"] += 1
            else:
                state["ready_aa"] += 1

        def poll() -> None:
            # Refresh running/pending from the scheduler (the WM's scan).
            running = flux.running_by_name()
            state["cg_running"] = running.get("cg-sim", 0)
            state["aa_running"] = running.get("aa-sim", 0)
            pending = {"cg-sim": 0, "aa-sim": 0}
            for rec in list(flux.queue.inbox) + list(flux.queue.pending):
                if rec.spec.name in pending:
                    pending[rec.spec.name] += 1
            state["cg_pending"] = pending["cg-sim"]
            state["aa_pending"] = pending["aa-sim"]

            budget = int(c.submit_rate_per_min * c.poll_interval / 60.0)
            for scale, target in (("cg", cg_target), ("aa", aa_target)):
                missing = target - state[f"{scale}_running"] - state[f"{scale}_pending"]
                while missing > 0 and budget > 0:
                    before = len(state["job_sim"])
                    spawn_sim(scale)
                    if len(state["job_sim"]) == before:
                        break  # nothing ready to spawn
                    missing -= 1
                    budget -= 1
            # Setup jobs keep the ready buffers near target, CPU permitting.
            for name, ready_key, hours, target_buf in (
                ("createsim", "ready_cg", c.createsim_hours, cg_buffer_target),
                ("backmap", "ready_aa", c.backmap_hours, aa_buffer_target),
            ):
                # Submit setups only against a settled queue: FCFS has
                # no backfilling, so a 24-core job that cannot place
                # would block every GPU job behind it.
                while (
                    state[ready_key] + state[f"setup_active_{name}"] < target_buf
                    and flux.queue.backlog == 0
                    and flux.graph.feasible_ids(c.setup_cores, 0).size > 0
                ):
                    duration = float(rng.normal(hours, hours * 0.15)) * units.HOUR
                    flux.submit(
                        JobSpec(name=name, ncores=c.setup_cores,
                                duration=max(duration, 600.0)),
                        on_complete=setup_done,
                    )
                    state[f"setup_active_{name}"] += 1
            if loop.now + c.poll_interval < walltime:
                loop.schedule_in(c.poll_interval, poll, label="wm-poll")

        # Seed ready buffers: restored campaigns arrive with prepared sets.
        state["ready_cg"] = cg_target
        state["ready_aa"] = aa_target

        # Node-failure injection (§4.4 resilience): Poisson arrivals
        # drain a random live node and fail its jobs.
        if c.node_failures_per_1000node_day > 0:
            expected = (
                c.node_failures_per_1000node_day * nnodes / 1000.0
                * walltime / units.DAY
            )
            n_failures = int(rng.poisson(expected))
            fail_rng = self.rngs.child(f"failures-{self.runs_completed}")

            def fail_random_node():
                alive = np.flatnonzero(~flux.graph._drained_mask)
                if not alive.size:
                    return
                victim = int(fail_rng.choice(alive))
                flux.fail_node(victim)
                state["nodes_failed"] += 1

            for t in np.sort(rng.uniform(0, walltime, size=n_failures)):
                loop.schedule_at(float(t), fail_random_node, label="node-fail")

        loop.schedule_in(1.0, poll, label="wm-poll")
        loop.run_until(walltime)

        # End of allocation: checkpoint in-flight sims with partial credit;
        # they resume in the next run ("seamlessly (re)start", Table 1).
        for record in list(flux.queue.running.values()):
            info = state["job_sim"].pop(record.job_id, None)
            if info is None:
                continue  # the continuum job / setup jobs
            sim_id, _ = info
            entry = self.registry[sim_id]
            elapsed = walltime - (record.start_time or walltime)
            entry.length += elapsed / units.DAY * entry.rate_per_day
            if entry.length >= entry.cap:
                entry.done = True
            else:
                self._inflight[entry.scale].append(sim_id)

        # Jobs still queued (never started): resumed sims go back to the
        # in-flight list; brand-new ones are dropped entirely.
        for job_id, (sim_id, _) in list(state["job_sim"].items()):
            entry = self.registry[sim_id]
            if entry.length > 0 and not entry.done:
                self._inflight[entry.scale].append(sim_id)
            elif entry.length == 0:
                del self.registry[sim_id]

        # Continuum bookkeeping for this run.
        cont_sample = self.perf.sample_continuum(cont_cores)
        self.result.perf_samples.append(cont_sample)
        continuum_ms = cont_sample.rate * walltime / units.DAY

        self.result.profile_events.extend(profiler.events)
        self.total_sim_failures += state["sim_failures"]
        self.total_node_failures += state["nodes_failed"]
        return {
            "nnodes": nnodes,
            "walltime_hours": walltime_hours,
            "continuum_ms": continuum_ms,
            "sim_failures": state["sim_failures"],
            "nodes_failed": state["nodes_failed"],
            "jobs_started": len(flux.start_log),
            "start_log": [(t, name) for t, _jid, name in flux.start_log],
            "gpu_occupancy_mean": float(np.mean(profiler.gpu_series()))
            if profiler.events else 0.0,
        }

    # ------------------------------------------------------------------
    # the full campaign
    # ------------------------------------------------------------------

    def _flat_runs(self):
        """The ledger flattened to one (nnodes, walltime) entry per run."""
        return [
            (spec.nnodes, spec.walltime_hours)
            for spec in self.config.ledger
            for _ in range(spec.count)
        ]

    def progress(self) -> Dict[str, float]:
        """Where the campaign stands in its ledger (control-plane status).

        ``max_runs``-sliced execution pauses between allocation runs, so
        this is exact at every pause point — the service's ``simulate``
        campaigns report it after each slice.
        """
        total = len(self._flat_runs())
        return {
            "runs_completed": self.runs_completed,
            "runs_total": total,
            "node_hours_done": self._node_hours_done,
            "node_hours_total": self._total_node_hours,
            "fraction": self.runs_completed / total if total else 1.0,
        }

    def run(self, max_runs: Optional[int] = None) -> CampaignResult:
        """Execute (the rest of) the campaign.

        ``max_runs`` bounds how many allocation runs execute this call —
        the hook the checkpoint/restore tests use to interrupt and
        resume a campaign mid-flight.
        """
        c = self.config
        flat = self._flat_runs()
        executed = 0
        while self.runs_completed < len(flat):
            if max_runs is not None and executed >= max_runs:
                return self.result  # paused; resumable via state_dict
            nnodes, walltime_hours = flat[self.runs_completed]
            mpi_bug = self._node_hours_done < c.mpi_bug_fraction * self._total_node_hours
            run_info = self._execute_run(nnodes, walltime_hours, mpi_bug)
            self._continuum_ms_total += run_info["continuum_ms"]
            self._node_hours_done += nnodes * walltime_hours
            # Keep one load curve per allocation size (the largest runs
            # are the Fig. 6 panels).
            self.result.load_curves[nnodes] = run_info["start_log"]
            self.runs_completed += 1
            executed += 1

        if not self._finalized:
            self.result.table1 = [
                {
                    "nnodes": spec.nnodes,
                    "walltime_hours": spec.walltime_hours,
                    "runs": spec.count,
                    "node_hours": spec.node_hours,
                }
                for spec in c.ledger
            ]
            # Final lengths: everything that ever accumulated time counts.
            for entry in self.registry.values():
                if entry.length <= 0:
                    continue
                if entry.scale == "cg":
                    self.result.cg_lengths_us.append(min(entry.length, entry.cap))
                else:
                    self.result.aa_lengths_ns.append(min(entry.length, entry.cap))
            self._finalize_counters(self._continuum_ms_total)
            self._finalized = True
        return self.result

    # ------------------------------------------------------------------
    # checkpoint / restore (§4.4: "can be restored completely after any
    # such crash without much loss of data")
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict:
        """Everything needed to resume the campaign after a crash.

        JSON-serializable: registry entries, in-flight lists, RNG stream
        states, accumulated results. Pair with :meth:`load_state_dict`
        on a simulator built with the same config.
        """
        return {
            "runs_completed": self.runs_completed,
            "node_hours_done": self._node_hours_done,
            "continuum_ms_total": self._continuum_ms_total,
            "sim_counter": dict(self._sim_counter),
            "total_sim_failures": self.total_sim_failures,
            "total_node_failures": self.total_node_failures,
            "inflight": {k: list(v) for k, v in self._inflight.items()},
            "registry": [
                {
                    "sim_id": e.sim_id, "scale": e.scale,
                    "rate_per_day": e.rate_per_day, "cap": e.cap,
                    "length": e.length, "done": e.done, "retired": e.retired,
                }
                for e in self.registry.values()
            ],
            "rng_states": {
                name: gen.bit_generator.state
                for name, gen in self.rngs._cache.items()
            },
            "rng_seed": self.rngs.seed,
            "perf_samples": [
                {"scale": p.scale, "system_size": p.system_size, "rate": p.rate}
                for p in self.result.perf_samples
            ],
            "profile_events": [
                {
                    "time": e.time, "gpu": e.gpu_occupancy, "cpu": e.cpu_occupancy,
                    "running": e.running, "pending": e.pending,
                }
                for e in self.result.profile_events
            ],
            "load_curves": {
                str(k): v for k, v in self.result.load_curves.items()
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a checkpoint into this (same-config) simulator."""
        if int(state.get("rng_seed", self.rngs.seed)) != self.rngs.seed:
            raise ValueError("checkpoint was produced with a different seed")
        self.runs_completed = int(state["runs_completed"])
        self._node_hours_done = float(state["node_hours_done"])
        self._continuum_ms_total = float(state["continuum_ms_total"])
        self._sim_counter = {k: int(v) for k, v in state["sim_counter"].items()}
        self.total_sim_failures = int(state["total_sim_failures"])
        self.total_node_failures = int(state["total_node_failures"])
        self._inflight = {k: list(v) for k, v in state["inflight"].items()}
        self.registry = {
            row["sim_id"]: _SimEntry(
                sim_id=row["sim_id"], scale=row["scale"],
                rate_per_day=float(row["rate_per_day"]), cap=float(row["cap"]),
                length=float(row["length"]), done=bool(row["done"]),
                retired=bool(row["retired"]),
            )
            for row in state["registry"]
        }
        for name, rng_state in state["rng_states"].items():
            self.rngs.child(name).bit_generator.state = rng_state
        self.result.perf_samples = [
            PerfSample(scale=row["scale"], system_size=float(row["system_size"]),
                       rate=float(row["rate"]))
            for row in state["perf_samples"]
        ]
        self.result.profile_events = [
            ProfileEvent(time=float(row["time"]), gpu_occupancy=float(row["gpu"]),
                         cpu_occupancy=float(row["cpu"]),
                         running={k: int(v) for k, v in row["running"].items()},
                         pending=int(row["pending"]))
            for row in state["profile_events"]
        ]
        self.result.load_curves = {
            int(k): [tuple(item) for item in v]
            for k, v in state["load_curves"].items()
        }

    def _finalize_counters(self, continuum_ms: float) -> None:
        c = self.config
        cg_total_us = float(np.sum(self.result.cg_lengths_us))
        aa_total_ns = float(np.sum(self.result.aa_lengths_ns))
        snapshots = int(continuum_ms * 1000)  # 1 snapshot per µs
        patches = snapshots * c.patches_per_snapshot
        n_cg = len(self.result.cg_lengths_us)
        n_aa = len(self.result.aa_lengths_ns)
        cg_days = cg_total_us / 1.04  # at the reference rate
        frames = int(cg_days * c.frames_per_cg_day)
        # Data-volume model from §4.1 rates: continuum 374 MB/µs snapshot,
        # CG 4.6 MB per 41.5 s wall at 1.04 µs/day, AA 18 MB per 10.3 min.
        cg_bytes = cg_days * units.DAY / 41.5 * 4.6e6
        aa_days = aa_total_ns / 13.98
        aa_bytes = aa_days * units.DAY / (10.3 * 60) * 18e6
        cont_bytes = snapshots * 374e6
        total_bytes = cg_bytes + aa_bytes + cont_bytes
        campaign_days = self._total_node_hours / 24.0 / 1000.0  # @1000-node scale
        self.result.counters = {
            "node_hours": self._total_node_hours,
            "continuum_ms": continuum_ms,
            "snapshots": snapshots,
            "patches_created": patches,
            "cg_sims": n_cg,
            "cg_selection_percent": 100.0 * n_cg / max(patches, 1),
            "cg_total_ms": cg_total_us / 1000.0,
            "frame_candidates": frames,
            "aa_sims": n_aa,
            "aa_selection_percent": 100.0 * n_aa / max(frames, 1),
            "aa_total_us": aa_total_ns / 1000.0,
            "total_data_tb": total_bytes / units.TB,
            "data_tb_per_day": total_bytes / units.TB / max(campaign_days, 1e-9),
            "profile_events": len(self.result.profile_events),
            "node_failures": self.total_node_failures,
            "sim_failures": self.total_sim_failures,
        }
