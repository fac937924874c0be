"""Workflow telemetry: one profiling report across every subsystem.

§4.4 lists profiling among the WM's responsibilities, and §5.2's
results are all reductions over profiling streams. This module gathers
the counters every component already maintains — WM task counters, lock
contention, per-type job tracker state, store I/O volume, and feedback
iteration timing — into one structured report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import trace as trace_mod
from repro.core.wm import WorkflowManager
from repro.util import units

__all__ = ["TelemetryReport", "collect_telemetry", "render_report"]


@dataclass(frozen=True)
class TelemetryReport:
    """A structured snapshot of the whole workflow's health.

    Fields (see OBSERVABILITY.md for the full field-by-field guide):

    - ``rounds``: WM rounds completed so far (count).
    - ``counters``: WM pipeline counters, e.g. ``cg_finished`` (counts).
    - ``lock_stats``: :class:`~repro.util.locks.LockStats` totals across
      the WM's shared state — ``acquisitions``, ``contentions``,
      ``failed_tries`` (all counts).
    - ``trackers``: per job type, ``active`` / ``running`` / ``pending``
      / ``completed`` / ``abandoned`` job counts.
    - ``store_io``: :class:`~repro.datastore.stats.IOStats` dict —
      ``reads`` / ``writes`` / ``deletes`` / ``moves`` / ``scans``
      (counts) and ``bytes_read`` / ``bytes_written`` (bytes).
    - ``feedback``: one row per feedback manager — ``iterations`` and
      ``total_items`` (counts), ``mean_seconds`` (seconds/iteration).
    - ``selectors``: sampler occupancy — candidate/selected counts plus
      ``frame_bin_coverage`` (fraction in [0, 1]), ingest-dedup counts
      (``patch_duplicates`` / ``frame_duplicates``), and the
      patch-selector's incremental-engine counters (``patch_engine``:
      index adds/builds, distance evaluations, cache fold statistics).
    - ``transport``: wire-level counters (retries, timeouts, reconnects,
      latency percentiles in ms, plus cluster counters — failovers,
      shard down/up events, read repairs, rename orphans, and batched
      request/key/pipeline-depth counts) when the store is networked;
      empty for in-process backends.
    - ``replicas``: replica topology and health when the store is a
      replicated networked cluster — ``replication`` (copies per hash
      slot), ``nshards`` / ``up`` (counts), per-shard ``address`` and
      ``up`` flags, and ``pending_repairs`` (count); empty otherwise.
    - ``trace``: span-tracing summary when tracing is enabled — total
      ``spans`` and ``dropped`` (counts) and per-stage ``count`` /
      ``total_ms`` (milliseconds); empty when tracing is off.
    - ``scheduler``: matcher and queue counters when the WM drives a
      Flux-backed adapter — ``policy``, ``partitioned`` flag, match
      ``calls`` / ``matched`` / ``failed``, traversal cost
      (``vertices_visited``, ``partitions_skipped``), gang accounting
      (``gang_calls`` / ``gang_matched`` / ``gang_rollbacks``), and
      queue-level ``backfilled`` / ``preempted`` / ``gangs_placed``
      (all counts); empty for non-Flux adapters.
    """

    rounds: int
    counters: Dict[str, int]
    lock_stats: Dict[str, int]
    trackers: Dict[str, Dict[str, int]]
    store_io: Dict[str, int]
    feedback: List[Dict[str, Any]]
    selectors: Dict[str, Any]
    transport: Dict[str, Any] = field(default_factory=dict)
    replicas: Dict[str, Any] = field(default_factory=dict)
    trace: Dict[str, Any] = field(default_factory=dict)
    scheduler: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The report as a JSON-serializable dict (the HTTP API payload).

        NumPy scalars inside selector/engine stats are coerced to native
        Python numbers so ``json.dumps`` works on any backend's report.
        """
        def coerce(value: Any) -> Any:
            if isinstance(value, dict):
                return {k: coerce(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [coerce(v) for v in value]
            if hasattr(value, "item") and not isinstance(value, (str, bytes)):
                return value.item()
            return value

        return {f.name: coerce(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def data_written(self) -> int:
        """Total bytes written to the store (0 if the backend reports none)."""
        return self.store_io.get("bytes_written", 0)

    def jobs_completed(self) -> int:
        """Completed jobs summed over every tracker (missing keys count 0)."""
        return sum(t.get("completed", 0) for t in self.trackers.values())

    def feedback_items(self) -> int:
        """Frames processed across all feedback managers (count)."""
        return sum(row["total_items"] for row in self.feedback)


def collect_telemetry(wm: WorkflowManager) -> TelemetryReport:
    """Snapshot every subsystem of a Workflow Manager."""
    trackers = {
        name: {
            "active": tracker.nactive(),
            "running": tracker.nrunning(),
            "pending": tracker.npending(),
            "completed": len(tracker.completed),
            "abandoned": len(tracker.abandoned),
        }
        for name, tracker in wm.trackers.items()
    }
    feedback = [
        {
            "manager": type(mgr).__name__,
            "iterations": len(mgr.reports),
            "total_items": mgr.total_items,
            "mean_seconds": (
                sum(r.total_seconds for r in mgr.reports) / len(mgr.reports)
                if mgr.reports else 0.0
            ),
        }
        for mgr in wm.feedback_managers
    ]
    selectors = {
        "patch_candidates": wm.patch_selector.ncandidates(),
        "patch_selected": wm.patch_selector.nselected(),
        "patch_queue_sizes": wm.patch_selector.queue_sizes(),
        "patch_dropped": wm.patch_selector.dropped(),
        "patch_duplicates": wm.patch_selector.duplicates(),
        "patch_engine": wm.patch_selector.engine_stats(),
        "frame_candidates": wm.frame_selector.ncandidates(),
        "frame_duplicates": wm.frame_selector.duplicates,
        "frame_bin_coverage": wm.frame_selector.coverage(),
    }
    tstats = getattr(wm.store, "transport_stats", None)
    health_fn = getattr(wm.store, "replica_health", None)
    tracer = trace_mod.get_tracer()
    scheduler: Dict[str, Any] = {}
    flux = getattr(wm.adapter, "flux", None)
    if flux is not None:
        st = flux.matcher.stats
        scheduler = {
            "policy": flux.matcher.policy.value,
            "partitioned": flux.matcher.partitioned,
            "calls": st.calls,
            "matched": st.matched,
            "failed": st.failed,
            "vertices_visited": st.vertices_visited,
            "partitions_skipped": st.partitions_skipped,
            "gang_calls": st.gang_calls,
            "gang_matched": st.gang_matched,
            "gang_rollbacks": st.gang_rollbacks,
            "preempt_calls": st.preempt_calls,
            "preempt_evictions": st.preempt_evictions,
            "backfilled": flux.queue.backfilled,
            "preempted": flux.queue.preempted,
            "gangs_placed": flux.queue.gangs_placed,
        }
    return TelemetryReport(
        rounds=wm.rounds,
        counters=dict(wm.counters),
        lock_stats=wm.lock_stats(),
        trackers=trackers,
        store_io=wm.store.stats.as_dict(),
        feedback=feedback,
        selectors=selectors,
        transport=tstats.as_dict() if tstats is not None else {},
        replicas=health_fn() if callable(health_fn) else {},
        trace=tracer.summary() if tracer is not None else {},
        scheduler=scheduler,
    )


def render_report(report: TelemetryReport) -> str:
    """Human-readable rendering of a telemetry snapshot."""
    lines = [f"workflow telemetry after {report.rounds} round(s)"]
    lines.append("  pipeline counters:")
    for key, value in report.counters.items():
        lines.append(f"    {key:22s} {value}")
    lines.append("  job trackers:")
    for name, t in report.trackers.items():
        lines.append(
            f"    {name:12s} completed={t['completed']:<4d} active={t['active']:<3d} "
            f"abandoned={t['abandoned']}"
        )
    io = report.store_io
    lines.append(
        f"  store I/O: {units.format_bytes(io['bytes_written'])} written / "
        f"{units.format_bytes(io['bytes_read'])} read in "
        f"{io['writes'] + io['reads']} ops"
    )
    if report.transport:
        tr = report.transport
        lat = tr["latency"]
        lines.append(
            f"  transport: {tr['requests']} requests, {tr['retries']} retries "
            f"({tr['timeouts']} timeouts), {tr['reconnects']} reconnects, "
            f"{tr['exhausted']} exhausted; "
            f"latency p50<={lat['p50_ms']:.2f} ms p99<={lat['p99_ms']:.2f} ms"
        )
        if tr.get("batched_requests"):
            lines.append(
                f"  pipelining: {tr['batched_requests']} batch round trips "
                f"carrying {tr['batched_keys']} keys "
                f"(deepest {tr['max_batch_keys']})"
            )
        if tr.get("coalesced_requests"):
            lines.append(
                f"  coalescing: {tr['coalesced_requests']} synthesized batches "
                f"carrying {tr['coalesced_keys']} keys"
            )
    if report.replicas:
        rh = report.replicas
        tr = report.transport
        lines.append(
            f"  replicas: {rh['up']}/{rh['nshards']} shards up at "
            f"replication {rh['replication']}; "
            f"{tr.get('failovers', 0)} failovers, "
            f"{tr.get('read_repairs', 0)} read repairs, "
            f"{tr.get('shard_down_events', 0)} down / "
            f"{tr.get('shard_up_events', 0)} up events"
        )
    if report.scheduler:
        sc = report.scheduler
        lines.append(
            f"  scheduler: {sc['policy']} "
            f"({'partitioned' if sc['partitioned'] else 'flat'}), "
            f"{sc['matched']}/{sc['calls']} matches, "
            f"{sc['vertices_visited']} vertices visited, "
            f"{sc['partitions_skipped']} partitions skipped; "
            f"{sc['backfilled']} backfilled, {sc['preempted']} preempted, "
            f"{sc['gangs_placed']} gangs placed"
        )
    if report.trace:
        tr = report.trace
        stages = ", ".join(
            f"{stage}={agg['total_ms']:.1f}ms/{agg['count']}"
            for stage, agg in sorted(tr["stages"].items())
        )
        lines.append(
            f"  trace: {tr['spans']} spans ({tr['dropped']} dropped); {stages}"
        )
    for row in report.feedback:
        lines.append(
            f"  feedback {row['manager']}: {row['iterations']} iterations, "
            f"{row['total_items']} items, mean {row['mean_seconds']*1e3:.1f} ms"
        )
    sel = report.selectors
    lines.append(
        f"  selectors: {sel['patch_candidates']} patch candidates "
        f"({sel['patch_selected']} selected), "
        f"{sel['frame_candidates']} frame candidates, "
        f"bin coverage {sel['frame_bin_coverage']:.1%}"
    )
    dedup = sel.get("patch_duplicates", 0) + sel.get("frame_duplicates", 0)
    eng = sel.get("patch_engine", {})
    if dedup or eng:
        lines.append(
            f"  selector engine: {eng.get('adds', 0)} index adds, "
            f"{eng.get('builds', 0)} builds, "
            f"{eng.get('distance_evals', 0)} distance evals, "
            f"{dedup} duplicate ingests deduped"
        )
    lk = report.lock_stats
    lines.append(
        f"  locking: {lk['acquisitions']} acquisitions, "
        f"{lk['contentions']} contentions"
    )
    return "\n".join(lines)
