"""The scheduler facade: a single-user Flux-like instance.

§4.3: Flux's "single-user mode ... allows the user to instantiate an
'isolated HPC system' within a standard batch allocation, facilitating
complete control over jobs within the workflow." :class:`FluxInstance`
is that isolated system: it owns a resource graph, a matcher, a queue
manager and a discrete-event loop, and exposes submit/poll/cancel plus
node-failure drain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import trace
from repro.sched.jobspec import JobRecord, JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.queue import QueueCosts, QueueManager, QueueMode
from repro.sched.resources import ResourceGraph
from repro.util.clock import EventLoop

__all__ = ["FluxInstance"]


class FluxInstance:
    """A self-contained scheduler over a resource graph and event loop.

    Parameters
    ----------
    graph:
        The resources this instance manages (the batch allocation).
    loop:
        Discrete-event loop providing virtual time. Jobs with a
        ``duration`` complete automatically after that much time.
    policy:
        Matcher policy (exhaustive low-id-first vs greedy first-match).
    mode:
        Q↔R communication mode (sync reproduces the Fig. 6 chunking).
    cycle_interval:
        Seconds of virtual time between scheduling cycles.
    """

    def __init__(
        self,
        graph: ResourceGraph,
        loop: Optional[EventLoop] = None,
        policy: MatchPolicy = MatchPolicy.LOW_ID_FIRST,
        mode: QueueMode = QueueMode.SYNC,
        costs: Optional[QueueCosts] = None,
        cycle_interval: float = 5.0,
        partitioned: bool = True,
        backfill_window: int = 0,
        preemption: bool = False,
    ) -> None:
        if cycle_interval <= 0:
            raise ValueError("cycle_interval must be positive")
        self.graph = graph
        self.loop = loop if loop is not None else EventLoop()
        self.matcher = Matcher(graph, policy, partitioned=partitioned)
        self.queue = QueueManager(self.matcher, mode=mode, costs=costs,
                                  backfill_window=backfill_window,
                                  preemption=preemption)
        self.cycle_interval = cycle_interval
        self.jobs: Dict[int, JobRecord] = {}
        self.start_log: List[tuple] = []  # (time, job_id, name) — Fig. 6 series
        self._on_complete: Dict[int, Callable[[JobRecord], None]] = {}
        self._cycling = False

    # --- submission API ----------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        on_complete: Optional[Callable[[JobRecord], None]] = None,
    ) -> JobRecord:
        """Submit a job; returns its record immediately (state PENDING)."""
        record = JobRecord(spec=spec, submit_time=self.loop.now)
        self.jobs[record.job_id] = record
        self.queue.submit(record)
        if on_complete is not None:
            self._on_complete[record.job_id] = on_complete
        self._ensure_cycling()
        return record

    def poll(self, job_id: int) -> JobState:
        """Current state of a job."""
        return self.jobs[job_id].state

    def cancel(self, job_id: int) -> None:
        """Cancel a pending or running job; the completion callback (if
        any) fires with the CANCELLED record so trackers stay in sync."""
        record = self.jobs[job_id]
        if record.state.is_terminal:
            return
        if record.state is JobState.RUNNING:
            self.queue.finish(record, self.loop.now, JobState.CANCELLED)
        elif not self.queue.cancel_pending(record, self.loop.now):
            # The queue no longer holds the record (e.g. a cycle in
            # flight popped it between our state check and now). Force
            # the terminal state here — the callback must never observe
            # a live-looking cancelled job, and a forced-terminal record
            # is skipped by _complete if the cycle does start it.
            record.state = JobState.CANCELLED
            record.end_time = self.loop.now
        callback = self._on_complete.pop(record.job_id, None)
        if callback is not None:
            callback(record)

    # --- resilience -------------------------------------------------------------

    def drain_node(self, node_id: int) -> None:
        """Stop placing new work on a failed node; running jobs continue.

        This is Flux's failure response as the paper describes it:
        "detect node failures and ... drain the failed nodes so that no
        new jobs can be scheduled while keeping the existing jobs
        running."
        """
        self.graph.drain(node_id)

    def fail_node(self, node_id: int) -> List[JobRecord]:
        """Hard node failure: drain it and fail every job running there."""
        self.graph.drain(node_id)
        victims = [
            rec
            for rec in list(self.queue.running.values())
            if rec.allocation is not None and node_id in rec.allocation.node_ids()
        ]
        for rec in victims:
            self.queue.finish(rec, self.loop.now, JobState.FAILED)
            callback = self._on_complete.pop(rec.job_id, None)
            if callback is not None:
                callback(rec)
        return victims

    # --- scheduling cycles --------------------------------------------------------

    def _ensure_cycling(self) -> None:
        if not self._cycling:
            self._cycling = True
            self.loop.schedule_in(self.cycle_interval, self._cycle, label="flux-cycle")

    def _cycle(self) -> None:
        with trace.span("schedule.cycle") as sp:
            report = self.queue.cycle(self.loop.now, budget=self.cycle_interval)
            if sp:
                sp.set(started=len(report.started), backlog=self.queue.backlog)
        for record in report.started:
            self.start_log.append((record.start_time, record.job_id, record.spec.name))
            if record.spec.duration is not None:
                self.loop.schedule_in(
                    record.spec.duration, self._complete, record, record.start_time,
                    label="job-done"
                )
        if self.queue.backlog or self.queue.running:
            self.loop.schedule_in(self.cycle_interval, self._cycle, label="flux-cycle")
        else:
            self._cycling = False

    def _complete(self, record: JobRecord, expected_start: Optional[float] = None) -> None:
        if record.state is not JobState.RUNNING:
            return  # already cancelled, failed, or preempted back to PENDING
        if expected_start is not None and record.start_time != expected_start:
            # The job was preempted and has since been requeued and
            # restarted: this completion belongs to the evicted run.
            # The restart scheduled its own completion for the full
            # duration, so dropping the stale event is the requeue
            # contract — preempted work runs again from the beginning.
            return
        self.queue.finish(record, self.loop.now, JobState.COMPLETED)
        callback = self._on_complete.pop(record.job_id, None)
        if callback is not None:
            callback(record)

    # --- introspection ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Snapshot of job-state counts (the WM's profiling poll)."""
        out = {state.value: 0 for state in JobState}
        for record in self.jobs.values():
            out[record.state.value] += 1
        return out

    def running_by_name(self) -> Dict[str, int]:
        """Running-job counts per job type (for Fig. 6-style series).

        A fresh copy of the queue's incremental per-name count, so the
        WM's and profiler's polls cost O(job names) rather than
        O(running jobs). Only names with at least one running job
        appear; key order is not part of the contract.
        """
        return dict(self.queue.running_names)

    def history_rows(self) -> List[dict]:
        """Replayable scheduler history (§4.4 'elaborate history files')."""
        return [self.jobs[jid].to_dict() for jid in sorted(self.jobs)]
