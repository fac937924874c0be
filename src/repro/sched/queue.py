"""The queue manager (Q): FCFS, no backfilling, sync or async Q↔R.

§5.2 diagnoses the 4000-node bottleneck: "Flux's queue manager (Q) and
resource graph matcher (R) communicate synchronously. Our scaling run
exposed this bottleneck where Q spends the bulk of its time handling
new job submissions as opposed to forwarding jobs to R." The fix made
that communication asynchronous.

:class:`QueueManager` models both modes in virtual time. Work is
accounted in seconds: every intake costs ``submit_cost`` and every
match attempt costs ``match_overhead + per-vertex traversal``. A
scheduling *cycle* has a fixed time budget:

- ``SYNC``: intake and matching share one budget, intake first — so a
  sustained submission stream starves the matcher, and job starts come
  in chunks when the stream pauses (Fig. 6, 4000 nodes).
- ``ASYNC``: intake and matching each get a full budget (they run
  concurrently), so starts track submissions smoothly.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.sched.jobspec import JobRecord, JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import Allocation

__all__ = ["QueueMode", "QueueCosts", "QueueManager", "CycleReport",
           "DEFAULT_BACKFILL_WINDOW"]

#: Window used when the matcher runs the BACKFILL policy and the queue
#: was not given an explicit ``backfill_window``.
DEFAULT_BACKFILL_WINDOW = 16


class QueueMode(enum.Enum):
    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class QueueCosts:
    """Virtual-time cost model for queue-manager work.

    Defaults are calibrated so a ~100 jobs/min stream loads a 1000-node
    partition smoothly with the exhaustive matcher while the same stream
    at 4000 nodes exhibits the paper's chunking (see the Fig. 6 bench).
    """

    submit_cost: float = 0.25
    """Seconds of Q time to ingest one submission (script write, RPC)."""

    match_overhead: float = 0.002
    """Fixed seconds per match attempt (Q→R round trip)."""

    vertex_cost: float = 2.0e-6
    """Seconds per resource-graph vertex the matcher visits."""


@dataclass
class CycleReport:
    """What one scheduling cycle accomplished."""

    time: float
    intaken: int = 0
    started: List[JobRecord] = field(default_factory=list)
    preempted: List[JobRecord] = field(default_factory=list)
    intake_time: float = 0.0
    match_time: float = 0.0


class QueueManager:
    """FCFS queue in front of a :class:`Matcher`.

    The campaign's throughput-oriented policy is strict FCFS with no
    backfilling, but three richer behaviors are available:

    - *backfill*: up to ``backfill_window`` jobs behind a blocked head
      may start each cycle (auto-enabled with
      :data:`DEFAULT_BACKFILL_WINDOW` when the matcher runs the
      ``BACKFILL`` policy).
    - *gang*: under the ``GANG`` policy, a head whose spec carries a
      ``gang_id`` is matched together with every queued member of that
      gang, all-or-nothing.
    - *preemption*: with ``preemption=True``, a blocked head of higher
      priority evicts the lowest-priority running jobs; evicted jobs
      are requeued directly behind the head for restart.

    ``running`` maps job id to record for every RUNNING job, and
    ``running_names`` counts those jobs per spec name. Only
    :meth:`_start` and :meth:`_stop` change either, so the counts always
    equal a recount over ``running.values()`` and hold no zero entries;
    the profiler's polls read them in O(job names), not O(running
    jobs). Their key order is not part of the contract.
    """

    def __init__(
        self,
        matcher: Matcher,
        mode: QueueMode = QueueMode.SYNC,
        costs: Optional[QueueCosts] = None,
        backfill_window: int = 0,
        preemption: bool = False,
    ) -> None:
        if backfill_window < 0:
            raise ValueError("backfill_window must be >= 0")
        if backfill_window == 0 and matcher.policy is MatchPolicy.BACKFILL:
            backfill_window = DEFAULT_BACKFILL_WINDOW
        self.matcher = matcher
        self.mode = mode
        self.costs = costs or QueueCosts()
        self.backfill_window = backfill_window
        self.preemption = preemption
        self.backfilled = 0  # jobs started ahead of a blocked head
        self.preempted = 0   # evictions performed for higher-priority heads
        self.gangs_placed = 0
        self.inbox: Deque[JobRecord] = deque()   # submitted, not yet ingested
        self.pending: Deque[JobRecord] = deque()  # ingested, awaiting match
        self.running: Dict[int, JobRecord] = {}
        self.running_names: Dict[str, int] = {}
        self.history: List[CycleReport] = []

    # --- submission ------------------------------------------------------

    def submit(self, record: JobRecord) -> None:
        """Drop a job into Q's inbox (asynchronous to the caller)."""
        self.inbox.append(record)

    @property
    def backlog(self) -> int:
        """Jobs submitted but not yet running."""
        return len(self.inbox) + len(self.pending)

    # --- one scheduling cycle ------------------------------------------------

    def cycle(self, now: float, budget: float) -> CycleReport:
        """Run one cycle of Q work within ``budget`` seconds of Q time.

        Returns the jobs started this cycle; the caller (FluxInstance)
        is responsible for scheduling their completions.
        """
        report = CycleReport(time=now)
        if self.mode is QueueMode.SYNC:
            remaining = self._do_intake(report, budget)
            self._do_matching(report, now, remaining)
        else:
            self._do_intake(report, budget)
            self._do_matching(report, now, budget)
        self.history.append(report)
        return report

    def _do_intake(self, report: CycleReport, budget: float) -> float:
        """Move inbox -> pending until the inbox drains or budget runs out.

        Returns the unused budget.
        """
        cost = self.costs.submit_cost
        while self.inbox and budget >= cost:
            self.pending.append(self.inbox.popleft())
            budget -= cost
            report.intaken += 1
            report.intake_time += cost
        return budget

    def _do_matching(self, report: CycleReport, now: float, budget: float) -> None:
        """FCFS match from the head of pending; stop on first failure.

        The campaign's throughput-oriented policy is strict FCFS with no
        backfilling: a blocked head makes everyone wait. Flux's "many
        policy knobs" include backfilling, modeled here as a bounded
        window: when the head cannot place, up to ``backfill_window``
        later jobs are tried this cycle (the head keeps its position).
        Gang heads are matched with their whole ensemble; a blocked
        higher-priority head may preempt when the knob is on.
        """
        while self.pending and budget > 0:
            head = self.pending[0]
            if head.spec.gang_id is not None and self.matcher.policy is MatchPolicy.GANG:
                cost, placed = self._attempt_gang(head, now, report)
                budget -= cost
                if placed:
                    continue
            else:
                cost = self._attempt(head, now, report)
                budget -= cost
                if head.state is JobState.RUNNING:
                    self.pending.popleft()
                    continue
                if self.preemption and budget > 0:
                    budget -= self._attempt_preempt(head, now, report)
                    if head.state is JobState.RUNNING:
                        self.pending.popleft()
                        continue
            # Head blocked. Optionally try a bounded backfill window.
            if self.backfill_window:
                budget = self._backfill(report, now, budget)
            break

    # --- gang co-placement ----------------------------------------------

    def _gang_members(self, gang_id: str) -> List[JobRecord]:
        """Queued members of a gang, head first, in submission order."""
        return [r for r in self.pending if r.spec.gang_id == gang_id]

    def _gang_complete(self, gang_id: str) -> bool:
        """A gang with members still in the inbox is not ready to place:
        starting a partial ensemble would defeat all-or-nothing."""
        return not any(r.spec.gang_id == gang_id for r in self.inbox)

    def _attempt_gang(self, head: JobRecord, now: float,
                      report: CycleReport) -> Tuple[float, bool]:
        """Co-place the head's whole gang; returns (Q-time cost, placed)."""
        gang_id = head.spec.gang_id
        if not self._gang_complete(gang_id):
            return 0.0, False  # wait for the rest of the ensemble
        members = self._gang_members(gang_id)
        visits_before = self.matcher.stats.vertices_visited
        allocs = self.matcher.match_gang([m.spec for m in members])
        cost = (
            self.costs.match_overhead * len(members)
            + (self.matcher.stats.vertices_visited - visits_before) * self.costs.vertex_cost
        )
        report.match_time += cost
        if allocs is None:
            return cost, False
        for record, alloc in zip(members, allocs):
            self._start(record, alloc, now, report)
            self.pending.remove(record)
        self.gangs_placed += 1
        return cost, True

    # --- preemption -------------------------------------------------------

    def _attempt_preempt(self, head: JobRecord, now: float, report: CycleReport) -> float:
        """Evict lower-priority running jobs to place a blocked head.

        Evicted jobs go back to PENDING directly behind the head (they
        restart as soon as capacity allows) and are reported via
        ``report.preempted`` so the caller can discard their scheduled
        completions.
        """
        victims = [
            (rec.spec.priority, rec.job_id, rec.allocation)
            for rec in self.running.values()
            if rec.allocation is not None
        ]
        if not any(prio < head.spec.priority for prio, _, _ in victims):
            return 0.0
        visits_before = self.matcher.stats.vertices_visited
        outcome = self.matcher.preempt(head.spec, victims)
        cost = (
            self.costs.match_overhead
            + (self.matcher.stats.vertices_visited - visits_before) * self.costs.vertex_cost
        )
        report.match_time += cost
        if outcome is None:
            return cost
        alloc, evicted_ids = outcome
        requeued = [self._stop(job_id) for job_id in evicted_ids]
        for record in requeued:
            record.state = JobState.PENDING
            record.allocation = None
            record.start_time = None
            report.preempted.append(record)
            self.preempted += 1
        # Reinsert behind the head, preserving original order.
        for record in reversed(requeued):
            self.pending.insert(1, record)
        self._start(head, alloc, now, report)
        return cost

    def _attempt(self, record: JobRecord, now: float, report: CycleReport) -> float:
        """Try to place one job; returns the Q-time cost of the attempt."""
        visits_before = self.matcher.stats.vertices_visited
        alloc = self.matcher.match(record.spec)
        cost = (
            self.costs.match_overhead
            + (self.matcher.stats.vertices_visited - visits_before) * self.costs.vertex_cost
        )
        report.match_time += cost
        if alloc is not None:
            self._start(record, alloc, now, report)
        return cost

    def _backfill(self, report: CycleReport, now: float, budget: float) -> float:
        """Try jobs behind a blocked head, up to the window size.

        Gang members never backfill individually — an ensemble only
        starts all-or-nothing from the head of the queue.
        """
        candidates = list(self.pending)[1: 1 + self.backfill_window]
        for record in candidates:
            if budget <= 0:
                break
            if record.spec.gang_id is not None:
                continue
            budget -= self._attempt(record, now, report)
            if record.state is JobState.RUNNING:
                self.pending.remove(record)
                self.backfilled += 1
        return budget

    # --- the running set ---------------------------------------------------

    def _start(self, record: JobRecord, alloc: Allocation, now: float,
               report: CycleReport) -> None:
        """Move a placed job into the running set."""
        record.allocation = alloc
        record.state = JobState.RUNNING
        record.start_time = now
        self.running[record.job_id] = record
        name = record.spec.name
        self.running_names[name] = self.running_names.get(name, 0) + 1
        report.started.append(record)

    def _stop(self, job_id: int) -> JobRecord:
        """Take a job out of the running set; returns its record."""
        record = self.running.pop(job_id)
        name = record.spec.name
        left = self.running_names[name] - 1
        if left:
            self.running_names[name] = left
        else:
            del self.running_names[name]
        return record

    # --- completion/cancellation (driven by FluxInstance) ----------------

    def finish(self, record: JobRecord, now: float, state: JobState = JobState.COMPLETED) -> None:
        if record.job_id not in self.running:
            raise KeyError(f"job {record.job_id} is not running")
        self._stop(record.job_id)
        record.state = state
        record.end_time = now
        if record.allocation is not None:
            self.matcher.release(record.allocation)
            record.allocation = None

    def cancel_pending(self, record: JobRecord, now: float) -> bool:
        """Cancel a job that has not started; returns False if not queued."""
        for q in (self.inbox, self.pending):
            try:
                q.remove(record)
            except ValueError:
                continue
            record.state = JobState.CANCELLED
            record.end_time = now
            return True
        return False
