"""Weighted fair sharing of one execution substrate across tenants.

The control plane multiplexes many campaigns onto *one* worker pool the
way the production WM multiplexed many simulations onto one Flux
allocation. Without an arbiter, whichever tenant submits fastest owns
the pool (FCFS is trivially starvable). :class:`FairShareAdapter` puts
a stride scheduler in front of the pool: each tenant holds a *share*
(weight), queued jobs wait in per-tenant queues, and every free worker
slot goes to the backlogged tenant with the smallest virtual *pass*
value. A tenant's pass advances by ``stride = K / weight`` per dispatch,
so over any busy interval tenants receive worker slots proportionally
to their weights — weight 2 gets twice the throughput of weight 1 —
while an idle tenant's unused share flows to the others (work
conservation).

Campaigns talk to the arbiter through :meth:`FairShareAdapter.view`,
which returns a per-tenant :class:`TenantAdapter` implementing the
standard :class:`~repro.sched.adapter.SchedulerAdapter` API, an
``executor`` that bills the WM's task offloads to the tenant, and the
``flush`` hook the WM's checkpoint quiesce uses, scoped to that
tenant's jobs only. The WM's round barrier waits on settle futures of
the jobs its round launched, so one campaign's round never waits on
another campaign's work, even a same-tenant sibling's.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.sched.adapter import SchedulerAdapter
from repro.sched.jobspec import JobRecord, JobSpec, JobState

__all__ = ["StrideScheduler", "FairShareAdapter", "TenantAdapter",
           "TenantExecutor"]

#: Stride numerator; any constant works, this keeps passes readable.
_STRIDE_K = 1 << 16


class StrideScheduler:
    """Pure stride-scheduling arbiter: who gets the next slot?

    Tracks a virtual ``pass`` per tenant. :meth:`pick` returns the
    backlogged tenant with the smallest pass and advances it by the
    tenant's stride (``K / weight``). Newly seen tenants join at the
    current minimum pass so they cannot monopolize the pool by arriving
    late with a zero pass ("pass catch-up", the classic stride fix).
    """

    def __init__(self) -> None:
        self._weights: Dict[str, float] = {}
        self._pass: Dict[str, float] = {}

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"share weight must be > 0, got {weight}")
        self._weights[tenant] = float(weight)

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def _ensure(self, tenant: str) -> None:
        if tenant not in self._pass:
            floor = min(self._pass.values()) if self._pass else 0.0
            self._pass[tenant] = floor

    def pick(self, backlogged: Dict[str, int]) -> Optional[str]:
        """Choose among tenants with queued work; None if all idle."""
        candidates = [t for t, n in backlogged.items() if n > 0]
        if not candidates:
            return None
        for tenant in candidates:
            self._ensure(tenant)
        winner = min(candidates, key=lambda t: (self._pass[t], t))
        self._pass[winner] += _STRIDE_K / self.weight(winner)
        return winner

    def passes(self) -> Dict[str, float]:
        """Current virtual pass per tenant (telemetry)."""
        return dict(self._pass)


class TenantExecutor:
    """``concurrent.futures``-style view over a tenant's fair share.

    The WM offloads its CPU-bound tasks (macro step, feedback) through
    ``adapter.executor.submit``; handing it this object (instead of a
    private thread pool) routes those offloads through the arbiter as
    ordinary ``wm-offload`` jobs, so a tenant's coordination work is
    charged against the same share as its simulation jobs and cannot
    starve other tenants.
    """

    def __init__(self, shared: "FairShareAdapter", tenant: str) -> None:
        self.shared = shared
        self.tenant = tenant

    def submit(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()

        def body() -> Any:
            return fn(*args, **kwargs)

        def done(record: JobRecord) -> None:
            if record.state is JobState.COMPLETED:
                future.set_result(record.result)
            elif isinstance(record.result, BaseException):
                future.set_exception(record.result)
            else:
                future.set_exception(
                    RuntimeError(f"offload job ended {record.state.name}")
                )

        spec = JobSpec(name="wm-offload", ncores=1, tag=f"{self.tenant}-offload")
        self.shared.submit_for(self.tenant, spec, fn=body, on_complete=done)
        return future


class TenantAdapter(SchedulerAdapter):
    """One tenant's scoped handle on a :class:`FairShareAdapter`."""

    def __init__(self, shared: "FairShareAdapter", tenant: str) -> None:
        self.shared = shared
        self.tenant = tenant

    @property
    def executor(self) -> TenantExecutor:
        """Offload executor scoped — and fair-share billed — to this tenant."""
        return TenantExecutor(self.shared, self.tenant)

    def submit(self, spec: JobSpec,
               fn: Optional[Callable[[], Any]] = None,
               on_complete: Optional[Callable[[JobRecord], None]] = None,
               ) -> JobRecord:
        return self.shared.submit_for(self.tenant, spec, fn, on_complete)

    def poll(self, job_id: int) -> JobState:
        return self.shared.poll(job_id)

    def cancel(self, job_id: int) -> None:
        self.shared.cancel(job_id)

    def flush(self) -> None:
        """Quiesce hook (WM checkpoints): drain this tenant's jobs."""
        self.shared.wait_tenant(self.tenant)


class FairShareAdapter:
    """A shared thread pool arbitrated by stride scheduling.

    Parameters
    ----------
    max_workers:
        Concurrent job slots shared by every tenant.
    shares:
        Initial ``{tenant: weight}`` map; unknown tenants default to
        weight 1.0 and may be (re)weighted live via :meth:`set_share`.
    """

    def __init__(self, max_workers: int = 4,
                 shares: Optional[Dict[str, float]] = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._stride = StrideScheduler()
        for tenant, weight in (shares or {}).items():
            self._stride.set_weight(tenant, weight)
        self._queues: Dict[str, Deque[Tuple[JobRecord, Optional[Callable],
                                            Optional[Callable]]]] = {}
        self._active = 0
        self._records: Dict[int, JobRecord] = {}
        self._done_events: Dict[int, threading.Event] = {}
        self._tenant_of: Dict[int, str] = {}
        self._cancelled: set = set()
        self._dispatched: Dict[str, int] = {}
        self._completed: Dict[str, int] = {}
        self._closed = False

    # --- tenant plumbing --------------------------------------------------

    def view(self, tenant: str) -> TenantAdapter:
        """The per-tenant adapter a campaign's WM plugs into."""
        return TenantAdapter(self, tenant)

    def set_share(self, tenant: str, weight: float) -> None:
        with self._lock:
            self._stride.set_weight(tenant, weight)

    # --- submission and dispatch -----------------------------------------

    def submit_for(self, tenant: str, spec: JobSpec,
                   fn: Optional[Callable[[], Any]] = None,
                   on_complete: Optional[Callable[[JobRecord], None]] = None,
                   ) -> JobRecord:
        record = JobRecord(spec=spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("FairShareAdapter is shut down")
            self._records[record.job_id] = record
            self._done_events[record.job_id] = threading.Event()
            self._tenant_of[record.job_id] = tenant
            self._queues.setdefault(tenant, deque()).append(
                (record, fn, on_complete)
            )
        self._dispatch()
        return record

    def _dispatch(self) -> None:
        """Fill free slots with queued jobs in stride order."""
        while True:
            with self._lock:
                if self._active >= self.max_workers:
                    return
                backlog = {t: len(q) for t, q in self._queues.items()}
                tenant = self._stride.pick(backlog)
                if tenant is None:
                    return
                record, fn, on_complete = self._queues[tenant].popleft()
                if record.job_id in self._cancelled:
                    continue  # cancelled while queued; slot stays free
                self._active += 1
                self._dispatched[tenant] = self._dispatched.get(tenant, 0) + 1
            self._pool.submit(self._run, tenant, record, fn, on_complete)

    def _run(self, tenant: str, record: JobRecord,
             fn: Optional[Callable[[], Any]],
             on_complete: Optional[Callable[[JobRecord], None]]) -> None:
        record.state = JobState.RUNNING
        try:
            record.result = fn() if fn is not None else None
            record.state = JobState.COMPLETED
        except Exception as exc:  # job failure is data, not a crash
            record.result = exc
            record.state = JobState.FAILED
        with self._lock:
            self._active -= 1
            self._completed[tenant] = self._completed.get(tenant, 0) + 1
        try:
            if on_complete is not None:
                on_complete(record)
        finally:
            self._done_events[record.job_id].set()
            self._dispatch()

    # --- SchedulerAdapter surface ----------------------------------------

    def poll(self, job_id: int) -> JobState:
        return self._records[job_id].state

    def cancel(self, job_id: int) -> None:
        """Best-effort: only jobs still queued can be cancelled."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.state is not JobState.PENDING:
                return
            self._cancelled.add(job_id)
            record.state = JobState.CANCELLED
        self._done_events[job_id].set()

    def wait_tenant(self, tenant: str, timeout: Optional[float] = None) -> None:
        """Block until every job this tenant ever submitted finished."""
        with self._lock:
            events = [self._done_events[jid]
                      for jid, t in self._tenant_of.items() if t == tenant]
        for event in events:
            if not event.wait(timeout=timeout):
                raise TimeoutError(f"tenant {tenant!r} jobs did not drain")

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            for queue in self._queues.values():
                while queue:
                    record, _fn, _cb = queue.popleft()
                    self._cancelled.add(record.job_id)
                    record.state = JobState.CANCELLED
                    self._done_events[record.job_id].set()
        self._pool.shutdown(wait=True)

    # --- telemetry --------------------------------------------------------

    def share_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant dispatch accounting for the service telemetry."""
        with self._lock:
            backlog = {t: len(q) for t, q in self._queues.items()}
            tenants = (set(self._queues) | set(self._dispatched)
                       | set(self._completed))
            return {
                tenant: {
                    "weight": self._stride.weight(tenant),
                    "queued": backlog.get(tenant, 0),
                    "dispatched": self._dispatched.get(tenant, 0),
                    "completed": self._completed.get(tenant, 0),
                    "pass": self._stride.passes().get(tenant, 0.0),
                }
                for tenant in sorted(tenants)
            }
