"""Maestro-like scheduler adapter: one API, any backend (paper §4.3).

"To achieve portability in job scheduling, the MuMMI workflow
interfaces with Maestro, which provides a consistent API to schedule
and monitor jobs. ... By absorbing the changes and peculiarities of
different job schedulers, Maestro allows MuMMI to be agnostic to the
specific choice of scheduler."

Two adapters ship here:

- :class:`FluxAdapter` — the virtual-time scheduler used by campaign
  simulations and benchmarks.
- :class:`ThreadAdapter` — real execution: runs a Python callable per
  job in a thread pool, which is how the examples run actual (small)
  simulations on a laptop.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, Iterable, Optional

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobRecord, JobSpec, JobState

__all__ = ["SchedulerAdapter", "FluxAdapter", "ThreadAdapter"]


class SchedulerAdapter(abc.ABC):
    """Scheduler-agnostic submit/poll/cancel."""

    @abc.abstractmethod
    def submit(
        self,
        spec: JobSpec,
        fn: Optional[Callable[[], Any]] = None,
        on_complete: Optional[Callable[[JobRecord], None]] = None,
    ) -> JobRecord:
        """Submit a job. ``fn`` is the job body for adapters that really
        execute work; virtual adapters ignore it and complete after
        ``spec.duration`` of virtual time."""

    @abc.abstractmethod
    def poll(self, job_id: int) -> JobState:
        """Current lifecycle state of a submitted job."""

    @abc.abstractmethod
    def cancel(self, job_id: int) -> None:
        """Best-effort cancellation."""

    def settle(self, futures: Iterable[Future]) -> None:
        """The WM round barrier: block until ``futures`` are done.

        Each future resolves when one job the round launched reaches a
        terminal outcome. Adapters that run jobs only when asked (the
        chaos harness's inline FIFO) override this to drive them.
        """
        wait(futures)


class FluxAdapter(SchedulerAdapter):
    """Adapter over the virtual-time :class:`FluxInstance`."""

    def __init__(self, flux: FluxInstance) -> None:
        self.flux = flux

    def submit(self, spec, fn=None, on_complete=None) -> JobRecord:
        return self.flux.submit(spec, on_complete=on_complete)

    def poll(self, job_id: int) -> JobState:
        return self.flux.poll(job_id)

    def cancel(self, job_id: int) -> None:
        self.flux.cancel(job_id)


class ThreadAdapter(SchedulerAdapter):
    """Adapter that actually runs job bodies in a thread pool.

    Resource modeling is trivial (max_workers concurrent jobs); this
    adapter exists so the same Workflow Manager code drives both the
    campaign simulator and real laptop-scale runs.
    """

    def __init__(self, max_workers: int = 4) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self._records: Dict[int, JobRecord] = {}
        self._futures: Dict[int, Future] = {}
        self._callbacks: Dict[int, Callable[[JobRecord], None]] = {}
        self._lock = threading.Lock()

    def submit(self, spec, fn=None, on_complete=None) -> JobRecord:
        record = JobRecord(spec=spec)
        with self._lock:
            self._records[record.job_id] = record
            if on_complete is not None:
                self._callbacks[record.job_id] = on_complete

        def body():
            record.state = JobState.RUNNING
            try:
                record.result = fn() if fn is not None else None
                record.state = JobState.COMPLETED
            except Exception as exc:  # job failure is data, not a crash
                record.result = exc
                record.state = JobState.FAILED
            callback = self._callbacks.pop(record.job_id, None)
            if callback is not None:
                callback(record)
            return record.result

        self._futures[record.job_id] = self._pool.submit(body)
        return record

    def poll(self, job_id: int) -> JobState:
        return self._records[job_id].state

    def cancel(self, job_id: int) -> None:
        future = self._futures.get(job_id)
        if future is not None and future.cancel():
            record = self._records[job_id]
            record.state = JobState.CANCELLED
            callback = self._callbacks.pop(job_id, None)
            if callback is not None:
                callback(record)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job has finished.

        A completion callback may submit more work (a tracker retry, a
        ``when_done`` chain) while this waits, so keep waiting until a
        pass finds no job it has not already waited on. ``_futures``
        only grows, in submission order.
        """
        waited = 0
        while True:
            futures = list(self._futures.values())
            if len(futures) == waited:
                return
            for future in futures[waited:]:
                future.result(timeout=timeout)
            waited = len(futures)

    @property
    def executor(self):
        """``concurrent.futures``-style executor for WM task offloads.

        The WM runs its CPU-bound tasks (macro step, feedback) via
        ``adapter.executor.submit(...)`` so offloads and job bodies
        share one substrate instead of spawning side pools.
        """
        return self._pool

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
