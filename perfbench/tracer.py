"""Out-of-process-friendly span recorder for the benchmark's traced runs.

A traced child process installs this module before it builds any object
of the program. :func:`install` replaces the public functions and
methods of each layer on the names their callers look up (a method on
its class, ``createsim`` on ``repro.core.wm``), so no file of the
program changes and the program's own ``repro.trace`` stays as it
ships. Per-core helpers such as ``Node.socket_of_core`` are left alone:
they run about a million times per campaign and a wrapper there would
measure itself.

Spans are kept in memory and written at exit as ``repro.trace`` JSONL
rows, so ``python -m repro trace FILE`` renders a traced run with the
program's own report. Self times come from ``repro.trace.name_breakdown``
(duration minus same-thread children); :func:`layer_metrics` turns that
breakdown into ``<span>.calls`` / ``<span>.self_s`` metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["Recorder", "install", "layer_metrics", "merge_counts"]


class Recorder:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        # (span id, parent id, name, thread index, t0, t1); list.append
        # is atomic, so pool threads append without a lock.
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: Dict[int, int] = {}
        self.wals: List[Any] = []

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        idx = self._threads.get(ident)
        if idx is None:
            with self._lock:
                idx = self._threads.setdefault(ident, len(self._threads))
        return idx

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one span named ``name``."""
        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one loop thread, so their spans
            # are roots: the duration is wall time including awaits.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(self._ids)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append((sid, None, name, self._thread_index(),
                                       t0, time.perf_counter()))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, self._thread_index(), t0, t1))
        return wrapper

    def rows(self) -> List[Dict[str, Any]]:
        """The spans as ``repro.trace`` export rows, in finish order."""
        return [
            {"seq": seq, "span": sid, "parent": parent, "name": name,
             "stage": name.split(".", 1)[0], "thread": thread,
             "t0": t0, "t1": t1, "dur": t1 - t0, "attrs": {}, "events": []}
            for seq, (sid, parent, name, thread, t0, t1) in enumerate(self.spans)
        ]

    def dump(self, path: str) -> None:
        """Write the spans to ``path`` (JSONL) and the counters beside it."""
        for wal in self.wals:
            info = wal.info()
            self.count("datastore.wal.appends", info["appends"])
            self.count("datastore.wal.fsync_batches", info["fsync_batches"])
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")
        with open(path + ".counts.json", "w", encoding="utf-8") as fh:
            json.dump(self.counts, fh)


def layer_metrics(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """``<span>.calls``, ``.self_s`` and ``.total_s`` for every span name in ``rows``."""
    from repro.trace import name_breakdown

    out: Dict[str, float] = {}
    for name, agg in name_breakdown(rows).items():
        out[f"{name}.calls"] = agg["count"]
        out[f"{name}.self_s"] = agg["self_ms"] / 1e3
        out[f"{name}.total_s"] = agg["total_ms"] / 1e3
    return out


def merge_counts(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum metric dicts key by key (one per traced process)."""
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


# --- counting wrappers (inside the span, so their cost is charged to it) ---


def _count_match(rec: Recorder, fn: Callable) -> Callable:
    def match(self, spec):
        before = self.stats.vertices_visited
        alloc = fn(self, spec)
        rec.count("sched.matcher.visits", self.stats.vertices_visited - before)
        if alloc is not None:
            rec.count("sched.matcher.hits")
        return alloc
    return match


def _count_events(rec: Recorder, fn: Callable) -> Callable:
    def run(self, *args, **kwargs):
        before = self.processed
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.count("util.clock.events_processed", self.processed - before)
    return run


def _count_feedback(rec: Recorder, fn: Callable) -> Callable:
    def run_iteration(self, *args, **kwargs):
        report = fn(self, *args, **kwargs)
        rec.count("core.feedback.collect_s", report.collect_seconds)
        rec.count("core.feedback.process_s", report.process_seconds)
        rec.count("core.feedback.tag_s", report.tag_seconds)
        return report
    return run_iteration


def _count_lock(rec: Recorder, fn: Callable) -> Callable:
    def close(self):
        rec.count("core.wm.selector_lock_contended",
                  self.lock_stats()["contentions"])
        return fn(self)
    return close


def _count_bytes(rec: Recorder, fn: Callable, op: str, prefix: str) -> Callable:
    key = f"{prefix}.{op}.bytes"
    if op == "write":
        def write(self, k, data, *args, **kwargs):
            rec.count(key, len(data))
            return fn(self, k, data, *args, **kwargs)
        return write
    if op == "write_many":
        def write_many(self, items, *args, **kwargs):
            if not isinstance(items, Mapping):
                items = list(items)  # a generator must survive the count
            pairs = items.items() if isinstance(items, Mapping) else items
            rec.count(key, sum(len(v) for _, v in pairs))
            return fn(self, items, *args, **kwargs)
        return write_many
    if op == "read":
        def read(self, *args, **kwargs):
            data = fn(self, *args, **kwargs)
            rec.count(key, len(data))
            return data
        return read
    return fn


def _time_jobs(rec: Recorder, fn: Callable, fn_pos: int, prefix: str) -> Callable:
    """Time each job from submit to the start of its body (queue wait)."""
    def submit(*args, **kwargs):
        args = list(args)
        if len(args) > fn_pos:
            body = args[fn_pos]
        else:
            body = kwargs.get("fn")
        if body is not None:
            submitted = time.perf_counter()

            def timed_body():
                rec.count(f"{prefix}.queue_wait_s", time.perf_counter() - submitted)
                rec.count(f"{prefix}.jobs")
                try:
                    return body()
                except Exception:
                    rec.count(f"{prefix}.failed")
                    raise

            if len(args) > fn_pos:
                args[fn_pos] = timed_body
            else:
                kwargs["fn"] = timed_body
        return fn(*args, **kwargs)
    return submit


def _keep_wal(rec: Recorder, fn: Callable) -> Callable:
    def __init__(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        rec.wals.append(self)
    return __init__


def _patch(owner: Any, attr: str, rec: Recorder, span: Optional[str],
           counter: Optional[Callable] = None) -> None:
    fn = getattr(owner, attr)
    if counter is not None:
        fn = functools.wraps(fn)(counter(rec, fn))
    if span is not None:
        fn = rec.span(span, fn)
    setattr(owner, attr, fn)


_STORE_OPS = ("write", "read", "move", "keys", "read_present", "read_many",
              "write_many", "delete_many")


def _store_classes() -> List[type]:
    from repro.datastore.base import DataStore

    seen, todo = [], list(DataStore.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return [c for c in seen if not inspect.isabstract(c)]


def install(rec: Recorder) -> None:
    """Wrap every measured call site; call before any object is built."""
    import repro.core.wm as wm_mod
    import repro.datastore  # noqa: F401 - registers every backend class
    from repro.core.feedback import FeedbackManager
    from repro.core.profiling import OccupancyProfiler
    from repro.datastore.namespaced import NamespacedStore
    from repro.datastore.wal import ShardWAL
    from repro.ml.encoder import PatchEncoder
    from repro.sampling.binned import BinnedSampler
    from repro.sampling.fps import FarthestPointSampler
    from repro.sched.adapter import ThreadAdapter
    from repro.sched.flux import FluxInstance
    from repro.sched.matcher import Matcher
    from repro.sched.queue import QueueManager
    from repro.sched.resources import ResourceGraph
    from repro.sched.shares import FairShareAdapter
    from repro.service.registry import CampaignRegistry
    from repro.sims.aa.analysis import SecondaryStructureAnalysis
    from repro.sims.aa.engine import AASim
    from repro.sims.cg.analysis import CGAnalysis
    from repro.sims.cg.engine import CGSim
    from repro.sims.continuum.ddft import ContinuumSim
    from repro.util.clock import EventLoop

    spans = [
        (FluxInstance, "running_by_name", "sched.flux.running_by_name"),
        (FluxInstance, "submit", "sched.flux.submit"),
        (QueueManager, "cycle", "sched.queue.cycle"),
        (ResourceGraph, "claim", "sched.resources.claim"),
        (ResourceGraph, "release", "sched.resources.release"),
        (ResourceGraph, "feasible_ids", "sched.resources.feasible_ids"),
        (OccupancyProfiler, "poll", "core.profiling.poll"),
        (wm_mod.WorkflowManager, "round", "core.wm.round"),
        (wm_mod.WorkflowManager, "task1_process_macro", "core.wm.task1"),
        (wm_mod.WorkflowManager, "task3_manage_jobs", "core.wm.task3"),
        (wm_mod.WorkflowManager, "task4_feedback", "core.wm.task4"),
        (ContinuumSim, "step", "sims.continuum.step"),
        (CGSim, "step", "sims.cg.step"),
        (CGAnalysis, "analyze", "sims.cg.analyze"),
        (AASim, "step", "sims.aa.step"),
        (SecondaryStructureAnalysis, "analyze_frame", "sims.aa.analyze"),
        (wm_mod, "createsim", "sims.mapping.createsim"),
        (wm_mod, "backmap", "sims.mapping.backmap"),
        (PatchEncoder, "encode", "ml.encoder.encode"),
        (FarthestPointSampler, "add_batch", "sampling.fps.add_batch"),
        (FarthestPointSampler, "select", "sampling.fps.select"),
        (BinnedSampler, "add", "sampling.binned.add"),
        (BinnedSampler, "select", "sampling.binned.select"),
        (CampaignRegistry, "submit", "service.registry.submit"),
        (ShardWAL, "commit", "datastore.wal.commit"),
    ]
    for owner, attr, name in spans:
        _patch(owner, attr, rec, name)
    _patch(Matcher, "match", rec, "sched.matcher.match", _count_match)
    _patch(EventLoop, "run_until", rec, None, _count_events)
    _patch(FeedbackManager, "run_iteration", rec, "core.feedback.iteration",
           _count_feedback)
    _patch(wm_mod.WorkflowManager, "close", rec, None, _count_lock)
    _patch(ShardWAL, "__init__", rec, None, _keep_wal)
    _patch(ThreadAdapter, "submit", rec, None,
           lambda r, f: _time_jobs(r, f, 2, "sched.adapter"))
    _patch(FairShareAdapter, "submit_for", rec, None,
           lambda r, f: _time_jobs(r, f, 3, "sched.shares"))
    for cls in _store_classes():
        prefix = "datastore.namespaced" if issubclass(cls, NamespacedStore) else "datastore"
        for op in _STORE_OPS:
            # Wrap each implementation once: a method inherited from
            # another concrete store already carries that store's wrapper.
            owner = next(c for c in cls.__mro__ if op in c.__dict__)
            if owner is cls or inspect.isabstract(owner):
                _patch(cls, op, rec, f"{prefix}.{op}",
                       lambda r, f, op=op, prefix=prefix: _count_bytes(r, f, op, prefix))
