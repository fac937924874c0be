"""End-to-end span tracing: per-stage latency attribution for the workflow.

§4.4 makes profiling a first-class WM responsibility, and every §5
result is a reduction over profiling streams — but counters alone
cannot say *where* a particular patch's journey spent its time. This
module adds the missing provenance-style capture: hierarchical spans
around every hot path (selection, scheduling, simulation job bodies,
store operations, feedback iterations), so one exported trace attributes
latency to stages the way the paper attributes node-hours to job types.

Design constraints, in order:

1. **Near-zero disabled overhead.** Tracing is off by default. The
   module keeps one global tracer reference (``None`` when disabled);
   :func:`span` then returns a shared no-op context manager — one
   global load, one truthiness check, no allocation beyond the kwargs
   dict. Hot loops that cannot afford even that (the matcher) guard on
   :func:`enabled` first. ``benchmarks/test_ext_trace_overhead.py``
   holds the disabled cost under 5% of the matcher hot loop.
2. **Deterministic ordering without wall clocks.** Every span gets a
   monotonically increasing sequence number under the tracer lock;
   exports are ordered by that sequence, never by timestamp. The
   timestamp source itself is injectable: ``time.perf_counter`` for
   real runs, a :class:`repro.util.clock.VirtualClock` for
   bit-reproducible discrete-event traces (the same determinism
   contract as the event loop).
3. **Context crosses threads explicitly.** Span context lives in a
   ``threading.local`` stack; :func:`wrap` captures the caller's active
   span and re-installs it as the ambient parent inside a worker
   thread. The WM wraps every job body it launches, so a store write
   issued from a CG-simulation thread parents back to the job span
   that caused it.
4. **Bounded memory.** Finished spans land in a ring buffer
   (drop-oldest); the tracer counts what it dropped instead of growing
   without bound under a long campaign.

Typical use::

    from repro import trace

    tracer = trace.enable()                  # or trace.enable(clock=loop.clock)
    with trace.span("wm.select", patch="p0001"):
        ...                                  # child spans nest automatically
    trace.event("retry", kind="timeout")     # annotate the active span
    tracer.export_jsonl("trace.jsonl")
    trace.disable()

Analysis helpers (:func:`load_trace`, :func:`stage_breakdown`,
:func:`critical_path`, :func:`concurrency_series`,
:func:`render_breakdown`) replay an exported trace into the per-stage
latency table the ``repro trace`` CLI command prints.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "Span",
    "Tracer",
    "enable",
    "disable",
    "configure",
    "get_tracer",
    "enabled",
    "span",
    "event",
    "current_span",
    "wrap",
    "load_trace",
    "stage_breakdown",
    "name_breakdown",
    "event_counts",
    "critical_path",
    "concurrency_series",
    "render_breakdown",
]

DEFAULT_CAPACITY = 65_536


def _resolve_clock(clock: Any) -> Callable[[], float]:
    """Accept a callable, a VirtualClock-like object, or None (perf_counter)."""
    if clock is None:
        import time

        return time.perf_counter
    if callable(clock):
        return clock
    if hasattr(clock, "now"):
        return lambda: float(clock.now)
    raise TypeError(f"clock must be callable or expose .now, got {clock!r}")


class _NoopSpan:
    """The shared disabled-path span: every method is a no-op.

    Falsy so call sites can skip attribute construction entirely::

        with trace.span("schedule.match") as sp:
            if sp:
                sp.set(job=spec.name)
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One live (or finished) span: a named, timed, attributed interval.

    Created by :meth:`Tracer.span`; use as a context manager. ``attrs``
    hold identifying detail (patch id, key, job name); ``events`` are
    point-in-time annotations inside the interval (a transport retry, a
    fault injection, a store outage).
    """

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "thread_index",
        "t_start", "t_end", "seq", "attrs", "events",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], thread_index: int,
                 t_start: float, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_index = thread_index
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.seq: Optional[int] = None  # assigned at finish, orders the export
        self.attrs = attrs
        self.events: List[Dict[str, Any]] = []

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time annotation inside this span."""
        self.events.append(
            {"name": name, "t": self.tracer._clock(), "attrs": attrs}
        )

    @property
    def duration(self) -> float:
        """Span length in clock seconds (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False

    def to_row(self) -> Dict[str, Any]:
        """The JSONL row for one finished span."""
        return {
            "seq": self.seq,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "stage": self.name.split(".", 1)[0],
            "thread": self.thread_index,
            "t0": self.t_start,
            "t1": self.t_end,
            "dur": self.duration,
            "attrs": self.attrs,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.t_end is None else f"{self.duration * 1e3:.3f} ms"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Span collector: thread-local context stacks over one ring buffer.

    Parameters
    ----------
    capacity:
        Maximum finished spans retained (drop-oldest beyond it); the
        drop count is kept in :attr:`dropped`.
    clock:
        Timestamp source — a zero-arg callable, an object with ``.now``
        (e.g. :class:`repro.util.clock.VirtualClock`), or None for
        ``time.perf_counter``. Ordering never depends on it: spans are
        sequenced by a counter assigned under the tracer lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, clock: Any = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = _resolve_clock(clock)
        self._lock = threading.Lock()
        self._finished: deque = deque(maxlen=capacity)
        self._next_span_id = 0
        self._next_seq = 0
        self.dropped = 0
        self._local = threading.local()
        # Thread indices are assigned in first-span order, so a
        # single-threaded virtual-time trace is fully deterministic.
        self._thread_indices: Dict[int, int] = {}

    # --- context plumbing -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _inherited_parent(self) -> Optional[int]:
        return getattr(self._local, "inherited", None)

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        idx = self._thread_indices.get(ident)
        if idx is None:
            with self._lock:
                idx = self._thread_indices.setdefault(
                    ident, len(self._thread_indices)
                )
        return idx

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_id(self) -> Optional[int]:
        """Id of the active span (or the inherited cross-thread parent)."""
        current = self.current()
        if current is not None:
            return current.span_id
        return self._inherited_parent()

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.t_end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misnested exit; keep the stack sane
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            span.seq = self._next_seq
            self._next_seq += 1
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(span)

    # --- span creation -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span parented to this thread's active context."""
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        return Span(
            tracer=self,
            name=name,
            span_id=span_id,
            parent_id=self.current_id(),
            thread_index=self._thread_index(),
            t_start=self._clock(),
            attrs=attrs,
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Annotate the active span; silently ignored with no span open."""
        current = self.current()
        if current is not None:
            current.event(name, **attrs)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Bind the caller's active span as the ambient parent of ``fn``.

        The returned callable installs that parent for the duration of
        the call, so spans opened inside ``fn`` — typically on a worker
        thread — parent back to the span that scheduled the work.
        """
        parent = self.current_id()
        if parent is None:
            return fn

        @functools.wraps(fn)
        def bound(*args: Any, **kwargs: Any) -> Any:
            previous = getattr(self._local, "inherited", None)
            self._local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.inherited = previous

        return bound

    # --- export -----------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """Finished spans as export rows, ordered by finish sequence."""
        with self._lock:
            spans = list(self._finished)
        return [s.to_row() for s in sorted(spans, key=lambda s: s.seq)]

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns the count."""
        rows = self.rows()
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)

    def summary(self) -> Dict[str, Any]:
        """Compact per-stage totals for the telemetry report."""
        rows = self.rows()
        stages = stage_breakdown(rows)
        return {
            "spans": len(rows),
            "dropped": self.dropped,
            "stages": {
                stage: {
                    "count": s["count"],
                    "total_ms": s["total_ms"],
                }
                for stage, s in stages.items()
            },
        }

    def reset(self) -> None:
        """Discard finished spans (open spans keep recording)."""
        with self._lock:
            self._finished.clear()
            self.dropped = 0


# ---------------------------------------------------------------------------
# Module-level switch: one global tracer, None when disabled.
# ---------------------------------------------------------------------------

_TRACER: Optional[Tracer] = None


def configure(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with None, remove) the process-wide tracer."""
    global _TRACER
    _TRACER = tracer
    return tracer


def enable(capacity: int = DEFAULT_CAPACITY, clock: Any = None) -> Tracer:
    """Create and install a tracer; returns it for export/analysis."""
    tracer = Tracer(capacity=capacity, clock=clock)
    configure(tracer)
    return tracer


def disable() -> None:
    """Disable tracing; subsequent spans are no-ops again."""
    configure(None)


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def enabled() -> bool:
    """Whether a tracer is installed (the hot-loop guard)."""
    return _TRACER is not None


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Open a span on the global tracer, or the shared no-op when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Annotate the active span on the global tracer (no-op when disabled)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **attrs)


def current_span() -> Optional[Span]:
    """The active span on this thread, or None."""
    tracer = _TRACER
    return tracer.current() if tracer is not None else None


def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Propagate the caller's span context into ``fn`` (identity when off)."""
    tracer = _TRACER
    if tracer is None:
        return fn
    return tracer.wrap(fn)


# ---------------------------------------------------------------------------
# Trace analysis: replay an exported JSONL into latency attributions.
# ---------------------------------------------------------------------------


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into rows, re-sorted by sequence."""
    rows: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    rows.sort(key=lambda r: r.get("seq", 0))
    return rows


def _self_times(rows: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Per-span self time: duration minus same-thread child durations.

    Children running on *other* threads overlap their parent
    concurrently, so only same-thread children are subtracted; the
    result is clamped at zero.
    """
    child_sum: Dict[int, float] = {}
    by_id = {r["span"]: r for r in rows}
    for row in rows:
        parent = row.get("parent")
        if parent is not None and parent in by_id:
            if by_id[parent].get("thread") == row.get("thread"):
                child_sum[parent] = child_sum.get(parent, 0.0) + row["dur"]
    return {
        r["span"]: max(0.0, r["dur"] - child_sum.get(r["span"], 0.0))
        for r in rows
    }


def _breakdown(rows: Sequence[Dict[str, Any]], key: str) -> Dict[str, Dict[str, float]]:
    selfs = _self_times(rows)
    out: Dict[str, Dict[str, float]] = {}
    for row in rows:
        group = row[key]
        agg = out.setdefault(group, {
            "count": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0,
        })
        agg["count"] += 1
        agg["total_ms"] += row["dur"] * 1e3
        agg["self_ms"] += selfs[row["span"]] * 1e3
        agg["max_ms"] = max(agg["max_ms"], row["dur"] * 1e3)
    for agg in out.values():
        agg["mean_ms"] = agg["total_ms"] / agg["count"]
    return out


def stage_breakdown(rows: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Latency aggregation by stage (the segment before the first dot)."""
    return _breakdown(rows, "stage")


def name_breakdown(rows: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Latency aggregation by full span name."""
    return _breakdown(rows, "name")


def event_counts(rows: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """How many times each event annotation occurred across the trace."""
    out: Dict[str, int] = {}
    for row in rows:
        for ev in row.get("events", ()):
            out[ev["name"]] = out.get(ev["name"], 0) + 1
    return out


def critical_path(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The heaviest root-to-leaf chain: at each level, the longest child.

    This is the provenance question the counters cannot answer — for
    the most expensive top-level operation, which nested stage carried
    the time.
    """
    if not rows:
        return []
    by_id = {r["span"]: r for r in rows}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for row in rows:
        parent = row.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (parent dropped from the ring): treat as root
        children.setdefault(parent, []).append(row)
    roots = children.get(None, [])
    if not roots:
        return []
    path: List[Dict[str, Any]] = []
    node = max(roots, key=lambda r: (r["dur"], -r["seq"]))
    while node is not None:
        path.append(node)
        kids = children.get(node["span"], [])
        node = max(kids, key=lambda r: (r["dur"], -r["seq"])) if kids else None
    return path


def concurrency_series(
    rows: Sequence[Dict[str, Any]],
    prefix: str = "",
    nbins: int = 50,
) -> List[Dict[str, float]]:
    """Time-binned span concurrency: a Fig. 5-style occupancy view.

    Counts how many spans whose name starts with ``prefix`` were open
    in each of ``nbins`` equal slices of the trace's time extent —
    e.g. ``prefix="wm.cg_sim"`` recovers a running-CG-jobs occupancy
    series from a trace alone.
    """
    if nbins < 1:
        raise ValueError("nbins must be >= 1")
    selected = [r for r in rows if r["name"].startswith(prefix)]
    if not selected:
        return []
    t_lo = min(r["t0"] for r in selected)
    t_hi = max(r["t1"] for r in selected)
    width = (t_hi - t_lo) / nbins or 1.0
    out = []
    for i in range(nbins):
        lo = t_lo + i * width
        hi = lo + width
        active = sum(1 for r in selected if r["t0"] < hi and r["t1"] > lo)
        out.append({"t0": lo, "t1": hi, "active": float(active)})
    return out


def render_breakdown(rows: Sequence[Dict[str, Any]]) -> str:
    """Human-readable per-stage / per-span report (`repro trace` output)."""
    if not rows:
        return "trace is empty: no finished spans"
    lines = [f"trace: {len(rows)} spans"]
    lines.append("  per-stage latency:")
    lines.append(
        f"    {'stage':<10s} {'count':>7s} {'total':>12s} "
        f"{'self':>12s} {'mean':>10s} {'max':>10s}"
    )
    stages = stage_breakdown(rows)
    for stage in sorted(stages, key=lambda s: -stages[s]["total_ms"]):
        agg = stages[stage]
        lines.append(
            f"    {stage:<10s} {agg['count']:>7d} {agg['total_ms']:>10.2f} ms "
            f"{agg['self_ms']:>10.2f} ms {agg['mean_ms']:>7.2f} ms "
            f"{agg['max_ms']:>7.2f} ms"
        )
    lines.append("  per-span-name latency:")
    names = name_breakdown(rows)
    for name in sorted(names, key=lambda n: -names[n]["total_ms"]):
        agg = names[name]
        lines.append(
            f"    {name:<22s} {agg['count']:>6d}x  total {agg['total_ms']:>9.2f} ms"
            f"  mean {agg['mean_ms']:>7.3f} ms"
        )
    events = event_counts(rows)
    if events:
        lines.append("  span events:")
        for name in sorted(events, key=lambda n: -events[n]):
            lines.append(f"    {name:<22s} {events[name]}")
    path = critical_path(rows)
    if path:
        lines.append("  critical path (heaviest chain):")
        for depth, row in enumerate(path):
            detail = ""
            if row.get("attrs"):
                pairs = ", ".join(f"{k}={v}" for k, v in sorted(row["attrs"].items()))
                detail = f"  [{pairs}]"
            lines.append(
                f"    {'  ' * depth}{row['name']:<20s} {row['dur'] * 1e3:9.3f} ms{detail}"
            )
    return "\n".join(lines)
