"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, measured with
the span recorder of ``tracer.py`` installed in each child. The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it print each metric with
its unit and sample count. The exit code is 1 when a correctness check
failed and 2 when the run could not be made. Each run appends a row,
keyed by source digest, git SHA (when there is one) and host, to
``.perfbench/ledger.jsonl``; the traced run's span files stay in
``.perfbench/traces/<workload>/`` for ``python -m repro trace FILE``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0
"""Hard deadline of one invocation; every child wait is bounded by it."""

sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import tracer  # noqa: E402
from proc import ChildError, Children  # noqa: E402
from workloads import WORKLOADS, Outcome, Run  # noqa: E402


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(out: Outcome) -> Dict[str, tuple]:
    """metric -> (value, sample count)."""
    return {
        "setup_s": (median(out.setup_s), len(out.setup_s)),
        "peak_rss_mb": (median(out.rss_mb), len(out.rss_mb)),
        "work_rate": (out.work / out.work_s if out.work_s else 0.0, out.work_n),
        "turnaround_p50_s": (median(out.turnaround_s), len(out.turnaround_s)),
    }


def per_layer(workload: str, run: Run, out: Outcome) -> Dict[str, tuple]:
    """metric -> (value, sample count) for every per-layer metric.

    Span and counter totals are per traced repetition, so a faster
    commit that fits more repetitions into the run reads the same.
    """
    from repro.trace import load_trace

    parts = []
    for path in run.trace_files:
        parts.append(tracer.layer_metrics(load_trace(path)))
        with open(path + ".counts.json", encoding="utf-8") as fh:
            parts.append(json.load(fh))
    reps = max(run.traced_reps, 1)
    raw = {k: v / reps for k, v in tracer.merge_counts(parts + [out.totals]).items()}
    get = lambda key: raw.get(key, 0.0)  # noqa: E731
    for name, values in out.samples.items():
        raw[name] = median(values)
    status = out.samples.get("service.http.status_ms", [])
    selfs = {k: v for k, v in raw.items() if k.endswith(".self_s")}
    derived = {
        "sched.matcher.hit_ratio": get("sched.matcher.hits") / (get("sched.matcher.match.calls") or 1),
        "sched.matcher.visits_per_call": get("sched.matcher.visits") / (get("sched.matcher.match.calls") or 1),
        "core.campaign.other_s": max(0.0, get("core.campaign.wall_s") - sum(selfs.values())),
        "core.wm.barrier_wait_s": max(0.0, get("core.wm.round.total_s") - sum(
            get(f"core.wm.task{i}.total_s") for i in (1, 3, 4))),
        "datastore.wal.commit_wait_s": get("datastore.wal.commit.total_s"),
        "datastore.wal.records_per_fsync": get("datastore.wal.appends") / (get("datastore.wal.fsync_batches") or 1),
        "datastore.namespaced.calls": sum(v for k, v in raw.items()
                                          if k.startswith("datastore.namespaced.") and k.endswith(".calls")),
        "datastore.namespaced.self_s": sum(v for k, v in selfs.items()
                                           if k.startswith("datastore.namespaced.")),
        "datastore.self_share": sum(v for k, v in selfs.items() if k.startswith("datastore."))
        / (sum(selfs.values()) or 1),
        "service.http.submit_ms_p50": median(out.samples.get("service.http.submit_ms", [])),
        "service.http.status_ms_p50": median(status),
        "service.http.status_ms_p90": quantile(status, 0.90),
        "service.http.status_ms_p99": quantile(status, 0.99),
        "service.turnaround_max_s": max(out.turnaround_s + out.traced_unit_s, default=0.0),
        "trace.overhead_ratio": median(out.traced_unit_s) / median(out.turnaround_s) - 1
        if out.traced_unit_s and out.turnaround_s else 0.0,
        "failed_ratio": out.failed / max(out.attempted, 1),
    }
    raw.update(derived)
    return {m.name: (raw.get(m.name, 0.0) if workload in m.workloads else 0.0, reps)
            for m in catalog.PER_LAYER}


def _src_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return ""  # an exported checkout: the source digest identifies it
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return res.stdout.strip() if res.returncode == 0 else ""


def _versions() -> Dict[str, str]:
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = ""
    return {"python": platform.python_version(), "numpy": np_version}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 deadline: float) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if traced else bench["end_to_end"]
    workdir = os.path.join(STATE, "tmp", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with Children(ROOT, workdir, deadline) as children:
            run = Run(seed, seconds, traced, children, workdir)
            out = Outcome()
            WORKLOADS[workload](run, out)
        values = per_layer(workload, run, out) if traced else end_to_end(out)
        if traced:
            keep = os.path.join(STATE, "traces", workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for path in run.trace_files:
                shutil.copy(path, keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in out.problems:
        print(f"CHECK FAILED [{workload}]: {problem}")
    for spec in specs:
        value, n = values[spec["name"]]
        print(f"{workload:<18s} {spec['name']:<38s} {value:>14.6g} {spec['unit']:<6s} "
              f"(n={n}, {spec['better']} is better)")
    result = {
        "correct": not out.problems,
        "attempted": max(int(out.attempted), 1),
        "failed": int(out.failed),
        "metrics": {s["name"]: {"value": values[s["name"]][0], "unit": s["unit"]}
                    for s in specs},
    }
    row = {"time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workload": workload, "seed": seed,
           "seconds": seconds, "trace": int(traced), "git_sha": _git_sha(),
           "src_digest": _src_digest(), "host": socket.gethostname(),
           "nproc": os.cpu_count(), **_versions(), **result}
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, "ledger.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    # A terminated run still unwinds, so its Children scope reaps every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        except ChildError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 2
        except Exception:  # report any other failure as a run that could not be made
            traceback.print_exc()
            return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
