"""Entry point of every child process the benchmark starts.

Usage: ``python3 perfbench/boot.py TRACE ROLE ARGS...`` with ``PYTHONPATH``
pointing at the program's ``src``. ``TRACE`` is ``-`` for an untraced
child, else the JSONL file the span recorder writes at exit; the
recorder is installed before the role imports or builds anything.

Roles print JSON event lines on stdout: ``ready`` once the process can
take work, ``result`` with what the parent checks and measures. The
``cli`` role runs ``repro.cli.main(ARGS)`` unchanged (the shard and
daemon processes), so those children are the commands as they ship.
"""

from __future__ import annotations

import atexit
import json
import resource
import sys
import time


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign(seed: str) -> None:
    """One Table-1-shaped ledger: 100 n/6 h, 500/12 h, 1000/24 h, 4000/24 h."""
    t0 = time.perf_counter()
    import numpy as np

    from repro.core.campaign import CampaignConfig, CampaignSimulator, RunSpec
    t1 = time.perf_counter()
    config = CampaignConfig(
        ledger=(RunSpec(100, 6, 1), RunSpec(500, 12, 1),
                RunSpec(1000, 24, 1), RunSpec(4000, 24, 1)),
        seed=int(seed),
    )
    sim = CampaignSimulator(config)
    t2 = time.perf_counter()
    emit("ready", import_s=t1 - t0, build_s=t2 - t1)
    result = sim.run()
    t3 = time.perf_counter()
    gpu = [e.gpu_occupancy for e in result.profile_events]
    emit("result", sim_s=t3 - t2, maxrss_mb=maxrss_mb(),
         ledger_node_hours=sum(r.node_hours for r in config.ledger),
         node_hours=result.total_node_hours(),
         counters=result.counters,
         cg_cap_us=config.cg_cap_us, aa_cap_ns=config.aa_cap_ns_range[1],
         cg_max_us=max(result.cg_lengths_us, default=0.0),
         aa_max_ns=max(result.aa_lengths_ns, default=0.0),
         gpu_median=float(np.median(gpu)) if gpu else 0.0,
         jobs_started=sum(len(v) for v in result.load_curves.values()))


def _app(url: str, seed: str):
    t0 = time.perf_counter()
    from repro.app.builder import build_application
    t1 = time.perf_counter()
    app = build_application(store_url=url, seed=int(seed))
    t2 = time.perf_counter()
    emit("ready", import_s=t1 - t0, build_s=t2 - t1)
    return app


def wm(url: str, seed: str, rounds: str) -> None:
    """``rounds`` WM rounds on the store at ``url``, then a checkpoint."""
    app = _app(url, seed)
    wm = app.wm
    round_s = []
    for _ in range(int(rounds)):
        t = time.perf_counter()
        wm.round()
        round_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    wm.checkpoint()
    checkpoint_s = time.perf_counter() - t
    status = wm.status()
    transport = app.store.transport_stats.as_dict()
    failed_jobs = sum(len(t.abandoned) for t in wm.trackers.values())
    wm.close()
    app.store.close()
    emit("result", round_s=round_s, checkpoint_s=checkpoint_s,
         maxrss_mb=maxrss_mb(), rounds=wm.rounds,
         counters=status["counters"],
         cg_chunks_per_job=wm.config.cg_chunks_per_job,
         coupling_version=status["coupling_version"],
         ff_version=status["ff_version"],
         failed_jobs=failed_jobs,
         store_calls=sum(app.store.stats.as_dict()[k] for k in
                         ("writes", "reads", "deletes", "moves", "scans")),
         transport={k: transport[k] for k in
                    ("retries", "failovers", "coalesced_keys", "exhausted")})


def restore(url: str, seed: str) -> None:
    """A fresh WM on the restarted shards restores the last checkpoint."""
    app = _app(url, seed)
    t = time.perf_counter()
    payload = app.wm.restore()
    restore_s = time.perf_counter() - t
    counters = app.wm.counters_snapshot()
    rounds = app.wm.rounds
    app.wm.close()
    app.store.close()
    emit("result", restore_s=restore_s, maxrss_mb=maxrss_mb(),
         rounds=rounds, counters=counters, checkpoint_counters=payload["counters"])


def cli(*argv: str) -> None:
    """Run a ``repro`` command as it ships; report its import time."""
    t0 = time.perf_counter()
    import repro.cli
    if argv[0] == "serve":
        import repro.service  # noqa: F401 - the command's own import, timed here
    elif argv[0] == "netkv":
        import repro.datastore.aio  # noqa: F401
    emit("boot", import_s=time.perf_counter() - t0)
    code = repro.cli.main(list(argv))
    sys.exit(code)


ROLES = {"campaign": campaign, "wm": wm, "restore": restore, "cli": cli}


def main(argv) -> None:
    trace_file, role, *args = argv
    if trace_file != "-":
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        atexit.register(rec.dump, trace_file)
    ROLES[role](*args)


if __name__ == "__main__":
    main(sys.argv[1:])
