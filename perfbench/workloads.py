"""The benchmark's three workloads, driven from the parent process.

Each workload repeats its unit of work in fresh child processes until
the run's seconds are spent; repetitions never share a process, because
a second simulator in one process slows under garbage collection of the
heap the first one left behind. Inputs come only from the run's seed. In a traced run the
first repetition stays untraced, so traced and untraced unit times of
the same run give the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import checks
from proc import Child, ChildError, Children

__all__ = ["Run", "Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """Samples of one run; :mod:`run` turns them into metrics."""

    setup_s: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    work: float = 0.0
    work_s: float = 0.0
    work_n: int = 0
    turnaround_s: List[float] = field(default_factory=list)
    traced_unit_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    """Parent-side per-layer samples; reported as their median."""
    totals: Dict[str, float] = field(default_factory=dict)
    """Parent-side per-layer totals; reported per traced repetition."""

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def total(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def add_work(self, units: float, seconds: float) -> None:
        """Work done in ``seconds``; the rate is the ratio of the sums."""
        self.work += units
        self.work_s += seconds
        self.work_n += 1

    def unit(self, seconds: float, traced: bool) -> None:
        """One unit-of-work time; untraced ones are the turnaround samples."""
        (self.traced_unit_s if traced else self.turnaround_s).append(seconds)


class Run:
    """One benchmark invocation: seed, time budget, children, trace files."""

    def __init__(self, seed: int, seconds: float, traced: bool,
                 children: Children, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.traced = traced
        self.children = children
        self.workdir = workdir
        self.t0 = time.perf_counter()
        self.trace_files: List[str] = []
        self.traced_reps = 0

    def more(self, rep: int) -> bool:
        """Start repetition ``rep``? Always the first (and in a traced run
        the first traced one); then while one more of the average length
        still fits in the run's seconds."""
        elapsed = time.perf_counter() - self.t0
        return rep < 1 + self.traced or elapsed * (rep + 1) / rep <= self.seconds

    def is_traced(self, rep: int) -> bool:
        return self.traced and rep > 0

    def spawn(self, rep: int, tag: str, role: str, *args: str) -> Child:
        trace_file = None
        if self.is_traced(rep):
            trace_file = os.path.join(self.workdir, f"trace-{rep:03d}-{tag}.jsonl")
            self.trace_files.append(trace_file)
        return self.children.spawn(trace_file, role, *args)


# ---------------------------------------------------------------------------
# paper-campaign


def paper_campaign(run: Run, out: Outcome) -> None:
    """One Table-1-shaped ledger per child: only sched, profiling and clock work."""
    rep = 0
    while run.more(rep):
        traced = run.is_traced(rep)
        child = run.spawn(rep, "campaign", "campaign", str(run.rng.randrange(2**31)))
        ready = child.event("ready", 60)
        out.setup_s.append(time.perf_counter() - child.t_launch)
        res = child.event("result", 150)
        out.unit(time.perf_counter() - child.t_launch, traced)
        child.wait(30)
        out.problems += checks.campaign(res)
        out.add_work(res["ledger_node_hours"], res["sim_s"])
        out.rss_mb.append(res["maxrss_mb"])
        out.attempted += res["jobs_started"]
        out.failed += res["counters"]["sim_failures"]
        if traced:
            run.traced_reps += 1
            out.total("core.campaign.wall_s", res["sim_s"])
        else:  # the recorder's own imports would shorten a traced child's
            out.sample("setup.import_s", ready["import_s"])
            out.sample("setup.build_s", ready["build_s"])
        rep += 1


# ---------------------------------------------------------------------------
# wm-netkv-durable

WM_ROUNDS = 10
"""Rounds per repetition: long enough for feedback to advance both
coupling versions, short enough for several repetitions per run."""

_SHARDS = re.compile(r"serving \d+ shard\(s\): (netkv://\S+)")
_RECOVERED = re.compile(r"\((\d+) key\(s\) recovered\)")


def _start_shards(run: Run, rep: int, tag: str, kvdir: str):
    shards = run.spawn(rep, tag, "cli", "netkv", "--serve", "3", "--persist", kvdir)
    url = _SHARDS.search(shards.line(lambda s: bool(_SHARDS.search(s)), 60)).group(1)
    ready_s = time.perf_counter() - shards.t_launch
    recovered = int(_RECOVERED.search(
        shards.line(lambda s: bool(_RECOVERED.search(s)), 10)).group(1))
    return shards, url + "?replication=2", ready_s, recovered


def wm_netkv_durable(run: Run, out: Outcome) -> None:
    """WM rounds over three durable shards in their own process, then a
    checkpoint, a shard restart on the same directory, and a restore."""
    rep = 0
    while run.more(rep):
        traced = run.is_traced(rep)
        seed = str(run.rng.randrange(2**31))
        kvdir = os.path.join(run.workdir, f"kv{rep:03d}")
        t_rep = time.perf_counter()
        shards, url, shards_s, _ = _start_shards(run, rep, "shards", kvdir)
        wm = run.spawn(rep, "wm", "wm", url, seed, str(WM_ROUNDS))
        ready = wm.event("ready", 60)
        out.setup_s.append(shards_s + time.perf_counter() - wm.t_launch)
        res = wm.event("result", 120)
        wm.wait(30)
        shards.stop()
        shards, url, _, recovered = _start_shards(run, rep, "shards-restart", kvdir)
        restorer = run.spawn(rep, "restore", "restore", url, seed)
        restorer.event("ready", 60)
        restored = restorer.event("result", 60)
        restorer.wait(30)
        shards.stop()
        out.unit(time.perf_counter() - t_rep, traced)

        out.problems += checks.wm(res) + checks.restore(res, restored)
        if recovered == 0:
            out.problems.append("restarted shards recovered no keys")
        out.add_work(len(res["round_s"]), sum(res["round_s"]))
        out.rss_mb.append(res["maxrss_mb"])
        c = res["counters"]
        out.attempted += (c["patches_selected"] + c["cg_spawned"] + c["frames_selected"]
                          + c["aa_spawned"] + res["store_calls"])
        out.failed += res["failed_jobs"] + res["transport"]["exhausted"]
        out.sample("datastore.checkpoint_s", res["checkpoint_s"])
        out.sample("datastore.restore_s", restored["restore_s"])
        if traced:
            run.traced_reps += 1
            for key in ("retries", "failovers", "coalesced_keys"):
                out.total(f"datastore.netkv.{key}", res["transport"][key])
        else:
            out.sample("setup.import_s", ready["import_s"])
            out.sample("setup.build_s", ready["build_s"])
            out.sample("setup.shards_ready_s", shards_s)
        rep += 1


# ---------------------------------------------------------------------------
# svc-tenants

SHARES = {"t1": 1.0, "t2": 2.0, "t4": 4.0}
SVC_ROUNDS = 6
SVC_ROUNDS_PER_S = 5.0
"""Offered load: about half the rounds per second the daemon completes
with two pool workers on a 2-core host (about 10). Fixed, so the load
does not follow the speed of the code under test."""

SCHEDULE_S = 8.0
POLL_S = 0.05
LAG_LIMIT_S = 0.25
"""A run whose generator fell further behind its schedule is invalid."""


def _schedule(rng: random.Random) -> List[tuple]:
    """(due s, tenant, rounds, seed) at evenly spaced, jittered due times."""
    gap = SVC_ROUNDS / SVC_ROUNDS_PER_S
    out, k = [], 0
    while (due := 0.1 + gap * (k + rng.uniform(-0.25, 0.25))) < SCHEDULE_S:
        out.append((max(0.0, due), rng.choice(sorted(SHARES)), SVC_ROUNDS,
                    rng.randrange(1000)))
        k += 1
    return out


class _Http:
    """One request at a time, each on its own connection (as ServiceClient)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def __call__(self, method: str, path: str, body: Optional[dict] = None):
        t = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"} if payload else {})
            resp = conn.getresponse()
            data = json.loads(resp.read() or b"{}")
        finally:
            conn.close()
        return resp.status, data, (time.perf_counter() - t) * 1e3


def _open_loop(call: _Http, schedule: List[tuple], out: Outcome, limit_s: float,
               traced: bool) -> None:
    """Submit on schedule and poll until every campaign is terminal."""
    t0, wall0 = time.perf_counter(), time.time()
    todo, active = deque(schedule), deque()
    submitted: Dict[str, int] = {}
    due_wall: Dict[str, float] = {}
    final: Dict[str, dict] = {}
    next_poll, lag = 0.0, 0.0
    while todo or active:
        now = time.perf_counter() - t0
        if now > limit_s:
            out.problems.append(f"{len(active) + len(todo)} campaign(s) unfinished "
                                f"after {limit_s:.0f} s")
            break
        if todo and todo[0][0] <= now:
            due, tenant, rounds, seed = todo.popleft()
            lag = max(lag, now - due)
            status, body, ms = call("POST", "/v1/campaigns",
                                    {"tenant": tenant, "rounds": rounds, "seed": seed})
            out.attempted += 1
            if status // 100 != 2:
                out.failed += 1
                out.problems.append(f"submit refused: {status} {body}")
                continue
            out.sample("service.http.submit_ms", ms)
            cid = body["campaign"]["id"]
            submitted[cid], due_wall[cid] = rounds, wall0 + due
            active.append(cid)
        elif active and now >= next_poll:
            cid = active[0]
            active.rotate(-1)
            status, body, ms = call("GET", f"/v1/campaigns/{cid}")
            out.attempted += 1
            out.sample("service.http.status_ms", ms)
            next_poll = now + POLL_S
            if status != 200:
                out.failed += 1
                out.problems.append(f"status of {cid}: {status} {body}")
                active.remove(cid)
            elif body["campaign"]["state"] in ("done", "failed", "cancelled"):
                final[cid] = body["campaign"]
                active.remove(cid)
        else:
            wake = min(([todo[0][0]] if todo else []) + ([next_poll] if active else []))
            time.sleep(max(0.0, min(wake - now, POLL_S)))
    problems = checks.svc(submitted, final)
    out.problems += problems
    out.attempted += len(submitted)
    out.failed += len(problems)
    if lag > LAG_LIMIT_S:
        out.problems.append(f"generator lag {lag:.3f} s > {LAG_LIMIT_S} s: run invalid")
    out.sample("service.generator_lag_max_s", lag)
    for cid, st in final.items():
        if st["state"] == "done":
            out.unit(st["finished_at"] - due_wall[cid], traced)
            out.add_work(st["rounds_done"], st["finished_at"] - st["submitted_at"])


def _share_error(tenants: List[dict]) -> float:
    """Largest gap between a tenant's share of dispatched jobs and its weight share."""
    rows = [t["share"] for t in tenants if t.get("share", {}).get("dispatched")]
    if not rows:
        return 0.0
    jobs = sum(r["dispatched"] for r in rows)
    weight = sum(r["weight"] for r in rows)
    return max(abs(r["dispatched"] / jobs - r["weight"] / weight) for r in rows)


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")


def svc_tenants(run: Run, out: Outcome) -> None:
    """An open-loop schedule of campaign submissions from three tenants
    with unequal shares against one ``repro serve`` daemon per repetition."""
    shares = [a for t, w in SHARES.items() for a in ("--share", f"{t}={w:g}")]
    rep = 0
    while run.more(rep):
        traced = run.is_traced(rep)
        daemon = run.spawn(rep, "daemon", "cli", "serve", "--port", "0",
                           "--pool-workers", str(os.cpu_count() or 1), *shares)
        host, port = _LISTEN.search(
            daemon.line(lambda s: bool(_LISTEN.search(s)), 60)).groups()
        call = _Http(host, int(port))
        while True:
            try:
                if call("GET", "/v1/ready")[0] == 200:
                    break
            except ConnectionError:
                if time.perf_counter() - daemon.t_launch > 60:
                    raise ChildError("daemon never became ready") from None
                time.sleep(0.005)
        ready_s = time.perf_counter() - daemon.t_launch
        out.setup_s.append(ready_s)
        if not traced:
            out.sample("setup.daemon_ready_s", ready_s)
            boot = next(e for e in daemon.events if e["event"] == "boot")
            out.sample("setup.import_s", boot["import_s"])
        _open_loop(call, _schedule(run.rng), out, SCHEDULE_S + 60, traced)
        run.traced_reps += traced
        out.sample("sched.shares.share_error", _share_error(call("GET", "/v1/tenants")[1]["tenants"]))
        out.rss_mb.append(_peak_rss_mb(daemon.proc.pid))
        daemon.stop()
        rep += 1


WORKLOADS = {
    "paper-campaign": paper_campaign,
    "wm-netkv-durable": wm_netkv_durable,
    "svc-tenants": svc_tenants,
}
