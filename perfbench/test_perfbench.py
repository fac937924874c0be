"""Tests of the benchmark's own code.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
The last two tests run every workload for one short repetition.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
from proc import ChildError, Children  # noqa: E402
from workloads import Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- metric names and the BENCHMARK.json schema -----------------------------


def test_metric_names_and_units_are_well_formed(bench):
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]) and NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_benchmark_json_matches_catalog(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, (u, b, bound) in catalog.END_TO_END.items()]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER]
    assert 1 <= len(bench["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * (bench["run_seconds"] + 5) < 3420


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_every_metric_is_emitted_with_unit_and_direction(bench, monkeypatch, capsys,
                                                         workload, traced):
    def fake(run, out: Outcome) -> None:
        out.setup_s.append(1.0)
        out.rss_mb.append(100.0)
        out.add_work(4.0, 2.0)
        out.turnaround_s.append(3.0)
        out.attempted = 10

    monkeypatch.setitem(bench_run.WORKLOADS, workload, fake)
    monkeypatch.setattr(bench_run, "STATE", str(os.path.join(ROOT, ".perfbench", "test")))
    result = bench_run.run_workload(workload, 1, 0.0, traced, time.perf_counter() + 60)
    specs = bench["per_layer"] if traced else bench["end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    printed = capsys.readouterr().out
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert re.search(rf"{re.escape(spec['name'])}\s+\S+\s+{re.escape(spec['unit'])}\s+"
                         rf"\(n=\d+, {spec['better']} is better\)", printed), spec["name"]
    # Metrics of layers a workload never runs read 0 there.
    for m in catalog.PER_LAYER if traced else ():
        if workload not in m.workloads:
            assert result["metrics"][m.name]["value"] == 0.0


# --- the self-time reducer ---------------------------------------------------


def _row(span, parent, name, thread, t0, t1):
    return {"seq": span, "span": span, "parent": parent, "name": name,
            "stage": name.split(".")[0], "thread": thread, "t0": t0, "t1": t1,
            "dur": t1 - t0, "attrs": {}, "events": []}


def test_self_times_of_a_hand_built_span_tree():
    rows = [
        _row(1, None, "a.root", 0, 0.0, 10.0),
        _row(2, 1, "b.child", 0, 1.0, 4.0),
        _row(3, 2, "c.leaf", 0, 2.0, 3.0),
        _row(4, 1, "d.other_thread", 1, 2.0, 8.0),  # overlaps; not subtracted
        _row(5, 1, "b.child", 0, 5.0, 6.0),
    ]
    m = tracer.layer_metrics(rows)
    assert m["a.root.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert m["b.child.calls"] == 2
    assert m["b.child.self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert m["b.child.total_s"] == pytest.approx(4.0)
    assert m["c.leaf.self_s"] == pytest.approx(1.0)
    assert m["d.other_thread.self_s"] == pytest.approx(6.0)


def test_recorder_nests_spans_per_thread(tmp_path):
    rec = tracer.Recorder()
    inner = rec.span("x.inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()
        rec.count("x.hits", 2)

    rec.span("x.outer", outer_body)()
    path = str(tmp_path / "t.jsonl")
    rec.dump(path)
    rows = [json.loads(line) for line in open(path, encoding="utf-8")]
    outer = next(r for r in rows if r["name"] == "x.outer")
    assert [r["parent"] for r in rows if r["name"] == "x.inner"] == [outer["span"]] * 2
    m = tracer.layer_metrics(rows)
    assert m["x.inner.self_s"] >= 0.02
    assert m["x.outer.self_s"] == pytest.approx(outer["dur"] - m["x.inner.total_s"])
    assert json.load(open(path + ".counts.json", encoding="utf-8")) == {"x.hits": 2}


# --- correctness checks reject corrupted results ----------------------------

CAMPAIGN = {
    "ledger_node_hours": 126600.0, "node_hours": 126600.0,
    "counters": {"node_hours": 126600.0, "cg_sims": 19000, "aa_sims": 5400,
                 "sim_failures": 0},
    "cg_cap_us": 5.0, "aa_cap_ns": 65.0, "cg_max_us": 2.4, "aa_max_ns": 37.0,
    "gpu_median": 1.0,
}
WM = {
    "rounds": 10, "cg_chunks_per_job": 3, "coupling_version": 10, "ff_version": 9,
    "failed_jobs": 0, "transport": {"exhausted": 0},
    "counters": {"snapshots": 10, "feedback_iterations": 20, "cg_spawned": 20,
                 "cg_finished": 20, "aa_spawned": 9, "aa_finished": 9, "frames_seen": 60},
}


def _corrupt(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value", [
    (("node_hours",), 126599.0),
    (("counters", "node_hours"), 1.0),
    (("cg_max_us",), 5.1),
    (("aa_max_ns",), 0.0),
    (("gpu_median",), 0.98),
    (("counters", "aa_sims"), 8000),
])
def test_campaign_check_rejects_corruption(path, value):
    assert checks.campaign(CAMPAIGN) == []
    assert checks.campaign(_corrupt(CAMPAIGN, path, value))


@pytest.mark.parametrize("path,value", [
    (("counters", "snapshots"), 9),
    (("counters", "feedback_iterations"), 19),
    (("counters", "cg_finished"), 19),
    (("counters", "aa_finished"), 8),
    (("counters", "frames_seen"), 59),
    (("coupling_version",), 0),
    (("ff_version",), 0),
    (("failed_jobs",), 1),
    (("transport", "exhausted"), 2),
])
def test_wm_check_rejects_corruption(path, value):
    assert checks.wm(WM) == []
    assert checks.wm(_corrupt(WM, path, value))


def test_restore_check_rejects_changed_counters():
    restored = {"rounds": 10, "counters": dict(WM["counters"]),
                "checkpoint_counters": dict(WM["counters"])}
    assert checks.restore(WM, restored) == []
    assert checks.restore(WM, _corrupt(restored, ("counters", "snapshots"), 9))
    assert checks.restore(WM, _corrupt(restored, ("checkpoint_counters", "cg_spawned"), 1))
    assert checks.restore(WM, _corrupt(restored, ("rounds",), 9))


def test_svc_check_rejects_unfinished_campaigns():
    done = {"state": "done", "rounds_done": 6}
    assert checks.svc({"c1": 6}, {"c1": done}) == []
    assert checks.svc({"c1": 6}, {})
    assert checks.svc({"c1": 6}, {"c1": {"state": "failed", "rounds_done": 2}})
    assert checks.svc({"c1": 6}, {"c1": {"state": "done", "rounds_done": 5}})


# --- process hygiene ----------------------------------------------------------


def test_children_are_reaped_when_the_run_fails(tmp_path):
    with pytest.raises(RuntimeError):
        with Children(ROOT, str(tmp_path), time.perf_counter() + 60) as children:
            shards = children.spawn(None, "cli", "netkv", "--serve", "1")
            shards.line(lambda s: s.startswith("serving"), 30)
            raise RuntimeError("workload failed")
    assert shards.proc.poll() is not None


def test_a_dead_child_raises_instead_of_hanging(tmp_path):
    with Children(ROOT, str(tmp_path), time.perf_counter() + 60) as children:
        child = children.spawn(None, "campaign", "not-a-seed")
        t = time.perf_counter()
        with pytest.raises(ChildError, match="exited with code"):
            child.event("ready", 60)
        assert time.perf_counter() - t < 30


def test_run_without_the_program_fails_cleanly(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as src, \
                    open(tmp_path / "perfbench" / name, "wb") as dst:
                dst.write(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src:
        (tmp_path / "BENCHMARK.json").write_bytes(src.read())
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "svc-tenants",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0 and res.stdout == ""


# --- real short runs ------------------------------------------------------------

#: Layers each workload must reach in a traced run (their ``.calls`` > 0).
REACHED = {
    catalog.C: ["sched.flux.running_by_name", "sched.flux.submit", "sched.queue.cycle",
                "sched.resources.claim", "core.profiling.poll", "sched.matcher.match"],
    catalog.W: ["core.wm.round", "core.wm.task1", "sims.cg.step", "sims.aa.step",
                "sims.mapping.createsim", "sampling.fps.select", "core.feedback.iteration",
                "datastore.write", "datastore.move", "datastore.read_present"],
    catalog.S: ["core.wm.round", "service.registry.submit", "sims.cg.step",
                "datastore.namespaced", "datastore.write"],
}


def _bench(workload, trace):
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_short_run_is_correct(workload):
    result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_short_traced_run_reaches_its_layers(workload):
    metrics = _bench(workload, 1)["metrics"]
    for layer in REACHED[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    assert metrics["failed_ratio"]["value"] == 0
    if workload == catalog.C:
        selfs = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
        assert max(selfs, key=selfs.get) == "sched.flux.running_by_name.self_s"
