"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and both
prints the series and appends it to ``benchmarks/results/<name>.txt``
so the numbers survive pytest's output capture. EXPERIMENTS.md records
the paper-vs-measured comparison for each.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable

import pytest

from repro.core.campaign import CampaignConfig, CampaignSimulator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "multi_server: bench spins up several live NetKV servers at once; "
        "set REPRO_SKIP_MULTI_SERVER=1 to skip on constrained runners",
    )
    config.addinivalue_line(
        "markers",
        "service: bench runs a live control-plane daemon over HTTP; "
        "set REPRO_SKIP_SERVICE=1 to skip on constrained runners",
    )
    config.addinivalue_line(
        "markers",
        "async_transport: bench targets the asyncio NetKV transport "
        "(connection sweeps, coalescing throughput); set "
        "REPRO_SKIP_ASYNC=1 to skip on constrained runners",
    )
    config.addinivalue_line(
        "markers",
        "persist: bench measures durable-shard overhead (WAL fsync, "
        "snapshots, migration); set REPRO_SKIP_PERSIST=1 to skip on "
        "constrained runners",
    )
    config.addinivalue_line(
        "markers",
        "matcher_scale: bench sweeps 4k-40k-node resource graphs "
        "(partitioned vs flat matcher); set REPRO_SKIP_MATCHER_SCALE=1 "
        "to skip on small CI runners",
    )


def pytest_collection_modifyitems(config, items):
    gates = [("REPRO_SKIP_MULTI_SERVER", "multi_server"),
             ("REPRO_SKIP_SERVICE", "service"),
             ("REPRO_SKIP_ASYNC", "async_transport"),
             ("REPRO_SKIP_PERSIST", "persist"),
             ("REPRO_SKIP_MATCHER_SCALE", "matcher_scale")]
    for env, marker in gates:
        if not os.environ.get(env):
            continue
        skip = pytest.mark.skip(reason=f"{env} is set")
        for item in items:
            if item.get_closest_marker(marker):
                item.add_marker(skip)


def report(name: str, lines: Iterable[str]) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(f"\n[{name}]\n{text}")
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def record_json(filename: str, key: str, payload: Dict[str, Any]) -> None:
    """Merge one benchmark's machine-readable results into a repo-root
    JSON ledger (e.g. ``BENCH_sampler.json``) under ``key``.

    Merge-on-write so independent benchmarks (run in any order, or one
    at a time) never clobber each other's sections.
    """
    path = os.path.join(REPO_ROOT, filename)
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, OSError):
            data = {}
    data[key] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="session")
def campaign_result():
    """The full paper-ledger campaign, simulated once per bench session.

    Takes about 16 s of wall time on a 2-core host for 600,600 virtual
    node-hours; Table 1 and Figs. 3-5 all read from this one run.
    """
    sim = CampaignSimulator(CampaignConfig(seed=2021))
    return sim.run()
