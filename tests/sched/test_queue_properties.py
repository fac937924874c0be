"""Property-based tests for queue-manager ordering invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.matcher import MatchPolicy
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop

job_strategy = st.tuples(
    st.integers(1, 6),      # ncores
    st.integers(0, 2),      # ngpus
    st.floats(10.0, 500.0),  # duration
)


@settings(max_examples=25, deadline=None)
@given(jobs=st.lists(job_strategy, min_size=1, max_size=30))
def test_property_fcfs_start_order_follows_submission(jobs):
    """Without backfilling, same-feasibility jobs start in submit order:
    job i never starts strictly after job j>i when both eventually run
    and i was runnable whenever j was (single-node GPU jobs are
    interchangeable here, so start times must be non-decreasing in
    submission order among identical requests)."""
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop, policy=MatchPolicy.FIRST_MATCH)
    records = [
        flux.submit(JobSpec(name="j", ncores=c, ngpus=g, duration=d))
        for c, g, d in jobs
    ]
    loop.run_until(100_000.0)
    # Everything eventually completes (requests always fit one node).
    assert all(r.state is JobState.COMPLETED for r in records)
    # Identical requests start in submission order.
    by_shape = {}
    for r in records:
        by_shape.setdefault((r.spec.ncores, r.spec.ngpus), []).append(r.start_time)
    for starts in by_shape.values():
        assert starts == sorted(starts)


@settings(max_examples=20, deadline=None)
@given(
    njobs=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_property_no_resource_leaks(njobs, seed):
    """After every job completes, the graph is exactly as free as new."""
    rng = np.random.default_rng(seed)
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop)
    for _ in range(njobs):
        flux.submit(JobSpec(name="x", ncores=int(rng.integers(1, 5)),
                            ngpus=int(rng.integers(0, 3)),
                            duration=float(rng.uniform(10, 300))))
    loop.run_until(1_000_000.0)
    assert flux.graph.used_cores == 0
    assert flux.graph.used_gpus == 0
    counts = flux.counts()
    assert counts["completed"] == njobs


# --- the per-name running count ----------------------------------------

NAMES = ("cg-sim", "aa-sim", "createsim", "backmap")

COUNT_CONFIGS = {
    "first-match": dict(policy=MatchPolicy.FIRST_MATCH),
    "backfill": dict(policy=MatchPolicy.BACKFILL),
    "gang": dict(policy=MatchPolicy.GANG),
    "preempt": dict(policy=MatchPolicy.LOW_ID_FIRST, preemption=True),
}


def recount(flux):
    """The reference: count names over the running set from scratch."""
    out = {}
    for record in flux.queue.running.values():
        out[record.spec.name] = out.get(record.spec.name, 0) + 1
    return out


def assert_counts_match(flux):
    counts = flux.running_by_name()
    assert counts == recount(flux)
    assert all(n > 0 for n in counts.values())


def random_spec(rng, gang_id=None):
    return JobSpec(
        name=NAMES[int(rng.integers(len(NAMES)))],
        ncores=int(rng.integers(1, 45)),
        ngpus=int(rng.integers(0, 7)),
        nnodes=int(rng.integers(1, 3)),
        exclusive=bool(rng.random() < 0.1),
        duration=float(rng.uniform(20.0, 400.0)) if rng.random() < 0.9 else None,
        priority=int(rng.integers(0, 4)),
        gang_id=gang_id,
    )


def drive_flux(config, seed, steps=300):
    """Drive one FluxInstance through random submits, cycles, cancels,
    node failures and completions, checking the count after each step."""
    rng = np.random.default_rng(seed)
    loop = EventLoop()
    flux = FluxInstance(summit_like(4, partition_size=2), loop,
                        cycle_interval=5.0, **COUNT_CONFIGS[config])
    gangs = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.35:
            if config == "gang" and rng.random() < 0.5:
                gangs += 1
                size = int(rng.integers(2, 5))
                for _ in range(size):
                    flux.submit(random_spec(rng, gang_id=f"g{gangs}"))
            else:
                flux.submit(random_spec(rng))
        elif op < 0.7:
            loop.run_until(loop.now + float(rng.uniform(1.0, 60.0)))
        elif op < 0.85:
            live = [jid for jid, rec in flux.jobs.items() if not rec.state.is_terminal]
            if live:
                flux.cancel(int(rng.choice(live)))
        elif op < 0.93:
            flux.fail_node(int(rng.integers(len(flux.graph))))
        else:
            for node_id in flux.graph.drained_nodes():
                flux.graph.undrain(node_id)
        assert_counts_match(flux)
    # Wind down: completions drain the machine, then cancel whatever
    # can never finish on its own (no duration, or an unplaceable gang).
    for node_id in flux.graph.drained_nodes():
        flux.graph.undrain(node_id)
    for record in list(flux.jobs.values()):
        if record.spec.duration is None and not record.state.is_terminal:
            flux.cancel(record.job_id)
    loop.run_until(loop.now + 100_000.0)
    assert_counts_match(flux)
    for record in list(flux.jobs.values()):
        flux.cancel(record.job_id)
        assert_counts_match(flux)
    return flux


@pytest.mark.parametrize("config", sorted(COUNT_CONFIGS))
@pytest.mark.parametrize("seed", range(4))
def test_running_counts_equal_a_recount_after_every_step(config, seed):
    flux = drive_flux(config, seed)
    stats = flux.matcher.stats
    # Every transition kind the count rides on was exercised.
    assert stats.matched > 0
    cancelled = [r for r in flux.jobs.values() if r.state is JobState.CANCELLED]
    assert any(r.start_time is None for r in cancelled)
    assert any(r.start_time is not None for r in cancelled)
    assert any(r.state is JobState.FAILED for r in flux.jobs.values())
    assert any(r.state is JobState.COMPLETED for r in flux.jobs.values())
    if config == "gang":
        assert flux.queue.gangs_placed > 0
        assert stats.gang_rollbacks > 0
    if config == "backfill":
        assert flux.queue.backfilled > 0
    if config == "preempt":
        assert flux.queue.preempted > 0
    assert flux.running_by_name() == {}


def test_running_by_name_returns_a_copy():
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop)
    flux.submit(JobSpec(name="cg-sim", ncores=4, ngpus=1, duration=100.0))
    flux.submit(JobSpec(name="aa-sim", ncores=4, ngpus=1, duration=100.0))
    loop.run_until(10.0)
    counts = flux.running_by_name()
    assert counts == {"cg-sim": 1, "aa-sim": 1}
    counts["cg-sim"] = 99
    counts["ghost"] = 1
    del counts["aa-sim"]
    assert flux.running_by_name() == {"cg-sim": 1, "aa-sim": 1}
