"""Extension bench: partitioned vs flat matcher from 4k to 40k nodes.

§5.2's first-match policy fixed the "too many choices" traversal on a
*vacant* machine, but the paper's campaign also runs the machine nearly
full — and there the flat greedy scan degrades to O(nodes) per call,
because the rotating cursor is usually far from the few free nodes.
The partitioned graph keeps per-partition free-resource watermarks, so
the scan dismisses whole partitions with one summary check each.

This sweep probes a nearly-full machine (all but 8 nodes claimed) at
4k/10k/20k/40k nodes for every (policy × partitioned) variant and
records per-call wall time, visit counts, and partition skips to
``BENCH_matcher.json``. Three guards make it a regression test:

- partitioned first-match per-call wall time at 40k stays within 3× of
  4k (the flat scan is ~10× — it scans 10× the nodes);
- the visit-count ratio is deterministic: partitioned stays flat-ish
  across a 10× machine-size jump while the flat scan grows ~linearly;
- partitioned low-id-first per-call wall time stays within 1.5× of the
  flat scan at every size. Its smaller visit count once hid a 2×
  wall-time regression here, so this bound is on wall time.
"""

import pytest
from conftest import record_json, report

from repro.sched.emulator import make_nearly_full_graph, run_matcher_scale_probe
from repro.sched.matcher import MatchPolicy

NODE_COUNTS = [4000, 10_000, 20_000, 40_000]
HOLES = 8
PROBES = 200
REPEATS = 3  # best-of, to shrug off scheduler noise on shared runners
LOW_ID_WALL_RATIO_BOUND = 1.5

VARIANTS = [
    (MatchPolicy.LOW_ID_FIRST, False),
    (MatchPolicy.LOW_ID_FIRST, True),
    (MatchPolicy.FIRST_MATCH, False),
    (MatchPolicy.FIRST_MATCH, True),
]


def variant_key(policy, partitioned):
    return f"{policy.value}/{'partitioned' if partitioned else 'flat'}"


@pytest.mark.matcher_scale
def test_matcher_scale_sweep(benchmark):
    def sweep():
        results = {}
        for nnodes in NODE_COUNTS:
            # One shared backdrop per size: every probe run restores the
            # graph exactly, so all variants see identical occupancy.
            graph = make_nearly_full_graph(nnodes, holes=HOLES)
            for policy, partitioned in VARIANTS:
                best = None
                for _ in range(REPEATS):
                    res = run_matcher_scale_probe(
                        nnodes, policy, partitioned,
                        probes=PROBES, holes=HOLES, graph=graph,
                    )
                    if best is None or res.mean_call_seconds < best.mean_call_seconds:
                        best = res
                results[(nnodes, policy, partitioned)] = best
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"{'nodes':>7} {'variant':>26} {'us/call':>9} "
             f"{'visits/call':>12} {'part.skips':>11}"]
    payload = {"holes": HOLES, "probes": PROBES, "repeats": REPEATS, "sweep": {}}
    for nnodes in NODE_COUNTS:
        row = {}
        for policy, partitioned in VARIANTS:
            r = results[(nnodes, policy, partitioned)]
            lines.append(
                f"{nnodes:>7,} {variant_key(policy, partitioned):>26} "
                f"{r.mean_call_seconds * 1e6:>9.1f} {r.visits_per_call:>12.0f} "
                f"{r.partitions_skipped:>11,}"
            )
            row[variant_key(policy, partitioned)] = {
                "mean_call_us": r.mean_call_seconds * 1e6,
                "visits_per_call": r.visits_per_call,
                "partitions_skipped": r.partitions_skipped,
            }
        payload["sweep"][str(nnodes)] = row

    fm_part_small = results[(NODE_COUNTS[0], MatchPolicy.FIRST_MATCH, True)]
    fm_part_large = results[(NODE_COUNTS[-1], MatchPolicy.FIRST_MATCH, True)]
    fm_flat_small = results[(NODE_COUNTS[0], MatchPolicy.FIRST_MATCH, False)]
    fm_flat_large = results[(NODE_COUNTS[-1], MatchPolicy.FIRST_MATCH, False)]
    wall_ratio_part = fm_part_large.mean_call_seconds / fm_part_small.mean_call_seconds
    wall_ratio_flat = fm_flat_large.mean_call_seconds / fm_flat_small.mean_call_seconds
    visit_ratio_part = fm_part_large.visits_per_call / fm_part_small.visits_per_call
    visit_ratio_flat = fm_flat_large.visits_per_call / fm_flat_small.visits_per_call
    low_id_ratios = {
        str(nnodes): results[(nnodes, MatchPolicy.LOW_ID_FIRST, True)].mean_call_seconds
        / results[(nnodes, MatchPolicy.LOW_ID_FIRST, False)].mean_call_seconds
        for nnodes in NODE_COUNTS
    }
    payload["guard"] = {
        "low_id_wall_ratio_partitioned_over_flat": low_id_ratios,
        "low_id_wall_ratio_bound": LOW_ID_WALL_RATIO_BOUND,
        "node_span": [NODE_COUNTS[0], NODE_COUNTS[-1]],
        "first_match_wall_ratio_partitioned": wall_ratio_part,
        "first_match_wall_ratio_flat": wall_ratio_flat,
        "first_match_visit_ratio_partitioned": visit_ratio_part,
        "first_match_visit_ratio_flat": visit_ratio_flat,
        "wall_ratio_bound": 3.0,
    }
    lines.append(
        f"first-match {NODE_COUNTS[0]//1000}k->{NODE_COUNTS[-1]//1000}k: "
        f"wall x{wall_ratio_part:.2f} partitioned vs x{wall_ratio_flat:.2f} flat; "
        f"visits x{visit_ratio_part:.2f} vs x{visit_ratio_flat:.2f} "
        f"(machine grew x{NODE_COUNTS[-1]/NODE_COUNTS[0]:.0f})"
    )
    lines.append(
        "low-id-first partitioned/flat wall: "
        + ", ".join(f"{int(n) // 1000}k x{r:.2f}" for n, r in low_id_ratios.items())
    )
    report("ext_matcher_scale", lines)
    record_json("BENCH_matcher.json", "matcher_scale_sweep", payload)

    # Regression guard: partitioned first-match per-call wall time must
    # stay within 3x across the 10x machine-size jump.
    assert wall_ratio_part <= 3.0, (
        f"partitioned first-match degraded {wall_ratio_part:.2f}x from "
        f"{NODE_COUNTS[0]} to {NODE_COUNTS[-1]} nodes (bound: 3x)"
    )
    # The default matcher (low-id-first, partitioned) must not pay wall
    # time for its smaller visit count.
    for nnodes, ratio in low_id_ratios.items():
        assert ratio <= LOW_ID_WALL_RATIO_BOUND, (
            f"partitioned low-id-first is {ratio:.2f}x the flat scan's "
            f"per-call wall time at {nnodes} nodes "
            f"(bound: {LOW_ID_WALL_RATIO_BOUND}x)"
        )
    # Deterministic sublinearity: visit counts, unlike wall time, have
    # no noise. The flat scan's per-call visits grow ~linearly with the
    # machine (10x nodes -> ~10x visits); the partitioned scan's must
    # stay essentially flat.
    assert visit_ratio_flat > 5.0
    assert visit_ratio_part < 2.0
    assert visit_ratio_part < 0.3 * visit_ratio_flat
    # The watermark index is doing the work: at 40k the partitioned
    # scan skipped partitions wholesale.
    assert fm_part_large.partitions_skipped > 0


@pytest.mark.matcher_scale
def test_exhaustive_policy_also_benefits(benchmark):
    """Low-id-first gains too: only hole-bearing partitions are examined."""
    nnodes = NODE_COUNTS[-1]

    def probe():
        graph = make_nearly_full_graph(nnodes, holes=HOLES)
        part = run_matcher_scale_probe(
            nnodes, MatchPolicy.LOW_ID_FIRST, True, probes=50, graph=graph)
        flat = run_matcher_scale_probe(
            nnodes, MatchPolicy.LOW_ID_FIRST, False, probes=50, graph=graph)
        return part, flat

    part, flat = benchmark.pedantic(probe, rounds=1, iterations=1)
    report("ext_matcher_scale_lowid", [
        f"{nnodes:,} nodes, low-id-first: "
        f"partitioned {part.visits_per_call:,.0f} visits/call vs "
        f"flat {flat.visits_per_call:,.0f}",
    ])
    # Flat exhaustive charges every node every call; partitioned only
    # the hole-bearing partitions plus one per skipped partition.
    assert part.visits_per_call < flat.visits_per_call / 10
