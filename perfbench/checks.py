"""Correctness checks on each workload's outputs.

Each check takes the result a child (or the open-loop client) reported
and returns a list of problems; an empty list means the output is right.
A run with any problem counts as failed, not as a number.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["campaign", "wm", "restore", "svc"]


def campaign(res: Dict) -> List[str]:
    """A Table-1-shaped campaign: exact ledger, capped lengths, Fig. 5 occupancy."""
    problems = []
    c = res["counters"]
    if res["node_hours"] != res["ledger_node_hours"] or c["node_hours"] != res["ledger_node_hours"]:
        problems.append(f"node-hours {res['node_hours']} != ledger {res['ledger_node_hours']}")
    if not 0 < res["cg_max_us"] <= res["cg_cap_us"]:
        problems.append(f"CG length {res['cg_max_us']} outside (0, {res['cg_cap_us']}] us")
    if not 0 < res["aa_max_ns"] <= res["aa_cap_ns"]:
        problems.append(f"AA length {res['aa_max_ns']} outside (0, {res['aa_cap_ns']}] ns")
    if res["gpu_median"] < 0.99:
        problems.append(f"median GPU occupancy {res['gpu_median']:.4f} < 0.99")
    if not c["cg_sims"] > 2.5 * c["aa_sims"]:
        problems.append(f"cg_sims {c['cg_sims']} <= 2.5 x aa_sims {c['aa_sims']}")
    return problems


def wm(res: Dict) -> List[str]:
    """WM rounds over the durable store: the pipeline counters balance."""
    problems = []
    c, rounds = res["counters"], res["rounds"]
    if c["snapshots"] != rounds:
        problems.append(f"snapshots {c['snapshots']} != rounds {rounds}")
    if c["feedback_iterations"] != 2 * rounds:
        problems.append(f"feedback_iterations {c['feedback_iterations']} != 2 x {rounds}")
    for scale in ("cg", "aa"):
        if c[f"{scale}_finished"] != c[f"{scale}_spawned"]:
            problems.append(f"{scale}_finished {c[f'{scale}_finished']} != "
                            f"{scale}_spawned {c[f'{scale}_spawned']}")
    if c["frames_seen"] != res["cg_chunks_per_job"] * c["cg_finished"]:
        problems.append(f"frames_seen {c['frames_seen']} != "
                        f"{res['cg_chunks_per_job']} x cg_finished {c['cg_finished']}")
    if res["coupling_version"] < 1 or res["ff_version"] < 1:
        problems.append(f"feedback did not advance: coupling v{res['coupling_version']}, "
                        f"force field v{res['ff_version']}")
    if res["failed_jobs"]:
        problems.append(f"{res['failed_jobs']} job(s) abandoned")
    if res["transport"]["exhausted"]:
        problems.append(f"{res['transport']['exhausted']} store call(s) exhausted retries")
    return problems


def restore(checkpointed: Dict, restored: Dict) -> List[str]:
    """A WM restored on restarted shards sees exactly the checkpointed state."""
    problems = []
    if restored["counters"] != checkpointed["counters"]:
        problems.append(f"restored counters {restored['counters']} != "
                        f"checkpointed {checkpointed['counters']}")
    if restored["checkpoint_counters"] != checkpointed["counters"]:
        problems.append("checkpoint payload differs from the counters written")
    if restored["rounds"] != checkpointed["rounds"]:
        problems.append(f"restored rounds {restored['rounds']} != {checkpointed['rounds']}")
    return problems


def svc(submitted: Dict[str, int], final: Dict[str, Dict]) -> List[str]:
    """Every submitted campaign reports ``done`` with its requested rounds."""
    problems = []
    for cid, rounds in submitted.items():
        st = final.get(cid)
        if st is None:
            problems.append(f"campaign {cid}: no final status")
        elif st["state"] != "done" or st["rounds_done"] != rounds:
            problems.append(f"campaign {cid}: {st['state']} after "
                            f"{st['rounds_done']}/{rounds} rounds")
    return problems
