"""Workload generator: the CLI argv and config of one pass, from a seed.

The seed feeds the CLI's `--seed`, which draws the random polynomials,
test vectors and samples of the scenarios.  Configs are otherwise fixed:
parameters and scenario order do not depend on the seed, so the work of a
pass does not either, and every verdict has a recorded expectation
(`oracle.json`).  A seeded order was tried and dropped: with `--jobs 2` the
order decides which scenarios share the two cores, and it moved the pass
time of closure_sweep by 11% from seed to seed.  Every scenario id is
unique, because the runner writes `<id>.json` and silently overwrites a
duplicate.
"""

from __future__ import annotations

import json
import os

MATRIX_FAMILIES = ("scaled_corner", "rank_one_decay", "shrinking_block",
                   "decaying_column", "moving_bump", "spreading_block")
GNS_PAIRS = (("m2", "trace"), ("m2", "corner"), ("m3", "trace"),
             ("m3", "corner"), ("scalar", "trace"), ("z4", "trace"),
             ("z4", "character"))
LP_TENTS = ((1.0, 0.5), (1.5, 0.25))

REPLICATE_IDS = ("ex-2.6-1", "ex-2.6-2", "ex-2.6-3", "ex-3.2-1", "ex-3.2-2",
                 "ex-3.8-1", "ex-3.8-2")


def _scenario(sid: str, module: str, operation: str, **parameters) -> dict:
    return {"id": sid, "module": module, "operation": operation,
            "parameters": parameters}


def closure_sweep_scenarios() -> list[dict]:
    scenarios = []
    for topology in ("uniform", "strong", "strongstar", "weak"):
        for target in ("power", "step"):
            scenarios.append(_scenario(
                f"ext-{topology}-{target}", "op-topologies",
                "extend_by_closure", topology=topology, target=target))
    scenarios.append(_scenario("ext-strongstar-plateau", "op-topologies",
                               "extend_by_closure", topology="strongstar",
                               target="power", variant="plateau"))
    for family in MATRIX_FAMILIES:
        scenarios.append(_scenario(f"probe-trace-{family}", "forms",
                                   "closability_probe", context="matrix-trace",
                                   family=family))
        scenarios.append(_scenario(f"replay-{family}", "matrix-lab",
                                   "matrix_closability_replay", family=family))
    for p, height_exp in LP_TENTS:
        scenarios.append(_scenario(f"probe-lp-tent-p{p:g}", "forms",
                                   "closability_probe", context="lp",
                                   family="tent", p=p, height_exp=height_exp))
    scenarios.append(_scenario("lemma24", "forms", "check_lemma24"))
    for algebra, state in GNS_PAIRS:
        scenarios.append(_scenario(f"gns-{algebra}-{state}", "gns",
                                   "gns_construct", algebra=algebra,
                                   state=state))
    return scenarios


def build(workload: str, seed: int, work_dir: str) -> tuple[list[str], list[str]]:
    """Write the pass inputs under work_dir; return the CLI argv (without
    `--out-dir`) and the scenario ids the pass must produce."""
    if workload == "replicate":
        return (["--seed", str(seed), "--jobs", "1", "--format", "csv",
                 "replicate"], list(REPLICATE_IDS))
    if workload != "closure_sweep":
        raise ValueError(f"unknown workload {workload!r}")
    scenarios = closure_sweep_scenarios()
    ids = [s["id"] for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{workload}: duplicate scenario ids")
    config_path = os.path.join(work_dir, f"{workload}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"scenarios": scenarios}, fh, indent=1)
    return (["--seed", str(seed), "--jobs", "2", "--format", "json", "run",
             config_path], ids)


def verdict(payload: dict) -> dict:
    """The verdict of one `<id>.json`: `passed` plus every bool, int, str,
    null and list-of-str leaf of `details`, keyed by dotted path.  Floats
    are measurements, not verdicts, and are left out."""
    out = {"passed": payload["passed"]}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}", item)
        elif value is None or isinstance(value, (bool, int, str)):
            out[prefix] = value
        elif isinstance(value, list) and all(isinstance(v, str) for v in value):
            out[prefix] = value

    walk("details", payload["details"])
    return out
