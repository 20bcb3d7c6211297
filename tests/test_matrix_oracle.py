"""Behaviour oracle for the matrix scenarios of the closure sweep.

tests/data/matrix_seed0 holds the `<id>.json` files that `run --format json
--seed 0` writes for the six matrix-trace closability probes, the six
replays and the lemma24 check, recorded from the dense matrix code.  The
support-block code must give the same booleans, integers and strings, and
floats equal to 1e-12 relative or 1e-13 absolute.  The absolute term covers
pure round-off cells: on spreading_block the form diagonal is exactly 1,
so its recentered residuals and flat-series slopes are sums of rounding
errors, and their order changes when the sums skip the zeros outside a
block.
"""

import json
import math
import os

from qstarlab.cli import main

ORACLE_DIR = os.path.join(os.path.dirname(__file__), "data", "matrix_seed0")
REL_TOL = 1e-12
ABS_TOL = 1e-13
FAMILIES = ("scaled_corner", "rank_one_decay", "shrinking_block",
            "decaying_column", "moving_bump", "spreading_block")


def _config() -> dict:
    scenarios = []
    for family in FAMILIES:
        scenarios.append({"id": f"probe-trace-{family}", "module": "forms",
                          "operation": "closability_probe",
                          "parameters": {"context": "matrix-trace",
                                         "family": family}})
        scenarios.append({"id": f"replay-{family}", "module": "matrix-lab",
                          "operation": "matrix_closability_replay",
                          "parameters": {"family": family}})
    scenarios.append({"id": "lemma24", "module": "forms",
                      "operation": "check_lemma24", "parameters": {}})
    return {"scenarios": scenarios}


def _assert_same(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_matrix_scenarios_seed0_match_recorded_output(tmp_path):
    config = tmp_path / "matrix.json"
    config.write_text(json.dumps(_config()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--seed", "0", "--format", "json", "--out-dir", str(out),
                 "run", str(config)]) == 0
    names = sorted(os.listdir(ORACLE_DIR))
    assert len(names) == 13
    assert sorted(os.listdir(out)) == names
    for name in names:
        _assert_same(_load(str(out / name)),
                     _load(os.path.join(ORACLE_DIR, name)), name)
