"""The generated workloads and their recorded verdicts.

    python3 -m pytest perfbench

`oracle.json` holds the verdict of every generated scenario as the package
produced it when the benchmark was defined.  These tests run each workload
in-process for a few seeds and require the same verdicts, so a change that
alters a verdict is caught here as well as by the benchmark's own checks.
"""

import json
import os
import sys

import pytest

import spec
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qstarlab import cli  # noqa: E402
from qstarlab.scenarios import parse_config  # noqa: E402

with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as fh:
    ORACLE = json.load(fh)

WORKLOADS = tuple(spec.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_ids_unique(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.build(workload, 7, str(tmp_path / "a"))
    again = workloads.build(workload, 7, str(tmp_path / "b"))
    assert first[1] == again[1]
    assert len(set(first[1])) == len(first[1])
    assert set(first[1]) == set(ORACLE[workload])
    if workload != "replicate":
        configs = [json.loads((tmp_path / d / f"{workload}.json").read_text())
                   for d in ("a", "b")]
        assert configs[0] == configs[1]
        parse_config(configs[0])  # every parameter is one the runner accepts


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_verdicts_match_oracle(workload, seed, tmp_path):
    (tmp_path / "in").mkdir()
    argv, ids = workloads.build(workload, seed, str(tmp_path / "in"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), *argv]) == 0
    for sid in ids:
        payload = json.loads((out / f"{sid}.json").read_text())
        assert workloads.verdict(payload) == ORACLE[workload][sid], sid
