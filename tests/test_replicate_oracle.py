"""Behaviour oracle: `qstarlab replicate` at seeds 0 and 3 against its
recorded output.

tests/data/replicate_seed<N> holds every file one replicate run at that
seed writes (the seven `<id>.json` verdicts and their CSV tables).  A rerun
must write the same files with the same booleans, integers and strings, and
floats equal to 1e-12 relative.  The files named by BYTE_EXACT must also
equal the recorded ones byte for byte: their numbers come from quadrature
sums, matrix sums, seminorm suites and exact CCR arithmetic whose rounding
is pinned, for any BLAS thread count (forms.chunked_dot adds every long
dot in fixed chunks).  All 26 files are byte-exact; the tolerance check
runs first so that a drift names the cell that moved.
"""

import csv
import fnmatch
import json
import math
import os

from qstarlab.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
REL_TOL = 1e-12
BYTE_EXACT = ("ex-2.6-1*", "ex-2.6-2*", "ex-2.6-3*",
              "ex-3.2-1*", "ex-3.2-2*", "ex-3.8-1*", "ex-3.8-2*")


def _cell(text: str):
    """A CSV cell as int, float or str."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), \
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
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _check_replicate(seed: int, out_dir) -> None:
    oracle_dir = os.path.join(DATA_DIR, f"replicate_seed{seed}")
    assert main(["--seed", str(seed), "--out-dir", str(out_dir),
                 "replicate"]) == 0
    names = sorted(os.listdir(oracle_dir))
    assert sorted(os.listdir(out_dir)) == names
    for name in names:
        _assert_same(_load(str(out_dir / name)),
                     _load(os.path.join(oracle_dir, name)), name)
    exact = [name for name in names
             if any(fnmatch.fnmatchcase(name, p) for p in BYTE_EXACT)]
    assert len(exact) == 26, exact
    for name in exact:
        with open(out_dir / name, "rb") as got, \
                open(os.path.join(oracle_dir, name), "rb") as want:
            assert got.read() == want.read(), f"{name} differs in bytes"


def test_replicate_seed0_matches_recorded_output(tmp_path):
    _check_replicate(0, tmp_path)


def test_replicate_seed3_matches_recorded_output(tmp_path):
    _check_replicate(3, tmp_path)
