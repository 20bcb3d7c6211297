"""The atomic writer and the JSON text of result files.

The JSON writer's bytes are pinned two ways: against the reference
json.dumps(plain(data), sort_keys=True, indent=1) + newline on generated
data, and byte for byte against `run --format json --seed 0` output
recorded in tests/data/closure_json_seed0 (the seven GNS representations
of the closure sweep, all nine of its extensions by closure with their
embedded tables, so every topology's seminorm values, lemma24, an Lp
probe, an unboundedness witness and a submultiplicativity probe).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import plain
from qstarlab.cli import main
from qstarlab.serialize import atomic_write, dump_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data",
                          "closure_json_seed0")


def _failing_writer(fh):
    fh.write("partial contents")
    raise RuntimeError("writer failed")


def test_atomic_write_failure_keeps_the_target_and_leaves_no_temp_file(
        tmp_path):
    target = tmp_path / "result.json"
    target.write_bytes(b'{"old": true}\n')
    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), _failing_writer)
    assert target.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]


def test_atomic_write_failure_creates_no_new_file(tmp_path):
    target = tmp_path / "sub" / "table.csv"
    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), _failing_writer)
    assert list((tmp_path / "sub").iterdir()) == []


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    # Under each umask the result file gets the mode that open() gives a
    # new file in the same directory (mkstemp's 0o600 differs from it
    # under all three).
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o027, 0o002):
            os.umask(umask)
            target, plain_file = (tmp_path / f"result-{umask:o}.json",
                                  tmp_path / f"plain-{umask:o}.json")
            atomic_write(str(target), lambda fh: fh.write("{}\n"))
            with open(plain_file, "w") as fh:
                fh.write("{}\n")
            mode = os.stat(target).st_mode & 0o777
            assert mode == os.stat(plain_file).st_mode & 0o777, oct(mode)
            assert mode == 0o666 & ~umask
    finally:
        os.umask(old)


# ---------------------------------------------------------------------------
# The JSON writer against the reference encoder

_SPECIAL_FLOATS = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    2.2250738585072014e-308 / 3, 1e16, -1e16, 1.5e16, 0.1])
_FLOATS = st.one_of(_SPECIAL_FLOATS, st.floats())
_ATOMS = st.one_of(
    _FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=8),
    st.sampled_from(["\x00\n\t\"\\", "é中", "\U0001f600\x7f"]))
_NUMPY_LEAVES = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.builds(complex, _FLOATS, _FLOATS),
    st.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
    arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
           array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)))
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                  st.none())
# Lists of lists of atoms, ragged, possibly with an empty row or a mix of
# atom kinds, like the table rows and [re, im] pairs of result files.
_ROWS = st.lists(st.lists(_ATOMS, max_size=3), max_size=4)
_PAIRS = st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=4)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.lists(inner, max_size=3).map(tuple),
                                st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=20)


_DATA = _nested(st.one_of(_ATOMS, _NUMPY_LEAVES, _ROWS, _PAIRS))


def _reference_bytes(data) -> bytes:
    return (json.dumps(plain(data), sort_keys=True, indent=1)
            + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DATA)
def test_dump_json_bytes_match_the_reference_encoder(tmp_path, data):
    path = tmp_path / "out.json"
    dump_json(data, str(path))
    assert path.read_bytes() == _reference_bytes(data)


@pytest.mark.parametrize("data", [
    {1: "int", "1": "str"},
    {"1": "str", 1: "int"},
    {True: [], None: {}, 0: (), "": [[]]},
    [[1.0, 2.0], [3, "x"], []],
    [[1.0, 2.0], (3.0, 4.0)],
    [[float("nan"), float("-inf")], [-0.0, 5e-324]],
    {"rows": [[1, 2.5, True, None, "a"]], "pairs": [[0.5, -0.5]] * 3},
    np.zeros((2, 0, 3)),
    [np.float32("nan"), np.float32("-inf"), np.float16(0.1)],
    {"name": np.str_("str subclass"), "kind": np.array(["a", "b"])},
])
def test_dump_json_edge_cases_match_the_reference_encoder(tmp_path, data):
    path = tmp_path / "out.json"
    dump_json(data, str(path))
    assert path.read_bytes() == _reference_bytes(data)


def test_dump_json_rejects_an_unknown_leaf_and_writes_nothing(tmp_path):
    data = {"a": [1.0, {"b": object()}]}
    with pytest.raises(TypeError):
        _reference_bytes(data)
    with pytest.raises(TypeError, match="object"):
        dump_json(data, str(tmp_path / "out.json"))
    assert list(tmp_path.iterdir()) == []


def test_closure_json_outputs_match_recorded_bytes(tmp_path):
    scenarios = [
        {"id": "ext-strongstar-step", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"topology": "strongstar", "target": "step"}},
        {"id": "probe-lp-tent-p1.5", "module": "forms",
         "operation": "closability_probe",
         "parameters": {"context": "lp", "family": "tent", "p": 1.5,
                        "height_exp": 0.25}},
        {"id": "lemma24", "module": "forms", "operation": "check_lemma24",
         "parameters": {}},
        {"id": "gns-m3-trace", "module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "m3", "state": "trace"}},
        {"id": "gns-z4-character", "module": "gns",
         "operation": "gns_construct",
         "parameters": {"algebra": "z4", "state": "character"}},
        {"id": "gns-m2-trace", "module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "m2", "state": "trace"}},
        {"id": "gns-m2-corner", "module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "m2", "state": "corner"}},
        {"id": "gns-m3-corner", "module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "m3", "state": "corner"}},
        {"id": "gns-scalar-trace", "module": "gns",
         "operation": "gns_construct",
         "parameters": {"algebra": "scalar", "state": "trace"}},
        {"id": "gns-z4-trace", "module": "gns", "operation": "gns_construct",
         "parameters": {"algebra": "z4", "state": "trace"}},
        {"id": "witness-p1.5", "module": "function-lab",
         "operation": "unboundedness_witness", "parameters": {"p": 1.5}},
        {"id": "submult-k1", "module": "ccr-lab",
         "operation": "submultiplicativity_probe", "parameters": {"k": 1}},
        {"id": "ext-strongstar-power", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"topology": "strongstar", "target": "power"}},
        {"id": "ext-strongstar-plateau", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"topology": "strongstar", "target": "power",
                        "variant": "plateau"}},
    ]
    scenarios += [
        {"id": f"ext-{topology}-{target}", "module": "op-topologies",
         "operation": "extend_by_closure",
         "parameters": {"topology": topology, "target": target}}
        for topology in ("uniform", "strong", "weak")
        for target in ("power", "step")]
    config = tmp_path / "closure.json"
    config.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--seed", "0", "--format", "json", "--out-dir", str(out),
                 "run", str(config)]) == 0
    names = sorted(os.listdir(GOLDEN_DIR))
    assert names == sorted(f"{s['id']}.json" for s in scenarios)
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name
