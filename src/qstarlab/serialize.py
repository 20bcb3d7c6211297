"""Structured-text (JSON-compatible) formats for algebras, states and
representation data.  Complex numbers travel as [re, im] pairs, matrices as
dense nested arrays, so the files diff cleanly in golden-file tests."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .algebra import StarAlgebra, State
from .gns import GNSRep


def _plain(value):
    """Recursively convert numpy scalars and arrays to JSON types; complex
    numbers become [re, im] pairs."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


def complex_to_nested(arr) -> list:
    """Dense nested lists with [re, im] leaves."""
    return _plain(np.asarray(arr, dtype=complex))


def nested_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected [re, im] leaves")
    return arr[..., 0] + 1j * arr[..., 1]


def algebra_to_dict(algebra: StarAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "structure": complex_to_nested(algebra.structure),
        "involution": complex_to_nested(algebra.involution),
        "unit": None if algebra.unit is None else complex_to_nested(algebra.unit),
        "name": algebra.name,
    }


def algebra_from_dict(data: dict) -> StarAlgebra:
    unit = data.get("unit")
    return StarAlgebra(
        structure=nested_to_complex(data["structure"]),
        involution=nested_to_complex(data["involution"]),
        unit=None if unit is None else nested_to_complex(unit),
        name=data.get("name", ""))


def state_to_dict(state: State) -> dict:
    return {"functional": complex_to_nested(state.values), "name": state.name}


def state_from_dict(data: dict) -> State:
    return State(values=nested_to_complex(data["functional"]),
                 name=data.get("name", ""))


def gnsrep_to_dict(rep: GNSRep) -> dict:
    return {
        "algebra": rep.algebra.name,
        "state": rep.state.name,
        "rank": rep.rank,
        "gram": complex_to_nested(rep.gram),
        "quotient_basis": complex_to_nested(rep.quotient_basis),
        "projection": complex_to_nested(rep.projection),
        "rep_matrices": complex_to_nested(rep.rep_matrices),
        "cyclic_vector": complex_to_nested(rep.cyclic_vector),
    }


def gnsrep_from_dict(data: dict, algebra: StarAlgebra, state: State) -> GNSRep:
    """Rebuild a representation record against its algebra and state (the
    file stores only their names)."""
    return GNSRep(
        algebra=algebra, state=state,
        gram=nested_to_complex(data["gram"]),
        quotient_basis=nested_to_complex(data["quotient_basis"]),
        projection=nested_to_complex(data["projection"]),
        rep_matrices=nested_to_complex(data["rep_matrices"]),
        cyclic_vector=nested_to_complex(data["cyclic_vector"]),
        rank=int(data["rank"]))


def atomic_write(path, writer) -> None:
    """Create path's directory, let writer(fh) fill a temporary file next to
    path, then move it into place, so a reader never sees a partial file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(data, path) -> None:
    """Sorted, indented JSON of data (numpy values and complex numbers
    converted), written atomically."""
    def writer(fh):
        json.dump(_plain(data), fh, sort_keys=True, indent=1)
        fh.write("\n")

    atomic_write(path, writer)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
