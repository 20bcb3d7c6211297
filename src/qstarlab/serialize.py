"""JSON output: representation records and the one writer of result files.
Complex numbers travel as [re, im] pairs, matrices as dense nested arrays,
so the files diff cleanly in golden-file tests."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

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
