"""JSON output: representation records and the one writer of result files.
Complex numbers travel as [re, im] pairs, matrices as dense nested arrays,
so the files diff cleanly in golden-file tests."""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .gns import GNSRep

_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _FLOAT_TOKENS.get(text, text)


def _text(value, level: int) -> str:
    """The JSON text of value at nesting level `level`, as
    json.dumps(..., sort_keys=True, indent=1) writes it after numpy scalars
    and arrays become Python values and complex numbers [re, im] pairs."""
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + " " * (level + 1)
        return ("[" + inner + ("," + inner).join(
            [_text(v, level + 1) for v in value])
            + "\n" + " " * level + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = "\n" + " " * (level + 1)
        items = sorted({str(k): v for k, v in value.items()}.items())
        return ("{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _text(v, level + 1) for k, v in items])
            + "\n" + " " * level + "}")
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, np.floating):
        return _float_text(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _text([float(value.real), float(value.imag)], level)
    if isinstance(value, np.ndarray):
        return _text(value.tolist(), level)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def json_text(data) -> str:
    """Sorted, one-space-indented JSON of data and a closing newline:
    numpy scalars and arrays become Python values, complex numbers
    [re, im] pairs, tuples lists, and dict keys str(key)."""
    return _text(data, 0) + "\n"


def complex_to_nested(arr) -> list:
    """Dense nested lists with [re, im] leaves."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


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
    path, then move it into place, so a reader never sees a partial file.
    The file gets the mode a plain open() would give it, 0o666 less the
    umask; tempfile.mkstemp would make it 0o600."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    text = json_text(data)
    atomic_write(path, lambda fh: fh.write(text))
