"""Reachability audit: every function of the package is reached by a product
path, or has a reason to stay.

The product paths run in-process under `sys.setprofile`: `replicate` at
seed 0, the benchmark's closure_sweep config (built by
perfbench/workloads.py, loaded by path and only read), `list` and
`list --machine`, and every config operation once at its defaults and once
for each value in its `choices` and `pairs` tables.  Every `def` in
src/qstarlab, nested ones included, is listed with `ast`; a definition is
reached when the profiler sees a call of its code.  The package's
lru_caches are cleared first, so a value cached by an earlier test cannot
hide a call.

A definition that no product path calls is either documented surface, a
reference that tests compare through, or an error path; ALLOWED gives the
reason for each.  Any other unreached definition is code no verdict needs.
An ALLOWED entry that is reached after all is stale and fails too.

    python tests/test_reachability.py

prints the unreached definitions.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

import qstarlab
from qstarlab.cli import main
from qstarlab.scenarios import OPERATIONS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.realpath(qstarlab.__file__))

# "module.qualname" -> why it stays although no product path calls it.
ALLOWED: dict[str, str] = {
    "algebra.NonPositiveStateError.__init__":
        "error path: a state whose Gram matrix is not positive",
    "ccr.CCRPolynomial.__repr__": "repr of a polynomial",
    "ccr.TrigPoly.__repr__": "repr of a trigonometric polynomial",
    "ccr.CCRPolynomial.coeffs":
        "reads the coefficients back; the CCR tests compare through it",
    "ccr.TrigPoly.coeffs":
        "reads the coefficient dicts back; the CCR tests compare through it",
    "ccr._Coefficients.__eq__":
        "exact equality, through which the CCR identities are tested",
    "ccr._Coefficients.__hash__": "goes with __eq__",
    "ccr._Coefficients.__sub__":
        "difference of polynomials, used by the CCR tests",
    "forms._is_unit_shift": "check_lemma24 on a context with a unit",
    "forms.check_ips_conditions":
        "documented in the README; an acceptance test runs it",
    "forms.form_from_state":
        "documented in the README; acceptance tests build their forms with it",
    "forms.form_from_state.form": "the form form_from_state returns",
    "function_lab.GridFunction.conj": "the involution of the L^p context",
    "matrix_lab.WeightedMatrix.__array__":
        "the dense embedding that tests compare blocks against",
    "matrix_lab._members":
        "called at import, building the family tables, before any path runs",
    "matrix_lab._scaled":
        "called at import, building the family tables, before any path runs",
    "topologies._dense_seminorm":
        "a suite on a dense or complex operator, such as a CCR "
        "representation; every built-in suite is evaluated on real diagonals",
    "topologies.quasi_algebra_closure_test":
        "documented in the README; an acceptance test runs it",
}


def definitions(package: str = PACKAGE) -> dict[tuple[str, int], str]:
    """(file, first line) of every def in the package -> its dotted name.
    The first line is that of the first decorator, as in a code object."""
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[(path, line)] = name
            visit(child, path, name)

    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            path = os.path.join(package, file)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), path, file[:-3])
    return found


def _operation_runs() -> list[dict]:
    """One config entry per operation at its defaults, and one per value
    of each of its choices and per entry of its pairs tables."""
    entries = []
    for (module, operation), op in OPERATIONS.items():
        runs = [{}]
        runs += [{name: value} for name, allowed in op.choices.items()
                 for value in allowed]
        runs += [{given: key, name: value}
                 for name, (given, table) in op.pairs.items()
                 for key, values in table.items() for value in values]
        entries += [{"id": f"{module}.{operation}.{i}", "module": module,
                     "operation": operation, "parameters": params}
                    for i, params in enumerate(runs)]
    return entries


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _product_paths(work: str) -> None:
    """Run every product path once, writing under work."""
    def out(name: str) -> list[str]:
        return ["--out-dir", os.path.join(work, name)]

    assert main(out("replicate") + ["--seed", "0", "replicate"]) == 0
    argv, _ = _workloads().build("closure_sweep", 0, work)
    assert main(out("closure_sweep") + argv) == 0
    config = os.path.join(work, "operations.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"scenarios": _operation_runs()}, fh)
    assert main(out("operations") + ["--format", "json", "run", config]) == 0
    assert main(["list"]) == 0
    assert main(["list", "--machine"]) == 0


def reached() -> set[tuple[str, int]]:
    """(file, first line) of every package function the product paths call."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qstarlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            _product_paths(work)
        finally:
            sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def unreached() -> list[str]:
    """Sorted dotted names of the package's defs no product path calls."""
    hit = reached()
    return sorted(name for where, name in definitions().items()
                  if where not in hit)


def test_unreached_definitions_are_exactly_the_allowed_ones():
    missed = set(unreached())
    stray = sorted(missed - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - missed)
    assert not stray, ("definitions no product path calls; delete them or "
                       f"give the reason they stay in ALLOWED: {stray}")
    assert not stale, f"ALLOWED entries a product path reaches: {stale}"


def test_every_allowed_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_definitions_include_nested_and_decorated_defs(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "def outer():\n"
        "    def inner():\n"
        "        pass\n"
        "class K:\n"
        "    @property\n"
        "    @functools.cache\n"
        "    def prop(self):\n"
        "        pass\n")
    path = os.path.join(str(tmp_path), "mod.py")
    assert definitions(str(tmp_path)) == {
        (path, 2): "mod.outer", (path, 3): "mod.outer.inner",
        (path, 6): "mod.K.prop"}


if __name__ == "__main__":
    for name in unreached():
        print(name)
