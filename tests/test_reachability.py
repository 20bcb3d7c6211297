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

    python tests/test_reachability.py --lines

runs the same paths under `sys.settrace` instead and prints, per module,
each statement of a called definition that none of them executes, with
its line and the definition around it: the branches no product path
takes.  It only reports; no test asserts on it.
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
    "forms.ScaledFamily.generate":
        "builds a member of a scaled family, which only the limit of a "
        "converged closure run on one needs; the scaled-family tests build "
        "the members they compare the closed form against through it",
    "forms._is_unit_shift": "check_lemma24 on a context with a unit",
    "forms.check_ips_conditions":
        "documented in the README; an acceptance test runs it",
    "forms.form_from_state":
        "documented in the README; acceptance tests build their forms with it",
    "forms.form_from_state.form": "the form form_from_state returns",
    "function_lab.GridFunction.conj": "the involution of the L^p context",
    "matrix_lab.WeightedMatrix.__array__":
        "the dense embedding that tests compare blocks against",
    "matrix_lab.WeightedMatrix.__rmul__":
        "scalar * block, through which ScaledFamily.generate builds a "
        "member of a matrix family",
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


def _run_hooked(set_hook, get_hook, hook) -> None:
    """Clear the package's lru_caches, then run every product path with
    hook installed by set_hook (sys.setprofile or sys.settrace)."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qstarlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    previous = get_hook()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        set_hook(hook)
        try:
            _product_paths(work)
        finally:
            set_hook(previous)


def reached() -> set[tuple[str, int]]:
    """(file, first line) of every package function the product paths call."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _run_hooked(sys.setprofile, sys.getprofile, hook)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def unreached() -> list[str]:
    """Sorted dotted names of the package's defs no product path calls."""
    hit = reached()
    return sorted(name for where, name in definitions().items()
                  if where not in hit)


def executed() -> tuple[set, set]:
    """(file, first line) of every package code object the product paths
    call, and (file, line) of every line of the package they execute."""
    calls, lines, real = set(), set(), {}

    def line_hook(frame, event, arg):
        if event == "line":
            lines.add((real[frame.f_code.co_filename], frame.f_lineno))
        return line_hook

    def call_hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in real:
            real[code.co_filename] = os.path.realpath(code.co_filename)
        path = real[code.co_filename]
        if os.path.dirname(path) != PACKAGE:
            return None
        calls.add((path, code.co_firstlineno))
        return line_hook

    _run_hooked(sys.settrace, sys.gettrace, call_hook)
    return calls, lines


def _head(node) -> range:
    """The lines of a statement up to its first nested block: all of a
    simple statement, the header (with decorators) of a compound one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    blocks = [block[0].lineno for block in
              (getattr(node, name, None) for name in
               ("body", "handlers", "orelse", "finalbody")) if block]
    last = min(blocks) - 1 if blocks else node.end_lineno
    return range(first, max(last, node.lineno) + 1)


def _code_lines(code) -> set[int]:
    """Every line some instruction of code, or of a code object nested in
    it, belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def missed_statements(called: set, lines: set,
                      package: str = PACKAGE) -> dict[str, list]:
    """Per module file, (line, dotted name of its def, source line) of each
    statement with code inside a called def that no line of `lines`
    covers; a def nested in a called one is a statement of it."""
    names = definitions(package)
    missed = {}
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(package, file)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        has_code = _code_lines(compile(source, path, "exec"))
        text = source.splitlines()
        found = []

        def visit(node, owner: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if owner is not None and isinstance(
                        child, (ast.stmt, ast.excepthandler)):
                    head = _head(child)
                    if (has_code.intersection(head)
                            and not any((path, k) in lines for k in head)):
                        found.append((child.lineno, owner,
                                      text[child.lineno - 1].strip()))
                inner = owner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = _head(child).start
                    inner = (names[(path, first)]
                             if (path, first) in called else None)
                elif isinstance(child, ast.ClassDef):
                    inner = None
                visit(child, inner)

        visit(tree, None)
        if found:
            missed[file[:-3]] = sorted(found)
    return missed


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


def test_missed_statements_lists_untaken_statements_of_called_defs(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x):\n"
        "    \"\"\"doc\"\"\"\n"
        "    if x:\n"
        "        return 1\n"
        "    y = (\n"
        "        2)\n"
        "    return y\n"
        "def g():\n"
        "    return 3\n")
    path = os.path.join(str(tmp_path), "mod.py")
    # f(True) ran lines 3 and 4; g was never called
    assert missed_statements({(path, 1)}, {(path, 3), (path, 4)},
                             str(tmp_path)) == {
        "mod": [(5, "mod.f", "y = ("), (7, "mod.f", "return y")]}


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        for module, found in missed_statements(*executed()).items():
            print(f"{module}:")
            for line, owner, text in found:
                print(f"  {line:4d}  {owner}: {text}")
    else:
        for name in unreached():
            print(name)
