"""Option audit: every defaulted parameter of the package is set somewhere.

The package is parsed with `ast`.  For each public function and method
(and each `__init__`, and each defaulted dataclass field, which is a
constructor parameter) the audit lists the parameters with a default that
no call in `src/` or `tests/` sets, by keyword or by position.  Calls are
matched by the called name alone, so a call of another function with the
same name counts as setting the parameter: the audit can miss an unused
knob, never invent one.  A call with `*args` or `**kwargs` sets every
parameter it could reach, and `partial(f, ...)` is a call of `f`.

A parameter that no call sets is a value the program always takes, so it
should be a literal or a module constant.  The few that stay have a
reason in ALLOWED.

    python tests/test_option_audit.py [ROOT]

prints the unset parameters and the number of settable values of ROOT.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# "module.qualname.param" -> why it keeps its default although no call in
# src/ or tests/ sets it.  Empty: every default left is set somewhere.
ALLOWED: dict[str, str] = {}


def _modules(root: str) -> dict[str, ast.Module]:
    pkg = os.path.join(root, "src", "qstarlab")
    return {name[:-3]: ast.parse(open(os.path.join(pkg, name),
                                      encoding="utf-8").read())
            for name in sorted(os.listdir(pkg)) if name.endswith(".py")}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", "")) == "dataclass":
            return True
    return False


def _field_has_default(node: ast.AnnAssign) -> bool | None:
    """True for a defaulted init field, False for a required one, None for
    a field outside __init__ (init=False) or a ClassVar."""
    if "ClassVar" in ast.unparse(node.annotation):
        return None
    value = node.value
    if value is None:
        return False
    if (isinstance(value, ast.Call)
            and getattr(value.func, "id", "") == "field"):
        kws = {kw.arg: kw.value for kw in value.keywords}
        init = kws.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in kws or "default_factory" in kws
    return True


class Signature:
    """The parameters a call by `name` binds: `positional` in order (the
    leading self already dropped) and `defaulted`, the ones with a default,
    keyword-only ones included."""

    def __init__(self, key: str, name: str, positional: list, defaulted: set):
        self.key, self.name = key, name
        self.positional = positional
        self.defaulted = defaulted


def _function_signature(key: str, name: str, fn: ast.FunctionDef,
                        bound: bool) -> Signature:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    n_defaults = len(args.defaults)
    defaulted = set(positional[len(positional) - n_defaults:]
                    if n_defaults else [])
    if bound and positional:
        positional = positional[1:]
    keyword_only = {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None}
    return Signature(key, name, positional, defaulted | keyword_only)


def signatures(root: str = ROOT) -> list[Signature]:
    """Every signature with at least one defaulted parameter."""
    out = []
    for mod, tree in _modules(root).items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append(_function_signature(f"{mod}.{node.name}",
                                               node.name, node, False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if _is_dataclass(node):
                positional, defaulted = [], set()
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        has = _field_has_default(item)
                        if has is not None:
                            positional.append(item.target.id)
                            if has:
                                defaulted.add(item.target.id)
                out.append(Signature(f"{mod}.{node.name}", node.name,
                                     positional, defaulted))
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    call_name = node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    call_name = item.name
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in item.decorator_list)
                out.append(_function_signature(
                    f"{mod}.{node.name}.{item.name}", call_name, item,
                    not static))
    return [s for s in out if s.defaulted]


def _calls(root: str):
    """(called name, positional count or None for *args, keyword names or
    None for **kwargs) for every call in src/ and tests/."""
    files = []
    for top in ("src", "tests"):
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith(".py")]
    for path in sorted(files):
        tree = ast.parse(open(path, encoding="utf-8").read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, list(node.args)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "partial" and args:
                func, args = args[0], args[1:]
                name = getattr(func, "id", getattr(func, "attr", None))
            if name is None:
                continue
            n_pos = (None if any(isinstance(a, ast.Starred) for a in args)
                     else len(args))
            kws = {kw.arg for kw in node.keywords}
            yield name, n_pos, (None if None in kws else kws)


def unset_parameters(root: str = ROOT) -> list[str]:
    """Sorted "module.qualname.param" of every defaulted parameter that no
    call sets."""
    sigs = signatures(root)
    by_name: dict[str, list[Signature]] = {}
    for sig in sigs:
        by_name.setdefault(sig.name, []).append(sig)
    set_params = {sig.key: set() for sig in sigs}
    for name, n_pos, kws in _calls(root):
        for sig in by_name.get(name, ()):
            hit = set_params[sig.key]
            if n_pos is None or kws is None:
                hit |= sig.defaulted
                continue
            hit |= set(sig.positional[:n_pos]) & sig.defaulted
            hit |= kws & sig.defaulted
    return sorted(f"{sig.key}.{param}" for sig in sigs
                  for param in sig.defaulted - set_params[sig.key])


def settable_values(root: str = ROOT) -> int:
    """Defaulted parameters of the package plus the CLI options whose value
    the CLI reads (an accepted but ignored option changes nothing)."""
    cli = _modules(root)["cli"]
    read = {node.attr for node in ast.walk(cli)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", "") == "args"}
    flags = {str(a.value)[2:].replace("-", "_") for node in ast.walk(cli)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", "") == "add_argument"
             for a in node.args
             if isinstance(a, ast.Constant) and str(a.value).startswith("--")}
    return sum(len(s.defaulted) for s in signatures(root)) + len(flags & read)


def test_no_unset_parameters_outside_allow_list():
    unset = unset_parameters()
    stray = [key for key in unset if key not in ALLOWED]
    assert not stray, ("defaulted parameters that no call in src/ or tests/ "
                       f"sets; make them constants or allow-list them: {stray}")


def test_allow_list_is_current():
    unset = set(unset_parameters())
    stale = [key for key in ALLOWED if key not in unset]
    assert not stale, f"allow-listed parameters that are now set: {stale}"


def test_audit_finds_exactly_the_unset_defaults(tmp_path):
    pkg = tmp_path / "src" / "qstarlab"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "cli.py").write_text(
        "def main(argv=None):\n"
        "    parser.add_argument('--used', default=1)\n"
        "    parser.add_argument('--ignored', default=1)\n"
        "    return args.used\n")
    (pkg / "lib.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(a=1, b=2):\n    pass\n"
        "def h(a=1):\n    pass\n"
        "def _private(a=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=1):\n        pass\n"
        "    def m(self, y=1, z=2):\n        pass\n"
        "@dataclass\n"
        "class D:\n"
        "    req: int\n"
        "    opt: int = 0\n"
        "    made: list = field(default_factory=list)\n"
        "    hidden: int = field(init=False, default=0)\n")
    (tmp_path / "tests" / "test_x.py").write_text(
        "f(0, 5, d=6)\n"
        "partial(g, 1)\n"
        "h(**opts)\n"
        "K().m(1)\n"
        "D(1, made=[])\n")
    root = str(tmp_path)
    assert unset_parameters(root) == [
        "cli.main.argv", "lib.D.opt", "lib.K.__init__.x", "lib.K.m.z",
        "lib.f.c", "lib.f.e", "lib.g.b"]
    # 13 defaulted parameters and fields, plus the one option cli reads.
    assert settable_values(root) == 14


if __name__ == "__main__":
    where = sys.argv[1] if len(sys.argv) > 1 else ROOT
    for key in unset_parameters(where):
        print(key)
    print(f"settable values: {settable_values(where)}")
