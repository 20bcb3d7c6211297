"""The benchmark's span names still name what its tracer can wrap.

perfbench/tracer.py wraps the public plain functions (inspect.isfunction)
of each qstarlab module, and the methods it lists in METHODS.  A span in
perfbench/spec.py whose function is replaced by another kind of callable,
such as an lru_cache wrapper, is never wrapped and records no call, which
fails a traced benchmark run.  These checks catch that without one.
"""

import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    """A perfbench module by path, without importing the perfbench dir."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = _load("spec")
TRACER = _load("tracer")


def _resolve(module, qualname: str):
    value = module
    for part in qualname.split("."):
        value = getattr(value, part)
    return value


def test_every_span_is_a_plain_function_of_its_module():
    for short, functions in SPEC.SPANS.items():
        assert short in TRACER.MODULES, short
        module = importlib.import_module(f"qstarlab.{short}")
        methods = TRACER.METHODS.get(short, ())
        for qualname in functions:
            value = _resolve(module, qualname)
            assert inspect.isfunction(value), f"{short}.{qualname}"
            if "." in qualname:
                assert qualname in methods, f"{short}.{qualname}"
            else:
                assert value.__module__ == module.__name__, \
                    f"{short}.{qualname} is defined in {value.__module__}"


def test_every_traced_method_exists():
    for short, qualnames in TRACER.METHODS.items():
        module = importlib.import_module(f"qstarlab.{short}")
        for qualname in qualnames:
            assert inspect.isfunction(_resolve(module, qualname)), \
                f"{short}.{qualname}"
