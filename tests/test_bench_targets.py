"""Every callable that the traced benchmark patches must still exist.

bench/tracer.py wraps dgdim's entry points by module, class and attribute
name.  A rename in the program would silently drop a span or a count from
the traced runs, so each name it lists is resolved here with getattr.  The
tracer file is only loaded, never installed.
"""
import importlib
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """The tracer module, executed from its source (no bytecode is cached
    next to it)."""
    tracer = types.ModuleType("dgdim_bench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec")
    exec(code, tracer.__dict__)
    return tracer


def test_traced_functions_resolve():
    for modname, fname, _, _ in load_tracer().FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), fname)), fname


def test_traced_methods_resolve():
    for modname, cls, meth, _, _ in load_tracer().METHODS:
        klass = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(klass, meth)), (cls, meth)


def test_counted_callables_resolve():
    for modname, cls, name, _, _ in load_tracer().COUNTED:
        owner = importlib.import_module(modname)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, name)), (cls, name)


def test_field_operations_resolve():
    tracer = load_tracer()
    scalars = importlib.import_module("dgdim.core.scalars")
    for cls in tracer.FIELD_CLASSES:
        klass = getattr(scalars, cls)
        for op in tracer.FIELD_OPS:
            assert callable(getattr(klass, op)), (cls, op)
