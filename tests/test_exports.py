"""Every public name of dgdim.core and dgdim.dg has a reader in the
program, and every module-level import is read.

A name in a package's __all__ that only its own module and the package
__init__ mention is a dead export: nothing in src/dgdim or bench reads it,
so it can go, or leave __all__ and stay a module-level name.  Tests do not
count as readers.  A module-level import that its own module never reads
is dead too.  Dead functions and methods are found at run time, by
tests/test_reach.py.
"""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "dgdim").rglob("*.py"))
# bench wraps exports by name, so its files count as readers
SOURCES = PROGRAM + sorted((ROOT / "bench").rglob("*.py"))

# the degreewise rank that the tests use as an independent oracle
TEST_ORACLES = {"field_rank"}


@pytest.mark.parametrize("package", ["dgdim.core", "dgdim.dg"])
def test_every_export_is_read_outside_its_module(package):
    pkg = importlib.import_module(package)
    texts = {path.resolve(): path.read_text(encoding="utf-8") for path in SOURCES}
    unread = []
    for name in pkg.__all__:
        home = Path(sys.modules[getattr(pkg, name).__module__].__file__).resolve()
        skip = {home, Path(pkg.__file__).resolve()}
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not any(word.search(text) for path, text in texts.items()
                   if path not in skip):
            unread.append(name)
    assert sorted(unread) == sorted(TEST_ORACLES & set(pkg.__all__))


def _annotation_names(tree):
    """Names read by the string annotations of a module ("DGRing")."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    names = set()
    for root in filter(None, roots):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_every_module_level_import_is_read():
    unread = []
    for path in PROGRAM:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= _annotation_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += ["%s: %s" % (path.name, b) for b in bound if b not in read]
    assert unread == []
