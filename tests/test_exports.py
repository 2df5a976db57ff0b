"""Every public name of dgdim.core and dgdim.dg, and every function of the
program, has a reader in the program.

A name in a package's __all__ that only its own module and the package
__init__ mention is a dead export: nothing in src/dgdim or bench reads it,
so it can go, or leave __all__ and stay a module-level name.  A function or
method whose name shows up on no line of src/dgdim or bench but its own
def line is dead code.  Tests do not count as readers.  A module-level import that its own
module never reads is dead too.
"""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dgdim").rglob("*.py")) + sorted(
    (ROOT / "bench").rglob("*.py")
)

# the degreewise rank that the tests use as an independent oracle
TEST_ORACLES = {"field_rank"}

# functions only the tests call: the degreewise linear-algebra oracles and
# the structure checks, and fpd_example_pair, whose caller is still to come
TEST_ONLY_FUNCTIONS = {
    "matrix_in_degree",
    "kernel_dim_in_degree",
    "min_entry_degree_is_positive",
    "check_axioms",
    "fpd_example_pair",
}

DEF_LINE = re.compile(r"^\s*def\s+(\w+)\s*\(")


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


def test_every_function_is_named_off_its_def_line():
    program = (ROOT / "src" / "dgdim").resolve()
    defined = set()
    words = set()
    for path in SOURCES:
        for line in path.read_text(encoding="utf-8").splitlines():
            m = DEF_LINE.match(line)
            if m is None:
                words.update(re.findall(r"\w+", line))
            elif program in path.resolve().parents:
                defined.add(m.group(1))
    unread = {
        name for name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in words
    }
    assert sorted(unread) == sorted(TEST_ONLY_FUNCTIONS)


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
    for path in SOURCES:
        if path.name == "__init__.py" or (ROOT / "src") not in path.parents:
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
