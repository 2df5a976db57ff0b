"""Every public name of dgdim.core and dgdim.dg, and every function of the
program, has a reader in the program.

A name in a package's __all__ that only its own module and the package
__init__ mention is a dead export: nothing in src/dgdim or bench reads it,
so it can go, or leave __all__ and stay a module-level name.  A function or
method that no name or attribute of src/dgdim outside its own body reads,
and that no string of bench names, is dead code.  Tests do not count as
readers.  A module-level import that its own module never reads is dead
too.
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

# functions that nothing in src/dgdim reads, on purpose
UNREAD_BY_DESIGN = {
    # the oracles the tests check the fast paths against: degreewise linear
    # algebra, the structure checks, and the full cohomology scan that the
    # early-exit inf_h/sup_h are compared with
    "matrix_in_degree",
    "kernel_dim_in_degree",
    "min_entry_degree_is_positive",
    "field_rank",
    "check_axioms",
    "cohomology_support",
    # the paper's example family, whose caller is still to come
    "fpd_example_pair",
    # cli._Parser's override of the hook that argparse calls on a usage error
    "error",
}


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


def _names_read(node, inside=frozenset()):
    """Identifiers that the Name and Attribute loads under node read, except
    a function's own name inside its def (a recursive call is no reader)."""
    out = set()
    for child in ast.iter_child_nodes(node):
        here = inside
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            here = inside | {child.name}
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            out.add(child.attr)
        out |= _names_read(child, here)
    return out - inside


def test_every_function_is_named_off_its_def_line():
    """bench names the functions it wraps in strings, so a string constant
    of bench counts as a reader; the names that only bench reads are entry
    points that no workload runs yet."""
    defined, read, bench_strings = set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if (ROOT / "src") in path.parents:
            defined |= {n.name for n in ast.walk(tree)
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (n.name.startswith("__") and n.name.endswith("__"))}
            read |= _names_read(tree)
        else:
            bench_strings |= {n.value for n in ast.walk(tree)
                              if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unread = defined - read - bench_strings
    assert sorted(unread - UNREAD_BY_DESIGN) == []
    # the allow-list names only functions that exist and that nothing reads
    assert sorted(UNREAD_BY_DESIGN - (defined - read)) == []


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
