"""Every public name of dgdim.core and dgdim.dg has a reader in the
program, and every module-level import is read.

A name in a package's __all__ that only its own module and the package
__init__ mention is a dead export: nothing in src/dgdim or bench reads it,
so it can go, or leave __all__ and stay a module-level name.  Tests do not
count as readers.  A module-level import that its own module never reads
is dead too, and so is an attribute that a class assigns on self and
nothing in src/dgdim or bench reads.  Dead functions and methods are found
at run time, by tests/test_reach.py.
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


# class.attribute -> why it stays although nothing in src/ or bench/ reads it
UNREAD_ATTRIBUTES = {
    **{"RegSeqReport." + name: "built only by the bench-held "
       "is_regular_sequence, ROADMAP item 7"
       for name in ("regular", "length", "first_failure", "base_inf",
                    "koszul_infs")},
    "DualizingReport.shift": "read by tests",
    "DualizingReport.normalized_inf": "read by tests",
    "ScenarioError.line": "the position of a JSON syntax error",
    "ScenarioError.column": "the position of a JSON syntax error",
}


class _AttributeScan(ast.NodeVisitor):
    """The attributes that classes assign on self, and the reads of each
    attribute name by receiving class.

    The receiver of a read is the enclosing class for self, the annotated
    class for a parameter annotated with one of the known classes, and
    unknown (None) otherwise; an unknown receiver counts for every class.
    __repr__ bodies are skipped, and a read inside an assignment to, or a
    keyword argument of, the same name is a copy, not a read."""

    def __init__(self, classes):
        self.classes = classes
        self.cls = None
        self.types = {}
        self.copying = frozenset()
        self.assigned = set()
        self.reads = {}

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        if node.name == "__repr__":
            return
        outer = self.types
        self.types = dict(outer)
        for arg in node.args.args + node.args.kwonlyargs:
            ann = arg.annotation
            name = getattr(ann, "id", getattr(ann, "value", None))
            if name in self.classes:
                self.types[arg.arg] = name
        self.generic_visit(node)
        self.types = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _copy(self, names, node):
        outer, self.copying = self.copying, self.copying | set(names)
        self.visit(node)
        self.copying = outer

    def _assign(self, targets, value):
        names = []
        for target in targets:
            if isinstance(target, ast.Attribute):
                names.append(target.attr)
                if getattr(target.value, "id", None) == "self" and self.cls:
                    self.assigned.add("%s.%s" % (self.cls, target.attr))
            self.visit(target)
        if value is not None:
            self._copy(names, value)

    def visit_Assign(self, node):
        self._assign(node.targets, node.value)

    def visit_AnnAssign(self, node):
        self._assign([node.target], node.value)

    def visit_AugAssign(self, node):
        self._assign([node.target], node.value)

    def visit_keyword(self, node):
        self._copy([node.arg] if node.arg else [], node.value)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.copying:
            name = getattr(node.value, "id", None)
            owner = self.cls if name == "self" else self.types.get(name)
            self.reads.setdefault(node.attr, set()).add(owner)
        self.generic_visit(node)


def test_every_attribute_set_on_self_is_read():
    """An attribute that a class of src/dgdim assigns on self and nothing in
    src/dgdim or bench reads is dead data, unless UNREAD_ATTRIBUTES names
    it with the reason it stays.  Tests do not count as readers."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    classes = {node.name for path in PROGRAM for node in ast.walk(trees[path])
               if isinstance(node, ast.ClassDef)}
    program = _AttributeScan(classes)
    readers = _AttributeScan(classes)
    for path, tree in trees.items():
        (program if path in PROGRAM else readers).visit(tree)
    reads = program.reads
    for name, owners in readers.reads.items():
        reads.setdefault(name, set()).update(owners)
    unread = sorted(
        qualified for qualified in program.assigned
        if not reads.get(qualified.split(".")[1], set())
        & {None, qualified.split(".")[0]}
    )
    assert unread == sorted(UNREAD_ATTRIBUTES)


# the tower entry points, which outside the DG layer only proj_dim's module
# and the Ext-search oracle call
TOWER_ENTRIES = {"semifree_resolution", "certify_termination"}
TOWER_READERS = {"dimensions.py", "corpus.py"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_main_bound_windows_a_tower():
    """Outside src/dgdim/dg, only dimensions.py (proj_dim and the Bass
    numbers) and the Ext-search oracle corpus.py name semifree_resolution
    or certify_termination, so every other minimal free complex is read
    through proj_dim and no caller grows a window of its own."""
    home = ROOT / "src" / "dgdim" / "dg"
    towers = sorted(
        "%s: %s" % (path.relative_to(ROOT), name)
        for path in PROGRAM
        if home not in path.parents and path.name not in TOWER_READERS
        for name in _names(ast.parse(path.read_text(encoding="utf-8")))
        if name in TOWER_ENTRIES
    )
    assert towers == []


# the regular-element model's attributes, which only the DG layer reads
MODEL_ATTRIBUTES = {"base_map", "regular_model"}


def test_the_model_is_read_only_by_the_dg_layer():
    """Outside src/dgdim/dg, the program reaches the regular-element model
    only through DGModule.over_model: no other file reads a DG-ring's
    base_map or calls its regular_model."""
    home = ROOT / "src" / "dgdim" / "dg"
    readers = sorted(
        "%s: %s" % (path.relative_to(ROOT), node.attr)
        for path in SOURCES if home not in path.parents
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in MODEL_ATTRIBUTES
    )
    assert readers == []
