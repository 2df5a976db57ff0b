"""Every function of the program runs under a fixed set of command lines.

One fresh interpreter installs a profile hook before it imports dgdim,
runs the WORKLOADS through cli.main and reports the code objects it
entered.  A function or method of src/dgdim that none of them enters is
dead code unless ALLOWED names it, with the reason it stays.  Functions
are matched by file and first line (a decorated def starts at its first
decorator); __repr__ is exempt, since only a debugger or a failing assert
reads it.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgdim"
FIXTURE = ROOT / "tests" / "fixtures" / "reach" / "all-kinds.json"
SHIPPED = ROOT / "scenarios" / "koszul-desk.json"

# (argv, exit code): verify over Q; a scenario declaring every DG-ring
# kind, module kind and query op, one query of which fails on purpose,
# over both fields; the shipped scenario; explain, listing and running;
# a usage error and a missing file
WORKLOADS = [
    (["verify", "--seed", "0", "--field", "Q", "--format", "json"], 0),
    (["run", str(FIXTURE), "--format", "json"], 1),
    (["run", str(FIXTURE), "--field", "Fp:32003", "--format", "text",
      "--window=-2:2"], 1),
    (["run", str(SHIPPED)], 0),
    (["explain"], 0),
    (["explain", "koszul-projdim-equals-length", "--format", "json"], 0),
    (["verify", "--seed", "x"], 3),
    (["run", str(ROOT / "scenarios" / "no-such-scenario.json")], 3),
]

# class-qualified name -> why it stays although no workload enters it
ALLOWED = {
    # oracles the tests check the fast paths against (degreewise linear
    # algebra, the structure checks, the full cohomology scan)
    "field_rank": "test oracle: degreewise rank",
    "GradedMatrix.matrix_in_degree": "test oracle: degreewise linear algebra",
    "GradedFreeModule.basis_in_degree": "test oracle: matrix_in_degree's basis",
    "GradedMatrix.min_entry_degree_is_positive": "test oracle: minimality",
    "DGModule.cohomology_support": "test oracle: the full cohomology scan",
    "DGRing.check_axioms": "test oracle: the DG-ring axioms",
    "AElem.mul": "test oracle: the products check_axioms checks",
    "AElem.d": "test oracle: the differentials check_axioms checks",
    "AElem.add": "test oracle: the sums check_axioms checks",
    "fpd_example_pair": "the paper's attaining family; a verify check is to "
                        "read it",
    # bench/tracer.py wraps these by name, so they go with the next change
    # to the benchmark
    "is_regular_sequence": "wrapped by bench/tracer.py",
    "module_sequence_regular": "wrapped by bench/tracer.py",
    "RegSeqReport.__init__": "built by is_regular_sequence",
    "gorenstein_projdim_bound_check": "wrapped by bench/tracer.py",
    "ffd_witness": "wrapped by bench/tracer.py",
    "cohomology_data": "wrapped by bench/tracer.py",
}

CHILD = r"""
import json, os, sys
entered = set()
sys.setprofile(lambda frame, event, arg, add=entered.add: add(frame.f_code))
from dgdim import cli
codes = []
with open(os.devnull, "w") as sink:
    sys.stdout = sink
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
sys.stdout = sys.__stdout__
print(json.dumps({"codes": codes, "entered": sorted(
    {(c.co_filename, c.co_firstlineno) for c in entered})}))
"""


def defined_functions():
    """(path, first lines, class-qualified name) of every def under src/dgdim;
    a def nested in a function is named outer.inner."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {child.lineno}
                if child.decorator_list:
                    lines.add(child.decorator_list[0].lineno)
                out.append((path, lines, prefix + child.name))
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return out


def run_workloads():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([a for a, _ in WORKLOADS])],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_function_is_entered_by_a_workload():
    got = run_workloads()
    assert got["codes"] == [code for _, code in WORKLOADS]
    entered = {(path, line) for path, line in got["entered"]}
    never = {}
    for path, lines, name in defined_functions():
        if not any((path, line) in entered for line in lines):
            never.setdefault(name, []).append(
                "%s:%d" % (os.path.relpath(path, ROOT), min(lines)))
    dead = sorted("%s %s" % (where, name) for name, wheres in never.items()
                  if name not in ALLOWED and not name.endswith(".__repr__")
                  for where in wheres)
    assert dead == [], "never entered:\n" + "\n".join(dead)
    # every allow-list entry names a function that exists and is not entered
    assert sorted(set(ALLOWED) - set(never)) == []


# The scenario tables hold their entries as lambdas as well as defs, and
# the profile hook above only matches defs, so an entry that no workload
# runs would stay hidden; the fixture covers every entry instead.


def test_the_fixture_declares_every_kind_and_queries_every_op():
    from dgdim import scenario

    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for section in ("dg_rings", "modules"):
        kinds = {decl["kind"] for decl in doc[section].values()}
        assert kinds == set(scenario._KINDS[section]), section
    assert {q["op"] for q in doc["queries"]} == set(scenario._OPS)


def test_every_key_an_entry_lists_has_a_type():
    """Every key a kind or op lists has a JSON type in _KEY_TYPES, and
    every typed key is one that an entry lists, that a declaration or query
    always carries (kind, op) or that names a section of the document."""
    from dgdim import scenario

    tables = [*scenario._KINDS.values(), scenario._OPS]
    listed = {key for table in tables for entry in table.values()
              for key in entry[0]}
    assert sorted(listed - set(scenario._KEY_TYPES)) == []
    always = {"kind", "op", "options", "queries", *scenario._SECTIONS}
    assert sorted(set(scenario._KEY_TYPES) - listed - always) == []
