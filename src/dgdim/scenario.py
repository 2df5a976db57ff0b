"""Scenario files: JSON declarations of rings, DG-rings, modules and queries.

A scenario is validated and built up front, in declaration order, so a bad
differential or an undeclared name is rejected before any query runs; query
execution then turns each entry of the query list into one check result.
Each declaration kind and query op is one table entry that lists the keys
it reads (_KINDS, _OPS), so any other key is bad input.
"""
import json
import os
from typing import Dict, List, Optional, Set, Tuple

from .core import GradedRing, make_graded_ring
from .dg import (
    build_koszul_dg,
    build_ring_dg,
    build_split_trivial_extension,
    build_trivial_extension,
    cone_dg,
    direct_sum_dg,
    factor_residue_module,
    free_dg_module,
    h0_cyclic_dg_module,
    koszul_dg_module,
    multiplication_map,
    per_factor,
    product_koszul_module,
    residue_dg_module,
    shift_dg,
    twist_dg,
    DGGen,
    DGModule,
    ProductDGModule,
    ProductDGRing,
)
from .dimensions import (
    flat_dim,
    inj_dim,
    proj_dim,
    sequential_depth,
)
from .finitistic import (
    bass_witness_recipe,
    fpd_bounds,
    hochschild_map,
    hochschild_table,
    hochschild_vanishing_check,
    small_finitistic_dims,
)
from .report import (
    FAIL,
    INDETERMINATE,
    PASS,
    CheckResult,
    VerificationReport,
)

SCHEMA = "dgdim-scenario/1"

_DEFAULT_OPTIONS = {
    "field": "Q",
    "window": [-8, 8],
}

class ScenarioError(Exception):
    """Input-stage failure; carries line/column when the JSON itself is bad."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class Scenario:
    def __init__(
        self,
        label: str,
        raw: dict,
        options: dict,
        rings: Optional[Dict[str, GradedRing]] = None,
        dg_rings: Optional[dict] = None,
        modules: Optional[dict] = None,
        queries: Optional[List[dict]] = None,
    ):
        self.label = label
        self.raw = raw
        self.options = options
        self.rings = {} if rings is None else rings
        self.dg_rings = {} if dg_rings is None else dg_rings
        self.modules = {} if modules is None else modules
        self.queries = [] if queries is None else queries


def _check_options(opts: dict) -> dict:
    merged = dict(_DEFAULT_OPTIONS)
    for k, v in opts.items():
        if k not in merged:
            raise ScenarioError("unknown option %r" % k)
        merged[k] = v
    _typed(merged["field"], str, "field", "options")
    w = merged["window"]
    # type-strict, as _typed is: a JSON boolean is not a degree
    if (not isinstance(w, (list, tuple)) or len(w) != 2
            or not all(type(x) is int for x in w) or w[0] > w[1]
            or w[1] - w[0] > 64):
        raise ScenarioError("window must be [lo, hi] with lo <= hi, span <= 64")
    merged["window"] = list(w)
    return merged


# the JSON type of every key a declaration, query or the document has
_KEY_TYPES = {
    "options": dict, "rings": dict, "dg_rings": dict, "modules": dict,
    "queries": list, "differential": dict,
    "variables": list, "relations": list, "elements": list, "factors": list,
    "generators": list,
    "kind": str, "op": str, "base": str, "tail": str, "ring": str, "of": str,
    "and": str, "module": str, "source": str, "target": str, "element": str,
    "shift": int, "twist": int, "by": int, "index": int, "n": int,
}
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer"}
_REQUIRED = object()


def _typed(x: object, want: type, key: str, what: str):
    """x, when its JSON type is want; type-strict, so a boolean is not an
    integer and a float such as 1.5 is not one either."""
    if type(x) is not want:
        raise ScenarioError(
            "%s: %s must be %s, not %r" % (what, key, _TYPE_NAMES[want], x)
        )
    return x


def _need(decl: dict, key: str, what: str, default: object = _REQUIRED):
    """decl[key], of the JSON type _KEY_TYPES gives the key; a missing key
    is bad input unless it has a default."""
    if key not in decl:
        if default is _REQUIRED:
            raise ScenarioError("%s is missing %r" % (what, key))
        return default
    return _typed(decl[key], _KEY_TYPES[key], key, what)


def _declarations(doc: dict, section: str) -> Dict[str, dict]:
    """The declarations of one section, each an object."""
    decls = _need(doc, section, "scenario", {})
    for name, decl in decls.items():
        if type(decl) is not dict:
            raise ScenarioError("scenario: %s: %r must be an object, not %r"
                                % (section, name, decl))
    return decls


def _pair(x: object, key: str, what: str) -> list:
    """x, when it is a JSON array of two entries."""
    if type(x) is not list or len(x) != 2:
        raise ScenarioError("%s: each %s must be an array of two, not %r"
                            % (what, key, x))
    return x


def _variables(decl: dict, what: str) -> List[Tuple[str, int]]:
    """The declared variables as (name, degree) pairs: each a name, of
    degree 1, or a [name, degree] array."""
    out = []
    for v in _need(decl, "variables", what):
        name, deg = _pair(v, "variable", what) if type(v) is list else (v, 1)
        out.append((_typed(name, str, "variable", what),
                    _typed(deg, int, "variable degree", what)))
    return out


def _strings(decl: dict, key: str, what: str,
             default: object = _REQUIRED) -> List[str]:
    """decl[key], an array of polynomials, each a JSON string ("relations"
    holds relations, "elements" elements)."""
    return [_typed(x, str, key[:-1], what)
            for x in _need(decl, key, what, default)]


def _placements(decl: dict, what: str) -> List[Tuple[int, int]]:
    """The declared generators as (position, twist) pairs of integers."""
    pairs = [_pair(g, "generator", what) for g in _need(decl, "generators", what)]
    return [
        (_typed(c, int, "generator position", what),
         _typed(t, int, "generator twist", what))
        for c, t in pairs
    ]


# the section each reference key names a declaration of
_REFS = {
    "base": "rings", "tail": "rings", "source": "rings", "target": "rings",
    "ring": "dg_rings", "factors": "dg_rings",
    "of": "modules", "and": "modules", "module": "modules",
}
# the declaration sections, in build order, and what each declares
_SECTIONS = {"rings": "ring", "dg_rings": "DG-ring", "modules": "module"}


def _declared(scn: Scenario, section: str) -> dict:
    """What the scenario has built of one section, by name."""
    return {"rings": scn.rings, "dg_rings": scn.dg_rings,
            "modules": scn.modules}[section]


def _ref(scn: Scenario, decl: dict, key: str, what: str):
    """What decl[key] names in the section _REFS gives the key; factors
    name a list of DG-rings."""
    section = _REFS[key]
    declared = _declared(scn, section)
    names = _need(decl, key, what)
    found = []
    for name in names if key == "factors" else [names]:
        if _typed(name, str, "factor", what) not in declared:
            raise ScenarioError("%s refers to undeclared %s %r"
                                % (what, _SECTIONS[section], name))
        found.append(declared[name])
    return found if key == "factors" else found[0]


def _only(decl: dict, keys: Tuple[str, ...], what: str) -> None:
    """Reject a key of decl outside keys: no entry reads it, so a misspelt
    key would otherwise be dropped without a word."""
    for key in decl:
        if key not in keys:
            raise ScenarioError("%s has unknown key %r" % (what, key))


def _not_product(x, what: str):
    """x, a DG-ring or module, when it is not over a product DG-ring."""
    if isinstance(x, (ProductDGRing, ProductDGModule)):
        raise ScenarioError("%s needs a connected DG-ring, not a product" % what)
    return x


def _ring(scn: Scenario, decl: dict, what: str) -> GradedRing:
    ring = make_graded_ring(scn.options["field"], _variables(decl, what),
                            _strings(decl, "relations", what, ()))
    if ring.is_zero_ring:
        raise ScenarioError("%s: the relations generate the unit ideal, so "
                            "it is the zero ring" % what)
    return ring


def _koszul_module(scn: Scenario, decl: dict, what: str):
    A = _ref(scn, decl, "ring", what)
    if not isinstance(A, ProductDGRing):
        return koszul_dg_module(A, _strings(decl, "elements", what))
    rows = [_typed(row, list, "elements row", what)
            for row in _need(decl, "elements", what)]
    return product_koszul_module(
        A, [[_typed(x, str, "element", what) for x in row] for row in rows])


def _factor_residue(scn: Scenario, decl: dict, what: str):
    A = _ref(scn, decl, "ring", what)
    if not isinstance(A, ProductDGRing):
        raise ScenarioError("%s needs a product DG-ring" % what)
    index = _need(decl, "index", what)
    if not 0 <= index < len(A.factors):
        raise ScenarioError("%s: index %d is not a factor of %r, which has %d"
                            % (what, index, decl["ring"], len(A.factors)))
    return factor_residue_module(A, index)


def _h0_cyclic(scn: Scenario, decl: dict, what: str):
    A = _not_product(_ref(scn, decl, "ring", what), what)
    rels = [A.base.parse(e) for e in _strings(decl, "elements", what, ())]
    for p in rels:
        p.degree()  # an inhomogeneous element raises ValueError
    return h0_cyclic_dg_module(A, rels)


def _cone_mult(scn: Scenario, decl: dict, what: str):
    M = _not_product(_ref(scn, decl, "of", what), what)
    # parsed unreduced, so an element that is zero in the base keeps its
    # degree
    a = M.A.base.ambient.parse(_need(decl, "element", what))
    return cone_dg(multiplication_map(M, a))


def _generator_index(key: str, what: str) -> int:
    if not key.isdecimal():
        raise ScenarioError("%s: differential key %r is not a generator index"
                            % (what, key))
    return int(key)


def _presented(scn: Scenario, decl: dict, what: str):
    A = _not_product(_ref(scn, decl, "ring", what), what)
    gens = [DGGen(c, t) for c, t in _placements(decl, what)]
    diff: Dict[int, Dict[int, object]] = {}
    for j, row in _need(decl, "differential", what).items():
        diff[_generator_index(j, what)] = {
            _generator_index(i, what): A.from_base(A.base.parse(
                _typed(expr, str, "differential entry", what)))
            for i, expr in _typed(row, dict, "differential row", what).items()
        }
    if any(not 0 <= k < len(gens) for j, row in diff.items() for k in (j, *row)):
        raise ScenarioError("%s: differential names an undeclared generator" % what)
    return DGModule(A, gens, diff, check=True)


# section -> kind -> (the keys a declaration of the kind may carry, its
# builder); a ring has no kind
_KINDS = {
    "rings": {None: (("variables", "relations"), _ring)},
    "dg_rings": {
        "ring": (("base",), lambda scn, d, what:
                 build_ring_dg(_ref(scn, d, "base", what))),
        "koszul": (("base", "elements"), lambda scn, d, what: build_koszul_dg(
            _ref(scn, d, "base", what), _strings(d, "elements", what))),
        "trivial-extension": (
            ("base", "shift", "relations", "twist"),
            lambda scn, d, what: build_trivial_extension(
                _ref(scn, d, "base", what), _need(d, "shift", what),
                _strings(d, "relations", what, ()), _need(d, "twist", what, 0))),
        "product": (("factors",), lambda scn, d, what:
                    ProductDGRing(_ref(scn, d, "factors", what))),
        "split-trivial-extension": (
            ("base", "tail", "shift"),
            lambda scn, d, what: build_split_trivial_extension(
                _ref(scn, d, "base", what), _ref(scn, d, "tail", what),
                _need(d, "shift", what))),
    },
    "modules": {
        "free": (("ring", "generators"), lambda scn, d, what: per_factor(
            free_dg_module, _ref(scn, d, "ring", what), _placements(d, what))),
        "koszul": (("ring", "elements"), _koszul_module),
        "residue": (("ring",), lambda scn, d, what: residue_dg_module(
            _not_product(_ref(scn, d, "ring", what), what))),
        "factor-residue": (("ring", "index"), _factor_residue),
        "h0-cyclic": (("ring", "elements"), _h0_cyclic),
        "shift": (("of", "by"), lambda scn, d, what: per_factor(
            shift_dg, _ref(scn, d, "of", what), _need(d, "by", what))),
        "twist": (("of", "by"), lambda scn, d, what: per_factor(
            twist_dg, _ref(scn, d, "of", what), _need(d, "by", what))),
        "cone-mult": (("of", "element"), _cone_mult),
        "sum": (("of", "and"), lambda scn, d, what: direct_sum_dg(
            _not_product(_ref(scn, d, "of", what), what),
            _not_product(_ref(scn, d, "and", what), what))),
        "presented": (("ring", "generators", "differential"), _presented),
    },
}


def _build(scn: Scenario, section: str, decls: Dict[str, dict]) -> None:
    """Build one section's declarations in declaration order, each by the
    entry of its kind."""
    kinds = _KINDS[section]
    for name, decl in decls.items():
        what = "%s %r" % (_SECTIONS[section], name)
        keys = ()
        kind = None
        if section != "rings":
            kind = _need(decl, "kind", what)
            if kind not in kinds:
                raise ScenarioError("%s has unknown kind %r" % (what, kind))
            what = "%s (kind %r)" % (what, kind)
            keys = ("kind",)
        keys += kinds[kind][0]
        # every reference is present and typed before any is looked up
        for key in keys:
            if key in _REFS:
                _need(decl, key, what)
        try:
            _declared(scn, section)[name] = kinds[kind][1](scn, decl, what)
        except (ValueError, KeyError) as exc:
            raise ScenarioError("%s: %s" % (what, exc))
        # after the build, so a fault it finds is reported first
        _only(decl, keys, what)


def _connected(q: dict, what: str, A) -> None:
    _not_product(A, what)


def _witness_target(q: dict, what: str, A) -> None:
    n = _need(q, "n", what)
    dim = A.dimension()
    if not 0 <= n <= dim:
        raise ScenarioError(
            "%s: n = %d lies outside 0 <= n <= dim H0 = %d" % (what, n, dim)
        )


def _cohomology(scn: Scenario, q: dict, M) -> dict:
    """The ranks of H^i(M) over the window; over a product, summed over
    the parts."""
    lo, hi = scn.options["window"]
    parts = M.parts if isinstance(M, ProductDGModule) else [M]
    ranks = {}
    for i in range(lo, hi + 1):
        rank = sum(len(p.cohomology(i).generator_degrees) for p in parts)
        if rank:
            ranks[str(i)] = rank
    return {"ranks": ranks, "window": [lo, hi], "value": sum(ranks.values())}


def _with_value(report, attr: str) -> dict:
    """The report's JSON, with its attribute attr as the query's value."""
    return dict(report.to_json(), value=getattr(report, attr))


def _hochschild(scn: Scenario, q: dict, src: GradedRing, tgt: GradedRing) -> dict:
    rep = hochschild_table(src, tgt)
    return dict(rep.to_json(), value=hochschild_vanishing_check(rep))


# what an expect may be: the values its op reports
_BOOLEAN = ("a boolean", lambda x: type(x) is bool)
_INTEGER = ("an integer", lambda x: type(x) is int)
_DIMENSION = ('an integer, "infinity" or "-infinity"',
              lambda x: type(x) is int or x in ("infinity", "-infinity"))

# op -> (the keys a query of the op may carry besides op and expect, the
# domain of its expect, a parse-time check of the query or None, its run);
# a check takes the query, its label and the declarations its reference
# keys name, a run the scenario, the query and those declarations.  The
# runs name the library functions in their bodies, so they call whatever
# the module binds at run time.
_OPS = {
    "proj-dim": (("module",), _DIMENSION, None, lambda scn, q, M:
                 {"value": proj_dim(M).to_json()["value"]}),
    "flat-dim": (("module",), _DIMENSION, None, lambda scn, q, M:
                 {"value": flat_dim(M).to_json()["value"]}),
    "inj-dim": (("module",), _DIMENSION, None, lambda scn, q, M:
                {"value": inj_dim(M).to_json()["value"]}),
    "cohomology": (("module",), _INTEGER, None, _cohomology),
    "depth": (("ring",), _INTEGER, _connected,
              lambda scn, q, A: {"value": sequential_depth(A).value}),
    "small-finitistic": (("ring",), _INTEGER, _connected, lambda scn, q, A:
                         _with_value(small_finitistic_dims(A), "fpd")),
    "fpd-interval": (("ring",), _INTEGER, None, lambda scn, q, A:
                     _with_value(fpd_bounds(A), "fpd_value")),
    "bass-witness": (("ring", "n"), _BOOLEAN, _witness_target, lambda scn, q, A:
                     _with_value(bass_witness_recipe(A, q["n"]), "verified")),
    "hochschild": (("source", "target"), _BOOLEAN,
                   lambda q, what, src, tgt: hochschild_map(src, tgt),
                   _hochschild),
}


def _check_queries(scn: Scenario, queries: List[dict]) -> None:
    for idx, q in enumerate(queries):
        what = "query %d" % idx
        if not isinstance(q, dict):
            raise ScenarioError("%s is not an object" % what)
        op = _need(q, "op", what)
        if op not in _OPS:
            raise ScenarioError("%s has unknown op %r" % (what, op))
        what = "%s (op %r)" % (what, op)
        keys, (want, allowed), check, _ = _OPS[op]
        subjects = [_ref(scn, q, key, what) for key in keys if key in _REFS]
        if check is not None:
            try:
                check(q, what, *subjects)
            except ValueError as exc:
                raise ScenarioError("%s: %s" % (what, exc))
        if "expect" in q and not allowed(q["expect"]):
            raise ScenarioError("%s: expect must be %s, not %r"
                                % (what, want, q["expect"]))
        _only(q, ("op", "expect") + keys, what)
        scn.queries.append(q)


def parse_scenario(doc: dict, label: str = "scenario",
                   overrides: Optional[dict] = None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(
            "expected schema %r, found %r" % (SCHEMA, doc.get("schema"))
        )
    options = _check_options(dict(_need(doc, "options", "scenario", {}),
                                  **(overrides or {})))
    scn = Scenario(label=label, raw=doc, options=options)
    for section in _SECTIONS:
        _build(scn, section, _declarations(doc, section))
    _check_queries(scn, _need(doc, "queries", "scenario", []))
    _only(doc, ("schema", "options", *_SECTIONS, "queries"), "scenario")
    return scn


def load_scenario(path: str, overrides: Optional[dict] = None) -> Scenario:
    """The scenario in the UTF-8 JSON file at path, every string text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno)
    except (OSError, UnicodeError, RecursionError) as exc:
        raise ScenarioError(str(exc))
    name = os.path.basename(path).encode("utf-8", "surrogateescape")
    return parse_scenario(doc, label=name.decode("utf-8", "replace"),
                          overrides=overrides)


# ---------- execution ----------


def _closure(scn: Scenario, names: List[str]) -> Set[str]:
    """The names, with every name their declarations refer to, read off
    the raw declarations; a name may be declared in several sections (a
    DG-ring and a module may share one), and all of them count."""
    seen: Set[str] = set()
    todo = list(names)
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen.add(n)
        for section in _SECTIONS:
            decl = scn.raw.get(section, {}).get(n, {})
            for key in _REFS:
                ref = decl.get(key)
                if isinstance(ref, list):
                    todo.extend(ref)
                elif ref is not None:
                    todo.append(ref)
    return seen


def _sub_scenario(scn: Scenario, q: dict) -> dict:
    """The smallest scenario that still reproduces one query."""
    keep = _closure(scn, [q[key] for key in _REFS if key in q])
    out = {"schema": SCHEMA, "options": dict(scn.raw.get("options", {}))}
    for section in _SECTIONS:
        decls = {
            k: v for k, v in scn.raw.get(section, {}).items() if k in keep
        }
        if decls:
            out[section] = decls
    out["queries"] = [q]
    return out


def _run_query(scn: Scenario, idx: int, q: dict) -> CheckResult:
    op = q["op"]
    keys, _, _, run = _OPS[op]
    refs = [key for key in keys if key in _REFS]
    check_id = "query-%d-%s" % (idx, op)
    claim = "%s(%s)" % (op, " -> ".join(q[key] for key in refs))
    try:
        details = run(scn, q, *[_ref(scn, q, key, claim) for key in refs])
    except RuntimeError as exc:
        return CheckResult(
            check_id, claim, INDETERMINATE,
            {"reason": str(exc)}, reproduce=_sub_scenario(scn, q),
        )
    except (ValueError, AssertionError) as exc:
        # an AssertionError is an internal invariant that broke: a failure
        # to report with its reproducer, not a traceback
        return CheckResult(
            check_id, claim, FAIL,
            {"reason": str(exc) or type(exc).__name__},
            reproduce=_sub_scenario(scn, q),
        )
    want, got = q.get("expect"), details.get("value")
    # type-strict: True == 1 == 1.0 in Python, but not in the report
    if "expect" in q and (type(want) is not type(got) or want != got):
        details["expected"] = want
        return CheckResult(
            check_id, claim, FAIL, details, reproduce=_sub_scenario(scn, q)
        )
    return CheckResult(check_id, claim, PASS, details)


def run_scenario(scn: Scenario) -> VerificationReport:
    rep = VerificationReport("scenario " + scn.label, options=dict(scn.options))
    for idx, q in enumerate(scn.queries):
        rep.add(_run_query(scn, idx, q))
    return rep
