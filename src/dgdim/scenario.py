"""Scenario files: JSON declarations of rings, DG-rings, modules and queries.

A scenario is validated and built up front, in declaration order, so a bad
differential or an undeclared name is rejected before any query runs; query
execution then turns each entry of the query list into one check result.
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
    product_free_module,
    product_koszul_module,
    residue_dg_module,
    shift_dg,
    shift_product,
    twist_dg,
    twist_product,
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

_QUERY_OPS = (
    "proj-dim",
    "flat-dim",
    "inj-dim",
    "cohomology",
    "depth",
    "small-finitistic",
    "fpd-interval",
    "bass-witness",
    "hochschild",
)


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


def _build_rings(scn: Scenario, decls: dict) -> None:
    fieldtag = scn.options["field"]
    for name, decl in decls.items():
        try:
            scn.rings[name] = make_graded_ring(
                fieldtag,
                _variables(decl, "ring %r" % name),
                [str(e) for e in _need(decl, "relations", "ring %r" % name, ())],
            )
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError("ring %r: %s" % (name, exc))
        if scn.rings[name].is_zero_ring:
            raise ScenarioError(
                "ring %r: the relations generate the unit ideal, so it is "
                "the zero ring" % name
            )


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


def _check_expect(x: object, op: str, what: str) -> None:
    """An expect must be a value the op reports (see _run_query): a JSON
    boolean for bass-witness and hochschild, a JSON integer, "infinity" or
    "-infinity" for the dimensions, and a JSON integer for the other ops."""
    if op in ("bass-witness", "hochschild"):
        ok, want = type(x) is bool, "a boolean"
    elif op in ("proj-dim", "flat-dim", "inj-dim"):
        ok = type(x) is int or x in ("infinity", "-infinity")
        want = 'an integer, "infinity" or "-infinity"'
    else:
        ok, want = type(x) is int, "an integer"
    if not ok:
        raise ScenarioError("%s: expect must be %s, not %r" % (what, want, x))


def _placements(decl: dict, what: str) -> List[Tuple[int, int]]:
    """The declared generators as (position, twist) pairs of integers."""
    pairs = [_pair(g, "generator", what) for g in _need(decl, "generators", what)]
    return [
        (_typed(c, int, "generator position", what),
         _typed(t, int, "generator twist", what))
        for c, t in pairs
    ]


def _ring_ref(scn: Scenario, name: str, what: str) -> GradedRing:
    if name not in scn.rings:
        raise ScenarioError("%s refers to undeclared ring %r" % (what, name))
    return scn.rings[name]


def _dg_ref(scn: Scenario, name: str, what: str):
    if name not in scn.dg_rings:
        raise ScenarioError("%s refers to undeclared DG-ring %r" % (what, name))
    return scn.dg_rings[name]


def _module_ref(scn: Scenario, name: str, what: str):
    if name not in scn.modules:
        raise ScenarioError("%s refers to undeclared module %r" % (what, name))
    return scn.modules[name]


def _not_product(x, what: str):
    """x, a DG-ring or module, when it is not over a product DG-ring."""
    if isinstance(x, (ProductDGRing, ProductDGModule)):
        raise ScenarioError("%s needs a connected DG-ring, not a product" % what)
    return x


def _build_dg_rings(scn: Scenario, decls: dict) -> None:
    for name, decl in decls.items():
        what = "DG-ring %r" % name
        kind = _need(decl, "kind", what)
        try:
            if kind == "ring":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_ring_dg(_ring_ref(scn, base, what))
            elif kind == "koszul":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_koszul_dg(
                    _ring_ref(scn, base, what),
                    [str(e) for e in _need(decl, "elements", what)],
                )
            elif kind == "trivial-extension":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_trivial_extension(
                    _ring_ref(scn, base, what),
                    _need(decl, "shift", what),
                    [str(e) for e in _need(decl, "relations", what, ())],
                    _need(decl, "twist", what, 0),
                )
            elif kind == "product":
                factors = _need(decl, "factors", what)
                scn.dg_rings[name] = ProductDGRing(
                    [_dg_ref(scn, _typed(f, str, "factor", what), what)
                     for f in factors]
                )
            elif kind == "split-trivial-extension":
                base = _need(decl, "base", what)
                tail = _need(decl, "tail", what)
                scn.dg_rings[name] = build_split_trivial_extension(
                    _ring_ref(scn, base, what),
                    _ring_ref(scn, tail, what),
                    _need(decl, "shift", what),
                )
            else:
                raise ScenarioError("%s has unknown kind %r" % (what, kind))
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError("%s: %s" % (what, exc))


def _module_from_generators(A, decl: dict, what: str):
    gens = [DGGen(c, t) for c, t in _placements(decl, what)]
    diff: Dict[int, Dict[int, object]] = {}
    for j, row in _need(decl, "differential", what).items():
        diff[int(j)] = {
            int(i): A.from_base(A.base.parse(str(expr)))
            for i, expr in _typed(row, dict, "differential row", what).items()
        }
    if any(not 0 <= k < len(gens) for j, row in diff.items() for k in (j, *row)):
        raise ScenarioError("%s: differential names an undeclared generator" % what)
    return DGModule(A, gens, diff, check=True)


def _build_modules(scn: Scenario, decls: dict) -> None:
    for name, decl in decls.items():
        kind = _need(decl, "kind", "module %r" % name)
        what = "module %r (kind %r)" % (name, kind)
        try:
            if kind == "free":
                ring = _need(decl, "ring", what)
                A = _dg_ref(scn, ring, what)
                placements = _placements(decl, what)
                if isinstance(A, ProductDGRing):
                    scn.modules[name] = product_free_module(A, placements)
                else:
                    scn.modules[name] = free_dg_module(A, placements)
            elif kind == "koszul":
                ring = _need(decl, "ring", what)
                A = _dg_ref(scn, ring, what)
                elems = _need(decl, "elements", what)
                if isinstance(A, ProductDGRing):
                    scn.modules[name] = product_koszul_module(
                        A, [[str(x) for x in _typed(row, list, "elements row", what)]
                            for row in elems]
                    )
                else:
                    scn.modules[name] = koszul_dg_module(
                        A, [str(e) for e in elems]
                    )
            elif kind == "residue":
                ring = _need(decl, "ring", what)
                scn.modules[name] = residue_dg_module(
                    _not_product(_dg_ref(scn, ring, what), what)
                )
            elif kind == "factor-residue":
                ring = _need(decl, "ring", what)
                A = _dg_ref(scn, ring, what)
                if not isinstance(A, ProductDGRing):
                    raise ScenarioError("%s needs a product DG-ring" % what)
                index = _need(decl, "index", what)
                if not 0 <= index < len(A.factors):
                    raise ScenarioError(
                        "%s: index %d is not a factor of %r, which has %d"
                        % (what, index, ring, len(A.factors))
                    )
                scn.modules[name] = factor_residue_module(A, index)
            elif kind == "h0-cyclic":
                ring = _need(decl, "ring", what)
                A = _not_product(_dg_ref(scn, ring, what), what)
                elems = _need(decl, "elements", what, ())
                rels = [A.base.parse(str(e)) for e in elems]
                for p in rels:
                    p.degree()  # an inhomogeneous element raises ValueError
                scn.modules[name] = h0_cyclic_dg_module(A, rels)
            elif kind == "shift":
                of = _need(decl, "of", what)
                M = _module_ref(scn, of, what)
                n = _need(decl, "by", what)
                scn.modules[name] = (
                    shift_product(M, n) if isinstance(M, ProductDGModule)
                    else shift_dg(M, n)
                )
            elif kind == "twist":
                of = _need(decl, "of", what)
                M = _module_ref(scn, of, what)
                t = _need(decl, "by", what)
                scn.modules[name] = (
                    twist_product(M, t) if isinstance(M, ProductDGModule)
                    else twist_dg(M, t)
                )
            elif kind == "cone-mult":
                of = _need(decl, "of", what)
                M = _not_product(_module_ref(scn, of, what), what)
                # parsed unreduced, so an element that is zero in the base
                # keeps its degree
                a = M.A.base.ambient.parse(str(_need(decl, "element", what)))
                scn.modules[name] = cone_dg(multiplication_map(M, a))
            elif kind == "sum":
                of = _need(decl, "of", what)
                other = _need(decl, "and", what)
                scn.modules[name] = direct_sum_dg(
                    _not_product(_module_ref(scn, of, what), what),
                    _not_product(_module_ref(scn, other, what), what),
                )
            elif kind == "presented":
                ring = _need(decl, "ring", what)
                scn.modules[name] = _module_from_generators(
                    _not_product(_dg_ref(scn, ring, what), what), decl, what
                )
            else:
                raise ScenarioError("module %r has unknown kind %r" % (name, kind))
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError("%s: %s" % (what, exc))


def _check_queries(scn: Scenario, queries: List[dict]) -> None:
    for idx, q in enumerate(queries):
        what = "query %d" % idx
        if not isinstance(q, dict):
            raise ScenarioError("%s is not an object" % what)
        op = _need(q, "op", what)
        if op not in _QUERY_OPS:
            raise ScenarioError("%s has unknown op %r" % (what, op))
        what = "%s (op %r)" % (what, op)
        if op in ("proj-dim", "flat-dim", "inj-dim", "cohomology"):
            _module_ref(scn, _need(q, "module", what), what)
        elif op in ("depth", "small-finitistic"):
            _not_product(_dg_ref(scn, _need(q, "ring", what), what), what)
        elif op == "fpd-interval":
            _dg_ref(scn, _need(q, "ring", what), what)
        elif op == "bass-witness":
            A = _dg_ref(scn, _need(q, "ring", what), what)
            n = _need(q, "n", what)
            dim = A.dimension()
            if not 0 <= n <= dim:
                raise ScenarioError(
                    "%s: n = %d lies outside 0 <= n <= dim H0 = %d" % (what, n, dim)
                )
        elif op == "hochschild":
            src = _ring_ref(scn, _need(q, "source", what), what)
            tgt = _ring_ref(scn, _need(q, "target", what), what)
            try:
                hochschild_map(src, tgt)
            except ValueError as exc:
                raise ScenarioError("%s: %s" % (what, exc))
        if "expect" in q:
            _check_expect(q["expect"], op, what)
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
    _build_rings(scn, _declarations(doc, "rings"))
    _build_dg_rings(scn, _declarations(doc, "dg_rings"))
    _build_modules(scn, _declarations(doc, "modules"))
    _check_queries(scn, _need(doc, "queries", "scenario", []))
    return scn


def load_scenario(path: str, overrides: Optional[dict] = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(str(exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno)
    return parse_scenario(doc, label=os.path.basename(path),
                          overrides=overrides)


# ---------- execution ----------


# the declaration keys that name another declaration
_REFERENCE_KEYS = ("base", "tail", "ring", "of", "and", "factors")


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
        for section in ("rings", "dg_rings", "modules"):
            decl = scn.raw.get(section, {}).get(n, {})
            for key in _REFERENCE_KEYS:
                ref = decl.get(key)
                if isinstance(ref, list):
                    todo.extend(ref)
                elif ref is not None:
                    todo.append(ref)
    return seen


def _sub_scenario(scn: Scenario, q: dict) -> dict:
    """The smallest scenario that still reproduces one query."""
    names: List[str] = []
    for key in ("module", "ring", "source", "target"):
        if key in q:
            names.append(q[key])
    keep = _closure(scn, names)
    out = {"schema": SCHEMA, "options": dict(scn.raw.get("options", {}))}
    for section in ("rings", "dg_rings", "modules"):
        decls = {
            k: v for k, v in scn.raw.get(section, {}).items() if k in keep
        }
        if decls:
            out[section] = decls
    out["queries"] = [q]
    return out


def _value_json(report) -> object:
    return report.to_json()["value"]


def _run_query(scn: Scenario, idx: int, q: dict) -> CheckResult:
    op = q["op"]
    check_id = "query-%d-%s" % (idx, op)
    if op in ("proj-dim", "flat-dim", "inj-dim", "cohomology"):
        subject = q["module"]
    elif op == "hochschild":
        subject = "%s -> %s" % (q["source"], q["target"])
    else:
        subject = q["ring"]
    claim = "%s(%s)" % (op, subject)
    details: dict = {}
    try:
        if op == "proj-dim":
            details["value"] = _value_json(proj_dim(scn.modules[q["module"]]))
        elif op == "flat-dim":
            details["value"] = _value_json(flat_dim(scn.modules[q["module"]]))
        elif op == "inj-dim":
            details["value"] = _value_json(inj_dim(scn.modules[q["module"]]))
        elif op == "cohomology":
            M = scn.modules[q["module"]]
            lo, hi = scn.options["window"]
            ranks = {}
            for i in range(lo, hi + 1):
                if isinstance(M, ProductDGModule):
                    rank = sum(
                        len(p.cohomology(i).generator_degrees)
                        for p in M.parts
                    )
                else:
                    rank = len(M.cohomology(i).generator_degrees)
                if rank:
                    ranks[str(i)] = rank
            details["ranks"] = ranks
            details["window"] = [lo, hi]
            details["value"] = sum(ranks.values())
        elif op == "depth":
            details["value"] = sequential_depth(scn.dg_rings[q["ring"]]).value
        elif op == "small-finitistic":
            rep = small_finitistic_dims(scn.dg_rings[q["ring"]])
            details.update(rep.to_json())
            details["value"] = rep.fpd
        elif op == "fpd-interval":
            rep = fpd_bounds(scn.dg_rings[q["ring"]])
            details.update(rep.to_json())
            details["value"] = rep.fpd_value
        elif op == "bass-witness":
            rec = bass_witness_recipe(scn.dg_rings[q["ring"]], q["n"])
            details.update(rec.to_json())
            details["value"] = rec.verified
        elif op == "hochschild":
            rep = hochschild_table(
                scn.rings[q["source"]], scn.rings[q["target"]]
            )
            details.update(rep.to_json())
            details["value"] = hochschild_vanishing_check(rep)
        else:  # pragma: no cover - _check_queries filters these
            raise ScenarioError("unknown op %r" % op)
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
