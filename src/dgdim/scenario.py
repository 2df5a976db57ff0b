"""Scenario files: JSON declarations of rings, DG-rings, modules and queries.

A scenario is validated and built up front, in declaration order, so a bad
differential or an undeclared name is rejected before any query runs; query
execution then turns each entry of the query list into one check result.
"""
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    product_dg,
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
    "cutoff": 12,
    "window": [-8, 8],
    "seed": 0,
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


@dataclass
class Scenario:
    label: str
    raw: dict
    options: dict
    rings: Dict[str, GradedRing] = field(default_factory=dict)
    dg_rings: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    queries: List[dict] = field(default_factory=list)
    deps: Dict[str, List[str]] = field(default_factory=dict)


def _check_options(opts: dict) -> dict:
    merged = dict(_DEFAULT_OPTIONS)
    for k, v in opts.items():
        if k not in merged:
            raise ScenarioError("unknown option %r" % k)
        merged[k] = v
    if not isinstance(merged["cutoff"], int) or not 1 <= merged["cutoff"] <= 64:
        raise ScenarioError("cutoff must be an integer in 1..64")
    w = merged["window"]
    if (not isinstance(w, (list, tuple)) or len(w) != 2
            or not all(isinstance(x, int) for x in w) or w[0] > w[1]
            or w[1] - w[0] > 64):
        raise ScenarioError("window must be [lo, hi] with lo <= hi, span <= 64")
    if not isinstance(merged["seed"], int):
        raise ScenarioError("seed must be an integer")
    merged["window"] = list(w)
    return merged


def _need(decl: dict, key: str, what: str) -> object:
    if key not in decl:
        raise ScenarioError("%s is missing %r" % (what, key))
    return decl[key]


def _build_rings(scn: Scenario, decls: dict) -> None:
    fieldtag = scn.options["field"]
    for name, decl in decls.items():
        try:
            scn.rings[name] = make_graded_ring(
                fieldtag,
                _need(decl, "variables", "ring %r" % name),
                decl.get("relations", ()),
            )
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError("ring %r: %s" % (name, exc))
        scn.deps[name] = []


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


def _build_dg_rings(scn: Scenario, decls: dict) -> None:
    for name, decl in decls.items():
        what = "DG-ring %r" % name
        kind = _need(decl, "kind", what)
        try:
            if kind == "ring":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_ring_dg(_ring_ref(scn, base, what))
                scn.deps[name] = [base]
            elif kind == "koszul":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_koszul_dg(
                    _ring_ref(scn, base, what),
                    [str(e) for e in _need(decl, "elements", what)],
                )
                scn.deps[name] = [base]
            elif kind == "trivial-extension":
                base = _need(decl, "base", what)
                scn.dg_rings[name] = build_trivial_extension(
                    _ring_ref(scn, base, what),
                    int(_need(decl, "shift", what)),
                    [str(e) for e in decl.get("relations", ())],
                    int(decl.get("twist", 0)),
                )
                scn.deps[name] = [base]
            elif kind == "product":
                factors = _need(decl, "factors", what)
                scn.dg_rings[name] = product_dg(
                    [_dg_ref(scn, f, what) for f in factors]
                )
                scn.deps[name] = list(factors)
            elif kind == "split-trivial-extension":
                base = _need(decl, "base", what)
                tail = _need(decl, "tail", what)
                scn.dg_rings[name] = build_split_trivial_extension(
                    _ring_ref(scn, base, what),
                    _ring_ref(scn, tail, what),
                    int(_need(decl, "shift", what)),
                )
                scn.deps[name] = [base, tail]
            else:
                raise ScenarioError("%s has unknown kind %r" % (what, kind))
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError("%s: %s" % (what, exc))


def _build_presented(A, decl: dict, what: str):
    gens = [
        DGGen(int(c), int(t))
        for c, t in _need(decl, "generators", what)
    ]
    diff: Dict[int, Dict[int, object]] = {}
    for j, row in _need(decl, "differential", what).items():
        diff[int(j)] = {
            int(i): A.from_base(A.base.parse(str(expr)))
            for i, expr in row.items()
        }
    return DGModule(A, gens, diff, check=True)


def _build_modules(scn: Scenario, decls: dict) -> None:
    for name, decl in decls.items():
        what = "module %r" % name
        kind = _need(decl, "kind", what)
        try:
            if kind == "free":
                ring = _need(decl, "ring", what)
                A = _dg_ref(scn, ring, what)
                placements = [
                    (int(c), int(t))
                    for c, t in _need(decl, "generators", what)
                ]
                if isinstance(A, ProductDGRing):
                    from .dg import product_free_module
                    scn.modules[name] = product_free_module(A, placements)
                else:
                    scn.modules[name] = free_dg_module(A, placements)
                scn.deps[name] = [ring]
            elif kind == "koszul":
                ring = _need(decl, "ring", what)
                A = _dg_ref(scn, ring, what)
                elems = _need(decl, "elements", what)
                if isinstance(A, ProductDGRing):
                    scn.modules[name] = product_koszul_module(
                        A, [[str(x) for x in row] for row in elems]
                    )
                else:
                    scn.modules[name] = koszul_dg_module(
                        A, [str(e) for e in elems]
                    )
                scn.deps[name] = [ring]
            elif kind == "residue":
                ring = _need(decl, "ring", what)
                scn.modules[name] = residue_dg_module(
                    _dg_ref(scn, ring, what)
                )
                scn.deps[name] = [ring]
            elif kind == "factor-residue":
                ring = _need(decl, "ring", what)
                scn.modules[name] = factor_residue_module(
                    _dg_ref(scn, ring, what), int(_need(decl, "index", what))
                )
                scn.deps[name] = [ring]
            elif kind == "h0-cyclic":
                ring = _need(decl, "ring", what)
                scn.modules[name] = h0_cyclic_dg_module(
                    _dg_ref(scn, ring, what),
                    [str(e) for e in decl.get("elements", ())],
                )
                scn.deps[name] = [ring]
            elif kind == "shift":
                of = _need(decl, "of", what)
                M = _module_ref(scn, of, what)
                n = int(_need(decl, "by", what))
                scn.modules[name] = (
                    shift_product(M, n) if isinstance(M, ProductDGModule)
                    else shift_dg(M, n)
                )
                scn.deps[name] = [of]
            elif kind == "twist":
                of = _need(decl, "of", what)
                M = _module_ref(scn, of, what)
                t = int(_need(decl, "by", what))
                scn.modules[name] = (
                    twist_product(M, t) if isinstance(M, ProductDGModule)
                    else twist_dg(M, t)
                )
                scn.deps[name] = [of]
            elif kind == "cone-mult":
                of = _need(decl, "of", what)
                M = _module_ref(scn, of, what)
                a = M.A.base.parse(str(_need(decl, "element", what)))
                scn.modules[name] = cone_dg(multiplication_map(M, a))
                scn.deps[name] = [of]
            elif kind == "sum":
                of = _need(decl, "of", what)
                other = _need(decl, "and", what)
                scn.modules[name] = direct_sum_dg(
                    _module_ref(scn, of, what),
                    _module_ref(scn, other, what),
                )
                scn.deps[name] = [of, other]
            elif kind == "presented":
                ring = _need(decl, "ring", what)
                scn.modules[name] = _build_presented(
                    _dg_ref(scn, ring, what), decl, what
                )
                scn.deps[name] = [ring]
            else:
                raise ScenarioError("%s has unknown kind %r" % (what, kind))
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
        if op in ("proj-dim", "flat-dim", "inj-dim", "cohomology"):
            _module_ref(scn, _need(q, "module", what), what)
        elif op in ("depth", "small-finitistic", "fpd-interval"):
            _dg_ref(scn, _need(q, "ring", what), what)
        elif op == "bass-witness":
            _dg_ref(scn, _need(q, "ring", what), what)
            _need(q, "n", what)
        elif op == "hochschild":
            _ring_ref(scn, _need(q, "source", what), what)
            _ring_ref(scn, _need(q, "target", what), what)
        scn.queries.append(q)


def parse_scenario(doc: dict, label: str = "scenario",
                   overrides: Optional[dict] = None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(
            "expected schema %r, found %r" % (SCHEMA, doc.get("schema"))
        )
    options = _check_options(dict(doc.get("options", {}),
                                  **(overrides or {})))
    scn = Scenario(label=label, raw=doc, options=options)
    _build_rings(scn, doc.get("rings", {}))
    _build_dg_rings(scn, doc.get("dg_rings", {}))
    _build_modules(scn, doc.get("modules", {}))
    _check_queries(scn, doc.get("queries", []))
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


def _closure(scn: Scenario, names: List[str]) -> List[str]:
    seen: List[str] = []
    todo = list(names)
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen.append(n)
        todo.extend(scn.deps.get(n, []))
    return seen


def _sub_scenario(scn: Scenario, q: dict) -> dict:
    """The smallest scenario that still reproduces one query."""
    names: List[str] = []
    for key in ("module", "ring", "source", "target"):
        if key in q:
            names.append(q[key])
    keep = set(_closure(scn, names))
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
            rec = bass_witness_recipe(scn.dg_rings[q["ring"]], int(q["n"]))
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
    except ValueError as exc:
        return CheckResult(
            check_id, claim, FAIL,
            {"reason": str(exc)}, reproduce=_sub_scenario(scn, q),
        )
    if "expect" in q and q["expect"] != details.get("value"):
        details["expected"] = q["expect"]
        return CheckResult(
            check_id, claim, FAIL, details, reproduce=_sub_scenario(scn, q)
        )
    return CheckResult(check_id, claim, PASS, details)


def run_scenario(scn: Scenario) -> VerificationReport:
    rep = VerificationReport("scenario " + scn.label, options=dict(scn.options))
    for idx, q in enumerate(scn.queries):
        rep.add(_run_query(scn, idx, q))
    return rep
