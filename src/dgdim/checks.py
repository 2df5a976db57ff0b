"""The built-in verification suite.

Each check states one claim about the engine in plain language, runs the
computation that decides it, and reports pass/fail with the certificate
values in the details; nothing here raises on a mathematical failure.
Randomized checks draw from corpus generators seeded by the suite options.
"""
import time
from functools import lru_cache
from random import Random
from types import MappingProxyType
from typing import Callable, List, Optional, Tuple

from .core import GradedModule, make_graded_ring
from .corpus import (
    amplitude_zero_test_family,
    apply_recipe,
    direct_ext_projdim,
    free_start,
    random_perfect_module,
    random_recipe,
    redundant_presentation,
    resolution_signature,
    standard_families,
    tensor_start,
)
from .dg import (
    ProductDGRing,
    build_koszul_dg,
    build_ring_dg,
    build_trivial_extension,
    hom_semifree_into_dg,
    koszul_dg_module,
    product_koszul_module,
)
from .dg.tower import semifree_resolution
from .dimensions import (
    dualizing_dg_module,
    is_local_cohen_macaulay,
    proj_dim,
    ring_amplitude,
    sequential_depth,
)
from .finitistic import (
    fpd_bounds,
    hochschild_table,
    hochschild_vanishing_check,
    small_finitistic_dims,
)
from .report import (
    FAIL,
    PASS,
    SKIP,
    CheckResult,
    VerificationReport,
    emit_report,
)

_DEFAULT_SUITE_OPTIONS = {"field": "Q", "seed": 0}


# Fixture builders are memoized per field tag, two tags at a time (the
# suite compares Q with one prime field); the rings and collections they
# return are shared, so callers must not change them.


def _ring_xy(fieldtag):
    return standard_families(fieldtag)[0].base


@lru_cache(maxsize=2)
def _fixture_set(fieldtag):
    """Name -> DG-ring for the connected fixtures the formulas run over."""
    fams = standard_families(fieldtag)
    R = make_graded_ring(fieldtag, ["x", "y", "z"])
    x, y, z = R.variables()
    return MappingProxyType({
        "polynomial k[x,y]": fams[0],
        "koszul on (x, xy) over k[x,y]": fams[1],
        "koszul on (x, xy) over k[x,y,z]": build_koszul_dg(R, [x, R.mul(x, y)]),
        "quotient k[x,y]/(x^2, xy)": build_ring_dg(
            make_graded_ring(fieldtag, ["x", "y"], ["x^2", "x*y"])
        ),
    })


@lru_cache(maxsize=2)
def _designed_false(fieldtag):
    """Trivial extension of k[x,y] by the cyclic module k[x,y]/(x) placed in
    one shift: dimension 2, amplitude 1, sequential depth 1, so the small
    finitistic dimension misses dim - amp and the ring is not
    Cohen-Macaulay."""
    return build_trivial_extension(_ring_xy(fieldtag), 1, ["x"])


# ---------- the individual checks ----------


def _check_koszul_projdim(opts) -> Tuple[bool, dict]:
    fieldtag = opts["field"]
    fams = standard_families(fieldtag)
    sequences = {
        0: [["x"], ["x", "x*y"], ["x", "x*y", "y^2"]],
        1: [["y"], ["y", "y^2"], ["y", "y^2", "y^3"]],
        2: [[("x", "0")], [("x", "0"), ("x^2", "0")],
            [("x", "0"), ("x^2", "0"), ("x^3", "0")]],
    }
    table = {}
    ok = True
    for fi, A in enumerate(fams):
        for seq in sequences[fi]:
            if isinstance(A, ProductDGRing):
                K = product_koszul_module(A, [list(r) for r in seq])
            else:
                K = koszul_dg_module(A, seq)
            got = proj_dim(K).value
            label = "family %d, length %d" % (fi, len(seq))
            table[label] = {"projdim": got, "length": len(seq)}
            ok = ok and got == len(seq)
    return ok, {"cases": table}


def _check_small_formulas(opts) -> Tuple[bool, dict]:
    expected = {
        "polynomial k[x,y]": 2,
        "koszul on (x, xy) over k[x,y]": 0,
        "koszul on (x, xy) over k[x,y,z]": 1,
        "quotient k[x,y]/(x^2, xy)": 0,
    }
    table = {}
    ok = True
    for name, A in _fixture_set(opts["field"]).items():
        rep = small_finitistic_dims(A)
        depth = rep.depth_certificate["value"]
        amp = ring_amplitude(A)
        table[name] = {
            "fpd": rep.fpd, "ffd": rep.ffd, "fid": rep.fid,
            "depth": depth, "amplitude": amp,
            "witness-attains": rep.small_witness["attains"],
        }
        ok = ok and rep.fpd == rep.ffd == rep.fid == depth - amp
        ok = ok and rep.fpd == expected[name]
        ok = ok and rep.small_witness["attains"]
    return ok, {"fixtures": table}


def _check_fpd_collapses(opts) -> Tuple[bool, dict]:
    fieldtag = opts["field"]
    A = _fixture_set(fieldtag)["koszul on (x, xy) over k[x,y,z]"]
    gor = fpd_bounds(A)
    gor_ok = (
        gor.fpd_value == 1
        and gor.fpd_value == A.dimension() - ring_amplitude(A)
        and gor.gorenstein_case
        and any(w["value"] == 1 for w in gor.witnesses)
    )
    split = standard_families(fieldtag)[2]
    wit = fpd_bounds(split)
    wit_ok = (
        wit.fpd_value == 1
        and wit.fpd_value == split.dimension()
        and wit.witness_case
        and any(
            w["projdim"] + w["inf"] == 1 and "residue" in w["module"]
            for w in wit.witnesses
        )
    )
    return gor_ok and wit_ok, {
        "gorenstein-instance": gor.to_json(),
        "trivial-extension-instance": wit.to_json(),
    }


@lru_cache(maxsize=1)
def _corpus_sweep(field: str, seed: int) -> dict:
    """One pass over the seeded 50-module corpus; records violations of the
    global bound through dim H0 - inf and, over the connected rings, of the
    depth-sensitive bound, in separate lists.  The flat dimension needs no
    pass of its own: dimensions.flat_dim reads the minimal complex that
    proj_dim reads.

    Memoized for the last (field, seed): the two bound checks run back to
    back and read the same sweep, so they copy what they report."""
    rng = Random(seed)
    fams = standard_families(field)
    depth = {}
    amp = {}
    for i, A in enumerate(fams):
        amp[i] = ring_amplitude(A)
        if not isinstance(A, ProductDGRing):
            depth[i] = sequential_depth(A).value
    checked = ab_checked = 0
    worst_slack = None
    bad_global: List[dict] = []
    bad_depth: List[dict] = []
    for n in range(50):
        fi = n % 3
        A = fams[fi]
        M = random_perfect_module(A, rng)
        pd = proj_dim(M)
        inf = M.inf_h()
        if not pd.finite:
            bad_global.append({"module": n, "reason": "dimension not finite"})
            continue
        checked += 1
        cap = A.dimension() - inf
        slack = cap - pd.value
        if slack < 0:
            bad_global.append(
                {"module": n, "family": fi, "projdim": pd.value, "cap": cap}
            )
        if worst_slack is None or slack < worst_slack:
            worst_slack = slack
        if fi in depth:
            ab_cap = depth[fi] - inf - amp[fi]
            ab_checked += 1
            if pd.value > ab_cap:
                bad_depth.append(
                    {"module": n, "family": fi, "projdim": pd.value,
                     "depth-bound": ab_cap}
                )
    return {
        "modules": checked,
        "depth-bound-checked": ab_checked,
        "tightest-slack": worst_slack,
        "bad-global": bad_global,
        "bad-depth": bad_depth,
    }


def _check_global_bound(opts) -> Tuple[bool, dict]:
    sweep = _corpus_sweep(opts["field"], opts["seed"])
    details = {
        "bound": "projdim(M) <= dim H0(A) - inf(M)",
        "modules": sweep["modules"],
        "tightest-slack": sweep["tightest-slack"],
        "violations": [dict(v) for v in sweep["bad-global"]],
    }
    return not sweep["bad-global"] and sweep["modules"] == 50, details


def _check_depth_bound(opts) -> Tuple[bool, dict]:
    sweep = _corpus_sweep(opts["field"], opts["seed"])
    details = {
        "bound": "projdim(M) <= seq.depth(A) - inf(M) - amp(A)",
        "modules-checked": sweep["depth-bound-checked"],
        "violations": [dict(v) for v in sweep["bad-depth"]],
        "note": (
            "sequential depth is defined over connected rings; "
            "product-family modules are covered by the global bound only"
        ),
    }
    return not sweep["bad-depth"] and sweep["depth-bound-checked"] > 0, details


def _check_reduction_vs_ext(opts) -> Tuple[bool, dict]:
    rng = Random(opts["seed"])
    fams = standard_families(opts["field"])
    conn = [fams[0], fams[1]]
    agree = 0
    disagreements: List[dict] = []
    for n in range(25):
        A = conn[n % 2]
        M = random_perfect_module(A, rng, steps=rng.randrange(1, 4))
        via_reduction = proj_dim(M).value
        via_search = direct_ext_projdim(M)
        if via_reduction == via_search:
            agree += 1
        else:
            disagreements.append(
                {"instance": n, "reduction": via_reduction,
                 "ext-search": via_search}
            )
    details = {
        "instances": 25,
        "agree": agree,
        "test-family-size": len(amplitude_zero_test_family(conn[0])),
        "disagreements": disagreements,
    }
    return agree == 25, details


def _check_dualizing(opts) -> Tuple[bool, dict]:
    rng = Random(opts["seed"])
    fieldtag = opts["field"]
    table = {}
    ok = True
    fixtures = _fixture_set(fieldtag)
    for name in ("polynomial k[x,y]", "koszul on (x, xy) over k[x,y]"):
        A = fixtures[name]
        rep = dualizing_dg_module(A)
        R = rep.module
        infR = R.inf_h()
        dim = A.dimension()
        inj_ok = rep.injdim.value == infR + dim
        res = semifree_resolution(R)
        samples = []
        for _ in range(3):
            recipe = random_recipe(A, rng, rng.randrange(1, 4))
            M = apply_recipe(recipe, free_start(A))
            infM = M.inf_h()
            tensor = apply_recipe(recipe, tensor_start(res.sf))
            inf_tensor = tensor.inf_h()
            H = hom_semifree_into_dg(res, M)
            inf_hom = None
            for i in range(min(H.support(), default=0),
                           max(H.support(), default=0) + 1):
                if not H.cohomology_vanishes(i):
                    inf_hom = i
                    break
            tensor_ok = inf_tensor is None or inf_tensor >= infR + infM
            hom_ok = inf_hom is None or inf_hom <= infM - infR
            samples.append(
                {"inf-module": infM, "inf-tensor": inf_tensor,
                 "inf-hom": inf_hom, "tensor-bound": tensor_ok,
                 "hom-bound": hom_ok}
            )
            ok = ok and tensor_ok and hom_ok
        table[name] = {
            "injective-dimension": rep.injdim.value,
            "inf-of-dualizing": infR,
            "ring-dimension": dim,
            "identity-holds": inj_ok,
            "biduality": rep.biduality_ok,
            "samples": samples,
        }
        ok = ok and inj_ok and rep.biduality_ok
    return ok, {"fixtures": table}


def _check_cohen_macaulay(opts) -> Tuple[bool, dict]:
    fieldtag = opts["field"]
    fixtures = dict(_fixture_set(fieldtag))
    fixtures["trivial extension of k[x,y] by k[x,y]/(x) in one shift"] = (
        _designed_false(fieldtag)
    )
    table = {}
    ok = True
    saw_false = False
    for name, A in fixtures.items():
        cm = is_local_cohen_macaulay(A)
        fpd = small_finitistic_dims(A).fpd
        formula = fpd == A.dimension() - ring_amplitude(A)
        table[name] = {"cohen-macaulay": cm, "fpd": fpd,
                       "formula-holds": formula}
        ok = ok and cm == formula
        saw_false = saw_false or not cm
    return ok and saw_false, {"fixtures": table, "designed-false-seen": saw_false}


def _check_hochschild(opts) -> Tuple[bool, dict]:
    fieldtag = opts["field"]
    k = make_graded_ring(fieldtag, [])
    table = {}
    ok = True
    kaehler_ok = False
    for name, B in (
        ("k[x]", make_graded_ring(fieldtag, ["x"])),
        ("k[x,y]", make_graded_ring(fieldtag, ["x", "y"])),
    ):
        rep = hochschild_table(k, B)
        vanishing = hochschild_vanishing_check(rep)
        table[name] = {
            "threshold": rep.threshold,
            "vanishing-above-threshold": vanishing,
            "hh-ranks": {str(i): d["rank"] for i, d in rep.hh_lower.items()},
        }
        ok = ok and vanishing
        if name == "k[x]":
            first = rep.hh_lower.get(1, {"rank": 0})
            kaehler_ok = first["rank"] == 1 and first.get("twists") == [1]
            table[name]["first-hochschild"] = first
    return ok and kaehler_ok, {"maps": table}


def _scenario_doc() -> dict:
    return {
        "schema": "dgdim-scenario/1",
        "rings": {"R": {"variables": ["x", "y"]}},
        "dg_rings": {"A": {"kind": "koszul", "base": "R",
                           "elements": ["x", "x*y"]}},
        "modules": {"M": {"kind": "koszul", "ring": "A", "elements": ["y"]}},
        "queries": [
            {"op": "proj-dim", "module": "M", "expect": 1},
            {"op": "depth", "ring": "A", "expect": 1},
        ],
    }


def _check_report_determinism(opts) -> Tuple[bool, dict]:
    from .scenario import parse_scenario, run_scenario

    blobs = []
    for _ in range(2):
        scn = parse_scenario(_scenario_doc(), label="determinism-probe")
        blobs.append(emit_report(run_scenario(scn), "json"))
    same = blobs[0] == blobs[1]
    return same, {
        "bytes": len(blobs[0]),
        "identical": same,
        "queries": len(_scenario_doc()["queries"]),
    }


def _check_betti_independence(opts) -> Tuple[bool, dict]:
    rng = Random(opts["seed"])
    R = _ring_xy(opts["field"])
    base = GradedModule.cyclic(
        R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^3")]
    )
    reference = resolution_signature(base)
    mismatches = 0
    for _ in range(10):
        padded = redundant_presentation(base, rng)
        if resolution_signature(padded) != reference:
            mismatches += 1
    return mismatches == 0, {
        "presentations": 10,
        "mismatches": mismatches,
        "betti": {str(i): list(b) for i, b in sorted(reference.items())},
    }


CHECKS: List[Tuple[str, str, Callable]] = [
    (
        "koszul-projdim-equals-length",
        "the Koszul module on a proper sequence has projective dimension "
        "equal to the sequence length, for lengths 1..3 over all three "
        "ring families",
        _check_koszul_projdim,
    ),
    (
        "small-finitistic-equals-depth-minus-amplitude",
        "the small finitistic projective, flat and injective dimensions "
        "agree and equal sequential depth minus amplitude on the fixture set",
        _check_small_formulas,
    ),
    (
        "fpd-interval-collapses",
        "the finitistic projective dimension interval collapses at the "
        "lower endpoint on a Gorenstein instance and at the upper endpoint "
        "on a split trivial extension with a verified witness",
        _check_fpd_collapses,
    ),
    (
        "global-projdim-bound",
        "every module in the seeded perfect corpus satisfies projdim <= "
        "dim H0 - inf",
        _check_global_bound,
    ),
    (
        "depth-sensitive-projdim-bound",
        "every finite-projdim module over the connected corpus rings "
        "satisfies projdim <= sequential depth - inf - amplitude",
        _check_depth_bound,
    ),
    (
        "reduction-matches-ext-search",
        "the reduction-computed projective dimension agrees with a direct "
        "Ext-vanishing search against amplitude-zero test modules on 25 "
        "seeded instances",
        _check_reduction_vs_ext,
    ),
    (
        "dualizing-module-identities",
        "the dualizing module R satisfies injdim(R) = inf(R) + dim H0, "
        "inf RHom(R, M) <= inf(M) - inf(R), and inf(R tensor M) >= "
        "inf(R) + inf(M) on seeded modules",
        _check_dualizing,
    ),
    (
        "cohen-macaulay-matches-fpd-formula",
        "local Cohen-Macaulayness is equivalent to small fpd = dim - amp "
        "on the fixtures, including one designed-false trivial extension",
        _check_cohen_macaulay,
    ),
    (
        "hochschild-vanishing-above-dimension",
        "Hochschild homology and cohomology of k[x] and k[x,y] over k "
        "vanish above the enveloping dimension, and the first Hochschild "
        "homology of the affine line is free of rank one",
        _check_hochschild,
    ),
    (
        "report-determinism",
        "two runs of the same seeded scenario emit byte-identical JSON "
        "reports",
        _check_report_determinism,
    ),
    (
        "betti-presentation-independence",
        "minimal-resolution Betti tables agree across ten randomized "
        "redundant presentations of the same module",
        _check_betti_independence,
    ),
]


def check_ids() -> List[str]:
    return [cid for cid, _, _ in CHECKS]


def describe_check(check_id: str) -> str:
    for cid, claim, _ in CHECKS:
        if cid == check_id:
            return claim
    raise KeyError(check_id)


def run_check(check_id: str, options: Optional[dict] = None) -> CheckResult:
    opts = dict(_DEFAULT_SUITE_OPTIONS, **(options or {}))
    for cid, claim, fn in CHECKS:
        if cid == check_id:
            try:
                ok, details = fn(opts)
            except Exception as exc:  # failures are report entries
                return CheckResult(
                    cid, claim, FAIL, {"error": "%s: %s" % (type(exc).__name__, exc)}
                )
            return CheckResult(cid, claim, PASS if ok else FAIL, details)
    raise KeyError(check_id)


def verify_builtin_suite(filter_substring: str = "",
                         options: Optional[dict] = None) -> VerificationReport:
    opts = dict(_DEFAULT_SUITE_OPTIONS, **(options or {}))
    rep = VerificationReport(
        "builtin verification suite",
        options=dict(opts, filter=filter_substring),
    )
    t0 = time.time()
    for cid, claim, _ in CHECKS:
        if filter_substring and filter_substring not in cid:
            rep.add(CheckResult(cid, claim, SKIP))
            continue
        rep.add(run_check(cid, opts))
    rep.wall_time = time.time() - t0
    return rep
