"""Finitistic dimensions, certified intervals, witnesses, and Hochschild tables.

The small finitistic dimensions (over finitely generated modules) are
computed outright: all three coincide at seq.depth(A) - amp(A), and the
Koszul complex on a maximal regular sequence attains the value.  The large
FPD/FFD/FID are suprema over modules the engine cannot enumerate, so they
are reported as certified intervals

    dim H0(A) - amp(A)  <=  FPD(A)  <=  dim H0(A)

together with whatever collapses the instance admits: a Gorenstein ring
collapses to the lower endpoint, a witness module with
projdim + inf = dim H0(A) collapses to the upper one.  A witness of
projective dimension n is computed and *verified* for every n up to the
depth of some factor of A (the Koszul complex on a regular sequence of
length n; n = 0 is the ring).  Past the depth of a connected A the
construction needs a genuine localization, which is inhomogeneous and stays
outside the graded engine, so that recipe is emitted unverified.

The Hochschild section reads the projective dimension of the diagonal
over E = B (x)_A B for the flat desk-scale maps (identity, or base field
k -> B): proj_dim windows it by the main bound dim H0(E) - inf with
inf = 0, and the Tor/Ext tables come off the minimal complex it reports.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import base_change, dual_complex
from .core import GradedRing, Poly, PolyRing
from .dg import (
    DGModule,
    DGRing,
    ProductDGModule,
    ProductDGRing,
    build_ring_dg,
    factor_residue_module,
    h0_cyclic_dg_module,
    koszul_dg_module,
)
from .dimensions import (
    AnyRing,
    _connected,
    is_gorenstein,
    proj_dim,
    ring_amplitude,
    ring_free_module,
    sequential_depth,
)


class FinitisticReport:
    """Small values and/or the FPD interval, depending on the producing op."""

    def __init__(
        self,
        fpd: Optional[int] = None,
        ffd: Optional[int] = None,
        fid: Optional[int] = None,
        depth_certificate: Optional[dict] = None,
        small_witness: Optional[dict] = None,
        interval: Optional[Tuple[int, int]] = None,
        gorenstein_case: bool = False,
        witness_case: bool = False,
        fpd_value: Optional[int] = None,
        witnesses: Optional[List[dict]] = None,
    ):
        self.fpd = fpd
        self.ffd = ffd
        self.fid = fid
        self.depth_certificate = depth_certificate
        self.small_witness = small_witness
        self.interval = interval
        self.gorenstein_case = gorenstein_case
        self.witness_case = witness_case
        self.fpd_value = fpd_value
        self.witnesses = [] if witnesses is None else witnesses

    def to_json(self) -> dict:
        out: dict = {}
        if self.fpd is not None:
            out["fpd"] = self.fpd
            out["ffd"] = self.ffd
            out["fid"] = self.fid
            out["depth"] = self.depth_certificate
            out["witness"] = self.small_witness
        if self.interval is not None:
            out["interval"] = list(self.interval)
            out["gorenstein-case"] = self.gorenstein_case
            out["witness-case"] = self.witness_case
            out["fpd-value"] = self.fpd_value
            out["witnesses"] = self.witnesses
        return out


def small_finitistic_dims(A: AnyRing) -> FinitisticReport:
    """fpd = ffd = fid over finitely generated modules, all equal to
    seq.depth(A) - amp(A); the certificate carries the maximal regular
    sequence and the Koszul witness attaining the value."""
    _connected(A, "small finitistic dimensions")
    depth = sequential_depth(A)
    value = depth.value - ring_amplitude(A)
    rec = bass_witness_recipe(A, depth.value)
    winf = rec.module.inf_h() if rec.module is not None else None
    finite = rec.projdim is not None
    witness = {
        "module": rec.koszul_description,
        "projdim": rec.projdim,
        "inf": winf,
        "value": rec.projdim + winf if finite else None,
        "attains": finite and rec.projdim + winf == value,
    }
    return FinitisticReport(
        fpd=value,
        ffd=value,
        fid=value,
        depth_certificate=depth.to_json(),
        small_witness=witness,
    )


def fpd_bounds(A: AnyRing) -> FinitisticReport:
    """Certified interval [dim H0 - amp, dim H0] for the large FPD.

    Witness candidates (factor residue fields over a product, the depth
    Koszul complex and the free module over a connected ring) are scored
    by projdim + inf.  A witness reaching the upper endpoint collapses the
    interval upward; otherwise, for connected A with A and H0(A) both
    Gorenstein, the interval collapses to the lower endpoint.  The
    Gorenstein collapse is a local statement, so it is never applied to a
    product.
    """
    dim = A.dimension()
    amp = ring_amplitude(A)
    lo, hi = dim - amp, dim
    cands: List[Tuple[str, object]] = []
    if isinstance(A, ProductDGRing):
        for i in range(len(A.factors)):
            cands.append(
                ("residue field of factor %d" % i, factor_residue_module(A, i))
            )
    else:
        seq = sequential_depth(A).sequence
        if seq:
            cands.append(
                ("K(A; %s)" % ", ".join(seq), koszul_dg_module(A, list(seq), check=False))
            )
        cands.append(("A", ring_free_module(A)))
    wlist: List[dict] = []
    best: Optional[int] = None
    for label, M in cands:
        rep = proj_dim(M)
        if not rep.finite:
            continue
        inf_m = M.inf_h()
        val = rep.value + inf_m
        if val > hi:
            raise RuntimeError(
                "witness %s breaks the FPD upper bound: projdim %d + inf %d > %d"
                % (label, rep.value, inf_m, hi)
            )
        wlist.append(
            {"module": label, "projdim": rep.value, "inf": inf_m, "value": val}
        )
        best = val if best is None else max(best, val)
    report = FinitisticReport(interval=(lo, hi), witnesses=wlist)
    if best == hi:
        report.witness_case = True
        report.fpd_value = hi
    elif lo == hi:
        report.fpd_value = hi
    elif not isinstance(A, ProductDGRing):
        if _gorenstein_with_h0(A):
            report.gorenstein_case = True
            report.fpd_value = lo
    return report


def _gorenstein_with_h0(A: DGRing) -> bool:
    """A and H0(A) both Gorenstein.  The DG-ring of H0(A) is memoized on A,
    so the Gorenstein memo on it serves every later call."""
    if not is_gorenstein(A):
        return False
    if A._h0_dg is None:
        A._h0_dg = build_ring_dg(A.h0_ring())
    return is_gorenstein(A._h0_dg)


def gorenstein_projdim_bound_check(A: AnyRing, modules: Sequence[DGModule]) -> dict:
    """Sharpened bound projdim(M) <= dim H0 - amp - inf(M) for every
    finite-flat-dimension module, which is every module of finite
    projective dimension (dimensions.flat_dim); failures are hard errors."""
    _connected(A, "the sharpened Gorenstein bound")
    if not _gorenstein_with_h0(A):
        raise ValueError("the sharpened bound needs A and H0(A) Gorenstein")
    dim = A.dimension()
    amp = ring_amplitude(A)
    entries: List[dict] = []
    skipped = 0
    for M in modules:
        rep = proj_dim(M)
        if not rep.finite:
            skipped += 1
            continue
        inf_m = M.inf_h()
        bound = dim - amp - inf_m
        if rep.value > bound:
            raise RuntimeError(
                "sharpened Gorenstein bound failed: projdim %d > %d"
                % (rep.value, bound)
            )
        entries.append({"projdim": rep.value, "inf": inf_m, "bound": bound})
    return {
        "ring-dimension": dim,
        "amplitude": amp,
        "checked": len(entries),
        "skipped-infinite-flat": skipped,
        "entries": entries,
    }


class WitnessRecipe:
    """Localization datum for a module with projdim = target, sup = 0 and
    inf >= inf(A); verified only when the engine could actually compute the
    projective dimension."""

    def __init__(
        self,
        target: int,
        prime: Optional[str],
        sequence: List[str],
        inverted: Optional[str],
        koszul_description: str,
        verified: bool,
        module: Optional[object] = None,
        projdim: Optional[int] = None,
        notes: str = "",
    ):
        self.target = target
        self.prime = prime
        self.sequence = sequence
        self.inverted = inverted
        self.koszul_description = koszul_description
        self.verified = verified
        self.module = module
        self.projdim = projdim
        self.notes = notes

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "prime": self.prime,
            "sequence": list(self.sequence),
            "inverted": self.inverted,
            "koszul": self.koszul_description,
            "verified": self.verified,
            "projdim": self.projdim,
            "notes": self.notes,
        }


def _is_variable_generated(ring: GradedRing) -> bool:
    """True when every reduced Groebner element is a single variable, i.e.
    the defining ideal is a monomial prime."""
    for g in ring.gb:
        if len(g.terms) != 1:
            return False
        (mono,) = g.terms
        if sum(mono) != 1:
            return False
    return True


def _monomial_prime_of_height(
    H0: GradedRing, height: int
) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...], str]]:
    """A variable subset generating a prime of the requested height in H0,
    a parameter sequence inside it, and a surviving element s with
    (prime, s) proper; None when the monomial search space has nothing."""
    ambient = H0.ambient
    names = ambient.names
    dim = H0.dimension()
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            RS = H0.quotient([ambient.parse(v) for v in subset])
            if RS.is_zero_ring or not _is_variable_generated(RS):
                continue
            if dim - RS.dimension() != height:
                continue
            # parameter sequence: subset variables that each drop the
            # dimension of H0 by one more step
            seq: List[str] = []
            for v in subset:
                if len(seq) == height:
                    break
                cand = H0.quotient([ambient.parse(u) for u in seq + [v]])
                if not cand.is_zero_ring and cand.dimension() == dim - len(seq) - 1:
                    seq.append(v)
            if len(seq) != height:
                continue
            for s in names:
                if s in subset or RS.normal_form(ambient.parse(s)).is_zero():
                    continue
                if not RS.quotient([ambient.parse(s)]).is_zero_ring:
                    return subset, tuple(seq), s
    return None


def bass_witness_recipe(A: AnyRing, n: int) -> WitnessRecipe:
    """Recipe for a module with sup = 0, inf >= inf(A) and projdim = n.

    n = 0 gives the ring itself.  Otherwise the witness is K(F; first n
    elements of seq.depth(F)) on the first factor F (A itself when connected)
    with a depth sequence that long, zero on the others; it needs no
    localization, so it is computed and verified (projdim n, sup 0, inf >=
    inf(A)).  A connected A with seq.depth(A) < n has no finitely generated
    witness, since its projdim + inf >= n - amp(A) would exceed the small fpd
    seq.depth(A) - amp(A); the localization it needs inverts an element,
    which is inhomogeneous, so that recipe is emitted unverified, as it is
    when the depth's witness sequence falls short of n <= seq.depth(A).
    """
    dim = A.dimension()
    if not 0 <= n <= dim:
        raise ValueError("the target must satisfy 0 <= n <= dim H0(A)")
    if n == 0:
        M = ring_free_module(A)
        rep = proj_dim(M)
        return WitnessRecipe(
            target=0,
            prime=None,
            sequence=[],
            inverted=None,
            koszul_description="A",
            verified=rep.finite and rep.value == 0,
            module=M,
            projdim=rep.value,
            notes="the ring itself is its own degree-zero witness",
        )
    product = isinstance(A, ProductDGRing)
    for i, F in enumerate(A.factors if product else [A]):
        seq = sequential_depth(F).sequence[:n]
        if len(seq) < n:
            continue
        K = koszul_dg_module(F, seq, check=False)
        M = ProductDGModule(A, [
            K if G is F else DGModule(G, [], {}, check=False) for G in A.factors
        ]) if product else K
        rep = proj_dim(M)
        # inf(A) = -amp(A), since H(A) tops out at H0(A) != 0
        return WitnessRecipe(
            target=n,
            prime="idempotent of factor %d" % i if product else None,
            sequence=seq,
            inverted="the factor idempotent" if product else None,
            koszul_description=(
                "K(factor %d; %s) extended by zero" % (i, ", ".join(seq))
                if product else "K(A; %s)" % ", ".join(seq)
            ),
            verified=(rep.finite and rep.value == n and K.sup_h() == 0
                      and M.inf_h() >= -ring_amplitude(A)),
            module=M,
            projdim=rep.value if rep.finite else None,
            notes=(
                "projection onto a ring direct factor replaces the localization"
                if product else "a regular sequence needs no localization"
            ),
        )
    if product:
        raise ValueError(
            "recipe unavailable at desk scale: no product factor with a "
            "regular sequence of length %d" % n
        )
    found = _monomial_prime_of_height(A.h0_ring(), n - 1)
    if found is None:
        raise ValueError(
            "recipe unavailable at desk scale: no monomial prime of height %d "
            "with a proper complement" % (n - 1)
        )
    subset, seq, s = found
    depth, amp = sequential_depth(A).value, ring_amplitude(A)
    why = ("a finitely generated witness would have projdim + inf >= %d > %d "
           "= seq.depth(A) - amp(A), the small fpd" % (n - amp, depth - amp)
           if n > depth else "seq.depth(A) = %d is certified, but no candidate "
           "regular sequence of length %d was found" % (depth, n))
    return WitnessRecipe(
        target=n,
        prime="(" + ", ".join(subset) + ")" if subset else "(0)",
        sequence=list(seq),
        inverted=s,
        koszul_description="K(A_%s; %s)" % (s, ", ".join(seq)),
        verified=False,
        notes=(
            "inverting %s is inhomogeneous (A[T]/(1 - %s T)) and leaves the "
            "graded engine; emitted unverified, since %s" % (s, s, why)
        ),
    )


def ffd_witness(A: AnyRing, n: int) -> DGModule:
    """A module with flat dimension n - 1 (n = 1 gives the ring itself)."""
    dim = A.dimension()
    if not 1 <= n <= dim:
        raise ValueError("the flat witness needs 1 <= n <= dim H0(A)")
    if n == 1:
        return ring_free_module(A)
    recipe = bass_witness_recipe(A, n - 1)
    if recipe.verified and recipe.module is not None:
        return recipe.module
    raise ValueError(
        "recipe unavailable at desk scale: no verified projective witness of "
        "dimension %d to reuse" % (n - 1)
    )


# ---------- Hochschild tables ----------


class HochschildReport:
    def __init__(
        self,
        label: str,
        enveloping: GradedRing,
        threshold: int,
        terminated: bool,
        resolution_length: int,
        betti: Dict[int, Tuple[int, ...]],
        hh_lower: Dict[int, dict],
        hh_upper: Dict[int, dict],
        hh0_matches: bool,
    ):
        self.label = label
        self.enveloping = enveloping
        self.threshold = threshold
        self.terminated = terminated
        self.resolution_length = resolution_length
        self.betti = betti
        self.hh_lower = hh_lower
        self.hh_upper = hh_upper
        self.hh0_matches = hh0_matches

    def to_json(self) -> dict:
        return {
            "map": self.label,
            "enveloping-variables": list(self.enveloping.ambient.names),
            "threshold": self.threshold,
            "smooth-certificate": self.terminated,
            "resolution-length": self.resolution_length,
            "betti": {str(i): list(b) for i, b in sorted(self.betti.items())},
            "hh": {str(i): d for i, d in sorted(self.hh_lower.items())},
            "hh-upper": {str(i): d for i, d in sorted(self.hh_upper.items())},
            "hh0-is-the-ring": self.hh0_matches,
        }


def _doubled_ring(B: GradedRing) -> Tuple[GradedRing, List[Poly]]:
    """B (x)_k B presented with left/right copies of the variables, plus the
    diagonal differences l_v - r_v."""
    amb = B.ambient
    names = ["l%s" % n for n in amb.names] + ["r%s" % n for n in amb.names]
    degrees = list(amb.degrees) + list(amb.degrees)
    E_amb = PolyRing(amb.field, names, degrees)
    v = amb.nvars

    def embed(p: Poly, offset: int) -> Poly:
        terms = {}
        for mono, c in p.terms.items():
            new = [0] * (2 * v)
            for i, e in enumerate(mono):
                new[i + offset] = e
            terms[tuple(new)] = c
        return Poly(E_amb, terms)

    rels = [embed(r, 0) for r in B.relations] + [embed(r, v) for r in B.relations]
    E = GradedRing(E_amb, rels)
    diag = []
    for i in range(v):
        lm = [0] * (2 * v)
        lm[i] = 1
        rm = [0] * (2 * v)
        rm[v + i] = 1
        one = E_amb.field.one()
        diag.append(Poly(E_amb, {tuple(lm): one, tuple(rm): E_amb.field.neg(one)}))
    return E, diag


_IDENTITY_MAP = "identity on the ring"


def hochschild_map(A: GradedRing, B: GradedRing) -> str:
    """The label of the map A -> B when it is one of the flat maps the
    desk-scale engine supports, the identity or the base field into B;
    ValueError for any other."""
    if A.key() == B.key():
        return _IDENTITY_MAP
    if A.ambient.nvars == 0 and not A.relations:
        return "base field into the ring"
    raise ValueError(
        "the map from the source ring to the target must be the identity "
        "or the base field into the target; other flat maps are out of scope"
    )


def _group_entry(data) -> dict:
    return {"rank": len(data.generator_degrees),
            "twists": sorted(data.generator_degrees)}


def hochschild_table(A: GradedRing, B: GradedRing) -> HochschildReport:
    """HH_i = Tor_i over B (x)_A B and HH^i = Ext^i for i up to one past
    the vanishing threshold dim(B (x)_A B), for the maps hochschild_map
    supports.

    The threshold is the main bound dim H^0(E) - inf for the diagonal E/I,
    E = B (x)_A B, where inf = 0.  proj_dim of E/I reads it: its minimal
    resolution F and whether F ends inside the window, the smooth
    certificate.  Both tables come by base change: F tensor_E E/I is F over
    E/I, and Hom_E(F, E/I) is the dual of that over E/I.  A group's
    generators come in the order of the cover they live in, so each row
    lists its twists sorted."""
    label = hochschild_map(A, B)
    E, diag = (B, []) if label == _IDENTITY_MAP else _doubled_ring(B)
    threshold = E.dimension()
    rep = proj_dim(h0_cyclic_dg_module(build_ring_dg(E), diag))
    F = rep.complex
    length = -min(F.support()) if F.support() else 0
    T = base_change(F, diag)
    H = dual_complex(T)
    groups = [(T.cohomology(-i), H.cohomology(i)) for i in range(threshold + 2)]
    hh_lower = {i: _group_entry(lo) for i, (lo, _) in enumerate(groups)}
    hh_upper = {i: _group_entry(up) for i, (_, up) in enumerate(groups)}
    # T has nothing above degree 0 and H nothing below it, so HH_0 =
    # coker(d_T^{-1}) and HH^0 = ker(d_H^0); both must count like B
    matches = all(
        T.diff(-1).coker_dim_in_degree(t) == B.hilbert_function(t)
        and H.diff(0).kernel_dim_in_degree(t) == B.hilbert_function(t)
        for t in range(6)
    )
    return HochschildReport(
        label=label,
        enveloping=E,
        threshold=threshold,
        terminated=rep.finite,
        resolution_length=length,
        betti={i: tuple(sorted(F.cover(i).degrees)) for i in F.support()},
        hh_lower=hh_lower,
        hh_upper=hh_upper,
        hh0_matches=matches,
    )


def hochschild_vanishing_check(report: HochschildReport) -> bool:
    """Smoothness consequences: the diagonal resolves in length at most
    dim(B (x)_A B), and both tables vanish past that threshold.  A tower
    that did not terminate within its window is longer than the
    threshold."""
    if not report.terminated or report.resolution_length > report.threshold:
        return False
    return report.hh0_matches and not any(
        i > report.threshold and entry["rank"] != 0
        for table in (report.hh_lower, report.hh_upper)
        for i, entry in table.items()
    )


# ---------- attaining instances ----------


_GORENSTEIN_FAMILY = {
    (1, 1): (["x", "y"], ["x", "x*y"]),
    (1, 2): (["x", "y"], ["x", "x*y", "x*y^2"]),
    (2, 1): (["x", "y", "z"], ["x", "x*y"]),
    (2, 2): (["x", "y", "z"], ["x", "x*y", "x*z"]),
}


def fpd_example_pair(d: int, n: int):
    """One Gorenstein-family DG-ring with FPD = d - n and one split
    trivial-extension DG-ring with FPD = d; both have dim H0 = d and
    amplitude n."""
    from .core import make_graded_ring
    from .dg import build_koszul_dg, build_split_trivial_extension

    if (d, n) not in _GORENSTEIN_FAMILY:
        raise ValueError("attaining instances are tabulated for d, n in {1, 2}")
    names, elements = _GORENSTEIN_FAMILY[(d, n)]
    base = make_graded_ring("Q", names)
    gorenstein = build_koszul_dg(base, [base.parse(e) for e in elements])
    poly = make_graded_ring("Q", ["x", "y", "z"][:d])
    point = make_graded_ring("Q", [])
    trivial = build_split_trivial_extension(poly, point, n)
    return gorenstein, trivial
