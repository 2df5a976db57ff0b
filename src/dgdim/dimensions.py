"""Derived homological dimensions of DG-modules.

Everything here reduces to two computable functors: the reduction
H^0(A) (x)_A - of a semifree resolution, pruned to a minimal complex F of
free H^0(A)-modules, and derived Hom from (a semifree replacement of) the
residue field k.  Projective and flat dimension are both read off F: the
two agree for finitely generated cohomology, and k (x) F has zero
differential, so F's Betti table is Tor against k.  Finite answers come
with the table that exhibits them; infinite answers come with the bound
rule that certifies them, since a finite value would have to show up
inside the computed window.

Each cohomology scan stops where the theory settles its answer: inf and
sup stop at the first nonzero degree, the inf of a Koszul cone over a
module of known inf takes one vanishing test, and a Bass number is the
k-dimension of an Ext group that the maximal ideal kills, so it is counted
without presenting the group.

The graded-local conventions: the base is a connected graded quotient of
a polynomial ring, the maximal ideal is the irrelevant one, and the
residue field sits in internal degree zero.  Over a product ring the
dimension queries work one factor at a time and take the maximum, as
localization at the idempotents says; depth, regular sequences, local
cohomology and the Gorenstein test need a connected DG-ring.

The dimension queries and the depth search run on DGModule.over_model,
the regular-element model of dgring.py, which keeps every answer; the
reports still name A, its pool and its witnesses.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .complexes import dual_complex, prune_complex, trusted_degree
from .core.poly import Poly
from .core.ring import GradedRing
from .dg import (
    DGGen,
    DGModule,
    DGRing,
    ProductDGModule,
    ProductDGRing,
    SemifreeResolution,
    build_ring_dg,
    certify_termination,
    cone_dg,
    free_dg_module,
    hom_semifree_into_dg,
    multiplication_map,
    per_factor,
    reduce_to_h0,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
)

AnyRing = Union[DGRing, ProductDGRing]
AnyModule = Union[DGModule, ProductDGModule]


# ---------- ring-level profile helpers ----------


def ring_free_module(A: AnyRing):
    return per_factor(free_dg_module, A, [(0, 0)])


def ring_amplitude(A: AnyRing) -> int:
    """sup minus inf of H(A); 0 for an ordinary ring.  Memoized on a
    connected DG-ring, which is immutable once built."""
    if isinstance(A, ProductDGRing):
        return max(ring_amplitude(f) for f in A.factors)
    if A._amplitude is None:
        amp = free_dg_module(A, [(0, 0)]).amp_h()
        if amp is None:
            raise ValueError("the zero DG-ring has no amplitude")
        A._amplitude = amp
    return A._amplitude


def _connected(A: AnyRing, what: str) -> None:
    if isinstance(A, ProductDGRing):
        raise ValueError(what + " needs a graded-local (connected) DG-ring")


# ---------- reports ----------


class DimensionReport:
    """Outcome of a projective/flat/injective dimension computation.

    value is the dimension when finite; infinite/acyclic make it None.
    cutoff is the resolution floor that was used (None: untruncated).
    """

    def __init__(
        self,
        kind: str,
        value: Optional[int],
        infinite: bool = False,
        acyclic: bool = False,
        cutoff: Optional[int] = None,
        certificate: Optional[dict] = None,
        reduction: str = "",
    ):
        self.kind = kind
        self.value = value
        self.infinite = infinite
        self.acyclic = acyclic
        self.cutoff = cutoff
        self.certificate = {} if certificate is None else certificate
        self.reduction = reduction

    @property
    def finite(self) -> bool:
        return not self.infinite and not self.acyclic

    def to_json(self) -> dict:
        if self.infinite:
            value = "infinity"
        elif self.acyclic:
            value = "-infinity"
        else:
            value = self.value
        return {
            "kind": self.kind,
            "value": value,
            "cutoff": self.cutoff,
            "certificate": self.certificate,
            "reduction-trace": self.reduction,
        }


def _combine_parts(kind: str, parts: List[DimensionReport]) -> DimensionReport:
    """Dimension over a product is the maximum over the factors."""
    if all(p.acyclic for p in parts):
        return DimensionReport(kind, None, acyclic=True, reduction="product")
    if any(p.infinite for p in parts):
        keep = next(p for p in parts if p.infinite)
        return DimensionReport(
            kind,
            None,
            infinite=True,
            cutoff=keep.cutoff,
            certificate={"factor": parts.index(keep), **keep.certificate},
            reduction="product factor " + str(parts.index(keep)),
        )
    vals = [p.value for p in parts if not p.acyclic]
    best = max(vals)
    winner = next(p for p in parts if not p.acyclic and p.value == best)
    return DimensionReport(
        kind,
        best,
        cutoff=winner.cutoff,
        certificate={
            "factors": [p.to_json()["value"] for p in parts],
        },
        reduction="max over product factors",
    )


# ---------- projective and flat dimension ----------


# kind -> (certificate key, label of its table, bound rule).  Flat
# certifies F's Betti table as Tor against H0/(x,y,...), which is k.
_FREE_KINDS = {
    "proj": (
        "betti",
        None,
        "finite projective dimension obeys projdim <= dim H0 - inf = %d; "
        "the minimal tower still carries cohomology below floor %d",
    ),
    "flat": (
        "tor",
        "H0/(%s)",
        "finite flat dimension of finitely generated cohomology equals the "
        "projective dimension and obeys the same bound dim H0 - inf = %d; "
        "the tower persists below floor %d",
    ),
}


def _free_dimension(kind: str, M: AnyModule) -> DimensionReport:
    """Projective or flat dimension, read off the minimal reduction.

    The reduction of a minimal semifree resolution, pruned, is a minimal
    complex F of free H^0(A)-modules; the dimension is minus its lowest
    component.  A finite value obeys the bound dim H^0(A) - inf(M), so res
    is windowed at floor = -(cap + 2) and has its termination certified;
    once the minimal tower persists below the floor the dimension is
    infinite, and the covers in the trusted degrees are recorded.
    """
    if isinstance(M, ProductDGModule):
        return _combine_parts(kind, [_free_dimension(kind, p) for p in M.parts])
    M = M.over_model()
    infM = M.inf_h()
    if infM is None:
        return DimensionReport(kind, None, acyclic=True,
                               reduction="module is acyclic")
    cap = M.A.dimension() - infM
    floor = -(cap + 2)
    res = certify_termination(semifree_resolution(M, window_lo=floor))
    F = prune_complex(reduce_to_h0(res))
    key, label, rule = _FREE_KINDS[kind]
    table = {
        str(c): list(F.cover(c).degrees)
        for c in F.support()
        if trusted_degree(c, F.known_lo)
    }
    certified = table if label is None else {
        label % ",".join(str(g) for g in F.ring.variables()): table
    }
    trace = "semifree tower (%d stages), reduction to H^0, pruned" % len(
        res.stages
    )
    if not res.terminated:
        return DimensionReport(
            kind,
            None,
            infinite=True,
            cutoff=floor,
            certificate={key + "-trusted": certified,
                         "rule": rule % (cap, floor)},
            reduction=trace,
        )
    if not table:
        return DimensionReport(kind, None, acyclic=True,
                               cutoff=floor, reduction=trace)
    return DimensionReport(
        kind,
        -min(map(int, table)),
        cutoff=floor,
        certificate={key: certified},
        reduction=trace,
    )


def proj_dim(M: AnyModule) -> DimensionReport:
    """Projective dimension: minus the lowest component of the minimal
    reduction, with its Betti table (_free_dimension)."""
    return _free_dimension("proj", M)


def flat_dim(M: AnyModule) -> DimensionReport:
    """Flat dimension, which for finitely generated cohomology is the
    projective dimension (Avramov-Foxby 1991): the same minimal complex,
    whose Betti table is Tor against the residue field k
    (_free_dimension)."""
    return _free_dimension("flat", M)


# ---------- injective dimension ----------


def bass_numbers(
    M: DGModule, scan_lo: int, scan_hi: int
) -> Tuple[Dict[int, int], Optional[SemifreeResolution]]:
    """mu^i = rank of Ext^i(k, M) for scan_lo <= i <= scan_hi.

    Ext^i(k, M) is killed by the maximal ideal m, because it is killed
    through k.  So Ext^i = Ext^i/m Ext^i, and mu^i, its k-dimension, is
    its number of minimal generators: the cycle generators of Hom(SF, M)
    at degree i that stay independent modulo the image.  No presentation
    of Ext^i is built.

    The residue tower SF is windowed at w = mslot - scan_hi, where mslot
    is the lowest slot degree of M, and that is as deep as the scan needs.
    The tower adds a stage for every position >= w - 1, and its positions
    strictly decrease (asserted in semifree_resolution), so continuing it
    gives a semifree resolution F of k containing SF, with F/SF free on
    generators at positions <= w - 2.  A map of degree n sends a generator
    at position p into M^(p+n), and M^j = 0 for j < mslot; so
    Hom(F/SF, M)^n = 0 for n <= mslot - w + 1.  Hom(-, M) of the
    degreewise split 0 -> SF -> F -> F/SF -> 0 gives a long exact
    sequence, so H^n Hom(SF, M) = Ext^n(k, M) for n <= mslot - w = scan_hi.
    This is the rule known_hi = mslot - known_lo of hom_semifree_into_dg
    (the tower reports known_lo = w - 1), which the guard below checks."""
    A = M.A
    mslot = M.min_slot_cohdeg()
    if mslot is None:
        return {}, None
    window = mslot - scan_hi
    # memoized on A by window: a Gorenstein test and the dualizing module
    # it guards ask for the same resolution
    res = A._residue_resolutions.get(window)
    if res is None:
        res = semifree_resolution(residue_dg_module(A), window_lo=window)
        A._residue_resolutions[window] = res
    H = hom_semifree_into_dg(res, M)
    mus: Dict[int, int] = {}
    for i in range(scan_lo, scan_hi + 1):
        if not H._trust(i):
            raise RuntimeError("Bass window fell short at degree %d" % i)
        mus[i] = len(H.cohomology(i).generator_degrees)
    return mus, res


def inj_dim(M: AnyModule) -> DimensionReport:
    """Injective dimension from the Bass numbers mu^i = rank Ext^i(k, M).

    A finite value is the top nonzero Bass number; by the depth formula it
    cannot exceed dim H^0(A) + sup(M), so Bass numbers persisting past
    that bound certify infinity (the no-gap behaviour of Bass numbers over
    a graded-local ring is the recorded hypothesis of the rule).
    """
    if isinstance(M, ProductDGModule):
        return _combine_parts("inj", [inj_dim(p) for p in M.parts])
    M = M.over_model()
    A = M.A
    infM = M.inf_h()
    supM = M.sup_h()
    if infM is None:
        return DimensionReport("inj", None, acyclic=True,
                               reduction="module is acyclic")
    ampA = ring_amplitude(A)
    cap = A.dimension() + supM
    scan_lo = infM - ampA - 1
    scan_hi = cap + ampA + 2
    mus, res = bass_numbers(M, scan_lo, scan_hi)
    nonzero = [i for i, m in mus.items() if m]
    trace = "Bass numbers via Hom from the resolved residue field, " \
        "degrees %d..%d" % (scan_lo, scan_hi)
    cert = {"bass": {str(i): mus[i] for i in sorted(mus) if mus[i]}}
    if not nonzero:
        return DimensionReport("inj", None, acyclic=True,
                               cutoff=scan_hi, reduction=trace)
    top = max(nonzero)
    if top <= cap:
        return DimensionReport(
            "inj", top, cutoff=scan_hi, certificate=cert, reduction=trace
        )
    rule = (
        "a finite injective dimension obeys injdim <= dim H0 + sup = %d; "
        "Bass numbers persist through degree %d" % (cap, top)
    )
    cert["rule"] = rule
    return DimensionReport(
        "inj", None, infinite=True, cutoff=scan_hi,
        certificate=cert, reduction=trace,
    )


# ---------- regular sequences and depth ----------


class RegSeqReport:
    def __init__(
        self,
        regular: bool,
        length: int,
        first_failure: Optional[int],
        base_inf: Optional[int],
        koszul_infs: List[Optional[int]],
    ):
        self.regular = regular
        self.length = length
        self.first_failure = first_failure
        self.base_inf = base_inf
        self.koszul_infs = koszul_infs


def is_regular_sequence(A: AnyRing, elements: Sequence) -> RegSeqReport:
    """Koszul criterion: a_1..a_l is A-regular iff inf K(A; a) = inf(A),
    checked prefix by prefix."""
    _connected(A, "the regular-sequence test")
    for a in elements:
        p = A.base.parse(a) if isinstance(a, str) else a
        q = A.base.normal_form(p)
        if not q.is_zero() and q.degree() == 0:
            raise ValueError("the sequence generates the unit ideal")
    return module_sequence_regular(free_dg_module(A, [(0, 0)]), elements)


def _cone_inf(K: DGModule, t: Optional[int], a: Poly) -> Optional[int]:
    """inf of K = cone(a: M(-|a|) -> M), given t = inf(M), by one vanishing
    test.  For a zero or positive-degree a the long exact sequence of the
    cone gives H^j(K) = 0 below t - 1 and H^{t-1}(K) = ker(a on H^t M),
    while H^t(K) maps onto coker(a on H^t M), nonzero by Nakayama.  So
    inf(K) is t - 1 when H^{t-1}(K) is nonzero and t otherwise.  A unit a
    or an acyclic M takes the full scan instead."""
    if t is None or (a and a.degree() == 0):
        return K.inf_h()
    return t if K.cohomology_vanishes(t - 1) else t - 1


def module_sequence_regular(M: DGModule, elements: Sequence) -> RegSeqReport:
    """Same criterion against a module: inf(K(A;a) (x) M) must stay at
    inf(M) for every prefix.  Each prefix is the cone of multiplication by
    its last element on the one before it, so while the prefix is regular
    the cone's inf takes one vanishing test (_cone_inf)."""
    base = M.A.base
    target = M.inf_h()
    infs: List[Optional[int]] = []
    K = M
    for t, a in enumerate(elements):
        p = a if isinstance(a, Poly) else base.parse(str(a))
        q = base.normal_form(p)
        K = cone_dg(multiplication_map(K, q), check=False)
        val = _cone_inf(K, target, q)
        infs.append(val)
        if val != target:
            return RegSeqReport(False, len(elements), t, target, infs)
    return RegSeqReport(True, len(elements), None, target, infs)


def default_sequence_pool(A: DGRing) -> List[Poly]:
    """Homogeneous candidates of degree <= 2: the variables, matching-degree
    sums and differences, and quadratic monomials (zero after reduction
    drops out)."""
    base = A.base
    vars_ = base.variables()
    pool: List[Poly] = []
    seen = set()

    def add(p: Poly) -> None:
        q = base.normal_form(p)
        if q.is_zero():
            return
        key = str(q)
        if key not in seen:
            seen.add(key)
            pool.append(q)

    for v in vars_:
        add(v)
    for i in range(len(vars_)):
        for j in range(i + 1, len(vars_)):
            if vars_[i].degree() == vars_[j].degree():
                add(vars_[i] + vars_[j])
                add(vars_[i] + (-vars_[j]))
    for i in range(len(vars_)):
        for j in range(i, len(vars_)):
            add(base.mul(vars_[i], vars_[j]))
    return pool


class DepthReport:
    def __init__(
        self, value: int, sequence: List[str], pool_size: int, exhaustive: bool
    ):
        self.value = value
        self.sequence = sequence
        self.pool_size = pool_size
        self.exhaustive = exhaustive

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "sequence": list(self.sequence),
            "pool-size": self.pool_size,
            "exhaustive": self.exhaustive,
        }


def sequential_depth(X: Union[AnyRing, DGModule]) -> DepthReport:
    """Longest regular sequence from the degree-<=2 pool, by depth-first
    search with prefix pruning (every prefix of a regular sequence is
    regular, so dead prefixes cut the tree).

    The search is exhaustive over the pool; maximality beyond the pool is
    not claimed, which is what the exhaustive flag records.  The value is
    capped by dim H^0(A), so the search stops early when it gets there.
    The depth of a DG-ring is memoized on the ring; the report is shared,
    so callers must not change it.
    """
    if isinstance(X, (DGRing, ProductDGRing)):
        _connected(X, "sequential depth")
        if X._depth is None:
            X._depth = sequential_depth(free_dg_module(X, [(0, 0)]))
        return X._depth
    M = X
    A = M.A
    _connected(A, "sequential depth")
    pool = default_sequence_pool(A)
    cap = max(A.dimension(), 0)
    target = M.inf_h()
    best: List[Poly] = []

    def regular_after(prefix_module: DGModule, p: Poly) -> Optional[DGModule]:
        # every prefix module passed here has inf equal to target
        K = cone_dg(multiplication_map(prefix_module, p), check=False)
        if _cone_inf(K, target, p) != target:
            return None
        return K

    def dfs(prefix: List[Poly], module: DGModule) -> bool:
        nonlocal best
        if len(prefix) > len(best):
            best = list(prefix)
        if len(prefix) >= cap:
            return True
        used = {str(p) for p in prefix}
        for p in pool:
            if str(p) in used:
                continue
            nxt = regular_after(module, p)
            if nxt is None:
                continue
            if dfs(prefix + [p], nxt):
                return True
        return False

    if cap > 0 and target is not None:
        # the search runs on the model, through A's pool: each cone's
        # multiplication map reduces the element into the model's base
        dfs([], M.over_model())
    value = len(best)
    if value > A.dimension():
        raise AssertionError("depth exceeded dim H^0, which cannot happen")
    return DepthReport(
        value=value,
        sequence=[str(p) for p in best],
        pool_size=len(pool),
        exhaustive=True,
    )


# ---------- local cohomology ----------


class LocalCohomologyReport:
    def __init__(self, amplitude: int, degrees: List[int]):
        self.amplitude = amplitude
        self.degrees = degrees


def _ambient_dg_module(X: DGModule, P_ring: GradedRing) -> DGModule:
    """X viewed over the ambient polynomial ring: one h0-kind generator per
    slot, relations enlarged by the defining ideal of the base."""
    RP = build_ring_dg(P_ring)
    A = X.A
    base_rels = tuple(A.base.relations)
    slot_index: Dict[Tuple[int, str], int] = {}
    gens: List[DGGen] = []
    for c in sorted(X.slots_by_degree()):
        for (j, sym) in X.slots_by_degree()[c]:
            slot_index[(j, sym)] = len(gens)
            gens.append(
                DGGen(
                    X.slot_cohdeg(j, sym),
                    X.slot_twist(j, sym),
                    "h0",
                    rels=tuple(X.slot_relations(j, sym)) + base_rels,
                )
            )
    U = X.underlying()
    diff: Dict[int, Dict[int, object]] = {}
    for c in sorted(X.slots_by_degree()):
        src_slots = X.slots_by_degree()[c]
        tgt_slots = X.slots_by_degree().get(c + 1)
        if not tgt_slots:
            continue
        mat = U.diff(c)
        for src, col in zip(src_slots, mat.cols):
            row = {
                slot_index[tgt_slots[t]]: RP.from_base(col[t]) for t in sorted(col)
            }
            if row:
                diff[slot_index[src]] = row
    return DGModule(RP, gens, diff, check=True)


def local_cohomology_amplitude(
    X: Union[AnyRing, DGModule]
) -> LocalCohomologyReport:
    """Amplitude of the derived torsion (local cohomology) of X at the
    irrelevant ideal, through graded duality over the ambient polynomial
    ring: H^j_m(X) is nonzero exactly when Ext^{v-j}_P(X, P) is, where v
    is the number of ambient variables.  The tower is windowed two degrees
    below the syzygy bound v - inf <= v - (bottom slot) over P."""
    if isinstance(X, (DGRing, ProductDGRing)):
        X = ring_free_module(X)
    A = X.A
    _connected(A, "local cohomology")
    P_ring = GradedRing(A.base.ambient, [])
    v = P_ring.dimension()
    window = X.min_slot_cohdeg() - v - 2
    res = certify_termination(
        semifree_resolution(_ambient_dg_module(X, P_ring), window_lo=window)
    )
    F = prune_complex(reduce_to_h0(res))
    H = dual_complex(F)
    degs: List[int] = []
    if F.support():
        lo, hi = -max(F.support()), -min(F.support())
        for j in range(lo, hi + 1):
            if not H.cohomology_vanishes(j):
                degs.append(j)
    if not degs:
        raise ValueError("acyclic input has no local cohomology")
    rgamma = sorted(v - j for j in degs)
    return LocalCohomologyReport(amplitude=rgamma[-1] - rgamma[0], degrees=rgamma)


def is_local_cohen_macaulay(A: AnyRing) -> bool:
    """amp of the derived torsion of A equals amp(A)."""
    _connected(A, "local Cohen-Macaulay test")
    return local_cohomology_amplitude(A).amplitude == ring_amplitude(A)


# ---------- dualizing modules ----------


class DualizingReport:
    def __init__(
        self,
        module: DGModule,
        shift: int,
        normalized_inf: int,
        injdim: DimensionReport,
        biduality_ok: bool,
    ):
        self.module = module
        self.shift = shift
        self.normalized_inf = normalized_inf
        self.injdim = injdim
        self.biduality_ok = biduality_ok


def is_gorenstein(A: AnyRing) -> bool:
    """Finite injective dimension over itself.

    Memoized on the DG-ring: the Bass scan behind a negative answer walks
    an infinite minimal resolution to its cutoff, which is far too slow to
    repeat."""
    _connected(A, "the Gorenstein test")
    if A._gorenstein is None:
        A._gorenstein = inj_dim(free_dg_module(A, [(0, 0)])).finite
    return A._gorenstein


def dualizing_dg_module(A: AnyRing) -> DualizingReport:
    """A shifted copy of A as the dualizing module, for DG-rings of finite
    self-injective dimension; normalized so inf(R) = -dim H^0(A).  The
    internal twist stays zero: the graded structure plays no role in the
    normalization.
    """
    _connected(A, "dualizing module construction")
    if not is_gorenstein(A):
        raise ValueError(
            "dualizing construction implemented only when A has finite "
            "self-injective dimension"
        )
    Afree = free_dg_module(A, [(0, 0)])
    infA = Afree.inf_h()
    s = infA + A.dimension()
    R = shift_dg(Afree, s)
    inj = inj_dim(R)
    # biduality: RHom(R, R) must have the cohomology of A itself
    H = hom_semifree_into_dg(SemifreeResolution(R, []), R)
    ok = True
    for c in range(infA - 1, 2):
        want = Afree.cohomology(c).generator_degrees
        got = H.cohomology(c).generator_degrees
        if want != got:
            ok = False
    return DualizingReport(
        module=R,
        shift=s,
        normalized_inf=R.inf_h(),
        injdim=inj,
        biduality_ok=ok,
    )
