"""Derived homological dimensions of DG-modules.

Everything here reduces to three computable functors: the reduction
H^0(A) (x)_A -, tensor reductions against quotient rings of H^0(A), and
derived Hom from (a semifree replacement of) the residue field.  Finite
answers come with the pruned table that exhibits them; infinite answers
come with the bound rule that certifies them, since a finite value would
have to show up inside the computed window.

The graded-local conventions: the base is a connected graded quotient of
a polynomial ring, the maximal ideal is the irrelevant one, and the
residue field sits in internal degree zero.  Product rings are handled
one factor at a time with maxima/minima in the places where localization
at the idempotents says so.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .complexes import (
    FreeComplex,
    cohomology_data,
    hom_free_into_module,
    prune_complex,
)
from .core.module import GradedModule
from .core.poly import Poly
from .core.ring import GradedRing
from .dg import (
    DGGen,
    DGModule,
    DGRing,
    ProductDGModule,
    ProductDGRing,
    build_ring_dg,
    cone_dg,
    free_dg_module,
    hom_semifree_into_dg,
    koszul_dg_module,
    multiplication_map,
    reduce_to_h0,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
    tensor_reduce,
)

AnyRing = Union[DGRing, ProductDGRing]
AnyModule = Union[DGModule, ProductDGModule]


# ---------- ring-level profile helpers ----------


def ring_free_module(A: AnyRing):
    if isinstance(A, ProductDGRing):
        from .dg import product_free_module

        return product_free_module(A, [(0, 0)])
    return free_dg_module(A, [(0, 0)])


def ring_amplitude(A: AnyRing) -> int:
    """sup minus inf of H(A); 0 for an ordinary ring."""
    if isinstance(A, ProductDGRing):
        return max(ring_amplitude(f) for f in A.factors)
    amp = free_dg_module(A, [(0, 0)]).amp_h()
    if amp is None:
        raise ValueError("the zero DG-ring has no amplitude")
    return amp


def ring_inf(A: AnyRing) -> int:
    if isinstance(A, ProductDGRing):
        return min(ring_inf(f) for f in A.factors)
    val = free_dg_module(A, [(0, 0)]).inf_h()
    if val is None:
        raise ValueError("the zero DG-ring has no inf")
    return val


def _connected(A: AnyRing, what: str) -> None:
    if isinstance(A, ProductDGRing):
        raise ValueError(what + " needs a graded-local (connected) DG-ring")


# ---------- reports ----------


@dataclass
class DimensionReport:
    """Outcome of a projective/flat/injective dimension computation.

    value is the dimension when finite; infinite/acyclic make it None.
    cutoff is the resolution floor that was used (None: untruncated).
    """

    kind: str
    value: Optional[int]
    infinite: bool = False
    acyclic: bool = False
    cutoff: Optional[int] = None
    certificate: dict = field(default_factory=dict)
    reduction: str = ""

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


def _betti_table(F: FreeComplex) -> Dict[str, List[int]]:
    return {
        str(c): list(F.component(c).degrees)
        for c in F.support()
    }


# ---------- projective dimension ----------


def proj_dim(M: AnyModule) -> DimensionReport:
    """Projective dimension, read off the minimal reduction.

    The reduction of a minimal semifree resolution is a minimal complex of
    free H^0(A)-modules; the dimension is minus its lowest component.  A
    finite value obeys projdim <= dim H^0(A) - inf(M), so once the minimal
    tower persists past that bound the dimension is infinite and the floor
    is recorded in the certificate.
    """
    if isinstance(M, ProductDGModule):
        return _combine_parts("proj", [proj_dim(p) for p in M.parts])
    A = M.A
    infM = M.inf_h()
    if infM is None:
        return DimensionReport("proj", None, acyclic=True,
                               reduction="module is acyclic")
    cap = A.dimension() - infM
    floor = -(cap + 2)
    res = semifree_resolution(M, window_lo=floor)
    F = prune_complex(reduce_to_h0(res.sf))
    trace = "semifree tower (%d stages), reduction to H^0, pruned" % len(
        res.stages
    )
    if res.terminated:
        supp = F.support()
        if not supp:
            return DimensionReport("proj", None, acyclic=True,
                                   cutoff=floor, reduction=trace)
        value = -min(supp)
        return DimensionReport(
            "proj",
            value,
            cutoff=floor,
            certificate={"betti": _betti_table(F)},
            reduction=trace,
        )
    trusted = {
        str(c): list(F.component(c).degrees)
        for c in F.support()
        if F.known_lo is None or c > F.known_lo
    }
    rule = (
        "finite projective dimension obeys projdim <= dim H0 - inf = %d; "
        "the minimal tower still carries cohomology below floor %d"
        % (cap, floor)
    )
    return DimensionReport(
        "proj",
        None,
        infinite=True,
        cutoff=floor,
        certificate={"betti-trusted": trusted, "rule": rule},
        reduction=trace,
    )


# ---------- flat dimension ----------


def test_ideal_family(A: DGRing) -> List[Tuple[str, List[Poly]]]:
    """Quotients of H^0(A) by variable subsets: the finite test family for
    Tor computations (the full subset is the residue field)."""
    out: List[Tuple[str, List[Poly]]] = []
    vars_ = A.base.variables()
    for r in range(len(vars_) + 1):
        for S in combinations(range(len(vars_)), r):
            gens = [vars_[i] for i in S]
            label = "H0/(%s)" % ",".join(str(g) for g in gens)
            out.append((label, gens))
    return out


def flat_dim(M: AnyModule) -> DimensionReport:
    """Flat dimension via Tor against the variable-subset quotients.

    For finitely generated cohomology this agrees with proj_dim, and the
    infinite case is certified the same way; the point of the separate
    computation is that the Tor tables are their own witness.
    """
    if isinstance(M, ProductDGModule):
        return _combine_parts("flat", [flat_dim(p) for p in M.parts])
    A = M.A
    infM = M.inf_h()
    if infM is None:
        return DimensionReport("flat", None, acyclic=True,
                               reduction="module is acyclic")
    cap = A.dimension() - infM
    floor = -(cap + 2)
    res = semifree_resolution(M, window_lo=floor)
    tor_tables: Dict[str, Dict[str, List[int]]] = {}
    deepest: Optional[int] = None
    for label, gens in test_ideal_family(A):
        F = tensor_reduce(res.sf, gens)
        trust_lo = F.known_lo + 1 if F.known_lo is not None else None
        table: Dict[str, List[int]] = {}
        lo = min(F.support(), default=0)
        hi = max(F.support(), default=0)
        for c in range(lo, hi + 1):
            if trust_lo is not None and c < trust_lo:
                continue
            data = cohomology_data(F, c)
            if not data.is_zero():
                table[str(c)] = list(data.generator_degrees)
                if deepest is None or c < deepest:
                    deepest = c
        tor_tables[label] = table
    trace = "semifree tower (%d stages), tensor against %d test quotients" % (
        len(res.stages), len(tor_tables)
    )
    if res.terminated:
        if deepest is None:
            return DimensionReport("flat", None, acyclic=True,
                                   cutoff=floor, reduction=trace)
        return DimensionReport(
            "flat",
            -deepest,
            cutoff=floor,
            certificate={"tor": tor_tables},
            reduction=trace,
        )
    rule = (
        "finite flat dimension of finitely generated cohomology equals the "
        "projective dimension and obeys the same bound dim H0 - inf = %d; "
        "the tower persists below floor %d" % (cap, floor)
    )
    return DimensionReport(
        "flat",
        None,
        infinite=True,
        cutoff=floor,
        certificate={"tor-trusted": tor_tables, "rule": rule},
        reduction=trace,
    )


# ---------- injective dimension ----------


def bass_numbers(
    M: DGModule, scan_lo: int, scan_hi: int
) -> Tuple[Dict[int, int], SemifreeLike]:
    """mu^i = rank of Ext^i(k, M) for scan_lo <= i <= scan_hi."""
    A = M.A
    mslot = M.min_slot_cohdeg()
    if mslot is None:
        return {}, None
    window = mslot - scan_hi - 2
    res = semifree_resolution(residue_dg_module(A), window_lo=window)
    H = hom_semifree_into_dg(res.sf, M)
    mus: Dict[int, int] = {}
    for i in range(scan_lo, scan_hi + 1):
        if not H._trust(i):
            raise RuntimeError("Bass window fell short at degree %d" % i)
        mus[i] = len(H.cohomology(i).generator_degrees)
    return mus, res


SemifreeLike = object  # resolution handle kept only for stage counts


def inj_dim(M: AnyModule) -> DimensionReport:
    """Injective dimension from the Bass numbers mu^i = rank Ext^i(k, M).

    A finite value is the top nonzero Bass number; by the depth formula it
    cannot exceed dim H^0(A) + sup(M), so Bass numbers persisting past
    that bound certify infinity (the no-gap behaviour of Bass numbers over
    a graded-local ring is the recorded hypothesis of the rule).
    """
    if isinstance(M, ProductDGModule):
        return _combine_parts("inj", [inj_dim(p) for p in M.parts])
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


def koszul_on_module(M: DGModule, elements: Sequence) -> DGModule:
    """K(A; elements) (x)_A M: iterated cones of multiplication on M."""
    out = M
    for a in elements:
        p = a if isinstance(a, Poly) else M.A.base.parse(str(a))
        p = M.A.base.normal_form(p)
        out = cone_dg(multiplication_map(out, p), check=False)
    return out


@dataclass
class RegSeqReport:
    regular: bool
    length: int
    first_failure: Optional[int]
    base_inf: Optional[int]
    koszul_infs: List[Optional[int]]

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "length": self.length,
            "first-failure": self.first_failure,
            "base-inf": self.base_inf,
            "koszul-infs": self.koszul_infs,
        }


def is_regular_sequence(A: AnyRing, elements: Sequence) -> RegSeqReport:
    """Koszul criterion: a_1..a_l is A-regular iff inf K(A; a) = inf(A),
    checked prefix by prefix.  Over a product the coordinates must be
    regular over every factor."""
    if isinstance(A, ProductDGRing):
        reports: List[Optional[RegSeqReport]] = []
        for i, fac in enumerate(A.factors):
            coords = [row[i] for row in elements]
            try:
                reports.append(is_regular_sequence(fac, coords))
            except ValueError:
                # unit ideal in this coordinate: K(factor; a) is acyclic,
                # so the factor certainly fails the inf criterion
                reports.append(None)
        if all(r is None for r in reports):
            raise ValueError("the sequence generates the unit ideal")
        bad = [0 if r is None else r.first_failure
               for r in reports if r is None or not r.regular]
        return RegSeqReport(
            regular=not bad,
            length=len(elements),
            first_failure=min(bad) if bad else None,
            base_inf=ring_inf(A),
            koszul_infs=[r.koszul_infs[-1] if r is not None and r.koszul_infs
                         else None for r in reports],
        )
    for a in elements:
        p = A.base.parse(a) if isinstance(a, str) else a
        q = A.base.normal_form(p)
        if not q.is_zero() and q.degree() == 0:
            raise ValueError("the sequence generates the unit ideal")
    target = ring_inf(A)
    infs: List[Optional[int]] = []
    for t in range(1, len(elements) + 1):
        K = koszul_dg_module(A, list(elements[:t]), check=False)
        val = K.inf_h()
        infs.append(val)
        if val != target:
            return RegSeqReport(False, len(elements), t - 1, target, infs)
    return RegSeqReport(True, len(elements), None, target, infs)


def module_sequence_regular(M: DGModule, elements: Sequence) -> RegSeqReport:
    """Same criterion against a module: inf(K(A;a) (x) M) must stay at
    inf(M) for every prefix."""
    target = M.inf_h()
    infs: List[Optional[int]] = []
    for t in range(1, len(elements) + 1):
        K = koszul_on_module(M, list(elements[:t]))
        val = K.inf_h()
        infs.append(val)
        if val != target:
            return RegSeqReport(False, len(elements), t - 1, target, infs)
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


@dataclass
class DepthReport:
    value: int
    sequence: List[str]
    pool_size: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "sequence": self.sequence,
            "pool-size": self.pool_size,
            "exhaustive": self.exhaustive,
        }


def sequential_depth(
    X: Union[AnyRing, DGModule], pool: Optional[Sequence[Poly]] = None
) -> DepthReport:
    """Longest regular sequence from the degree-<=2 pool, by depth-first
    search with prefix pruning (every prefix of a regular sequence is
    regular, so dead prefixes cut the tree).

    The search is exhaustive over the pool; maximality beyond the pool is
    not claimed, which is what the exhaustive flag records.  The value is
    capped by dim H^0(A), so the search stops early when it gets there.
    """
    if isinstance(X, (DGRing, ProductDGRing)):
        _connected(X, "sequential depth")
        A = X
        M = free_dg_module(A, [(0, 0)])
    else:
        M = X
        A = M.A
        _connected(A, "sequential depth")
    if pool is None:
        pool = default_sequence_pool(A)
    cap = max(A.dimension(), 0)
    target = M.inf_h()
    best: List[Poly] = []

    def regular_after(prefix_module: DGModule, p: Poly) -> Optional[DGModule]:
        K = cone_dg(multiplication_map(prefix_module, p), check=False)
        if K.inf_h() != target:
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
        dfs([], M)
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


@dataclass
class LocalCohomologyReport:
    amplitude: int
    degrees: List[int]
    route: str

    def to_json(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "degrees": self.degrees,
            "route": self.route,
        }


def _ambient_dg_module(X: DGModule, P_ring: GradedRing) -> DGModule:
    """X viewed over the ambient polynomial ring: one h0-kind generator per
    slot, relations enlarged by the defining ideal of the base."""
    RP = build_ring_dg(P_ring)
    A = X.A
    base_rels = tuple(A.base.relations)
    slot_index: Dict[Tuple[int, str], int] = {}
    gens: List[DGGen] = []
    order: List[Tuple[int, str]] = []
    for c in sorted(X.slots_by_degree()):
        for (j, sym) in X.slots_by_degree()[c]:
            slot_index[(j, sym)] = len(gens)
            order.append((j, sym))
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
        for s, src in enumerate(src_slots):
            row = {}
            for t, tgt in enumerate(tgt_slots):
                e = mat.entries[t][s]
                if not e.is_zero():
                    row[slot_index[tgt]] = RP.from_base(e)
            if row:
                diff[slot_index[src]] = row
    return DGModule(RP, gens, diff, known_lo=X.known_lo, check=True)


def local_cohomology_amplitude(
    X: Union[AnyRing, DGModule]
) -> LocalCohomologyReport:
    """Amplitude of the derived torsion (local cohomology) of X at the
    irrelevant ideal, through graded duality over the ambient polynomial
    ring: H^j_m(X) is nonzero exactly when Ext^{v-j}_P(X, P) is, where v
    is the number of ambient variables."""
    if isinstance(X, (DGRing, ProductDGRing)):
        _connected(X, "local cohomology")
        X = free_dg_module(X, [(0, 0)])
    if isinstance(X, ProductDGModule):
        raise ValueError("local cohomology needs a graded-local DG-ring")
    A = X.A
    P_ring = GradedRing(A.base.ambient, [])
    v = P_ring.dimension()
    amb = _ambient_dg_module(X, P_ring)
    nslots = sum(len(s) for s in amb.slots_by_degree().values())
    res = semifree_resolution(amb, max_stages=v + nslots + 8)
    if not res.terminated:
        raise RuntimeError(
            "resolution over the ambient polynomial ring failed to stop"
        )
    F = prune_complex(reduce_to_h0(res.sf))
    H = hom_free_into_module(F, GradedModule.free(P_ring, [0]))
    degs: List[int] = []
    if F.support():
        lo, hi = -max(F.support()), -min(F.support())
        for j in range(lo, hi + 1):
            if not H.cohomology(j).is_zero():
                degs.append(j)
    if not degs:
        raise ValueError("acyclic input has no local cohomology")
    rgamma = sorted(v - j for j in degs)
    return LocalCohomologyReport(
        amplitude=rgamma[-1] - rgamma[0],
        degrees=rgamma,
        route="Ext into the ambient free module of rank one, degrees "
        "flipped by graded duality at v = %d" % v,
    )


def is_local_cohen_macaulay(A: AnyRing) -> bool:
    """amp of the derived torsion of A equals amp(A)."""
    _connected(A, "local Cohen-Macaulay test")
    return local_cohomology_amplitude(A).amplitude == ring_amplitude(A)


# ---------- dualizing modules ----------


@dataclass
class DualizingReport:
    module: DGModule
    shift: int
    twist: int
    normalized_inf: int
    injdim: DimensionReport
    biduality_ok: bool

    @property
    def injdim_unshifted(self) -> int:
        """Self-injective dimension of A itself, undoing the normalization."""
        return self.injdim.value + self.shift

    def to_json(self) -> dict:
        return {
            "shift": self.shift,
            "twist": self.twist,
            "normalized-inf": self.normalized_inf,
            "injdim": self.injdim.to_json(),
            "injdim-unshifted": self.injdim_unshifted,
            "biduality": self.biduality_ok,
        }


_gorenstein_cache: dict = {}


def is_gorenstein(A: AnyRing) -> bool:
    """Finite injective dimension over itself; componentwise over products.

    Memoized by the ring's structural key: the Bass scan behind a negative
    answer walks an infinite minimal resolution to its cutoff, which is far
    too slow to repeat."""
    if isinstance(A, ProductDGRing):
        return all(is_gorenstein(f) for f in A.factors)
    key = A.key()
    hit = _gorenstein_cache.get(key)
    if hit is None:
        hit = inj_dim(free_dg_module(A, [(0, 0)])).finite
        _gorenstein_cache[key] = hit
    return hit


def dualizing_dg_module(A: AnyRing) -> DualizingReport:
    """A shifted copy of A as the dualizing module, for DG-rings of finite
    self-injective dimension; normalized so inf(R) = -dim H^0(A), with the
    internal twist recorded separately (zero here: the graded structure
    plays no role in the normalization).
    """
    _connected(A, "dualizing module construction")
    if not is_gorenstein(A):
        raise ValueError(
            "dualizing construction implemented only when A has finite "
            "self-injective dimension"
        )
    dim = A.dimension()
    s = ring_inf(A) + dim
    R = shift_dg(free_dg_module(A, [(0, 0)]), s)
    inj = inj_dim(R)
    # biduality: RHom(R, R) must have the cohomology of A itself
    H = hom_semifree_into_dg(R, R)
    Afree = free_dg_module(A, [(0, 0)])
    ok = True
    for c in range(ring_inf(A) - 1, 2):
        want = Afree.cohomology(c).generator_degrees
        got = H.cohomology(c).generator_degrees
        if want != got:
            ok = False
    return DualizingReport(
        module=R,
        shift=s,
        twist=0,
        normalized_inf=R.inf_h(),
        injdim=inj,
        biduality_ok=ok,
    )
