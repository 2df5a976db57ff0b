"""DG layer: ring constructors, slot modules, cones, towers, reductions.

The cohomology fixtures here were derived independently (Koszul homology
by hand, socle/annihilator computations over the small quotient rings)
before being frozen into the asserts.
"""
from random import Random

import pytest

from dgdim.complexes import (
    base_change,
    cohomology_data,
    dual_complex,
    minimal_free_resolution_module,
    prune_complex,
)
from dgdim.core import GradedFreeModule, GradedMatrix, GradedModule, make_graded_ring
from dgdim.corpus import (
    _random_connected_module,
    homogeneous_pool,
    random_perfect_module,
    standard_families,
)
from dgdim.dg import (
    AElem,
    DGMap,
    DGModule,
    DGRing,
    ProductDGRing,
    build_koszul_dg,
    build_ring_dg,
    build_split_trivial_extension,
    build_trivial_extension,
    certify_termination,
    cone_dg,
    direct_sum_dg,
    factor_residue_module,
    free_dg_module,
    h0_cyclic_dg_module,
    hom_semifree_into_dg,
    koszul_dg_module,
    multiplication_map,
    product_koszul_module,
    reduce_to_h0,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
    twist_dg,
)
from dgdim.dimensions import proj_dim
from test_complexes import exact_resolution, h_dim


def ring_xy():
    return make_graded_ring("Q", ["x", "y"])


def koszul_xy():
    R = ring_xy()
    x, y = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def dual_numbers_dg():
    return build_ring_dg(make_graded_ring("Q", ["x"], ["x^2"]))


def free_over(A):
    return free_dg_module(A, [(0, 0)])


# ---------- ring constructors ----------


def test_koszul_ring_axioms():
    A = koszul_xy()
    A.check_axioms()
    assert sorted(A.cohdeg.values()) == [-2, -1, -1, 0]


def _mutant(A, flip=(), d=None):
    """A with the sign of each product in flip negated and these entries of
    its differential table replaced."""
    mul = dict(A.mul_table)
    for pair in flip:
        sym, sign = mul[pair]
        mul[pair] = (sym, -sign)
    return DGRing(A.base, A.kind, A.basis, A.cohdeg, A.twist, mul,
                  {**A.d_table, **(d or {})}, A.slot_extra, A.h0_extra)


def test_check_axioms_rejects_broken_tables():
    """Each mutant of a Koszul DG-ring's tables breaks one axiom, which
    check_axioms reports: a sign flipped in one order of a product breaks
    graded commutativity; flipped in both orders it breaks the Leibniz rule,
    and so does a wrong differential; flipped in both orders of a product
    with a degree -2 factor it breaks associativity."""
    A = koszul_xy()
    _, y = A.base.variables()
    B = build_koszul_dg(make_graded_ring("Q", ["x", "y", "z"]), ["x", "y", "z"])
    one_order = [("e{0}", "e{1}")]
    both_orders = [("e{0}", "e{1}"), ("e{1}", "e{0}")]
    cases = [
        (_mutant(A, flip=one_order), "commutativity fails on e{0},e{1}"),
        (_mutant(A, flip=both_orders), "Leibniz fails"),
        (_mutant(A, d={"e{0}": {"1": y}}), "Leibniz fails"),
        (_mutant(B, flip=[("e{0}", "e{1,2}"), ("e{1,2}", "e{0}")]),
         "associativity fails"),
    ]
    for C, message in cases:
        with pytest.raises(AssertionError) as err:
            C.check_axioms()
        assert str(err.value).startswith(message)
    for good in (A, B, _mutant(A), _mutant(B)):
        good.check_axioms()


def test_koszul_rejects_unit_ideal():
    R = make_graded_ring("Q", ["x"])
    with pytest.raises(ValueError):
        build_koszul_dg(R, [R.one()])


def test_trivial_extension_axioms_and_profile():
    """R(+)(R/x)[1]: H^0 = R and H^{-1} = R/(x), nothing else."""
    R = ring_xy()
    x, _ = R.variables()
    A = build_trivial_extension(R, 1, [x])
    A.check_axioms()
    M = free_over(A)
    assert M.cohomology_support() == [-1, 0]
    assert M.cohomology(0).generator_degrees == (0,)
    assert M.cohomology(-1).generator_degrees == (0,)
    U = M.underlying()
    assert [h_dim(U, 0, t) for t in range(3)] == [1, 2, 3]
    assert [h_dim(U, -1, t) for t in range(3)] == [1, 1, 1]


def test_koszul_differential_spot_check():
    # d(e{0,1}) = a0*e{1} - a1*e{0} for the exterior-square symbol
    A = koszul_xy()
    e01 = AElem(A, {"e{0,1}": A.base.one()})
    d = e01.d()
    x, y = A.base.variables()
    xy = A.base.mul(x, y)
    assert d.coeffs.get("e{1}") == x
    assert d.coeffs.get("e{0}") == -xy


def test_koszul_self_cohomology():
    """K(k[x,y]; x, xy): H^0 = k[y], H^{-1} = (R/x)(-2), H^{-2} = 0."""
    A = koszul_xy()
    M = free_over(A)
    assert M.cohomology_support() == [-1, 0]
    assert M.cohomology(0).generator_degrees == (0,)
    U = M.underlying()
    assert [h_dim(U, 0, t) for t in range(4)] == [1, 1, 1, 1]
    data = M.cohomology(-1)
    assert data.generator_degrees == (2,)
    assert [h_dim(U, -1, t) for t in range(4)] == [0, 0, 1, 1]


def test_regular_koszul_is_concentrated():
    R = ring_xy()
    x, y = R.variables()
    A = build_koszul_dg(R, [x, y])
    M = free_over(A)
    assert M.cohomology_support() == [0]
    assert M.cohomology(0).generator_degrees == (0,)
    assert [h_dim(M.underlying(), 0, t) for t in range(2)] == [1, 0]


def test_product_ring_dimension_and_json():
    P1 = make_graded_ring("Q", ["x"])
    P0 = make_graded_ring("Q", [])
    S = build_split_trivial_extension(P1, P0, 1)
    assert S.dimension() == 1
    assert [f.kind for f in S.factors] == ["ring", "trivial-extension"]


def test_koszul_ring_matches_iterated_cones():
    """The exterior-algebra DG-ring and the iterated two-term cones have
    the same cohomology, degree by internal degree."""
    R = ring_xy()
    x, y = R.variables()
    seq = [x, R.mul(x, y)]
    ring_side = free_over(build_koszul_dg(R, seq))
    cone_side = koszul_dg_module(build_ring_dg(R), seq)
    assert ring_side.cohomology_support() == cone_side.cohomology_support()
    a, b = ring_side.underlying(), cone_side.underlying()
    for s in ring_side.cohomology_support():
        assert (
            ring_side.cohomology(s).generator_degrees
            == cone_side.cohomology(s).generator_degrees
        ), s
        for t in range(5):
            assert h_dim(a, s, t) == h_dim(b, s, t), (s, t)


# ---------- modules, shifts, cones ----------


def test_koszul_module_generators():
    A = koszul_xy()
    _, y = A.base.variables()
    K = koszul_dg_module(A, [y])
    assert [(g.cohdeg, g.twist) for g in K.gens] == [(0, 0), (-1, 1)]
    assert K.cohomology_support() == [-1, 0]


def test_cone_of_identity_is_acyclic():
    A = koszul_xy()
    M = free_over(A)
    one = A.base.one()
    ident = multiplication_map(M, one)
    C = cone_dg(ident, check=True)
    assert C.inf_h() is None


def test_multiplication_map_validates():
    A = koszul_xy()
    x, _ = A.base.variables()
    f = multiplication_map(koszul_dg_module(A, [x]), x)
    cone_dg(f, check=True)


def test_multiplication_map_normalizes_its_element_once(monkeypatch):
    """Every diagonal entry of a multiplication map is the one element
    a = x^2 + y^2, normalized once to y^2 in k[x, y]/(x^2)."""
    R = make_graded_ring("Q", ["x", "y"], ["x^2"])
    M = free_dg_module(build_ring_dg(R), [(0, 0), (-1, 1), (0, 2)])
    a = R.ambient.parse("x^2 + y^2")
    calls = []
    inner = type(R).normal_form
    monkeypatch.setattr(type(R), "normal_form",
                        lambda self, p: calls.append(p) or inner(self, p))
    f = multiplication_map(M, a)
    assert len(calls) == 1
    assert sorted(f.entries) == [0, 1, 2]
    assert all(list(row) == [j] for j, row in f.entries.items())
    assert len({id(row[j]) for j, row in f.entries.items()}) == 1
    assert f.entries[0][0].coeffs == {"1": R.parse("y^2")}


def test_cone_check_rejects_a_map_that_does_not_commute_with_d():
    """K(A; x) -> A sending the degree-0 generator to 1 has entries of the
    right degrees, but f(d e) = x while d(f e) = 0 on the degree -1
    generator e, so d^2 is not zero on the cone."""
    A = koszul_xy()
    x, _ = A.base.variables()
    K = koszul_dg_module(A, [x])
    f = DGMap(K, free_over(A), {0: {0: A.from_base(A.base.one())}})
    with pytest.raises(ValueError, match="d\\^2"):
        cone_dg(f, check=True)


def test_shift_moves_support():
    A = koszul_xy()
    M = free_over(A)
    assert shift_dg(M, 2).cohomology_support() == [-3, -2]
    assert shift_dg(shift_dg(M, 1), -1).cohomology_support() == [-1, 0]


def test_twist_moves_internal_degrees():
    A = koszul_xy()
    assert free_over(A).cohomology(0).generator_degrees == (0,)
    assert twist_dg(free_over(A), 1).cohomology(0).generator_degrees == (-1,)
    plain = free_over(A).underlying()
    twisted = twist_dg(free_over(A), 1).underlying()
    assert h_dim(plain, 0, -1) == 0
    assert h_dim(twisted, 0, -1) == 1
    assert h_dim(twisted, 0, 0) == h_dim(plain, 0, 1)


def test_direct_sum_supports_union():
    A = koszul_xy()
    M = free_over(A)
    S = direct_sum_dg(M, shift_dg(M, 3))
    assert S.cohomology_support() == [-4, -3, -1, 0]


# ---------- semifree towers ----------


def test_semifree_first_stage_covers_top_cohomology():
    """Resolving k over k[x,y]: the first stage covers H^0 by one free
    generator at position 0, twist 0, and the second covers the first
    syzygy module (x, y), two generators of twist 1, one step down."""
    A = build_ring_dg(ring_xy())
    res = semifree_resolution(residue_dg_module(A), window_lo=-8)
    assert res.stages[0] == {"position": 0, "twists": (0,)}
    assert res.stages[1] == {"position": -1, "twists": (1, 1)}


def test_semifree_resolution_of_acyclic_cone_has_no_stages():
    """The cone of the identity on k is acyclic and not semifree, so the
    tower runs and finds nothing to cover."""
    A = koszul_xy()
    C = cone_dg(multiplication_map(residue_dg_module(A), A.base.one()),
                check=False)
    res = exact_resolution(C)
    assert res.stages == []
    assert res.terminated
    assert len(res.sf.gens) == 0


def test_semifree_shortcut_keeps_module():
    A = koszul_xy()
    _, y = A.base.variables()
    K = koszul_dg_module(A, [y])
    res = exact_resolution(K)
    assert res.stages == []
    assert res.sf is K


def test_residue_over_regular_koszul_terminates():
    """k over K(k[x]; x): one stage, the resolution is A itself."""
    R = make_graded_ring("Q", ["x"])
    A = build_koszul_dg(R, R.variables())
    res = exact_resolution(residue_dg_module(A))
    assert len(res.stages) == 1
    assert [(g.cohdeg, g.twist) for g in res.sf.gens] == [(0, 0)]


def test_residue_tower_over_polynomial_ring_terminates():
    A = build_ring_dg(ring_xy())
    res = semifree_resolution(residue_dg_module(A), window_lo=-8)
    assert res.terminated
    assert [st["position"] for st in res.stages] == [0, -1, -2]
    F = prune_complex(reduce_to_h0(res))
    assert [F.cover(c).rank for c in (-2, -1, 0)] == [1, 2, 1]


def test_residue_tower_over_dual_numbers():
    """The minimal resolution of k over k[x]/(x^2) never stops: rank one in
    every degree, differentials multiplication by x, trust floor marked."""
    A = dual_numbers_dg()
    res = semifree_resolution(residue_dg_module(A), window_lo=-6)
    assert not res.terminated
    F = reduce_to_h0(res)
    assert F.known_lo is not None
    trust = F.known_lo + 1
    for c in range(trust, 1):
        assert F.cover(c).rank == 1
    for c in range(trust, 0):
        entry = F.diff(c).cols[0][0]
        assert entry.degree() == 1 and len(entry.terms) == 1
    x = A.base.variables()[0]
    assert F.diff(-1).cols[0][0] in (x, -x)


def test_stage_positions_strictly_decrease():
    A = koszul_xy()
    res = semifree_resolution(residue_dg_module(A), window_lo=-4)
    positions = [st["position"] for st in res.stages]
    assert positions == sorted(positions, reverse=True)
    assert len(set(positions)) == len(positions)


FIELDS = ["Q", "Fp:32003"]


@pytest.mark.parametrize("field", FIELDS)
def test_certify_termination_settles_a_windowed_tower(field):
    """k over K(k[x,y,z]; x,y,z), which is quasi-isomorphic to k: one
    stage covers H^0 by A, and the cocone keeps A's slots below the floor
    of a shallow window.  The windowed tower claims only its window; the
    certificate scans below the floor, finds nothing, and gives the exact
    resolution.  Over the Golod ring the scan finds a class, and the
    resolution comes back as it was."""
    R = make_graded_ring(field, ["x", "y", "z"])
    A = build_koszul_dg(R, R.variables())
    res = semifree_resolution(residue_dg_module(A), window_lo=-1)
    assert not res.terminated and res.pending is not None
    assert res.known_lo == -2
    cert = certify_termination(res)
    exact = exact_resolution(residue_dg_module(A))
    assert cert.terminated
    assert cert.known_lo is None and cert.pending is None
    assert cert.sf is res.sf and cert.stages == exact.stages
    assert [repr(g) for g in cert.sf.gens] == [repr(g) for g in exact.sf.gens]
    assert certify_termination(cert) is cert
    golod = build_ring_dg(make_graded_ring(field, ["x", "y"], ["x^2", "x*y"]))
    res = semifree_resolution(residue_dg_module(golod), window_lo=-2)
    assert res.pending is not None
    assert certify_termination(res) is res and not res.terminated


def seeded_quotients(field):
    """k[x,y]/(x^2, xy), then quotients of k[x,y,z] by two or three seeded
    homogeneous quadrics and cubics with one or two terms each."""
    yield make_graded_ring(field, ["x", "y"], ["x^2", "x*y"])
    by_degree = {
        2: ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"],
        3: ["x^3", "x*y*z", "y^2*z", "z^3"],
    }
    rng = Random(11)
    for _ in range(4):
        rels = []
        for _ in range(rng.randint(2, 3)):
            monos = rng.sample(by_degree[rng.choice([2, 2, 3])], rng.randint(1, 2))
            rels.append(" + ".join(
                "%d*%s" % (rng.choice([1, 2, 3]), m) for m in monos
            ))
        yield make_graded_ring(field, ["x", "y", "z"], rels)


@pytest.mark.parametrize("field", FIELDS)
def test_residue_tower_twists_are_the_betti_degrees(field):
    """Over an ordinary ring the tower of k is its minimal free resolution:
    stage j sits at position -j and its twists are the Betti degrees of
    step j, which the iterated-syzygy resolution computes without the
    tower.  Each stage scans only up to the position the last one covered,
    so a missed class above that ceiling would show up here."""
    for R in seeded_quotients(field):
        res = semifree_resolution(residue_dg_module(build_ring_dg(R)), window_lo=-2)
        n = len(res.stages)
        assert n >= 3 and not res.terminated
        F = minimal_free_resolution_module(
            GradedModule.cyclic(R, R.variables()), n + 1
        )
        assert [st["position"] for st in res.stages] == list(range(0, -n, -1))
        for j, st in enumerate(res.stages):
            assert sorted(st["twists"]) == sorted(F.cover(-j).degrees), (R.relations, j)


@pytest.mark.parametrize("field", FIELDS)
def test_a_shallow_window_agrees_with_a_deep_one(field):
    """The window a cut-off resolution carries is where it is faithful: on
    every degree a shallow tower of k trusts, the reduction to H^0 and Hom
    into k have the cohomology of a deeper tower's, generator degree for
    generator degree.  A window one degree too wide trusts the bottom of
    the shallow reduction, where the cut leaves the next syzygy behind."""
    for R in seeded_quotients(field):
        k = residue_dg_module(build_ring_dg(R))
        shallow, deep = (semifree_resolution(k, window_lo=lo) for lo in (-2, -6))
        assert shallow.known_lo is not None and deep.known_lo < shallow.known_lo
        for read in (reduce_to_h0, lambda res: hom_semifree_into_dg(res, k)):
            S, D = read(shallow), read(deep)
            span = S.support() + D.support()
            degrees = [i for i in range(min(span), max(span) + 1) if S._trust(i)]
            assert degrees, R.relations
            for i in degrees:
                assert D._trust(i)
                assert (S.cohomology(i).generator_degrees
                        == D.cohomology(i).generator_degrees), (R.relations, i)


def tower_inputs(field):
    """Over every factor of the standard families: the residue field, H^0
    modulo each prefix of the homogeneous pool, and eight seeded random
    modules with free generators."""
    rng = Random(40)
    for A in standard_families(field):
        for F in A.factors if isinstance(A, ProductDGRing) else (A,):
            yield residue_dg_module(F)
            pool = homogeneous_pool(F)
            for n in range(len(pool) + 1):
                yield h0_cyclic_dg_module(F, pool[:n])
            for _ in range(8):
                yield _random_connected_module(F, rng, rng.randrange(2, 5))


@pytest.mark.parametrize("field", FIELDS)
def test_the_resolution_has_the_cohomology_of_its_module_above_the_window(field):
    """SF has the cohomology of M, generator degree for generator degree, in
    every slot degree of M above the known_lo of its resolution, whatever
    frame the tower builds SF in.  Windows -2, -4 and -6 cut some towers
    off, so the window itself is exercised, not only finished towers."""
    checked = cut = 0
    for M in tower_inputs(field):
        for window_lo in (-2, -4, -6):
            res = semifree_resolution(M, window_lo)
            cut += not res.terminated
            for i in M._scan_range():
                if res.known_lo is None or i > res.known_lo:
                    checked += 1
                    assert (sorted(res.sf.cohomology(i).generator_degrees)
                            == sorted(M.cohomology(i).generator_degrees)), (M, i)
    assert checked > 300 and cut > 20, (checked, cut)


def complex_entries(C):
    """Covers, differentials, relations and window of a presented complex,
    entry for entry."""
    return (
        {n: C.cover(n).degrees for n in C.support()},
        {n: (d.source.degrees, d.target.degrees, d.cols) for n, d in C.diffs.items()},
        {n: (q.source.degrees, q.target.degrees, q.cols) for n, q in C.rels.items()},
        C.known_lo,
        C.known_hi,
    )


@pytest.mark.parametrize("field", FIELDS)
def test_semifree_hom_into_the_ring_is_hom_of_the_reduction(field):
    """Over an ordinary ring R, Hom_A(SF, A) is Hom_R(SF tensor_A H^0, R):
    dual_complex builds it from reduce_to_h0(res) without the
    DG-module machinery.  The two agree entry for entry on truncated towers
    of k (with equal upper ends) and on the finite tower over k[x, y]."""
    cases = [(R, lo) for R in seeded_quotients(field) for lo in (-2, -3)]
    cases.append((make_graded_ring(field, ["x", "y"]), None))
    truncated = 0
    for R, window_lo in cases:
        k = residue_dg_module(build_ring_dg(R))
        res = (exact_resolution(k) if window_lo is None
               else semifree_resolution(k, window_lo=window_lo))
        H = hom_semifree_into_dg(res, free_over(k.A))
        oracle = dual_complex(reduce_to_h0(res))
        assert complex_entries(H) == complex_entries(oracle), (R.relations, window_lo)
        truncated += H.known_hi is not None
    assert truncated == len(cases) - 1


def test_h0_module_encoding_round_trip():
    """The residue field k, an H^0-module over H^0(K(k[x,y]; x,xy)) = k[y],
    resolved over the DG-ring: Tor appears in even degrees with internal
    twists 0, 2, 4."""
    A = koszul_xy()
    res = semifree_resolution(residue_dg_module(A), window_lo=-6)
    F = prune_complex(reduce_to_h0(res))
    trust = F.known_lo + 1 if F.known_lo is not None else -6
    got = {}
    for c in range(max(trust, -5), 1):
        data = cohomology_data(F, c)
        if not data.is_zero():
            got[c] = data.generator_degrees
    assert got == {0: (0,), -2: (2,), -4: (4,)}


def test_truncation_markers_propagate_to_hom():
    """The window of a cut-off resolution bounds the reduction from below
    and Hom out of it from above, at min slot(M) - known_lo; Hom into a
    module without slots gets no window."""
    A = dual_numbers_dg()
    res = semifree_resolution(residue_dg_module(A), window_lo=-4)
    assert res.known_lo is not None
    H = hom_semifree_into_dg(res, free_over(A))
    assert (H.known_lo, H.known_hi) == (None, -res.known_lo)
    H = hom_semifree_into_dg(res, shift_dg(free_over(A), 2))
    assert H.known_hi == -2 - res.known_lo
    assert hom_semifree_into_dg(res, free_dg_module(A, [])).known_hi is None
    assert reduce_to_h0(res).known_lo == res.known_lo


# ---------- reductions and derived Hom ----------


def test_reduce_free_module_is_h0():
    A = koszul_xy()
    F = reduce_to_h0(exact_resolution(free_over(A)))
    Fp = prune_complex(F)
    assert Fp.support() == [0]
    assert Fp.cover(0).rank == 1


def test_reduce_preserves_sup():
    A = koszul_xy()
    _, y = A.base.variables()
    for M in (koszul_dg_module(A, [y]), shift_dg(free_over(A), 2)):
        F = prune_complex(reduce_to_h0(semifree_resolution(M, window_lo=-6)))
        sup_f = max(
            (c for c in F.support() if not cohomology_data(F, c).is_zero()),
            default=None,
        )
        assert sup_f == M.sup_h()


def test_derived_hom_from_h0_tower_finds_inf():
    A = koszul_xy()
    _, y = A.base.variables()
    M = koszul_dg_module(A, [y])
    res = semifree_resolution(h0_cyclic_dg_module(A), window_lo=-6)
    H = hom_semifree_into_dg(res, M)
    assert M.inf_h() == -1
    assert H.cohomology(-1).is_zero() is False
    for c in range(-4, -1):
        assert H.cohomology(c).is_zero() or c == -1


def test_derived_hom_of_h0_into_a_ring_is_h0():
    A = build_ring_dg(ring_xy())
    res = exact_resolution(h0_cyclic_dg_module(A))
    H = hom_semifree_into_dg(res, free_over(A))
    data = H.cohomology(0)
    assert data.generator_degrees == (0,)
    for c in (-2, -1, 1):
        assert H.cohomology(c).is_zero()


def test_tensor_reduce_against_extra_relations():
    A = koszul_xy()
    _, y = A.base.variables()
    K = koszul_dg_module(A, [y])
    F = base_change(reduce_to_h0(exact_resolution(K)), [y])
    assert F.ring.standard_monomials(1) == []
    assert F.cover(0).rank == 1


# ---------- Ext via semifree Hom ----------


def test_ext_residue_into_self_injective_ring():
    """Over k[x]/(x^2): Hom(k, A) is the socle k(-1) and the higher Ext
    into the free module all vanish."""
    A = dual_numbers_dg()
    res = semifree_resolution(residue_dg_module(A), window_lo=-6)
    H = hom_semifree_into_dg(res, free_over(A))
    data = H.cohomology(0)
    assert data.generator_degrees == (1,)
    hi = H.known_hi if H.known_hi is not None else 6
    for i in range(1, hi):
        assert H.cohomology(i).is_zero(), i


def test_ext_residue_into_residue_growth():
    A = dual_numbers_dg()
    res = semifree_resolution(residue_dg_module(A), window_lo=-6)
    H = hom_semifree_into_dg(res, residue_dg_module(A))
    hi = H.known_hi if H.known_hi is not None else 6
    for i in range(0, hi):
        assert H.cohomology(i).generator_degrees == (-i,), i


# ---------- product modules ----------


def test_product_koszul_module_supports():
    P1 = make_graded_ring("Q", ["x"])
    P0 = make_graded_ring("Q", [])
    S = build_split_trivial_extension(P1, P0, 1)
    M = product_koszul_module(S, [(P1.variables()[0], P0.zero())])
    # K(k[x]; x) is k in degree 0; K on 0 over k |x k[1] doubles its H
    assert [p.cohomology_support() for p in M.parts] == [[0], [-2, -1, 0]]
    assert M.inf_h() == -2


def test_factor_residue_module():
    P1 = make_graded_ring("Q", ["x"])
    P0 = make_graded_ring("Q", [])
    S = ProductDGRing([build_ring_dg(P1), build_ring_dg(P0)])
    M = factor_residue_module(S, 0)
    assert [p.cohomology_support() for p in M.parts] == [[0], []]
    assert M.inf_h() == 0


def test_h0_cyclic_restriction_has_h0_only():
    A = koszul_xy()
    M = h0_cyclic_dg_module(A, [])
    assert M.cohomology_support() == [0]
    assert M.cohomology(0).generator_degrees == (0,)
    assert [h_dim(M.underlying(), 0, t) for t in range(3)] == [1, 1, 1]


# ---------- early-exit cohomology scans ----------


def scan_cases(field):
    """Fresh builds of the seeded perfect modules of the standard families
    (each product factor on its own), and the semifree modules of cut-off
    residue-field towers."""
    for A in standard_families(field):
        for seed in range(6):
            M = random_perfect_module(A, Random(seed))
            yield from getattr(M, "parts", [M])
    for R in (make_graded_ring(field, ["x", "y"], ["x^2", "x*y"]),
              make_graded_ring(field, ["x"], ["x^2"])):
        yield semifree_resolution(residue_dg_module(build_ring_dg(R)),
                                  window_lo=-2).sf


@pytest.mark.parametrize("field", FIELDS)
def test_inf_and_sup_stop_at_the_ends_of_the_support(field):
    """inf_h scans up and sup_h down, each to its first nonzero degree; on
    a separate fresh build, so no answer is cached from the full scan, they
    are the ends of cohomology_support."""
    for M, fresh in zip(scan_cases(field), scan_cases(field)):
        degs = M.cohomology_support()
        ends = (degs[0], degs[-1], degs[-1] - degs[0]) if degs else (None,) * 3
        assert (fresh.inf_h(), fresh.sup_h(), fresh.amp_h()) == ends, M


# ---------- normal forms ----------


def normal_form_rings(field):
    """The Golod ring, Koszul rings over seeded quotients of k[x,y,z] and
    over k[x,y], and a trivial extension whose eps-slot ring R/(x) is a
    proper quotient of the base."""
    quotients = list(seeded_quotients(field))
    yield build_ring_dg(quotients[0])
    for R in quotients[1:3]:
        yield build_koszul_dg(R, [R.variables()[-1]])
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    yield build_koszul_dg(R, [x, R.mul(x, y)])
    yield build_trivial_extension(R, 1, ["x"])


def exercise_ring(A):
    """Products, cones, shifts, towers and Hom over A: the ring axioms, a
    residue tower and Hom out of it, Koszul and seeded perfect modules and
    their projective dimensions."""
    A.check_axioms()
    res = semifree_resolution(residue_dg_module(A), window_lo=-2)
    H = hom_semifree_into_dg(res, free_over(A))
    for i in H.support()[-3:]:
        H.cohomology(i)
    x = A.base.variables()[0]
    modules = [koszul_dg_module(A, [x]), koszul_dg_module(A, [x, x])]
    modules += [random_perfect_module(A, Random(seed)) for seed in range(2)]
    for M in modules:
        proj_dim(M)


def assert_normal(a):
    """Every coefficient of a is nonzero and a normal form of its slot."""
    for sym, p in a.coeffs.items():
        assert p, (sym, a)
        assert a.ring.slot_ring(sym).normal_form(p) == p, (sym, a)


@pytest.mark.parametrize("field", FIELDS)
def test_linear_aelem_operations_equal_the_normalizing_constructor(
    monkeypatch, field
):
    """add and negate combine stored normal forms without normalizing:
    each result equals AElem(...), which normalizes every coefficient in
    its slot's ring, applied to the raw combination.  Every element that
    mul and d return is made of normal forms, and some of those products
    needed the normalization (in the eps-slot ring R/(x) among others), so
    the checks reach that case."""
    seen = {"add": 0, "negate": 0, "reduced products": 0}
    inner = {name: getattr(AElem, name) for name in ("add", "negate", "mul", "d")}

    def add(self, other):
        out = inner["add"](self, other)
        raw = dict(self.coeffs)
        for sym, p in other.coeffs.items():
            raw[sym] = raw[sym] + p if sym in raw else p
        assert out.coeffs == AElem(self.ring, raw).coeffs
        seen["add"] += 1
        return out

    def negate(self):
        out = inner["negate"](self)
        raw = {sym: -p for sym, p in self.coeffs.items()}
        assert out.coeffs == AElem(self.ring, raw).coeffs
        seen["negate"] += 1
        return out

    def product(name):
        def checked(self, *args):
            out = inner[name](self, *args)
            assert_normal(out)
            A = self.ring
            if name == "mul" and any(
                A.slot_ring(s).normal_form(p) != p
                for s, p in _raw_product(self, args[0]).items()
            ):
                seen["reduced products"] += 1
            return out
        return checked

    monkeypatch.setattr(AElem, "add", add)
    monkeypatch.setattr(AElem, "negate", negate)
    monkeypatch.setattr(AElem, "mul", product("mul"))
    monkeypatch.setattr(AElem, "d", product("d"))
    for A in normal_form_rings(field):
        exercise_ring(A)
        # sums that cancel
        one = A.from_base(A.base.one())
        assert one.add(one.negate()).is_zero()
        # products that leave the normal forms, which expand_slot_d no
        # longer forms through mul: two variables, and a variable times a
        # basis element (x eps is zero in the eps-slot ring R/(x))
        xs = [A.from_base(v) for v in A.base.variables()]
        for a in xs + [AElem(A, {b: A.base.one()}) for b in A.basis]:
            for x in xs:
                a.mul(x)
    assert min(seen.values()) > 0, seen
    assert seen["add"] > 20 and seen["negate"] > 100, seen


def _raw_product(a, b):
    """The coefficients of a * b before any normalization."""
    A = a.ring
    acc = {}
    for sa, pa in a.coeffs.items():
        for sb, pb in b.coeffs.items():
            hit = A.mul_basis(sa, sb)
            if hit is not None:
                term = pa * pb if hit[1] > 0 else -(pa * pb)
                acc[hit[0]] = acc[hit[0]] + term if hit[0] in acc else term
    return acc


def _expand_by_ring_operations(M, j, b):
    """d[b g_j] built from AElem.d, AElem.mul and AElem.add alone: the
    term (-1)^sigma_j (d_A b) on g_j and the terms
    (-1)^((sigma_j + sigma_i + 1)|b|) b alpha[j][i] on g_i, those on one
    generator summed, then read slot by slot (an h0 generator keeps its
    unit slot only)."""
    A = M.A
    b_elem = AElem(A, {b: A.base.one()})
    minus = A.from_base(-A.base.one())
    gj = M.gens[j]
    terms = [(j, b_elem.d(), gj.sigma)]
    for i, alpha in M.diff.get(j, {}).items():
        odd = (gj.sigma + M.gens[i].sigma + 1) * A.cohdeg[b]
        terms.append((i, b_elem.mul(alpha), odd))
    by_gen = {}
    for i, a, odd in terms:
        a = a.mul(minus) if odd % 2 else a
        by_gen[i] = by_gen[i].add(a) if i in by_gen else a
    return {(i, sym): p for i, a in by_gen.items() for sym, p in a.coeffs.items()
            if M.gens[i].kind == "free" or sym == A.unit}


@pytest.mark.parametrize("field", FIELDS)
def test_slot_differential_equals_the_ring_operations(monkeypatch, field):
    """expand_slot_d assigns each term to its slot without summing, since no
    two terms of d[b g_j] share a slot.  On every module that exercise_ring
    expands (residue towers and their shifted cocones, cones, Koszul and
    perfect modules, Hom complexes) it equals, slot for slot, the expansion
    by the ring operations, which sums whatever shares a generator."""
    inner = DGModule.expand_slot_d
    seen = {"eps slots": 0, "h0 generators": 0, "odd parity": 0,
            "d_A and alpha terms together": 0}

    def expand_slot_d(self, j, b):
        out = inner(self, j, b)
        assert out == _expand_by_ring_operations(self, j, b), (self, j, b)
        A, gj = self.A, self.gens[j]
        seen["eps slots"] += any(A.slot_extra[sym] for _, sym in out)
        seen["h0 generators"] += any(self.gens[i].kind == "h0" for i, _ in out)
        seen["odd parity"] += gj.sigma
        seen["d_A and alpha terms together"] += bool(
            A.d_basis(b) and any(i != j for i, _ in out))
        return out

    monkeypatch.setattr(DGModule, "expand_slot_d", expand_slot_d)
    for A in normal_form_rings(field):
        exercise_ring(A)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("field", FIELDS)
def test_underlying_differentials_are_normal_forms(monkeypatch, field):
    """underlying() builds its differentials without normalizing them.
    Each one equals, entry for entry, the same columns normalized in the
    base ring, holds no zero entry, and on the slots of free generators
    holds normal forms of the slot's ring (R/(x) on an eps-slot)."""
    inner = DGModule.underlying
    checked = {"matrices": 0, "quotient-slot entries": 0}

    def underlying(self):
        fresh = self._underlying is None
        u = inner(self)
        if fresh:
            for c, d in u.diffs.items():
                again = GradedMatrix(d.target, d.source, d.cols, normalize=True)
                assert d.cols == again.cols, (self, c)
                slots = self.slots_by_degree()[c + 1]
                for col in d.cols:
                    for r, e in col.items():
                        assert e, (self, c)
                        j, sym = slots[r]
                        if self.gens[j].kind != "free":
                            continue
                        ring = self.A.slot_ring(sym)
                        assert ring.normal_form(e) == e, (self, c, sym)
                        checked["quotient-slot entries"] += ring is not self.A.base
                checked["matrices"] += 1
        return u

    monkeypatch.setattr(DGModule, "underlying", underlying)
    for A in normal_form_rings(field):
        exercise_ring(A)
    assert checked["matrices"] > 100, checked
    assert checked["quotient-slot entries"] > 0, checked


def _slot_relation_block(M, j, sym):
    """One slot's nonzero normalized relations as a one-row matrix, each
    relation normalized afresh in the base ring."""
    R = M.A.base
    rels = [R.normal_form(r) for r in M.slot_relations(j, sym)]
    rels = [r for r in rels if r]
    tw = M.slot_twist(j, sym)
    return GradedMatrix(
        GradedFreeModule(R, [tw]),
        GradedFreeModule(R, [tw + r.degree() for r in rels]),
        [{0: r} for r in rels],
    )


@pytest.mark.parametrize("field", FIELDS)
def test_relation_matrices_are_block_diagonal_in_the_slots(monkeypatch, field):
    """underlying() builds each degree's relation matrix in one pass, from
    slot relations normalized once per DG-ring.  It equals, column for
    column, the block-diagonal matrix of one-row blocks, one per slot in
    slot order, each holding the slot's relations normalized afresh.  The
    rings are those of normal_form_rings (the eps-slot ring R/(x) among
    them); the modules include h0 modules whose extra relations need
    normalizing or vanish in the base ring, shifted and twisted."""
    inner = DGModule.underlying
    checked = {"matrices": 0, "free-slot relations": 0, "h0 relations": 0}

    def underlying(self):
        fresh = self._underlying is None
        u = inner(self)
        if fresh:
            R = self.A.base
            for c, lst in self.slots_by_degree().items():
                cover = GradedFreeModule(R, [self.slot_twist(j, s) for j, s in lst])
                blocks = [_slot_relation_block(self, j, s) for j, s in lst]
                # the blocks corner to corner: block r on row r
                want_degrees = tuple(d for b in blocks for d in b.source.degrees)
                want_cols = tuple(
                    {r: col[0]} for r, b in enumerate(blocks) for col in b.cols
                )
                got = u.rels.get(
                    c, GradedMatrix.zero(cover, GradedFreeModule(R, ()))
                )
                assert got.ring is R and got.source.ring is R, (self, c)
                assert got.target.degrees == cover.degrees, (self, c)
                assert got.source.degrees == want_degrees, (self, c)
                assert got.cols == want_cols, (self, c)
                for col in want_cols:
                    (r,) = col
                    kind = self.gens[lst[r][0]].kind
                    checked["h0 relations" if kind == "h0" else "free-slot relations"] += 1
                checked["matrices"] += 1
        return u

    monkeypatch.setattr(DGModule, "underlying", underlying)
    for A in normal_form_rings(field):
        exercise_ring(A)
        R = A.base
        x, y = R.variables()[:2]
        # x^2 and xy vanish in the Golod ring; x^2 + y^2 reduces there
        N = h0_cyclic_dg_module(A, [R.ambient.parse("x^2 + y^2"), x * x, x * y])
        for M in (N, shift_dg(N, 1), twist_dg(shift_dg(N, -2), 3)):
            semifree_resolution(M, window_lo=-2)
            direct_sum_dg(M, residue_dg_module(A)).underlying()
    assert checked["matrices"] > 100, checked
    assert checked["free-slot relations"] > 0 and checked["h0 relations"] > 0, checked
