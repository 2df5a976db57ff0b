"""Complexes: resolutions, pruning, cohomology, Hom and tensor into a module.

Cones, Koszul complexes and Hom out of a semifree module are built with the
DG constructors over a ring viewed as a DG-ring, the way the queries build
them.  Ext and Tor are the cohomology of Hom and tensor from a minimal free
resolution into a module.  Cohomology modules computed through the
Groebner machinery are checked in every internal degree against
brute-force rank counts, for free complexes and for complexes of presented
modules alike.
"""
from random import Random

import pytest

import dgdim.complexes as complexes_module
import dgdim.core.module as module_module
import dgdim.core.syz as syz_module
import dgdim.dg.tower as tower_module
import dgdim.dimensions as dimensions_module
from dgdim.complexes import (
    PresentedComplex,
    cohomology_data,
    hom_free_into_module,
    minimal_free_resolution_module,
    prune_complex,
    tensor_free_with_module,
)
from dgdim.core import (
    GradedFreeModule,
    GradedMatrix,
    GradedModule,
    field_rank,
    make_graded_ring,
    minimal_presentation,
)
from dgdim.dg import (
    DGModule,
    build_koszul_dg,
    build_ring_dg,
    cone_dg,
    direct_sum_dg,
    free_dg_module,
    h0_cyclic_dg_module,
    hom_semifree_into_dg,
    koszul_dg_module,
    multiplication_map,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
)
from dgdim.core.freemod import _Span
from dgdim.core.ring import GradedRing
from dgdim.corpus import (
    amplitude_zero_test_family,
    random_perfect_module,
    redundant_presentation,
    standard_families,
)


def _pieces(C, i):
    """Cover, differential and relations (or None) of C at degree i."""
    return C.cover(i), C.diff(i), C.rel(i)


def _rank_in_degree(target, mats, t):
    """Rank over the field of the degree-t piece of [mats side by side]."""
    cols, degs = [], []
    for m in mats:
        if m is not None:
            cols += m.cols
            degs += m.source.degrees
    _, _, M = GradedMatrix.from_columns(target, degs, cols).matrix_in_degree(t)
    return field_rank(target.ring.field, M)


def h_dim(C, i, t):
    """Oracle: dim_k H^i(C)_t for C_i = coker(Q_i) with differentials D_i,

        dim C_i + rk Q_{i+1} - rk [D_i | Q_{i+1}] - rk [D_{i-1} | Q_i],

    all in internal degree t; a free complex has no relations Q."""
    cov, d_out, q_in = _pieces(C, i)
    nxt, _, q_out = _pieces(C, i + 1)
    d_in = _pieces(C, i - 1)[1]
    return (
        cov.dim_in_degree(t)
        + _rank_in_degree(nxt, [q_out], t)
        - _rank_in_degree(nxt, [d_out, q_out], t)
        - _rank_in_degree(cov, [d_in, q_in], t)
    )


def assert_h_matches_oracle(C, degrees, t_range):
    for i in degrees:
        mod = C.cohomology(i).module
        for t in t_range:
            assert mod.hilbert_function(t) == h_dim(C, i, t), (i, t)


def assert_residue_field_power(module, ring, rank=1):
    """module = k^rank in degree 0: rank in degree 0 and nothing from there
    up to the largest variable degree, so every variable kills it."""
    assert module.hilbert_function(0) == rank
    top = max(v.degree() for v in ring.variables())
    for t in range(1, top + 1):
        assert module.hilbert_function(t) == 0, t


def trusted_degrees(C):
    """Every certified cohomological degree from one below the support to
    one above it."""
    s = C.support()
    return [i for i in range(s[0] - 1, s[-1] + 2) if C._trust(i)]


# ---------- cone over k[x,y]/(xy) ----------


def test_cone_of_multiplication_by_x():
    R = make_graded_ring("Q", ["x", "y"], ["x*y"])
    A = build_ring_dg(R)
    x = R.parse("x")
    C = cone_dg(multiplication_map(free_dg_module(A, [(0, 0)]), x)).underlying()
    assert C.support() == [-1, 0]
    assert C.cover(-1).degrees == (1,)
    assert C.cover(0).degrees == (0,)
    h0 = C.cohomology(0)
    assert h0.generator_degrees == (0,)
    # H^0 = R/(x), one dimension in each degree (the powers of y)
    for t in range(0, 5):
        assert h0.module.hilbert_function(t) == 1
    h1 = C.cohomology(-1)
    # kernel of x on R(-1) is generated by y * e, internal degree 2
    assert h1.generator_degrees == (2,)
    for t in range(0, 6):
        assert h1.module.hilbert_function(t) == (1 if t >= 2 else 0)
    assert_h_matches_oracle(C, [-2, -1, 0, 1], range(0, 6))


def test_cone_shifts_and_signs():
    R = make_graded_ring("Q", ["x"], [])
    X = koszul_dg_module(build_ring_dg(R), [R.parse("x")])
    S = shift_dg(X, 1)
    assert S.underlying().support() == [-2, -1]
    assert S.underlying().diff(-2).cols[0] == {0: -R.parse("x")}
    SS = shift_dg(S, -1)
    assert SS.underlying().diff(-1).cols[0] == {0: R.parse("x")}
    assert shift_dg(X, 2).underlying().support() == [-3, -2]


# ---------- minimal free resolutions ----------


def test_resolution_of_k_over_polynomial_ring():
    R = make_graded_ring("Q", ["x", "y"], [])
    k = GradedModule.cyclic(R, [R.parse("x"), R.parse("y")])
    cert = minimal_free_resolution_module(k, cutoff=6)
    assert cert.terminated
    F = cert.complex
    assert F.support() == [-2, -1, 0]
    assert F.cover(0).degrees == (0,)
    assert tuple(sorted(F.cover(-1).degrees)) == (1, 1)
    assert F.cover(-2).degrees == (2,)
    for d in F.diffs.values():
        assert d.min_entry_degree_is_positive()
    # resolves k: H^0 = k, H^{-1} = H^{-2} = 0
    assert_h_matches_oracle(F, [-2, -1, 0], range(0, 5))
    assert_residue_field_power(cohomology_data(F, 0).module, R)
    assert cohomology_data(F, -1).is_zero()
    assert cohomology_data(F, -2).is_zero()


def test_resolution_of_k_over_dual_numbers_is_periodic():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    k = GradedModule.cyclic(R, [R.parse("x")])
    cert = minimal_free_resolution_module(k, cutoff=5)
    assert not cert.terminated
    F = cert.complex
    assert F.support() == [-6, -5, -4, -3, -2, -1, 0]
    for i in range(0, 7):
        assert F.cover(-i).degrees == (i,)
    assert F.known_lo == -6
    for i in range(-5, 0):
        assert cohomology_data(F, i).is_zero()


def test_resolution_of_free_module_is_itself():
    R = make_graded_ring("Q", ["x", "y"], ["x^2"])
    M = GradedModule.free(R, (0, 3))
    cert = minimal_free_resolution_module(M, cutoff=3)
    assert cert.terminated
    assert cert.complex.support() == [0]
    assert cert.complex.cover(0).degrees == (0, 3)


def test_betti_numbers_do_not_depend_on_presentation():
    R = make_graded_ring("Q", ["x", "y"], [])
    tgt = GradedFreeModule(R, (0,))
    lean = GradedModule(
        GradedMatrix.from_columns(tgt, [1], [{0: R.parse("x")}])
    )
    fat = GradedModule(
        GradedMatrix.from_columns(
            tgt, [1, 2, 3], [{0: R.parse("x")}, {0: R.parse("x*y")}, {0: R.parse("x*y^2")}]
        )
    )
    b1 = minimal_free_resolution_module(lean, cutoff=4).betti
    b2 = minimal_free_resolution_module(fat, cutoff=4).betti
    assert b1 == b2 == {0: (0,), -1: (1,)}


# ---------- Koszul complexes and Hom ----------


def test_tensor_of_koszul_complexes_is_koszul_on_both():
    R = make_graded_ring("Q", ["x", "y"], [])
    T = koszul_dg_module(build_ring_dg(R), [R.parse("x"), R.parse("y")]).underlying()
    assert T.support() == [-2, -1, 0]
    assert T.cover(-2).degrees == (2,)
    assert tuple(sorted(T.cover(-1).degrees)) == (1, 1)
    T.validate()
    # x, y is a regular sequence: only H^0 = k survives
    assert T.cohomology(-2).is_zero()
    assert T.cohomology(-1).is_zero()
    h0 = T.cohomology(0)
    assert h0.generator_degrees == (0,)
    assert_residue_field_power(h0.module, R)
    assert_h_matches_oracle(T, [-2, -1, 0], range(0, 5))


def test_tensor_koszul_sign_gives_d_squared_zero():
    R = make_graded_ring("Q", ["x", "y", "z"], [])
    K = koszul_dg_module(build_ring_dg(R), R.variables()).underlying()
    K.validate()
    assert [K.cover(-i).rank for i in range(0, 4)] == [1, 3, 3, 1]
    for i in [-3, -2, -1]:
        assert K.cohomology(i).is_zero()
    assert_residue_field_power(K.cohomology(0).module, R)


def test_hom_from_ring_is_identity():
    R = make_graded_ring("Q", ["x", "y"], ["x*y"])
    A = build_ring_dg(R)
    C = cone_dg(multiplication_map(free_dg_module(A, [(0, 1)]), R.parse("x")))
    U = C.underlying()
    H = hom_semifree_into_dg(free_dg_module(A, [(0, 0)]), C)
    assert H.support() == U.support()
    for i in U.support():
        assert H.cover(i).degrees == U.cover(i).degrees
    for i in U.diffs:
        assert H.diff(i).cols == U.diff(i).cols


def test_hom_of_koszul_into_ring():
    R = make_graded_ring("Q", ["x", "y"], [])
    A = build_ring_dg(R)
    H = hom_semifree_into_dg(
        koszul_dg_module(A, [R.parse("x")]), free_dg_module(A, [(0, 0)])
    )
    assert H.support() == [0, 1]
    assert H.cover(1).degrees == (-1,)
    H.validate()
    assert H.cohomology(0).is_zero()
    h1 = H.cohomology(1)
    assert h1.generator_degrees == (-1,)
    for t in range(-1, 4):
        assert h1.module.hilbert_function(t) == (1 if t >= -1 else 0)


def test_hom_differential_sign_convention():
    # on Hom^n the differential is -(-1)^n phi o d_F; into the ring the
    # component Hom^0 -> Hom^1 must be -(transpose of d_F)
    R = make_graded_ring("Q", ["x"], [])
    x = R.parse("x")
    c = {-1: GradedFreeModule(R, (1,)), 0: GradedFreeModule(R, (0,))}
    Kx = PresentedComplex(R, c, {-1: GradedMatrix(c[0], c[-1], [{0: x}])}, check=True)
    H = hom_free_into_module(Kx, GradedModule.free(R, (0,)))
    assert H.diff(0).cols == ({0: -x},)


# ---------- pruning ----------


def _from_rows(target, source, rows):
    """The matrix with these dense rows; zero entries are not stored."""
    return GradedMatrix(target, source, [dict(enumerate(col)) for col in zip(*rows)])


def test_prune_removes_contractible_summand():
    # the Koszul complex of x, y plus the contractible R(-2) --3--> R(-2)
    R = make_graded_ring("Q", ["x", "y"], [])
    x, y = R.variables()
    z = R.zero()
    c = {
        0: GradedFreeModule(R, (0, 2)),
        -1: GradedFreeModule(R, (1, 1, 2)),
        -2: GradedFreeModule(R, (2,)),
    }
    fat = PresentedComplex(
        R,
        c,
        {
            -1: _from_rows(c[0], c[-1], [[x, y, z], [z, z, R.parse("3")]]),
            -2: _from_rows(c[-1], c[-2], [[-y], [x], [z]]),
        },
        check=True,
    )
    slim = prune_complex(fat)
    slim.validate()
    assert {i: slim.cover(i).degrees for i in slim.support()} == {
        0: (0,),
        -1: (1, 1),
        -2: (2,),
    }
    for d in slim.diffs.values():
        assert d.min_entry_degree_is_positive()


def test_prune_of_cone_of_identity_is_zero():
    # cone of the identity on R(-1) --x--> R: components X^{-1}, Y^{-1} + X^0
    # and Y^0, with differentials [1, -x]^T and [x, 1]
    R = make_graded_ring("Q", ["x", "y"], ["x^2 + y^2"])
    x = R.parse("x")
    one = R.one()
    c = {
        -2: GradedFreeModule(R, (1,)),
        -1: GradedFreeModule(R, (1, 0)),
        0: GradedFreeModule(R, (0,)),
    }
    cone = PresentedComplex(
        R,
        c,
        {
            -2: _from_rows(c[-1], c[-2], [[one], [-x]]),
            -1: _from_rows(c[0], c[-1], [[x, one]]),
        },
        check=True,
    )
    assert prune_complex(cone).support() == []


def test_prune_preserves_cohomology():
    # R(-2) --xy--> R plus R(-1) --(-2)--> R(-1) in degrees -2, -1 and
    # R(-4) --1--> R(-4) in degrees 0, 1
    R = make_graded_ring("Q", ["x", "y"], ["x^3"])
    z = R.zero()
    c = {
        -2: GradedFreeModule(R, (1,)),
        -1: GradedFreeModule(R, (2, 1)),
        0: GradedFreeModule(R, (0, 4)),
        1: GradedFreeModule(R, (4,)),
    }
    fat = PresentedComplex(
        R,
        c,
        {
            -2: _from_rows(c[-1], c[-2], [[z], [R.parse("-2")]]),
            -1: _from_rows(c[0], c[-1], [[R.parse("x*y"), z], [z, z]]),
            0: _from_rows(c[1], c[0], [[z, R.one()]]),
        },
        check=True,
    )
    slim = prune_complex(fat)
    for i in [-2, -1, 0, 1]:
        for t in range(0, 6):
            assert h_dim(slim, i, t) == h_dim(fat, i, t), (i, t)


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_prune_of_a_presentation_keeps_the_minimal_generators(field):
    """A presentation M read as the complex F1 --M--> F0 in degrees -1 and 0:
    pruning cancels the unit entries of M by minimal_presentation's pivot
    rule, so it keeps the survivors of F0 and leaves the same relations."""
    rng = Random(5)
    cases = 0
    for rels in ([], ["x^2", "x*y"], ["x*y", "y^3"]):
        R = make_graded_ring(field, ["x", "y"], rels)
        x, y = R.variables()
        for gens in ([x], [x, y], [R.mul(x, y), R.mul(y, y)]):
            M = GradedModule.cyclic(R, gens)
            for _ in range(3):
                M = redundant_presentation(M, rng)
            P = M.presentation
            mp = minimal_presentation(P)
            C = PresentedComplex(R, {0: P.target, -1: P.source}, {-1: P}, check=True)
            slim = prune_complex(C)
            assert slim.cover(0).degrees == tuple(P.target.degrees[g] for g in mp.survivors)
            # the pruned differential has no unit entry left, and its
            # irredundant columns are the minimal relations, entry for entry
            again = minimal_presentation(slim.diff(-1))
            assert again.survivors == list(range(slim.cover(0).rank))
            assert again.matrix.source.degrees == mp.matrix.source.degrees
            assert again.matrix.cols == mp.matrix.cols
            cases += len(P.target.degrees) > len(mp.survivors)
    assert cases == 9


def _with_relations():
    R = make_graded_ring("Q", ["x"], [])
    F0 = GradedFreeModule(R, (0,))
    Q = GradedMatrix(F0, GradedFreeModule(R, (1,)), [{0: R.parse("x")}])
    return PresentedComplex(R, {0: F0}, {}, {0: Q}, check=True), GradedModule.free(R, (0,))


@pytest.mark.parametrize(
    "operation",
    [
        lambda C, N: prune_complex(C),
        hom_free_into_module,
        tensor_free_with_module,
    ],
    ids=["prune_complex", "hom_free_into_module", "tensor_free_with_module"],
)
def test_free_complex_operations_reject_relations(operation):
    C, N = _with_relations()
    with pytest.raises(ValueError, match="without relations"):
        operation(C, N)


# ---------- long exact sequence of a cone ----------


def test_cone_long_exact_sequence_rank_bookkeeping():
    R = make_graded_ring("Q", ["x", "y"], ["x^2"])
    f = multiplication_map(
        koszul_dg_module(build_ring_dg(R), [R.parse("x")]), R.parse("y")
    )
    X, Xt = f.target.underlying(), f.source.underlying()
    C = cone_dg(f).underlying()
    C.validate()
    for t in range(0, 7):
        # Euler characteristics: chi(cone) = chi(X) - chi(Xt) degreewise
        chi = lambda D: sum(
            (-1) ** (i % 2 + 1) * -h_dim(D, i, t) for i in range(-3, 3)
        )
        assert chi(C) == chi(X) - chi(Xt)
        for i in range(-2, 2):
            # LES subadditivity: H^i(cone) <= H^i(X) + H^{i+1}(Xt)
            assert h_dim(C, i, t) <= h_dim(X, i, t) + h_dim(Xt, i + 1, t)


# ---------- Ext and Tor ----------


def test_tor_of_hypersurface_sections_over_polynomial_ring():
    A = make_graded_ring("Q", ["x", "y"], [])
    M = GradedModule.cyclic(A, [A.parse("x")])
    N = GradedModule.cyclic(A, [A.parse("x")])
    T = tensor_free_with_module(minimal_free_resolution_module(M, 4).complex, N)
    tor = {n: T.cohomology(-n) for n in range(0, 3)}
    assert tor[0].generator_degrees == (0,)
    assert tor[1].generator_degrees == (1,)
    assert tor[2].is_zero()
    # Tor_1 = k[y](-1): one dimension in each internal degree >= 1
    for t in range(0, 5):
        assert tor[1].module.hilbert_function(t) == (1 if t >= 1 else 0)
        assert tor[0].module.hilbert_function(t) == (1 if t >= 0 else 0)


def test_tor_is_balanced():
    A = make_graded_ring("Q", ["x", "y"], ["x^2*y"])
    M = GradedModule.cyclic(A, [A.parse("x^2")])
    N = GradedModule.cyclic(A, [A.parse("y"), A.parse("x^3")])
    t1 = tensor_free_with_module(minimal_free_resolution_module(M, 5).complex, N)
    t2 = tensor_free_with_module(minimal_free_resolution_module(N, 5).complex, M)
    for n in range(0, 4):
        for t in range(0, 6):
            assert t1.cohomology(-n).module.hilbert_function(t) == (
                t2.cohomology(-n).module.hilbert_function(t)
            )


def test_ext_of_k_with_k_over_polynomial_ring():
    A = make_graded_ring("Q", ["x", "y"], [])
    k = GradedModule.cyclic(A, [A.parse("x"), A.parse("y")])
    H = hom_free_into_module(minimal_free_resolution_module(k, 5).complex, k)
    assert H.cohomology(0).generator_degrees == (0,)
    assert tuple(sorted(H.cohomology(1).generator_degrees)) == (-1, -1)
    assert H.cohomology(2).generator_degrees == (-2,)
    assert H.cohomology(3).is_zero()


def test_ext_of_k_over_dual_numbers_never_stops():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    k = GradedModule.cyclic(R, [R.parse("x")])
    H = hom_free_into_module(minimal_free_resolution_module(k, 6).complex, k)
    for n in range(0, 5):
        assert H._trust(n)
        assert H.cohomology(n).generator_degrees == (-n,)


def test_ext_degree_zero_is_hom():
    A = make_graded_ring("Q", ["x", "y"], [])
    M = GradedModule.cyclic(A, [A.parse("x")])
    ext0 = hom_free_into_module(minimal_free_resolution_module(M, 3).complex, M).cohomology(0)
    # Hom(A/x, A/x) = A/x: generator in degree 0
    assert ext0.generator_degrees == (0,)
    for t in range(0, 4):
        assert ext0.module.hilbert_function(t) == 1


def test_tables_refuse_degrees_past_a_truncated_resolution():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    k = GradedModule.cyclic(R, [R.parse("x")])
    F = minimal_free_resolution_module(k, 2).complex
    reach = -F.known_lo
    H = hom_free_into_module(F, k)
    assert H._trust(reach - 1) and not H._trust(reach)
    assert H.cohomology(reach - 1).generator_degrees
    T = tensor_free_with_module(F, k)
    assert T._trust(1 - reach) and not T._trust(-reach)
    assert T.cohomology(1 - reach).generator_degrees


# ---------- windows ----------


def test_truncated_complex_refuses_uncertified_degrees():
    # k over the dual numbers, resolved by a semifree tower cut off after
    # three steps: the cut leaves cohomology at the bottom degree, and only
    # H^0 = k survives inside the certified range
    R = make_graded_ring("Q", ["x"], ["x^2"])
    M = semifree_resolution(residue_dg_module(build_ring_dg(R)), window_lo=-2).sf
    assert M.known_lo == min(M.support()) == -3
    assert not M.underlying().cohomology_vanishes(M.known_lo)
    assert M.cohomology_support() == [0]


def test_shift_moves_certified_window():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    M = semifree_resolution(residue_dg_module(build_ring_dg(R)), window_lo=-1).sf
    assert M.known_lo is not None
    S = shift_dg(M, 3)
    assert S.known_lo == M.known_lo - 3
    assert S.support() == [i - 3 for i in M.support()]


# ---------- complexes of presented modules ----------

FIELDS = ["Q", "Fp:32003"]


def golod_ring(field):
    return make_graded_ring(field, ["x", "y"], ["x^2", "x*y"])


def koszul_ring(field):
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


@pytest.mark.parametrize("field", FIELDS)
def test_free_with_module_matches_oracle(field):
    R = golod_ring(field)
    x, y = R.variables()
    F = minimal_free_resolution_module(GradedModule.cyclic(R, [x, y]), 3).complex
    for N in (GradedModule.cyclic(R, [y]), GradedModule.cyclic(R, [x, y])):
        for C in (hom_free_into_module(F, N), tensor_free_with_module(F, N)):
            assert C.rels
            C.validate()
            assert_h_matches_oracle(C, trusted_degrees(C), range(-5, 6))


@pytest.mark.parametrize("field", FIELDS)
def test_dg_module_underlying_matches_oracle(field):
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        _, y = A.base.variables()
        k = residue_dg_module(A)
        assert_residue_field_power(
            direct_sum_dg(k, k).cohomology(0).module, A.base, rank=2
        )
        for M in (direct_sum_dg(k, koszul_dg_module(A, [y])), direct_sum_dg(k, k)):
            C = M.underlying()
            assert C.rels
            C.validate()
            assert_h_matches_oracle(C, trusted_degrees(C), range(0, 5))


@pytest.mark.parametrize("field", FIELDS)
def test_hom_semifree_matches_oracle(field):
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        SF = semifree_resolution(residue_dg_module(A), window_lo=-2).sf
        for M in (residue_dg_module(A), free_dg_module(A, [(0, 0)])):
            C = hom_semifree_into_dg(SF, M)
            C.validate()
            assert_h_matches_oracle(C, trusted_degrees(C), range(-4, 3))


# ---------- validation against the relations ----------


def _relations(R, F, entries):
    """The one-row relation matrix on the rank-one cover F with these
    entries."""
    source = GradedFreeModule(R, [F.degrees[0] + e.degree() for e in entries])
    return GradedMatrix(F, source, [{0: e} for e in entries])


@pytest.mark.parametrize("field", FIELDS)
def test_validate_rejects_relations_that_escape(field):
    """R(-1) --x--> R over k[x, y]: the relation y at degree -1 maps to xy,
    which is a relation at degree 0 only when one is declared there."""
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    F = {-1: GradedFreeModule(R, (1,)), 0: GradedFreeModule(R, (0,))}
    d = {-1: GradedMatrix(F[0], F[-1], [{0: x}])}
    rels = {-1: _relations(R, F[-1], [y])}
    with pytest.raises(ValueError, match="relations escape at degree -1"):
        PresentedComplex(R, F, d, rels, check=True)
    rels[0] = _relations(R, F[0], [R.mul(x, y) + R.mul(y, y)])
    with pytest.raises(ValueError, match="relations escape at degree -1"):
        PresentedComplex(R, F, d, rels, check=True)
    rels[0] = _relations(R, F[0], [R.mul(y, y), R.mul(x, y)])
    PresentedComplex(R, F, d, rels, check=True)


@pytest.mark.parametrize("field", FIELDS)
def test_validate_rejects_d_squared_nonzero_modulo_relations(field):
    """R(-2) --x--> R(-1) --y--> R over k[x, y]: d^2 = xy vanishes modulo
    the relation x at degree 0, but not modulo y^2."""
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    F = {-2: GradedFreeModule(R, (2,)), -1: GradedFreeModule(R, (1,)),
         0: GradedFreeModule(R, (0,))}
    d = {-2: GradedMatrix(F[-1], F[-2], [{0: x}]),
         -1: GradedMatrix(F[0], F[-1], [{0: y}])}
    with pytest.raises(ValueError, match="d\\^2 nonzero modulo relations at -2"):
        PresentedComplex(R, F, d, {0: _relations(R, F[0], [R.mul(y, y)])},
                         check=True)
    PresentedComplex(R, F, d, {0: _relations(R, F[0], [x])}, check=True)


@pytest.mark.parametrize("field", FIELDS)
def test_validate_accepts_the_cone_on_a_cyclic_h0_module(monkeypatch, field):
    """The cone of x + 2y on k[x, y]/(x^2, xy): every relation of its
    underlying complex maps into the relations, which validate checks by
    division (the h0-cyclic cone of tests/fixtures/reach/all-kinds.json)."""
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    H = h0_cyclic_dg_module(build_ring_dg(R), [R.mul(x, x), R.mul(x, y)])
    C = cone_dg(multiplication_map(H, R.parse("x + 2*y"))).underlying()
    seen = []
    inner = syz_module.SyzygyEngine.contains

    def contains(self, col):
        seen.append(inner(self, col))
        return seen[-1]

    monkeypatch.setattr(syz_module.SyzygyEngine, "contains", contains)
    C.validate()
    assert seen and all(seen)


# ---------- the vanishing test ----------


def vanishes_by_oracle(C, i):
    """H^i(C) = 0 by the rank oracle: h_dim is 0 in every internal degree
    from the lowest cover degree to the highest cycle degree.  H^i is
    generated by cycles, so that window holds all its generator degrees."""
    K = complexes_module._cycles(C, i)
    if K is None:
        return True
    lo = min(C.cover(i).degrees)
    return all(h_dim(C, i, t) == 0 for t in range(lo, max(K.source.degrees) + 1))


def vanishing_cases(field):
    """(object answering cohomology_vanishes, its presented complex), each
    built fresh so that no cohomology is cached on it yet."""
    for A in standard_families(field):
        for seed in range(4):
            M = random_perfect_module(A, Random(seed))
            for part in getattr(M, "parts", [M]):
                yield part, part.underlying()
                # acyclic, with cycles that die only through multiples of
                # lower-degree boundaries
                one = part.A.base.one()
                cone = cone_dg(multiplication_map(part, one), check=False)
                yield cone, cone.underlying()
    R = golod_ring(field)
    x, y = R.variables()
    F = minimal_free_resolution_module(GradedModule.cyclic(R, [x, y]), 3).complex
    for N in (GradedModule.cyclic(R, [y]), GradedModule.cyclic(R, [x, y])):
        for C in (hom_free_into_module(F, N), tensor_free_with_module(F, N)):
            yield C, C
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        SF = semifree_resolution(residue_dg_module(A), window_lo=-2).sf
        for _, T in amplitude_zero_test_family(A):
            C = hom_semifree_into_dg(SF, T)
            yield C, C


@pytest.mark.parametrize("field", FIELDS)
def test_vanishing_test_matches_rank_oracle(field):
    seen = {True: 0, False: 0}
    for X, C in vanishing_cases(field):
        if not C.support():
            continue
        for i in trusted_degrees(C):
            got = X.cohomology_vanishes(i)
            assert got == vanishes_by_oracle(C, i), (X, i)
            assert X.cohomology(i).is_zero() == got, (X, i)
            if complexes_module._cycles(C, i) is not None:
                seen[got] += 1
    # both answers are exercised on degrees that have cycles
    assert seen[True] >= 20 and seen[False] >= 20, seen


# ---------- minimal generators of cohomology ----------


def presentation_route_degrees(C, i):
    """Sorted minimal generator degrees of H^i(C), the way a presentation
    gets them: the cycle-block heads of syz([K | D_{i-1} | Q_i]) present
    H^i on the cycle generators K, and its minimal presentation keeps a
    minimal generating set."""
    K = complexes_module._cycles(C, i)
    if K is None:
        return []
    blocks = [K] + [B for B in (C.diffs.get(i - 1), C.rels.get(i)) if B is not None]
    stacked = GradedMatrix.from_columns(
        K.target,
        [d for B in blocks for d in B.source.degrees],
        [col for B in blocks for col in B.cols],
    )
    S = syz_module.syzygy_matrix(stacked)
    nk = K.source.rank
    heads = [
        ({r: p for r, p in col.items() if r < nk}, d)
        for col, d in zip(S.cols, S.source.degrees)
    ]
    heads = [(h, d) for h, d in heads if h]
    pres = GradedMatrix.from_columns(
        K.source, [d for _, d in heads], [h for h, _ in heads]
    )
    return sorted(GradedModule(pres).minimal().generator_degrees)


def recorded_complexes(monkeypatch, module, names, run):
    """The presented complexes, and the underlying complexes of the
    DG-modules, that run() passes to or gets from the named functions of
    module."""
    seen = []
    with monkeypatch.context() as m:
        for name in names:
            inner = getattr(module, name)

            def recording(*args, inner=inner):
                out = inner(*args)
                seen.extend(args + (out,))
                return out

            m.setattr(module, name, recording)
        run()
    return [X if isinstance(X, PresentedComplex) else X.underlying()
            for X in seen if isinstance(X, (PresentedComplex, DGModule))]


def generator_cases(monkeypatch, field):
    """Presented complexes whose cohomology the queries read: those of the
    vanishing test (seeded corpora, Hom and tensor over the Golod ring, Hom
    out of semifree resolutions), the cocone of every stage of the residue
    towers over the Golod and Koszul rings, and the Hochschild complexes."""
    import dgdim.finitistic as finitistic_module

    for _, C in vanishing_cases(field):
        yield C
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        yield from recorded_complexes(
            monkeypatch, tower_module, ["_stage"],
            lambda: semifree_resolution(residue_dg_module(A), window_lo=-4),
        )
    k = make_graded_ring(field, [])
    for A, B in ((k, make_graded_ring(field, ["x", "y"], ["x^2"])),
                 (golod_ring(field), golod_ring(field))):
        yield from recorded_complexes(
            monkeypatch, finitistic_module,
            ["tensor_free_with_module", "hom_free_into_module"],
            lambda: finitistic_module.hochschild_table(A, B),
        )


@pytest.mark.parametrize("field", FIELDS)
def test_cohomology_generators_match_the_presentation_route(monkeypatch, field):
    """At every nonzero certified H^i the degreewise count keeps as many
    generators, in the same degrees, as a minimal presentation of H^i on
    all cycle generators; and H^i presented on the kept ones has no
    redundant generator."""
    seen = 0
    for C in generator_cases(monkeypatch, field):
        if not C.support():
            continue
        for i in trusted_degrees(C):
            data = C.cohomology(i)
            if data.is_zero():
                continue
            seen += 1
            assert sorted(data.generator_degrees) == presentation_route_degrees(C, i), i
            mp = data.module.minimal()
            assert mp.survivors == list(range(len(data.generator_degrees))), i
            assert list(mp.generator_degrees) == list(data.generator_degrees), i
    assert seen >= 40, seen


def count_work(monkeypatch):
    """Install counters of minimal presentations, module Groebner bases,
    tower stages and S-pair reductions (the _reduce calls made inside
    ModuleGB._build); the tower stages are summed over every semifree
    resolution run.  Returns the live counts."""
    counts = {"presentations": 0, "module GBs": 0, "tower stages": 0, "S-pairs": 0}
    inner_mp = module_module.minimal_presentation
    inner_gb = syz_module.ModuleGB.__init__
    inner_build = syz_module.ModuleGB._build
    inner_reduce = syz_module.ModuleGB._reduce
    inner_sf = tower_module.semifree_resolution
    building = [False]

    def counted_mp(M):
        counts["presentations"] += 1
        return inner_mp(M)

    def counted_gb(self, *args, **kwargs):
        counts["module GBs"] += 1
        inner_gb(self, *args, **kwargs)

    def flagged_build(self, vectors):
        building[0] = True
        try:
            inner_build(self, vectors)
        finally:
            building[0] = False

    def counted_reduce(self, vec):
        counts["S-pairs"] += building[0]
        return inner_reduce(self, vec)

    def counted_sf(*args, **kwargs):
        result = inner_sf(*args, **kwargs)
        counts["tower stages"] += len(result.stages)
        return result

    monkeypatch.setattr(module_module, "minimal_presentation", counted_mp)
    monkeypatch.setattr(syz_module.ModuleGB, "__init__", counted_gb)
    monkeypatch.setattr(syz_module.ModuleGB, "_build", flagged_build)
    monkeypatch.setattr(syz_module.ModuleGB, "_reduce", counted_reduce)
    monkeypatch.setattr(tower_module, "semifree_resolution", counted_sf)
    monkeypatch.setattr(dimensions_module, "semifree_resolution", counted_sf)
    monkeypatch.setattr(syz_module, "_syz_cache", {})
    return counts


@pytest.mark.parametrize("field", FIELDS)
def test_golod_query_work_counts(monkeypatch, field):
    """Pinned work of inj_dim on k[x,y]/(x^2, xy), counted after the ring
    is built.  Before degrees were tested for vanishing by linear algebra
    the pins were 42 minimal presentations and 41 module Groebner bases;
    before the module Groebner engine applied the Gebauer-Moeller criteria
    they were 26 module Groebner bases and 809 (Q) / 818 (Fp) S-pair
    reductions.  Before Bass numbers were counted as k-dimensions (and the
    tower scan started at the degree the previous stage covered) they were
    11 presentations, 22 module Groebner bases and 287 (Q) / 285 (Fp)
    S-pair reductions.  Before each nonzero cohomology group was read off
    the degreewise count of its minimal generators (with no second syzygy
    module and no minimal presentation) they were 7 presentations, 18
    module Groebner bases and 253 (Q) / 252 (Fp) S-pair reductions.
    Before the tower scanned with the full count, so that the degree it
    covers is counted once and not twice, the _Span inserts were 93.
    Before the residue tower of the Bass numbers stopped at its window
    (with no termination scan below the floor) and sums of normal forms
    were taken as normal forms, they were 11 module Groebner bases,
    145 (Q) / 144 (Fp) S-pair reductions, 86 _Span inserts and 1,625 (Q) /
    1,688 (Fp) GradedRing.normal_form calls.  Before the slot relations
    were normalized once per DG-ring, not on every underlying() build,
    there were 337 (Q) / 353 (Fp) normal_form calls."""
    A = build_ring_dg(golod_ring(field))
    counts = count_work(monkeypatch)
    inserts = [0]
    normal_forms = [0]
    inner_insert = _Span.insert
    inner_nf = GradedRing.normal_form

    def counted_insert(self, vec):
        inserts[0] += 1
        return inner_insert(self, vec)

    def counted_nf(self, p):
        normal_forms[0] += 1
        return inner_nf(self, p)

    monkeypatch.setattr(_Span, "insert", counted_insert)
    monkeypatch.setattr(GradedRing, "normal_form", counted_nf)
    rep = dimensions_module.inj_dim(free_dg_module(A, [(0, 0)]))
    assert rep.infinite
    assert counts == {
        "presentations": 0,
        "module GBs": 10,
        "tower stages": 7,
        "S-pairs": {"Q": 102, "Fp:32003": 100}[field],
    }
    assert inserts[0] == 85
    assert normal_forms[0] == {"Q": 325, "Fp:32003": 341}[field]


@pytest.mark.parametrize("field", FIELDS)
def test_golod_ring_build_work_counts(monkeypatch, field):
    """Building k[x,y]/(x^2, xy) computes the reduced Groebner basis of its
    ideal as one rank-one module Groebner basis, with one S-pair: x^2, xy."""
    counts = count_work(monkeypatch)
    build_ring_dg(golod_ring(field))
    assert counts == {
        "presentations": 0,
        "module GBs": 1,
        "tower stages": 0,
        "S-pairs": 1,
    }
