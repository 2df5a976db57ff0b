"""Complexes: resolutions, pruning, duals, base change and cohomology.

Cones, Koszul complexes and Hom out of a semifree module are built with the
DG constructors over a ring viewed as a DG-ring, the way the queries build
them.  Tor and Ext against a cyclic module R/I are the cohomology of the
base change of a minimal free resolution to R/I and of its dual.  The
minimal generators of each cohomology group are checked against
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
    base_change,
    cohomology_data,
    dual_complex,
    minimal_free_resolution_module,
    prune_complex,
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
    certify_termination,
    cone_dg,
    direct_sum_dg,
    free_dg_module,
    h0_cyclic_dg_module,
    hom_semifree_into_dg,
    koszul_dg_module,
    multiplication_map,
    reduce_to_h0,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
)
from dgdim.core.freemod import _Span
from dgdim.core.ring import GradedRing
from dgdim.corpus import (
    amplitude_zero_test_family,
    homogeneous_pool,
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


def exact_resolution(M, window_lo=-8):
    """The resolution of a module of finite projective dimension: a deep
    window, then certified terminated."""
    res = certify_termination(semifree_resolution(M, window_lo=window_lo))
    assert res.terminated
    return res


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


def kept_presentation(C, i, K):
    """Presentation of H^i(C) on classes K (columns of a matrix into the
    cover at i): the K-block heads of syz([K | D_{i-1} | Q_i]) are the
    relations among the classes, so its cokernel is H^i when K generates."""
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
    return GradedMatrix.from_columns(
        K.source, [d for _, d in heads], [h for h, _ in heads]
    )


def assert_h_matches_oracle(C, degrees, t_range):
    """H^i, presented on the generators that cohomology keeps, has the rank
    oracle's dimension in every internal degree t of t_range: the kept
    classes generate H^i in each of these degrees."""
    for i in degrees:
        data = C.cohomology(i)
        pres = None
        if not data.is_zero():
            kept = GradedMatrix.from_columns(
                C.cover(i), data.generator_degrees, data.representatives
            )
            pres = kept_presentation(C, i, kept)
        for t in t_range:
            dim = 0 if pres is None else pres.coker_dim_in_degree(t)
            assert dim == h_dim(C, i, t), (i, t)


def assert_residue_field_power(C, i, ring, rank=1):
    """H^i(C) = k^rank in degree 0: rank in degree 0 and nothing from there
    up to the largest variable degree, so every variable kills it; its
    minimal generators are rank classes of degree 0."""
    assert C.cohomology(i).generator_degrees == (0,) * rank
    assert h_dim(C, i, 0) == rank
    top = max(v.degree() for v in ring.variables())
    for t in range(1, top + 1):
        assert h_dim(C, i, t) == 0, t


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
        assert h_dim(C, 0, t) == 1
    h1 = C.cohomology(-1)
    # kernel of x on R(-1) is generated by y * e, internal degree 2
    assert h1.generator_degrees == (2,)
    for t in range(0, 6):
        assert h_dim(C, -1, t) == (1 if t >= 2 else 0)
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
    F = minimal_free_resolution_module(k, cutoff=6)
    assert F.known_lo is None
    assert F.support() == [-2, -1, 0]
    assert F.cover(0).degrees == (0,)
    assert tuple(sorted(F.cover(-1).degrees)) == (1, 1)
    assert F.cover(-2).degrees == (2,)
    for d in F.diffs.values():
        assert d.min_entry_degree_is_positive()
    # resolves k: H^0 = k, H^{-1} = H^{-2} = 0
    assert_h_matches_oracle(F, [-2, -1, 0], range(0, 5))
    assert cohomology_data(F, 0).generator_degrees == (0,)
    assert_residue_field_power(F, 0, R)
    assert cohomology_data(F, -1).is_zero()
    assert cohomology_data(F, -2).is_zero()


def test_resolution_of_k_over_dual_numbers_is_periodic():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    k = GradedModule.cyclic(R, [R.parse("x")])
    F = minimal_free_resolution_module(k, cutoff=5)
    assert F.support() == [-6, -5, -4, -3, -2, -1, 0]
    for i in range(0, 7):
        assert F.cover(-i).degrees == (i,)
    assert F.known_lo == -6
    for i in range(-5, 0):
        assert cohomology_data(F, i).is_zero()


def test_resolution_of_free_module_is_itself():
    R = make_graded_ring("Q", ["x", "y"], ["x^2"])
    free = GradedFreeModule(R, (0, 3))
    M = GradedModule(GradedMatrix.zero(free, GradedFreeModule(R, ())))
    F = minimal_free_resolution_module(M, cutoff=3)
    assert F.known_lo is None
    assert F.support() == [0]
    assert F.cover(0).degrees == (0, 3)


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
    b1, b2 = (
        {i: F.cover(i).degrees for i in F.support()}
        for F in (minimal_free_resolution_module(N, cutoff=4) for N in (lean, fat))
    )
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
    assert_residue_field_power(T, 0, R)
    assert_h_matches_oracle(T, [-2, -1, 0], range(0, 5))


def test_tensor_koszul_sign_gives_d_squared_zero():
    R = make_graded_ring("Q", ["x", "y", "z"], [])
    K = koszul_dg_module(build_ring_dg(R), R.variables()).underlying()
    K.validate()
    assert [K.cover(-i).rank for i in range(0, 4)] == [1, 3, 3, 1]
    for i in [-3, -2, -1]:
        assert K.cohomology(i).is_zero()
    assert_residue_field_power(K, 0, R)


def test_hom_from_ring_is_identity():
    R = make_graded_ring("Q", ["x", "y"], ["x*y"])
    A = build_ring_dg(R)
    C = cone_dg(multiplication_map(free_dg_module(A, [(0, 1)]), R.parse("x")))
    U = C.underlying()
    H = hom_semifree_into_dg(exact_resolution(free_dg_module(A, [(0, 0)])), C)
    assert H.support() == U.support()
    for i in U.support():
        assert H.cover(i).degrees == U.cover(i).degrees
    for i in U.diffs:
        assert H.diff(i).cols == U.diff(i).cols


def test_hom_of_koszul_into_ring():
    R = make_graded_ring("Q", ["x", "y"], [])
    A = build_ring_dg(R)
    H = hom_semifree_into_dg(
        exact_resolution(koszul_dg_module(A, [R.parse("x")])),
        free_dg_module(A, [(0, 0)]),
    )
    assert H.support() == [0, 1]
    assert H.cover(1).degrees == (-1,)
    H.validate()
    assert H.cohomology(0).is_zero()
    h1 = H.cohomology(1)
    assert h1.generator_degrees == (-1,)
    for t in range(-1, 4):
        assert h_dim(H, 1, t) == (1 if t >= -1 else 0)


def test_hom_differential_sign_convention():
    # on Hom^n the differential is -(-1)^n phi o d_F; into the ring the
    # component Hom^0 -> Hom^1 must be -(transpose of d_F)
    R = make_graded_ring("Q", ["x"], [])
    x = R.parse("x")
    c = {-1: GradedFreeModule(R, (1,)), 0: GradedFreeModule(R, (0,))}
    Kx = PresentedComplex(R, c, {-1: GradedMatrix(c[0], c[-1], [{0: x}])}, check=True)
    H = dual_complex(Kx)
    assert H.diff(0).cols == ({0: -x},)
    assert {n: H.cover(n).degrees for n in H.support()} == {0: (0,), 1: (-1,)}


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
    return PresentedComplex(R, {0: F0}, {}, {0: Q}, check=True)


@pytest.mark.parametrize(
    "operation",
    [
        prune_complex,
        dual_complex,
        lambda C: base_change(C, C.ring.variables()),
    ],
    ids=["prune_complex", "dual_complex", "base_change"],
)
def test_free_complex_operations_reject_relations(operation):
    with pytest.raises(ValueError, match="without relations"):
        operation(_with_relations())


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


def tor(M, extra, cutoff):
    """The complex whose H^{-n} is Tor_n(M, R/(extra)): the minimal free
    resolution of M, base changed to R/(extra)."""
    return base_change(minimal_free_resolution_module(M, cutoff), extra)


def ext(M, extra, cutoff):
    """The complex whose H^n is Ext^n(M, R/(extra)): the dual, over
    R/(extra), of tor(M, extra, cutoff)."""
    return dual_complex(tor(M, extra, cutoff))


def test_tor_of_hypersurface_sections_over_polynomial_ring():
    A = make_graded_ring("Q", ["x", "y"], [])
    x = A.parse("x")
    T = tor(GradedModule.cyclic(A, [x]), [x], 4)
    assert T.ring.relations == (x,)
    tor_n = {n: T.cohomology(-n) for n in range(0, 3)}
    assert tor_n[0].generator_degrees == (0,)
    assert tor_n[1].generator_degrees == (1,)
    assert tor_n[2].is_zero()
    # Tor_1 = k[y](-1): one dimension in each internal degree >= 1
    for t in range(0, 5):
        assert h_dim(T, -1, t) == (1 if t >= 1 else 0)
        assert h_dim(T, 0, t) == (1 if t >= 0 else 0)


def test_tor_is_balanced():
    A = make_graded_ring("Q", ["x", "y"], ["x^2*y"])
    I = [A.parse("x^2")]
    J = [A.parse("y"), A.parse("x^3")]
    t1 = tor(GradedModule.cyclic(A, I), J, 5)
    t2 = tor(GradedModule.cyclic(A, J), I, 5)
    for n in range(0, 4):
        assert sorted(t1.cohomology(-n).generator_degrees) == sorted(
            t2.cohomology(-n).generator_degrees
        )
        for t in range(0, 6):
            assert h_dim(t1, -n, t) == h_dim(t2, -n, t), (n, t)


def test_ext_of_k_with_k_over_polynomial_ring():
    A = make_graded_ring("Q", ["x", "y"], [])
    m = [A.parse("x"), A.parse("y")]
    H = ext(GradedModule.cyclic(A, m), m, 5)
    assert H.cohomology(0).generator_degrees == (0,)
    assert tuple(sorted(H.cohomology(1).generator_degrees)) == (-1, -1)
    assert H.cohomology(2).generator_degrees == (-2,)
    assert H.cohomology(3).is_zero()


def test_ext_of_k_over_dual_numbers_never_stops():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    m = [R.parse("x")]
    H = ext(GradedModule.cyclic(R, m), m, 6)
    for n in range(0, 5):
        assert H._trust(n)
        assert H.cohomology(n).generator_degrees == (-n,)


def test_ext_degree_zero_is_hom():
    A = make_graded_ring("Q", ["x", "y"], [])
    I = [A.parse("x")]
    H = ext(GradedModule.cyclic(A, I), I, 3)
    # Hom(A/x, A/x) = A/x: generator in degree 0
    assert H.cohomology(0).generator_degrees == (0,)
    for t in range(0, 4):
        assert h_dim(H, 0, t) == 1


def test_dual_and_base_change_keep_entries_and_flip_the_window():
    """Over k[x, y]/(x^2), base change to R/(y) of the truncated resolution
    of k keeps its covers and window and reduces each entry mod y; the dual
    negates the twists, transposes each differential with the sign
    -(-1)^n and puts the window's lower end, negated, at its top."""
    R = make_graded_ring("Q", ["x", "y"], ["x^2"])
    x, y = R.variables()
    F = minimal_free_resolution_module(GradedModule.cyclic(R, [x, y]), 2)
    T = base_change(F, [y])
    assert base_change(F, []).ring is R and T.ring is R.quotient([y])
    assert (T.known_lo, T.known_hi) == (F.known_lo, None) == (-3, None)
    assert {i: T.cover(i).degrees for i in T.support()} == {
        i: F.cover(i).degrees for i in F.support()
    }
    for i, d in F.diffs.items():
        want = [{r: T.ring.normal_form(e) for r, e in col.items()} for col in d.cols]
        assert list(T.diff(i).cols) == [
            {r: e for r, e in col.items() if e} for col in want
        ], i
    H = dual_complex(T)
    assert (H.known_lo, H.known_hi) == (None, 3)
    for j in F.support():
        assert H.cover(-j).degrees == tuple(-d for d in F.cover(j).degrees)
    for j, d in T.diffs.items():
        n = -j - 1
        for a, col in enumerate(d.cols):
            for b, e in col.items():
                assert H.diff(n).cols[b][a] == (e if n % 2 else -e), (n, a, b)
    # dualizing twice gives T back with every differential negated, and
    # the window back where it was
    HH = dual_complex(H)
    assert (HH.known_lo, HH.known_hi) == (T.known_lo, T.known_hi)
    assert {i: HH.cover(i).degrees for i in HH.support()} == {
        i: T.cover(i).degrees for i in T.support()
    }
    assert {i: d.cols for i, d in HH.diffs.items()} == {
        i: tuple({r: -e for r, e in col.items()} for col in d.cols)
        for i, d in T.diffs.items()
    }


def test_tables_refuse_degrees_past_a_truncated_resolution():
    R = make_graded_ring("Q", ["x"], ["x^2"])
    m = [R.parse("x")]
    T = tor(GradedModule.cyclic(R, m), m, 2)
    reach = -T.known_lo
    H = dual_complex(T)
    assert H._trust(reach - 1) and not H._trust(reach)
    assert H.cohomology(reach - 1).generator_degrees
    assert T._trust(1 - reach) and not T._trust(-reach)
    assert T.cohomology(1 - reach).generator_degrees


# ---------- windows ----------


def test_truncated_complex_refuses_uncertified_degrees():
    # k over the dual numbers, resolved by a semifree tower cut off after
    # three steps: the cut leaves cohomology at the bottom degree, which
    # the resolution's window excludes, and only H^0 = k survives inside
    # it; the reduction to H^0 takes the window from the resolution
    R = make_graded_ring("Q", ["x"], ["x^2"])
    res = semifree_resolution(residue_dg_module(build_ring_dg(R)), window_lo=-2)
    assert not res.terminated and res.pending is not None
    assert res.known_lo == min(res.sf.support()) == -3
    assert res.sf.cohomology_support() == [res.known_lo, 0]
    assert [i for i in res.sf.cohomology_support() if i > res.known_lo] == [0]
    F = reduce_to_h0(res)
    assert F.known_lo == res.known_lo
    assert not F._trust(res.known_lo) and F._trust(res.known_lo + 1)


# ---------- complexes of presented modules ----------

FIELDS = ["Q", "Fp:32003"]


def golod_ring(field):
    return make_graded_ring(field, ["x", "y"], ["x^2", "x*y"])


def koszul_ring(field):
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def base_changed_cases(field):
    """Tor and Ext of k against R/(y) and against k over the Golod ring:
    free complexes over the quotient rings."""
    R = golod_ring(field)
    x, y = R.variables()
    F = minimal_free_resolution_module(GradedModule.cyclic(R, [x, y]), 3)
    for extra in ([y], [x, y]):
        T = base_change(F, extra)
        yield T
        yield dual_complex(T)


def h0_cyclic_hom_cases(field):
    """Hom out of the residue tower over the Golod ring into its h0-cyclic
    modules R/(y) and k: complexes with relations."""
    A = build_ring_dg(golod_ring(field))
    x, y = A.base.variables()
    res = semifree_resolution(residue_dg_module(A), window_lo=-3)
    for extra in ([y], [x, y]):
        yield hom_semifree_into_dg(res, h0_cyclic_dg_module(A, extra))


@pytest.mark.parametrize("field", FIELDS)
def test_base_change_and_dual_match_oracle(field):
    for C in base_changed_cases(field):
        assert not C.rels
        C.validate()
        assert_h_matches_oracle(C, trusted_degrees(C), range(-5, 6))
    for C in h0_cyclic_hom_cases(field):
        assert C.rels
        C.validate()
        assert_h_matches_oracle(C, trusted_degrees(C), range(-5, 6))


@pytest.mark.parametrize("field", FIELDS)
def test_dg_module_underlying_matches_oracle(field):
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        _, y = A.base.variables()
        k = residue_dg_module(A)
        assert_residue_field_power(
            direct_sum_dg(k, k).underlying(), 0, A.base, rank=2
        )
        for M in (direct_sum_dg(k, koszul_dg_module(A, [y])), direct_sum_dg(k, k)):
            C = M.underlying()
            assert C.rels
            C.validate()
            assert_h_matches_oracle(C, trusted_degrees(C), range(0, 5))


@pytest.mark.parametrize("field", FIELDS)
def test_hom_semifree_matches_oracle(field):
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        res = semifree_resolution(residue_dg_module(A), window_lo=-2)
        for M in (residue_dg_module(A), free_dg_module(A, [(0, 0)])):
            C = hom_semifree_into_dg(res, M)
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
    for C in base_changed_cases(field):
        yield C, C
    for C in h0_cyclic_hom_cases(field):
        yield C, C
    for A in (build_ring_dg(golod_ring(field)), koszul_ring(field)):
        res = semifree_resolution(residue_dg_module(A), window_lo=-2)
        for _, T in amplitude_zero_test_family(A):
            C = hom_semifree_into_dg(res, T)
            yield C, C


@pytest.mark.parametrize("field", FIELDS)
def test_vanishing_test_matches_rank_oracle(field):
    seen = {True: 0, False: 0, "with relations": 0}
    for X, C in vanishing_cases(field):
        if not C.support():
            continue
        seen["with relations"] += bool(C.rels)
        for i in trusted_degrees(C):
            got = X.cohomology_vanishes(i)
            assert got == vanishes_by_oracle(C, i), (X, i)
            assert X.cohomology(i).is_zero() == got, (X, i)
            if complexes_module._cycles(C, i) is not None:
                seen[got] += 1
    # both answers are exercised on degrees that have cycles, and on
    # complexes with relations
    assert seen[True] >= 20 and seen[False] >= 20, seen
    assert seen["with relations"] >= 2, seen


# ---------- the cycles ----------


def stacked_cycles(C, i):
    """Reference cycle generators at i: the first-block projections of the
    syzygies of [D_i | Q_{i+1}], that block always stacked into a fresh
    matrix (a zero matrix standing in for a missing D_i), and the identity
    only when the stacked block is zero."""
    cov = C.cover(i)
    if not cov.rank or C.ring.is_zero_ring:
        return None
    nxt = C.cover(i + 1)
    blocks = [C.diff(i)] + [B for B in (C.rel(i + 1),) if B is not None]
    stacked = GradedMatrix.from_columns(
        nxt,
        [d for B in blocks for d in B.source.degrees],
        [col for B in blocks for col in B.cols],
    )
    if stacked.is_zero():
        return GradedMatrix.identity(cov)
    cols, degs = complexes_module._first_block(
        syz_module.syzygy_matrix(stacked), cov.rank
    )
    return GradedMatrix.from_columns(cov, degs, cols) if cols else None


def seeded_presented_cases(field):
    """Over each standard family (each factor of a product) with two
    elements in its cone pool, and each seed, the underlying complex of
    cone(a: H(-|a|) -> H) + free + H'[-1], H and H' cyclic H^0-modules on
    relations from the cone pool.  At degree -1 both the cone's
    differential and H's relations are present; at degree 0 the cover has
    rank at least three, no differential leaves it, and H' puts relations
    at degree 1."""
    factors = [F for A in standard_families(field) for F in getattr(A, "factors", [A])]
    for A in factors:
        pool = homogeneous_pool(A)
        if len(pool) < 2:
            continue
        for seed in range(3):
            rng = Random(seed)
            H = h0_cyclic_dg_module(A, rng.sample(pool, 2))
            cone = cone_dg(multiplication_map(H, rng.choice(pool)), check=False)
            free = free_dg_module(
                A, [(0, rng.randrange(0, 2)), (0, rng.randrange(0, 3)), (-1, 1)]
            )
            top = shift_dg(h0_cyclic_dg_module(A, rng.sample(pool, 2)), -1)
            yield direct_sum_dg(direct_sum_dg(cone, free), top).underlying()


@pytest.mark.parametrize("field", FIELDS)
def test_cycles_match_the_stacked_block_reference(field):
    """The cycle generators, their degrees and the representatives of H^i
    are those that the stacked block [D_i | Q_{i+1}] gives, on seeded
    complexes with relations and on those of the vanishing test."""
    seen = {"both blocks": 0, "relations only": 0}
    cases = list(seeded_presented_cases(field))
    cases += [C for _, C in vanishing_cases(field)]
    for C in cases:
        if not C.support():
            continue
        for i in trusted_degrees(C):
            ref = stacked_cycles(C, i)
            got = complexes_module._cycles(C, i)
            assert (got is None) == (ref is None), i
            if ref is None:
                continue
            assert got.source.degrees == ref.source.degrees, i
            assert list(got.cols) == list(ref.cols), i
            kept = ref.minimal_columns(complexes_module._image_blocks(C, i))
            data = C.cohomology(i)
            assert data.representatives == [ref.cols[j] for j in kept], i
            assert data.generator_degrees == tuple(
                ref.source.degrees[j] for j in kept
            ), i
            if C.rel(i + 1) is not None:
                if i in C.diffs:
                    seen["both blocks"] += 1
                elif C.cover(i).rank >= 2:
                    seen["relations only"] += 1
    assert seen["both blocks"] >= 9 and seen["relations only"] >= 9, seen


# ---------- minimal generators of cohomology ----------


def presentation_route_degrees(C, i, K):
    """Sorted minimal generator degrees of H^i(C), the way a presentation
    gets them from generators K of H^i: the minimal presentation of H^i on
    K keeps a minimal generating set."""
    if K is None:
        return []
    pres = kept_presentation(C, i, K)
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
    vanishing test (seeded corpora, base changes and duals over the Golod
    ring, Hom out of semifree resolutions), the cocone of every stage of the residue
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
            ["base_change", "dual_complex"],
            lambda: finitistic_module.hochschild_table(A, B),
        )


@pytest.mark.parametrize("field", FIELDS)
def test_cohomology_generators_match_the_presentation_route(monkeypatch, field):
    """At every nonzero certified H^i the degreewise count keeps as many
    generators, in the same degrees, as a minimal presentation of H^i on
    all cycle generators; and H^i presented on the kept ones has no
    redundant generator.  Where the generators lie in several internal
    degrees, H^i presented on them has the oracle's Hilbert function from
    below the lowest to above the highest."""
    seen = {"groups": 0, "with relations": 0, "several degrees": 0}
    for C in generator_cases(monkeypatch, field):
        if not C.support():
            continue
        seen["with relations"] += bool(C.rels)
        for i in trusted_degrees(C):
            data = C.cohomology(i)
            if data.is_zero():
                continue
            seen["groups"] += 1
            want = presentation_route_degrees(C, i, complexes_module._cycles(C, i))
            assert sorted(data.generator_degrees) == want, i
            kept = GradedMatrix.from_columns(
                C.cover(i), data.generator_degrees, data.representatives
            )
            assert presentation_route_degrees(C, i, kept) == want, i
            if want[0] < want[-1]:
                seen["several degrees"] += 1
                assert_h_matches_oracle(C, [i], range(want[0] - 1, want[-1] + 2))
    assert seen["groups"] >= 40 and seen["with relations"] >= 2, seen
    assert seen["several degrees"] >= 10, seen


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
    there were 337 (Q) / 353 (Fp) normal_form calls.  Before the residue
    tower was windowed at mslot - scan_hi, two stages shallower, the query
    built 10 module Groebner bases over 7 tower stages, with 102 (Q) /
    100 (Fp) S-pair reductions, 85 _Span inserts and 325 (Q) / 341 (Fp)
    normal_form calls."""
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
        "module GBs": 8,
        "tower stages": 5,
        "S-pairs": {"Q": 59, "Fp:32003": 58}[field],
    }
    assert inserts[0] == 51
    assert normal_forms[0] == 124


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
