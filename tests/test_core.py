"""Exact core: scalars, polynomials, Groebner bases, ring invariants."""
import random
from fractions import Fraction

import pytest

from dgdim.core import (
    GradedFreeModule,
    GradedMatrix,
    GradedRing,
    Poly,
    PolyRing,
    PrimeField,
    Rationals,
    field_from_tag,
    make_graded_ring,
)
from dgdim.core.freemod import _Span
from dgdim.core.ring import _reduce


def test_field_tags_roundtrip():
    assert field_from_tag("Q") == Rationals()
    f = field_from_tag("Fp:7")
    assert isinstance(f, PrimeField) and f.p == 7
    with pytest.raises(ValueError):
        field_from_tag("Fp:6")


def test_prime_field_arith():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.parse("-1") == 6
    assert f.parse("1/3") == 5


def _rational_samples(seed):
    """Seeded elements of Q in the field's representation: 0, +-1, small and
    about 100-digit integers, proper fractions, and integral values reached
    only through fraction operations."""
    Q = Rationals()
    rng = random.Random(seed)
    big = [rng.randrange(10 ** 99, 10 ** 100) for _ in range(3)]
    out = [Q.zero(), Q.one(), Q.neg(Q.one()), Q.from_int(7), Q.from_int(-12)]
    out += [Q.from_int(b) for b in big] + [Q.from_int(-big[0])]
    for _ in range(12):
        num = rng.choice([1, -1, 2, -3, 5, big[1], -big[2]])
        den = rng.choice([2, 3, 7, 10, big[0]])
        out.append(Q.parse("%d/%d" % (num, den)))
    half = Q.parse("1/2")
    out.append(Q.mul(half, Q.from_int(2)))  # (1/2)*2 = 1
    out.append(Q.add(half, half))  # 1/2 + 1/2 = 1
    out.append(Q.mul(Q.parse("2/3"), Q.parse("-3/2")))  # -1
    out.append(Q.add(Q.parse("7/3"), Q.parse("-1/3")))  # 2
    out.append(Q.inv(Q.parse("1/%d" % big[1])))  # 1/(1/b) = b
    out.append(Q.mul(Q.from_int(big[2]), Q.parse("1/%d" % big[2])))  # 1
    return out


def _canonical(value, expected):
    """value equals the Fraction expected and is an int exactly when the
    value is integral (never a float or an integral Fraction)."""
    assert value == expected
    assert not isinstance(value, float)
    if expected.denominator == 1:
        assert type(value) is int, (value, expected)
    else:
        assert type(value) is Fraction, (value, expected)
    return True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rationals_match_fraction_oracle(seed):
    Q = Rationals()
    samples = _rational_samples(seed)
    for a in samples:
        fa = Fraction(a)
        assert _canonical(a, fa)
        assert _canonical(Q.neg(a), -fa)
        assert Q.format(a) == str(fa)
        assert Q.is_zero(a) == (fa == 0)
        if fa == 0:
            with pytest.raises(ZeroDivisionError):
                Q.inv(a)
        else:
            assert _canonical(Q.inv(a), 1 / fa)
        for b in samples:
            fb = Fraction(b)
            assert _canonical(Q.add(a, b), fa + fb)
            assert _canonical(Q.sub(a, b), fa - fb)
            assert _canonical(Q.mul(a, b), fa * fb)
            if fb != 0:
                assert _canonical(Q.div(a, b), fa / fb)
    rng = random.Random(seed)
    for _ in range(50):
        num = rng.randrange(-10 ** 30, 10 ** 30)
        den = rng.choice([1, 2, 6, rng.randrange(1, 10 ** 30)])
        assert _canonical(Q.parse("%d/%d" % (num, den)), Fraction(num, den))
        assert _canonical(Q.parse(" %d " % num), Fraction(num))
    with pytest.raises(ValueError):
        Q.parse("1/0")


def test_poly_parse_format_roundtrip():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    amb = R.ambient
    for s in ["x^2 - 2*x*y + 1/2", "x", "-x + y", "3*x^2*y", "0", "1"]:
        p = amb.parse(s)
        again = amb.parse(str(p))
        assert p == again


def test_grevlex_order():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    amb = R.ambient
    x2 = amb.parse("x^2").leading()[0]
    xy = amb.parse("x*y").leading()[0]
    y2 = amb.parse("y^2").leading()[0]
    assert amb.mono_key(x2) > amb.mono_key(xy) > amb.mono_key(y2)
    # leading term of x^2 + y^2 is x^2
    assert amb.parse("x^2 + y^2").leading()[0] == x2


def test_weighted_grading():
    R = make_graded_ring("Q", {"u": 2, "v": 3})
    p = R.ambient.parse("u^3 + v^2")
    assert p.degree() == 6
    with pytest.raises(ValueError):
        R.ambient.parse("u + v").degree()


def test_buchberger_contains_y_cubed():
    # classical pair {x^2 + y^2, x*y}: the reduced basis acquires y^3
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2 + y^2", "x*y"])
    printed = {str(g) for g in R.gb}
    assert "y^3" in printed
    assert len(R.gb) == 3


FIELDS = ["Q", "Fp:32003"]


def _seeded_ideals(field):
    """(ambient, generators) of homogeneous ideals: fixed monomial, binomial,
    weighted and unit examples, then seeded random ideals padded with zero
    generators, scalar multiples and sums of generators."""
    F = field_from_tag(field)
    xyz = PolyRing(F, ["x", "y", "z"], [1, 1, 1])
    fixed = [
        (PolyRing(F, ["x", "y"], [1, 1]), ["x^2 + y^2", "x*y"]),
        (xyz, ["x^2", "x*y", "y^3", "x^2*z", "0", "x*y*z"]),
        (xyz, ["x*y - z^2", "y^2 - x*z", "x^2 - y*z"]),
        (PolyRing(F, ["u", "v", "w"], [2, 3, 1]), ["u^3 - v^2", "u*w^2 - v*w", "w^6"]),
        (xyz, ["x*y", "1", "z^2"]),
    ]
    for ambient, texts in fixed:
        yield ambient, [ambient.parse(t) for t in texts]
    rng = random.Random(17)
    free = GradedRing(xyz, [])
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(2, 4)):
            monos = free.standard_monomials(rng.randint(2, 3))
            terms = {
                m: F.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                for m in rng.sample(monos, rng.randint(1, 3))
            }
            gens.append(Poly(xyz, terms))
        gens.append(gens[0].scale(F.from_int(2)))
        same = [g for g in gens if g.degree() == gens[-1].degree()]
        gens.append(same[0] + same[-1])
        gens.append(xyz.zero())
        rng.shuffle(gens)
        yield xyz, gens


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_is_memoized_on_the_ring(field):
    """R.quotient(extra) is one ring object per extra, equal in relations,
    basis, key and JSON to a fresh ring on the same relations; zero extras
    are dropped and the order of the extras is kept."""
    R = make_graded_ring(field, ["x", "y", "z"], ["x*y - z^2"])
    amb = R.ambient
    a, b = amb.parse("x^2 + y*z"), amb.parse("y^3")
    Q = R.quotient([a, R.zero(), b])
    assert R.quotient([amb.parse("y*z + x^2"), b]) is Q
    fresh = GradedRing(amb, list(R.relations) + [a, b])
    assert Q.relations == fresh.relations == R.relations + (a, b)
    assert Q.gb == fresh.gb
    assert Q.key() == fresh.key()
    swapped = R.quotient([b, a])
    assert swapped is not Q
    assert swapped.relations == R.relations + (b, a)
    assert swapped.key() == Q.key()


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_by_nothing_is_the_ring_itself(field):
    """With no nonzero extra relation, R.quotient returns R: it builds no
    ring and no Groebner basis."""
    R = make_graded_ring(field, ["x", "y"], ["x^2"])
    assert R.quotient([]) is R
    assert R.quotient([R.zero()]) is R
    assert not R._quotients


@pytest.mark.parametrize("field", FIELDS)
def test_ideal_groebner_basis_is_reduced_and_spans_the_ideal(field):
    """The reduced basis of every seeded ideal is monic, reduced, sorted and
    closed under S-polynomials, and it spans the ideal of the generators:
    the generators reduce to zero, and in every degree up to the top basis
    degree their monomial multiples span a space of dimension
    #monomials - hilbert_function."""
    for ambient, gens in _seeded_ideals(field):
        R = GradedRing(ambient, gens)
        gb = R.gb
        assert gb, gens
        leads = [g.leading()[0] for g in gb]
        keys = [ambient.mono_key(m) for m in leads]
        assert keys == sorted(set(keys)), gb
        one = ambient.field.one()
        for g, lm in zip(gb, leads):
            assert g.leading()[1] == one, gb
            for h in leads:
                if h != lm:
                    assert not any(ambient.mono_divides(h, m) for m in g.terms), gb
        for g in gens:
            assert not R.normal_form(g), (g, gb)
        def times(g, mono):
            return g * Poly(ambient, {mono: one})

        for i, (g, lg) in enumerate(zip(gb, leads)):
            for h, lh in zip(gb[i + 1 :], leads[i + 1 :]):
                lcm = ambient.mono_lcm(lg, lh)
                s = times(g, ambient.mono_div(lcm, lg)) - times(h, ambient.mono_div(lcm, lh))
                assert not _reduce(s, R._leads), (g, h)
        free = GradedRing(ambient, [])
        for d in range(max(g.degree() for g in gb) + 1):
            span = _Span(ambient.field)
            rank = sum(
                span.insert(times(g, m).terms)
                for g in gens
                if g and g.degree() <= d
                for m in free.standard_monomials(d - g.degree())
            )
            assert rank == free.hilbert_function(d) - R.hilbert_function(d), (gens, d)


def test_normal_form_examples():
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2 + y^2"])
    p = R.parse("y^2")
    assert str(p) == "y^2"
    # x^2 reduces to -y^2
    assert str(R.parse("x^2")) == "-y^2"
    # idempotence
    assert R.normal_form(p) == p


def test_normal_form_multiplicative_up_to_reduction():
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2 + y^2", "x*y"])
    rng = random.Random(0)
    monos = ["x", "y", "x^2", "y^2", "x*y", "y^3"]
    for _ in range(25):
        a = R.ambient.parse(rng.choice(monos))
        b = R.ambient.parse(rng.choice(monos))
        lhs = R.normal_form(a * b)
        rhs = R.normal_form(R.normal_form(a) * R.normal_form(b))
        assert lhs == rhs


def test_zero_ring_flag():
    R = make_graded_ring("Q", {"x": 1}, ["1"])
    assert R.is_zero_ring
    assert R.dimension() == -1
    assert R.standard_monomials(0) == []


def test_dimension_examples():
    assert make_graded_ring("Q", {"x": 1, "y": 1}).dimension() == 2
    assert make_graded_ring("Q", {}, []).dimension() == 0
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2", "x*y"])
    assert R.dimension() == 1
    S = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2 + y^2", "x*y"])
    assert S.dimension() == 0


def test_hilbert_function_quotient():
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2", "x*y"])
    # basis: 1; x, y; y^2; y^3; ...
    assert [R.hilbert_function(t) for t in range(5)] == [1, 2, 1, 1, 1]


def test_socle_detects_depth_zero():
    # x is annihilated by the irrelevant ideal in k[x,y]/(x^2, xy)
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2", "x*y"])
    x = R.parse("x")
    for v in R.variables():
        assert R.mul(x, v).is_zero()


def test_graded_matrix_homogeneity_check():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 2))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("x*y")}])
    M.check_homogeneous()
    bad = GradedMatrix(F0, F1, [{0: R.parse("x^2")}, {0: R.parse("x*y")}])
    with pytest.raises(ValueError):
        bad.check_homogeneous()


# ---------- sparse matrix arithmetic against a dense reference ----------


def _arith_rings(field):
    return [
        make_graded_ring(field, ["x", "y"]),
        make_graded_ring(field, ["x", "y"], ["x^2*y"]),
        make_graded_ring(field, ["x", "y", "z"], ["x*y", "z^2"]),
    ]


def _random_entry(R, rng, d):
    """Zero, or a sum of up to three random ambient monomials of degree d
    with coefficients in -3..3, not reduced modulo the ring's relations."""
    P = R.ambient
    xs = [P.variable(name) for name in P.names]
    e = P.zero()
    if d < 0 or rng.random() < 0.4:
        return e
    for _ in range(rng.randint(1, 3)):
        m = P.one().scale(P.field.from_int(rng.randint(-3, 3)))
        for _ in range(d):
            m = m * rng.choice(xs)
        e = e + m
    return e


def _random_matrix(R, rng, tgt, src):
    """(GradedMatrix, dense rows of normal forms): random homogeneous
    entries, with about one column in four forced to zero."""
    zero_cols = {j for j in range(len(src)) if rng.random() < 0.25}
    raw = [
        [R.zero() if j in zero_cols else _random_entry(R, rng, src[j] - tgt[i])
         for j in range(len(src))]
        for i in range(len(tgt))
    ]
    M = GradedMatrix(
        GradedFreeModule(R, tgt),
        GradedFreeModule(R, src),
        [{i: raw[i][j] for i in range(len(tgt))} for j in range(len(src))],
    )
    return M, [[R.normal_form(e) for e in row] for row in raw]


def _dense(M):
    """M's entries as dense rows; every stored entry must be a nonzero
    normal form on a row of the target."""
    R = M.ring
    for col in M.cols:
        for i, e in col.items():
            assert 0 <= i < M.target.rank and e and R.normal_form(e) == e
    return [
        [M.cols[j].get(i, R.zero()) for j in range(M.source.rank)]
        for i in range(M.target.rank)
    ]


def _dense_product(R, A, B, inner, ncols):
    """The triple loop: entry (i, j) is the normal form of sum_k A_ik B_kj."""
    return [
        [
            R.normal_form(sum((A[i][k] * B[k][j] for k in range(inner)), R.zero()))
            for j in range(ncols)
        ]
        for i in range(len(A))
    ]


def _degrees(rng, lo, n):
    return tuple(sorted(rng.randint(lo, lo + 2) for _ in range(n)))


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_matrix_arithmetic_matches_a_dense_reference(field):
    rng = random.Random(13)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(12)]
    checked_zero = False
    for R in _arith_rings(field):
        for n0, n1, n2 in shapes:
            d0 = _degrees(rng, 0, n0)
            d1 = _degrees(rng, 1, n1)
            d2 = _degrees(rng, 2, n2)
            A, DA = _random_matrix(R, rng, d0, d1)
            B, DB = _random_matrix(R, rng, d1, d2)
            assert _dense(A) == DA and _dense(B) == DB
            A.check_homogeneous()
            is_zero = all(not e for row in DA for e in row)
            assert A.is_zero() == is_zero
            checked_zero |= is_zero and n0 * n1 > 0
            # compose
            C = A.compose(B)
            assert C.target.degrees == d0 and C.source.degrees == d2
            assert _dense(C) == _dense_product(R, DA, DB, n1, n2)
            # apply_to_vector, against the product with a one-column matrix
            Dv = [[R.normal_form(_random_entry(R, rng, d))] for d in d1]
            got = A.apply_to_vector({j: p[0] for j, p in enumerate(Dv) if p[0]})
            want = _dense_product(R, DA, Dv, n1, 1)
            assert [got.get(i, R.zero()) for i in range(n0)] == [r[0] for r in want]
            assert all(got.values())
            # check_homogeneous rejects an entry of the wrong degree
            if n0 and n1:
                i, j = rng.randrange(n0), rng.randrange(n1)
                bad = [dict(col) for col in A.cols]
                bad[j][i] = R.one() if d1[j] != d0[i] else R.variables()[0]
                with pytest.raises(ValueError):
                    GradedMatrix(A.target, A.source, bad).check_homogeneous()
    assert checked_zero


def test_degreewise_rank_oracle():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 2))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("x*y")}])
    # coker = k[x,y]/(x, xy) = k[y]: one dimension in each degree
    for t in range(5):
        assert M.coker_dim_in_degree(t) == 1

