"""Syzygy generators checked against brute-force degreewise kernels,
minimal presentations against a Groebner-basis rule and degreewise ranks,
and the degreewise ranks themselves against dense Gaussian elimination."""
import random

import pytest

import dgdim.core.syz as syz_mod
from dgdim.core import (
    GradedFreeModule,
    GradedMatrix,
    GradedModule,
    SyzygyEngine,
    field_from_tag,
    field_rank,
    make_graded_ring,
    minimal_presentation,
    syzygy_matrix,
)
from dgdim.core.freemod import _Span
from dgdim.core.poly import Poly
from dgdim.corpus import redundant_presentation, standard_families


def _sparse(col):
    """A dense column as a sparse one: its nonzero entries by row."""
    return {i: p for i, p in enumerate(col) if p}


def _kernel_dim(M, t):
    return M.kernel_dim_in_degree(t)


def _image_dim(S, t):
    return S.rank_in_degree(t)


def _assert_syzygies_complete(M, through_degree=6):
    S = syzygy_matrix(M)
    assert M.compose(S).is_zero()
    for t in range(through_degree + 1):
        assert _image_dim(S, t) == _kernel_dim(M, t), "degree %d" % t


def test_syzygy_of_x_xy_over_polynomial_ring():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 2))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("x*y")}])
    S = syzygy_matrix(M)
    # the kernel is generated by a single column proportional to (-y, 1)
    assert S.source.rank >= 1
    _assert_syzygies_complete(M)
    eng = SyzygyEngine(S)
    target_col = {0: R.parse("-y"), 1: R.parse("1")}
    assert eng.contains(target_col) or SyzygyEngine(
        GradedMatrix.from_columns(F1, [2], [target_col])
    ).contains(S.cols[0])


def test_syzygy_over_quotient_ring():
    # over R = k[x,y]/(xy), multiplication by x has kernel (y)
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x*y"])
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1,))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}])
    S = syzygy_matrix(M)
    _assert_syzygies_complete(M)
    # kernel generated by y (in degree 2 of the twisted source)
    eng = SyzygyEngine(S)
    assert eng.contains({0: R.parse("y")})


def test_syzygy_of_maximal_ideal_koszul():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 1))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("y")}])
    S = syzygy_matrix(M)
    _assert_syzygies_complete(M)
    # Koszul syzygy (-y, x)
    eng = SyzygyEngine(S)
    assert eng.contains({0: R.parse("-y"), 1: R.parse("x")})


def test_syzygy_periodic_quotient():
    # over k[x]/(x^2), kernel of x is (x): infinite periodic story
    R = make_graded_ring("Q", {"x": 1}, ["x^2"])
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1,))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}])
    _assert_syzygies_complete(M)


def test_randomized_syzygy_completeness():
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^3"])
    rng = random.Random(1)
    pool = ["0", "x", "y", "x*y", "y^2", "x^2"]
    for trial in range(6):
        # random 2x2 homogeneous matrix with twist pattern making entries deg 1-2
        tgt = GradedFreeModule(R, (0, 0))
        deg = rng.choice([1, 2])
        src = GradedFreeModule(R, (deg, deg))
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                choices = [p for p in pool if p == "0" or R.ambient.parse(p).degree() == deg]
                row.append(R.parse(rng.choice(choices)))
            entries.append(row)
        M = GradedMatrix(tgt, src, [dict(enumerate(col)) for col in zip(*entries)])
        _assert_syzygies_complete(M, through_degree=5)


def test_membership_over_quotient():
    R = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2"])
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 2))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("y^2")}])
    eng = SyzygyEngine(M)
    assert eng.contains({0: R.parse("x*y + y^3 + x*y^2")})
    assert not eng.contains({0: R.parse("y")})


def test_minimal_presentation_drops_redundant_relation():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0,))
    F1 = GradedFreeModule(R, (1, 2))
    M = GradedMatrix(F0, F1, [{0: R.parse("x")}, {0: R.parse("x*y")}])
    mp = minimal_presentation(M)
    assert mp.matrix.source.rank == 1
    assert str(mp.matrix.cols[0][0]) == "x"


def test_minimal_presentation_kills_unit_entries():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    # coker [[1, x], [0, y]] = coker [y] after cancelling the unit
    F0 = GradedFreeModule(R, (0, 0))
    F1 = GradedFreeModule(R, (0, 1))
    M = GradedMatrix(
        F0,
        F1,
        [{0: R.parse("1"), 1: R.parse("0")}, {0: R.parse("x"), 1: R.parse("y")}],
    )
    mp = minimal_presentation(M)
    assert mp.matrix.target.rank == 1
    assert mp.matrix.source.rank == 1
    assert str(mp.matrix.cols[0][0]) == "y"
    # hilbert functions agree with the original cokernel through degree 6
    for t in range(7):
        assert mp.matrix.coker_dim_in_degree(t) == M.coker_dim_in_degree(t)


def test_minimal_presentation_drops_the_generator_a_unit_entry_cancels():
    R = make_graded_ring("Q", {"x": 1, "y": 1})
    F0 = GradedFreeModule(R, (0, 1))
    F1 = GradedFreeModule(R, (1,))
    # the relation x*g0 - g1 says g1 = x*g0: g1 and the relation cancel
    M = GradedMatrix(F0, F1, [{0: R.parse("x"), 1: R.parse("-1")}])
    mp = minimal_presentation(M)
    assert mp.survivors == [0]
    assert mp.generator_degrees == (0,) and mp.matrix.source.rank == 0


def test_mutually_redundant_columns_are_not_both_dropped():
    # over A = Q[x,y]/(x^2*y) the syzygies of (y, x^3) need two generators:
    # (x^2, 0) and (0, y).  The Schreyer output also contains (x^3, -y),
    # and each degree-4 column lies in the span of the other two, so a
    # careless irredundancy pass discards both.  Two generators must survive.
    A = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2*y"])
    tgt = GradedFreeModule(A, (0,))
    M = GradedMatrix.from_columns(tgt, [1, 3], [{0: A.parse("y")}, {0: A.parse("x^3")}])
    S = SyzygyEngine(M).syzygy_matrix()
    mp = minimal_presentation(S)
    assert mp.matrix.source.rank == 2
    cols = [[str(col.get(i, "0")) for i in range(2)] for col in mp.matrix.cols]
    assert ["x^2", "0"] in cols
    # the second minimal generator is (0, y) up to adding multiples of the first
    others = [c for c in cols if c != ["x^2", "0"]]
    assert others and others[0][1] in ("y", "-y")


# ---------- minimal_presentation against independent oracles ----------

FIELDS = ["Q", "Fp:32003"]


def _corpus_rings(field):
    rings = []
    for A in standard_families(field):
        rings += [F.base for F in getattr(A, "factors", [A])]
    rings.append(make_graded_ring(field, ["x", "y"], ["x^2", "x*y"]))
    rings.append(make_graded_ring(field, ["x", "y"], ["x^2*y"]))
    rings.append(make_graded_ring(field, ["x", "y", "z"], ["x*y", "z^2"]))
    return rings


def _presentations(field):
    """Seeded inputs over corpus rings: padded presentations of cyclic
    modules, and the first syzygy matrices of a padded presentation and of
    the successive minimal presentations of the module."""
    rng = random.Random(7)
    out = []
    for R in _corpus_rings(field):
        if not R.variables():
            continue
        pool = [R.normal_form(p) for p in R.variables()]
        pool += [R.mul(u, v) for u in pool for v in pool]
        pool = [p for p in pool if p]
        for _ in range(2):
            base = GradedModule.cyclic(R, rng.sample(pool, min(3, len(pool))))
            padded = base
            for _ in range(3):
                padded = redundant_presentation(padded, rng)
            out.append(padded.presentation)
            out.append(SyzygyEngine(padded.presentation).syzygy_matrix())
            M = base.presentation
            for _ in range(3):
                S = SyzygyEngine(M).syzygy_matrix()
                if S.source.rank == 0:
                    break
                out.append(S)
                M = minimal_presentation(S).matrix
    return out


def _probe_rule(target, cols, col_deg):
    """Columns kept by the rule: in ascending (degree, index) order, drop a
    column when the still-live others of degree <= its own generate it;
    each membership question is a module Groebner basis division."""
    order = sorted(range(len(cols)), key=lambda t: (col_deg[t], t))
    dropped = set()
    for t in order:
        cands = [
            u for u in order
            if u != t and u not in dropped and col_deg[u] <= col_deg[t]
        ]
        if cands:
            probe = GradedMatrix.from_columns(
                target, [col_deg[u] for u in cands], [cols[u] for u in cands]
            )
            if SyzygyEngine(probe).contains(cols[t]):
                dropped.add(t)
    return [t for t in order if t not in dropped]


def _recorded_pass(monkeypatch, M):
    """minimal_presentation(M), and the (target, columns, degrees, kept)
    that its irredundancy pass saw and returned.  The pass is the count
    GradedMatrix.minimal_columns on the live columns in reverse order; the
    record gives them in their own order, and kept as their indices in
    ascending (degree, index) order."""
    seen = []
    inner = GradedMatrix.minimal_columns

    def record(self, blocks=(), limit=None):
        kept = inner(self, blocks, limit)
        n = len(self.cols)
        cols = [dict(c) for c in reversed(self.cols)]
        col_deg = list(reversed(self.source.degrees))
        back = sorted((n - 1 - r for r in kept), key=lambda t: (col_deg[t], t))
        seen.append((self.target, cols, col_deg, back))
        return kept

    monkeypatch.setattr(GradedMatrix, "minimal_columns", record)
    mp = minimal_presentation(M)
    monkeypatch.setattr(GradedMatrix, "minimal_columns", inner)
    assert len(seen) == 1
    return mp, seen[0]


@pytest.mark.parametrize("field", FIELDS)
def test_minimal_presentation_keeps_the_probe_rule_columns(monkeypatch, field):
    for M in _presentations(field):
        mp, (target, cols, col_deg, kept) = _recorded_pass(monkeypatch, M)
        assert kept == _probe_rule(target, cols, col_deg)
        assert list(mp.matrix.cols) == [cols[t] for t in kept]
        assert list(mp.matrix.source.degrees) == [col_deg[t] for t in kept]


@pytest.mark.parametrize("field", FIELDS)
def test_minimal_presentation_is_degreewise_irredundant(monkeypatch, field):
    for M in _presentations(field):
        mp, (target, cols, col_deg, kept) = _recorded_pass(monkeypatch, M)
        K = mp.matrix
        full = GradedMatrix.from_columns(target, col_deg, cols)
        top = max(col_deg, default=0) + 2
        for t in range(top + 1):
            assert K.rank_in_degree(t) == full.rank_in_degree(t), "degree %d" % t
            assert K.coker_dim_in_degree(t) == M.coker_dim_in_degree(t), "degree %d" % t
        for j, d in enumerate(K.source.degrees):
            others = [c for i, c in enumerate(K.cols) if i != j]
            degs = [e for i, e in enumerate(K.source.degrees) if i != j]
            less = GradedMatrix.from_columns(K.target, degs, others)
            assert less.rank_in_degree(d) < K.rank_in_degree(d), "column %d" % j
        assert K.min_entry_degree_is_positive()


@pytest.mark.parametrize("field", FIELDS)
def test_syzygy_columns_sorted_by_degree_then_dense_terms(field):
    """syzygy_matrix orders its columns by degree, then by the tuple of
    terms_key over every source position, zero entries included; its
    sparse sort key must give exactly this order."""
    seen = 0
    for M in _presentations(field):
        S = syzygy_matrix(M)
        zero = M.ring.zero()
        keys = [
            (d, tuple(col.get(i, zero).terms_key() for i in range(S.target.rank)))
            for col, d in zip(S.cols, S.source.degrees)
        ]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        seen += len(keys) > 1
    assert seen > 5


# ---------- field_rank and rank_in_degree against dense elimination ----------


def _dense_rank(F, M):
    """Rank by textbook Gaussian elimination on a dense copy of M."""
    A = [list(row) for row in M]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        pivot = next((r for r in range(rank, len(A)) if not F.is_zero(A[r][c])), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = F.inv(A[rank][c])
        for r in range(rank + 1, len(A)):
            factor = F.mul(A[r][c], inv)
            if not F.is_zero(factor):
                A[r] = [F.sub(v, F.mul(factor, w)) for v, w in zip(A[r], A[rank])]
        rank += 1
    return rank


def _random_matrices(F, rng):
    """Seeded field matrices: empty shapes, a zero matrix, sparse and dense
    ones, products of thin factors (rank-deficient), and copies with a
    duplicated row or with a zero row and a zero column inserted."""

    def rand(n, m, density):
        return [
            [F.from_int(rng.randint(-3, 3)) if rng.random() < density else F.zero()
             for _ in range(m)]
            for _ in range(n)
        ]

    def dot(u, v):
        acc = F.zero()
        for a, b in zip(u, v):
            acc = F.add(acc, F.mul(a, b))
        return acc

    out = [[], [[]], [[], []], rand(3, 4, 0.0)]
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        A = rand(n, m, rng.choice([0.15, 0.5, 1.0]))
        r = rng.randint(1, min(n, m))
        B, C = rand(n, r, 0.7), rand(r, m, 0.7)
        dup = A + [list(A[rng.randrange(n)])]
        rng.shuffle(dup)
        k = rng.randint(0, m)
        padded = [row[:k] + [F.zero()] + row[k:] for row in A]
        padded.insert(rng.randint(0, n), [F.zero()] * (m + 1))
        out += [A, [[dot(row, col) for col in zip(*C)] for row in B], dup, padded]
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_field_rank_matches_dense_elimination(field):
    F = field_from_tag(field)
    for M in _random_matrices(F, random.Random(11)):
        assert field_rank(F, M) == _dense_rank(F, M), M


@pytest.mark.parametrize("field", FIELDS)
def test_degreewise_ranks_match_dense_elimination(field):
    for M in _presentations(field):
        F = M.ring.field
        for t in range(max(M.source.degrees, default=0) + 3):
            rows, cols, dense = M.matrix_in_degree(t)
            rank = _dense_rank(F, dense)
            assert M.rank_in_degree(t) == rank, "degree %d" % t
            assert field_rank(F, dense) == rank, "degree %d" % t
            assert M.kernel_dim_in_degree(t) == len(cols) - rank, "degree %d" % t
            assert M.coker_dim_in_degree(t) == len(rows) - rank, "degree %d" % t


def _ordered_cases(F, rng):
    """Sequences of sparse vectors {key: nonzero} on the keys 0..n-1, each
    dict's keys in the order given, named for the path of _Span they take:
    keys inserted in descending order (within each vector, and each pivot
    below the previous ones), keys in mixed order, a vector that cancels
    fully against the ones before it, and a reduction that brings in a key
    smaller than one the vector already holds."""

    def rand_vec(keys):
        return {k: F.from_int(rng.choice([-3, -2, -1, 1, 2, 3])) for k in keys}

    def combine(vecs, n):
        out = {}
        for vec in vecs:
            c = F.from_int(rng.choice([-2, -1, 1, 2]))
            for k, v in vec.items():
                out[k] = F.add(out.get(k, F.zero()), F.mul(c, v))
        keys = [k for k in range(n) if k in out and not F.is_zero(out[k])]
        rng.shuffle(keys)
        return {k: out[k] for k in keys}

    cases = []
    for _ in range(6):
        n = rng.randint(3, 8)
        descending = []
        for p in range(n - 1, -1, -1):
            keys = [p] + rng.sample(range(p + 1, n), rng.randint(0, n - p - 1))
            descending.append(rand_vec(sorted(keys, reverse=True)))
        cases.append(("descending", n, descending))
        mixed = [rand_vec(rng.sample(range(n), rng.randint(1, n)))
                 for _ in range(rng.randint(2, 7))]
        cases.append(("mixed", n, mixed))
        base = [rand_vec(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
        cases.append(("cancels", n, base + [combine(base, n), combine(base[1:], n)]))
    # pivot 0 brings in key 2 below the vector's 5, and 2 is itself a pivot
    one = F.one()
    two = F.from_int(2)
    cases.append(("smaller key", 6, [
        {0: one, 2: one}, {2: one, 3: one}, {5: one, 0: one},
        {3: F.neg(one), 5: one}, {5: two, 0: two, 4: one}, {3: one, 0: one, 2: two},
    ]))
    return cases


def _dense_rows(F, n, vecs):
    return [[vec.get(k, F.zero()) for k in range(n)] for vec in vecs]


@pytest.mark.parametrize("field", FIELDS)
def test_span_paths_match_dense_elimination(field):
    """Each _Span insert answers membership, and field_rank and
    rank_in_degree the rank, as dense elimination of the vectors so far
    does, whatever the order of the keys."""
    F = field_from_tag(field)
    R = make_graded_ring(F, ["x"])
    x = R.parse("x")
    names = set()
    for name, n, vecs in _ordered_cases(F, random.Random(5)):
        names.add(name)
        span = _Span(F)
        for m, vec in enumerate(vecs):
            grew = _dense_rank(F, _dense_rows(F, n, vecs[: m + 1])) > _dense_rank(
                F, _dense_rows(F, n, vecs[:m]))
            assert span.insert(vec) == grew, (name, m)
        rank = _dense_rank(F, _dense_rows(F, n, vecs))
        assert field_rank(F, _dense_rows(F, n, vecs)) == rank, name
        # the same vectors as the columns x * vec of a matrix into R^n, so
        # the keys of each degree-t multiple are (x^t, k) in vec's order
        M = GradedMatrix(
            GradedFreeModule(R, [0] * n),
            GradedFreeModule(R, [1] * len(vecs)),
            [{k: x.scale(v) for k, v in vec.items()} for vec in vecs],
        )
        for t in (1, 2):
            assert M.rank_in_degree(t) == rank, (name, t)
            assert _dense_rank(F, M.matrix_in_degree(t)[2]) == rank, (name, t)
    assert names == {"descending", "mixed", "cancels", "smaller key"}


def test_minimal_presentation_builds_no_module_groebner_basis(monkeypatch):
    A = make_graded_ring("Q", {"x": 1, "y": 1}, ["x^2*y"])
    tgt = GradedFreeModule(A, (0,))
    M = GradedMatrix.from_columns(tgt, [1, 3], [{0: A.parse("y")}, {0: A.parse("x^3")}])
    S = SyzygyEngine(M).syzygy_matrix()
    base = GradedModule.cyclic(A, [A.parse("x^2"), A.parse("x*y")])
    padded = redundant_presentation(base, random.Random(3)).presentation
    builds = [0]
    inner = syz_mod.ModuleGB.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        inner(self, *args, **kwargs)

    monkeypatch.setattr(syz_mod.ModuleGB, "__init__", counted)
    assert minimal_presentation(S).matrix.source.rank == 2
    assert minimal_presentation(padded).rank == 1
    assert builds[0] == 0


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_syzygy_cache_keys_on_terms_in_any_order(monkeypatch, field):
    A = make_graded_ring(field, {"x": 1, "y": 1, "z": 1}, ["x^2*y"])
    tgt = GradedFreeModule(A, (0,))
    src = GradedFreeModule(A, (1, 1, 2))
    M = GradedMatrix(tgt, src, [
        {0: A.parse("x + 2*y - z")},
        {0: A.parse("3*x - y + 1/2*z")},
        {0: A.parse("x*z + y^2 - 7/3*z^2")},
    ])
    reversed_cols = [
        {i: Poly(e.ring, dict(reversed(list(e.terms.items())))) for i, e in col.items()}
        for col in M.cols
    ]
    M2 = GradedMatrix(tgt, src, reversed_cols, normalize=False)
    assert [list(col) for col in M.cols] == [list(col) for col in M2.cols] == [[0]] * 3
    pairs = [(col[i], col2[i]) for col, col2 in zip(M.cols, M2.cols) for i in col]
    assert all(e == e2 for e, e2 in pairs)
    assert any(list(e.terms) != list(e2.terms) for e, e2 in pairs)
    builds = [0]
    inner = syz_mod.SyzygyEngine.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        inner(self, *args, **kwargs)

    monkeypatch.setattr(syz_mod, "_syz_cache", {})
    monkeypatch.setattr(syz_mod.SyzygyEngine, "__init__", counted)
    S = syzygy_matrix(M)
    S2 = syzygy_matrix(M2)
    assert builds[0] == 1
    assert S2 is S  # the engine computes its syzygy matrix once
    assert S2.source.degrees == S.source.degrees
    assert S2.cols == S.cols
    assert M.compose(S).is_zero() and S.source.rank > 0
    # a fresh cache builds a fresh engine with the same answer
    monkeypatch.setattr(syz_mod, "_syz_cache", {})
    S3 = syzygy_matrix(M2)
    assert builds[0] == 2 and S3 is not S
    assert S3.cols == S.cols


# ---------- the module Groebner engine: completeness, closure, two fields ----------


def _lifted_matrices(field):
    """The field matrices of _random_matrices lifted to homogeneous matrices
    over the corpus rings, taken in turn.  Entry (r, c) of a lift of the
    n x m matrix A is the linear form sum_v A[(r + v) mod n][c] * x_v,
    multiplied by x_(c mod #vars) in the odd columns, so targets of every
    rank up to ten meet linear and quadratic entries."""
    F = field_from_tag(field)
    rings = [R for R in _corpus_rings(field) if R.variables()]
    out = []
    for t, A in enumerate(_random_matrices(F, random.Random(11))):
        R = rings[t % len(rings)]
        xs = R.variables()
        n, m = len(A), len(A[0]) if A else 0
        cols = []
        for c in range(m):
            col = []
            for r in range(n):
                e = R.zero()
                for v, x in enumerate(xs):
                    e = e + x.scale(A[(r + v) % n][c])
                col.append(R.mul(e, xs[c % len(xs)]) if c % 2 else e)
            cols.append(col)
        tgt = GradedFreeModule(R, (0,) * n)
        out.append(GradedMatrix.from_columns(
            tgt, [1 + c % 2 for c in range(m)], [_sparse(col) for col in cols]
        ))
    return out


def _engine_inputs(field):
    return _lifted_matrices(field) + _presentations(field)


@pytest.mark.parametrize("field", FIELDS)
def test_syzygies_complete_on_the_seeded_corpora(field):
    ranks = set()
    for M in _engine_inputs(field):
        ranks.add(M.target.rank)
        _assert_syzygies_complete(M, through_degree=max(M.source.degrees, default=0) + 3)
    assert max(ranks) >= 9 and {0, 1, 2} <= ranks


def _fully_tracked_syzygies(M):
    """syzygy_matrix of M read off a ModuleGB that keeps the histories of
    every column, the J-multiples of the target basis included, with each
    syzygy cut to its block on M's columns; and how many it recorded."""
    aug_cols = list(M.cols) + [
        {i: g} for g in M.ring.gb for i in range(M.target.rank)
    ]
    full = syz_mod.ModuleGB(M.ring.ambient, M.target.degrees, aug_cols, len(aug_cols))
    eng = SyzygyEngine(M)
    eng.gbm.syzygies = [
        {j: p for j, p in syz.items() if j < len(M.cols)} for syz in full.syzygies
    ]
    return eng.syzygy_matrix(), len(full.syzygies)


@pytest.mark.parametrize("field", FIELDS)
def test_tracking_only_the_original_columns_keeps_every_syzygy(field):
    """The engine tracks the histories of M's columns alone; projecting
    onto them commutes with translating through the histories, so the
    syzygy matrix equals, column for column, the one of a build that
    tracks the J-multiples too, which records more syzygies."""
    fewer = 0
    for M in _engine_inputs(field):
        eng = SyzygyEngine(M)
        S = eng.syzygy_matrix()
        T, recorded = _fully_tracked_syzygies(M)
        assert S.source.degrees == T.source.degrees, M
        assert S.cols == T.cols, M
        assert len(eng.gbm.syzygies) <= recorded, M
        fewer += len(eng.gbm.syzygies) < recorded
    assert fewer > 0


def _in_image_by_dense_rank(M, vec, t):
    """Whether the degree-t k-vector vec, {(monomial, row): coefficient},
    lies in the image of M: appending it leaves the dense rank as it is."""
    F = M.ring.field
    rows, _, dense = M.matrix_in_degree(t)
    grown = [row + [vec.get(key, F.zero())] for row, key in zip(dense, rows)]
    return _dense_rank(F, grown) == _dense_rank(F, dense)


def _membership_probes(M, t, rng):
    """Degree-t k-vectors: a combination of the image's columns, the same
    plus one basis vector of the target, and a random vector."""
    F = M.ring.field
    rows, _, dense = M.matrix_in_degree(t)
    if not rows:
        return []
    image = {}
    for c in range(len(dense[0])):
        a = F.from_int(rng.randint(-2, 2))
        for key, row in zip(rows, dense):
            image[key] = F.add(image.get(key, F.zero()), F.mul(a, row[c]))
    shifted = dict(image)
    key = rng.choice(rows)
    shifted[key] = F.add(shifted.get(key, F.zero()), F.one())
    noise = {key: F.from_int(rng.randint(-2, 2)) for key in rows}
    return [{k: c for k, c in v.items() if not F.is_zero(c)} for v in (image, shifted, noise)]


@pytest.mark.parametrize("field", FIELDS)
def test_an_engine_answers_membership_after_its_matrix_is_read(field):
    """An engine keeps no reduction history and not M, only M's source;
    after its syzygy matrix is read, the basis that contains reduces
    against answers as the dense rank does, and the counts read off the
    engine keep their values."""
    rng = random.Random(5)
    answers = set()
    for M in _engine_inputs(field):
        eng = SyzygyEngine(M)
        basis, recorded = len(eng.gbm.gb), len(eng.gbm.syzygies)
        eng.syzygy_matrix()
        assert not hasattr(eng, "M")
        assert all(hist is None for _, hist in eng.gbm.gb)
        assert (len(eng.gbm.gb), len(eng.gbm.syzygies)) == (basis, recorded)
        amb = M.ring.ambient
        for t in range(min(M.target.degrees, default=0), max(M.source.degrees, default=0) + 2):
            for vec in _membership_probes(M, t, rng):
                col = {}
                for (m, i), c in vec.items():
                    col.setdefault(i, {})[m] = c
                answer = eng.contains({i: Poly(amb, terms) for i, terms in col.items()})
                assert answer == _in_image_by_dense_rank(M, vec, t), (M, t, vec)
                answers.add(answer)
    assert answers == {True, False}


def _s_vector(gbm, i, j):
    """The S-vector of basis elements i and j at one position, computed
    from the vectors alone: lcm/lt(g_i) g_i - lcm/lt(g_j) g_j with monic
    leading coefficients."""
    field, P = gbm.field, gbm.ambient
    gi, gj = gbm.gb[i][0], gbm.gb[j][0]
    (mi, pos), (mj, _) = gbm.order.leading(gi), gbm.order.leading(gj)
    lcm = P.mono_lcm(mi, mj)
    out = {}
    for g, m, sign in ((gi, mi, 1), (gj, mj, -1)):
        scale = field.mul(field.from_int(sign), field.inv(g[(m, pos)]))
        shift = P.mono_div(lcm, m)
        for (mono, p), c in g.items():
            key = (P.mono_mul(mono, shift), p)
            val = field.add(out.get(key, field.zero()), field.mul(scale, c))
            if field.is_zero(val):
                out.pop(key, None)
            else:
                out[key] = val
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_module_groebner_basis_is_closed_under_s_vectors(field):
    """Buchberger's criterion on the final basis: every S-vector of two
    elements at one position reduces to zero, whichever pairs the build
    chose to reduce."""
    pairs = 0
    for M in _engine_inputs(field):
        gbm = SyzygyEngine(M).gbm
        leads = [gbm.order.leading(g) for g, _ in gbm.gb]
        for j in range(len(leads)):
            for i in range(j):
                if leads[i][1] == leads[j][1]:
                    remainder, _ = gbm._reduce(_s_vector(gbm, i, j))
                    assert not remainder, (M, i, j)
                    pairs += 1
    assert pairs > 0


def _integer_modules(field):
    """Seeded cokernels over the corpus rings with small integer data:
    1-3 generators in degrees 0 and 1, 1-4 relations of degree 1-3 whose
    entries are integer combinations (coefficients -3..3) of standard
    monomials.  The random draws do not depend on the field."""
    rng = random.Random(5)
    out = []
    for R in _corpus_rings(field):
        if not R.variables():
            continue
        for _ in range(4):
            tgt = sorted(rng.choice([0, 1]) for _ in range(rng.randint(1, 3)))
            degs = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            cols = []
            for d in degs:
                col = []
                for t in tgt:
                    e = R.zero()
                    for mono in R.standard_monomials(d - t):
                        c = rng.randint(-3, 3)
                        if c:
                            e = e + R.ambient.monomial(mono, R.field.from_int(c))
                    col.append(e)
                cols.append(col)
            P = GradedMatrix.from_columns(
                GradedFreeModule(R, tuple(tgt)), degs, [_sparse(col) for col in cols]
            )
            out.append(GradedModule(P))
    return out


def test_betti_tables_agree_over_q_and_fp():
    from dgdim.complexes import minimal_free_resolution_module

    tables = {}
    for field in FIELDS:
        tables[field] = []
        for N in _integer_modules(field):
            F = minimal_free_resolution_module(N, 3)
            betti = {i: tuple(sorted(F.cover(i).degrees)) for i in F.support()}
            tables[field].append((F.known_lo, betti))
    assert len(tables["Q"]) == len(tables["Fp:32003"]) > 10
    assert tables["Q"] == tables["Fp:32003"]
    assert any(len(b) >= 3 for _, b in tables["Q"])
