"""Derived dimensions: proj/flat/inj, depth, local cohomology, dualizing.

Finite values asserted here were recomputed by hand (Koszul homology and
Bass/Betti tables over the small fixtures) before freezing; the infinite
cases were checked against the growth of the minimal resolutions.
"""
import hashlib
import json
from itertools import combinations
from random import Random

import pytest
from test_complexes import h_dim

from dgdim import checks, corpus
from dgdim.cli import main
import dgdim.complexes as complexes_module
from dgdim.complexes import base_change, cohomology_data, trusted_degree
from dgdim.core import make_graded_ring
from dgdim.dg import (
    DGMap,
    ProductDGModule,
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
    hom_semifree_into_dg,
    koszul_dg_module,
    product_koszul_module,
    reduce_to_h0,
    residue_dg_module,
    semifree_resolution,
    shift_dg,
)
import dgdim.dimensions as dimensions_module
from dgdim.dimensions import (
    bass_numbers,
    dualizing_dg_module,
    flat_dim,
    inj_dim,
    is_gorenstein,
    is_local_cohen_macaulay,
    is_regular_sequence,
    local_cohomology_amplitude,
    module_sequence_regular,
    proj_dim,
    ring_amplitude,
    ring_free_module,
    sequential_depth,
)


FIELDS = ["Q", "Fp:32003"]


def ring_xy(field="Q"):
    return build_ring_dg(make_graded_ring(field, ["x", "y"]))


def koszul_xy(field="Q"):
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def koszul_xyz(field="Q"):
    R = make_graded_ring(field, ["x", "y", "z"])
    x, y, z = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def dual_numbers(field="Q"):
    return build_ring_dg(make_graded_ring(field, ["x"], ["x^2"]))


def golod_xy(field="Q"):
    return build_ring_dg(make_graded_ring(field, ["x", "y"], ["x^2", "x*y"]))


def split_product(field="Q"):
    # (k[x] x k) |x k[1], realized as k[x] x (k |x k[1])
    return build_split_trivial_extension(
        make_graded_ring(field, ["x"]), make_graded_ring(field, []), 1
    )


# ---------- projective dimension ----------


def test_projdim_free_is_zero():
    rep = proj_dim(ring_free_module(ring_xy()))
    assert rep.value == 0
    assert rep.finite


@pytest.mark.parametrize(
    "seq, expected",
    [(["x"], 1), (["x", "x*y"], 2), (["x", "x*y", "y^2"], 3)],
)
def test_projdim_koszul_matches_length(seq, expected):
    R = ring_xy()
    assert proj_dim(koszul_dg_module(R, seq)).value == expected


def test_projdim_koszul_over_dg_ring():
    A = koszul_xy()
    assert proj_dim(koszul_dg_module(A, ["y"])).value == 1
    assert proj_dim(koszul_dg_module(A, ["y", "y^2"])).value == 2


def test_projdim_residue_field():
    # finite over the regular base, infinite over the DG-ring and the
    # dual numbers
    assert proj_dim(residue_dg_module(ring_xy())).value == 2
    rep = proj_dim(residue_dg_module(koszul_xy()))
    assert not rep.finite
    rep = proj_dim(residue_dg_module(dual_numbers()))
    assert not rep.finite
    assert "rule" in rep.certificate


def test_projdim_shift_law():
    R = ring_xy()
    K = koszul_dg_module(R, ["x"])
    assert proj_dim(K).value == 1
    assert proj_dim(shift_dg(K, 2)).value == 3


def test_projdim_direct_sum_is_max():
    R = ring_xy()
    M = direct_sum_dg(koszul_dg_module(R, ["x", "x*y"]), koszul_dg_module(R, ["x"]))
    assert proj_dim(M).value == 2


def test_projdim_product_koszul():
    Apr = split_product()
    rows = [("x", "0"), ("x^2", "0"), ("x^3", "0")]
    for length in (1, 2, 3):
        K = product_koszul_module(Apr, rows[:length])
        assert proj_dim(K).value == length


def test_projdim_factor_residue_over_product():
    Apr = split_product()
    M = factor_residue_module(Apr, 0)
    rep = proj_dim(M)
    assert rep.value == 1
    assert rep.value + M.inf_h() == 1


def combined_value(parts):
    """The dimension of a product module from the reports on its parts."""
    if all(p.acyclic for p in parts):
        return "-infinity"
    if any(p.infinite for p in parts):
        return "infinity"
    return max(p.value for p in parts if not p.acyclic)


@pytest.mark.parametrize("field", FIELDS)
def test_product_dimensions_combine_the_parts(field):
    """Over a product, proj/flat/inj dim are acyclic when every part is,
    infinite when some part is, and the largest finite value otherwise.
    The seeded perfect modules are finite on both factors; the factor
    residue fields and the Koszul module on a unit reach the other cases."""
    A = corpus.standard_families(field)[2]
    modules = [corpus.random_perfect_module(A, Random(seed)) for seed in range(6)]
    modules += [
        factor_residue_module(A, 0),  # finite, zero on the other factor
        factor_residue_module(A, 1),  # infinite on the trivial extension
        product_koszul_module(A, [("1", "1")]),  # acyclic on both factors
    ]
    for i, M in enumerate(modules):
        for query in (proj_dim, flat_dim, inj_dim):
            want = combined_value([query(p) for p in M.parts])
            assert query(M).to_json()["value"] == want, (i, query.__name__)


def test_dimension_report_json_round_trip():
    rep = proj_dim(residue_dg_module(dual_numbers()))
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert json.loads(text)["value"] == "infinity"


# ---------- flat dimension ----------


def test_flatdim_fixtures():
    R = ring_xy()
    assert flat_dim(ring_free_module(R)).value == 0
    assert flat_dim(koszul_dg_module(R, ["x"])).value == 1
    assert flat_dim(residue_dg_module(R)).value == 2


def test_flatdim_infinite_residue():
    rep = flat_dim(residue_dg_module(koszul_xy()))
    assert not rep.finite


@pytest.mark.parametrize("field", FIELDS)
def test_flat_tor_table_matches_the_unpruned_reduction(monkeypatch, field):
    """flat_dim's Tor table against k, read off the pruned minimal complex,
    is the cohomology of the unpruned reduction of the same tower base
    changed to k, in the trusted degrees, finite or infinite, on modules
    over every fixture ring.  Over the split product each factor is
    checked on its own."""
    towers = recorded_certified_towers(monkeypatch)
    modules = []
    for A in (ring_xy(field), koszul_xy(field), koszul_xyz(field),
              dual_numbers(field), golod_xy(field)):
        x = A.base.variables()[-1]
        modules += [
            ring_free_module(A),
            residue_dg_module(A),
            koszul_dg_module(A, [x]),
            shift_dg(koszul_dg_module(A, [x, A.base.mul(x, x)]), 1),
        ]
    A = split_product(field)
    for i in (0, 1):
        modules += factor_residue_module(A, i).parts
    for i, M in enumerate(modules):
        rep = flat_dim(M)
        if M.inf_h() is None:  # acyclic: no tower
            assert rep.acyclic and not towers, i
            continue
        (res,) = towers
        towers.clear()
        assert rep.finite == res.terminated, i
        assert flat_tor_table(rep) == residue_tor_of_the_reduction(res), i


def contractible_summand(A):
    """cone(1: F -> F) on the rank-one free module F: acyclic, with one
    unit entry that only the pruning step removes from the reduction."""
    F = free_dg_module(A, [(0, 0)])
    return cone_dg(DGMap(F, F, {0: {0: A.from_base(A.base.one())}}))


@pytest.mark.parametrize("field", FIELDS)
def test_pruning_removes_a_contractible_summand(field):
    """M and M + cone(1) have the same projective and flat reports.  The
    semifree towers of these modules are minimal, so without the summand
    prune_complex finds no unit entry; with it, the reduction has one, and
    a pruning step that keeps it reports an extra Betti number."""
    R = make_graded_ring(field, ["x", "y"])
    rings = [build_ring_dg(R), build_koszul_dg(R, ["x", "x*y"]),
             build_trivial_extension(R, 1, ["x"])]
    for A in rings:
        C = contractible_summand(A)
        for M in (free_dg_module(A, [(0, 0)]), koszul_dg_module(A, ["y"]),
                  koszul_dg_module(A, ["x", "y"])):
            for query in (proj_dim, flat_dim):
                alone = query(M).to_json()
                assert query(direct_sum_dg(M, C)).to_json() == alone, alone


def trusted_tor(T):
    """Degree -> twists of the cohomology of T in its trusted degrees."""
    table = {}
    for c in T.support():
        if trusted_degree(c, T.known_lo):
            data = cohomology_data(T, c)
            if not data.is_zero():
                table[c] = sorted(data.generator_degrees)
    return table


def recorded_certified_towers(monkeypatch):
    """A list that collects every tower dimensions.certify_termination
    returns."""
    inner = dimensions_module.certify_termination
    towers = []

    def recorded(res):
        towers.append(inner(res))
        return towers[-1]

    monkeypatch.setattr(dimensions_module, "certify_termination", recorded)
    return towers


def residue_tor_of_the_reduction(res):
    """Tor against k from the tower alone: the trusted cohomology of the
    unpruned reduction base changed to k."""
    return trusted_tor(base_change(reduce_to_h0(res), res.sf.A.base.variables()))


def flat_tor_table(rep):
    """flat_dim's Tor table against k, degree -> sorted twists."""
    key = "tor" if rep.finite else "tor-trusted"
    (table,) = rep.certificate[key].values()
    return {int(c): sorted(tw) for c, tw in table.items()}


@pytest.mark.parametrize("field", FIELDS)
def test_residue_field_is_the_deepest_test_quotient(monkeypatch, field):
    """The 2^e variable-subset quotients H^0/(S) as an oracle, on the tower
    that flat_dim certified: no Tor against H^0/(S) sits deeper than Tor
    against k, and flat_dim's Tor table, read off the pruned minimal
    complex, is Tor against k taken here as the cohomology of the unpruned
    reduction base changed to k, twist for twist in the trusted degrees.
    The modules are the seeded corpus, whose towers terminate, and the
    amplitude-zero test modules of the connected families and k over the
    Golod ring, most of whose towers do not."""
    towers = recorded_certified_towers(monkeypatch)
    fams = corpus.standard_families(field)
    modules = []
    for seed in range(3):
        rng = Random(seed)
        for n in range(50):
            M = corpus.random_perfect_module(fams[n % 3], rng)
            if not isinstance(M, ProductDGModule):
                modules.append(((seed, n), M))
    for A in fams:
        if not isinstance(A, ProductDGRing):
            modules += corpus.amplitude_zero_test_family(A)
    modules.append(("k over the Golod ring", residue_dg_module(golod_xy(field))))
    outcomes = {True: 0, False: 0}
    for label, M in modules:
        rep = flat_dim(M)
        (res,) = towers
        towers.clear()
        F = reduce_to_h0(res)
        gens = res.sf.A.base.variables()
        residue = trusted_tor(base_change(F, gens))
        deepest = min(residue)
        for r in range(len(gens)):
            for S in combinations(gens, r):
                tor = trusted_tor(base_change(F, list(S)))
                assert min(tor, default=deepest) >= deepest, (label, S)
        assert residue == flat_tor_table(rep), label
        outcomes[res.terminated] += 1
    # the 102 corpus towers and 4 of the 9 others terminate
    assert outcomes == {True: 102 + 4, False: 5}


def power_series(num, den, n):
    """The first n coefficients of num/den, for coefficient lists with
    den[0] == 1."""
    out = []
    for i in range(n):
        a = num[i] if i < len(num) else 0
        a -= sum(den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1))
        out.append(a)
    return out


def poly_power(p, e):
    out = [1]
    for _ in range(e):
        out = [
            sum(out[j] * p[i - j] for j in range(len(out)) if 0 <= i - j < len(p))
            for i in range(len(out) + len(p) - 1)
        ]
    return out


def assert_residue_tor_follows(A, den):
    """The trusted Betti numbers of k over A, read off flat_dim's Tor table
    against k, are the first coefficients of (1+t)^e / den."""
    rep = flat_dim(residue_dg_module(A))
    (table,) = rep.certificate["tor-trusted"].values()
    n = len(table)
    assert n >= 3 and sorted(map(int, table)) == list(range(1 - n, 1))
    betti = [len(table[str(-i)]) for i in range(n)]
    assert betti == power_series(poly_power([1, 1], len(A.base.variables())), den, n)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("names,rels,den", [
    # complete intersections: Tate's series (1+t)^e / (1-t^2)^c
    (["x", "y"], ["x^2"], poly_power([1, 0, -1], 1)),
    (["x", "y"], ["x^2", "y^2"], poly_power([1, 0, -1], 2)),
    (["x", "y"], ["x^2", "y^3"], poly_power([1, 0, -1], 2)),
    (["x", "y", "z"], ["x^2", "y^2"], poly_power([1, 0, -1], 2)),
    # Golod: (1+t)^2 / (1 - 2t^2 - t^3), from dim H_1 = 2 and dim H_2 = 1 of
    # the Koszul complex
    (["x", "y"], ["x^2", "x*y"], [1, 0, -2, -1]),
])
def test_residue_tor_follows_the_poincare_series(names, rels, den, field):
    """The Betti numbers of k over k[x..]/J are the coefficients of the
    closed Poincare series (Tate 1957 for complete intersections, Golod's
    bound attained for the Golod ring)."""
    assert_residue_tor_follows(
        build_ring_dg(make_graded_ring(field, names, rels)), den
    )


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("names,elements", [
    (["x", "y"], ["x^2", "y^2"]),
    (["x", "y", "z"], ["x^2", "y^2"]),
    (["x", "y"], ["x^2", "y^3"]),
])
def test_koszul_residue_tor_follows_the_poincare_series(names, elements, field):
    """A Koszul DG-ring K(P; f) on a P-regular sequence f in m^2 is
    quasi-isomorphic to the complete intersection P/(f), so the Betti
    numbers of k over it follow Tate's series (1+t)^e / (1-t^2)^c.
    K(k[x,y]; x^2, xy) is left out: x^2, xy is not regular."""
    R = make_graded_ring(field, names)
    assert_residue_tor_follows(
        build_koszul_dg(R, elements), poly_power([1, 0, -1], len(elements))
    )


# ---------- injective dimension and Bass numbers ----------


def test_injdim_regular_ring():
    rep = inj_dim(ring_free_module(ring_xy()))
    assert rep.value == 2
    assert rep.certificate["bass"] == {"2": 1}


def test_injdim_gorenstein_dg_ring():
    assert inj_dim(ring_free_module(koszul_xy())).value == 0
    assert inj_dim(ring_free_module(dual_numbers())).value == 0


def test_injdim_infinite_with_persistent_bass_numbers():
    rep = inj_dim(residue_dg_module(dual_numbers()))
    assert not rep.finite
    assert rep.certificate["bass"] == {"0": 1, "1": 1, "2": 1}


def test_bass_formula_on_gorenstein_fixtures():
    # injdim of the ring = seq.depth - amp on the Gorenstein fixtures
    for A in (ring_xy(), koszul_xy(), dual_numbers()):
        depth = sequential_depth(A).value
        assert inj_dim(ring_free_module(A)).value == depth - ring_amplitude(A)


def test_bass_numbers_window():
    mus, _ = bass_numbers(ring_free_module(ring_xy()), 0, 2)
    assert mus == {0: 0, 1: 0, 2: 1}


@pytest.mark.parametrize("field", FIELDS)
def test_bass_counts_match_full_cohomology_in_the_suites(monkeypatch, capsys, field):
    """Every Bass number equals dim_k H^i of the Hom complex, computed by
    dense ranks.  The maximal ideal kills Ext^i(k, M), so H^i lives only in
    the internal degrees of the cycle generators, and mu^i is the sum of
    h_dim over them.  Checked at each degree that the injective-dimension
    queries of this file and `verify --seed 0` scan."""
    inner = dimensions_module.bass_numbers
    inner_hom = dimensions_module.hom_semifree_into_dg
    made = []
    seen = {"degrees": 0, "nonzero": 0}

    def recorded_hom(SF, M):
        H = inner_hom(SF, M)
        made.append(H)
        return H

    def checked(M, scan_lo, scan_hi):
        del made[:]
        mus, res = inner(M, scan_lo, scan_hi)
        for i, mu in mus.items():
            (H,) = made
            K = complexes_module._cycles(H, i)
            degrees = set() if K is None else set(K.source.degrees)
            assert mu == sum(h_dim(H, i, t) for t in degrees), i
            seen["degrees"] += 1
            seen["nonzero"] += mu > 0
        return mus, res

    monkeypatch.setattr(dimensions_module, "hom_semifree_into_dg", recorded_hom)
    monkeypatch.setattr(dimensions_module, "bass_numbers", checked)
    modules = [
        ring_free_module(ring_xy(field)),
        ring_free_module(koszul_xy(field)),
        ring_free_module(dual_numbers(field)),
        residue_dg_module(dual_numbers(field)),
        ring_free_module(golod_xy(field)),
        ring_free_module(build_trivial_extension(
            make_graded_ring(field, ["x", "y"]), 1, ["x"])),
    ]
    for M in modules:
        inj_dim(M)
    assert seen["degrees"] >= 30 and seen["nonzero"] >= 10, seen
    # fresh fixture rings, so that verify runs every query instead of
    # reading the Gorenstein and residue-resolution memos of earlier rings
    for memo in (corpus.standard_families, checks._fixture_set,
                 checks._designed_false, checks._corpus_sweep):
        memo.cache_clear()
    before = dict(seen)
    assert main(["verify", "--seed", "0", "--field", field, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    assert seen["degrees"] > before["degrees"]
    assert seen["nonzero"] > before["nonzero"]


def koszul_ladder_ring(d, n, field="Q"):
    """K(k[x, y_1..y_d]; x, x*m_1, .., x*m_n) with m_i = y_i when d >= n
    and m_i = y_1^i otherwise: a Gorenstein DG-ring with dim H0 = d and
    amplitude n."""
    ys = ["y", "z", "w"][:d]
    base = make_graded_ring(field, ["x"] + ys)
    monos = ys[:n] if d >= n else ["%s^%d" % (ys[0], i) for i in range(1, n + 1)]
    return build_koszul_dg(base, [base.parse(e) for e in ["x"] + ["x*" + m for m in monos]])


LADDER_A = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("d,n,field", [
    # the Q entries keep their ids from before the second field
    pytest.param(d, n, field, id="-".join(
        ["%d-%d" % (d, n)] + ([] if field == "Q" else [field])))
    # (1, 3) is cheap only on the regular-element model that inj_dim takes
    for field in FIELDS for d, n in LADDER_A + [(1, 3)]
])
def test_bass_numbers_of_koszul_ladder_rings(d, n, field):
    """Koszul self-duality over the polynomial ring P = k[x, y_1..y_d]
    gives RHom_A(k, A) = RHom_P(k, P) up to shift for A = K(P; f_1..f_r),
    so mu^i(A) is 1 at i = dim P - r = d - n and 0 everywhere else in the
    window the injective-dimension query scans.  Over both fields; the
    residue tower behind the Bass numbers stops at its window."""
    A = koszul_ladder_ring(d, n, field)
    assert A.dimension() == d and ring_amplitude(A) == n
    rep = inj_dim(ring_free_module(A))
    assert rep.value == d - n
    assert rep.certificate["bass"] == {str(d - n): 1}


def bass_window_rings(field):
    """The Golod ring, ladder A through (2, 2) and a trivial extension."""
    yield golod_xy(field)
    for d, n in LADDER_A:
        yield koszul_ladder_ring(d, n, field)
    yield build_trivial_extension(make_graded_ring(field, ["x", "y"]), 1, ["x"])


def bass_answers(A):
    """The inj_dim report of A and the Bass numbers over the window it
    scans, mu^i for inf - amp - 1 <= i <= dim H0 + sup + amp + 2."""
    M = ring_free_module(A)
    amp = ring_amplitude(A)
    lo, hi = M.inf_h() - amp - 1, A.dimension() + M.sup_h() + amp + 2
    return json.dumps(inj_dim(M).to_json()), bass_numbers(M, lo, hi)[0]


@pytest.mark.parametrize("field", FIELDS)
def test_bass_numbers_need_no_termination_certificate(monkeypatch, field):
    """The residue tower of the Bass numbers stops at its window and leaves
    the below-floor scan to certify_termination, which bass_numbers never
    calls: its window makes every degree it reads trusted.  Running the
    certificate on each of those towers changes no Bass number and no
    injective-dimension report."""
    inner = dimensions_module.semifree_resolution
    pending = []

    def recorded(M, *args, **kwargs):
        res = inner(M, *args, **kwargs)
        pending.append(res.pending is not None)
        return res

    monkeypatch.setattr(dimensions_module, "semifree_resolution", recorded)
    plain = [bass_answers(A) for A in bass_window_rings(field)]
    assert any(pending), pending
    outcomes = set()

    def certified(M, *args, **kwargs):
        res = inner(M, *args, **kwargs)
        out = certify_termination(res)
        if res.pending is not None:
            outcomes.add(out.terminated)
            assert out.known_lo is (None if out.terminated else res.known_lo)
            assert out.sf is res.sf
        return out

    monkeypatch.setattr(dimensions_module, "semifree_resolution", certified)
    assert [bass_answers(A) for A in bass_window_rings(field)] == plain
    assert outcomes == {False}


def sharp_window_rings(field):
    """(name, ring): the Golod ring, a complete intersection, two Koszul
    DG-rings and a trivial extension."""
    R = make_graded_ring(field, ["x", "y"])
    yield "golod", golod_xy(field)
    yield "ci", build_ring_dg(make_graded_ring(field, ["x", "y"], ["x^2", "y^2"]))
    yield "koszul x, xy", build_koszul_dg(R, ["x", "x*y"])
    yield "koszul x^2, y^2", build_koszul_dg(R, ["x^2", "y^2"])
    yield "trivial extension", build_trivial_extension(R, 1, ["x"])


def hom_counts(M, window, lo, hi, trusted=True):
    """dim_k of H^i Hom(SF, M) for lo <= i <= hi, with SF the residue tower
    windowed at window, built here without bass_numbers or its guard."""
    res = semifree_resolution(residue_dg_module(M.A), window_lo=window)
    H = hom_semifree_into_dg(res, M)
    assert all(H._trust(i) for i in range(lo, hi + 1)) == trusted
    return {i: len(H.cohomology(i).generator_degrees) for i in range(lo, hi + 1)}


@pytest.mark.parametrize("field", FIELDS)
def test_the_bass_window_is_exactly_sharp(monkeypatch, field):
    """bass_numbers windows the residue tower at mslot - scan_hi.  There the
    Bass numbers in degrees -3..3 equal those from towers 2 and 6 degrees
    deeper; one degree shallower the guard raises, and the unguarded Hom
    gives a wrong mu^3 on the Golod ring, the complete intersection and the
    trivial extension (the Koszul rings happen to survive it)."""
    lo, hi = -3, 3
    for name, A in sharp_window_rings(field):
        M = free_dg_module(A, [(0, 0)])
        window = M.min_slot_cohdeg() - hi
        mus = bass_numbers(M, lo, hi)[0]
        assert mus[0] == 1, name
        for deeper in (2, 6):
            assert hom_counts(M, window - deeper, lo, hi) == mus, (name, deeper)
        shallow = hom_counts(M, window + 1, lo, hi, trusted=False)
        assert (shallow != mus) == (not name.startswith("koszul")), name
    inner = dimensions_module.semifree_resolution

    def shallower(M, window_lo):
        return inner(M, window_lo=window_lo + 1)

    monkeypatch.setattr(dimensions_module, "semifree_resolution", shallower)
    for name, A in sharp_window_rings(field):  # fresh rings: no memo
        with pytest.raises(RuntimeError, match="Bass window fell short"):
            bass_numbers(free_dg_module(A, [(0, 0)]), lo, hi)


# Computed before flat_dim took Tor against the residue field alone, on
# reports restricted as residue_tor_report does, so the change left them
# alone.  The digest of the full reports, pinned while semifree_resolution
# still ran the below-floor scan itself on every windowed tower, was
# 0d19151eebeb8215; it hashed a Tor table for every variable-subset
# quotient and each flat report's reduction trace.
SEEDED_DIMENSION_DIGEST = "1a54a7bbaee89681"


def residue_tor_report(rep):
    """A flat report's JSON with its Tor tables cut down to the one against
    the residue field, whose label names every variable and so is the
    longest, and without its reduction trace."""
    out = {k: v for k, v in rep.items() if k != "reduction-trace"}
    cert = out["certificate"] = dict(rep["certificate"])
    for key in ("tor", "tor-trusted"):
        if key in cert:
            label = max(cert[key], key=len)
            cert[key] = {label: cert[key][label]}
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_proj_and_flat_reports_on_the_seeded_corpus_are_pinned(monkeypatch, field):
    """proj_dim and flat_dim certify their towers' termination: their
    reports over the 50 seeded corpus modules, the amplitude-zero test
    modules of the connected families, finite and infinite, and k over
    Koszul rings on regular sequences hash to the digest pinned before
    flat_dim dropped its variable-subset quotients.  The last ones are
    finished towers whose cocones keep slots below the floor, so the scan
    settles towers both ways here."""
    inner = dimensions_module.certify_termination
    outcomes = set()

    def recorded(res):
        out = inner(res)
        if res.pending is not None:
            outcomes.add(out.terminated)
        return out

    def both(M):
        return [proj_dim(M).to_json(), residue_tor_report(flat_dim(M).to_json())]

    monkeypatch.setattr(dimensions_module, "certify_termination", recorded)
    fams = corpus.standard_families(field)
    rng = Random(0)
    reports = []
    for n in range(50):
        reports.append(both(corpus.random_perfect_module(fams[n % 3], rng)))
    for A in fams:
        if isinstance(A, ProductDGRing):
            continue
        for label, M in corpus.amplitude_zero_test_family(A):
            reports.append([label] + both(M))
    for names in (["x", "y"], ["x", "y", "z"]):
        R = make_graded_ring(field, names)
        reports.append(both(residue_dg_module(build_koszul_dg(R, R.variables()))))
    assert outcomes == {True, False}
    text = json.dumps(reports, sort_keys=True)
    assert text.count('"infinity"') >= 4 and text.count('"betti"') >= 20
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == SEEDED_DIMENSION_DIGEST


# ---------- regular sequences ----------


def test_regular_sequence_on_polynomial_ring():
    rep = is_regular_sequence(ring_xy(), ["x", "y"])
    assert rep.regular
    assert rep.koszul_infs == [0, 0]


def test_regular_sequence_on_koszul_ring():
    rep = is_regular_sequence(koszul_xy(), ["y"])
    assert rep.regular
    assert rep.base_inf == -1


def test_zerodivisor_detected():
    rep = is_regular_sequence(golod_xy(), ["x"])
    assert not rep.regular
    assert rep.first_failure == 0


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        is_regular_sequence(ring_xy(), ["1"])
    with pytest.raises(ValueError, match="connected"):
        is_regular_sequence(split_product(), [("1", "1")])


def test_unit_element_takes_the_full_inf_scan():
    """Multiplication by a unit has an acyclic cone, which the one-test
    inf of a Koszul cone cannot see (it never answers None); the unit
    sends the cone to the full scan, which reports the true inf."""
    for elements, infs in ((["1"], [None]), (["x", "1"], [0, None])):
        rep = module_sequence_regular(ring_free_module(ring_xy()), elements)
        assert rep.koszul_infs == infs
        assert rep.first_failure == len(infs) - 1


@pytest.mark.parametrize("field", FIELDS)
def test_cone_inf_matches_the_full_scan_in_sequential_depth(monkeypatch, field):
    """sequential_depth reads the inf of each Koszul cone off one vanishing
    test.  On every cone it builds over the fixture rings of verify, and
    over a Koszul module on each, that value is the inf of the full scan;
    both answers (regular and not) occur."""
    inner = dimensions_module._cone_inf
    outcomes = {"regular": 0, "not regular": 0}

    def checked(K, t, a):
        val = inner(K, t, a)
        assert val == K.inf_h(), (K, a)
        outcomes["regular" if val == t else "not regular"] += 1
        return val

    monkeypatch.setattr(dimensions_module, "_cone_inf", checked)
    for A in checks._fixture_set(field).values():
        sequential_depth(free_dg_module(A, [(0, 0)]))
        sequential_depth(koszul_dg_module(A, [A.base.variables()[-1]]))
    assert outcomes["regular"] >= 5 and outcomes["not regular"] >= 5, outcomes


# ---------- sequential depth ----------


@pytest.mark.parametrize(
    "make, expected, witness",
    [
        (ring_xy, 2, ["x", "y"]),
        (koszul_xy, 1, ["y"]),
        (golod_xy, 0, []),
        (koszul_xyz, 2, ["y", "z"]),
    ],
)
def test_sequential_depth(make, expected, witness):
    rep = sequential_depth(make())
    assert rep.value == expected
    assert rep.sequence == witness
    assert rep.exhaustive


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", [ring_xy, koszul_xy, koszul_xyz, golod_xy])
def test_sequential_depth_memo_matches_a_fresh_search(make, field):
    """The depth of a DG-ring is searched once and kept on the ring; a
    fresh ring of the same data searches anew and finds the same report."""
    A = make(field)
    first = sequential_depth(A)
    assert sequential_depth(A) is first
    again = sequential_depth(make(field))
    assert again is not first
    assert again.to_json() == first.to_json()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "make, amp", [(ring_xy, 0), (koszul_xy, 1), (koszul_xyz, 1), (golod_xy, 0)]
)
def test_ring_amplitude_memo_matches_a_fresh_ring(monkeypatch, make, amp, field):
    """amp(A) is computed once and kept on the DG-ring: a second call builds
    no free module, and a fresh ring of the same data computes it anew and
    gets the same value."""
    A = make(field)
    assert ring_amplitude(A) == amp
    builds = [0]
    inner = dimensions_module.free_dg_module

    def counted(*args, **kwargs):
        builds[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dimensions_module, "free_dg_module", counted)
    assert ring_amplitude(A) == amp and builds[0] == 0
    assert ring_amplitude(make(field)) == amp and builds[0] == 1


def test_sequential_depth_rejects_products():
    with pytest.raises(ValueError):
        sequential_depth(split_product())


@pytest.mark.parametrize("query", [
    is_gorenstein,
    is_local_cohen_macaulay,
    local_cohomology_amplitude,
    lambda A: local_cohomology_amplitude(ring_free_module(A)),
    dualizing_dg_module,
], ids=["gorenstein", "local-cm", "local-cohomology-ring",
        "local-cohomology-module", "dualizing"])
def test_connected_only_queries_reject_products(query):
    with pytest.raises(ValueError, match="connected"):
        query(split_product())


# ---------- local cohomology ----------


def test_local_cohomology_regular_ring():
    rep = local_cohomology_amplitude(ring_xy())
    assert rep.degrees == [2]
    assert rep.amplitude == 0


def test_local_cohomology_koszul_ring():
    rep = local_cohomology_amplitude(koszul_xy())
    assert rep.degrees == [0, 1]
    assert rep.amplitude == 1


def test_local_cohomology_depth_drop():
    # depth 0, dim 1: torsion in two degrees
    assert local_cohomology_amplitude(golod_xy()).amplitude == 1


def test_local_cohen_macaulay():
    assert is_local_cohen_macaulay(ring_xy())
    assert is_local_cohen_macaulay(koszul_xy())
    assert not is_local_cohen_macaulay(golod_xy())


def test_local_cohen_macaulay_designed_false():
    R = make_graded_ring("Q", ["x", "y"])
    B = build_trivial_extension(R, 1, ["x"])
    rep = local_cohomology_amplitude(B)
    assert rep.degrees == [0, 2]
    assert rep.amplitude == 2
    assert ring_amplitude(B) == 1
    assert not is_local_cohen_macaulay(B)


def _recorded_towers(monkeypatch, module, run):
    """run()'s value, and (module, window_lo) of each tower that module
    asks semifree_resolution for while it runs."""
    calls = []

    def recording(M, window_lo):
        calls.append((M, window_lo))
        return semifree_resolution(M, window_lo)

    with monkeypatch.context() as patched:
        patched.setattr(module, "semifree_resolution", recording)
        value = run()
    return value, calls


def _assert_window_is_exact(M, window_lo):
    """The certified tower has terminated, and a tower windowed four
    degrees deeper runs the same stages on the same generators."""
    res = certify_termination(semifree_resolution(M, window_lo))
    deep = semifree_resolution(M, window_lo - 4)
    assert res.terminated, window_lo
    assert res.stages == deep.stages
    assert [repr(g) for g in res.sf.gens] == [repr(g) for g in deep.sf.gens]


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_local_cohomology_window_is_exact(field, monkeypatch):
    """Local cohomology resolves over the ambient polynomial ring P,
    windowed two degrees below the syzygy bound v - (bottom slot degree).
    On every ring the tests and the verify fixtures ask about, that tower
    is a whole resolution."""
    R = make_graded_ring(field, ["x", "y"])
    rings = [
        *checks._fixture_set(field).values(),
        checks._designed_false(field),
        koszul_xyz(field),
        golod_xy(field),
        build_ring_dg(make_graded_ring(field, {"x": 1, "y": 2}, ["x*y"])),
        build_trivial_extension(R, 1, ["x"]),
    ]
    _, towers = _recorded_towers(
        monkeypatch, dimensions_module,
        lambda: [local_cohomology_amplitude(A) for A in rings],
    )
    assert len(towers) == len(rings)
    for M, window_lo in towers:
        _assert_window_is_exact(M, window_lo)


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_ext_search_window_is_exact(field, monkeypatch):
    """The Ext-search oracle windows its tower two degrees below
    dim H^0(A) - inf M; on the 25 perfect modules of its verify check at
    seed 0 that tower is a whole resolution.  At this seed every one of
    them has free generators only, so each is its own resolution."""
    result, towers = _recorded_towers(
        monkeypatch, corpus,
        lambda: checks.run_check("reduction-matches-ext-search",
                                 {"field": field, "seed": 0}),
    )
    assert result.outcome == "pass" and len(towers) == 25
    for M, window_lo in towers:
        _assert_window_is_exact(M, window_lo)


# ---------- Gorenstein and dualizing ----------


def test_gorenstein_fixtures():
    assert is_gorenstein(ring_xy())
    assert is_gorenstein(koszul_xy())
    assert is_gorenstein(dual_numbers())
    assert is_gorenstein(build_ring_dg(make_graded_ring("Q", ["x", "y"], ["x^2", "y^2"])))


def test_not_gorenstein_trivial_extension():
    R = make_graded_ring("Q", ["x", "y"])
    assert not is_gorenstein(build_trivial_extension(R, 1, ["x"]))


def test_not_gorenstein_golod_quotient():
    # slow fixture: the Bass scan walks a resolution with Fibonacci-type
    # Betti growth before certifying non-termination
    assert not is_gorenstein(golod_xy())


def test_dualizing_regular_ring():
    rep = dualizing_dg_module(ring_xy())
    assert rep.shift == 2
    assert rep.normalized_inf == -2
    assert rep.injdim.value == 0
    assert rep.injdim.value == rep.normalized_inf + 2
    assert rep.injdim.value + rep.shift == 2
    assert rep.biduality_ok


def test_dualizing_koszul_ring():
    rep = dualizing_dg_module(koszul_xy())
    assert rep.shift == 0
    assert rep.normalized_inf == -1
    assert rep.injdim.value == 0
    assert rep.biduality_ok


def test_dualizing_requires_gorenstein():
    R = make_graded_ring("Q", ["x", "y"])
    with pytest.raises(ValueError):
        dualizing_dg_module(build_trivial_extension(R, 1, ["x"]))


@pytest.mark.parametrize("field", FIELDS)
def test_dualizing_module_resolves_the_residue_field_once_per_window(
    monkeypatch, field
):
    """The Gorenstein test and the injective dimension of the dualizing
    module scan Bass numbers at the same window; the resolution of k is
    memoized on the ring, so each window is resolved once, and the Bass
    numbers agree with those over a fresh copy of the ring."""
    inner = dimensions_module.semifree_resolution
    windows = []

    def counted(M, *args, **kwargs):
        if [g.kind for g in M.gens] == ["h0"]:  # the residue field
            windows.append(kwargs.get("window_lo"))
        return inner(M, *args, **kwargs)

    monkeypatch.setattr(dimensions_module, "semifree_resolution", counted)
    A = koszul_xy(field)
    rep = dualizing_dg_module(A)
    assert rep.injdim.value == 0 and rep.biduality_ok
    assert windows and len(windows) == len(set(windows))
    fresh = koszul_xy(field)
    R = shift_dg(free_dg_module(fresh, [(0, 0)]), rep.shift)
    for hi in (2, 5):  # two windows: the memo must not answer one for the other
        mus, res = bass_numbers(rep.module, -2, hi)
        assert bass_numbers(rep.module, -2, hi)[1] is res
        assert bass_numbers(R, -2, hi)[0] == mus
