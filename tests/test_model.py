"""The regular-element model of a Koszul DG-ring.

For A = K(R; f, g_1..g_m) over a polynomial ring R with f nonzero, the map
A -> A' = K(R/(f); g_1..g_m) is a quasi-isomorphism of DG-rings, and the
queries on every module run on A' (DGRing.regular_model,
DGModule.over_model).  When f = c x_i + h with h free of x_i, A' is built
over the polynomial ring on the other variables, through the ring map sigma
that substitutes -h/c for x_i (A'.base_map).  These tests check the model
against independent oracles: the dense Hilbert-function count of test_complexes on the
cohomology of A and of A', the unreduced path with the model switched off,
and the Bass numbers of the unreduced ring.  The model keeps the internal
degree of an element that reduces to zero, so the Koszul builders must
read each element's degree before they reduce it; the first tests check
that for the builders themselves.
"""
import json
from pathlib import Path
from random import Random

import pytest
from test_cli import _cold_memos
from test_complexes import h_dim
from test_dimensions import LADDER_A, koszul_ladder_ring, pool_search_depth

from dgdim.cli import main
from dgdim.core import make_graded_ring
from dgdim.dg import (
    AElem,
    DGRing,
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
)
from dgdim.dimensions import (
    bass_numbers,
    default_sequence_pool,
    flat_dim,
    inj_dim,
    proj_dim,
    ring_amplitude,
    sequential_depth,
)
from dgdim.finitistic import fpd_bounds
from dgdim.scenario import parse_scenario

FIELDS = ["Q", "Fp:32003"]
ROOT = Path(__file__).resolve().parents[1]
FIXTURE = str(ROOT / "tests" / "fixtures" / "reach" / "all-kinds.json")
SHIPPED = str(ROOT / "scenarios" / "koszul-desk.json")


def dual_numbers(field):
    return make_graded_ring(field, ["x"], ["x^2"])


# ---------- a Koszul element that reduces to zero keeps its degree ----------


@pytest.mark.parametrize("field", FIELDS)
def test_a_koszul_element_that_reduces_to_zero_keeps_its_degree(field):
    """K(k[x]/(x^2); x^2) has zero differential, so H^-1 is the base ring
    on the exterior symbol, generated in the degree of x^2, whether the
    element comes as a string or as an unreduced polynomial.  Only a
    literal 0 has no degree."""
    R = dual_numbers(field)
    for element in ("x^2", R.ambient.parse("x^2")):
        A = build_koszul_dg(R, [element])
        assert A.twist["e{0}"] == 2
        H = free_dg_module(A, [(0, 0)]).cohomology(-1)
        assert list(H.generator_degrees) == [2]
    assert build_koszul_dg(R, ["0"]).twist["e{0}"] == 0


@pytest.mark.parametrize("field", FIELDS)
def test_a_cone_on_an_element_that_reduces_to_zero_keeps_its_degree(field):
    """koszul_dg_module and the scenario's cone-mult over k[x]/(x^2) put the
    generator of a cone on x^2 at twist 2, and H^-1 of the cone is
    generated there."""
    R = dual_numbers(field)
    M = koszul_dg_module(build_ring_dg(R), ["x^2"])
    assert [g.twist for g in M.gens] == [0, 2]
    assert list(M.cohomology(-1).generator_degrees) == [2]
    scn = parse_scenario({
        "schema": "dgdim-scenario/1",
        "options": {"field": field},
        "rings": {"R": {"variables": ["x"], "relations": ["x^2"]}},
        "dg_rings": {"B": {"kind": "ring", "base": "R"}},
        "modules": {
            "F": {"kind": "free", "ring": "B", "generators": [[0, 0]]},
            "C": {"kind": "cone-mult", "of": "F", "element": "x^2"},
        },
    })
    C = scn.modules["C"]
    assert [g.twist for g in C.gens] == [0, 2]
    assert list(C.cohomology(-1).generator_degrees) == [2]


# ---------- the model against the Hilbert functions of H(A) ----------


def seeded_koszul_rings(field):
    """Koszul DG-rings over k[x,y] or k[x,y,z] on two or three seeded
    homogeneous elements.  The first is a monomial or binomial; each later
    one is a seeded multiple of it, which reduces to zero on the model, or
    a seeded monomial.  The first ring leads with a literal zero, so the
    model eliminates its second element."""
    rng = Random(7)
    for n in range(6):
        R = make_graded_ring(field, ["x", "y", "z"][: rng.choice([2, 3])])
        vs = R.variables()

        def mono(deg):
            p = R.ambient.one()
            for _ in range(deg):
                p = p * rng.choice(vs)
            return p

        deg = rng.randint(1, 2)
        first = mono(deg)
        if rng.random() < 0.5:
            first = first + mono(deg).scale(R.field.from_int(2))
        elems = [first]
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                elems.append(first * mono(1))
            else:
                elems.append(mono(rng.randint(1, 2)))
        yield build_koszul_dg(R, ([R.zero()] if n == 0 else []) + elems)


def model_cases(field):
    """The seeded rings, ladder A, and x - y^2 with deg x = 2, which the
    model eliminates by the graded substitution x -> y^2; that sends the
    second element to zero, and it keeps its twist 3."""
    yield from seeded_koszul_rings(field)
    for d, n in LADDER_A:
        yield koszul_ladder_ring(d, n, field)
    R = make_graded_ring(field, {"x": 2, "y": 1, "z": 1})
    yield build_koszul_dg(R, ["x - y^2", "x*z - y^2*z", "y*z"])


def assert_dg_ring_map(A, B, phi):
    """phi on the symbols, with every symbol it omits sent to zero, and the
    model's ring map sigma on the coefficients keep degrees and commute
    with products and differentials."""
    sigma = B.base_map

    def push(a):
        return AElem(B, {phi[s]: sigma(p) for s, p in a.coeffs.items() if s in phi})

    for s, t in phi.items():
        assert (A.cohdeg[s], A.twist[s]) == (B.cohdeg[t], B.twist[t])
    one = A.base.one()
    for a in A.basis:
        x = AElem(A, {a: one})
        assert push(x.d()).coeffs == push(x).d().coeffs, a
        for b in A.basis:
            y = AElem(A, {b: one})
            assert push(x.mul(y)).coeffs == push(x).mul(push(y)).coeffs, (a, b)


@pytest.mark.parametrize("field", FIELDS)
def test_the_model_has_the_hilbert_functions_of_the_ring(field):
    """A -> A' is a quasi-isomorphism that keeps internal degrees: in every
    cohomological degree and every internal degree up to a bound, the
    dense rank count gives H^i(A) and H^i(A') the same dimension.  The
    symbol map is a map of DG-rings.  Several rings have an element that
    is zero on the model, so the twist such an element keeps is tested."""
    zero_on_model = 0
    for A in model_cases(field):
        B, phi = A.regular_model()
        assert B.regular_model() is None  # a model: no second step
        assert len(B.basis) * 2 == len(A.basis)
        assert_dg_ring_map(A, B, phi)
        zero_on_model += sum(1 for p in B.h0_extra if not p)
        CA = free_dg_module(A, [(0, 0)]).underlying()
        CB = free_dg_module(B, [(0, 0)]).underlying()
        top = max(A.twist.values()) + 3
        for i in CA.support():
            for t in range(top + 1):
                assert h_dim(CA, i, t) == h_dim(CB, i, t), (A, i, t)
    assert zero_on_model >= 3


@pytest.mark.parametrize("field", FIELDS)
def test_a_substitutable_first_element_leaves_a_polynomial_base(field):
    """Every ring of model_cases leads with c*x_i + h, h free of x_i (a
    linear form, or x - y^2): its model's base is the polynomial ring on
    the other variables, without relations.  A first element without such
    a variable (x^2) keeps the quotient base R/(f), and that model is not
    modeled again either."""
    for A in model_cases(field):
        B, _ = A.regular_model()
        assert not B.base.relations and not B.base.gb
        assert B.base.ambient.nvars == A.base.ambient.nvars - 1
    quotients = 0
    for A in rings_with_a_zero_element(field):
        B, _ = A.regular_model()
        f = next(p for p in A.h0_extra if p)
        if f.degree() > 1:
            assert B.base.relations == (f,) and B.base.ambient == A.base.ambient
            assert B.regular_model() is None
            quotients += 1
    assert quotients == 1


# ---------- the model switched off ----------


def _count_models(monkeypatch):
    """Count the rings whose queries took a model."""
    inner = DGRing.regular_model
    seen = []

    def counted(self):
        out = inner(self)
        if out is not None:
            seen.append(self)
        return out

    monkeypatch.setattr(DGRing, "regular_model", counted)
    return seen


def _reports(monkeypatch, capsys, field):
    """Every query of the reach fixture and the shipped scenario, verify
    --seed 0, and fpd_bounds on ladder A (2, 2) and (3, 2), as bytes."""
    out = []
    for argv in (["run", FIXTURE, "--field", field, "--format", "json"],
                 ["run", SHIPPED, "--field", field, "--format", "json"],
                 ["verify", "--seed", "0", "--field", field, "--format", "json"]):
        _cold_memos(monkeypatch)
        main(argv)
        out.append(capsys.readouterr().out)
    for d, n in [(2, 2), (3, 2)]:
        out.append(json.dumps(fpd_bounds(koszul_ladder_ring(d, n, field)).to_json()))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_the_unreduced_path_gives_the_same_reports(monkeypatch, capsys, field):
    """With the model switched off every query runs on A itself, and every
    report is byte-identical to the one the model gave."""
    seen = _count_models(monkeypatch)
    on = _reports(monkeypatch, capsys, field)
    assert len(seen) > 0
    monkeypatch.setattr(DGRing, "regular_model", lambda self: None)
    off = _reports(monkeypatch, capsys, field)
    assert on == off


# ---------- Bass numbers against the unreduced ring ----------


def rings_with_a_zero_element(field):
    """Koszul rings whose model has a zero element: one that reduces to
    zero modulo the first (x*y modulo x, x^3 modulo x^2), and a literal
    zero ahead of the eliminated element."""
    R = make_graded_ring(field, ["x", "y"])
    yield build_koszul_dg(R, ["x", "x*y"])
    yield build_koszul_dg(make_graded_ring(field, ["x"]), ["x^2", "x^3"])
    yield build_koszul_dg(R, ["0", "y", "x*y"])


def bass_twists(M, lo, hi):
    """The internal degrees of the minimal generators of Ext^i(k, M) for
    lo <= i <= hi, from Hom out of the residue tower.  The tower is windowed
    two degrees deeper than bass_numbers' mslot - hi on purpose: it is kept
    as an oracle that does not share the production window."""
    window = M.min_slot_cohdeg() - hi - 2
    res = semifree_resolution(residue_dg_module(M.A), window_lo=window)
    H = hom_semifree_into_dg(res, M)
    return {i: sorted(H.cohomology(i).generator_degrees) for i in range(lo, hi + 1)}


@pytest.mark.parametrize("field", FIELDS)
def test_injective_dimension_on_the_model_matches_the_unreduced_bass_numbers(field):
    """inj_dim runs on the model; bass_numbers called on A runs on A.  The
    Bass numbers inj_dim reports are those of the unreduced ring, and the
    generators of each Ext^i(k, A) sit in the same internal degrees on
    both rings."""
    for A in rings_with_a_zero_element(field):
        B, _ = A.regular_model()
        assert any(not p for p in B.h0_extra)
        F = free_dg_module(A, [(0, 0)])
        amp = ring_amplitude(A)
        lo, hi = F.inf_h() - amp - 1, A.dimension() + F.sup_h() + amp + 2
        rep = inj_dim(F)
        mus, _ = bass_numbers(F, lo, hi)
        assert rep.certificate["bass"] == {str(i): m for i, m in mus.items() if m}
        assert rep.finite
        assert bass_twists(F, lo, hi) == bass_twists(F.over_model(), lo, hi)


# ---------- the depth search on the model ----------


@pytest.mark.parametrize("field", FIELDS)
def test_the_depth_search_keeps_each_element_twist_on_the_model(field):
    """sequential_depth builds its cones on A from A's pool, and their
    vanishing tests read the model.  On ladder A (2, 1) sigma sends x, and
    every multiple of it, to zero; the model image of the cone on such an
    element p has no differential, and its shifted generator still sits at
    twist deg p, never at the degree of the model's zero."""
    A = koszul_ladder_ring(2, 1, field)
    sigma = A.regular_model()[0].base_map
    F = free_dg_module(A, [(0, 0)])
    zeros = [p for p in default_sequence_pool(A) if not sigma(p)]
    assert {p.degree() for p in zeros} == {1, 2}
    for p in zeros:
        K = cone_dg(multiplication_map(F, p), check=False).over_model()
        assert K.A is not A and not K.diff
        assert [(g.cohdeg, g.twist) for g in K.gens] == [(0, 0), (-1, p.degree())]
    assert sequential_depth(A).value == 2


@pytest.mark.parametrize("field", FIELDS)
def test_the_depth_of_each_model_case_matches_the_pool_search(field):
    """The closed-form depth and its one-pass witness give the report of
    the old depth-first pool search on every ring of model_cases."""
    for A in model_cases(field):
        assert sequential_depth(A).to_json() == pool_search_depth(A), A


# ---------- modules with an H^0 generator on the model ----------


def h0_and_mixed_modules(A):
    """The residue field, the H^0-cyclic module on the last variable, the
    cone of that variable on the H^0-cyclic module on the first, and the
    sum of the free module and the residue field."""
    v = A.base.variables()
    return [
        residue_dg_module(A),
        h0_cyclic_dg_module(A, [v[-1]]),
        cone_dg(multiplication_map(h0_cyclic_dg_module(A, [v[0]]), v[-1])),
        direct_sum_dg(free_dg_module(A, [(0, 0)]), residue_dg_module(A)),
    ]


def h0_model_rings(field):
    """model_cases and K(k[x,y]; x^2, y^2), whose model has a quotient
    base."""
    yield from model_cases(field)
    yield build_koszul_dg(make_graded_ring(field, ["x", "y"]), ["x^2", "y^2"])


def module_invariants(field):
    """Per ring of h0_model_rings, per module of h0_and_mixed_modules: the
    proj, flat and inj JSON, inf, sup and sequential depth."""
    out = []
    for A in h0_model_rings(field):
        for M in h0_and_mixed_modules(A):
            out.append([proj_dim(M).to_json(), flat_dim(M).to_json(),
                        inj_dim(M).to_json(), M.inf_h(), M.sup_h(),
                        sequential_depth(M).to_json()])
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_modules_with_an_h0_generator_give_the_same_invariants_off_the_model(
    monkeypatch, field
):
    """M -> A' (x)_A M is a quasi-isomorphism for every M, not only a
    semifree one: filtered by its generators, each free quotient maps by
    A -> A' and each H^0 quotient by the isomorphism sigma.  So the
    residue field, H^0-cyclic modules, a cone between H^0 generators and a
    sum with a free module have the same proj, flat and inj reports, inf,
    sup and depth with the model switched off."""
    assert all(A.regular_model() for A in h0_model_rings(field))
    on = module_invariants(field)
    monkeypatch.setattr(DGRing, "regular_model", lambda self: None)
    off = module_invariants(field)
    assert on == off
