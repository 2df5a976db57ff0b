"""Finitistic dimensions, FPD intervals, witnesses, Hochschild tables.

The expected numbers come from the depth/amplitude bookkeeping recomputed
by hand for each fixture; golden JSON reports live under fixtures/v1.
"""
import json
import os

import pytest

import dgdim.dimensions as dimensions_module
import dgdim.finitistic as finitistic
from dgdim.complexes import minimal_free_resolution_module
from dgdim.core import GradedModule, make_graded_ring
from dgdim.dg import (
    ProductDGRing,
    build_koszul_dg,
    build_ring_dg,
    build_split_trivial_extension,
    build_trivial_extension,
    koszul_dg_module,
    shift_dg,
)
from dgdim.dimensions import (
    DepthReport,
    flat_dim,
    is_local_cohen_macaulay,
    ring_amplitude,
    ring_free_module,
    sequential_depth,
)
from dgdim.finitistic import (
    bass_witness_recipe,
    ffd_witness,
    fpd_bounds,
    fpd_example_pair,
    gorenstein_projdim_bound_check,
    hochschild_table,
    hochschild_vanishing_check,
    small_finitistic_dims,
)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures", "v1")


def ring_xy():
    return build_ring_dg(make_graded_ring("Q", ["x", "y"]))


def koszul_xy():
    R = make_graded_ring("Q", ["x", "y"])
    x, y = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def koszul_xyz():
    R = make_graded_ring("Q", ["x", "y", "z"])
    x, y, z = R.variables()
    return build_koszul_dg(R, [x, R.mul(x, y)])


def golod_xy():
    return build_ring_dg(make_graded_ring("Q", ["x", "y"], ["x^2", "x*y"]))


def split_product(d=1, n=1):
    return build_split_trivial_extension(
        make_graded_ring("Q", ["x", "y", "z"][:d]), make_graded_ring("Q", []), n
    )


# ---------- small finitistic dimensions ----------


@pytest.mark.parametrize(
    "make, expected",
    [(ring_xy, 2), (koszul_xy, 0), (koszul_xyz, 1), (golod_xy, 0)],
)
def test_small_finitistic_fixture_set(make, expected):
    rep = small_finitistic_dims(make())
    assert rep.fpd == expected
    assert rep.ffd == expected
    assert rep.fid == expected
    assert rep.small_witness["attains"]


def test_small_finitistic_golden():
    rep = small_finitistic_dims(ring_xy())
    with open(os.path.join(FIXDIR, "small-finitistic-polynomial-xy.json")) as fh:
        assert json.dumps(rep.to_json(), indent=1, sort_keys=True) + "\n" == fh.read()


# ---------- FPD interval ----------


def test_fpd_interval_gorenstein_collapse():
    rep = fpd_bounds(koszul_xyz())
    assert rep.interval == (1, 2)
    assert rep.gorenstein_case
    assert not rep.witness_case
    assert rep.fpd_value == 1


def test_fpd_interval_witness_collapse():
    rep = fpd_bounds(split_product())
    assert rep.interval == (0, 1)
    assert rep.witness_case
    assert not rep.gorenstein_case
    assert rep.fpd_value == 1
    assert any(w["value"] == 1 for w in rep.witnesses)


def test_fpd_interval_regular_ring_is_a_point():
    rep = fpd_bounds(ring_xy())
    assert rep.interval == (2, 2)
    assert rep.fpd_value == 2


def test_fpd_interval_witness_soundness():
    for rep in (fpd_bounds(koszul_xyz()), fpd_bounds(split_product())):
        hi = rep.interval[1]
        assert all(w["value"] <= hi for w in rep.witnesses)


def test_fpd_interval_golden():
    rep = fpd_bounds(split_product())
    with open(os.path.join(FIXDIR, "fpd-interval-split-trivial-extension.json")) as fh:
        assert json.dumps(rep.to_json(), indent=1, sort_keys=True) + "\n" == fh.read()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_attaining_instances(d, n):
    # one family attains the lower endpoint, the other the upper one
    gor, triv = fpd_example_pair(d, n)
    assert gor.dimension() == d and ring_amplitude(gor) == n
    assert triv.dimension() == d and ring_amplitude(triv) == n
    assert fpd_bounds(gor).fpd_value == d - n
    rep = fpd_bounds(triv)
    assert rep.fpd_value == d
    assert rep.witness_case


def test_lcm_equivalence_with_fpd_formula():
    fixtures = [ring_xy(), koszul_xy(), koszul_xyz(), golod_xy()]
    B = build_trivial_extension(make_graded_ring("Q", ["x", "y"]), 1, ["x"])
    fixtures.append(B)
    for A in fixtures:
        formula = small_finitistic_dims(A).fpd == A.dimension() - ring_amplitude(A)
        assert is_local_cohen_macaulay(A) == formula


# ---------- sharpened Gorenstein bound ----------


def test_gorenstein_bound_check_passes():
    A = koszul_xy()
    mods = [
        ring_free_module(A),
        koszul_dg_module(A, ["y"]),
        shift_dg(koszul_dg_module(A, ["y"]), 3),
    ]
    rep = gorenstein_projdim_bound_check(A, mods)
    assert rep["checked"] == 3
    assert rep["skipped-infinite-flat"] == 0
    # the middle module attains the bound: projdim 1 = 1 - 1 - (-1)
    assert rep["entries"][1] == {"projdim": 1, "inf": -1, "bound": 1}


def test_gorenstein_bound_check_precondition():
    B = build_trivial_extension(make_graded_ring("Q", ["x", "y"]), 1, ["x"])
    with pytest.raises(ValueError):
        gorenstein_projdim_bound_check(B, [])


def test_gorenstein_tests_share_the_h0_dg_ring(monkeypatch):
    """fpd_bounds and the sharpened bound test H0(A) on one DG-ring memoized
    on A, so after fpd_bounds the bound check runs no Bass scan at all."""
    A = koszul_xyz()
    assert fpd_bounds(A).gorenstein_case
    calls = [0]
    inner = dimensions_module.inj_dim

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dimensions_module, "inj_dim", counted)
    assert gorenstein_projdim_bound_check(A, [])["checked"] == 0
    assert calls[0] == 0


# ---------- witness recipes ----------


def test_bass_recipe_degree_zero():
    rec = bass_witness_recipe(koszul_xyz(), 0)
    assert rec.verified
    assert rec.projdim == 0
    assert rec.koszul_description == "A"


def test_bass_recipe_idempotent_factor():
    rec = bass_witness_recipe(split_product(), 1)
    assert rec.verified
    assert rec.projdim == 1
    assert "factor 0" in rec.prime


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_bass_recipe_over_a_product_is_a_regular_koszul_witness(field):
    """Over k[y, z] x k[x]/(x^2) the n = 2 witness is K(factor 0; y, z),
    zero on the other factor: projdim 2, sup 0 and inf 0 = inf(A).  It used
    to put K(factor; 0, 0) on the other factor, whose inf is -2, and still
    call the module verified, having checked the projdim alone."""
    A = ProductDGRing([
        build_ring_dg(make_graded_ring(field, ["y", "z"])),
        build_ring_dg(make_graded_ring(field, ["x"], ["x^2"])),
    ])
    rec = bass_witness_recipe(A, 2)
    assert (rec.verified, rec.projdim, rec.sequence) == (True, 2, ["y", "z"])
    assert rec.koszul_description == "K(factor 0; y, z) extended by zero"
    assert [p.inf_h() for p in rec.module.parts] == [0, None]
    assert (rec.module.parts[0].sup_h(), rec.module.inf_h()) == (0, 0)


def test_bass_recipe_over_a_product_needs_a_long_enough_sequence():
    """No factor of k[x, y]/(x^2, xy) x k has a regular element, so no
    Koszul witness of projdim 1 lives on one factor."""
    A = ProductDGRing([golod_xy(), build_ring_dg(make_graded_ring("Q", []))])
    with pytest.raises(ValueError, match="recipe unavailable at desk scale"):
        bass_witness_recipe(A, 1)


def test_bass_recipe_verified_over_connected_ring():
    """Over K(k[x, y]; x, xy), of depth 1, the n = 1 witness is K(A; y):
    no element is inverted, and the module is computed and verified."""
    rec = bass_witness_recipe(koszul_xy(), 1)
    assert (rec.verified, rec.projdim, rec.sequence) == (True, 1, ["y"])
    assert (rec.prime, rec.inverted) == (None, None)
    assert rec.koszul_description == "K(A; y)"


def _witness_rings(field):
    R = make_graded_ring(field, ["x", "y"])
    S = make_graded_ring(field, ["x", "y", "z"])
    return {
        "K(k[x,y]; x, xy)": build_koszul_dg(R, ["x", "x*y"]),
        "K(k[x,y,z]; x, xy, xz)": build_koszul_dg(S, ["x", "x*y", "x*z"]),
        "k[x,y,z]": build_ring_dg(S),
        "k[x,y] + (k[x,y]/(x))[1]": build_trivial_extension(R, 1, ["x"]),
        "k[x,y]/(x^2, xy)": build_ring_dg(
            make_graded_ring(field, ["x", "y"], ["x^2", "x*y"])
        ),
    }


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize("name, n", [
    ("K(k[x,y]; x, xy)", 1),
    ("K(k[x,y,z]; x, xy, xz)", 1),
    ("K(k[x,y,z]; x, xy, xz)", 2),
    ("k[x,y,z]", 1),
    ("k[x,y,z]", 2),
    ("k[x,y,z]", 3),
    ("k[x,y] + (k[x,y]/(x))[1]", 1),
])
def test_bass_witness_up_to_the_depth_is_verified(field, name, n):
    """For 1 <= n <= seq.depth(A) the Koszul complex on the first n
    elements of the depth sequence has projdim n, sup 0 and inf = inf(A)."""
    A = _witness_rings(field)[name]
    rec = bass_witness_recipe(A, n)
    assert (rec.verified, rec.projdim, len(rec.sequence)) == (True, n, n)
    assert rec.sequence == sequential_depth(A).sequence[:n]
    assert rec.module.sup_h() == 0
    assert rec.module.inf_h() == ring_free_module(A).inf_h()


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize("name, n", [
    ("k[x,y] + (k[x,y]/(x))[1]", 2),
    ("k[x,y]/(x^2, xy)", 1),
])
def test_bass_witness_past_the_depth_is_a_localization_recipe(field, name, n):
    """Past seq.depth(A) no finitely generated witness exists, so the
    recipe inverts an element and stays unverified, with the reason."""
    A = _witness_rings(field)[name]
    assert sequential_depth(A).value < n
    rec = bass_witness_recipe(A, n)
    assert (rec.verified, rec.module, rec.projdim) == (False, None, None)
    assert rec.inverted is not None
    assert "inhomogeneous" in rec.notes and "small fpd" in rec.notes


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_bass_witness_on_a_non_regular_sequence_is_not_verified(field, monkeypatch):
    """x is not regular on k[x,y]/(x^2, xy): K(A; x) has H^-1 = (0 : x)
    nonzero, so its inf is -1 < 0 = inf(A) and the witness must not be
    verified, whatever its projective dimension."""
    A = _witness_rings(field)["k[x,y]/(x^2, xy)"]
    monkeypatch.setattr(
        finitistic, "sequential_depth", lambda F: DepthReport(1, ["x"], 1, True)
    )
    rec = bass_witness_recipe(A, 1)
    assert rec.module.inf_h() == -1
    assert not rec.verified


def test_bass_recipe_prime_choice_on_quotient():
    rec = bass_witness_recipe(golod_xy(), 1)
    assert rec.prime == "(x)"
    assert rec.inverted == "y"


def test_bass_recipe_target_out_of_range():
    with pytest.raises(ValueError):
        bass_witness_recipe(koszul_xy(), 5)
    with pytest.raises(ValueError):
        bass_witness_recipe(koszul_xy(), -1)


def test_ffd_witness_base_case():
    W = ffd_witness(koszul_xyz(), 1)
    assert flat_dim(W).value == 0


def test_ffd_witness_from_verified_recipe():
    A = split_product(d=2)
    W = ffd_witness(A, 2)
    assert flat_dim(W).value == 1


def test_ffd_witness_from_a_connected_ring():
    W = ffd_witness(koszul_xyz(), 2)
    assert flat_dim(W).value == 1


def test_ffd_witness_unavailable():
    """k[x,y,z]/(x^2, xy, xz) has depth 0 and dim 2: no verified projective
    witness of dimension 1 exists to reuse."""
    A = build_ring_dg(
        make_graded_ring("Q", ["x", "y", "z"], ["x^2", "x*y", "x*z"])
    )
    with pytest.raises(ValueError):
        ffd_witness(A, 2)


# ---------- Hochschild ----------


def test_hochschild_affine_line():
    k = make_graded_ring("Q", [])
    rep = hochschild_table(k, make_graded_ring("Q", ["x"]))
    assert rep.threshold == 2
    assert rep.terminated
    assert rep.resolution_length == 1
    assert rep.hh_lower[0]["rank"] == 1
    assert rep.hh_lower[1] == {"rank": 1, "twists": [1]}
    assert rep.hh_lower[2]["rank"] == 0
    assert rep.hh_upper[1] == {"rank": 1, "twists": [-1]}
    assert rep.hh0_matches
    assert hochschild_vanishing_check(rep)


def test_hochschild_affine_line_golden():
    k = make_graded_ring("Q", [])
    rep = hochschild_table(k, make_graded_ring("Q", ["x"]))
    with open(os.path.join(FIXDIR, "hochschild-affine-line.json")) as fh:
        assert json.dumps(rep.to_json(), indent=1, sort_keys=True) + "\n" == fh.read()


def test_hochschild_affine_plane():
    k = make_graded_ring("Q", [])
    rep = hochschild_table(k, make_graded_ring("Q", ["x", "y"]))
    assert rep.threshold == 4
    assert [rep.hh_lower[i]["rank"] for i in range(0, 6)] == [1, 2, 1, 0, 0, 0]
    assert [rep.hh_upper[i]["rank"] for i in range(0, 6)] == [1, 2, 1, 0, 0, 0]
    assert hochschild_vanishing_check(rep)


def test_hochschild_identity_map():
    B = make_graded_ring("Q", ["x"])
    rep = hochschild_table(B, B)
    assert rep.hh_lower[0]["rank"] == 1
    assert all(rep.hh_lower[i]["rank"] == 0 for i in range(1, len(rep.hh_lower)))
    assert hochschild_vanishing_check(rep)


def test_hochschild_rejects_general_maps():
    with pytest.raises(ValueError):
        hochschild_table(make_graded_ring("Q", ["x"]), make_graded_ring("Q", ["x", "y"]))


# target: (variables, relations), then the twists of HH_i and of HH^i for
# each i listed, hh0-is-the-ring, smooth-certificate and resolution-length,
# as tabulated when Tor and Ext were the cohomology of tensor and Hom into
# the diagonal presented by its relations
HOCHSCHILD_PINS = {
    "k[x,y], deg y = 2": (
        ({"x": 1, "y": 2}, []),
        [[0], [1, 2], [3], [], [], []],
        [[0], [-2, -1], [-3], [], [], []],
        True, True, 2,
    ),
    "k[x,y,z], degrees 1, 2, 3": (
        ({"x": 1, "y": 2, "z": 3}, []),
        [[0], [1, 2, 3], [3, 4, 5], [6], [], [], [], []],
        [[0], [-3, -2, -1], [-5, -4, -3], [-6], [], [], [], []],
        True, True, 3,
    ),
    "k[x,y]/(x^2)": (
        (["x", "y"], ["x^2"]),
        [[0], [1, 1], [2, 3], [3, 4]],
        [[0], [-1, 0], [-2, -1], [-3, -2]],
        True, False, 5,
    ),
    "k[x]/(x^3)": (
        (["x"], ["x^3"]),
        [[0], [1]],
        [[0], [0]],
        True, False, 3,
    ),
    "k[x,y]/(xy), weights 1, 2": (
        ({"x": 1, "y": 2}, ["x*y"]),
        [[0], [1, 2], [3], [6]],
        [[0], [0, 0], [-3], [-3]],
        True, False, 5,
    ),
}


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize("target", sorted(HOCHSCHILD_PINS))
def test_hochschild_tables_of_weighted_and_singular_targets(field, target):
    """hochschild_table(k, B), pinned: every twist list sorted, the order
    it had when Hom and tensor into the diagonal gave the cycles from a
    syzygy matrix sorted by degree.  Over the singular targets the diagonal
    does not resolve within threshold + 2 steps."""
    (variables, relations), lower, upper, hh0, smooth, length = (
        HOCHSCHILD_PINS[target]
    )
    B = make_graded_ring(field, variables, relations)
    rep = hochschild_table(make_graded_ring(field, []), B)
    assert [rep.hh_lower[i]["twists"] for i in sorted(rep.hh_lower)] == lower
    assert [rep.hh_upper[i]["twists"] for i in sorted(rep.hh_upper)] == upper
    for table in (rep.hh_lower, rep.hh_upper):
        assert all(d["rank"] == len(d["twists"]) for d in table.values())
    assert (rep.hh0_matches, rep.terminated, rep.resolution_length) == (
        hh0, smooth, length
    )


DIAGONAL_ORACLE_CASES = [
    (target, "base field", variables, relations)
    for target, ((variables, relations), *_) in sorted(HOCHSCHILD_PINS.items())
] + [
    ("k[x]", "base field", ["x"], []),
    ("k[x,y]", "base field", ["x", "y"], []),
    ("k[x,y]/(x^2, xy)", "identity", ["x", "y"], ["x^2", "x*y"]),
    ("k[x,y]/(x^2)", "identity", ["x", "y"], ["x^2"]),
]


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize(
    "target,source,variables,relations", DIAGONAL_ORACLE_CASES,
    ids=["%s, %s" % case[:2] for case in DIAGONAL_ORACLE_CASES],
)
def test_hochschild_diagonal_tower_matches_the_iterated_syzygy_resolution(
    field, target, source, variables, relations
):
    """The diagonal E/I resolved on the semifree tower, windowed at
    -(dim E + 2), certified and pruned, has the Betti table of the
    iterated-syzygy minimal resolution with cutoff dim E + 2, down to the
    bottom cover a singular target reports, and terminates exactly when
    that resolution does."""
    B = make_graded_ring(field, variables, relations)
    A = B if source == "identity" else make_graded_ring(field, [])
    rep = hochschild_table(A, B)
    E, diag = (B, []) if source == "identity" else finitistic._doubled_ring(B)
    oracle = minimal_free_resolution_module(
        GradedModule.cyclic(E, diag), E.dimension() + 2
    )
    assert rep.betti == {
        i: tuple(sorted(oracle.cover(i).degrees)) for i in oracle.support()
    }
    assert rep.terminated == (oracle.known_lo is None)


def _local_cohomology_rings(field):
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    return {
        "k[x,y]/(x^2, xy)": build_ring_dg(
            make_graded_ring(field, ["x", "y"], ["x^2", "x*y"])
        ),
        "k[x,y]/(xy), weights 1, 2": build_ring_dg(
            make_graded_ring(field, {"x": 1, "y": 2}, ["x*y"])
        ),
        "K(k[x,y]; x, xy)": build_koszul_dg(R, [x, R.mul(x, y)]),
        "k[x,y] + (k[x,y]/(x))[1]": build_trivial_extension(R, 1, [x]),
    }


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_local_cohomology_degrees_pinned(field):
    """The degrees of the derived torsion, as tabulated when Ext into the
    ambient polynomial ring P was Hom into P as a module."""
    got = {
        name: dimensions_module.local_cohomology_amplitude(A).degrees
        for name, A in _local_cohomology_rings(field).items()
    }
    assert got == {
        "k[x,y]/(x^2, xy)": [0, 1],
        "k[x,y]/(xy), weights 1, 2": [1],
        "K(k[x,y]; x, xy)": [0, 1],
        "k[x,y] + (k[x,y]/(x))[1]": [0, 2],
    }
