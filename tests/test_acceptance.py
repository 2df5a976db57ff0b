"""End-to-end acceptance: the ten headline claims, one test each.

Each test runs the corresponding built-in check (or the CLI itself), holds
it to exact integer equality, and stays inside its wall-clock budget.
"""
import json
import os
import subprocess
import sys
import time

from dgdim.checks import run_check

SHIPPED = os.path.join(
    os.path.dirname(__file__), "..", "scenarios", "koszul-desk.json"
)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _passes(check_id, budget):
    t0 = time.time()
    result = run_check(check_id)
    elapsed = time.time() - t0
    assert result.outcome == "pass", result.details
    assert elapsed < budget, "budget %ss exceeded: %.1fs" % (budget, elapsed)
    return result


def test_criterion_01_koszul_projdim_equals_sequence_length():
    """proj_dim(K(A; a)) = l(a) for lengths 1..3 over all three families."""
    result = _passes("koszul-projdim-equals-length", 10)
    cases = result.details["cases"]
    assert len(cases) == 9
    for entry in cases.values():
        assert entry["projdim"] == entry["length"]


def test_criterion_02_small_finitistic_formulas():
    """fpd = ffd = fid = seq.depth - amp on the four-ring fixture set."""
    result = _passes("small-finitistic-equals-depth-minus-amplitude", 30)
    got = {name: row["fpd"] for name, row in result.details["fixtures"].items()}
    assert got == {
        "polynomial k[x,y]": 2,
        "koszul on (x, xy) over k[x,y]": 0,
        "koszul on (x, xy) over k[x,y,z]": 1,
        "quotient k[x,y]/(x^2, xy)": 0,
    }


def test_criterion_03_fpd_interval_and_both_collapses():
    """Gorenstein instance collapses to dim - amp = 1 with the Koszul
    witness K(A; y, z); the split trivial extension reaches dim = 1 with a
    verified residue-field witness."""
    result = _passes("fpd-interval-collapses", 60)
    gor = result.details["gorenstein-instance"]
    assert gor["fpd-value"] == 1
    assert gor["interval"] == [1, 2]
    assert any(
        w["module"] == "K(A; y, z)" and w["projdim"] + w["inf"] == 1
        for w in gor["witnesses"]
    )
    triv = result.details["trivial-extension-instance"]
    assert triv["fpd-value"] == 1
    assert any(
        "residue" in w["module"] and w["projdim"] + w["inf"] == 1
        for w in triv["witnesses"]
    )


def test_criterion_04_global_projdim_bound_suite():
    """projdim(M) <= dim H0(A) - inf(M) on 50 seeded perfect modules."""
    result = _passes("global-projdim-bound", 300)
    assert result.details["modules"] == 50
    assert result.details["violations"] == []


def test_criterion_05_depth_sensitive_bound_suite():
    """projdim(M) <= seq.depth - inf - amp over the connected corpus."""
    result = _passes("depth-sensitive-projdim-bound", 300)
    assert result.details["modules-checked"] > 0
    assert result.details["violations"] == []


def test_criterion_06_reduction_matches_direct_ext_search():
    """Reduction-computed projdim equals the brute Ext-vanishing search
    against amplitude-zero test modules on 25 seeded instances."""
    result = _passes("reduction-matches-ext-search", 300)
    assert result.details["agree"] == 25
    assert result.details["disagreements"] == []


def test_criterion_07_dualizing_module_checks():
    """injdim(R) = inf(R) + dim H0 on the Gorenstein fixtures, plus the
    RHom and tensor inf bounds on seeded modules."""
    result = _passes("dualizing-module-identities", 60)
    for row in result.details["fixtures"].values():
        assert row["identity-holds"]
        assert row["biduality"]
        for sample in row["samples"]:
            assert sample["tensor-bound"] and sample["hom-bound"]


def test_criterion_08_local_cohen_macaulay_equivalence():
    """is_local_cohen_macaulay agrees with fpd = dim - amp on all fixtures,
    including the designed-false trivial extension."""
    result = _passes("cohen-macaulay-matches-fpd-formula", 60)
    assert result.details["designed-false-seen"]
    for row in result.details["fixtures"].values():
        assert row["cohen-macaulay"] == row["formula-holds"]


def test_criterion_09_hochschild_vanishing():
    """HH_i = HH^i = 0 above dim of the enveloping ring for k[x] and
    k[x,y], and HH_1(k[x]/k) is free of rank one."""
    result = _passes("hochschild-vanishing-above-dimension", 60)
    maps = result.details["maps"]
    assert maps["k[x]"]["vanishing-above-threshold"]
    assert maps["k[x,y]"]["vanishing-above-threshold"]
    assert maps["k[x]"]["first-hochschild"] == {"rank": 1, "twists": [1]}
    assert maps["k[x,y]"]["hh-ranks"]["1"] == 2


def test_criterion_10_determinism_and_presentation_independence():
    """Byte-identical reports across two fresh processes with the same
    seed, and Betti numbers stable across redundant presentations."""
    t0 = time.time()
    cmd = [sys.executable, "-m", "dgdim.cli", "run", SHIPPED,
           "--format", "json"]
    # the child does not inherit pytest's pythonpath, so pass the source tree
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["summary"]["fail"] == 0
    betti = run_check("betti-presentation-independence")
    assert betti.outcome == "pass"
    assert betti.details["mismatches"] == 0
    assert time.time() - t0 < 60
