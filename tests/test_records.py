"""The report and certificate records: plain classes with hand-written
constructors, and an import path that loads none of dataclasses, inspect,
fractions, decimal or numbers.

Every record keeps the field order, the defaults and the annotations of its
constructor, so positional and keyword construction read the same.  A
container default is a fresh object for each instance.  A fresh interpreter
that imports the CLI, or the modules a dimension query reads, must not load
dataclasses or inspect, whose import and generated code made up most of
the start-up time of every dgdim process, nor fractions (with the decimal
and numbers modules it imports), which is loaded only when a non-integral
rational is first built.
"""
import os
import subprocess
import sys

import pytest

from dgdim.dimensions import (
    DepthReport,
    DimensionReport,
    DualizingReport,
    LocalCohomologyReport,
    RegSeqReport,
)
from dgdim.finitistic import FinitisticReport, HochschildReport, WitnessRecipe
from dgdim.report import PASS, CheckResult, VerificationReport
from dgdim.scenario import Scenario

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# each record's fields in constructor order
FIELDS = {
    DimensionReport: ["kind", "value", "infinite", "acyclic", "cutoff",
                      "certificate", "reduction"],
    RegSeqReport: ["regular", "length", "first_failure", "base_inf",
                   "koszul_infs"],
    DepthReport: ["value", "sequence", "pool_size", "exhaustive"],
    LocalCohomologyReport: ["amplitude", "degrees"],
    DualizingReport: ["module", "shift", "normalized_inf", "injdim",
                      "biduality_ok"],
    FinitisticReport: ["fpd", "ffd", "fid", "depth_certificate",
                       "small_witness", "interval", "gorenstein_case",
                       "witness_case", "fpd_value", "witnesses"],
    WitnessRecipe: ["target", "prime", "sequence", "inverted",
                    "koszul_description", "verified", "module", "projdim",
                    "notes"],
    HochschildReport: ["label", "enveloping", "threshold", "terminated",
                       "resolution_length", "betti", "hh_lower", "hh_upper",
                       "hh0_matches"],
    CheckResult: ["check_id", "claim", "outcome", "details", "reproduce"],
    VerificationReport: ["title", "options", "results", "wall_time"],
    Scenario: ["label", "raw", "options", "rings", "dg_rings", "modules",
               "queries"],
}


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_positional_construction_keeps_the_field_order(record):
    values = [object() for _ in FIELDS[record]]
    if record is CheckResult:
        values[2] = PASS
    positional = record(*values)
    keyword = record(**dict(zip(FIELDS[record], values)))
    for name, value in zip(FIELDS[record], values):
        assert getattr(positional, name) is value, name
        assert getattr(keyword, name) is value, name


def test_defaults_are_the_declared_values():
    rep = DimensionReport("proj", None, acyclic=True)
    assert (rep.kind, rep.value, rep.infinite, rep.acyclic) == ("proj", None, False, True)
    assert (rep.cutoff, rep.certificate, rep.reduction) == (None, {}, "")
    assert not rep.finite and rep.to_json()["value"] == "-infinity"
    fin = FinitisticReport()
    assert [getattr(fin, n) for n in FIELDS[FinitisticReport]] == [
        None, None, None, None, None, None, False, False, None, []]
    assert fin.to_json() == {}
    recipe = WitnessRecipe(1, None, [], None, "", False)
    assert (recipe.module, recipe.projdim, recipe.notes) == (None, None, "")
    check = CheckResult("id", "claim", PASS)
    assert (check.details, check.reproduce) == ({}, None)
    report = VerificationReport("title")
    assert (report.options, report.results, report.wall_time) == ({}, [], 0.0)
    scen = Scenario("label", {}, {})
    assert [scen.rings, scen.dg_rings, scen.modules, scen.queries] == [
        {}, {}, {}, []]


def _containers(record, make):
    """The default containers of two fresh instances, by attribute."""
    first, second = make(), make()
    names = [n for n in FIELDS[record] if isinstance(getattr(first, n), (dict, list))]
    return [(n, getattr(first, n), getattr(second, n)) for n in names]


@pytest.mark.parametrize("record, make, names", [
    (DimensionReport, lambda: DimensionReport("proj", 0), ["certificate"]),
    (FinitisticReport, FinitisticReport, ["witnesses"]),
    (CheckResult, lambda: CheckResult("id", "claim", PASS), ["details"]),
    (VerificationReport, lambda: VerificationReport("t"), ["options", "results"]),
    (Scenario, lambda: Scenario("label", None, None),
     ["rings", "dg_rings", "modules", "queries"]),
], ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_every_instance_gets_its_own_default_containers(record, make, names):
    found = _containers(record, make)
    assert [n for n, _, _ in found] == names
    for name, first, second in found:
        assert first is not second, name
        if isinstance(first, list):
            first.append(1)
        else:
            first["k"] = 1
        assert not second, name
        assert not getattr(make(), name), name


def test_a_check_result_rejects_an_unknown_outcome():
    with pytest.raises(ValueError, match="unknown outcome 'passed'"):
        CheckResult("id", "claim", "passed")
    with pytest.raises(ValueError):
        CheckResult("id", "claim", None, {})


COLD_IMPORT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    __import__(name)\n"
    "watched = ['dataclasses', 'inspect', 'fractions', 'decimal', 'numbers']"
    " + sys.argv[2:]\n"
    "print(' '.join(m for m in watched if m in sys.modules))\n"
)


@pytest.mark.parametrize("modules", [
    ["dgdim.cli"],
    ["dgdim.dimensions", "dgdim.core", "dgdim.dg"],
], ids=["cli", "dimension-query"])
def test_a_cold_import_loads_no_dataclasses_inspect_fractions_decimal_or_numbers(
        modules):
    """-I -S: no site hooks and no environment, only the standard library
    and src."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_IMPORT, SRC] + modules,
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == modules


ON_DEMAND_FRACTIONS = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from dgdim.core import PrimeField, Rationals, make_graded_ring\n"
    "from dgdim.dg import build_ring_dg, free_dg_module\n"
    "from dgdim.dimensions import inj_dim\n"
    "watched = ('fractions', 'decimal', 'numbers')\n"
    "ring = make_graded_ring('Fp:32003', ['x', 'y'], ['x^2', 'x*y'])\n"
    "rep = inj_dim(free_dg_module(build_ring_dg(ring), [(0, 0)]))\n"
    "assert rep.infinite\n"
    "assert not [m for m in watched if m in sys.modules], 'over Fp'\n"
    "Q = Rationals()\n"
    "assert Q.inv(-1) == -1 and type(Q.inv(-1)) is int\n"
    "assert type(Q.parse('4/2')) is int and Q.parse('4/2') == 2\n"
    "assert Q.parse('-6/3') == -2 and Q.parse('6/-3') == -2\n"
    "assert 'fractions' not in sys.modules, 'before the first fraction'\n"
    "try:\n"
    "    PrimeField(2).parse('4/2')\n"
    "except ValueError as exc:\n"
    "    assert 'zero denominator' in str(exc)\n"
    "else:\n"
    "    raise AssertionError('4/2 over F_2 parsed')\n"
    "assert PrimeField(7).parse('4/2') == 2 and PrimeField(7).parse('1/2') == 4\n"
    "half = Q.parse('1/2')\n"
    "from fractions import Fraction\n"
    "assert type(half) is Fraction and half == Fraction(1, 2)\n"
    "assert Q.inv(3) == Fraction(1, 3)\n"
    "assert type(Q.parse('4/2')) is int and Q.parse('4/2') == 2\n"
    "print('ok')\n"
)


def test_fractions_is_loaded_only_when_a_non_integral_rational_is_built():
    """-I -S, because the test modules import fractions themselves: the
    Golod query over F_p loads none of fractions, decimal or numbers, and
    over Q it is first loaded by parsing '1/2': an integral quotient such as
    '4/2' does not load it.  Integral values stay ints, on either side of
    that load, and a denominator that vanishes in F_p is still refused."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", ON_DEMAND_FRACTIONS, SRC],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
