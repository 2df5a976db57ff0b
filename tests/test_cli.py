"""Report emission, scenario ingestion, and the command line front end."""
import json
import os

import pytest

from dgdim.checks import check_ids, describe_check, run_check, verify_builtin_suite
from dgdim.cli import main
from dgdim.report import (
    CheckResult,
    VerificationReport,
    emit_report,
    parse_report,
)
from dgdim.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
)

SHIPPED = os.path.join(
    os.path.dirname(__file__), "..", "scenarios", "koszul-desk.json"
)


def small_doc(**extra):
    doc = {
        "schema": "dgdim-scenario/1",
        "rings": {"R": {"variables": ["x", "y"]}},
        "dg_rings": {"A": {"kind": "koszul", "base": "R",
                           "elements": ["x", "x*y"]}},
        "modules": {"M": {"kind": "koszul", "ring": "A", "elements": ["y"]}},
        "queries": [{"op": "proj-dim", "module": "M", "expect": 1}],
    }
    doc.update(extra)
    return doc


# ---------- reports ----------


def test_report_json_round_trip():
    rep = VerificationReport("demo", options={"seed": 0})
    rep.add(CheckResult("a-check", "a claim", "pass", {"value": 3}))
    rep.add(CheckResult("b-check", "b claim", "fail", {"value": 1},
                        reproduce={"queries": []}))
    back = parse_report(emit_report(rep, "json"))
    assert emit_report(back, "json") == emit_report(rep, "json")
    assert back.results[1].reproduce == {"queries": []}


def test_report_wall_time_not_in_json_bytes():
    a = VerificationReport("demo")
    b = VerificationReport("demo", wall_time=42.0)
    assert emit_report(a, "json") == emit_report(b, "json")
    assert b"42.00 s" in emit_report(b, "text")


def test_report_text_names_the_failed_check():
    rep = VerificationReport("demo")
    rep.add(CheckResult("koszul-thing", "lengths match", "fail", {"got": 2}))
    text = emit_report(rep, "text").decode()
    assert "FAIL" in text and "koszul-thing" in text and "got: 2" in text


def test_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report(VerificationReport("demo"), "yaml")


def test_report_outcome_validation():
    with pytest.raises(ValueError):
        CheckResult("x", "y", "maybe")


def test_empty_report_is_valid_and_passing():
    rep = VerificationReport("empty")
    assert rep.exit_code() == 0
    doc = json.loads(emit_report(rep, "json"))
    assert doc["results"] == []
    assert doc["summary"]["fail"] == 0


def test_exit_code_precedence():
    rep = VerificationReport("demo")
    rep.add(CheckResult("a", "c", "indeterminate"))
    assert rep.exit_code() == 2
    rep.add(CheckResult("b", "c", "fail"))
    assert rep.exit_code() == 1


# ---------- scenarios ----------


def test_shipped_scenario_all_pass():
    scn = load_scenario(SHIPPED)
    rep = run_scenario(scn)
    assert rep.exit_code() == 0
    assert len(rep.results) == 7
    assert all(r.outcome == "pass" for r in rep.results)


def test_scenario_bad_json_carries_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": "dgdim-scenario/1",\n  "rings": }')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert err.value.line == 2
    assert err.value.column is not None


def test_scenario_rejects_wrong_schema():
    with pytest.raises(ScenarioError):
        parse_scenario({"schema": "dgdim-scenario/2"})


def test_scenario_rejects_unknown_query_op():
    doc = small_doc(queries=[{"op": "zeta-function", "ring": "A"}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "zeta-function" in str(err.value)


def test_scenario_rejects_undeclared_names():
    doc = small_doc()
    doc["modules"]["M"]["ring"] = "nowhere"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "undeclared" in str(err.value)


def test_scenario_rejects_bad_differential_at_parse_stage():
    doc = small_doc()
    doc["dg_rings"]["B"] = {"kind": "ring", "base": "R"}
    doc["modules"]["Bad"] = {
        "kind": "presented", "ring": "B",
        "generators": [[0, 0], [-1, 1], [-2, 2]],
        "differential": {"1": {"0": "x"}, "2": {"1": "y"}},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "d^2" in str(err.value)


@pytest.mark.parametrize(
    "options",
    [{"cutoff": 0}, {"cutoff": "four"}, {"window": [3, -3]},
     {"window": [0]}, {"seed": "zero"}, {"colour": 1}],
)
def test_scenario_rejects_out_of_range_options(options):
    with pytest.raises(ScenarioError):
        parse_scenario(small_doc(options=options))


def test_empty_query_list_gives_empty_passing_report():
    rep = run_scenario(parse_scenario(small_doc(queries=[])))
    assert rep.exit_code() == 0
    assert rep.results == []


def test_expect_mismatch_fails_with_minimal_reproduction():
    doc = small_doc(queries=[{"op": "proj-dim", "module": "M", "expect": 9}])
    rep = run_scenario(parse_scenario(doc))
    assert rep.exit_code() == 1
    failed = rep.results[0]
    assert failed.outcome == "fail"
    sub = failed.reproduce
    # the reproduction is itself a runnable scenario with the same failure
    rerun = run_scenario(parse_scenario(sub))
    assert rerun.exit_code() == 1
    assert rerun.results[0].details["value"] == 1


def test_cutoff_exhaustion_reported_as_indeterminate(monkeypatch):
    import dgdim.scenario as scenario_module

    def explode(M):
        raise RuntimeError("window fell short")

    monkeypatch.setattr(scenario_module, "proj_dim", explode)
    rep = run_scenario(parse_scenario(small_doc()))
    assert rep.exit_code() == 2
    assert rep.results[0].outcome == "indeterminate"
    assert "window fell short" in rep.results[0].details["reason"]
    assert rep.results[0].reproduce is not None


def test_scenario_query_values_match_library():
    doc = small_doc(queries=[
        {"op": "proj-dim", "module": "M"},
        {"op": "depth", "ring": "A"},
        {"op": "small-finitistic", "ring": "A"},
        {"op": "cohomology", "module": "M"},
    ])
    rep = run_scenario(parse_scenario(doc))
    values = [r.details["value"] for r in rep.results]
    assert values[:3] == [1, 1, 0]
    # K(A; y) has one-dimensional cohomology in degrees -1 and 0
    assert rep.results[3].details["ranks"] == {"-1": 1, "0": 1}


def test_hochschild_query_runs_for_base_field_maps():
    doc = {
        "schema": "dgdim-scenario/1",
        "rings": {
            "k": {"variables": []},
            "B": {"variables": ["x"]},
        },
        "queries": [
            {"op": "hochschild", "source": "k", "target": "B",
             "expect": True},
        ],
    }
    rep = run_scenario(parse_scenario(doc))
    assert rep.exit_code() == 0
    assert rep.results[0].details["threshold"] == 2


def test_scenario_runs_over_prime_fields():
    scn = parse_scenario(small_doc(), overrides={"field": "Fp:5"})
    rep = run_scenario(scn)
    assert rep.exit_code() == 0


# ---------- built-in suite ----------


def test_builtin_filter_skips_other_checks():
    rep = verify_builtin_suite("betti")
    counts = rep.counts()
    assert counts["pass"] == 1
    assert counts["skipped"] == len(check_ids()) - 1


def test_every_check_has_a_distinct_id_and_claim():
    ids = check_ids()
    assert len(ids) == len(set(ids)) == 11
    for cid in ids:
        assert describe_check(cid)


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_run_check_failures_are_results_not_exceptions(monkeypatch):
    import dgdim.checks as checks_module

    def explode(opts):
        raise RuntimeError("boom")

    patched = [
        (cid, claim, explode if cid == "betti-presentation-independence"
         else fn)
        for cid, claim, fn in checks_module.CHECKS
    ]
    monkeypatch.setattr(checks_module, "CHECKS", patched)
    res = run_check("betti-presentation-independence")
    assert res.outcome == "fail"
    assert "boom" in res.details["error"]


# ---------- command line ----------


def test_cli_run_shipped_scenario(capsys):
    assert main(["run", SHIPPED]) == 0
    out = capsys.readouterr().out
    assert "7 pass" in out


def test_cli_run_json_is_parseable(capsys):
    assert main(["run", SHIPPED, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "dgdim-report/1"
    assert doc["summary"]["pass"] == 7


def test_cli_run_is_deterministic(capsys):
    main(["run", SHIPPED, "--format", "json"])
    first = capsys.readouterr().out
    main(["run", SHIPPED, "--format", "json"])
    assert capsys.readouterr().out == first


def test_cli_missing_file_is_input_error(capsys):
    assert main(["run", "/no/such/scenario.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_bad_scenario_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err


def test_cli_expect_mismatch_exit_code(tmp_path, capsys):
    doc = small_doc(queries=[{"op": "proj-dim", "module": "M", "expect": 5}])
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_filter(capsys):
    assert main(["verify", "--filter", "report-determinism"]) == 0
    out = capsys.readouterr().out
    assert "report-determinism" in out
    assert "10 skipped" in out


def test_cli_explain_lists_checks(capsys):
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    for cid in check_ids():
        assert cid in out


def test_cli_explain_runs_one_check(capsys):
    assert main(["explain", "betti-presentation-independence",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["outcome"] == "pass"
    assert doc["results"][0]["details"]["presentations"] == 10


def test_cli_explain_unknown_check(capsys):
    assert main(["explain", "nope"]) == 3
    assert "unknown check" in capsys.readouterr().err


def test_cli_rejects_malformed_window():
    with pytest.raises(SystemExit):
        main(["run", SHIPPED, "--window", "broad"])


def test_cli_field_flag_overrides_scenario(capsys):
    assert main(["run", SHIPPED, "--field", "Fp:7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["options"]["field"] == "Fp:7"


def test_verify_builds_matrices_from_normal_forms_only(monkeypatch, capsys):
    # GradedMatrix.from_columns takes its entries as given, so every caller
    # must hand it normal forms; a cold syzygy cache makes every caller run
    import dgdim.core.syz as syz_module
    from dgdim.core import GradedMatrix

    inner = GradedMatrix.from_columns
    calls = [0]

    def checked(target, col_degrees, cols):
        ring = target.ring
        for col in cols:
            for e in col:
                assert ring.normal_form(e) == e, "entry %s is not a normal form" % e
        calls[0] += 1
        return inner(target, col_degrees, cols)

    monkeypatch.setattr(syz_module, "_syz_cache", {})
    monkeypatch.setattr(GradedMatrix, "from_columns", staticmethod(checked))
    assert main(["verify", "--seed", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    assert calls[0] > 0
