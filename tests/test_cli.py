"""Report emission, scenario ingestion, and the command line front end."""
import json
import os
import subprocess
import sys

import pytest

from dgdim.checks import check_ids, describe_check, run_check, verify_builtin_suite
from dgdim.cli import main
from dgdim.report import CheckResult, VerificationReport, emit_report
from dgdim.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
)

SHIPPED = os.path.join(
    os.path.dirname(__file__), "..", "scenarios", "koszul-desk.json"
)
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


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
     {"window": [0]}, {"seed": "zero"}, {"colour": 1},
     {"cutoff": 12}, {"seed": 0}, {"window": [False, True]},
     {"window": [0, True]}],
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


def test_reproduction_keeps_every_declaration_of_a_shared_name():
    """A DG-ring and a module may share a name: the reproduction keeps both
    declarations and all that either refers to, so it loads and fails the
    same way, and it still drops what the query does not reach."""
    doc = small_doc(
        rings={"R": {"variables": ["x", "y"]}, "S": {"variables": ["z"]}},
        modules={"A": {"kind": "free", "ring": "A", "generators": [[0, 0]]}},
        queries=[{"op": "proj-dim", "module": "A", "expect": 9}],
    )
    sub = run_scenario(parse_scenario(doc)).results[0].reproduce
    assert sub["rings"] == {"R": doc["rings"]["R"]}
    assert (sub["dg_rings"], sub["modules"]) == (doc["dg_rings"], doc["modules"])
    rerun = run_scenario(parse_scenario(sub))
    assert rerun.exit_code() == 1
    assert rerun.results[0].details["value"] == 0


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


def test_internal_assertion_reported_as_failure(monkeypatch, tmp_path, capsys):
    import dgdim.scenario as scenario_module

    def broken(M):
        raise AssertionError("stage positions failed to decrease")

    monkeypatch.setattr(scenario_module, "proj_dim", broken)
    rep = run_scenario(parse_scenario(small_doc()))
    assert rep.exit_code() == 1
    failed = rep.results[0]
    assert failed.outcome == "fail"
    assert "stage positions failed to decrease" in failed.details["reason"]
    assert failed.reproduce["queries"] == small_doc()["queries"]
    # through the command line: a FAIL line and exit code 1, no traceback
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(small_doc()))
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "Traceback" not in captured.out + captured.err


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


SURROGATE_NAME = {
    "schema": "dgdim-scenario/1",
    "rings": {"R": {"variables": ["x"]}},
    "dg_rings": {"\ud800": {"kind": "ring", "base": "R"}},
    "queries": [{"op": "depth", "ring": "\ud800"}],
}


@pytest.mark.parametrize("text,needs", [
    (b"\xff\xfe{", "can't decode"),
    (b"[" * 200000 + b"]" * 200000, "recursion depth"),
    (json.dumps(SURROGATE_NAME).encode("ascii"), "can't encode"),
], ids=["not-utf-8", "deep-nesting", "lone-surrogate-name"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_rejects_scenario_text_it_cannot_read_or_report(
    text, needs, fmt, tmp_path, capsys
):
    """A file that is not UTF-8, JSON nested past the recursion limit, and
    a string holding a lone surrogate escape (valid JSON, but not text the
    text report can encode) are bad input: exit 3 with one error line."""
    p = tmp_path / "scenario.json"
    p.write_bytes(text)
    assert main(["run", str(p), "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needs in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_reports_a_scenario_whose_file_name_is_not_utf_8(tmp_path, capsys):
    """The report is labelled with the file name, its undecodable bytes
    replaced, so the text report can be written."""
    p = os.path.join(os.fsencode(tmp_path), b"\xff.json")
    with open(p, "wb") as fh:
        fh.write(json.dumps(small_doc(queries=[])).encode("ascii"))
    assert main(["run", os.fsdecode(p)]) == 0
    assert "scenario \ufffd.json" in capsys.readouterr().out


def product_doc(modules):
    """A scenario over a connected DG-ring B and the product P = B x C."""
    return {
        "schema": "dgdim-scenario/1",
        "rings": {"R": {"variables": ["x", "y"]}, "S": {"variables": ["z"]}},
        "dg_rings": {"B": {"kind": "ring", "base": "R"},
                     "C": {"kind": "ring", "base": "S"},
                     "P": {"kind": "product", "factors": ["B", "C"]}},
        "modules": modules,
        "queries": [],
    }


FREE_OVER_P = {"kind": "free", "ring": "P", "generators": [[0, 0]]}


@pytest.mark.parametrize("modules,needs", [
    ({"F": FREE_OVER_P, "X": {"kind": "cone-mult", "of": "F", "element": "x"}},
     "connected"),
    ({"F": FREE_OVER_P, "X": {"kind": "sum", "of": "F", "and": "F"}}, "connected"),
    ({"X": {"kind": "residue", "ring": "P"}}, "connected"),
    ({"X": {"kind": "h0-cyclic", "ring": "P"}}, "connected"),
    ({"X": {"kind": "presented", "ring": "P", "generators": [[0, 0]],
            "differential": {}}}, "connected"),
    ({"X": {"kind": "factor-residue", "ring": "B", "index": 0}}, "product"),
    ({"X": {"kind": "factor-residue", "ring": "P", "index": 2}}, "not a factor"),
    ({"X": {"kind": "presented", "ring": "B", "generators": [[0, 0], [-1, 1]],
            "differential": {"1": {"5": "x"}}}}, "undeclared generator"),
    ({"X": {"kind": "h0-cyclic", "ring": "B", "elements": ["x + y^2"]}},
     "not homogeneous"),
], ids=["cone-mult", "sum", "residue", "h0-cyclic", "presented",
        "factor-residue-connected", "factor-residue-index",
        "presented-index", "h0-cyclic-inhomogeneous"])
def test_cli_rejects_bad_module_declarations(modules, needs, tmp_path, capsys):
    """A module kind given the wrong kind of DG-ring, a generator index or
    an element it cannot take is bad input (exit 3), reported in one line
    that names the module, not a traceback or a failed check."""
    p = tmp_path / "bad-module.json"
    p.write_text(json.dumps(product_doc(modules)))
    assert main(["run", str(p)]) == 3
    err = capsys.readouterr().err
    assert "module 'X'" in err and needs in err
    assert len(err.strip().splitlines()) == 1


def _bad_number_doc(field, value):
    """product_doc with value in one declared number field; the error must
    name the declaration ('DG-ring ...' or 'module ...') and the key."""
    modules, dg_rings = {"F": FREE_OVER_P}, {}
    if field == "shift-by":
        modules["X"] = {"kind": "shift", "of": "F", "by": value}
    elif field == "twist-by":
        modules["X"] = {"kind": "twist", "of": "F", "by": value}
    elif field == "factor-residue-index":
        modules["X"] = {"kind": "factor-residue", "ring": "P", "index": value}
    elif field == "free-generators":
        modules["X"] = {"kind": "free", "ring": "B", "generators": [[0, value]]}
    elif field == "presented-generators":
        modules["X"] = {"kind": "presented", "ring": "B",
                        "generators": [[value, 0]], "differential": {}}
    elif field == "trivial-extension-shift":
        dg_rings["T"] = {"kind": "trivial-extension", "base": "R", "shift": value}
    elif field == "trivial-extension-twist":
        dg_rings["T"] = {"kind": "trivial-extension", "base": "R", "shift": 1,
                         "twist": value}
    elif field == "split-trivial-extension-shift":
        dg_rings["T"] = {"kind": "split-trivial-extension", "base": "R",
                         "tail": "S", "shift": value}
    doc = product_doc(modules)
    doc["dg_rings"].update(dg_rings)
    return doc


NUMBER_FIELDS = {
    "shift-by": ("module 'X'", "by"),
    "twist-by": ("module 'X'", "by"),
    "factor-residue-index": ("module 'X'", "index"),
    "free-generators": ("module 'X'", "generator twist"),
    "presented-generators": ("module 'X'", "generator position"),
    "trivial-extension-shift": ("DG-ring 'T'", "shift"),
    "trivial-extension-twist": ("DG-ring 'T'", "twist"),
    "split-trivial-extension-shift": ("DG-ring 'T'", "shift"),
}


@pytest.mark.parametrize("value", [1.5, "a"], ids=["float", "string"])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_cli_rejects_scenario_numbers_that_are_not_integers(
    field, value, tmp_path, capsys
):
    """A number a declaration reads must be a JSON integer: int() would
    truncate 1.5 to 1 and build the wrong object, so anything else is bad
    input (exit 3), reported in one line naming the declaration and key."""
    p = tmp_path / "bad-number.json"
    p.write_text(json.dumps(_bad_number_doc(field, value)))
    assert main(["run", str(p)]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    owner, key = NUMBER_FIELDS[field]
    assert owner in captured.err
    assert "%s must be an integer, not %r" % (key, value) in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def _shaped_doc(section, name, value):
    """small_doc with one entry replaced: section/name set to value, or the
    whole section when name is None."""
    doc = small_doc()
    doc["dg_rings"]["B"] = {"kind": "ring", "base": "R"}
    if name is None:
        doc[section] = value
    else:
        doc[section][name] = value
    return doc


@pytest.mark.parametrize("section,name,value,needs", [
    ("modules", "X", {"kind": "free", "ring": "B", "generators": [5]},
     "generator must be an array of two"),
    ("modules", "X", {"kind": "free", "ring": "B", "generators": 5},
     "generators must be an array"),
    ("modules", "X", {"kind": "presented", "ring": "B", "generators": [[0, 0]],
                      "differential": [1]}, "differential must be an object"),
    ("modules", "X", {"kind": "presented", "ring": "B", "generators": [[0, 0]],
                      "differential": {"0": 1}},
     "differential row must be an object"),
    ("modules", "M", {"kind": "koszul", "ring": "A", "elements": 3},
     "elements must be an array"),
    ("modules", "M", {"kind": "koszul", "ring": "A", "elements": "x"},
     "elements must be an array"),
    ("dg_rings", "A", {"kind": "koszul", "base": "R", "elements": 3},
     "elements must be an array"),
    ("dg_rings", "P", {"kind": "product", "factors": [["A"]]},
     "factor must be a string"),
    ("rings", "R", {"variables": 5}, "variables must be an array"),
    ("rings", "R", {"variables": [5]}, "variable must be a string"),
    ("rings", "R", {"variables": ["x", "y"], "relations": "x"},
     "relations must be an array"),
    ("modules", None, [1], "modules must be an object"),
    ("modules", "M", 5, "'M' must be an object"),
    ("queries", None, [{"op": "proj-dim", "module": ["M"]}],
     "module must be a string"),
    ("options", None, [1], "options must be an object"),
    ("options", None, {"field": 5}, "field must be a string"),
], ids=["generator-not-a-pair", "generators-not-an-array",
        "differential-not-an-object", "differential-row-not-an-object",
        "module-elements-number", "module-elements-string",
        "dg-ring-elements-number", "factor-not-a-string",
        "variables-not-an-array", "variable-not-a-string",
        "relations-not-an-array", "modules-not-an-object",
        "declaration-not-an-object", "query-module-not-a-string",
        "options-not-an-object", "field-not-a-string"])
def test_cli_rejects_scenario_values_of_the_wrong_json_type(
    section, name, value, needs, tmp_path, capsys
):
    """A declaration key, section or option of the wrong JSON type is bad
    input (exit 3) in one error line naming the key, not a traceback, and
    an array is not read as the string it was meant to be or the other way
    round."""
    p = tmp_path / "bad-shape.json"
    p.write_text(json.dumps(_shaped_doc(section, name, value)))
    assert main(["run", str(p)]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("error: ") and needs in line


def _misspelt(section, name, key, value):
    """small_doc with one key that no entry reads: on a declaration, on
    query name, or on the document when section is None."""
    doc = small_doc()
    if section is None:
        doc[key] = value
    elif section == "queries":
        doc["queries"][name][key] = value
    else:
        doc[section][name][key] = value
    return doc


@pytest.mark.parametrize("section,name,key,value,what", [
    (None, None, "querys", [], "scenario"),
    ("rings", "R", "relation", ["x^2"], "ring 'R'"),
    ("dg_rings", "A", "element", ["y"], "DG-ring 'A' (kind 'koszul')"),
    ("modules", "M", "rings", "A", "module 'M' (kind 'koszul')"),
    ("queries", 0, "expct", 7, "query 0 (op 'proj-dim')"),
], ids=["document", "ring", "dg-ring", "module", "query"])
def test_cli_rejects_a_key_no_entry_reads(section, name, key, value, what,
                                          tmp_path, capsys):
    """A misspelt key is bad input (exit 3, one line naming it), where it
    used to be dropped: a ring's misspelt relations left k[x, y] free, and
    a misspelt expect was never compared, so both queries passed."""
    code, err = run_doc(_misspelt(section, name, key, value), tmp_path, capsys)
    assert code == 3
    assert err.strip().splitlines() == [
        "error: %s has unknown key %r" % (what, key)]


@pytest.mark.parametrize("section,name,value,needs", [
    ("rings", "R", {"variables": ["x", "y"], "relations": [1.5]},
     "ring 'R': relation must be a string, not 1.5"),
    ("rings", "R", {"variables": ["x", "y"], "relations": [True]},
     "ring 'R': relation must be a string, not True"),
    ("rings", "R", {"variables": ["x", "y"], "relations": [2]},
     "ring 'R': relation must be a string, not 2"),
    ("dg_rings", "A", {"kind": "koszul", "base": "R", "elements": ["x", 2]},
     "DG-ring 'A' (kind 'koszul'): element must be a string, not 2"),
    ("modules", "M", {"kind": "koszul", "ring": "A", "elements": [1.5]},
     "module 'M' (kind 'koszul'): element must be a string, not 1.5"),
    ("modules", "X", {"kind": "koszul", "ring": "P", "elements": [["x", 1]]},
     "module 'X' (kind 'koszul'): element must be a string, not 1"),
    ("modules", "X", {"kind": "h0-cyclic", "ring": "B", "elements": [True]},
     "module 'X' (kind 'h0-cyclic'): element must be a string, not True"),
    ("modules", "X", {"kind": "presented", "ring": "B",
                      "generators": [[0, 0], [-1, 1]],
                      "differential": {"1": {"0": 2}}},
     "module 'X' (kind 'presented'): differential entry must be a string, "
     "not 2"),
    ("modules", "X", {"kind": "presented", "ring": "B",
                      "generators": [[0, 0], [-1, 1]],
                      "differential": {"one": {"0": "x"}}},
     "module 'X' (kind 'presented'): differential key 'one' is not a "
     "generator index"),
    ("modules", "X", {"kind": "presented", "ring": "B",
                      "generators": [[0, 0], [-1, 1]],
                      "differential": {"1": {"-0": "x"}}},
     "module 'X' (kind 'presented'): differential key '-0' is not a "
     "generator index"),
], ids=["relation-float", "relation-boolean", "relation-integer",
        "dg-ring-element-integer", "module-element-float",
        "product-element-integer", "h0-cyclic-element-boolean",
        "differential-entry-integer", "differential-key-word",
        "differential-key-signed"])
def test_cli_rejects_polynomials_that_are_not_strings(section, name, value,
                                                      needs, tmp_path, capsys):
    """A polynomial entry must be a JSON string and a differential key a
    decimal generator index: str() used to read 2 as the unit, 1.5 and
    true as parse errors about int() or a variable 'True'."""
    doc = _shaped_doc(section, name, value)
    doc["dg_rings"]["P"] = {"kind": "product", "factors": ["A", "B"]}
    code, err = run_doc(doc, tmp_path, capsys)
    assert code == 3
    assert err.strip().splitlines() == ["error: " + needs]


def test_h0_cyclic_scenario_module_parses_its_elements():
    """k[x, y]/(x) is the cyclic module the elements declare: proj dim 1."""
    doc = small_doc(queries=[{"op": "proj-dim", "module": "X", "expect": 1}])
    doc["dg_rings"]["B"] = {"kind": "ring", "base": "R"}
    doc["modules"] = {"X": {"kind": "h0-cyclic", "ring": "B", "elements": ["x"]}}
    assert run_scenario(parse_scenario(doc)).exit_code() == 0


def run_product_query(query, tmp_path, capsys):
    """Exit code and stderr of one query against product_doc's rings."""
    doc = product_doc({"F": FREE_OVER_P})
    doc["queries"] = [query]
    p = tmp_path / "query.json"
    p.write_text(json.dumps(doc))
    code = main(["run", str(p)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err


@pytest.mark.parametrize("query,needs", [
    ({"op": "bass-witness", "ring": "B", "n": "a"}, "integer"),
    ({"op": "bass-witness", "ring": "B", "n": 1.5}, "integer"),
    ({"op": "bass-witness", "ring": "B", "n": -1}, "outside"),
    ({"op": "bass-witness", "ring": "P", "n": 3}, "outside"),
], ids=["n-not-a-number", "n-not-an-integer", "n-negative", "n-above-dim"])
def test_cli_rejects_bad_query_inputs(query, needs, tmp_path, capsys):
    """A bass-witness target that is not an integer in 0..dim H0(A) is bad
    input: exit 3 with one line naming the query and its op."""
    code, err = run_product_query(query, tmp_path, capsys)
    assert code == 3
    assert "query 0 (op 'bass-witness')" in err and needs in err
    assert len(err.strip().splitlines()) == 1


def run_doc(doc, tmp_path, capsys):
    """Exit code and stderr of `dgdim run` on the scenario doc."""
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    code = main(["run", str(p)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err


def test_cli_rejects_a_zero_ring(tmp_path, capsys):
    """Relations with a nonzero constant generate the unit ideal: the zero
    ring is bad input (exit 3, one line naming it), not a depth FAIL."""
    doc = {
        "schema": "dgdim-scenario/1",
        "rings": {"Z": {"variables": ["x"], "relations": ["2"]}},
        "dg_rings": {"A": {"kind": "ring", "base": "Z"}},
        "queries": [{"op": "depth", "ring": "A"}],
    }
    code, err = run_doc(doc, tmp_path, capsys)
    assert code == 3
    assert "ring 'Z'" in err and "zero ring" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_rejects_an_unsupported_hochschild_map(tmp_path, capsys):
    """hochschild takes the identity or the base field into the target;
    k[x] -> k[x, y] is bad input (exit 3, one line naming the query)."""
    doc = {
        "schema": "dgdim-scenario/1",
        "rings": {"R": {"variables": ["x"]}, "S": {"variables": ["x", "y"]}},
        "queries": [{"op": "hochschild", "source": "R", "target": "S"}],
    }
    code, err = run_doc(doc, tmp_path, capsys)
    assert code == 3
    assert "query 0 (op 'hochschild')" in err and "out of scope" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("expect,code", [(None, 0), (True, 1)],
                         ids=["no-expect", "expect-true"])
def test_hochschild_of_a_singular_target_is_not_smooth(expect, code, tmp_path,
                                                        capsys):
    """k -> k[x, y]/(x^2): the diagonal's resolution does not terminate
    within threshold + 2 steps, so it is longer than the threshold and the
    vanishing check answers false.  The query passes without an expect, and
    fails (exit 1) with expect true, reporting its tables and the missing
    smoothness certificate either way."""
    query = {"op": "hochschild", "source": "k", "target": "B"}
    if expect is not None:
        query["expect"] = expect
    doc = {
        "schema": "dgdim-scenario/1",
        "rings": {"k": {"variables": []},
                  "B": {"variables": ["x", "y"], "relations": ["x^2"]}},
        "queries": [query],
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--format", "json"]) == code
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["outcome"] == ("pass" if code == 0 else "fail")
    details = result["details"]
    assert details["value"] is False
    assert details["smooth-certificate"] is False
    assert details["hh"]["1"] == {"rank": 2, "twists": [1, 1]}


@pytest.mark.parametrize("query,code", [
    ({"op": "proj-dim", "module": "F"}, 0),
    ({"op": "flat-dim", "module": "F"}, 0),
    ({"op": "inj-dim", "module": "F"}, 0),
    ({"op": "cohomology", "module": "F"}, 0),
    ({"op": "fpd-interval", "ring": "P"}, 0),
    ({"op": "bass-witness", "ring": "P", "n": 1}, 0),
    ({"op": "depth", "ring": "P"}, 3),
    ({"op": "small-finitistic", "ring": "P"}, 3),
], ids=lambda v: v["op"] if isinstance(v, dict) else None)
def test_every_query_op_on_a_product_dg_ring(query, code, tmp_path, capsys):
    """The dimension, cohomology, FPD and witness queries take a product
    DG-ring; depth and the small finitistic dimension need a connected one,
    so on a product they are bad input (exit 3, one line), not a FAIL."""
    got, err = run_product_query(query, tmp_path, capsys)
    assert got == code
    if code == 3:
        assert "query 0 (op %r)" % query["op"] in err and "connected" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("query,want", [
    ({"op": "proj-dim", "module": "M", "expect": True}, "an integer, "),
    ({"op": "proj-dim", "module": "M", "expect": 1.0}, "an integer, "),
    ({"op": "proj-dim", "module": "M", "expect": "one"}, "an integer, "),
    ({"op": "inj-dim", "module": "M", "expect": [1]}, "an integer, "),
    ({"op": "flat-dim", "module": "M", "expect": None}, "an integer, "),
    ({"op": "cohomology", "module": "M", "expect": "infinity"}, "an integer,"),
    ({"op": "depth", "ring": "A", "expect": True}, "an integer,"),
    ({"op": "small-finitistic", "ring": "A", "expect": 0.0}, "an integer,"),
    ({"op": "fpd-interval", "ring": "A", "expect": "0"}, "an integer,"),
    ({"op": "bass-witness", "ring": "A", "n": 0, "expect": 1}, "a boolean"),
    ({"op": "hochschild", "source": "R", "target": "R", "expect": "true"},
     "a boolean"),
], ids=["bool-for-dimension", "float-for-dimension", "word-for-dimension",
        "list-for-dimension", "null-for-dimension", "infinity-for-count",
        "bool-for-depth", "float-for-fpd", "string-for-fpd-interval",
        "int-for-bass-witness", "string-for-hochschild"])
def test_cli_rejects_expect_outside_the_op_domain(query, want, tmp_path, capsys):
    """An expect must be a value the op reports: a JSON integer,
    "infinity" or "-infinity" for the dimensions, a JSON boolean for
    bass-witness and hochschild, a JSON integer for the rest.  Anything
    else is bad input (exit 3, one line naming the query), where Python's
    True == 1 == 1.0 used to let some of them pass and the others fail."""
    code, err = run_doc(small_doc(queries=[query]), tmp_path, capsys)
    assert code == 3
    assert "query 0 (op %r): expect must be %s" % (query["op"], want) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("query,code", [
    ({"op": "proj-dim", "module": "M", "expect": 1}, 0),
    ({"op": "proj-dim", "module": "M", "expect": 2}, 1),
    ({"op": "proj-dim", "module": "M", "expect": "infinity"}, 1),
    ({"op": "depth", "ring": "A", "expect": 1}, 0),
    ({"op": "hochschild", "source": "R", "target": "R", "expect": True}, 0),
    ({"op": "hochschild", "source": "R", "target": "R", "expect": False}, 1),
], ids=["dimension-match", "dimension-mismatch", "infinity-mismatch",
        "depth-match", "verdict-match", "verdict-mismatch"])
def test_expect_in_the_op_domain_is_compared(query, code, tmp_path, capsys):
    """A well-typed expect passes when it equals the value and fails
    (exit 1) when it does not."""
    assert run_doc(small_doc(queries=[query]), tmp_path, capsys)[0] == code


def test_expect_comparison_is_type_strict():
    """The comparison itself tells True from 1 and 1.0 from 1, even for an
    expect that reached it without the parse-time domain check."""
    for wrong in (True, 1.0):
        scn = parse_scenario(small_doc())
        scn.queries[0] = dict(scn.queries[0], expect=wrong)
        rep = run_scenario(scn)
        assert rep.results[0].outcome == "fail"
        assert rep.results[0].details["value"] == 1
    assert run_scenario(parse_scenario(small_doc())).exit_code() == 0


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


def test_cli_verify_filter_that_selects_nothing_is_a_usage_error(capsys):
    """A mistyped filter must not report success with every check skipped:
    it exits 3 with one line naming the filter and pointing to explain."""
    assert main(["verify", "--filter", "no-such-check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'no-such-check'" in captured.err and "dgdim explain" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


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


def test_python_dash_m_runs_the_command_line():
    # the child does not inherit pytest's pythonpath, so pass the source tree
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "dgdim", "explain"],
        capture_output=True, env=env, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert check_ids()[0] in done.stdout


def test_cli_explain_unknown_check(capsys):
    assert main(["explain", "nope"]) == 3
    assert "unknown check" in capsys.readouterr().err


def test_cli_rejects_malformed_window():
    with pytest.raises(SystemExit) as exc:
        main(["run", SHIPPED, "--window", "broad"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "args",
    [["run", SHIPPED, "--cutoff", "3"], ["run", SHIPPED, "--seed", "1"],
     ["verify", "--window", "1:2"],
     ["explain", "betti-presentation-independence", "--cutoff", "3"]],
    ids=["run-cutoff", "run-seed", "verify-window", "explain-cutoff"],
)
def test_cli_rejects_flags_a_subcommand_does_not_read(args, capsys):
    """A usage error is bad input (exit 3), not indeterminate (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["Fp:4", "Fp:1", "Fp:x"])
@pytest.mark.parametrize(
    "args",
    [["run", SHIPPED], ["verify", "--filter", "betti"],
     ["explain", "betti-presentation-independence"]],
    ids=["run", "verify", "explain"],
)
def test_cli_rejects_bad_field_tags_up_front(args, tag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--field", tag])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert "--field" in captured.err
    assert captured.out == ""


def test_cli_field_flag_overrides_scenario(capsys):
    assert main(["run", SHIPPED, "--field", "Fp:7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["options"]["field"] == "Fp:7"


def _without_field_tags(doc):
    if isinstance(doc, dict):
        return {k: _without_field_tags(v) for k, v in doc.items() if k != "field"}
    if isinstance(doc, list):
        return [_without_field_tags(v) for v in doc]
    return doc


@pytest.mark.parametrize(
    "args", [["verify", "--seed", "0"], ["run", SHIPPED]], ids=["verify-seed-0", "shipped"]
)
def test_reports_agree_over_both_fields(args, capsys):
    """Every query answer is the same over Q and Fp:32003: the reports
    differ only in their field tags."""
    docs = []
    for field in ("Q", "Fp:32003"):
        assert main(args + ["--field", field, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["options"]["field"] == field
        docs.append(_without_field_tags(doc))
    assert docs[0] == docs[1]


def _cold_memos(monkeypatch):
    """Empty every memo that a verify run fills: the syzygy cache, the
    shared fixture rings (whose own memos go with them) and the corpus
    sweep.  A test that counts work through verify starts here, or
    an earlier run in the same process shrinks what it counts."""
    import dgdim.core.syz as syz_module
    from dgdim import checks, corpus

    monkeypatch.setattr(syz_module, "_syz_cache", {})
    for memo in (corpus.standard_families, checks._fixture_set,
                 checks._designed_false, checks._corpus_sweep):
        memo.cache_clear()


def _count_calls(monkeypatch, fn, counts):
    """Count calls of fn through every loaded dgdim module that binds it."""
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dgdim" or name.startswith("dgdim."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)


def test_verify_work_counts(monkeypatch, capsys):
    """Pinned work of `verify --seed 0` over Q from cold memos.  When each
    bound check swept the corpus itself, each check built its own fixture
    rings and nothing was memoized on a ring, the counts were 323 ideal
    Groebner bases, 354 semifree resolutions and 164 flat-dimension
    queries.  Before each nonzero cohomology group was read off the
    degreewise count of its minimal generators, the run built 586 module
    Groebner bases and 500 minimal presentations.  Before the Bass numbers'
    residue towers stopped at their window, with no termination scan below
    the floor, it built 343 module Groebner bases.  Before the Hochschild
    tables were read off the diagonal's resolution base changed to E/I and
    its dual, in place of Hom and tensor into E/I presented by its
    relations, the run built 28 ideal Groebner bases (the two rings E/I
    add one each), 30 minimal presentations and 341 module Groebner
    bases.  Before the queries on modules with free generators ran on the
    regular-element model of the two Koszul fixtures, it built 30 ideal
    Groebner bases (the model's base rings, quotients by x, add three; the
    test quotients of H^0, fewer on the model, save two) and 333 module
    Groebner bases.  Before flat_dim took Tor against the residue field
    alone, in place of every variable-subset quotient of H^0, it built 31
    ideal Groebner bases and 279 module Groebner bases.  Before flat_dim
    read the pruned minimal complex of proj_dim, and the corpus sweep
    stopped comparing the two, it built 30 ideal Groebner bases (the
    residue quotients k of the base change add three), 220 semifree
    resolutions and 226 module Groebner bases over 82 flat_dim calls.
    Before the Bass numbers' residue towers were windowed at
    mslot - scan_hi, two stages shallower, it built 223 module Groebner
    bases.  Before the Hochschild check resolved the diagonal on the
    semifree tower, in place of the iterated-syzygy resolution of a
    module, it built 219 module Groebner bases and 25 minimal
    presentations."""
    import dgdim.core.syz as syz_module
    from dgdim.core.module import minimal_presentation
    from dgdim.core.ring import groebner_basis
    from dgdim.dg.tower import semifree_resolution
    from dgdim.dimensions import flat_dim

    _cold_memos(monkeypatch)
    counts = {"groebner_basis": 0, "semifree_resolution": 0, "flat_dim": 0,
              "minimal_presentation": 0, "module GBs": 0}
    for fn in (groebner_basis, semifree_resolution, flat_dim, minimal_presentation):
        _count_calls(monkeypatch, fn, counts)
    inner_gb = syz_module.ModuleGB.__init__

    def counted_gb(self, *args, **kwargs):
        counts["module GBs"] += 1
        inner_gb(self, *args, **kwargs)

    monkeypatch.setattr(syz_module.ModuleGB, "__init__", counted_gb)
    assert main(["verify", "--seed", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    assert counts == {
        "groebner_basis": 27,
        "semifree_resolution": 154,
        "flat_dim": 0,
        "minimal_presentation": 22,
        "module GBs": 221,
    }


@pytest.mark.parametrize(
    "filter_, check_id",
    [("depth-sensitive", "depth-sensitive-projdim-bound"),
     ("global-projdim", "global-projdim-bound")],
)
def test_filtered_bound_check_matches_the_full_suite(
    monkeypatch, capsys, filter_, check_id
):
    """Each bound check, run alone from cold memos, computes the corpus
    sweep itself and reports exactly what it reports in the full suite."""
    _cold_memos(monkeypatch)
    assert main(["verify", "--seed", "0", "--format", "json"]) == 0
    full = json.loads(capsys.readouterr().out)["results"]
    _cold_memos(monkeypatch)
    assert main(["verify", "--seed", "0", "--filter", filter_,
                 "--format", "json"]) == 0
    ran = [r for r in json.loads(capsys.readouterr().out)["results"]
           if r["outcome"] != "skipped"]
    assert [r["id"] for r in ran] == [check_id]
    assert ran == [r for r in full if r["id"] == check_id]


def test_verify_builds_matrices_from_normal_forms_only(monkeypatch, capsys):
    # GradedMatrix(..., normalize=False) stores its sparse columns as given,
    # so every trusted construction must hand it nonzero normal forms on
    # rows of the target; cold memos make every caller run
    from dgdim.core import GradedMatrix

    inner = GradedMatrix.__init__
    calls = [0]

    def checked(self, target, source, cols, normalize=True):
        inner(self, target, source, cols, normalize)
        if normalize:
            return
        ring = target.ring
        for col in self.cols:
            for i, e in col.items():
                assert 0 <= i < target.rank, "row %d outside the target" % i
                assert e, "a zero entry is stored"
                assert ring.normal_form(e) == e, "entry %s is not a normal form" % e
        calls[0] += 1

    _cold_memos(monkeypatch)
    monkeypatch.setattr(GradedMatrix, "__init__", checked)
    assert main(["verify", "--seed", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    assert calls[0] > 0
