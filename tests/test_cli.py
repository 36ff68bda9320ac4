"""End-to-end CLI behavior: schema, exit codes, determinism, fixtures."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "padicext" / "schema.json").read_text())
FIXTURE = ROOT / "fixtures" / "small_grid.json"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "padicext.cli", *args],
                          capture_output=True, text=True, cwd=ROOT)


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    return proc, doc


def test_count_json_contract():
    proc, doc = run_json("count", "--p", "2", "--ell", "3",
                         "--eK", "1", "--fK", "1")
    assert proc.returncode == 0
    assert doc["result"]["total"] == "16"
    labels = {e["label"]: e["count"] for e in doc["result"]["by_group"]}
    assert labels == {"C(7)": "2", "NA(7,split)": "14"}
    # integers are serialized as decimal strings
    assert isinstance(doc["result"]["total"], str)


def test_all_commands_validate_against_schema():
    for args in (("count",), ("groups",), ("module",), ("oracle",),
                 ("ramify",), ("audit",)):
        proc, _ = run_json(*args, "--p", "3", "--ell", "2",
                           "--eK", "1", "--fK", "1")
        assert proc.returncode in (0, 2), (args, proc.stderr)


def test_oracle_matches_closed_form_exit_zero():
    proc, doc = run_json("oracle", "--p", "3", "--ell", "2",
                         "--eK", "1", "--fK", "1")
    assert proc.returncode == 0
    assert doc["result"]["matches_closed_form"] is True
    assert doc["result"]["oracle"]["total"] == "30"


def test_audit_exit_two_with_disagreements_array():
    proc, doc = run_json("audit", "--p", "2", "--ell", "3",
                         "--eK", "1", "--fK", "1")
    assert proc.returncode == 2
    assert "disagreements" in doc and doc["disagreements"]
    names = {it["name"]: it["verdict"] for it in doc["audit"]["items"]}
    assert names["span_vs_uniform_drops"] == "disagree"
    assert names["pair_count_vs_product"] == "disagree"


def test_byte_identical_output_across_runs_and_parallelism():
    base = run_cli("oracle", "--p", "3", "--ell", "2", "--eK", "1",
                   "--fK", "1", "--seed-parallelism", "1")
    for n in ("1", "3", "8"):
        again = run_cli("oracle", "--p", "3", "--ell", "2", "--eK", "1",
                        "--fK", "1", "--seed-parallelism", n)
        assert again.stdout == base.stdout
    audit1 = run_cli("audit", "--p", "2", "--ell", "3", "--eK", "1", "--fK", "1")
    audit2 = run_cli("audit", "--p", "2", "--ell", "3", "--eK", "1", "--fK", "1")
    assert audit1.stdout == audit2.stdout


def test_csv_columns():
    proc = run_cli("count", "--p", "2", "--ell", "3", "--eK", "1",
                   "--fK", "1", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "params,label,count"
    assert "p=2;ell=3;eK=1;fK=1,C(7),2" in lines


def test_crosscheck_fixture_matches():
    proc, doc = run_json("crosscheck", "--fixture", str(FIXTURE))
    assert proc.returncode == 0
    assert doc["result"]["all_match"] is True
    assert len(doc["result"]["records"]) == 4


def test_crosscheck_filter():
    proc, doc = run_json("crosscheck", "--fixture", str(FIXTURE),
                         "--p", "3", "--ell", "2")
    assert proc.returncode == 0
    assert len(doc["result"]["records"]) == 1


def test_crosscheck_mismatch_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"records": [
        {"p": 2, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 17,
         "source": "deliberately wrong"}]}))
    proc, doc = run_json("crosscheck", "--fixture", str(bad))
    assert proc.returncode != 0
    rec = doc["result"]["records"][0]
    assert rec["total"] == {"expected": "17", "got": "16", "match": False}


def test_crosscheck_parse_error_reports_position(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"records": [,]}')
    proc = run_cli("crosscheck", "--fixture", str(broken))
    assert proc.returncode == 1
    assert "line" in proc.stderr and "column" in proc.stderr


def test_crosscheck_empty_filter_is_an_error(tmp_path):
    proc = run_cli("crosscheck", "--fixture", str(FIXTURE), "--p", "13")
    assert proc.returncode == 1
    assert "no records" in proc.stderr


def test_usage_errors_exit_one():
    assert run_cli("count", "--p", "4", "--ell", "3", "--eK", "1",
                   "--fK", "1").returncode == 1
    assert run_cli("count", "--p", "2", "--ell", "3").returncode == 1
    assert run_cli("count", "--p", "2", "--ell", "3", "--eK", "1",
                   "--fK", "1", "--bogus-flag").returncode == 1
    assert run_cli("count", "--p", "3", "--ell", "3", "--eK", "1",
                   "--fK", "1").returncode == 1


def test_p_equals_ell_flag():
    proc, doc = run_json("count", "--p", "3", "--ell", "3", "--eK", "1",
                         "--fK", "1", "--allow-p-eq-ell")
    assert proc.returncode == 0
    assert doc["result"]["total"] == "224"


def test_aux_override_flags():
    proc, doc = run_json("module", "--p", "2", "--ell", "3", "--eK", "1",
                         "--fK", "1", "--e-rel", "7", "--f-rel", "21")
    assert proc.returncode == 0
    assert doc["finv"]["source"] == "user_override"
    proc2 = run_cli("module", "--p", "2", "--ell", "3", "--eK", "1",
                    "--fK", "1", "--e-rel", "7")
    assert proc2.returncode == 1


def test_module_report_contents():
    _, doc = run_json("module", "--p", "2", "--ell", "3", "--eK", "1",
                      "--fK", "1")
    res = doc["result"]
    assert res["levels"] == ["1", "3", "5", "7", "9", "11", "13"]
    assert res["span_profile"]["total"] == "24"
    assert res["span_profile"]["matches_degree_exponent"] is True
    assert "uniformizer_line" in res["annotations"]
    assert "top_unit_line" in res["annotations"]


def test_ramify_report_contents():
    _, doc = run_json("ramify", "--p", "3", "--ell", "2", "--eK", "1",
                      "--fK", "1")
    synth = doc["result"]["synthetic_example"]
    assert synth["schedule_t"] == ["0", "1", "4"]
    assert synth["discriminant"]["alpha_closed"] == "39"
    assert synth["discriminant"]["alpha_direct"] == "31"
    assert synth["discriminant"]["agree"] is False


def test_nonpositive_relative_invariants_are_usage_errors():
    for command in ("module", "ramify", "audit", "oracle"):
        for e_rel, f_rel in (("-1", "1"), ("-7", "-3")):
            proc = run_cli(command, "--p", "2", "--ell", "3", "--eK", "1",
                           "--fK", "1", "--e-rel", e_rel, "--f-rel", f_rel)
            assert proc.returncode == 1, (command, e_rel, f_rel)
            assert proc.stderr.startswith("error:"), proc.stderr
            assert f"e_rel = {e_rel}, f_rel = {f_rel}" in proc.stderr
            assert "Traceback" not in proc.stderr
