"""End-to-end CLI behavior: schema, exit codes, determinism, fixtures."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from padicext import cli, ramify
from padicext.action import constituents
from padicext.arith import OUTPUT_DIGIT_CAP
from padicext.census import ExtensionParams, census_by_group
from padicext.errors import CapacityError
from padicext.ramify import WildInputs, discriminant_report, jump_schedule
from test_ramify import jump_schedule_reference

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


def test_csv_columns(capsys):
    proc = run_cli("count", "--p", "2", "--ell", "3", "--eK", "1",
                   "--fK", "1", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "params,label,count"
    assert "p=2;ell=3;eK=1;fK=1,C(7),2" in lines
    # a nonabelian label holds a comma, so its cell is quoted
    assert cli.main(["oracle", "--p", "3", "--ell", "2", "--eK", "1",
                     "--fK", "1", "--format", "csv"]) == 0
    for out in (proc.stdout, capsys.readouterr().out):
        rows = list(csv.reader(out.splitlines()))
        assert all(len(row) == 3 for row in rows), rows
        assert any(row[1].startswith("NA(") for row in rows)


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


@pytest.mark.parametrize("fixture", [
    [1, 2],  # top level not an object
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 16,
                  "by_group": [{"count": 2}]}]},  # an entry without label
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 16,
                  "by_group": 5}]},  # by_group not a list
    # int() would truncate 2.7 and 16.9 and 2.5, and read True as 1
    {"records": [{"p": 2.7, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 16}]},
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 16.9}]},
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": 1, "expected_total": 16,
                  "by_group": [{"label": "C(7)", "count": 2.5}]}]},
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": True, "expected_total": 16}]},
    {"records": [{"p": 2, "ell": 3, "e_K": 1, "f_K": 1,
                  "expected_total": "16.9"}]},
], ids=["top-level-list", "entry-without-label", "by-group-not-a-list",
        "float-p", "float-total", "float-count", "bool-fK", "fraction-string"])
def test_crosscheck_malformed_fixture_is_a_usage_error(tmp_path, fixture):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(fixture))
    proc = run_cli("crosscheck", "--fixture", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_crosscheck_fixture_not_utf8_is_a_usage_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")  # a UTF-16 byte order mark
    proc = run_cli("crosscheck", "--fixture", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read fixture: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_crosscheck_accepts_decimal_strings(tmp_path):
    # the envelopes write integers as decimal strings
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({"records": [
        {"p": "2", "ell": "3", "e_K": "1", "f_K": "1", "expected_total": "16",
         "by_group": [{"label": "C(7)", "count": "2"},
                      {"label": "NA(7,split)", "count": "14"}]}]}))
    proc, doc = run_json("crosscheck", "--fixture", str(path))
    assert proc.returncode == 0 and doc["result"]["all_match"] is True


def test_usage_errors_exit_one():
    assert run_cli("count", "--p", "4", "--ell", "3", "--eK", "1",
                   "--fK", "1").returncode == 1
    assert run_cli("count", "--p", "2", "--ell", "3").returncode == 1
    assert run_cli("count", "--p", "2", "--ell", "3", "--eK", "1",
                   "--fK", "1", "--bogus-flag").returncode == 1
    assert run_cli("count", "--p", "3", "--ell", "3", "--eK", "1",
                   "--fK", "1").returncode == 1


def test_closed_pipe_exits_one_without_traceback():
    # 133 KB of JSON, more than a pipe buffer holds, so the writer meets
    # the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "padicext.cli", "module", "--p", "5", "--ell",
         "2", "--eK", "1", "--fK", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    assert proc.stdout.read(100).startswith(b'{\n  "command": "module"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err, err


@pytest.mark.parametrize("flag,value,command", [
    ("--seed-parallelism", "-3", "oracle"), ("--seed-parallelism", "0", "oracle"),
    ("--level-cap", "-5", "oracle"),
    ("--seed-parallelism", "-3", "selftest"),
    ("--seed-parallelism", "0", "selftest"),
    ("--seed-parallelism", "-3", "audit"), ("--seed-parallelism", "0", "audit")])
def test_nonsensical_counts_are_usage_errors(flag, value, command):
    proc = run_cli(command, "--p", "2", "--ell", "3", "--eK", "1", "--fK", "1",
                   flag, value)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("error:") and flag in line and value in line]


# one value per settable flag, and the flags each command declares: the
# point flags and --format everywhere, then its own groups
FLAG_VALUES = {"--p": "2", "--ell": "3", "--eK": "1", "--fK": "1",
               "--format": "csv", "--allow-p-eq-ell": None, "--e-rel": "4",
               "--f-rel": "2", "--seed-parallelism": "2", "--level-cap": "5",
               "--fixture": str(FIXTURE)}
POINT = ("--p", "--ell", "--eK", "--fK", "--format")
AUX = ("--e-rel", "--f-rel")
DECLARED = {
    "count": POINT + ("--allow-p-eq-ell",),
    "groups": POINT + ("--allow-p-eq-ell",),
    "module": POINT + AUX,
    "oracle": POINT + AUX + ("--seed-parallelism", "--level-cap"),
    "ramify": POINT + AUX,
    "audit": POINT + AUX + ("--seed-parallelism",),
    "selftest": POINT + ("--seed-parallelism",),
    "crosscheck": POINT + ("--allow-p-eq-ell", "--fixture"),
}


def test_each_command_accepts_exactly_the_flags_it_declares(monkeypatch,
                                                            capsys):
    received = []

    def handler(args):
        received.append(vars(args))
        return {}, None, cli.EXIT_OK

    for command in DECLARED:
        monkeypatch.setattr(cli, f"_cmd_{command}", handler)
    accepted = 0
    for command, declared in DECLARED.items():
        required = ["--fixture", str(FIXTURE)] if command == "crosscheck" else []
        for flag, value in FLAG_VALUES.items():
            argv = [command, *required, flag, *([value] if value else [])]
            received.clear()
            code = cli.main(argv)
            out, err = capsys.readouterr()
            if flag in declared:
                accepted += 1
                assert code == 0, (argv, err)
                dest = flag.lstrip("-").replace("-", "_")
                expected = (True if value is None else
                            int(value) if value.isdigit() else value)
                assert received[0][dest] == expected, argv
            else:
                assert code == 1, argv
                assert out == "" and not received, argv
                assert f"unrecognized arguments: {flag}" in err, err
                # the usage shown is the command's own, listing its flags
                assert err.startswith(f"usage: padicext {command} "), err
                assert "Traceback" not in err
        cli.main([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
        assert listed - {"--help"} == set(declared), command
    assert accepted == 56


def test_module_refuses_the_span_cap_before_building_constituents(
        monkeypatch, capsys):
    calls = []

    def counting(i, aux):
        calls.append(i)
        return constituents(i, aux)

    monkeypatch.setattr(cli, "constituents", counting)
    # e_F = 7 * 15000 = 105000, over SPAN_PROFILE_CAP = 10^5
    code = cli.main(["module", "--p", "2", "--ell", "3", "--eK", "15000",
                     "--fK", "1"])
    assert code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "SPAN_PROFILE_CAP = 100000" in err and "e_F = 105000" in err


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


def test_count_past_the_digit_cap_is_a_usage_error():
    proc = run_cli("count", "--p", "2", "--ell", "3", "--eK", "20000",
                   "--fK", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "OUTPUT_DIGIT_CAP" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ramify_builds_each_jump_schedule_once(monkeypatch, capsys):
    calls = []

    def counting(inputs):
        calls.append(inputs)
        return jump_schedule(inputs)

    # patched wherever the name is looked up
    monkeypatch.setattr(ramify, "jump_schedule", counting)
    monkeypatch.setattr(cli, "jump_schedule", counting, raising=False)
    assert cli.main(["ramify", "--p", "2", "--ell", "3", "--eK", "1",
                     "--fK", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 2  # at_params and synthetic_example


# --- OUTPUT_DIGIT_CAP at its boundary -------------------------------------

# An accepted input prints every number; a refused one must have built a
# number of at least 3/4 of the cap's digits, so the bound is not far off.
CAP_FLOOR = 10 ** (3 * OUTPUT_DIGIT_CAP // 4)
# 10^5 * log10(p), rounded down
DIGITS_PER_P = {2: 30102, 3: 47712, 5: 69897, 7: 84509}
# f_F for each p that puts p^(e_F f_F) at the cap near e_F = 120; the bound
# starts refusing between 3/4 of that e_F and all of it
WALK_F = {2: 119, 3: 75, 5: 51, 7: 42}
WALK_E = range(88, 126)


def _walk(k_cap: int) -> range:
    """From 7/10 to 21/20 of k_cap, in steps of k_cap/50."""
    return range(k_cap * 7 // 10, k_cap * 21 // 20, max(1, k_cap // 50))


def _ramify_walks(p: int):
    """Families of inputs that cross the cap, each as a list."""
    f = WALK_F[p]
    # d = (e-1) f, the largest unflagged wild dimension, so that every
    # number of the block is printed
    yield [WildInputs(p=p, d=(e - 1) * f, e_f=e, f_f=f, e_rel=e, f_rel=f)
           for e in WALK_E]
    if p > 2:
        # at e_F = 1 the closed form's reduced denominator
        # (p^((p-1) f) - 1)/(p^f - 1) carries its size
        f_cap = OUTPUT_DIGIT_CAP * 10 ** 5 // ((p - 1) * DIGITS_PER_P[p])
        yield [WildInputs(p=p, d=f, e_f=1, f_f=f, e_rel=1, f_rel=f)
               for f in _walk(f_cap)]


def _uncapped_report(monkeypatch, inputs):
    with monkeypatch.context() as m:
        m.setattr(ramify, "check_output_digits", lambda *args: None)
        return discriminant_report(inputs)


def _largest_printed(rep) -> int:
    nums = [abs(rep.alpha_closed.numerator), rep.alpha_closed.denominator,
            rep.profile.t[-1]]
    if not rep.profile.flagged:
        nums += [rep.different_valuation, rep.alpha_direct]
    return max(nums)


@pytest.mark.parametrize("p", sorted(WALK_F))
def test_ramify_block_digit_cap_boundary(p, monkeypatch):
    for family in _ramify_walks(p):
        seen = set()
        for inputs in family:
            block = cli._ramify_block(inputs)
            if "skipped" in block:
                assert "OUTPUT_DIGIT_CAP" in block["skipped"]
                rep = _uncapped_report(monkeypatch, inputs)
                assert _largest_printed(rep) >= CAP_FLOOR, inputs
                seen.add("refused")
            else:
                json.dumps(cli._jsonable(block))
                seen.add("accepted")
        assert seen == {"accepted", "refused"}, family[0]


@pytest.mark.parametrize("p", sorted(WALK_F))
def test_jump_schedule_digit_cap_boundary(p):
    f = WALK_F[p]
    seen = set()
    for e in WALK_E:
        # a flagged d leaves t(e_F - 1) the largest number
        for d in ((e - 1) * f, f * e // 2):
            inputs = WildInputs(p=p, d=d, e_f=e, f_f=f, e_rel=e, f_rel=f)
            try:
                prof = jump_schedule(inputs)
            except CapacityError as exc:
                assert "OUTPUT_DIGIT_CAP" in str(exc)
                t_last = jump_schedule_reference(p, e, f)[-1]
                assert max(t_last, p ** d) >= CAP_FLOOR, (p, e, d)
                seen.add("refused")
                continue
            json.dumps(cli._jsonable(list(prof.t)))
            if not prof.flagged:
                json.dumps(cli._jsonable(ramify.different_valuation(prof)))
            seen.add("accepted")
    assert seen == {"accepted", "refused"}


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 2), (5, 3), (7, 3)])
def test_census_digit_cap_boundary(p, ell):
    # n_K where p^(ell n_K) has OUTPUT_DIGIT_CAP digits
    n_cap = OUTPUT_DIGIT_CAP * 10 ** 5 // (ell * DIGITS_PER_P[p])
    seen = set()
    for e_k in _walk(n_cap):
        params = ExtensionParams(p, ell, e_k, 1)
        try:
            report = census_by_group(params)
        except CapacityError as exc:
            assert "OUTPUT_DIGIT_CAP" in str(exc)
            assert p ** (ell * e_k) >= CAP_FLOOR, (p, ell, e_k)
            seen.add("refused")
            continue
        json.dumps(cli._jsonable(cli._census_block(report)))
        seen.add("accepted")
    assert seen == {"accepted", "refused"}


# --- no traceback at any benchmark CLI point --------------------------------

# the parameter points of the benchmark's cli-closed-forms workload
BENCH_CLI_POINTS = ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 1, 3), (5, 2, 1, 2),
                    (5, 3, 1, 1), (3, 5, 1, 1), (2, 7, 1, 1), (7, 3, 1, 1))
# where the discriminant block's numbers are past OUTPUT_DIGIT_CAP digits
CAPPED_POINTS = BENCH_CLI_POINTS[4:]


@pytest.mark.parametrize("command", ["count", "module", "ramify", "audit"])
def test_no_traceback_at_benchmark_cli_points(command, capsys):
    for point in BENCH_CLI_POINTS:
        argv = [command]
        for flag, value in zip(("--p", "--ell", "--eK", "--fK"), point):
            argv += [flag, str(value)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        if point not in CAPPED_POINTS:
            continue
        if command == "ramify":
            assert code == 0
            at_params = doc["result"]["at_params"]
        elif command == "audit":
            assert code == 2
            item, = (it for it in doc["audit"]["items"]
                     if it["name"] == "discriminant_two_routes")
            at_params = item["detail"]["at_params"]
        else:
            continue
        assert "OUTPUT_DIGIT_CAP" in at_params["skipped"], argv
