"""Golden CLI outputs: stdout bytes and exit codes on a fixed grid.

Each case runs ``python -m padicext.cli ARGS`` and compares its stdout,
byte for byte, and its exit code with the snapshot in tests/golden/.
Re-recording is for a deliberate output change only:

    PYTHONPATH=src python tests/test_golden.py record
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
POINTS = ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 1, 3), (5, 2, 1, 2))
COMMANDS = ("count", "groups", "module", "ramify", "audit", "oracle")


def _flags(p, ell, ek, fk):
    return ["--p", str(p), "--ell", str(ell), "--eK", str(ek), "--fK", str(fk)]


def _cases():
    cases = {}
    for point in POINTS:
        for command in COMMANDS:
            name = f"{command}_{'_'.join(map(str, point))}_json"
            cases[name] = [command, *_flags(*point), "--format", "json"]
    cases["count_5_2_1_2_csv"] = ["count", *_flags(5, 2, 1, 2),
                                  "--format", "csv"]
    cases["groups_3_2_1_1_plain"] = ["groups", *_flags(3, 2, 1, 1),
                                     "--format", "plain"]
    cases["audit_2_3_1_1_plain"] = ["audit", *_flags(2, 3, 1, 1),
                                    "--format", "plain"]
    cases["oracle_3_2_1_1_csv"] = ["oracle", *_flags(3, 2, 1, 1),
                                   "--format", "csv"]
    cases["ramify_3_2_1_1_erel4_frel2"] = ["ramify", *_flags(3, 2, 1, 1),
                                          "--e-rel", "4", "--f-rel", "2"]
    cases["crosscheck_small_grid"] = ["crosscheck", "--fixture",
                                      "fixtures/small_grid.json"]
    cases["selftest_2_3_1_1"] = ["selftest", *_flags(2, 3, 1, 1)]
    return cases


CASES = _cases()


def _run(args):
    proc = subprocess.run([sys.executable, "-m", "padicext.cli", *args],
                          capture_output=True, cwd=ROOT)
    return proc.stdout, proc.returncode


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    stdout, code = _run(CASES[name])
    assert code == _exit_codes()[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_golden_files_cover_exactly_the_grid():
    assert sorted(_exit_codes()) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, args in sorted(CASES.items()):
        stdout, codes[name] = _run(args)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit(__doc__)
    record()
