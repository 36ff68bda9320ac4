"""Record the expected outputs that run.py checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are known to be right; it
rewrites the named workloads (default: all) in perfbench/expected.json.
In-process operations store their output summary; CLI invocations store
exit code and stdout sha256.  Known-defect invocations get no entry.  An
output that fails the recording-time sanity checks (exceptions, oracle vs
closed-form disagreement, closure orders, exit codes, schema) aborts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (EXPECTED_PATH, CliChecker, check_inproc,  # noqa: E402
                 is_json_output, run_child)
from workloads import WORKLOADS, is_known_defect, op_name  # noqa: E402


def record(root: Path, workload: str, workdir: str) -> dict:
    ops = WORKLOADS[workload]["ops"]
    out = {}
    if WORKLOADS[workload]["mode"] == "cli":
        checker = CliChecker(root, {})
        for op in ops:
            if is_known_defect(op):
                continue
            child = run_child([sys.executable, "-m", "padicext.cli"] + op[1:],
                              root, workdir)
            if child.code not in (0, 2) or b"Traceback" in child.stderr:
                raise SystemExit(f"{op_name(op)}: exit {child.code}")
            if is_json_output(op) and not checker.schema_ok(child.stdout):
                raise SystemExit(f"{op_name(op)}: stdout is not schema-valid")
            out[op_name(op)] = {"exit": child.code,
                                "sha256": hashlib.sha256(child.stdout).hexdigest()}
        return out
    child = run_child([sys.executable, str(HERE / "passrun.py"), "pass",
                       json.dumps({"ops": ops})], root, workdir)
    results = json.loads(child.stdout.decode().strip().splitlines()[-1])["ops"]
    for op, res in zip(ops, results):
        reason = check_inproc(op, res, {op_name(op): res.get("summary")})
        if reason:
            raise SystemExit(f"{op_name(op)}: {reason}")
        out[op_name(op)] = res["summary"]
    return out


def main(argv: list) -> int:
    root = Path.cwd()
    names = argv or sorted(WORKLOADS)
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        for name in names:
            expected[name] = record(root, name, workdir)
            print(f"recorded {len(expected[name])} outputs of {name}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
