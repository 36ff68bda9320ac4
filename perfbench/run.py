"""Benchmark harness for padicext.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a padicext checkout; it needs nothing but the
checkout and the Python that runs it.  Workloads are defined, with the
reason for each, in workloads.py.  Each is closed-loop from one process: one
operation at a time, each output checked against expected.json.

--trace 0: run whole passes, each in a fresh interpreter, while the next is
expected to end within S seconds of pass time, with fresh
``python -m padicext.cli --version`` launches (the set-up time) before and
between them; report the median over passes of each end-to-end metric, the
median set-up time and the tail of the per-operation latencies.

--trace 1: run one untraced pass, one pass at parallelism 1 when the
workload uses more, and one traced pass (tracer.py); report the per-layer
metrics.

The last line of stdout is the result object.  The lines before it give
the run's context (git sha, source digest, cores, Python, load average,
seed), each pass, every failed operation by name, and either the median,
quartiles and sample count of each end-to-end metric or the merged trace
(spans, and kernels per enclosing span).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import merge_reports  # noqa: E402
from workloads import (WORKLOADS, is_known_defect, op_name,  # noqa: E402
                       pass_operations)

SETUP_LAUNCHES = 3  # before the first pass and after each pass
CHILD_TIMEOUT_S = 150
EXPECTED_PATH = HERE / "expected.json"
DEFECT_SIGNATURE = b"Exceeds the limit (4300 digits) for integer string conversion"
REQUIRED_FILES = ("src/padicext/cli.py", "src/padicext/schema.json",
                  "fixtures/small_grid.json")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("op_tail_s", "s"))


@dataclass
class Child:
    """Outcome of one finished child process."""

    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, root: Path, workdir: str,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run argv to completion; wall time, CPU (user+sys) and peak RSS come
    from the kernel's accounting of this one child."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        lock = threading.Lock()
        exited = []

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the pid stays ours until the timer is off
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited.append(True)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fo, open(err_path, "rb") as fe:
        stdout, stderr = fo.read(), fe.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, stdout, stderr)


# ---------------------------------------------------------------------------
# statistics

def tail(values) -> float:
    """The value at the highest percentile with at least ten samples above
    it; the largest value when there are fewer than eleven samples."""
    xs = sorted(values)
    return xs[len(xs) - 11] if len(xs) >= 11 else xs[-1]


# ---------------------------------------------------------------------------
# output checks

def check_inproc(op: list, result: dict, expected: dict) -> str | None:
    """Why an in-process operation failed, or None when its output is right."""
    if "error" in result:
        return "raised " + result["error"].strip().splitlines()[-1]
    summary = result["summary"]
    if op[0] == "oracle" and summary["matches_closed_form"] is not True:
        return "oracle census disagrees with the closed forms"
    if op[0] == "catalog" and summary["orders_match"] is not True:
        return "a closure order differs from expected_matrix_order"
    want = expected.get(op_name(op))
    if want is None:
        return "no expected output recorded"
    if summary != want:
        diff = sorted(k for k in set(summary) | set(want)
                      if summary.get(k) != want.get(k))
        return "output differs from the recorded one in " + ", ".join(diff)
    return None


def is_json_output(op: list) -> bool:
    return "--format" not in op or op[op.index("--format") + 1] == "json"


class CliChecker:
    """Checks CLI invocations; validates each distinct stdout once."""

    def __init__(self, root: Path, expected: dict) -> None:
        import jsonschema
        schema = json.loads((root / "src/padicext/schema.json").read_text())
        self._validator = jsonschema.Draft7Validator(schema)
        self._expected = expected
        self._valid: dict = {}

    def schema_ok(self, stdout: bytes) -> bool:
        key = hashlib.sha256(stdout).hexdigest()
        if key not in self._valid:
            try:
                doc = json.loads(stdout)
            except ValueError:
                self._valid[key] = False
            else:
                self._valid[key] = self._validator.is_valid(doc)
        return self._valid[key]

    def check(self, op: list, code: int, stdout: bytes, stderr: bytes):
        """("ok" | "defect" | "failed", reason)."""
        known = is_known_defect(op)
        if known and code == 1 and DEFECT_SIGNATURE in stderr:
            return "defect", "int-to-str 4300-digit limit (known defect)"
        if code not in (0, 2):
            return "failed", f"exit code {code}"
        if b"Traceback" in stderr:
            return "failed", "traceback on stderr"
        if is_json_output(op) and not self.schema_ok(stdout):
            return "failed", "stdout is not schema-valid JSON"
        if known:
            return "ok", None  # the defect is fixed; no digest was recorded
        want = self._expected.get(op_name(op))
        if want is None:
            return "failed", "no digest recorded"
        if code != want["exit"]:
            return "failed", f"exit code {code}, recorded {want['exit']}"
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return "failed", "stdout differs from the recorded digest"
        return "ok", None


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    """One pass: timings, per-operation outcomes and, if traced, the trace."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # (op, "ok"|"defect"|"failed", reason)
    stdout_bytes: int = 0
    trace: dict | None = None

    def count(self, status: str) -> int:
        return sum(1 for _, s, _ in self.outcomes if s == status)


class Runner:
    def __init__(self, root: Path, workload: str, workdir: str) -> None:
        self.root = root
        self.workload = workload
        self.mode = WORKLOADS[workload]["mode"]
        self.workdir = workdir
        expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected.get(workload, {})
        self.cli = CliChecker(root, self.expected) if self.mode == "cli" else None

    def setup_times(self, launches: int) -> list:
        """Wall times of fresh `python -m padicext.cli --version` launches."""
        walls = []
        for _ in range(launches):
            child = run_child([sys.executable, "-m", "padicext.cli", "--version"],
                              self.root, self.workdir)
            if child.code != 0 or not child.stdout.strip():
                raise RuntimeError("padicext.cli --version failed: "
                                   + child.stderr.decode(errors="replace"))
            walls.append(child.wall)
        return walls

    def run_pass(self, ops: list, trace: bool = False,
                 parallelism: int | None = None) -> Pass:
        if self.mode == "cli":
            return self._cli_pass(ops, trace)
        return self._inproc_pass(ops, trace, parallelism)

    def _inproc_pass(self, ops, trace, parallelism) -> Pass:
        request = {"ops": ops, "trace": trace, "parallelism": parallelism}
        child = run_child([sys.executable, str(HERE / "passrun.py"), "pass",
                           json.dumps(request)], self.root, self.workdir)
        out = Pass()
        out.wall, out.cpu = child.wall, child.cpu
        out.rss_mb = child.maxrss_kb / 1024
        try:
            data = json.loads(child.stdout.decode().strip().splitlines()[-1])
            results = data["ops"]
        except (ValueError, IndexError, KeyError):
            reason = (f"pass process exited {child.code}: "
                      + child.stderr.decode(errors="replace")[-300:])
            out.outcomes = [(op_name(op), "failed", reason) for op in ops]
            out.latencies = [child.wall] * len(ops)  # waited for, got nothing
            return out
        for op, res in zip(ops, results):
            out.latencies.append(res["s"])
            reason = check_inproc(op, res, self.expected)
            out.outcomes.append((op_name(op), "failed" if reason else "ok", reason))
        out.trace = data.get("trace")
        return out

    def _cli_pass(self, ops, trace) -> Pass:
        out = Pass()
        reports = []
        trace_path = os.path.join(self.workdir, "trace.json")
        for op in ops:
            if trace:
                argv = [sys.executable, str(HERE / "passrun.py"), "cli",
                        trace_path] + op[1:]
            else:
                argv = [sys.executable, "-m", "padicext.cli"] + op[1:]
            child = run_child(argv, self.root, self.workdir)
            out.latencies.append(child.wall)
            out.cpu += child.cpu
            out.rss_mb = max(out.rss_mb, child.maxrss_kb / 1024)
            out.stdout_bytes += len(child.stdout)
            status, reason = self.cli.check(op, child.code, child.stdout,
                                            child.stderr)
            out.outcomes.append((op_name(op), status, reason))
            if trace and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    reports.append(json.load(fh))
                os.remove(trace_path)
        out.wall = sum(out.latencies)
        if trace:
            out.trace = merge_reports(reports)
        return out


# ---------------------------------------------------------------------------
# metrics

def op_latencies(passes: list) -> list:
    """Each operation's median latency over the passes."""
    by_op: dict = {}
    for p in passes:
        for (name, _, _), seconds in zip(p.outcomes, p.latencies):
            by_op.setdefault(name, []).append(seconds)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end_samples(passes: list, setup: list) -> dict:
    """Samples of each end-to-end metric: one per pass, one per launch for
    setup_s, and one per operation for op_tail_s."""
    return {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [p.rss_mb for p in passes],
        "op_tail_s": op_latencies(passes),
    }


def describe(values: list) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


PER_LAYER = (
    ("ffield.mul.calls", "count"), ("ffield.mul.self_s", "s"),
    ("ffield.frob.calls", "count"), ("ffield.frob.self_s", "s"),
    ("ffield.pow.calls", "count"),
    ("ffield.fields_built", "count"), ("ffield.build_s", "s"),
    ("ffield.cache_hit_ratio", "ratio"),
    ("arith.factorize.calls", "count"), ("arith.factorize.s", "s"),
    ("linalg.apply.calls", "count"), ("linalg.apply.self_s", "s"),
    ("linalg.reduce.calls", "count"), ("linalg.reduce.self_s", "s"),
    ("linalg.insert.calls", "count"), ("linalg.insert.self_s", "s"),
    ("linalg.canon.calls", "count"), ("linalg.canon.self_s", "s"),
    ("linalg.solve.calls", "count"), ("linalg.kernel.s", "s"),
    ("oracle.seeds_scanned", "count"), ("oracle.enumerate.s", "s"),
    ("oracle.seeds_per_s", "1/s"),
    ("oracle.spin.calls", "count"), ("oracle.spin.self_s", "s"),
    ("oracle.useful_spin_ratio", "ratio"),
    ("oracle.cpu_per_wall", "ratio"), ("oracle.parallel_speedup", "ratio"),
    ("oracle.hom_basis.calls", "count"), ("oracle.hom_basis.s", "s"),
    ("oracle.beta_kernel.s", "s"),
    ("oracle.classify.calls", "count"), ("oracle.classify.s", "s"),
    ("oracle.closure.elements", "count"),
    ("groups.closure.s", "s"), ("groups.closure.elements", "count"),
    ("groups.monomial_mul.calls", "count"),
    ("census.by_group.s", "s"), ("action.span_profile.s", "s"),
    ("ramify.audit.s", "s"), ("ramify.discriminant.s", "s"),
    ("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("cli.p50_s", "s"), ("cli.tail_s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"), ("known_defects", "count"),
)


def layer_metrics(trace: dict, ref: Pass, traced: Pass, speedup: float,
                  attempted: int, failed: int, defects: int, cli: bool) -> dict:
    kernels, spans, counters = trace["kernels"], trace["spans"], trace["counters"]

    def k(name, field):
        return kernels.get(name, {}).get(field, 0)

    def s(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    seeds = counters.get("oracle._scan_range", 0)
    enumerate_s = s("enumerate_irreducible_submodules", "incl_s")
    make_calls = s("make_field", "calls")
    values = {
        "ffield.mul.calls": k("FieldCtx.mul", "calls"),
        "ffield.mul.self_s": k("FieldCtx.mul", "self_s"),
        "ffield.frob.calls": k("FieldCtx.frob", "calls"),
        "ffield.frob.self_s": k("FieldCtx.frob", "self_s"),
        "ffield.pow.calls": k("FieldCtx.pow", "calls"),
        "ffield.fields_built": k("FieldCtx.__init__", "calls"),
        "ffield.build_s": k("FieldCtx.__init__", "incl_s"),
        "ffield.cache_hit_ratio": ratio(make_calls - k("FieldCtx.__init__", "calls"),
                                        make_calls),
        "arith.factorize.calls": k("factorize", "calls"),
        "arith.factorize.s": k("factorize", "incl_s"),
        "linalg.apply.calls": k("VecSpace.apply", "calls"),
        "linalg.apply.self_s": k("VecSpace.apply", "self_s"),
        "linalg.reduce.calls": k("VecSpace.reduce", "calls"),
        "linalg.reduce.self_s": k("VecSpace.reduce", "self_s"),
        "linalg.insert.calls": k("VecSpace.insert", "calls"),
        "linalg.insert.self_s": k("VecSpace.insert", "self_s"),
        "linalg.canon.calls": k("VecSpace.canon", "calls"),
        "linalg.canon.self_s": k("VecSpace.canon", "self_s"),
        "linalg.solve.calls": k("VecSpace.solve", "calls"),
        "linalg.kernel.s": k("VecSpace.kernel", "incl_s"),
        "oracle.seeds_scanned": seeds,
        "oracle.enumerate.s": enumerate_s,
        "oracle.seeds_per_s": ratio(seeds, enumerate_s),
        "oracle.spin.calls": k("spin", "calls"),
        "oracle.spin.self_s": k("spin", "self_s"),
        "oracle.useful_spin_ratio": ratio(
            counters.get("enumerate_irreducible_submodules", 0), k("spin", "calls")),
        "oracle.cpu_per_wall": ratio(ref.cpu, ref.wall),
        "oracle.parallel_speedup": speedup,
        "oracle.hom_basis.calls": s("hom_basis", "calls"),
        "oracle.hom_basis.s": s("hom_basis", "incl_s"),
        "oracle.beta_kernel.s": s("LevelRealization.beta_kernel", "incl_s"),
        "oracle.classify.calls": s("classify_submodule", "calls"),
        "oracle.classify.s": s("classify_submodule", "incl_s"),
        "oracle.closure.elements": counters.get("matrix_group_elements", 0),
        "groups.closure.s": s("groups.closure_elements", "incl_s"),
        "groups.closure.elements": counters.get("groups.closure_elements", 0),
        "groups.monomial_mul.calls": k("MonomialMatrix.mul", "calls"),
        "census.by_group.s": s("census_by_group", "incl_s"),
        "action.span_profile.s": s("span_profile", "incl_s"),
        "ramify.audit.s": s("audit", "incl_s"),
        "ramify.discriminant.s": s("discriminant_report", "incl_s"),
        "cli.main.self_s": s("cli.main", "self_s"),
        "cli.stdout_bytes": traced.stdout_bytes,
        "cli.p50_s": statistics.median(ref.latencies) if cli else 0.0,
        "cli.tail_s": tail(ref.latencies) if cli else 0.0,
        "trace.overhead_s": traced.wall - ref.wall,
        "fail_ratio": ratio(failed + defects, attempted),
        "known_defects": defects,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# runs

def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code under test
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "padicext").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timed_run(runner: Runner, seed: int, seconds: float):
    """Whole passes while the next one is expected to end within `seconds`
    (at least one), with set-up launches before and between them so that a
    slow spell of the machine touches few of the set-up samples."""
    setup = runner.setup_times(SETUP_LAUNCHES)
    passes: list[Pass] = []
    spent = 0.0
    while not passes or spent + spent / len(passes) <= seconds:
        passes.append(runner.run_pass(pass_operations(runner.workload, seed,
                                                      len(passes))))
        spent += passes[-1].wall
        report_pass(len(passes) - 1, passes[-1])
        setup += runner.setup_times(SETUP_LAUNCHES)
    return passes, setup


def traced_run(runner: Runner, seed: int):
    ops = pass_operations(runner.workload, seed, 0)
    ref = runner.run_pass(ops)
    report_pass("untraced", ref)
    passes = [ref]
    speedup = 0.0  # stays 0 on workloads that never run more than one thread
    if any(op[0] in ("oracle", "level") and op[-1] > 1 for op in ops):
        single = runner.run_pass(ops, parallelism=1)
        report_pass("parallelism-1", single)
        passes.append(single)
        speedup = single.wall / ref.wall
    traced = runner.run_pass(ops, trace=True)
    report_pass("traced", traced)
    passes.append(traced)
    return passes, ref, traced, speedup


def report_pass(label, p: Pass) -> None:
    print(json.dumps({"pass": label, "wall_s": p.wall, "cpu_s": p.cpu,
                      "peak_rss_mb": p.rss_mb, "ops": len(p.outcomes),
                      "failed": p.count("failed"), "known_defects": p.count("defect"),
                      "op_s": {name: s for (name, _, _), s in zip(p.outcomes,
                                                                 p.latencies)}}),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    missing = [f for f in REQUIRED_FILES if not (root / f).is_file()]
    if missing:
        print(f"error: not a padicext checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    print(json.dumps({"context": {
        "git_sha": git_sha(root), "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "loadavg": os.getloadavg(),
        "workload": args.workload, "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace}}),
        flush=True)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = Runner(root, args.workload, workdir)
        try:
            if args.trace:
                passes, ref, traced, speedup = traced_run(runner, args.seed)
            else:
                passes, setup = timed_run(runner, args.seed, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for _, s, _ in outcomes if s == "failed")
    defects = sum(1 for _, s, _ in outcomes if s == "defect")
    for name, status, reason in sorted(set(o for o in outcomes if o[1] != "ok")):
        print(f"{'FAILED' if status == 'failed' else 'KNOWN-DEFECT'} {name}: {reason}")
    if args.trace:
        trace = traced.trace or merge_reports([])
        print(json.dumps({"trace": trace}))
        metrics = layer_metrics(trace, ref, traced, speedup, attempted, failed,
                                defects, runner.mode == "cli")
    else:
        samples = end_to_end_samples(passes, setup)
        print(json.dumps({"summary": {n: describe(v) for n, v in samples.items()}}))
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["op_tail_s"] = tail(samples["op_tail_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
