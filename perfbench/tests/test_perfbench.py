"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, merge_reports, self_times  # noqa: E402
from workloads import (WORKLOADS, is_known_defect, op_name,  # noqa: E402
                       pass_operations)

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())


# -- self time -----------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as from
    # two threads) and c [8, 12] (running past the root's end); a has child
    # d [2, 3].
    spans = [
        (0, "root", None, 0.0, 10.0),
        (1, "a", 0, 1.0, 4.0),
        (2, "b", 0, 3.0, 6.0),
        (3, "c", 0, 8.0, 12.0),
        (4, "d", 1, 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)


def test_tracer_counts_kernels_per_thread_and_nests_self_time():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.kernel("leaf", leaf)

    def outer(n):
        return sum(traced_leaf(i) for i in range(n))

    traced_outer = tracer.span("outer", outer, lambda args, result: args[0])
    threads = [threading.Thread(target=traced_outer, args=(1000,))
               for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    rep = tracer.report()
    assert rep["kernels"]["leaf"]["calls"] == 4000
    assert rep["kernels"]["leaf"]["by_parent"]["outer"][0] == 4000
    assert rep["spans"]["outer"]["calls"] == 4
    assert rep["counters"]["outer"] == 4000
    span = rep["spans"]["outer"]
    assert span["self_s"] == pytest.approx(span["incl_s"])  # no child spans
    merged = merge_reports([rep, rep])
    assert merged["kernels"]["leaf"]["calls"] == 8000
    assert merged["spans"]["outer"]["calls"] == 8


def test_tracer_patches_names_where_they_are_looked_up():
    import padicext.ffield as ffield
    import padicext.groups as groups
    import padicext.oracle as oracle
    from padicext.census import ExtensionParams

    originals = (oracle.spin, groups.make_field, ffield.FieldCtx.mul)
    tracer = Tracer()
    tracer.install()
    try:
        assert oracle.spin is not originals[0]
        assert groups.make_field is not originals[1]
        groups.catalog(ExtensionParams(3, 2, 1, 1), closure_cap=10 ** 4)
        oracle.oracle_census(ExtensionParams(3, 2, 1, 1))
    finally:
        tracer.uninstall()
    assert (oracle.spin, groups.make_field, ffield.FieldCtx.mul) == originals
    rep = tracer.report()
    assert rep["spans"]["make_field"]["calls"] > 0
    assert rep["kernels"]["FieldCtx.mul"]["calls"] > 0
    assert rep["kernels"]["spin"]["calls"] > 0
    assert rep["kernels"]["VecSpace.apply"]["calls"] > 0
    assert rep["spans"]["hom_basis"]["calls"] > 0
    assert rep["counters"]["oracle._scan_range"] > 0


# -- operation order -------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_order_and_only_permutes(workload):
    first = pass_operations(workload, 7, 0)
    assert first == pass_operations(workload, 7, 0)
    other = pass_operations(workload, 8, 0)
    assert sorted(map(op_name, other)) == sorted(map(op_name, first))
    assert sorted(map(op_name, first)) == sorted(map(op_name, WORKLOADS[workload]["ops"]))
    if len(first) > 3:
        orders = {tuple(map(op_name, pass_operations(workload, s, 0)))
                  for s in range(5)}
        assert len(orders) > 1


def test_every_checked_operation_has_a_recorded_output():
    for workload, spec in WORKLOADS.items():
        for op in spec["ops"]:
            assert (op_name(op) in EXPECTED[workload]) != is_known_defect(op)


# -- output checks ---------------------------------------------------------------

def _recorded(workload, kind):
    op = next(op for op in WORKLOADS[workload]["ops"] if op[0] == kind)
    return op, EXPECTED[workload][op_name(op)]


def test_right_inproc_output_passes():
    op, summary = _recorded("oracle-odd", "oracle")
    assert run.check_inproc(op, {"s": 1.0, "summary": dict(summary)},
                            EXPECTED["oracle-odd"]) is None


def test_tampered_oracle_total_fails():
    op, summary = _recorded("oracle-odd", "oracle")
    bad = dict(summary, total=summary["total"] + 1)
    assert run.check_inproc(op, {"s": 1.0, "summary": bad},
                            EXPECTED["oracle-odd"]) is not None


def test_closed_form_disagreement_fails_even_if_recorded():
    op, summary = _recorded("oracle-odd", "oracle")
    bad = dict(summary, matches_closed_form=False)
    assert run.check_inproc(op, {"s": 1.0, "summary": bad},
                            {op_name(op): bad}) is not None


def test_tampered_catalog_count_and_exception_fail():
    op, summary = _recorded("catalog-grid", "catalog")
    bad = dict(summary, closure_checked=summary["closure_checked"] - 1)
    assert run.check_inproc(op, {"s": 1.0, "summary": bad},
                            EXPECTED["catalog-grid"]) is not None
    assert run.check_inproc(op, {"s": 1.0, "error": "Traceback\nValueError: x"},
                            EXPECTED["catalog-grid"]) == "raised ValueError: x"


@pytest.fixture(scope="module")
def cli_count_output(tmp_path_factory):
    op = ["cli", "count", "--p", "2", "--ell", "3", "--eK", "1", "--fK", "1"]
    child = run.run_child([sys.executable, "-m", "padicext.cli"] + op[1:], ROOT,
                          str(tmp_path_factory.mktemp("cli")))
    return op, child


def test_cli_output_matches_its_digest(cli_count_output):
    op, child = cli_count_output
    checker = run.CliChecker(ROOT, EXPECTED["cli-closed-forms"])
    assert checker.check(op, child.code, child.stdout, child.stderr) == ("ok", None)
    assert child.wall > 0 and child.cpu > 0 and child.maxrss_kb > 0


def test_cli_altered_stdout_byte_fails(cli_count_output):
    op, child = cli_count_output
    checker = run.CliChecker(ROOT, EXPECTED["cli-closed-forms"])
    altered = child.stdout.replace(b'"16"', b'"17"', 1)
    assert altered != child.stdout
    status, _ = checker.check(op, child.code, altered, child.stderr)
    assert status == "failed"
    status, _ = checker.check(op, 1, child.stdout, b"Traceback ...")
    assert status == "failed"


def test_known_defect_is_counted_apart_and_its_fix_passes():
    op = ["cli", "ramify", "--p", "7", "--ell", "3", "--eK", "1", "--fK", "1"]
    assert is_known_defect(op)
    checker = run.CliChecker(ROOT, EXPECTED["cli-closed-forms"])
    stderr = b"Traceback ...\nValueError: " + run.DEFECT_SIGNATURE
    assert checker.check(op, 1, b"", stderr)[0] == "defect"
    assert checker.check(op, 1, b"", b"Traceback\nKeyError")[0] == "failed"
    doc = {"command": "ramify", "params": {"p": "7", "ell": "3", "e_K": "1",
                                           "f_K": "1"}, "result": {}}
    assert checker.check(op, 0, json.dumps(doc).encode(), b"")[0] == "ok"
    assert checker.check(op, 0, b"{not json", b"")[0] == "failed"


# -- statistics ----------------------------------------------------------------------

def test_tail_leaves_ten_samples_above():
    values = list(range(1, 41))
    assert run.tail(values) == 30
    assert run.tail([3.0, 1.0, 2.0]) == 3.0



def test_describe_gives_median_quartiles_and_count():
    got = run.describe([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["median"], got["n"]) == (3.0, 5)
    assert got["q1"] <= got["median"] <= got["q3"]
    assert run.describe([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_op_latencies_take_each_operations_median_over_passes():
    passes = [run.Pass(outcomes=[("a", "ok", None), ("b", "ok", None)],
                       latencies=[1.0, 10.0]),
              run.Pass(outcomes=[("b", "ok", None), ("a", "ok", None)],
                       latencies=[20.0, 3.0]),
              run.Pass(outcomes=[("a", "ok", None), ("b", "ok", None)],
                       latencies=[2.0, 30.0])]
    assert sorted(run.op_latencies(passes)) == [2.0, 20.0]
