"""One pass in a fresh interpreter.

    python3 perfbench/passrun.py pass REQUEST_JSON
        Run the in-process operations of REQUEST_JSON
        ({"ops": [...], "trace": bool, "parallelism": int or null}) and
        print one JSON line: per-operation seconds and output summary (or
        error), and the trace report when traced.

    python3 perfbench/passrun.py cli TRACE_OUT ARG...
        Run ``padicext.cli.main(ARG...)`` under the tracer, as
        ``python -m padicext.cli ARG...`` would, and write the trace report to
        TRACE_OUT.

A fresh process per pass keeps the caches of one pass (``make_field``'s
``lru_cache``, ``FieldCtx`` order memos) from warming the next, as a CLI
user never gets them warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
from workloads import CATALOG_CLOSURE_CAP  # noqa: E402


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _oracle(op, parallelism):
    from padicext.census import ExtensionParams
    from padicext.oracle import oracle_census
    p, ell, ek, fk, level_cap, par = op[1:]
    res = oracle_census(ExtensionParams(p, ell, ek, fk), level_cap=level_cap,
                        parallelism=parallelism or par)
    return {
        "total": res.report.total,
        "closed_total": res.closed_form.total,
        "matches_closed_form": res.matches_closed_form,
        "by_group": {e.label: e.count for e in res.report.by_group},
        "verified_exhaustively": [c.verified_exhaustively for c in res.classes],
        "level_found": [[r.level, r.found, r.expected] for r in res.level_exhaustive],
        "classes_digest": _digest(res.classes),
    }


def _level(op, parallelism):
    from padicext.action import default_aux_data
    from padicext.census import ExtensionParams
    from padicext.oracle import (LevelRealization,
                                 enumerate_irreducible_submodules)
    p, ell, ek, fk, level, cap, par = op[1:]
    params = ExtensionParams(p, ell, ek, fk)
    real = LevelRealization(params, default_aux_data(params))
    subs = enumerate_irreducible_submodules(real.level_module(level), ell,
                                            cap=cap, parallelism=parallelism or par)
    return {"found": len(subs), "digest": _digest(subs)}


def _catalog(op, parallelism):
    from padicext.census import ExtensionParams
    from padicext.groups import catalog
    entries = catalog(ExtensionParams(*op[1:]), closure_cap=CATALOG_CLOSURE_CAP)
    computed = [e for e in entries if e.matrix_order is not None]
    return {
        "entries": len(entries),
        "closure_checked": sum(1 for e in entries
                               if e.expected_matrix_order <= CATALOG_CLOSURE_CAP),
        "orders_match": all(e.matrix_order == e.expected_matrix_order
                            for e in computed),
        "computed_orders": len(computed),
        "digest": _digest([(e.descriptor.label, e.alpha, e.beta, e.matrix_order,
                            e.expected_matrix_order) for e in entries]),
    }


RUNNERS = {"oracle": _oracle, "level": _level, "catalog": _catalog}


def run_pass(request: dict) -> dict:
    import padicext.cli  # noqa: F401  (import cost lands outside the op timings)
    tracer = None
    if request.get("trace"):
        tracer = Tracer()
        tracer.install()
    results = []
    for op in request["ops"]:
        t0 = time.perf_counter()
        try:
            summary = RUNNERS[op[0]](op, request.get("parallelism"))
            results.append({"s": time.perf_counter() - t0, "summary": summary})
        except Exception:  # a failed operation is reported, not fatal
            results.append({"s": time.perf_counter() - t0,
                            "error": traceback.format_exc()})
    out = {"ops": results}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
    return out


def run_cli(trace_out: str, argv: list) -> int:
    import padicext.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = padicext.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


def main(argv: list) -> int:
    if len(argv) >= 2 and argv[0] == "pass":
        print(json.dumps(run_pass(json.loads(argv[1])), default=str))
        return 0
    if len(argv) >= 2 and argv[0] == "cli":
        return run_cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
