"""Command line surface.

Every report uses one JSON envelope (see schema.json): integers are
serialized as decimal strings so arbitrary-precision counts survive any
consumer, output is byte-identical across runs (and across
--seed-parallelism settings), and exit codes separate usage errors (1)
from documented formula disagreements (2).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .action import (AuxFieldData, constituents, default_aux_data,
                     level_indices, make_aux_data, span_profile)
from .census import CensusReport, ExtensionParams, census_by_group
from .errors import CapacityError, DomainError, InvariantError
from .groups import catalog
from .oracle import oracle_census
from .ramify import (SYNTHETIC_DISC_INPUTS, WildInputs, _disc_detail, audit,
                     discriminant_report, herbrand_convert, jump_schedule)
from . import selftest as selftest_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2


def _jsonable(obj):
    """Recursively convert to JSON types; ints become decimal strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted((_jsonable(v) for v in obj), key=str)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _params_block(params: ExtensionParams) -> dict:
    block = {"p": params.p, "ell": params.ell, "e_K": params.e_k,
             "f_K": params.f_k, "n_K": params.n_k}
    if params.allow_p_equals_ell:
        block["allow_p_equals_ell"] = True
    return block


def _finv_block(aux: AuxFieldData) -> dict:
    return {"e_rel": aux.e_rel, "f_rel": aux.f_rel, "e_F": aux.e_total,
            "f_F": aux.f_total, "n_F": aux.n_total,
            "level_bound": str(aux.level_bound), "source": aux.source}


def _census_block(report: CensusReport) -> dict:
    return {
        "total": report.total,
        "case_tag": report.case_tag,
        "identity_ok": report.identity_ok,
        "by_group": [{"label": e.label, "c": e.c, "kind": e.kind,
                      "class_index": e.class_index, "count": e.count}
                     for e in report.by_group],
    }


def _emit(envelope: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(envelope), sort_keys=True, indent=2))
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _flatten_rows(envelope)
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        _print_plain(envelope)


def _flatten_rows(envelope: dict):
    rows = [("key", "value")]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            for idx, v in enumerate(obj):
                walk(f"{prefix}[{idx}]", v)
        else:
            rows.append((prefix, obj))

    walk("", _jsonable(envelope))
    return rows


def _print_plain(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list, tuple)):
                print(f"{pad}{k}:")
                _print_plain(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                _print_plain(v, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def _params_csv_key(params: ExtensionParams) -> str:
    return (f"p={params.p};ell={params.ell};eK={params.e_k};"
            f"fK={params.f_k}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_count(args) -> int:
    params = _params_from(args)
    report = census_by_group(params)
    envelope = {
        "command": "count",
        "params": _params_block(params),
        "result": _census_block(report),
    }
    csv_rows = [("params", "label", "count")]
    key = _params_csv_key(params)
    for e in report.by_group:
        csv_rows.append((key, e.label, e.count))
    csv_rows.append((key, "TOTAL", report.total))
    _emit(envelope, args.format, csv_rows)
    return EXIT_OK if report.identity_ok else EXIT_DISAGREE


def _cmd_groups(args) -> int:
    params = _params_from(args)
    entries = catalog(params)
    result = {"descriptors": []}
    for e in entries:
        result["descriptors"].append({
            "label": e.descriptor.label,
            "kind": e.descriptor.kind,
            "c": e.descriptor.c,
            "class_index": e.descriptor.class_index,
            "alpha": e.alpha,
            "beta": e.beta,
            "matrix_order": e.matrix_order,
            "expected_matrix_order": e.expected_matrix_order,
            "full_order": e.full_order,
            "abelian": e.abelian,
        })
    envelope = {"command": "groups", "params": _params_block(params),
                "result": result}
    csv_rows = [("params", "label", "count")]
    key = _params_csv_key(params)
    for e in entries:
        csv_rows.append((key, e.descriptor.label, e.full_order))
    _emit(envelope, args.format, csv_rows)
    return EXIT_OK


def _cmd_module(args) -> int:
    params = _params_from(args)
    aux = _aux_from(args, params)
    levels = level_indices(aux)
    cons = []
    for i in levels:
        for c in constituents(i, aux):
            cons.append({
                "level": c.level, "alpha_exp": c.alpha_exp,
                "beta_exp": c.beta_exp, "beta_modulus": c.beta_modulus,
                "alpha_order": c.alpha_order, "beta_order": c.beta_order,
                "r": c.r, "w": c.w, "s": c.s, "d": c.d,
                "dim_over_Fp": c.dim_over_fp,
                "multiplicity_in_level": c.multiplicity_in_level,
                "global_multiplicity": c.global_multiplicity,
                "level_dim_contribution": c.level_dim_contribution,
            })
    prof = span_profile(params, aux)
    result = {
        "levels": list(levels),
        "constituents": cons,
        "span_profile": {
            "per_level": [{"level": lv, "dim": dim} for lv, dim in prof.per_level],
            "total": prof.total,
            "degree_exponent": prof.degree_exp,
            "matches_degree_exponent": prof.matches_degree_exponent,
        },
        "annotations": {
            "uniformizer_line": "one-dimensional trivial action; excluded "
                                "from the target-dimension search",
            "top_unit_line": "one-dimensional cyclotomic action; excluded "
                             "from the target-dimension search",
        },
    }
    envelope = {"command": "module", "params": _params_block(params),
                "finv": _finv_block(aux), "result": result}
    _emit(envelope, args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    params = _params_from(args)
    aux = _aux_from(args, params)
    oc = oracle_census(params, aux, parallelism=args.seed_parallelism,
                       level_cap=args.level_cap)
    result = {
        "oracle": _census_block(oc.report),
        "closed_form": _census_block(oc.closed_form),
        "matches_closed_form": oc.matches_closed_form,
        "classes": [{
            "label": c.label, "c": c.c, "d": c.d,
            "multiplicity": c.multiplicity, "count": c.count,
            "levels": list(c.levels), "mult_by_level": list(c.mult_by_level),
            "block_dim": c.block_dim,
            "verified_exhaustively": c.verified_exhaustively,
        } for c in oc.classes],
        "level_exhaustive": [{
            "level": r.level, "found": r.found, "expected": r.expected,
            "by_label": [{"label": lb, "count": ct} for lb, ct in r.by_label],
        } for r in oc.level_exhaustive],
    }
    envelope = {"command": "oracle", "params": _params_block(params),
                "finv": _finv_block(aux), "result": result}
    if not oc.matches_closed_form:
        envelope["disagreements"] = ["oracle_vs_closed_form"]
    csv_rows = [("params", "label", "count")]
    key = _params_csv_key(params)
    for e in oc.report.by_group:
        csv_rows.append((key, e.label, e.count))
    _emit(envelope, args.format, csv_rows)
    return EXIT_OK if oc.matches_closed_form else EXIT_DISAGREE


def _cmd_ramify(args) -> int:
    params = _params_from(args)
    aux = _aux_from(args, params)
    result = {"at_params": _ramify_block(WildInputs.from_params(params, aux)),
              "synthetic_example": _ramify_block(SYNTHETIC_DISC_INPUTS)}
    envelope = {"command": "ramify", "params": _params_block(params),
                "finv": _finv_block(aux), "result": result}
    _emit(envelope, args.format)
    return EXIT_OK


def _ramify_block(inputs: WildInputs) -> dict:
    profile = jump_schedule(inputs)
    block = {
        "inputs": {"p": inputs.p, "d": inputs.d, "e_F": inputs.e_f,
                   "f_F": inputs.f_f, "e_rel": inputs.e_rel,
                   "f_rel": inputs.f_rel},
        "schedule_t": list(profile.schedule.t),
        "jumps": list(profile.jumps),
        "jump_count": len(profile.jumps),
        "segments": [{"lo": lo, "hi": hi, "wild_exponent": ex}
                     for lo, hi, ex in profile.segments],
        "flagged": profile.flagged,
    }
    block["discriminant"] = _disc_detail(discriminant_report(inputs))
    if not profile.flagged:
        h = herbrand_convert(profile)
        block["herbrand_vertices"] = [[str(u), str(fu)] for u, fu in h.vertices]
    return block


def _cmd_audit(args) -> int:
    params = _params_from(args)
    aux = _aux_from(args, params)
    report = audit(params, aux)
    envelope = {
        "command": "audit",
        "params": _params_block(params),
        "finv": _finv_block(aux),
        "result": {"summary": {it.name: it.verdict for it in report.items}},
        "audit": {"items": [{"name": it.name, "verdict": it.verdict,
                             "detail": it.detail} for it in report.items]},
        "disagreements": list(report.disagreements),
    }
    _emit(envelope, args.format)
    return EXIT_DISAGREE if report.disagreements else EXIT_OK


def _cmd_selftest(args) -> int:
    params = _params_from(args)
    suites = selftest_mod.run_all(parallelism=args.seed_parallelism)
    ok = all(s.failures == 0 for s in suites)
    envelope = {
        "command": "selftest",
        "params": _params_block(params),
        "result": {
            "ok": ok,
            "suites": [{"name": s.name, "checks": s.checks,
                        "failures": s.failures, "notes": s.notes}
                       for s in suites],
        },
    }
    _emit(envelope, args.format)
    total_checks = sum(s.checks for s in suites)
    total_failures = sum(s.failures for s in suites)
    print(f"selftest: {'PASS' if ok else 'FAIL'} "
          f"({total_checks} checks, {total_failures} failures)",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_USAGE


def _cmd_crosscheck(args) -> int:
    try:
        with open(args.fixture, "r", encoding="utf-8") as fh:
            fixture = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read fixture: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: fixture parse error at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    records = fixture.get("records")
    if not isinstance(records, list):
        print("error: fixture must contain a 'records' array", file=sys.stderr)
        return EXIT_USAGE
    wanted = {k: getattr(args, k) for k in ("p", "ell", "eK", "fK")
              if getattr(args, k) is not None}
    verdicts = []
    all_match = True
    matched_any = False
    for idx, rec in enumerate(records):
        try:
            rp = int(rec["p"]); rell = int(rec["ell"])
            re_k = int(rec["e_K"]); rf_k = int(rec["f_K"])
            expected_total = int(rec["expected_total"])
        except (KeyError, TypeError, ValueError) as exc:
            print(f"error: record {idx} malformed: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if wanted.get("p") not in (None, rp) or wanted.get("ell") not in (None, rell) \
                or wanted.get("eK") not in (None, re_k) or wanted.get("fK") not in (None, rf_k):
            continue
        matched_any = True
        params = ExtensionParams(rp, rell, re_k, rf_k,
                                 allow_p_equals_ell=args.allow_p_eq_ell)
        report = census_by_group(params)
        rec_verdict = {"record": idx,
                       "params": {"p": rp, "ell": rell, "e_K": re_k, "f_K": rf_k},
                       "source": rec.get("source", "")}
        ok = report.total == expected_total
        rec_verdict["total"] = {"expected": expected_total, "got": report.total,
                                "match": ok}
        if "by_group" in rec:
            got = {e.label: e.count for e in report.by_group}
            exp = {g["label"]: int(g["count"]) for g in rec["by_group"]}
            group_ok = got == exp
            rec_verdict["by_group"] = {"expected": exp, "got": got,
                                       "match": group_ok}
            ok = ok and group_ok
        rec_verdict["match"] = ok
        all_match = all_match and ok
        verdicts.append(rec_verdict)
    if not matched_any:
        print("error: no records match the filter", file=sys.stderr)
        return EXIT_USAGE
    params_block = {"p": args.p or 0, "ell": args.ell or 0,
                    "e_K": args.eK or 0, "f_K": args.fK or 0}
    envelope = {"command": "crosscheck",
                "params": params_block,
                "result": {"all_match": all_match, "records": verdicts}}
    csv_rows = [("params", "label", "count")]
    for v in verdicts:
        pkey = (f"p={v['params']['p']};ell={v['params']['ell']};"
                f"eK={v['params']['e_K']};fK={v['params']['f_K']}")
        csv_rows.append((pkey, "match" if v["match"] else "mismatch",
                         v["total"]["got"]))
    _emit(envelope, args.format, csv_rows)
    return EXIT_OK if all_match else EXIT_USAGE


# ---------------------------------------------------------------------------
# wiring

def _params_from(args) -> ExtensionParams:
    missing = [name for name in ("p", "ell", "eK", "fK")
               if getattr(args, name) is None]
    if missing:
        raise DomainError(f"missing required flags: "
                          f"{', '.join('--' + m for m in missing)}")
    return ExtensionParams(args.p, args.ell, args.eK, args.fK,
                           allow_p_equals_ell=args.allow_p_eq_ell)


def _aux_from(args, params: ExtensionParams) -> AuxFieldData:
    if args.e_rel is not None or args.f_rel is not None:
        if args.e_rel is None or args.f_rel is None:
            raise DomainError("--e-rel and --f-rel must be given together")
        return make_aux_data(params, args.e_rel, args.f_rel)
    return default_aux_data(params)


def _add_common(sub: argparse.ArgumentParser, need_fixture: bool = False) -> None:
    sub.add_argument("--p", type=int, default=None, help="residue characteristic")
    sub.add_argument("--ell", type=int, default=None, help="exponent prime")
    sub.add_argument("--eK", type=int, default=None, help="absolute ramification index")
    sub.add_argument("--fK", type=int, default=None, help="absolute inertia degree")
    sub.add_argument("--format", choices=("json", "csv", "plain"),
                     default="json")
    sub.add_argument("--e-rel", dest="e_rel", type=int, default=None,
                     help="override the relative ramification index")
    sub.add_argument("--f-rel", dest="f_rel", type=int, default=None,
                     help="override the relative inertia degree")
    sub.add_argument("--allow-p-eq-ell", dest="allow_p_eq_ell",
                     action="store_true",
                     help="evaluate formulas as written even when p = ell")
    sub.add_argument("--seed-parallelism", dest="seed_parallelism", type=int,
                     default=1, metavar="N",
                     help="worker processes for seed scans, capped at the "
                          "usable CPUs; output is byte-identical for any N")
    sub.add_argument("--level-cap", dest="level_cap", type=int, default=0,
                     help="exhaustively sweep whole levels up to this many "
                          "vectors (0 = off)")
    if need_fixture:
        sub.add_argument("--fixture", required=True,
                         help="path to a fixture JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicext",
        description="Exact census and brute-force verifier for prime-power "
                    "local field extensions without intermediate fields")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "count": _cmd_count,
        "groups": _cmd_groups,
        "module": _cmd_module,
        "oracle": _cmd_oracle,
        "ramify": _cmd_ramify,
        "audit": _cmd_audit,
        "selftest": _cmd_selftest,
        "crosscheck": _cmd_crosscheck,
    }
    help_text = {
        "count": "closed-form census totals and per-group counts",
        "groups": "catalog of normal-closure groups with matrix generators",
        "module": "level modules, constituents, and the span profile",
        "oracle": "independent census by explicit submodule enumeration",
        "ramify": "jump schedule, different, and discriminant routes",
        "audit": "cross-validation report (exit 2 on disagreements)",
        "selftest": "run the built-in smoke grid",
        "crosscheck": "compare census output against a fixture file",
    }
    for name, handler in handlers.items():
        sub = subs.add_parser(name, help=help_text[name])
        _add_common(sub, need_fixture=(name == "crosscheck"))
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the artifact reserves 2 for
        # formula disagreements, so remap
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    try:
        return args.handler(args)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
