"""Command line surface.

Each command accepts only the flags it reads: the FLAG_GROUPS its row of
build_parser's table names.  Every report uses one JSON envelope (see
schema.json): integers are serialized as decimal strings so
arbitrary-precision counts survive any consumer, output is byte-identical
across runs (and across --seed-parallelism settings), and exit codes
separate usage errors (1) from documented formula disagreements (2).
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
                     discriminant_report, herbrand_convert)
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


def _emit(envelope: dict, fmt: str, csv_rows) -> None:
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


def _csv_table(rows) -> list[tuple]:
    """The `params,label,count` table of (params, label, count) rows."""
    return [("params", "label", "count")] + [
        (f"p={q.p};ell={q.ell};eK={q.e_k};fK={q.f_k}", label, count)
        for q, label, count in rows]


# ---------------------------------------------------------------------------
# subcommands: each returns its envelope after "command", its csv table
# (None to flatten the envelope) and its exit code; main writes the envelope

def _cmd_count(args):
    params = _params_from(args)
    report = census_by_group(params)
    body = {"params": _params_block(params), "result": _census_block(report)}
    rows = _csv_table([(params, e.label, e.count) for e in report.by_group]
                      + [(params, "TOTAL", report.total)])
    return body, rows, EXIT_OK if report.identity_ok else EXIT_DISAGREE


def _cmd_groups(args):
    params = _params_from(args)
    entries = catalog(params)
    descriptors = [{
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
    } for e in entries]
    body = {"params": _params_block(params),
            "result": {"descriptors": descriptors}}
    rows = _csv_table((params, e.descriptor.label, e.full_order)
                      for e in entries)
    return body, rows, EXIT_OK


def _cmd_module(args):
    params = _params_from(args)
    aux = _aux_from(args, params)
    prof = span_profile(params, aux)  # refuses past its cap before the levels
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
    return {"params": _params_block(params), "finv": _finv_block(aux),
            "result": result}, None, EXIT_OK


def _cmd_oracle(args):
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
    body = {"params": _params_block(params), "finv": _finv_block(aux),
            "result": result}
    if not oc.matches_closed_form:
        body["disagreements"] = ["oracle_vs_closed_form"]
    rows = _csv_table((params, e.label, e.count) for e in oc.report.by_group)
    return body, rows, EXIT_OK if oc.matches_closed_form else EXIT_DISAGREE


def _cmd_ramify(args):
    params = _params_from(args)
    aux = _aux_from(args, params)
    result = {"at_params": _ramify_block(WildInputs.from_params(params, aux)),
              "synthetic_example": _ramify_block(SYNTHETIC_DISC_INPUTS)}
    return {"params": _params_block(params), "finv": _finv_block(aux),
            "result": result}, None, EXIT_OK


def _ramify_block(inputs: WildInputs) -> dict:
    """One block of the report, or its inputs and the reason it was skipped
    when one of its numbers would be too large to print."""
    block = {"inputs": {"p": inputs.p, "d": inputs.d, "e_F": inputs.e_f,
                        "f_F": inputs.f_f, "e_rel": inputs.e_rel,
                        "f_rel": inputs.f_rel}}
    try:
        disc = discriminant_report(inputs)
    except CapacityError as exc:
        block["skipped"] = str(exc)
        return block
    profile = disc.profile
    block.update({
        "schedule_t": list(profile.t),
        "jumps": list(profile.jumps),
        "jump_count": len(profile.jumps),
        "segments": [{"lo": lo, "hi": hi, "wild_exponent": ex}
                     for lo, hi, ex in profile.segments],
        "flagged": profile.flagged,
        "discriminant": _disc_detail(disc),
    })
    if not profile.flagged:
        h = herbrand_convert(profile)
        block["herbrand_vertices"] = [[str(u), str(fu)] for u, fu in h.vertices]
    return block


def _cmd_audit(args):
    params = _params_from(args)
    aux = _aux_from(args, params)
    report = audit(params, aux)
    body = {
        "params": _params_block(params),
        "finv": _finv_block(aux),
        "result": {"summary": {it.name: it.verdict for it in report.items}},
        "audit": {"items": [{"name": it.name, "verdict": it.verdict,
                             "detail": it.detail} for it in report.items]},
        "disagreements": list(report.disagreements),
    }
    return body, None, EXIT_DISAGREE if report.disagreements else EXIT_OK


def _cmd_selftest(args):
    params = _params_from(args)
    suites = selftest_mod.run_all(parallelism=args.seed_parallelism)
    ok = all(s.failures == 0 for s in suites)
    body = {
        "params": _params_block(params),
        "result": {
            "ok": ok,
            "suites": [{"name": s.name, "checks": s.checks,
                        "failures": s.failures, "notes": s.notes}
                       for s in suites],
        },
    }
    total_checks = sum(s.checks for s in suites)
    total_failures = sum(s.failures for s in suites)
    print(f"selftest: {'PASS' if ok else 'FAIL'} "
          f"({total_checks} checks, {total_failures} failures)",
          file=sys.stderr)
    return body, None, EXIT_OK if ok else EXIT_USAGE


def _fixture_int(value) -> int:
    """A fixture number: a JSON integer, or a string int() parses (the
    envelopes write integers as decimal strings).  No float, no bool."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _cmd_crosscheck(args):
    try:
        with open(args.fixture, "r", encoding="utf-8") as fh:
            fixture = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read fixture: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"fixture parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    records = fixture.get("records") if isinstance(fixture, dict) else None
    if not isinstance(records, list):
        raise DomainError("fixture must contain a 'records' array")
    verdicts = []
    csv_rows = []
    for idx, rec in enumerate(records):
        try:
            keys = ("p", "ell", "e_K", "f_K", "expected_total")
            rp, rell, re_k, rf_k, expected_total = (_fixture_int(rec[k]) for k in keys)
            exp = None
            if "by_group" in rec:
                if not isinstance(rec["by_group"], list):
                    raise TypeError("'by_group' is not a list")
                exp = {g["label"]: _fixture_int(g["count"]) for g in rec["by_group"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"record {idx} malformed: {exc}") from exc
        if any(getattr(args, flag) not in (None, value) for flag, value
               in zip(("p", "ell", "eK", "fK"), (rp, rell, re_k, rf_k))):
            continue
        params = ExtensionParams(rp, rell, re_k, rf_k,
                                 allow_p_equals_ell=args.allow_p_eq_ell)
        report = census_by_group(params)
        rec_verdict = {"record": idx,
                       "params": {"p": rp, "ell": rell, "e_K": re_k, "f_K": rf_k},
                       "source": rec.get("source", "")}
        ok = report.total == expected_total
        rec_verdict["total"] = {"expected": expected_total, "got": report.total,
                                "match": ok}
        if exp is not None:
            got = report.counts()
            group_ok = got == exp
            rec_verdict["by_group"] = {"expected": exp, "got": got,
                                       "match": group_ok}
            ok = ok and group_ok
        rec_verdict["match"] = ok
        verdicts.append(rec_verdict)
        csv_rows.append((params, "match" if ok else "mismatch", report.total))
    if not verdicts:
        raise DomainError("no records match the filter")
    all_match = all(v["match"] for v in verdicts)
    params_block = {"p": args.p or 0, "ell": args.ell or 0,
                    "e_K": args.eK or 0, "f_K": args.fK or 0}
    body = {"params": params_block,
            "result": {"all_match": all_match, "records": verdicts}}
    return body, _csv_table(csv_rows), EXIT_OK if all_match else EXIT_USAGE


# ---------------------------------------------------------------------------
# wiring

def _params_from(args) -> ExtensionParams:
    missing = [name for name in ("p", "ell", "eK", "fK")
               if getattr(args, name) is None]
    if missing:
        raise DomainError(f"missing required flags: "
                          f"{', '.join('--' + m for m in missing)}")
    return ExtensionParams(args.p, args.ell, args.eK, args.fK,
                           allow_p_equals_ell=getattr(args, "allow_p_eq_ell",
                                                      False))


def _aux_from(args, params: ExtensionParams) -> AuxFieldData:
    if args.e_rel is not None or args.f_rel is not None:
        if args.e_rel is None or args.f_rel is None:
            raise DomainError("--e-rel and --f-rel must be given together")
        return make_aux_data(params, args.e_rel, args.f_rel)
    return default_aux_data(params)


# each flag group once, as (flag, add_argument keywords); "point" goes to all
FLAG_GROUPS = {
    "point": (("--p", dict(type=int, help="residue characteristic")),
              ("--ell", dict(type=int, help="exponent prime")),
              ("--eK", dict(type=int, help="absolute ramification index")),
              ("--fK", dict(type=int, help="absolute inertia degree")),
              ("--format", dict(choices=("json", "csv", "plain"),
                                default="json"))),
    "allow": (("--allow-p-eq-ell", dict(action="store_true", help=(
        "evaluate formulas as written even when p = ell"))),),
    "aux": (("--e-rel", dict(type=int, help=(
                "override the relative ramification index"))),
            ("--f-rel", dict(type=int, help=(
                "override the relative inertia degree")))),
    "parallelism": (("--seed-parallelism", dict(
        type=int, default=1, metavar="N",
        help="worker processes for seed scans, capped at the usable CPUs; "
             "output is byte-identical for any N")),),
    "level_cap": (("--level-cap", dict(type=int, default=0, help=(
        "exhaustively sweep whole levels up to this many vectors "
        "(0 = off)"))),),
    "fixture": (("--fixture", dict(required=True,
                                   help="path to a fixture JSON file")),),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicext",
        description="Exact census and brute-force verifier for prime-power "
                    "local field extensions without intermediate fields")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {  # name: (handler, flag groups besides "point", help)
        "count": (_cmd_count, ("allow",),
                  "closed-form census totals and per-group counts"),
        "groups": (_cmd_groups, ("allow",),
                   "catalog of normal-closure groups with matrix generators"),
        "module": (_cmd_module, ("aux",),
                   "level modules, constituents, and the span profile"),
        "oracle": (_cmd_oracle, ("aux", "parallelism", "level_cap"),
                   "independent census by explicit submodule enumeration"),
        "ramify": (_cmd_ramify, ("aux",),
                   "jump schedule, different, and discriminant routes"),
        "audit": (_cmd_audit, ("aux", "parallelism"),
                  "cross-validation report (exit 2 on disagreements)"),
        "selftest": (_cmd_selftest, ("parallelism",),
                     "run the built-in smoke grid"),
        "crosscheck": (_cmd_crosscheck, ("allow", "fixture"),
                       "compare census output against a fixture file"),
    }
    for name, (handler, groups, help_text) in commands.items():
        sub = subs.add_parser(name, help=help_text)
        for group in ("point", *groups):
            for flag, kwargs in FLAG_GROUPS[group]:
                sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=handler, command_parser=sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # leftovers are refused by the command's parser, whose usage line
        # lists the flags that command takes
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.command_parser.error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the artifact reserves 2 for
        # formula disagreements, so remap
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    try:
        if getattr(args, "seed_parallelism", 1) < 1:
            raise DomainError(f"--seed-parallelism must be at least 1, got "
                              f"{args.seed_parallelism}")
        if getattr(args, "level_cap", 0) < 0:
            raise DomainError(f"--level-cap must be at least 0, got "
                              f"{args.level_cap}")
        body, csv_rows, code = args.handler(args)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"command": args.command, **body}, args.format, csv_rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
