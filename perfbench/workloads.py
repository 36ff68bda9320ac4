"""Workload definitions: what one pass runs, and why each workload exists.

An operation is a small JSON-able list; its first item names the kind:

- ``["oracle", p, ell, eK, fK, level_cap, parallelism]``: one
  ``oracle_census`` call (``level_cap`` 0 means the default, no sweep);
- ``["level", p, ell, eK, fK, level, cap, parallelism]``: one whole-level
  exhaustive sweep, ``enumerate_irreducible_submodules`` on level ``level``;
- ``["catalog", p, ell, eK, fK]``: one ``groups.catalog`` call with
  ``closure_cap=10**4``;
- ``["cli", arg, ...]``: one fresh ``python -m padicext.cli`` process.

The workload seed only permutes the order of operations inside a pass; it
never changes the set of operations, any output or any counter.
"""

from __future__ import annotations

import random

CATALOG_CLOSURE_CAP = 10 ** 4
LEVEL_SWEEP_CAP = 2 ** 21
P2_PARALLELISM = 2  # the core count of the reference machine

CLI_POINTS = ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 1, 3), (5, 2, 1, 2),
              (5, 3, 1, 1), (3, 5, 1, 1), (2, 7, 1, 1), (7, 3, 1, 1))
# `ramify` and `audit` at these points exit 1 on CPython's 4300-digit limit
# for int-to-str conversion (`str(alpha_closed)` in ramify._disc_detail and
# cli._ramify_block).  They stay in the workload so that a fix shows up as
# fewer known-defect failures.
KNOWN_DEFECT_POINTS = ((5, 3, 1, 1), (3, 5, 1, 1), (2, 7, 1, 1), (7, 3, 1, 1))
KNOWN_DEFECT_COMMANDS = ("ramify", "audit")


def _flags(p: int, ell: int, ek: int, fk: int) -> list:
    return ["--p", str(p), "--ell", str(ell), "--eK", str(ek), "--fK", str(fk)]


def _catalog_grid() -> list:
    # The criterion-6 grid (p, ell in {2..13}, f_K in {1} u {ell if ell <= 4})
    # cut to ell <= 7: the ell = 11 and 13 columns alone take about 45 s, too
    # long for one pass of a run.
    primes = (2, 3, 5, 7, 11, 13)
    ops = []
    for p in primes:
        for ell in primes:
            if p == ell or ell > 7:
                continue
            for fk in (1,) + ((ell,) if ell <= 4 else ()):
                ops.append(["catalog", p, ell, 1, fk])
    return ops


def _cli_ops() -> list:
    ops = []
    for point in CLI_POINTS:
        for command in ("count", "module", "ramify", "audit"):
            ops.append(["cli", command] + _flags(*point))
    for point in ((2, 3, 1, 1), (3, 2, 1, 1)):
        for command in ("groups", "oracle"):
            ops.append(["cli", command] + _flags(*point))
    ops.append(["cli", "ramify"] + _flags(3, 2, 1, 1)
               + ["--e-rel", "4", "--f-rel", "2"])
    ops.append(["cli", "crosscheck", "--fixture", "fixtures/small_grid.json"])
    ops.append(["cli", "count"] + _flags(5, 2, 1, 2) + ["--format", "csv"])
    ops.append(["cli", "groups"] + _flags(3, 2, 1, 1) + ["--format", "plain"])
    return ops


WORKLOADS = {
    "oracle-p2-sweep": {
        "why": ("seed scan and spin on the packed p=2 codec through the "
                "thread fan-out: where a codec or process-pool change shows"),
        "mode": "inproc",
        "ops": [
            ["oracle", 2, 3, 1, 1, 0, P2_PARALLELISM],
            ["oracle", 2, 3, 1, 3, 0, P2_PARALLELISM],
            ["oracle", 2, 3, 2, 1, 0, P2_PARALLELISM],
            # one of the seven 2^21-seed level sweeps that
            # `oracle --level-cap 2097152` runs at (2,3,1,1); all seven take
            # about 40 s, too long for one pass of a run
            ["level", 2, 3, 1, 1, 9, LEVEL_SWEEP_CAP, P2_PARALLELISM],
        ],
    },
    "oracle-odd": {
        "why": ("single-threaded odd-p tuple codec, GF(3^m) frob/mul in "
                "beta_kernel and hom_basis iso-grouping"),
        "mode": "inproc",
        "ops": [
            # (3,2,1,4) alone takes about 29 s, too long for one pass
            ["oracle", 5, 2, 1, 1, 0, 1],
            ["oracle", 3, 2, 1, 2, 0, 1],
            ["oracle", 3, 2, 2, 1, 0, 1],
            ["oracle", 3, 2, 1, 1, 3 ** 8, 1],
        ],
    },
    "catalog-grid": {
        "why": ("odd-p FieldCtx.mul under the monomial closure BFS; bypasses "
                "linalg and the seed scan, and reuses each GF(p^ell)"),
        "mode": "inproc",
        "ops": _catalog_grid(),
    },
    "cli-closed-forms": {
        "why": ("the user's path: interpreter start, import, big-integer "
                "closed forms and serialization, one process per command"),
        "mode": "cli",
        "ops": _cli_ops(),
    },
}


def op_name(op: list) -> str:
    """Stable human-readable name of an operation."""
    return " ".join(str(x) for x in op)


def is_known_defect(op: list) -> bool:
    if op[0] != "cli" or op[1] not in KNOWN_DEFECT_COMMANDS:
        return False
    return any(op[2:] == _flags(*point) for point in KNOWN_DEFECT_POINTS)


def pass_operations(workload: str, seed: int, pass_index: int) -> list:
    """The operations of one pass, in the order fixed by seed and pass."""
    ops = [list(op) for op in WORKLOADS[workload]["ops"]]
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(ops)
    return ops
