"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (integer equality), and the stated
runtime budgets are asserted with wall-clock measurements.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from padicext.action import default_aux_data
from padicext.arith import (divisors, order_pair_count, order_pair_product,
                            split_fraction)
from padicext.census import ExtensionParams, census_by_group
from padicext.ffield import make_field
from padicext.groups import catalog, split_class
from padicext.oracle import (enumerate_irreducible_submodules, oracle_census,
                             subspace_count_law)
from padicext.ramify import (WildInputs, audit, different_valuation,
                             herbrand_convert, jump_schedule)
from fractions import Fraction

from test_oracle import scalar_tower_module
from test_ramify import different_valuation_literal

ROOT = Path(__file__).resolve().parents[1]
GRID_PRIMES = (2, 3, 5, 7, 11, 13)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}", flush=True)


def test_criterion_1_census_cross_sum_identity():
    start = time.monotonic()
    checked = 0
    for p in GRID_PRIMES:
        for ell in GRID_PRIMES:
            if p == ell:
                continue
            for ek in (1, 2, 3, 4):
                for fk in (1, 2, 3, 4):
                    params = ExtensionParams(p, ell, ek, fk)
                    rep = census_by_group(params)
                    assert sum(e.count for e in rep.by_group) == rep.total
                    assert all(e.count > 0 for e in rep.by_group)
                    assert rep.identity_ok
                    checked += 1
            # the weighted-count integrality behind the nonabelian entries
            for c in divisors(p ** ell - 1):
                lam = split_fraction(c, p, ell)
                psi = order_pair_count(c, p - 1)
                assert (lam * psi).denominator == 1
                assert ((1 - lam) / (ell - 1) * psi).denominator == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _report(1, f"cross-sum identity on {checked} parameter sets "
               f"in {elapsed:.2f}s")


def test_criterion_2_pair_count_semantics():
    # Oracle: enumerate element orders of every cyclic group by gcd, then
    # count order-a pairs through lcm of enumerated orders (the x side is
    # grouped by its enumerated order multiset; no product formula enters).
    start = time.monotonic()
    limit = 200
    xs = np.arange(limit, dtype=np.int64)
    orders = [np.where(xs[:n] == 0, 1, n // np.gcd(xs[:n], n)).astype(np.int32)
              for n in range(1, limit + 1)]
    all_b = np.concatenate(orders)
    bounds = np.cumsum([0] + [len(o) for o in orders])[:-1]
    for a in range(1, limit + 1):
        counts_a = np.bincount(orders[a - 1])
        present = np.nonzero(counts_a)[0]
        hits = counts_a[present] @ (np.lcm.outer(present.astype(np.int32),
                                                 all_b) == a)
        brute = np.add.reduceat(hits, bounds)
        for b in range(1, limit + 1):
            assert order_pair_count(a, b) == int(brute[b - 1]), (a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s (budget 5s)"
    for b in range(1, 201):
        for a in divisors(b):
            assert order_pair_product(a, b) == order_pair_count(a, b)
    assert order_pair_count(4, 2) == 4 and order_pair_product(4, 2) == 6
    params = ExtensionParams(2, 3, 1, 1)
    rep = audit(params, default_aux_data(params))
    item = rep.item("pair_count_vs_product")
    assert item.verdict == "disagree"
    assert {"a": 4, "b": 2, "count": 4, "product": 6} in item.detail["divergences"]
    _report(2, f"pair count equals brute enumeration for all a,b <= {limit} "
               f"in {elapsed:.2f}s; (4,2) divergence audited")


def test_criterion_3_oracle_equivalence_mixed_case():
    start = time.monotonic()
    oc2 = oracle_census(ExtensionParams(2, 3, 1, 1), level_cap=1 << 21)
    assert oc2.matches_closed_form
    assert oc2.report.total == 16
    assert {e.label: e.count for e in oc2.report.by_group} == \
        {"C(7)": 2, "NA(7,split)": 14}
    assert all(c.verified_exhaustively for c in oc2.classes)
    # the whole-level sweeps each cover 2^21 vectors: of the 2^19 - 1
    # seeds with pivot at most 21 - 3, 3 candidate lines per level
    assert [r.level for r in oc2.level_exhaustive] == [1, 3, 5, 7, 9, 11, 13]
    assert dict((r.level, r.found) for r in oc2.level_exhaustive)[7] == 2

    oc3 = oracle_census(ExtensionParams(3, 2, 1, 1), level_cap=3 ** 8)
    assert oc3.matches_closed_form
    assert oc3.report.total == 30
    assert {e.label: e.count for e in oc3.report.by_group} == \
        {"C(4)": 2, "C(8)": 4, "NA(8,split)": 16, "NA(4,split)": 4,
         "NA(4,ns1)": 4}
    assert all(c.verified_exhaustively for c in oc3.classes)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s (budget 300s)"
    _report(3, f"oracle census equals closed form at (2,3) and (3,2) with "
               f"exhaustive confirmation (largest sweep 2^21 vectors, "
               f"3 candidate lines of 2^19 - 1 seeds) "
               f"in {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence_divisible_case():
    oc = oracle_census(ExtensionParams(2, 3, 1, 3))
    assert oc.matches_closed_form
    assert {e.label: e.count for e in oc.report.by_group} == {"C(7)": 1168}
    assert all(e.kind == "cyclic" for e in oc.report.by_group)
    closed = census_by_group(ExtensionParams(2, 3, 1, 3))
    assert {e.label: e.count for e in closed.by_group} == {"C(7)": 1168}
    _report(4, "oracle census equals closed form at (2,3,f_K=3): "
               "cyclic only, 1168 classes")


def test_criterion_5_subspace_count_law():
    assert subspace_count_law(1, 3, 2) == 7
    assert subspace_count_law(2, 2, 3) == 10
    checked = 0
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            for mult in (1, 2, 3, 4):
                if p ** (d * mult) > 1 << 16:
                    continue
                block = scalar_tower_module(p, d, mult)
                found = enumerate_irreducible_submodules(block, d)
                assert len(found) == subspace_count_law(d, mult, p), (p, d, mult)
                if mult == 1:
                    assert len(found) == 1
                checked += 1
    _report(5, f"exhaustive spin counts match the subspace law on "
               f"{checked} synthetic isotypic blocks")


def test_criterion_6_group_catalog():
    closure_checked = 0
    for p in GRID_PRIMES:
        for ell in GRID_PRIMES:
            if p == ell:
                continue
            fks = [1] + ([ell] if ell <= 4 else [])
            for fk in fks:
                params = ExtensionParams(p, ell, 1, fk)
                for entry in catalog(params, closure_cap=10 ** 4):
                    if entry.expected_matrix_order <= 10 ** 4:
                        assert entry.matrix_order == entry.expected_matrix_order
                        expected = entry.descriptor.c if entry.abelian \
                            else entry.descriptor.c * ell
                        assert entry.matrix_order == expected
                        closure_checked += 1
    invariance_checked = 0
    for p in GRID_PRIMES:
        for ell in GRID_PRIMES:
            if p == ell or p ** ell > 1 << 14:
                continue
            ctx = make_field(p, ell)
            params = ExtensionParams(p, ell, 1, 1)
            prime_root = ctx.root_of_unity(p - 1) if p > 2 else 1
            betas = [ctx.pow(prime_root, e) for e in range(max(p - 1, 1))]
            for ea in range(1, p ** ell - 1):
                alpha = ctx.pow(ctx.generator, ea)
                frob_alpha = ctx.frob(alpha)
                for beta in betas:
                    assert split_class(ctx, alpha, beta, params) == \
                        split_class(ctx, frob_alpha, beta, params)
                    invariance_checked += 1
    _report(6, f"{closure_checked} closure orders verified (c or c*ell); "
               f"split class Frobenius-invariant on {invariance_checked} "
               f"pairs with p^ell <= 2^14")


def test_criterion_7_ramification():
    grid = [
        WildInputs(p=3, d=2, e_f=2, f_f=1, e_rel=2, f_rel=1),
        WildInputs(p=2, d=6, e_f=3, f_f=2, e_rel=3, f_rel=2),
        WildInputs(p=2, d=4, e_f=1, f_f=1, e_rel=1, f_rel=1),
        WildInputs(p=3, d=8, e_f=3, f_f=2, e_rel=3, f_rel=1),
        WildInputs(p=5, d=9, e_f=3, f_f=2, e_rel=3, f_rel=2),
        WildInputs(p=7, d=6, e_f=2, f_f=2, e_rel=2, f_rel=3),
        WildInputs(p=2, d=12, e_f=4, f_f=3, e_rel=4, f_rel=3),
        WildInputs(p=3, d=12, e_f=4, f_f=2, e_rel=4, f_rel=1),
    ]
    profiles = 0
    for inputs in grid:
        prof = jump_schedule(inputs)
        assert len(set(prof.jumps)) == inputs.e_f + 2
        if prof.flagged:
            continue
        h = herbrand_convert(prof)
        for x in (Fraction(0), Fraction(1), Fraction(5, 3), Fraction(7, 2),
                  Fraction(prof.t[-1]),
                  Fraction(prof.t[-1] * 2 + 1, 2)):
            assert h.to_lower(h.to_upper(x)) == x
            assert h.to_upper(h.to_lower(x)) == x
        if prof.t[-1] <= 10 ** 4:
            assert different_valuation(prof) == \
                different_valuation_literal(prof)
        profiles += 1
    _report(7, f"jump counts e_F+2, exact Herbrand round trips, and "
               f"segment-vs-literal different agreement on {profiles} profiles")


def test_criterion_8_span_total_equals_degree_exponent():
    from padicext.action import span_profile
    params2 = ExtensionParams(2, 3, 1, 1)
    prof2 = span_profile(params2, default_aux_data(params2))
    assert prof2.total == 24 and prof2.matches_degree_exponent
    params3 = ExtensionParams(3, 2, 1, 1)
    prof3 = span_profile(params3, default_aux_data(params3))
    assert prof3.total == 36 and prof3.matches_degree_exponent
    _report(8, "span totals equal the degree exponents: 24 at (2,3), "
               "36 at (3,2)")


def test_criterion_9_discrepancy_determinism():
    def run_audit(parallelism: str):
        return subprocess.run(
            [sys.executable, "-m", "padicext.cli", "audit", "--p", "2",
             "--ell", "3", "--eK", "1", "--fK", "1", "--format", "json",
             "--seed-parallelism", parallelism],
            capture_output=True, text=True, cwd=ROOT)

    first = run_audit("1")
    assert first.returncode == 2
    for n in ("1", "2", "8"):
        again = run_audit(n)
        assert again.stdout == first.stdout
        assert again.returncode == 2
    doc = json.loads(first.stdout)
    items = {it["name"]: it for it in doc["audit"]["items"]}
    b = items["span_vs_uniform_drops"]
    assert b["verdict"] == "disagree"
    assert b["detail"]["span_multiset"] == ["3", "3", "3", "3", "3", "3", "6"]
    assert b["detail"]["uniform_multiset"] == ["21"] * 7
    d = items["pair_count_vs_product"]
    assert d["verdict"] == "disagree"
    assert {"a": "4", "b": "2", "count": "4", "product": "6"} in \
        d["detail"]["divergences"]
    synth = items["discriminant_two_routes"]["detail"]["synthetic"]
    assert synth["alpha_closed"] == "39" and synth["alpha_direct"] == "31"
    assert synth["agree"] is False
    _report(9, "audit reports the documented discrepancies byte-identically "
               "across runs and thread counts, exit code 2")
