"""Closed-form census: frozen values, exactness, cross-sum identity."""

import subprocess
import sys
from pathlib import Path

import pytest

from padicext.census import (ExtensionParams, census_by_group, degree_exponent,
                             total_classes)
from padicext.errors import DomainError


def test_frozen_totals():
    assert total_classes(ExtensionParams(2, 3, 1, 1)) == 16
    assert total_classes(ExtensionParams(3, 2, 1, 1)) == 30
    assert total_classes(ExtensionParams(5, 2, 1, 2)) == 7280  # (1/2)*26*560
    assert total_classes(ExtensionParams(2, 3, 1, 3)) == 1168  # (1/3)*73*48


def test_total_depends_only_on_absolute_degree():
    base = total_classes(ExtensionParams(3, 2, 2, 3))
    assert total_classes(ExtensionParams(3, 2, 6, 1)) == base
    assert total_classes(ExtensionParams(3, 2, 3, 2)) == base
    # the same closed value covers both inertia cases
    assert total_classes(ExtensionParams(3, 2, 1, 4)) == \
        total_classes(ExtensionParams(3, 2, 4, 1))


def test_degree_exponent_values():
    assert degree_exponent(ExtensionParams(2, 3, 1, 1)) == 24
    assert degree_exponent(ExtensionParams(3, 2, 1, 1)) == 36
    assert degree_exponent(ExtensionParams(5, 2, 1, 2)) == 1120


def test_by_group_q2():
    rep = census_by_group(ExtensionParams(2, 3, 1, 1))
    assert rep.counts() == {"C(7)": 2, "NA(7,split)": 14}
    assert rep.identity_ok
    assert rep.case_tag == "ell_not_divides_fK"


def test_by_group_q3():
    rep = census_by_group(ExtensionParams(3, 2, 1, 1))
    assert rep.counts() == {"C(4)": 2, "C(8)": 4, "NA(8,split)": 16,
                            "NA(4,split)": 4, "NA(4,ns1)": 4}
    assert sum(e.count for e in rep.by_group) == 30


def test_by_group_inertia_divisible_case_is_cyclic_only():
    rep = census_by_group(ExtensionParams(2, 3, 1, 3))
    assert rep.counts() == {"C(7)": 1168}
    assert rep.case_tag == "ell_divides_fK"
    assert all(e.kind == "cyclic" for e in rep.by_group)


def test_mixed_case_has_both_kinds():
    rep = census_by_group(ExtensionParams(3, 2, 1, 1))
    kinds = {e.kind for e in rep.by_group}
    assert "cyclic" in kinds and "split" in kinds


def test_zero_count_entries_are_suppressed():
    rep = census_by_group(ExtensionParams(2, 3, 1, 1))
    # lambda = 1 at (7, 2, 3): no nonsplit entries may appear
    assert all(e.kind != "nonsplit" for e in rep.by_group)
    assert all(e.count > 0 for e in rep.by_group)


def test_cross_sum_identity_sample_grid():
    for p in (2, 3, 5, 7, 11, 13):
        for ell in (2, 3):
            if p == ell:
                continue
            for ek in (1, 3):
                for fk in (1, 2, 3, 4):
                    rep = census_by_group(ExtensionParams(p, ell, ek, fk))
                    assert rep.identity_ok, (p, ell, ek, fk)


def test_p_equals_ell_is_gated():
    with pytest.raises(DomainError):
        ExtensionParams(3, 3, 1, 1)
    params = ExtensionParams(3, 3, 1, 1, allow_p_equals_ell=True)
    assert total_classes(params) == 224


def test_invalid_primes_rejected():
    with pytest.raises(DomainError):
        ExtensionParams(4, 3, 1, 1)
    with pytest.raises(DomainError):
        ExtensionParams(2, 9, 1, 1)
    with pytest.raises(DomainError):
        ExtensionParams(2, 3, 0, 1)


def test_census_import_loads_only_its_own_dependencies():
    # the package re-exports nothing, so importing the census in a fresh
    # interpreter loads neither the oracle nor the field arithmetic
    code = ("import sys, padicext; "
            "print(sorted(n for n in dir(padicext) if not n.startswith('_'))); "
            "import padicext.census; "
            "print(sorted(m for m in sys.modules if m.startswith('padicext')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    public, loaded = proc.stdout.splitlines()
    assert public == "[]"
    assert loaded == str(["padicext", "padicext.arith", "padicext.census",
                          "padicext.errors"])
    assert "padicext.oracle" not in loaded and "padicext.ffield" not in loaded
