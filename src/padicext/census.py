"""Closed-form census of extension classes, exact at every step.

All counts are arbitrary-precision integers; every division is checked
for exactness and an inexact one raises InvariantError rather than
truncating.  The group-by-group breakdown is keyed by GroupClass, the
one group record shared with the catalog and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (check_output_digits, divisors, is_prime, order_pair_count,
                    split_fraction)
from .errors import DomainError, InvariantError

CASE_DIVIDES = "ell_divides_fK"
CASE_NOT_DIVIDES = "ell_not_divides_fK"


@dataclass(frozen=True)
class ExtensionParams:
    """Base field datum: (p, ell) primes plus absolute e_K, f_K."""

    p: int
    ell: int
    e_k: int
    f_k: int
    allow_p_equals_ell: bool = False

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        if not is_prime(self.ell):
            raise DomainError(f"ell = {self.ell} is not prime")
        if self.e_k < 1 or self.f_k < 1:
            raise DomainError("e_K and f_K must be positive")
        if self.p == self.ell and not self.allow_p_equals_ell:
            raise DomainError(
                "p = ell needs allow_p_equals_ell; formulas are evaluated "
                "as written but correctness is not claimed there")

    @property
    def n_k(self) -> int:
        return self.e_k * self.f_k

    @property
    def ell_divides_fk(self) -> bool:
        return self.f_k % self.ell == 0

    @property
    def case_tag(self) -> str:
        return CASE_DIVIDES if self.ell_divides_fk else CASE_NOT_DIVIDES


@dataclass(frozen=True, kw_only=True)
class GroupClass:
    """A normal-closure group: C(c), or nonabelian of order c*ell, split or
    in nonsplit class j.  The one home of the label grammar and of the
    census order."""

    label: str = field(init=False)  # derived; first, the repr order perfbench digests
    kind: str  # "cyclic" | "split" | "nonsplit"
    class_index: int  # j for nonsplit classes, 0 otherwise
    c: int

    def __post_init__(self) -> None:
        label = (f"C({self.c})" if self.kind == "cyclic" else
                 f"NA({self.c},split)" if self.kind == "split" else
                 f"NA({self.c},ns{self.class_index})")
        object.__setattr__(self, "label", label)

    def sort_key(self) -> tuple[int, int, int]:
        """Census order: by c, then cyclic, split and nonsplit by index."""
        return (self.c, ("cyclic", "split", "nonsplit").index(self.kind),
                self.class_index)


@dataclass(frozen=True)
class CensusEntry(GroupClass):
    count: int


@dataclass(frozen=True)
class CensusReport:
    total: int
    case_tag: str
    by_group: tuple[CensusEntry, ...]
    identity_ok: bool

    def counts(self) -> dict[str, int]:
        return {e.label: e.count for e in self.by_group}


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise InvariantError(f"non-exact division in {what}: {num}/{den}")
    return num // den


def total_classes(params: ExtensionParams) -> int:
    """(1/ell) * (p^(ell n_K) - 1)/(p^ell - 1) * ((p^ell-1)^2 - (p-1)^2).

    The same closed value covers both inertia cases; depends only on
    (p, ell, n_K).  Refuses with CapacityError, before any power is taken,
    a census whose numbers could exceed OUTPUT_DIGIT_CAP digits: each is a
    geometric sum below p^(ell n_K) times a weight or pair count below
    p^(2 ell)."""
    p, ell, n = params.p, params.ell, params.n_k
    check_output_digits("census size p^(ell*n_K)", p, ell * n, p ** (2 * ell))
    geom = _exact_div(p ** (ell * n) - 1, p ** ell - 1, "total_classes geometric part")
    weight = (p ** ell - 1) ** 2 - (p - 1) ** 2
    return _exact_div(geom * weight, ell, "total_classes division by ell")


def degree_exponent(params: ExtensionParams) -> int:
    """Exponent d of the compositum degree p^d over the splitting field."""
    p, ell, n = params.p, params.ell, params.n_k
    if params.ell_divides_fk:
        return ((p ** ell - 1) ** 2 - (p - 1) ** 2) * n
    return (ell + 1) * (p ** ell - p) * (p - 1) * n


def _eligible_orders(params: ExtensionParams) -> list[int]:
    """c | p^ell - 1 with c not dividing p - 1, ascending."""
    p, ell = params.p, params.ell
    return [c for c in divisors(p ** ell - 1) if (p - 1) % c != 0]


def census_by_group(params: ExtensionParams) -> CensusReport:
    """Counts per normal-closure group."""
    total = total_classes(params)  # first: it checks the census size
    p, ell, n = params.p, params.ell, params.n_k
    entries: list[CensusEntry] = []
    if params.ell_divides_fk:
        geom = Fraction(p ** (ell * n) - 1, p ** ell - 1)
        for c in _eligible_orders(params):
            cnt = Fraction(order_pair_count(c, p ** ell - 1)) * geom / ell
            entries.append(_entry("cyclic", c, 0, cnt))
    else:
        geom_cyc = Fraction(p ** (ell * n) - 1, p ** ell - 1)
        geom_na = Fraction(p ** (ell * n) - 1, p - 1)
        for c in _eligible_orders(params):
            psi = order_pair_count(c, p - 1)
            lam = split_fraction(c, p, ell)
            entries.append(_entry("cyclic", c, 0, Fraction(psi) * geom_cyc / ell))
            entries.append(_entry("split", c, 0, lam * psi * geom_na / ell))
            ns_each = (1 - lam) / (ell - 1) * psi * geom_na / ell
            for j in range(1, ell):
                entries.append(_entry("nonsplit", c, j, ns_each))
    entries = [e for e in entries if e.count != 0]
    entries.sort(key=CensusEntry.sort_key)
    ok = sum(e.count for e in entries) == total and all(e.count > 0 for e in entries)
    return CensusReport(total=total, case_tag=params.case_tag,
                        by_group=tuple(entries), identity_ok=ok)


def _entry(kind: str, c: int, j: int, count: Fraction) -> CensusEntry:
    entry = CensusEntry(kind=kind, c=c, class_index=j, count=count.numerator)
    if count.denominator != 1:
        raise InvariantError(f"non-integral census entry {entry.label}: {count}")
    return entry
