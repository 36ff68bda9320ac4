"""Smoke grid behind the `selftest` CLI command.

A few pinned results, one suite per route, that an installed package
checks in seconds; the property checks live in the pytest suite.
Failures are collected, never raised, so the summary always prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .census import ExtensionParams, census_by_group
from .groups import catalog
from .oracle import oracle_census
from .ramify import SYNTHETIC_DISC_INPUTS, discriminant_report

FROZEN_TOTALS = {(2, 3, 1, 1): 16, (3, 2, 1, 1): 30, (5, 2, 1, 2): 7280,
                 (2, 3, 1, 3): 1168}
SMALL_POINTS = ((2, 3, 1, 1), (3, 2, 1, 1))


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if len(self.notes) < 8:
                self.notes.append(note)


def run_all(parallelism: int = 1) -> list[SuiteResult]:
    census = SuiteResult("census")
    for point, want in FROZEN_TOTALS.items():
        rep = census_by_group(ExtensionParams(*point))
        census.check(rep.total == want, f"frozen total mismatch at {point}")
        census.check(rep.identity_ok, f"cross-sum identity fails at {point}")
    groups = SuiteResult("groups")
    oracle = SuiteResult("oracle")
    for point in SMALL_POINTS:
        params = ExtensionParams(*point)
        for e in catalog(params):
            groups.check(e.matrix_order == e.expected_matrix_order,
                         f"closure order mismatch for {e.descriptor.label} "
                         f"at {point}")
        oc = oracle_census(params, parallelism=parallelism)
        oracle.check(oc.matches_closed_form,
                     f"oracle census disagrees with closed form at {point}")
    ramify = SuiteResult("ramify")
    disc = discriminant_report(SYNTHETIC_DISC_INPUTS)
    ramify.check((disc.alpha_closed, disc.alpha_direct, disc.agree)
                 == (39, 31, False), "synthetic discriminant routes wrong")
    return [census, groups, oracle, ramify]
