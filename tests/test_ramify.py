"""Filtration, Herbrand conversion, discriminant routes, and the audit."""

from fractions import Fraction

import pytest

from padicext.action import default_aux_data, level_indices, make_aux_data
from padicext.census import ExtensionParams
from padicext.errors import DomainError
from padicext.ramify import (WildInputs, audit, different_valuation,
                             disc_exponent_closed, discriminant_report,
                             herbrand_convert, jump_schedule)

SYN = WildInputs(p=3, d=2, e_f=2, f_f=1, e_rel=2, f_rel=1)


def different_valuation_literal(profile) -> int:
    """Reference for the segment algebra: one term per index i."""
    if profile.flagged:
        raise DomainError("flagged profile")
    p = profile.p
    total = profile.inertia_order - 1
    for lo, hi, exp in profile.segments:
        for _ in range(lo + 1, hi + 1):
            total += p ** exp - 1
    return total


PROFILE_GRID = [
    SYN,
    WildInputs(p=2, d=6, e_f=3, f_f=2, e_rel=3, f_rel=2),
    WildInputs(p=2, d=4, e_f=1, f_f=1, e_rel=1, f_rel=1),
    WildInputs(p=3, d=8, e_f=3, f_f=2, e_rel=3, f_rel=1),
    WildInputs(p=5, d=9, e_f=3, f_f=2, e_rel=3, f_rel=2),
    WildInputs(p=7, d=6, e_f=2, f_f=2, e_rel=2, f_rel=3),
]


def test_jump_schedule_synthetic():
    prof = jump_schedule(SYN)
    assert prof.t == (0, 1, 4)  # t(1) = 1 + 3^1 (1 not = 0 mod p-1)
    assert prof.jumps == (-1, 0, 1, 4)
    assert len(prof.jumps) == SYN.e_f + 2
    assert prof.segments == ((0, 1, 2), (1, 4, 1))
    assert not prof.flagged


def jump_schedule_reference(p: int, e_f: int, f_f: int) -> tuple[int, ...]:
    """t(k) = t(k-1) + p^(k f_F), doubled when k = 0 mod (p-1), with one
    fresh power per k, as the schedule is displayed."""
    t = [0, 1]
    for k in range(1, e_f):
        step = pow(p, k * f_f)
        if k % (p - 1) == 0:
            step *= 2
        t.append(t[-1] + step)
    return tuple(t)


def test_jump_schedule_matches_per_k_power_reference():
    for p in (2, 3, 5, 7):
        for e_f in range(1, 31):
            for f_f in range(1, 6):
                prof = jump_schedule(WildInputs(p=p, d=e_f * f_f, e_f=e_f,
                                                f_f=f_f, e_rel=1, f_rel=1))
                assert prof.t == jump_schedule_reference(
                    p, e_f, f_f), (p, e_f, f_f)


def test_jump_schedule_doubles_on_multiples_of_p_minus_one():
    prof = jump_schedule(WildInputs(p=3, d=8, e_f=3, f_f=2, e_rel=3, f_rel=1))
    # k=1: +3^2; k=2 (= 0 mod 2): +2*3^4
    assert prof.t == (0, 1, 10, 172)


def test_jump_schedule_degenerate_index_one():
    prof = jump_schedule(WildInputs(p=2, d=1, e_f=1, f_f=1, e_rel=1, f_rel=1))
    assert prof.t == (0, 1)
    assert len(prof.jumps) == 3


def test_jump_count_is_index_plus_two():
    for inputs in PROFILE_GRID:
        prof = jump_schedule(inputs)
        assert len(set(prof.jumps)) == inputs.e_f + 2


def test_different_valuation_synthetic():
    prof = jump_schedule(SYN)
    assert different_valuation(prof) == 31  # 17 + 8 + 6
    assert different_valuation_literal(prof) == 31


def test_different_segment_algebra_equals_literal_sum():
    for inputs in PROFILE_GRID:
        prof = jump_schedule(inputs)
        if prof.flagged or prof.t[-1] > 10 ** 4:
            continue
        assert different_valuation(prof) == different_valuation_literal(prof)


def test_flagged_profile_propagates():
    flagged = jump_schedule(WildInputs(p=2, d=3, e_f=7, f_f=21,
                                       e_rel=7, f_rel=21))
    assert flagged.flagged
    with pytest.raises(DomainError):
        different_valuation(flagged)


def test_herbrand_round_trip_exact():
    for inputs in PROFILE_GRID:
        prof = jump_schedule(inputs)
        if prof.flagged:
            continue
        h = herbrand_convert(prof)
        samples = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2),
                   Fraction(7, 3), Fraction(5), Fraction(19, 7),
                   Fraction(prof.t[-1]),
                   Fraction(prof.t[-1] + 5)]
        for x in samples:
            assert h.to_lower(h.to_upper(x)) == x
            assert h.to_upper(h.to_lower(x)) == x


def test_herbrand_trivial_filtration_is_identity():
    prof = jump_schedule(WildInputs(p=2, d=0, e_f=1, f_f=1, e_rel=1, f_rel=1))
    h = herbrand_convert(prof)
    for x in (0, 1, Fraction(5, 2), 17):
        assert h.to_upper(x) == Fraction(x)


def test_single_wild_jump_maps_to_itself():
    # depth-one profile: the only jump is at t = 1 in both numberings
    prof = jump_schedule(WildInputs(p=2, d=1, e_f=1, f_f=1, e_rel=1, f_rel=1))
    h = herbrand_convert(prof)
    assert h.to_upper(1) == 1
    assert h.to_lower(1) == 1


def test_disc_exponent_closed_values():
    val, exact = disc_exponent_closed(SYN)
    assert (val, exact) == (39, True)
    v2, e2 = disc_exponent_closed(WildInputs(p=2, d=1, e_f=1, f_f=1,
                                             e_rel=1, f_rel=1))
    assert (v2, e2) == (3, True)
    # doubling the relative inertia degree doubles the exponent
    a1, _ = disc_exponent_closed(WildInputs(p=3, d=2, e_f=2, f_f=1,
                                            e_rel=2, f_rel=1))
    a2, _ = disc_exponent_closed(WildInputs(p=3, d=2, e_f=2, f_f=1,
                                            e_rel=1, f_rel=2))
    assert a2 == 2 * a1


def test_disc_exponent_fractional_is_flagged_not_rounded():
    val, exact = disc_exponent_closed(WildInputs(p=5, d=2, e_f=2, f_f=1,
                                                 e_rel=2, f_rel=1))
    assert not exact and val.denominator > 1


def test_discriminant_report_synthetic_disagreement():
    rep = discriminant_report(SYN)
    assert rep.alpha_closed == 39
    assert rep.different_valuation == 31
    assert rep.alpha_direct == 31
    assert rep.agree is False


def test_audit_q2_items():
    params = ExtensionParams(2, 3, 1, 1)
    report = audit(params, default_aux_data(params))
    assert set(report.disagreements) >= {"span_vs_uniform_drops",
                                         "pair_count_vs_product"}
    b = report.item("span_vs_uniform_drops")
    assert b.verdict == "disagree"
    assert b.detail["span_multiset"] == [3, 3, 3, 3, 3, 3, 6]
    assert b.detail["uniform_multiset"] == [21] * 7
    assert b.detail["span_total"] == 24 and b.detail["span_total_equals_d"]
    c = report.item("discriminant_two_routes")
    assert c.detail["synthetic"]["alpha_closed"] == "39"
    assert c.detail["synthetic"]["alpha_direct"] == 31
    d = report.item("pair_count_vs_product")
    assert {"a": 4, "b": 2, "count": 4, "product": 6} in d.detail["divergences"]


def test_audit_deterministic():
    params = ExtensionParams(3, 2, 1, 1)
    aux = default_aux_data(params)
    assert audit(params, aux) == audit(params, aux)


def test_audit_degrades_gracefully_at_huge_parameters():
    params = ExtensionParams(13, 11, 2, 3)
    rep = audit(params, default_aux_data(params))
    assert rep.item("uniform_drops_vs_dimension").verdict == "skipped"
    assert rep.item("span_vs_uniform_drops").verdict == "skipped"
    # the fixed synthetic exemplar is always present
    synth = rep.item("discriminant_two_routes").detail["synthetic"]
    assert synth["alpha_direct"] == 31 and synth["alpha_closed"] == "39"


def test_audit_jump_count_and_cap_message():
    # the jump integers are the level indices; past e_F = BOOKKEEPING_CAP
    # the item is skipped with a reason naming the cap and e_F
    params = ExtensionParams(2, 3, 1, 1)
    aux = default_aux_data(params)
    a = audit(params, aux).item("uniform_drops_vs_dimension")
    assert a.detail["jump_count"] == len(level_indices(aux)) == 7
    big = make_aux_data(params, 2 ** 21 - 1, 21)
    a = audit(params, big).item("uniform_drops_vs_dimension")
    assert (a.verdict, a.detail) == (
        "skipped", {"reason": "jump integer enumeration needs e_F <= "
                              "BOOKKEEPING_CAP = 1000000, got e_F = 2097151"})
