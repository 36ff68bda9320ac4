"""Ramification filtration and discriminant of the big compositum.

The formulas here are evaluated exactly as displayed and never repaired:
where two routes disagree (closed discriminant exponent vs the filtration
sum, uniform per-jump drops vs the span profile) both numbers are
first-class outputs and the audit names the discrepancy.  All arithmetic
is exact (big integers and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .action import AuxFieldData, level_indices, span_profile
from .census import ExtensionParams, degree_exponent
from .errors import CapacityError, DomainError
from .arith import order_pair_count, order_pair_product, divisors

JUMP_COUNT_CAP = 10 ** 4


@dataclass(frozen=True)
class WildInputs:
    """Inputs of the filtration formulas; constructible from real
    parameters or synthetically for cross-checks."""

    p: int
    d: int        # F_p-dimension of the wild part
    e_f: int      # absolute ramification index of the auxiliary field
    f_f: int      # absolute inertia degree
    e_rel: int    # relative ramification index over the base
    f_rel: int    # relative inertia degree over the base

    @property
    def n_f(self) -> int:
        return self.e_f * self.f_f

    @property
    def degree_over_base(self) -> int:
        return self.e_rel * self.f_rel

    @staticmethod
    def from_params(params: ExtensionParams, aux: AuxFieldData) -> "WildInputs":
        return WildInputs(p=params.p, d=degree_exponent(params).exponent,
                          e_f=aux.e_total, f_f=aux.f_total,
                          e_rel=aux.e_rel, f_rel=aux.f_rel)


@dataclass(frozen=True)
class UpperDim:
    raw: int
    clamped: int
    negative: bool


def upper_dim(v, d: int, e_f: int, f_f: int, p: int) -> UpperDim:
    """Piecewise upper-numbering dimension: d on [-1, 1], then
    d - (jumps up to v) * f_F inside the window, 0 beyond.

    Evaluation is right-continuous: a jump at an integer v is already
    reflected at v, so the middle branch subtracts
    (floor(v) - floor(v/p)) * f_F.  Negative raw values are reported with
    a clamped companion rather than repaired.
    """
    v = Fraction(v)
    if v < -1:
        raise DomainError("upper numbering starts at -1")
    if v <= 1:
        return UpperDim(raw=d, clamped=max(d, 0), negative=d < 0)
    end = Fraction(p * e_f, p - 1) - 1
    if v > end:
        return UpperDim(raw=0, clamped=0, negative=False)
    drops = (v.numerator // v.denominator) - (v / p).numerator // (v / p).denominator
    raw = d - drops * f_f
    return UpperDim(raw=raw, clamped=max(raw, 0), negative=raw < 0)


@dataclass(frozen=True)
class JumpSchedule:
    """t(-1) = 0, t(0) = 1, and t(k) = t(k-1) + p^(k f_F), doubled when
    k = 0 mod (p-1), for 1 <= k <= e_F - 1."""

    t: tuple[int, ...]


@dataclass(frozen=True)
class RamificationProfile:
    p: int
    d: int
    e_f: int
    f_f: int
    e_rel: int
    f_rel: int
    schedule: JumpSchedule
    jumps: tuple[int, ...]               # -1, 0, t(0), ..., t(e_F - 1)
    segments: tuple[tuple[int, int, int], ...]  # (lo, hi], wild exponent
    flagged: bool                       # some wild exponent went negative

    @property
    def inertia_order(self) -> int:
        """|G_0| = p^d * e_rel (wild part times tame inertia)."""
        return self.p ** self.d * self.e_rel

    @property
    def full_order(self) -> int:
        return self.p ** self.d * self.e_rel * self.f_rel


def jump_schedule(inputs: WildInputs) -> RamificationProfile:
    """Lower-numbering schedule and sizes, flagged (not repaired) when the
    wild exponents d - k f_F underflow."""
    p, d, e_f, f_f = inputs.p, inputs.d, inputs.e_f, inputs.f_f
    if e_f > JUMP_COUNT_CAP:
        raise CapacityError(f"jump schedule needs e_F <= {JUMP_COUNT_CAP}")
    t = [0, 1]
    for k in range(1, e_f):
        step = p ** (k * f_f)
        if k % (p - 1) == 0:
            step *= 2
        t.append(t[-1] + step)
    segments = []
    flagged = d < (e_f - 1) * f_f
    for k in range(e_f):
        segments.append((t[k], t[k + 1], d - k * f_f))
    schedule = JumpSchedule(t=tuple(t))
    jumps = (-1, 0) + tuple(t[1:])
    return RamificationProfile(
        p=p, d=d, e_f=e_f, f_f=f_f, e_rel=inputs.e_rel, f_rel=inputs.f_rel,
        schedule=schedule, jumps=jumps, segments=tuple(segments),
        flagged=flagged)


def different_valuation(profile: RamificationProfile) -> int:
    """Sum over i >= 0 of (|G_i| - 1), by exact segment algebra (the
    i = 0 term uses the inertia order; wild segments use their lengths)."""
    if profile.flagged:
        raise DomainError("profile has negative wild exponents; different "
                          "valuation undefined")
    p = profile.p
    total = profile.inertia_order - 1
    for lo, hi, exp in profile.segments:
        total += (p ** exp - 1) * (hi - lo)
    return total


# ---------------------------------------------------------------------------
# Herbrand conversion

@dataclass(frozen=True)
class HerbrandMap:
    """Exact piecewise-linear correspondence between lower and upper
    numbering for the wild part (totally wildly ramified, so the unit
    slope segment is [0, 1])."""

    vertices: tuple[tuple[Fraction, Fraction], ...]  # (lower u, upper phi(u))
    end_slope: Fraction

    def to_upper(self, u) -> Fraction:
        u = Fraction(u)
        if u < 0:
            return u
        verts = self.vertices
        for (u0, f0), (u1, f1) in zip(verts, verts[1:]):
            if u <= u1:
                return f0 + (f1 - f0) * (u - u0) / (u1 - u0)
        u_last, f_last = verts[-1]
        return f_last + self.end_slope * (u - u_last)

    def to_lower(self, v) -> Fraction:
        v = Fraction(v)
        if v < 0:
            return v
        verts = self.vertices
        for (u0, f0), (u1, f1) in zip(verts, verts[1:]):
            if v <= f1:
                return u0 + (u1 - u0) * (v - f0) / (f1 - f0)
        u_last, f_last = verts[-1]
        return u_last + (v - f_last) / self.end_slope


def herbrand_convert(profile: RamificationProfile) -> HerbrandMap:
    """phi(u) = integral of |G_w|/|G_0| over the wild filtration, with
    exact rational breakpoints; to_upper and to_lower invert each other."""
    p, d = profile.p, profile.d
    verts = [(Fraction(0), Fraction(0))]
    u_prev = Fraction(0)
    f_prev = Fraction(0)
    for lo, hi, exp in profile.segments:
        slope = Fraction(p ** exp, p ** d)
        u_next = Fraction(hi)
        f_next = f_prev + slope * (u_next - u_prev)
        verts.append((u_next, f_next))
        u_prev, f_prev = u_next, f_next
    return HerbrandMap(vertices=tuple(verts), end_slope=Fraction(1, p ** d))


# ---------------------------------------------------------------------------
# discriminant

@dataclass(frozen=True)
class DiscriminantReport:
    alpha_closed: Fraction
    closed_exact: bool
    different_valuation: int | None
    alpha_direct: int | None
    agree: bool | None
    flagged: str | None


def disc_exponent_closed(inputs: WildInputs) -> tuple[Fraction, bool]:
    """The closed discriminant exponent exactly as displayed:
    f_rel * (([F:K] - 1 + (p(e_F+1)-1)/(p-1)) p^d - 1
             - (p^n_F - 1)/(p^f_F - 1) - (p^n_F - 1)/(p^((p-1) f_F) - 1)).

    Returns (value, exact); a fractional value is reported, not rounded.
    """
    p, d, e_f, f_f = inputs.p, inputs.d, inputs.e_f, inputs.f_f
    n_f = inputs.n_f
    if d > 10 ** 6 or n_f > 10 ** 6:
        raise CapacityError("discriminant exponent operands too large")
    val = Fraction(inputs.degree_over_base - 1) + Fraction(p * (e_f + 1) - 1, p - 1)
    val = val * p ** d - 1
    val -= Fraction(p ** n_f - 1, p ** f_f - 1)
    val -= Fraction(p ** n_f - 1, p ** ((p - 1) * f_f) - 1)
    val *= inputs.f_rel
    return val, val.denominator == 1


def discriminant_report(inputs: WildInputs) -> DiscriminantReport:
    """Closed formula vs f_rel times the filtration different."""
    closed, exact = disc_exponent_closed(inputs)
    profile = jump_schedule(inputs)
    if profile.flagged:
        return DiscriminantReport(alpha_closed=closed, closed_exact=exact,
                                  different_valuation=None, alpha_direct=None,
                                  agree=None, flagged="wild exponent underflow")
    dv = different_valuation(profile)
    direct = inputs.f_rel * dv
    agree = exact and closed == direct
    return DiscriminantReport(alpha_closed=closed, closed_exact=exact,
                              different_valuation=dv, alpha_direct=direct,
                              agree=agree, flagged=None)


# ---------------------------------------------------------------------------
# the audit

SYNTHETIC_DISC_INPUTS = WildInputs(p=3, d=2, e_f=2, f_f=1, e_rel=2, f_rel=1)


@dataclass(frozen=True)
class AuditItem:
    name: str
    verdict: str            # "agree" | "disagree" | "skipped"
    detail: dict


@dataclass(frozen=True)
class AuditReport:
    items: tuple[AuditItem, ...]
    disagreements: tuple[str, ...]

    def item(self, name: str) -> AuditItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def audit(params: ExtensionParams, aux: AuxFieldData) -> AuditReport:
    """Deterministic cross-validation report.

    (a) whether the uniform per-jump drops sum to the wild dimension;
    (b) the span profile's per-level dimensions against those uniform
        drops, compared as multisets;
    (c) closed discriminant exponent vs the filtration route, at these
        parameters when the schedule is sound plus a fixed synthetic
        exemplar; (d) pair-count vs product-form divergences.
    Disagreement is data, not an error.
    """
    items: list[AuditItem] = []
    p, ell = params.p, params.ell
    d = degree_exponent(params).exponent
    f_f = aux.f_total
    # the jump integers are the level indices
    jumps_over_cap = CapacityError("jump integer enumeration over capacity")
    jumps = None if aux.e_total > 10 ** 6 else level_indices(aux)

    # (a) total of the uniform drops vs d
    try:
        if jumps is None:
            raise jumps_over_cap
        n_jumps = len(jumps)
        uniform_total = n_jumps * f_f
        verdict = "agree" if uniform_total == d else "disagree"
        detail = {"d": d, "uniform_drop_total": uniform_total,
                  "jump_count": n_jumps, "per_jump_drop": f_f}
    except CapacityError as exc:
        verdict, detail = "skipped", {"reason": str(exc)}
    items.append(AuditItem("uniform_drops_vs_dimension", verdict, detail))

    # (b) span profile multiset vs uniform drops
    try:
        prof = span_profile(params, aux)
        if jumps is None:
            raise jumps_over_cap
        uniform = (f_f,) * len(jumps)
        mine = prof.dims_multiset()
        verdict = "agree" if uniform == mine else "disagree"
        detail = {"span_multiset": list(mine), "uniform_multiset": list(uniform),
                  "span_total": prof.total, "d": d,
                  "span_total_equals_d": prof.matches_degree_exponent}
    except CapacityError as exc:
        verdict, detail = "skipped", {"reason": str(exc)}
    items.append(AuditItem("span_vs_uniform_drops", verdict, detail))

    # (c) discriminant, both at-parameters and the synthetic exemplar
    detail = {}
    try:
        own = discriminant_report(WildInputs.from_params(params, aux))
        detail["at_params"] = _disc_detail(own)
        own_verdict = ("flagged" if own.flagged else
                       "agree" if own.agree else "disagree")
    except CapacityError as exc:
        detail["at_params"] = {"skipped": str(exc)}
        own_verdict = "skipped"
    synth = discriminant_report(SYNTHETIC_DISC_INPUTS)
    detail["synthetic"] = _disc_detail(synth)
    detail["synthetic"]["inputs"] = {
        "p": 3, "d": 2, "e_F": 2, "f_F": 1, "degree_over_base": 2}
    verdict = "disagree" if (own_verdict == "disagree" or not synth.agree) \
        else own_verdict
    items.append(AuditItem("discriminant_two_routes", verdict, detail))

    # (d) pair count vs product form
    instances = []
    pairs = {(4, 2)}
    pairs.update((c, p - 1) for c in divisors(p ** ell - 1))
    for a, b in sorted(pairs):
        cnt = order_pair_count(a, b)
        prod = order_pair_product(a, b)
        if cnt != prod:
            instances.append({"a": a, "b": b, "count": cnt, "product": prod})
    items.append(AuditItem(
        "pair_count_vs_product", "disagree" if instances else "agree",
        {"divergences": instances}))

    disagreements = tuple(it.name for it in items if it.verdict == "disagree")
    return AuditReport(items=tuple(items), disagreements=disagreements)


def _disc_detail(rep: DiscriminantReport) -> dict:
    return {
        "alpha_closed": str(rep.alpha_closed),
        "closed_exact": rep.closed_exact,
        "different_valuation": rep.different_valuation,
        "alpha_direct": rep.alpha_direct,
        "agree": rep.agree,
        "flagged": rep.flagged,
    }
