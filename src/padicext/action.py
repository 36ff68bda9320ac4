"""Bookkeeping for the acting group and its unit-filtration modules.

Everything in this module is exponent arithmetic: characters of the
metacyclic group are tracked as residue pairs (t mod e, b mod m) rather
than as field elements, which keeps the census-side bookkeeping (level
lists, irreducible-piece dimensions, multiplicities, the span profile)
exact and cheap.  The heavy explicit realization lives in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

from .arith import closure, multiplicative_order
from .census import ExtensionParams, degree_exponent
from .errors import CapacityError, DomainError, InvariantError

BOOKKEEPING_CAP = 10 ** 6  # max e*f for per-class enumeration
SPAN_PROFILE_CAP = 10 ** 5  # max e_F and f_rel for the span profile

DEFAULT_DERIVATION = "default_derivation"
USER_OVERRIDE = "user_override"


@dataclass(frozen=True)
class AuxFieldData:
    """Relative invariants of the auxiliary splitting field.

    e_rel and f_rel are the ramification index and inertia degree over the
    base field; absolute values multiply in e_K, f_K.  The derivation of
    the defaults is validated empirically by the oracle/census agreement,
    and every report records which values produced it.
    """

    p: int
    ell: int
    e_k: int
    f_k: int
    e_rel: int
    f_rel: int
    source: str

    def __post_init__(self) -> None:
        p = self.p
        if p == self.ell:
            raise DomainError("the auxiliary construction requires p != ell")
        if self.e_rel < 1 or self.f_rel < 1:
            raise DomainError(
                f"e_rel and f_rel must be positive, got e_rel = {self.e_rel}, "
                f"f_rel = {self.f_rel}")
        if gcd(self.e_rel * self.f_rel, p) != 1:
            raise DomainError(
                f"group order e_rel*f_rel = {self.e_rel}*{self.f_rel} must be "
                f"prime to p = {p}")
        if (pow(p, self.f_k * self.f_rel, self.e_rel) - 1) % self.e_rel != 0:
            raise DomainError(
                f"tameness violated: e_rel = {self.e_rel} does not divide "
                f"p^(f_K*f_rel) - 1")

    @property
    def e_total(self) -> int:
        return self.e_k * self.e_rel

    @property
    def f_total(self) -> int:
        return self.f_k * self.f_rel

    @property
    def n_total(self) -> int:
        return self.e_total * self.f_total

    @property
    def q(self) -> int:
        """p^f_K mod e_rel, the exponent of v's conjugation action on tau."""
        return pow(self.p, self.f_k, self.e_rel)

    @property
    def level_bound(self) -> Fraction:
        """p*e_F/(p-1), the open upper end of the level range."""
        return Fraction(self.p * self.e_total, self.p - 1)


def default_aux_data(params: ExtensionParams) -> AuxFieldData:
    """Default relative invariants: e_rel = p^ell - 1 and
    f_rel = lcm(p^ell - 1, ell*(p-1)), the ell factor dropped when
    ell | f_K."""
    p, ell = params.p, params.ell
    e_rel = p ** ell - 1
    factor = (1 if params.ell_divides_fk else ell) * (p - 1)
    f_rel = lcm(e_rel, factor)
    return AuxFieldData(p=p, ell=ell, e_k=params.e_k, f_k=params.f_k,
                        e_rel=e_rel, f_rel=f_rel, source=DEFAULT_DERIVATION)


def make_aux_data(params: ExtensionParams, e_rel: int, f_rel: int) -> AuxFieldData:
    """User-specified relative invariants (validated, marked as override)."""
    return AuxFieldData(p=params.p, ell=params.ell, e_k=params.e_k,
                        f_k=params.f_k, e_rel=e_rel, f_rel=f_rel,
                        source=USER_OVERRIDE)


# ---------------------------------------------------------------------------
# levels

def level_indices(aux: AuxFieldData) -> list[int]:
    """Integers prime to p in the open interval (0, p*e_F/(p-1))."""
    return [i for i in range(1, ceil(aux.level_bound)) if i % aux.p]


@dataclass(frozen=True)
class LevelAlphaData:
    alpha_order: int
    r: int               # degree of the tau character value
    s: int               # size of its q-power orbit
    q_orbit: tuple[int, ...]


def _orbit(x: int, mult: int, mod: int) -> tuple[int, ...]:
    """The orbit of x in Z/mod under y -> mult*y, sorted."""
    return tuple(sorted(closure(x, (mult,), lambda y, g: y * g % mod,
                                BOOKKEEPING_CAP)))


def level_alpha_data(aux: AuxFieldData, i: int) -> LevelAlphaData:
    e = aux.e_rel
    t0 = i % e
    alpha_order = e // gcd(e, t0)
    r = multiplicative_order(aux.p, alpha_order)
    s = r // gcd(r, aux.f_k)
    orbit = _orbit(t0, aux.q, e)
    if len(orbit) != s:
        raise InvariantError(
            f"q-orbit size {len(orbit)} != r/(r,f_K) = {s} at level {i}")
    return LevelAlphaData(alpha_order=alpha_order, r=r, s=s, q_orbit=orbit)


@dataclass(frozen=True)
class BetaPiece:
    """An irreducible piece, keyed by the Frobenius orbit of its second
    character value b in Z/m."""

    beta_orbit: tuple[int, ...]  # the p-orbit of b in Z/m, sorted
    beta_order: int
    w: int                  # degree of the beta character value
    d: int                  # field-of-definition degree lcm(w, (r, f_K))
    dim_over_fp: int        # lcm(r w/(r,f_K), r)

    @property
    def beta_exp(self) -> int:  # canonical b (min of the p-orbit in Z/m)
        return self.beta_orbit[0]


@lru_cache(maxsize=4096)
def beta_pieces(p: int, m: int, r: int, f_k: int) -> tuple[BetaPiece, ...]:
    """One piece per orbit of Z/m under b -> p*b, ascending by minimum, for
    a tau character value of degree r; the one place a piece is derived."""
    g = gcd(r, f_k)
    pieces = []
    seen: set[int] = set()
    for b in range(m):
        if b in seen:
            continue
        orbit = _orbit(b, p, m)
        seen.update(orbit)
        beta_order = m // gcd(m, b)
        w = multiplicative_order(p, beta_order)
        if w != len(orbit):
            raise InvariantError(
                f"beta orbit of {b} mod {m} has size {len(orbit)} != w = {w}")
        pieces.append(BetaPiece(beta_orbit=orbit, beta_order=beta_order, w=w,
                                d=lcm(w, g), dim_over_fp=lcm(r * w // g, r)))
    return tuple(pieces)


def _level_pieces(i: int, aux: AuxFieldData) -> tuple:
    """Level i's alpha data, m = f_rel // s and beta pieces, after the
    dimension audit sum(w)*s*f_K = f_F (it fails if s does not divide f_rel)."""
    ad = level_alpha_data(aux, i)
    m = aux.f_rel // ad.s
    pieces = beta_pieces(aux.p, m, ad.r, aux.f_k)
    total = sum(pc.w for pc in pieces) * ad.s * aux.f_k
    if total != aux.f_total:
        raise InvariantError(
            f"level {i} dimension audit failed: {total} != f_F = {aux.f_total}")
    return ad, m, pieces


@dataclass(frozen=True)
class LevelConstituent(BetaPiece):
    """One irreducible piece of a level module: a beta piece at one level."""

    level: int
    alpha_exp: int          # canonical t (min of the q-orbit)
    beta_modulus: int       # m = f/s
    alpha_order: int
    r: int
    s: int
    multiplicity_in_level: int   # f_K
    global_multiplicity: int     # s * n_K
    level_dim_contribution: int  # w * s * f_K


def constituents(i: int, aux: AuxFieldData) -> list[LevelConstituent]:
    """Decomposition bookkeeping for one level, dimension audit enforced."""
    ad, m, pieces = _level_pieces(i, aux)
    return [LevelConstituent(
        **vars(pc), level=i, alpha_exp=ad.q_orbit[0], beta_modulus=m,
        alpha_order=ad.alpha_order, r=ad.r, s=ad.s, multiplicity_in_level=aux.f_k,
        global_multiplicity=ad.s * aux.e_k * aux.f_k,
        level_dim_contribution=pc.w * ad.s * aux.f_k) for pc in pieces]


# ---------------------------------------------------------------------------
# global character classes

@dataclass(frozen=True)
class PairClass:
    """Galois class of character pairs: orbit of (t mod e, b mod m) under
    (t,b) -> (qt, b) and (t,b) -> (pt, pb)."""

    t: int
    b: int
    beta_order: int
    c: int                       # lcm of the two orders
    s: int
    d: int
    t_set: tuple[int, ...]       # distinct first components
    levels: tuple[int, ...]      # levels whose module contains this class
    mult_by_level: tuple[int, ...]
    global_multiplicity: int     # s * n_K


def pair_classes(aux: AuxFieldData, dim_filter: int | None = None) -> list[PairClass]:
    """All character pair classes (optionally only those of one F_p
    dimension), with level presence and multiplicities resolved."""
    e, f, p, q, f_k = aux.e_rel, aux.f_rel, aux.p, aux.q, aux.f_k
    if e * f > BOOKKEEPING_CAP:
        raise CapacityError(f"pair class enumeration needs e*f <= {BOOKKEEPING_CAP}")
    levels = level_indices(aux)
    alpha_by_residue = {t: level_alpha_data(aux, t if t else e) for t in range(e)}
    classes: list[PairClass] = []
    seen: set[tuple[int, int]] = set()
    for t0 in range(e):
        ad = alpha_by_residue[t0]
        m = f // ad.s
        # a class stays inside one beta piece, so a filtered piece holds none
        for piece in beta_pieces(p, m, ad.r, f_k):
            if dim_filter is not None and piece.dim_over_fp != dim_filter:
                continue
            for b0 in piece.beta_orbit:
                if (t0, b0) in seen:
                    continue
                # (t, b) -> (q t, b) and (t, b) -> (p t, p b)
                orbit = closure((t0, b0), ((q, 1), (p, p)),
                                lambda tb, g: (tb[0] * g[0] % e, tb[1] * g[1] % m),
                                BOOKKEEPING_CAP)
                seen.update(orbit)
                t_set = tuple(sorted({t for t, _ in orbit}))
                class_levels, mults = [], []
                ds = piece.d * ad.s
                for i in levels:
                    if i % e not in t_set:
                        continue
                    q_orbit = alpha_by_residue[i % e].q_orbit
                    raw = f_k * sum(1 for t, _ in orbit if t in q_orbit)
                    if raw % ds != 0:
                        raise InvariantError(f"non-integral multiplicity at level {i}")
                    if raw:
                        class_levels.append(i)
                        mults.append(raw // ds)
                key = min(orbit)
                pc = PairClass(
                    t=key[0], b=key[1], beta_order=piece.beta_order,
                    c=lcm(ad.alpha_order, piece.beta_order), s=ad.s, d=piece.d,
                    t_set=t_set, levels=tuple(class_levels),
                    mult_by_level=tuple(mults),
                    global_multiplicity=ad.s * aux.e_k * f_k)
                if sum(mults) != pc.global_multiplicity:
                    raise InvariantError(
                        f"class {key}: level multiplicities {mults} do not sum to "
                        f"s*n_K = {pc.global_multiplicity}")
                classes.append(pc)
    classes.sort(key=lambda c: (c.t, c.b))
    return classes


# ---------------------------------------------------------------------------
# span of the target-dimension irreducibles

@dataclass(frozen=True)
class SpanProfile:
    per_level: tuple[tuple[int, int], ...]  # (level, dimension)
    total: int
    degree_exp: int
    matches_degree_exponent: bool

    def dims_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(d for _, d in self.per_level))


def span_profile(params: ExtensionParams, aux: AuxFieldData) -> SpanProfile:
    """Per-level dimensions of the span of all irreducible submodules of
    dimension ell, from the beta pieces alone; the total is compared (not
    forced) against the closed degree exponent."""
    if aux.e_total > SPAN_PROFILE_CAP or aux.f_rel > SPAN_PROFILE_CAP:
        raise CapacityError(
            f"span profile needs e_F = {aux.e_total} and f_rel = {aux.f_rel} "
            f"at most SPAN_PROFILE_CAP = {SPAN_PROFILE_CAP}")
    ell = params.ell
    per_level = []
    for i in level_indices(aux):
        ad, _, pieces = _level_pieces(i, aux)
        per_level.append(
            (i, sum(pc.w for pc in pieces if pc.dim_over_fp == ell) * ad.s * aux.f_k))
    total = sum(d for _, d in per_level)
    d_exp = degree_exponent(params)
    return SpanProfile(per_level=tuple(per_level), total=total,
                       degree_exp=d_exp,
                       matches_degree_exponent=(total == d_exp))
