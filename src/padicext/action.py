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
from math import gcd, lcm

from .arith import closure, multiplicative_order
from .census import ExtensionParams, degree_exponent
from .errors import CapacityError, DomainError, InvariantError

BOOKKEEPING_CAP = 10 ** 6  # max e*f for per-class enumeration

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
    def level_bound(self) -> Fraction:
        """p*e_F/(p-1), the open upper end of the level range."""
        return Fraction(self.p * self.e_total, self.p - 1)


def default_aux_data(params: ExtensionParams) -> AuxFieldData:
    """Default relative invariants: e_rel = p^ell - 1 and
    f_rel = lcm(p^ell - 1, ell*(p-1)), the ell factor dropped when
    ell | f_K."""
    if params.p == params.ell:
        raise DomainError("the auxiliary construction requires p != ell")
    p, ell = params.p, params.ell
    e_rel = p ** ell - 1
    factor = (1 if params.ell_divides_fk else ell) * (p - 1)
    f_rel = lcm(e_rel, factor)
    return AuxFieldData(p=p, ell=ell, e_k=params.e_k, f_k=params.f_k,
                        e_rel=e_rel, f_rel=f_rel, source=DEFAULT_DERIVATION)


def make_aux_data(params: ExtensionParams, e_rel: int, f_rel: int) -> AuxFieldData:
    """User-specified relative invariants (validated, marked as override)."""
    if params.p == params.ell:
        raise DomainError("the auxiliary construction requires p != ell")
    return AuxFieldData(p=params.p, ell=params.ell, e_k=params.e_k,
                        f_k=params.f_k, e_rel=e_rel, f_rel=f_rel,
                        source=USER_OVERRIDE)


# ---------------------------------------------------------------------------
# the acting group

@dataclass(frozen=True)
class MetacyclicGroup:
    """<tau, v | v tau v^-1 = tau^q, tau^e = 1, v^f = 1> as pairs
    (a mod e, b mod f) with (a,b)*(a',b') = (a + q^b a', b + b')."""

    e: int
    f: int
    q: int

    def __post_init__(self) -> None:
        if pow(self.q, self.f, self.e) % self.e != 1 % self.e:
            raise DomainError(f"q^f != 1 mod e for q={self.q}, e={self.e}, f={self.f}")

    @property
    def order(self) -> int:
        return self.e * self.f

    def identity(self) -> tuple[int, int]:
        return (0, 0)

    def tau(self) -> tuple[int, int]:
        return (1 % self.e, 0)

    def v(self) -> tuple[int, int]:
        return (0, 1 % self.f)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        a2, b2 = y
        return ((a + pow(self.q, b, self.e) * a2) % self.e, (b + b2) % self.f)

    def inv(self, x: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        qb = pow(self.q, b, self.e)
        # inverse of q^b mod e exists since gcd(q, e) = 1
        inv_qb = pow(qb, -1, self.e)
        return ((-a * inv_qb) % self.e, (-b) % self.f)

    def element_order(self, x: tuple[int, int]) -> int:
        y = x
        k = 1
        while y != self.identity():
            y = self.mul(y, x)
            k += 1
        return k


def build_group(aux: AuxFieldData) -> MetacyclicGroup:
    q = pow(aux.p, aux.f_k, aux.e_rel) if aux.e_rel > 1 else 0
    return MetacyclicGroup(e=aux.e_rel, f=aux.f_rel, q=q)


# ---------------------------------------------------------------------------
# levels

def level_indices(aux: AuxFieldData) -> list[int]:
    """Integers prime to p in the open interval (0, p*e_F/(p-1))."""
    bound = aux.level_bound
    out = []
    i = 1
    while Fraction(i) < bound:
        if i % aux.p != 0:
            out.append(i)
        i += 1
    return out


@dataclass(frozen=True)
class LevelAlphaData:
    t0: int              # i mod e, exponent of the fixed e-th root
    alpha_order: int
    r: int               # degree of the tau character value
    s: int               # size of its q-power orbit
    q_orbit: tuple[int, ...]


def level_alpha_data(aux: AuxFieldData, i: int) -> LevelAlphaData:
    e = aux.e_rel
    t0 = i % e
    alpha_order = e // gcd(e, t0) if t0 else 1
    r = multiplicative_order(aux.p, alpha_order)
    s = r // gcd(r, aux.f_k)
    q = pow(aux.p, aux.f_k, e) if e > 1 else 0
    orbit = [t0]
    t = t0 * q % e
    while t != t0:
        orbit.append(t)
        t = t * q % e
    if len(orbit) != s:
        raise InvariantError(
            f"q-orbit size {len(orbit)} != r/(r,f_K) = {s} at level {i}")
    return LevelAlphaData(t0=t0, alpha_order=alpha_order, r=r, s=s,
                          q_orbit=tuple(sorted(orbit)))


def residue_orbits(m: int, mult: int) -> list[tuple[int, ...]]:
    """Orbits of Z/m under multiplication by mult, sorted by minimum."""
    seen = [False] * m
    orbits = []
    for b in range(m):
        if seen[b]:
            continue
        orbit = [b]
        seen[b] = True
        x = b * mult % m
        while x != b:
            seen[x] = True
            orbit.append(x)
            x = x * mult % m
        orbits.append(tuple(sorted(orbit)))
    return orbits


@dataclass(frozen=True)
class LevelConstituent:
    """One irreducible piece of a level module, keyed by the Frobenius
    orbit of its second character value."""

    level: int
    alpha_exp: int          # canonical t (min of the q-orbit)
    beta_exp: int           # canonical b (min of the p-orbit in Z/m)
    beta_modulus: int       # m = f/s
    alpha_order: int
    beta_order: int
    r: int
    w: int
    s: int
    d: int                  # field-of-definition degree lcm(w, (r, f_K))
    dim_over_fp: int        # lcm(r w/(r,f_K), r)
    multiplicity_in_level: int   # f_K
    global_multiplicity: int     # s * n_K
    level_dim_contribution: int  # w * s * f_K


def constituents(i: int, aux: AuxFieldData) -> list[LevelConstituent]:
    """Decomposition bookkeeping for one level; the per-level dimension
    audit (sum of contributions = f_F) is enforced."""
    p, f_k = aux.p, aux.f_k
    ad = level_alpha_data(aux, i)
    if aux.f_rel % ad.s != 0:
        raise InvariantError(f"s = {ad.s} does not divide f_rel = {aux.f_rel}")
    m = aux.f_rel // ad.s
    out = []
    for orbit in residue_orbits(m, p % m if m > 1 else 0):
        b = orbit[0]
        beta_order = m // gcd(m, b) if b else 1
        w = multiplicative_order(p, beta_order)
        if w != len(orbit) and b != 0:
            raise InvariantError("beta orbit size mismatch")
        g = gcd(ad.r, f_k)
        d = lcm(w, g)
        dim = lcm(ad.r * w // g, ad.r)
        out.append(LevelConstituent(
            level=i, alpha_exp=min(ad.q_orbit), beta_exp=b, beta_modulus=m,
            alpha_order=ad.alpha_order, beta_order=beta_order,
            r=ad.r, w=w, s=ad.s, d=d, dim_over_fp=dim,
            multiplicity_in_level=f_k,
            global_multiplicity=ad.s * aux.e_k * aux.f_k,
            level_dim_contribution=w * ad.s * f_k))
    total = sum(c.level_dim_contribution for c in out)
    if total != aux.f_total:
        raise InvariantError(
            f"level {i} dimension audit failed: {total} != f_F = {aux.f_total}")
    return out


# ---------------------------------------------------------------------------
# global character classes

@dataclass(frozen=True)
class PairClass:
    """Galois class of character pairs: orbit of (t mod e, b mod m) under
    (t,b) -> (qt, b) and (t,b) -> (pt, pb)."""

    t: int
    b: int
    m: int
    alpha_order: int
    beta_order: int
    c: int                       # lcm of the two orders
    r: int
    w: int
    s: int
    d: int
    dim_over_fp: int
    orbit: tuple[tuple[int, int], ...]
    t_set: tuple[int, ...]       # distinct first components
    levels: tuple[int, ...]      # levels whose module contains this class
    mult_by_level: tuple[int, ...]
    global_multiplicity: int     # s * n_K


def pair_classes(aux: AuxFieldData, dim_filter: int | None = None) -> list[PairClass]:
    """All character pair classes (optionally only those of one F_p
    dimension), with level presence and multiplicities resolved."""
    e, f, p, f_k = aux.e_rel, aux.f_rel, aux.p, aux.f_k
    if e * f > BOOKKEEPING_CAP:
        raise CapacityError(f"pair class enumeration needs e*f <= {BOOKKEEPING_CAP}")
    q = pow(p, f_k, e) if e > 1 else 0
    levels = level_indices(aux)
    alpha_by_residue = {t: level_alpha_data(aux, t if t else e) for t in range(e)}
    q_orbit_sets = {t: frozenset(alpha_by_residue[t].q_orbit) for t in range(e)}
    classes: list[PairClass] = []
    seen: set[tuple[int, int]] = set()
    for t0 in range(e):
        ad = alpha_by_residue[t0]
        m = f // ad.s
        for b0 in range(m):
            if (t0, b0) in seen:
                continue
            # (t, b) -> (q t, b) and (t, b) -> (p t, p b)
            orbit = closure((t0, b0), ((q, 1), (p, p)),
                            lambda tb, g: (tb[0] * g[0] % e, tb[1] * g[1] % m),
                            BOOKKEEPING_CAP)
            key = min(orbit)
            if key in seen:
                continue
            seen.update(orbit)
            beta_order = m // gcd(m, b0) if b0 else 1
            w = multiplicative_order(p, beta_order)
            g = gcd(ad.r, f_k)
            d = lcm(w, g)
            dim = lcm(ad.r * w // g, ad.r)
            if dim_filter is not None and dim != dim_filter:
                continue
            t_set = tuple(sorted({t for t, _ in orbit}))
            class_levels = []
            mults = []
            ds = d * ad.s
            for i in levels:
                if i % e not in t_set:
                    continue
                matching = sum(1 for (t, _) in orbit if t in q_orbit_sets[i % e])
                raw = f_k * matching
                if raw % ds != 0:
                    raise InvariantError(f"non-integral multiplicity at level {i}")
                if raw:
                    class_levels.append(i)
                    mults.append(raw // ds)
            pc = PairClass(
                t=key[0], b=key[1], m=m,
                alpha_order=ad.alpha_order, beta_order=beta_order,
                c=lcm(ad.alpha_order, beta_order),
                r=ad.r, w=w, s=ad.s, d=d, dim_over_fp=dim,
                orbit=tuple(sorted(orbit)), t_set=t_set,
                levels=tuple(class_levels), mult_by_level=tuple(mults),
                global_multiplicity=ad.s * aux.e_k * aux.f_k)
            if sum(mults) != pc.global_multiplicity:
                raise InvariantError(
                    f"class {key}: level multiplicities {mults} do not sum to "
                    f"s*n_K = {pc.global_multiplicity}")
            classes.append(pc)
    classes.sort(key=lambda c: (c.t, c.b, c.m))
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
    dimension ell, from constituent bookkeeping alone; the total is
    compared (not forced) against the closed degree exponent."""
    if aux.e_total > 10 ** 5 or aux.f_rel > 10 ** 5:
        raise CapacityError("span profile bookkeeping over capacity")
    ell = params.ell
    per_level = []
    for i in level_indices(aux):
        dim_i = sum(c.level_dim_contribution for c in constituents(i, aux)
                    if c.dim_over_fp == ell)
        per_level.append((i, dim_i))
    total = sum(d for _, d in per_level)
    d_exp = degree_exponent(params).exponent
    return SpanProfile(per_level=tuple(per_level), total=total,
                       degree_exp=d_exp,
                       matches_degree_exponent=(total == d_exp))
