"""Exact integer and combinatorial kernels.

Everything here is deterministic and exact: arbitrary-precision integers,
`fractions.Fraction` for the few rational values, no floating point.
The two pair-counting functions coexist on purpose: `order_pair_count`
is the authoritative element count, `order_pair_product` evaluates a
closed product form that disagrees with the count when ``a`` does not
divide ``b`` (the divergence is surfaced by the audit, not repaired).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CapacityError, DomainError, InvariantError

Factorization = tuple[tuple[int, int], ...]

# Strong-pseudoprime witnesses.  The first twelve (2..37) are proven
# complete below PRIMALITY_BOUND, the least strong pseudoprime to all of
# them (Sorenson-Webster, Math. Comp. 2017); the rest extend no proof, so
# is_prime and factorize refuse n >= PRIMALITY_BOUND.  This covers every
# value this artifact actually factors (p^m - 1 with p^m below the
# configured field ceilings).
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Gaps of the mod-210 wheel starting at 11.
_WHEEL = (2, 4, 2, 4, 6, 2, 6, 4, 2, 4, 6, 6, 2, 6, 4, 2, 6, 4, 6, 8, 4, 2, 4,
          2, 4, 8, 6, 4, 6, 2, 4, 6, 2, 6, 6, 4, 2, 4, 6, 2, 6, 4, 2, 4, 2,
          10, 2, 10)


def _check_primality_bound(n: int) -> None:
    if n >= PRIMALITY_BOUND:
        raise CapacityError(
            f"{n} is at or above {PRIMALITY_BOUND}, where the fixed "
            f"Miller-Rabin witnesses stop being proven")


def is_prime(n: int) -> bool:
    """Deterministic strong-pseudoprime test (no randomness); refuses n at
    or above PRIMALITY_BOUND with CapacityError."""
    _check_primality_bound(n)
    return _is_prime(n)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Deterministic Brent cycle factor finder for odd composite n."""
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvariantError(f"rho failed to split {n}")  # unreachable in practice


_TRIAL_BOUND = 1 << 20


def _factor_into(n: int, out: dict[int, int]) -> None:
    while n > 1:
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
            return
        d = _brent_rho(n)
        _factor_into(d, out)
        n //= d


@lru_cache(maxsize=4096)
def factorize(n: int) -> Factorization:
    """Factor ``1 <= n < PRIMALITY_BOUND`` into (prime, exponent) pairs,
    ascending.

    Wheel trial division up to min(sqrt, 2^20), then deterministic Brent
    rho on any remaining cofactor.  Raises DomainError on n < 1 and
    CapacityError from PRIMALITY_BOUND on, where primality of a cofactor
    is no longer proven.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    _check_primality_bound(n)
    n0 = n
    found: dict[int, int] = {}
    for p in (2, 3, 5, 7):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    d, i = 11, 0
    while n > 1 and d * d <= n and d <= _TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            found[d] = e
            if n > 1 and _is_prime(n):
                found[n] = found.get(n, 0) + 1
                n = 1
        d += _WHEEL[i]
        i = (i + 1) % len(_WHEEL)
    if n > 1:
        if d * d > n:
            found[n] = found.get(n, 0) + 1
        else:
            _factor_into(n, found)
    fac = tuple(sorted(found.items()))
    check = 1
    for p, e in fac:
        check *= p ** e
    if check != n0:
        raise InvariantError(f"factorization of {n0} does not multiply back")
    return fac


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n; requires gcd(a, n) = 1."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise DomainError(f"{a} is not invertible mod {n}")
    order = euler_phi(n)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def closure(start, gens, step, cap: int) -> set:
    """Every element reachable from start by repeated x -> step(x, g), g in
    gens, by breadth-first search.  Raises CapacityError instead of growing
    past cap elements: a closure of exactly cap elements is answered."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = step(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapacityError(f"closure exceeds cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def order_pair_count(a: int, b: int) -> int:
    """Number of elements of order exactly ``a`` in C_a x C_b.

    Computed as an exact per-prime product: for each prime l | a with
    alpha = v_l(a) and beta = min(alpha, v_l(b)), the local factor is the
    number of pairs in C_{l^alpha} x C_{l^beta} whose maximum valuation
    is alpha, and the factors multiply.  This count is the authoritative
    semantics everywhere in the package.
    """
    if a < 1 or b < 1:
        raise DomainError("order_pair_count requires positive arguments")
    total = 1
    for l, alpha in factorize(a):
        beta = min(alpha, valuation(b, l))
        total *= l ** (alpha + beta) - l ** (alpha - 1 + min(beta, alpha - 1))
    return total


def order_pair_product(a: int, b: int) -> int:
    """Closed product form of the pair count, evaluated verbatim.

    a * gcd(a,b) * prod_{l | gcd(a,b)} (1 - 1/l^2)
                 * prod_{l | a, l not| gcd(a,b)} (1 - 1/l).

    Agrees with `order_pair_count` whenever a | b; kept only so the audit
    can report the divergence elsewhere (e.g. (4,2): count 4, product 6).
    """
    if a < 1 or b < 1:
        raise DomainError("order_pair_product requires positive arguments")
    g = gcd(a, b)
    value = Fraction(a * g)
    for l, _ in factorize(a):
        if g % l == 0:
            value *= Fraction(l * l - 1, l * l)
        else:
            value *= Fraction(l - 1, l)
    if value.denominator != 1:
        raise InvariantError(f"pair product ({a},{b}) is not integral: {value}")
    return value.numerator


def split_fraction(c: int, p: int, ell: int) -> Fraction:
    """Fraction of order-c generator pairs whose matrix group splits.

    Value in {1, 1/ell, 1/(ell+1)}; requires c | p^ell - 1.  The first
    case is taken as p != 1 (mod ell), which also covers p = ell.
    """
    if c < 1:
        raise DomainError("c must be positive")
    pl1 = p ** ell - 1
    if pl1 % c != 0:
        raise DomainError(f"{c} does not divide p^ell - 1 = {pl1}")
    if p % ell != 1:
        return Fraction(1)
    vc = valuation(c, ell) if c > 0 else 0
    v_top = valuation(pl1, ell)
    if vc == 0 or vc == v_top:
        return Fraction(1)
    if valuation(p - 1, ell) < vc:
        return Fraction(1, ell)
    return Fraction(1, ell + 1)
