"""Deterministic exact arithmetic in GF(p^m) for small p^m.

Elements are plain ints in [0, p^m): the base-p digits of the int are the
coefficients of the residue polynomial, constant term in the least
significant digit.  For p = 2 that encoding is the packed bit polynomial
and arithmetic uses carry-less integer ops; odd characteristic works on
digit tuples.  Construction is canonical: the modulus is the first monic
irreducible of degree m in ascending integer encoding, the generator the
least element of full multiplicative order, so two contexts built from
equal (p, m) are identical.  Candidates are tested with Ben-Or's
distinct-degree test, which rejects a reducible polynomial at its least
factor degree, usually after one Frobenius step.

Discrete logs base that generator come from baby-step giant-step inside
the cyclic subgroup generated by the argument, and are refused (never
guessed) beyond DLOG_CAP baby steps.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import Factorization, factorize, is_prime
from .errors import CapacityError, DomainError, InvariantError

DEFAULT_CEILING = 1 << 32
DLOG_CAP = 1 << 16  # baby steps: logs in subgroups of order <= 2^32


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian coefficient lists)

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(prod, f, p)[1]


def _poly_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    q = [0] * max(0, len(a) - df)
    while len(a) - 1 >= df and _poly_trim(a):
        da = len(a) - 1
        if da < df:
            break
        c = a[-1] * inv_lead % p
        q[da - df] = c
        for i, fi in enumerate(f):
            a[da - df + i] = (a[da - df + i] - c * fi) % p
        _poly_trim(a)
    return q, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    _poly_trim(a)
    _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
        _poly_trim(b)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _poly_pow_p(a: list[int], f: list[int], p: int) -> list[int]:
    """a^p mod f by square-and-multiply on the exponent p."""
    result = [1]
    base = list(a)
    e = p
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test: monic f of degree m is irreducible over F_p iff
    gcd(f, x^(p^i) - x) = 1 for i = 1..m//2.  A reducible f has a factor
    of degree at most m//2 and is refused at the least such degree, so
    most candidates leave after one Frobenius step."""
    t = [0, 1]
    for _ in range((len(f) - 1) // 2):
        t = _poly_pow_p(t, f, p)
        diff = t + [0] * (2 - len(t))  # t - x
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(f, diff, p)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# packed GF(2^m) kernels

def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _bit_reduce(r: int, fbits: int, m: int) -> int:
    rb = r.bit_length()
    while rb > m:
        r ^= fbits << (rb - 1 - m)
        rb = r.bit_length()
    return r


class FieldCtx:
    """Immutable-after-construction context for GF(p^m)."""

    def __init__(self, p: int, m: int) -> None:
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if m < 1:
            raise DomainError(f"degree must be >= 1, got {m}")
        order = p ** m
        self.p = p
        self.m = m
        self.order = order
        self.mult_order = order - 1
        self.order_factorization: Factorization = (
            factorize(self.mult_order) if self.mult_order > 1 else ())
        self.modulus = self._find_modulus()
        self._fbits = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else 0
        # x^(m+j) mod f for j in [0, m-2], used to fold products (odd p).
        self._fold: list[tuple[int, ...]] = []
        if p != 2 and m > 1:
            f = list(self.modulus)
            t = [0] * m + [1]
            t = _poly_divmod(t, f, p)[1]
            for _ in range(m - 1):
                t = t + [0] * (m - len(t))
                self._fold.append(tuple(t))
                t = _poly_divmod([0] + t, f, p)[1]
        self._order_memo: dict[int, int] = {}
        self.generator = self._find_generator()

    # -- construction -----------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, m = self.p, self.m
        if m == 1:
            return (0, 1)
        for k in range(p ** m):
            coeffs = self._digits_of(k) + (1,)
            if _is_irreducible(list(coeffs), p):
                return coeffs
        raise DomainError("no irreducible polynomial found")  # unreachable

    def _find_generator(self) -> int:
        if self.mult_order == 1:
            return 1
        cofactors = [self.mult_order // q for q, _ in self.order_factorization]
        for k in range(2, self.order):
            if all(self.pow(k, cf) != 1 for cf in cofactors):
                return k
        raise DomainError("no generator found")  # unreachable

    # -- encoding ----------------------------------------------------------

    def _digits_of(self, k: int) -> tuple[int, ...]:
        p, m = self.p, self.m
        out = []
        for _ in range(m):
            k, r = divmod(k, p)
            out.append(r)
        return tuple(out)

    def from_digits(self, coeffs) -> int:
        v = 0
        for c in reversed(tuple(coeffs)):
            v = v * self.p + c % self.p
        return v

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += (ra + rb) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            a, ra = divmod(a, p)
            out += (-ra) % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b)) if self.p != 2 else a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return _bit_reduce(_clmul(a, b), self._fbits, self.m)
        p, m = self.p, self.m
        if self.m == 1:
            return a * b % p
        da, db = self._digits_of(a), self._digits_of(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        prod[i + j] += ai * bj
        out = [c % p for c in prod[:m]]
        for j in range(m - 1):
            c = prod[m + j] % p
            if c:
                fold = self._fold[j]
                for i in range(m):
                    out[i] = (out[i] + c * fold[i]) % p
        return self.from_digits(out)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of zero")
        return self.pow(a, self.mult_order - 1)

    def frob(self, a: int, k: int = 1) -> int:
        """a^(p^k); the m-fold iterate is the identity."""
        if a == 0 or self.mult_order <= 1:
            return a
        return self.pow(a, pow(self.p, k % self.m, self.mult_order))

    # -- invariants ----------------------------------------------------------

    def element_order(self, x: int) -> int:
        """Multiplicative order, exact via the cached factorization."""
        if x == 0:
            raise DomainError("order of zero is undefined")
        hit = self._order_memo.get(x)
        if hit is not None:
            return hit
        order = self.mult_order
        if order == 0:
            return 1
        for q, _ in self.order_factorization:
            while order % q == 0 and self.pow(x, order // q) == 1:
                order //= q
        if len(self._order_memo) < (1 << 16):
            self._order_memo[x] = order
        return order

    def dlog(self, x: int) -> int:
        """k in [0, p^m - 1) with generator^k == x.

        Baby-step giant-step inside mu_d, d = element_order(x), with base
        generator^((p^m - 1)/d); exact, since a match is an equality of
        field elements.  Refuses when it needs more than DLOG_CAP baby steps,
        i.e. when d > 2^32."""
        d = self.element_order(x)
        if d == 1:
            return 0
        steps = isqrt(d - 1) + 1  # ceil(sqrt(d)), so steps^2 >= d
        if steps > DLOG_CAP:
            raise CapacityError(
                f"discrete log in a subgroup of order {d} needs {steps} "
                f"baby steps, over cap {DLOG_CAP}")
        base = self.root_of_unity(d)  # generates mu_d
        baby: dict[int, int] = {}
        y = 1
        for j in range(steps):
            baby[y] = j
            y = self.mul(y, base)
        giant = self.pow(base, d - steps % d)  # base^(-steps)
        y = x
        for i in range(steps):
            j = baby.get(y)
            if j is not None:
                return (i * steps + j) % d * (self.mult_order // d)
            y = self.mul(y, giant)
        raise InvariantError(f"{x} of order {d} has no discrete log")

    def root_of_unity(self, n: int) -> int:
        """Canonical primitive n-th root: generator^((p^m - 1)/n)."""
        if n < 1 or self.mult_order % n != 0:
            raise DomainError(f"no primitive {n}-th root in GF({self.p}^{self.m})")
        return self.pow(self.generator, self.mult_order // n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldCtx(p={self.p}, m={self.m})"


@lru_cache(maxsize=256)
def _make_field_cached(p: int, m: int) -> FieldCtx:
    return FieldCtx(p, m)


def make_field(p: int, m: int, ceiling: int = DEFAULT_CEILING) -> FieldCtx:
    """Canonical GF(p^m) context; repeated calls share one cached object.
    The ceiling is checked here, before the cache: one context per
    (p, m), whatever ceiling each caller passes."""
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
    if m > 256:  # before p ** m, which a huge m makes expensive
        raise CapacityError(f"degree {m} exceeds the degree cap 256")
    if p ** m > ceiling:
        raise CapacityError(f"p^{m} = {p ** m} exceeds ceiling {ceiling}")
    return _make_field_cached(p, m)
