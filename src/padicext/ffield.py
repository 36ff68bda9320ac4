"""Deterministic exact arithmetic in GF(p^m) for small p^m.

Elements are plain ints in [0, p^m): the base-p digits of the int are the
coefficients of the residue polynomial, constant term in the least
significant digit.  Arithmetic runs on their linalg vectors (the one F_p
codec: VecSpace.decode and encode) in the ring F_p[x]/(f).  For p = 2 a
product is carry-less on the packed bits; for odd p it is one int product
of the lane-packed vectors, one Barrett step on every lane, and a fold of
the m - 1 high lanes by the rows x^(m+j) mod f.  A lane then sums up to m
products a*b (a, b < p), so the ring refuses odd p with m > LANE_HEADROOM,
a degree FIELD_CEILING already excludes.  Construction is canonical: the
modulus is the first monic irreducible of degree m in ascending integer
encoding, the generator the least element of full multiplicative order, so
two contexts built from equal (p, m) are identical.  Candidates are tested
with Ben-Or's distinct-degree test, which rejects a reducible polynomial at
its least factor degree, usually after one Frobenius step.  Its gcds run on
the same lanes, a polynomial of degree <= m as a VecSpace(p, m + 1) vector
(coefficient j in lane j), each Euclid step a lane shift, multiple and sum.

Discrete logs base that generator come from baby-step giant-step inside
the cyclic subgroup generated by the argument, and are refused (never
guessed) beyond DLOG_CAP baby steps.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import Factorization, factorize, is_prime, order, power
from .errors import CapacityError, DomainError, InvariantError
from .linalg import LANE_HEADROOM, VecSpace

# The one bound on p^m: building GF(p^m) factors p^m - 1, and 2^64 keeps
# that below arith.PRIMALITY_BOUND while admitting GF(2^63) for the oracle.
FIELD_CEILING = 1 << 64
DLOG_CAP = 1 << 16  # baby steps: logs in subgroups of order <= 2^32


# ---------------------------------------------------------------------------
# irreducibility: Ben-Or's test on polynomials held as linalg vectors

def _coprime(space: VecSpace, a: int, b: int) -> bool:
    """Whether gcd(a, b) = 1 for polynomials held as vectors of space,
    coefficient j in lane j: Euclid's remainders, each step cancelling the
    top coefficient of a by a shift x^k * b."""
    while b:
        db = space.pivot(b)
        inv = pow(space.component(b, db), -1, space.p)
        while (da := space.pivot(a)) >= db:
            c = space.component(a, da) * inv
            a = space.add(a, space.smul(-c, b << (da - db) * space.w))
        a, b = b, a
    return space.pivot(a) == 0


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test: monic f of degree m is irreducible over F_p iff
    gcd(f, x^(p^i) - x) = 1 for i = 1..m//2.  A reducible f has a factor
    of degree at most m//2 and is refused at the least such degree, so
    most candidates leave after one Frobenius step."""
    m = len(f) - 1
    ring = _ResidueRing(p, f)
    space = ring.space
    t = x = space.unit(1)
    for _ in range(m // 2):
        t = power(t, p, ring.mul, 1)
        if not _coprime(ring.polys, ring.f, space.add(t, space.smul(-1, x))):
            return False
    return True


# ---------------------------------------------------------------------------
# the residue ring: carry-less kernels for p = 2, lane products for odd p

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


class _ResidueRing:
    """F_p[x]/(f) for monic f of degree m (little-endian coefficients); its
    residues are VecSpace(p, m) vectors, and f itself is held as a vector of
    polys = VecSpace(p, m + 1), which has the same lanes."""

    def __init__(self, p: int, f) -> None:
        m = len(f) - 1
        if p != 2 and m > LANE_HEADROOM:
            raise CapacityError(
                f"a product in F_{p}[x]/(f) of degree {m} sums {m} products "
                f"per lane, over LANE_HEADROOM = {LANE_HEADROOM}")
        self.p, self.m = p, m
        self.space = space = VecSpace(p, m)
        self.polys = VecSpace(p, m + 1)
        self.f = self.polys.from_coords(f)
        if p == 2:
            return
        self._wide = VecSpace(p, 2 * m - 1)
        self._shift = m * space.w
        self._low = (1 << self._shift) - 1
        row = space.smul(-1, self.f & self._low)  # x^m mod f
        self._rows = []
        for _ in range(m - 1):  # x^(m+j) mod f for j in [0, m-2]
            self._rows.append(row)
            row = space.add(row << space.w & self._low,  # x * row
                            space.smul(space.component(row, m - 1), self._rows[0]))

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return _bit_reduce(_clmul(a, b), self.f, self.m)
        prod = self._wide._lanes(a * b)
        high = self.space.compose(self._rows, (prod >> self._shift,))[0]
        return self.space.add(prod & self._low, high)


class FieldCtx:
    """Immutable-after-construction context for GF(p^m)."""

    def __init__(self, p: int, m: int) -> None:
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if m < 1:
            raise DomainError(f"degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.mult_order = self.order - 1
        self.order_factorization: Factorization = (
            factorize(self.mult_order) if self.mult_order > 1 else ())
        self.modulus = self._find_modulus()
        self._ring = _ResidueRing(p, self.modulus)
        self._order_memo: dict[int, int] = {}
        self.generator = self._find_generator()

    # -- construction -----------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, m = self.p, self.m
        space = VecSpace(p, m)
        for k in range(p ** m):
            v = space.decode(k)
            coeffs = tuple(space.component(v, j) for j in range(m)) + (1,)
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

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        space = self._ring.space
        return space.encode(self._ring.mul(space.decode(a), space.decode(b)))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        space = self._ring.space
        return space.encode(power(space.decode(a), e, self._ring.mul, 1))

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
        k = order(x, self.mult_order, self.pow, 1)
        if len(self._order_memo) < (1 << 16):
            self._order_memo[x] = k
        return k

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


def make_field(p: int, m: int) -> FieldCtx:
    """Canonical GF(p^m) context; repeated calls share one cached object.
    FIELD_CEILING is checked here, before the cache, and before p ** m is
    taken when m alone puts p^m over it (p >= 2, so m > 64 does)."""
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
    if m >= FIELD_CEILING.bit_length() or p ** m > FIELD_CEILING:
        raise CapacityError(
            f"GF({p}^{m}) exceeds FIELD_CEILING = 2^64 = {FIELD_CEILING}")
    return _make_field_cached(p, m)
