"""Finite field context tests: canonical construction, axioms, orders."""

import random
from functools import partial

import pytest

from padicext.arith import divisors, euler_phi, factorize, power
from padicext.errors import CapacityError, DomainError
from padicext.ffield import (DLOG_CAP, FIELD_CEILING, FieldCtx, _coprime,
                             _ResidueRing, _is_irreducible, make_field)
from padicext.linalg import LANE_HEADROOM, VecSpace


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian coefficient lists): the
# independent references behind mulmod, _rabin_is_irreducible and the gcd

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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


def field_add(ctx, x: int, y: int) -> int:
    """x + y in GF(p^m): the sum of the decoded vectors."""
    space = VecSpace(ctx.p, ctx.m)
    return space.encode(space.add(space.decode(x), space.decode(y)))


def field_neg(ctx, x: int) -> int:
    """-x in GF(p^m): the decoded vector times -1."""
    space = VecSpace(ctx.p, ctx.m)
    return space.encode(space.smul(-1, space.decode(x)))


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Schoolbook product a*b."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    return prod


def mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """Reference residue product: schoolbook a*b, then division by f."""
    return _poly_divmod(poly_mul(a, b, p), f, p)[1]


def pow_p(a: list[int], f: list[int], p: int) -> list[int]:
    """a^p mod f by the reference product."""
    return power(a, p, partial(mulmod, f=f, p=p), [1])

GRID = [(2, 2), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 2), (5, 3),
        (7, 2), (11, 2), (13, 2)]


def test_canonical_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)      # x^2+x+1
    assert make_field(3, 1).modulus == (0, 1)         # prime field convention
    assert make_field(2, 3).modulus == (1, 1, 0, 1)   # x^3+x+1
    # recorded while the modulus search still used the Rabin test
    f38 = make_field(3, 8)
    assert f38.modulus == (2, 0, 1) + (0,) * 5 + (1,)          # x^8+x^2+2
    assert f38.generator == 38
    f316 = make_field(3, 16)
    assert f316.modulus == (1, 0, 1, 1) + (0,) * 12 + (1,)     # x^16+x^3+x^2+1
    assert f316.generator == 4
    f524 = make_field(5, 24)
    assert f524.modulus == (1, 4) + (0, 1) + (0,) * 20 + (1,)  # x^24+x^3+4x+1
    assert f524.generator == 6


def test_generator_of_f9_has_order_eight():
    ctx = make_field(3, 2)
    g = ctx.generator
    assert ctx.element_order(g) == 8
    assert ctx.pow(g, 4) == field_neg(ctx, 1)  # g^4 = -1 != 1


def test_prime_order_group_every_element_generates():
    ctx = make_field(2, 3)
    for x in range(2, ctx.order):
        assert ctx.element_order(x) == 7
    assert ctx.element_order(1) == 1


def test_field_axioms_sampled():
    rng = random.Random(0)
    for p, m in GRID:
        ctx = make_field(p, m)
        for _ in range(120):
            x, y, z = (rng.randrange(ctx.order) for _ in range(3))
            add = partial(field_add, ctx)
            assert add(x, y) == add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            assert ctx.mul(x, add(y, z)) == add(ctx.mul(x, y), ctx.mul(x, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert add(x, field_neg(ctx, x)) == 0
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1


def test_frobenius_is_a_field_automorphism():
    rng = random.Random(1)
    for p, m in GRID:
        ctx = make_field(p, m)
        for _ in range(60):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.frob(field_add(ctx, x, y)) == \
                field_add(ctx, ctx.frob(x), ctx.frob(y))
            assert ctx.frob(ctx.mul(x, y)) == ctx.mul(ctx.frob(x), ctx.frob(y))
        x = rng.randrange(ctx.order)
        t = x
        for _ in range(m):
            t = ctx.frob(t)
        assert t == x


def test_order_census_exhaustive_small_fields():
    # number of elements of each order c | p^m - 1 equals phi(c)
    for p, m in [(2, m) for m in range(1, 15)] + \
                [(3, m) for m in range(1, 9)] + \
                [(5, m) for m in range(1, 6)] + \
                [(7, m) for m in range(1, 5)] + \
                [(11, m) for m in range(1, 4)] + [(13, m) for m in range(1, 4)]:
        if p ** m > 1 << 14:
            continue
        ctx = make_field(p, m)
        counts: dict[int, int] = {}
        for x in range(1, ctx.order):
            o = ctx.element_order(x)
            counts[o] = counts.get(o, 0) + 1
        for c in divisors(ctx.mult_order):
            assert counts.get(c, 0) == euler_phi(c), (p, m, c)


def test_construction_is_bit_identical():
    a = FieldCtx(3, 4)
    b = FieldCtx(3, 4)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert a.order_factorization == b.order_factorization


def test_capacity_ceiling():
    assert FIELD_CEILING == 1 << 64
    big = make_field(2, 64)  # exactly at the ceiling
    assert big.order == FIELD_CEILING
    assert big.element_order(big.root_of_unity(641)) == 641
    assert make_field(3, 40).order == 3 ** 40  # 3^40 ~ 2^63.4


def test_element_order_of_zero_rejected():
    ctx = make_field(2, 3)
    with pytest.raises(DomainError):
        ctx.element_order(0)


def test_one_field_ceiling_refuses_just_past_2_64():
    # 2^65 and 3^41 ~ 2^65.0 are the least orders past the ceiling; m >= 65
    # is refused before p ** m is taken, which a huge m would make slow
    for p, m in ((2, 65), (3, 41), (2, 300), (101, 10 ** 9)):
        with pytest.raises(CapacityError,
                           match=f"FIELD_CEILING = 2\\^64 = {FIELD_CEILING}"):
            make_field(p, m)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 2)])
def test_dlog_matches_brute_force_walk(p, m):
    ctx = make_field(p, m)
    acc = 1
    for k in range(ctx.mult_order):
        assert ctx.dlog(acc) == k
        acc = ctx.mul(acc, ctx.generator)
    assert acc == 1


def test_dlog_refuses_exactly_the_orders_above_2_32():
    assert DLOG_CAP == 1 << 16
    # GF(2^32): the generator's order 2^32 - 1 needs 2^16 baby steps
    ctx = make_field(2, 32)
    assert ctx.dlog(ctx.generator) == 1
    x = 0xDEADBEEF
    assert ctx.pow(ctx.generator, ctx.dlog(x)) == x
    # GF(2^33): order 2^33 - 1 needs 92,682 baby steps; refused, not guessed
    big = make_field(2, 33)
    with pytest.raises(CapacityError, match="order 8589934591.*cap 65536"):
        big.dlog(big.generator)
    # a small subgroup of the same field is still answered
    seven = big.root_of_unity(7)
    assert big.pow(big.generator, big.dlog(seven)) == seven
    with pytest.raises(DomainError):
        ctx.dlog(0)


# ---------------------------------------------------------------------------
# irreducibility: the lane gcd against the list gcd, Ben-Or against the Rabin
# test and against sympy

@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_coprime_matches_the_list_gcd(p):
    rng = random.Random(1000 + p)
    space = VecSpace(p, 65)  # polynomials of degree <= 64

    def poly(deg):  # a random polynomial of degree exactly deg
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def coprime(a, b):
        got = _coprime(space, space.from_coords(a), space.from_coords(b))
        assert got == (len(_poly_gcd(a, b, p)) == 1), (a, b)
        return got

    for _ in range(40):
        da, db = rng.randint(0, 64), rng.randint(0, 64)
        a, b = poly(da), poly(db)
        coprime(a, b)
        g = poly(rng.randint(1, 16))  # a common factor
        u, v = poly(rng.randint(0, 48)), poly(rng.randint(0, 48))
        assert not coprime(poly_mul(g, u, p), poly_mul(g, v, p))
        # edge cases: b constant, a == b, b | a, deg a < deg b, and b = 0
        # (Ben-Or's t - x == 0)
        assert coprime(a, [rng.randrange(1, p)])
        assert coprime(a, a) == (da == 0)
        assert not coprime(poly_mul(g, u, p), g)
        coprime(poly(rng.randint(0, 40)), poly(rng.randint(41, 64)))
        assert coprime(a, []) == (da == 0)
    assert not coprime([], [])


def _rabin_is_irreducible(f: list[int], p: int) -> bool:
    """Reference: Rabin's test, which runs all m Frobenius steps, then one
    gcd per prime divisor q of m with x^(p^(m/q)) - x; its products are
    the schoolbook mulmod, not the residue ring Ben-Or uses."""
    def minus_x(t):
        diff = t + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        return diff

    m = len(f) - 1
    if m == 1:
        return True
    t = [0, 1]
    for _ in range(m):
        t = pow_p(t, f, p)
    if _poly_trim(minus_x(t)):
        return False
    for q, _ in factorize(m):
        t = [0, 1]
        for _ in range(m // q):
            t = pow_p(t, f, p)
        diff = minus_x(t)
        if not _poly_trim(list(diff)):
            return False
        if len(_poly_gcd(diff, f, p)) - 1 != 0:
            return False
    return True


def _monic_polys(p: int, deg: int):
    for k in range(p ** deg):
        coeffs = []
        for _ in range(deg):
            k, r = divmod(k, p)
            coeffs.append(r)
        yield coeffs + [1]


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 4), (5, 3)])
def test_ben_or_matches_rabin_on_every_small_monic(p, max_deg):
    counts = {}
    for deg in range(1, max_deg + 1):
        counts[deg] = 0
        for f in _monic_polys(p, deg):
            got = _is_irreducible(f, p)
            assert got == _rabin_is_irreducible(f, p), (p, f)
            counts[deg] += got
        # Gauss: sum over d | n of d * (monic irreducibles of degree d) = p^n
        assert sum(d * counts[d] for d in divisors(deg)) == p ** deg


def test_ben_or_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(20261018)
    cases = [(5, list(make_field(5, 24).modulus)),
             (3, list(make_field(3, 16).modulus))]
    for p in (2, 3, 5, 7, 11):
        for deg in range(2, 17):
            for _ in range(6):
                cases.append((p, [rng.randrange(p) for _ in range(deg)] + [1]))
    # p = 2 at degrees 100 to 128, past FIELD_CEILING: long lane vectors
    for deg in range(100, 129, 4):
        cases.append((2, [rng.randrange(2) for _ in range(deg)] + [1]))
    f64 = list(make_field(2, 64).modulus)  # x^64+x^4+x^3+x+1
    # x^127+x+1 and x^128+x^7+x^2+x+1 (both irreducible), and f64^2, which
    # Ben-Or refuses only at its 64th step
    cases += [(2, [1, 1] + [0] * 125 + [1]),
              (2, [1, 1, 1, 0, 0, 0, 0, 1] + [0] * 120 + [1]),
              (2, poly_mul(f64, f64, 2))]
    # reducible with no linear factor: squares and a product of irreducibles
    cases += [(3, [1, 0, 2, 0, 1]),           # (x^2+1)^2 over F_3
              (2, [1, 0, 1, 0, 1]),           # (x^2+x+1)^2 over F_2
              (2, [1, 1, 1, 1, 1, 1, 1])]     # (x^3+x+1)(x^3+x^2+1) over F_2
    seen_irreducible = 0
    for p, f in cases:
        want = sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
        assert _is_irreducible(f, p) == want, (p, f)
        seen_irreducible += want
    assert seen_irreducible >= 20


# ---------------------------------------------------------------------------
# the residue ring against the schoolbook product and against sympy

def _ring_mul(p: int, f: list[int], a: list[int], b: list[int]) -> list[int]:
    """a*b mod f through the residue ring, as a trimmed coefficient list
    (compared with _reference_mul)."""
    ring = _ResidueRing(p, f)
    space = ring.space
    v = ring.mul(space.from_coords(a), space.from_coords(b))
    return _poly_trim([space.component(v, j) for j in range(len(f) - 1)])


def _reference_mul(p: int, f: list[int], a: list[int], b: list[int]) -> list[int]:
    return _poly_trim(mulmod(a, b, f, p))


def test_ring_product_matches_schoolbook_on_random_monic_moduli():
    rng = random.Random(20261019)
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, LANE_HEADROOM + 1):
            f = [rng.randrange(p) for _ in range(m)] + [1]
            for _ in range(2):
                a = [rng.randrange(p) for _ in range(m)]
                b = [rng.randrange(p) for _ in range(m)]
                assert _ring_mul(p, f, a, b) == _reference_mul(p, f, a, b), \
                    (p, f, a, b)


@pytest.mark.parametrize("p", [3, 13])
def test_ring_product_at_the_worst_case_lane_growth(p):
    # every coefficient p - 1: each of the 2m - 1 product lanes before the
    # Barrett step holds up to m = LANE_HEADROOM products (p-1)^2
    m = LANE_HEADROOM
    top = [p - 1] * m
    for f in (top + [1], [1] + [0] * (m - 1) + [1]):
        assert _ring_mul(p, f, top, top) == _reference_mul(p, f, top, top)


def test_ring_refuses_odd_degrees_past_the_lane_headroom():
    m = LANE_HEADROOM + 1
    with pytest.raises(CapacityError, match="LANE_HEADROOM = 64"):
        _ResidueRing(3, [1] * m + [1])
    f = [1, 1] + [0] * (m - 2) + [1]  # p = 2 has no lanes to overflow
    ones = [1] * m
    assert _ring_mul(2, f, ones, ones) == _reference_mul(2, f, ones, ones)


def test_field_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(40)
    for p, m in ((3, 40), (5, 24), (2, 63)):
        ctx = make_field(p, m)
        space = VecSpace(p, m)
        modulus = sympy.Poly(list(reversed(ctx.modulus)), x, modulus=p)

        def poly(key):
            v = space.decode(key)
            return sympy.Poly([space.component(v, j)
                               for j in reversed(range(m))], x, modulus=p)

        for _ in range(10):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            want = sympy.rem(poly(a) * poly(b), modulus)
            got = poly(ctx.mul(a, b))
            assert (got - want).is_zero, (p, m, a, b)
