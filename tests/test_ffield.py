"""Finite field context tests: canonical construction, axioms, orders."""

import random

import pytest

from padicext.arith import divisors, euler_phi, factorize
from padicext.errors import CapacityError, DomainError
from padicext.ffield import (DLOG_CAP, FieldCtx, _is_irreducible, _poly_gcd,
                             _poly_pow_p, _poly_trim, make_field)

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
    f524 = make_field(5, 24, ceiling=5 ** 24)
    assert f524.modulus == (1, 4) + (0, 1) + (0,) * 20 + (1,)  # x^24+x^3+4x+1
    assert f524.generator == 6


def test_generator_of_f9_has_order_eight():
    ctx = make_field(3, 2)
    g = ctx.generator
    assert ctx.element_order(g) == 8
    assert ctx.pow(g, 4) == ctx.neg(1)  # g^4 = -1 != 1


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
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y),
                                                        ctx.mul(x, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.add(x, ctx.neg(x)) == 0
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1


def test_frobenius_is_a_field_automorphism():
    rng = random.Random(1)
    for p, m in GRID:
        ctx = make_field(p, m)
        for _ in range(60):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.frob(ctx.add(x, y)) == ctx.add(ctx.frob(x), ctx.frob(y))
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
    with pytest.raises(CapacityError):
        make_field(2, 42)  # default ceiling 2^32
    big = make_field(2, 42, ceiling=1 << 52)
    assert big.element_order(big.root_of_unity(7)) == 7


def test_element_order_of_zero_rejected():
    ctx = make_field(2, 3)
    with pytest.raises(DomainError):
        ctx.element_order(0)


def test_ceiling_is_the_callers_not_a_fixed_one():
    # the cache is keyed on (p, m) alone; a ceiling above 2^62 must still
    # admit fields above 2^62
    big = make_field(2, 64, ceiling=2 ** 96)
    assert big.order == 2 ** 64
    with pytest.raises(CapacityError, match=str(2 ** 96)):
        make_field(2, 100, ceiling=2 ** 96)
    with pytest.raises(CapacityError):
        make_field(2, 64)  # the default ceiling still applies to a cached field
    with pytest.raises(CapacityError, match="degree 300"):
        make_field(2, 300, ceiling=2 ** 400)  # under the ceiling, over the degree cap


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
    big = make_field(2, 33, ceiling=1 << 33)
    with pytest.raises(CapacityError, match="order 8589934591.*cap 65536"):
        big.dlog(big.generator)
    # a small subgroup of the same field is still answered
    seven = big.root_of_unity(7)
    assert big.pow(big.generator, big.dlog(seven)) == seven
    with pytest.raises(DomainError):
        ctx.dlog(0)


# ---------------------------------------------------------------------------
# irreducibility: Ben-Or against the Rabin test and against sympy

def _rabin_is_irreducible(f: list[int], p: int) -> bool:
    """Reference: Rabin's test, which runs all m Frobenius steps, then one
    gcd per prime divisor q of m with x^(p^(m/q)) - x."""
    def minus_x(t):
        diff = t + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        return diff

    m = len(f) - 1
    if m == 1:
        return True
    t = [0, 1]
    for _ in range(m):
        t = _poly_pow_p(t, f, p)
    if _poly_trim(minus_x(t)):
        return False
    for q, _ in factorize(m):
        t = [0, 1]
        for _ in range(m // q):
            t = _poly_pow_p(t, f, p)
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
    cases = [(5, list(make_field(5, 24, ceiling=5 ** 24).modulus)),
             (3, list(make_field(3, 16).modulus))]
    for p in (2, 3, 5, 7, 11):
        for deg in range(2, 17):
            for _ in range(6):
                cases.append((p, [rng.randrange(p) for _ in range(deg)] + [1]))
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
