"""Integer kernel tests; the pair-count oracle is brute-force enumeration."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicext.arith import (PRIMALITY_BOUND, divisors, euler_phi, factorize,
                            is_prime, multiplicative_order, order,
                            order_pair_count, order_pair_product, power,
                            split_fraction, valuation)
from padicext.errors import CapacityError, DomainError
from padicext.ffield import make_field
from padicext.linalg import VecSpace


def brute_pair_count(a: int, b: int) -> int:
    """Independent oracle: enumerate C_a x C_b and count order-a elements."""
    count = 0
    for x in range(a):
        ox = a // gcd(a, x) if x else 1
        for y in range(b):
            oy = b // gcd(b, y) if y else 1
            if ox * oy // gcd(ox, oy) == a:
                count += 1
    return count


def orders_of_cyclic(n: int) -> np.ndarray:
    xs = np.arange(n, dtype=np.int64)
    g = np.gcd(xs, n)
    return n // g


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1568) == ((2, 5), (7, 2))  # 2^5 * 7^2, remultiplied below
    assert 2 ** 5 * 7 ** 2 == 1568


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_random_round_trip():
    rng = random.Random(11)
    samples = [rng.randrange(1, 10 ** 6) for _ in range(100_000)]
    samples += [rng.randrange(1, 1 << 48) for _ in range(500)]
    for n in samples:
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            prod *= p ** e
            assert is_prime(p)
        assert prod == n
        assert list(fac) == sorted(fac)


def test_primes_are_detected():
    for p in (2, 3, 5, 7, 11, 13, 41, 43, 8191, 1093, 3158528101):
        assert is_prime(p)
    for n in (1, 4, 341, 561, 1024, 8191 * 8191):
        assert not is_prime(n)


def test_primality_bound_is_refused_not_guessed():
    # the bound itself is the least strong pseudoprime to every base 2..37
    assert PRIMALITY_BOUND == 3_317_044_064_679_887_385_961_981
    below = PRIMALITY_BOUND - 1
    assert not is_prime(below)
    assert factorize(below) == ((2, 2), (3, 4), (5, 1), (127, 1),
                                (18778597, 1), (858557454841, 1))
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 1, 1 << 96, 1 << 200):
        with pytest.raises(CapacityError):
            is_prime(n)
        with pytest.raises(CapacityError):
            factorize(n)


def test_is_prime_and_factorize_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    # strong pseudoprimes to growing prefixes of the witness list
    pseudo = [2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461]
    samples = pseudo + [rng.randrange(2, 1 << k) for k in (16, 32, 64, 81)
                        for _ in range(200)]
    samples += [PRIMALITY_BOUND - k for k in range(1, 40)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n
    # semiprimes with two ~32-bit factors take the rho path
    semiprimes = [sympy.nextprime(rng.randrange(1 << 30, 1 << 33))
                  * sympy.nextprime(rng.randrange(1 << 30, 1 << 33))
                  for _ in range(10)]
    for n in samples[:400] + semiprimes:
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n


def test_element_orders_match_sympy():
    n_order = pytest.importorskip("sympy").ntheory.n_order
    rng = random.Random(17)
    for k in (4, 12, 24, 40):  # 150 coprime pairs with n < 2^k
        pairs = 0
        while pairs < 150:
            n = rng.randrange(2, 1 << k)
            a = rng.randrange(1, n)
            if gcd(a, n) == 1:
                assert multiplicative_order(a, n) == n_order(a, n), (a, n)
                pairs += 1
    for p in (2, 3, 5, 7, 11, 13, 101, 257, 65537):
        ctx = make_field(p, 1)
        for x in (range(1, p) if p < 300 else rng.sample(range(1, p), 200)):
            assert ctx.element_order(x) == n_order(x, p), (p, x)


def test_order_pair_count_examples():
    assert order_pair_count(1, 5) == 1
    assert order_pair_count(4, 2) == 4
    assert order_pair_count(12, 12) == 96
    assert order_pair_count(7, 1) == 6


def test_order_pair_count_small_grid_against_brute_force():
    for a in range(1, 61):
        for b in range(1, 61):
            assert order_pair_count(a, b) == brute_pair_count(a, b), (a, b)


def test_partition_identity_to_ten_thousand():
    for n in range(1, 10_001):
        assert sum(order_pair_count(c, n) for c in divisors(n)) == n * n


def test_product_form_examples_and_divergence():
    assert order_pair_product(12, 12) == 96
    assert order_pair_product(4, 2) == 6  # deliberately differs from the count
    assert order_pair_product(7, 1) == 6
    assert order_pair_count(4, 2) == 4


def test_product_equals_count_when_a_divides_b():
    for b in range(1, 1001):
        for a in divisors(b):
            assert order_pair_product(a, b) == order_pair_count(a, b), (a, b)


def test_split_fraction_examples():
    assert split_fraction(8, 3, 2) == 1
    assert split_fraction(4, 3, 2) == Fraction(1, 2)
    assert split_fraction(2, 3, 2) == Fraction(1, 3)
    assert split_fraction(7, 2, 3) == 1


def test_split_fraction_rejects_non_divisor():
    with pytest.raises(DomainError):
        split_fraction(5, 3, 2)


def test_split_fraction_weighted_counts_are_integral():
    for p in (2, 3, 5, 7, 11, 13):
        for ell in (2, 3, 5, 7, 11, 13):
            if p == ell:
                continue
            for c in divisors(p ** ell - 1):
                lam = split_fraction(c, p, ell)
                psi = order_pair_count(c, p - 1)
                assert (lam * psi).denominator == 1
                assert ((1 - lam) / (ell - 1) * psi).denominator == 1


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=150, deadline=None)
def test_pair_count_hypothesis(a, b):
    oa = orders_of_cyclic(a)
    ob = orders_of_cyclic(b)
    brute = int((np.lcm.outer(oa, ob) == a).sum())
    assert order_pair_count(a, b) == brute


@given(st.integers(min_value=1, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_factorize_hypothesis_round_trip(n):
    prod = 1
    for p, e in factorize(n):
        prod *= p ** e
    assert prod == n


def test_valuation_and_order_helpers():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert euler_phi(1) == 1 and euler_phi(12) == 4
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 8) == 2
    with pytest.raises(DomainError):
        multiplicative_order(2, 4)


# --- the one power and the one order routine --------------------------------

def brute_order(x, mul, one) -> int:
    """Least k >= 1 with x^k == one, by walking the powers of x."""
    k, y = 1, x
    while y != one:
        y = mul(y, x)
        k += 1
    return k


def test_power_and_order_on_units_mod_n():
    rng = random.Random(9)
    for n in range(2, 501):
        mul = lambda a, b: a * b % n  # noqa: E731
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        phi = euler_phi(n)
        for a in rng.sample(units, min(4, len(units))):
            for e in (0, 1, 2, rng.randrange(3, 4 * n)):
                assert power(a, e, mul, 1) == pow(a, e, n), (a, e, n)
            want = brute_order(a, mul, 1)
            assert order(a, phi, lambda x, k: pow(x, k, n), 1) == want
            assert multiplicative_order(a, n) == want


def _random_invertible(space, rng):
    while True:
        images = [rng.randrange(space.p ** space.n) for _ in range(space.n)]
        images = [space.decode(v) for v in images]
        if not space.kernel(images):
            return images


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_power_and_order_on_prime_field_matrices(p, d):
    rng = random.Random(100 * p + d)
    space = VecSpace(p, d)
    ident = [space.unit(j) for j in range(d)]
    gl_order = 1
    for j in range(d):
        gl_order *= p ** d - p ** j
    for _ in range(12):
        a = _random_invertible(space, rng)
        walk = ident
        for e in range(20):
            assert power(a, e, space.compose, ident) == walk, (a, e)
            walk = space.compose(a, walk)
        pow_ = lambda x, k: power(x, k, space.compose, ident)  # noqa: E731
        assert order(a, gl_order, pow_, ident) == \
            brute_order(a, space.compose, ident)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 2), (7, 2), (13, 1)])
def test_power_and_order_in_finite_fields(p, m):
    ctx = make_field(p, m)
    rng = random.Random(p ** m)
    for x in [1, ctx.generator] + [rng.randrange(1, ctx.order) for _ in range(10)]:
        walk = 1
        for e in range(30):
            assert ctx.pow(x, e) == walk, (x, e)
            walk = ctx.mul(walk, x)
        assert ctx.element_order(x) == brute_order(x, ctx.mul, 1)
        assert ctx.mul(x, ctx.pow(x, -1)) == 1
