"""Matrix catalog: generator identities, closures, split classes."""

import random
from functools import partial

import pytest

from padicext.arith import closure
from padicext.census import ExtensionParams, census_by_group
from padicext.errors import CapacityError, DomainError, InvariantError
from padicext.ffield import FieldCtx, make_field
from padicext.groups import (MonomialMatrix, catalog, closure_elements,
                             coset_generator, frobenius_rep, generator_matrices, nonsplit_index,
                             power_sum, regular_rep, split_class)
from padicext.linalg import VecSpace
from padicext.oracle import (_mat_mul, classify_submodule,
                             matrix_group_elements)

from test_ffield import field_neg


def monomial_inv(m: MonomialMatrix, ctx) -> MonomialMatrix:
    ell = m.ell
    s = (-m.shift) % ell
    return MonomialMatrix(ell, s, tuple(ctx.inv(m.coeffs[(k - s) % ell])
                                        for k in range(ell)))


# ---------------------------------------------------------------------------
# prime-field models: the catalog's groups as F_p-matrices on GF(p^ell)

def cyclic_prime_field_model(ctx, alpha: int, beta: int) -> list[list]:
    """F_p-matrices of the two commuting diagonal generators: the pair
    acts on GF(p^ell) by multiplication."""
    return [regular_rep(ctx, alpha), regular_rep(ctx, beta)]


def nonabelian_prime_field_model(ctx, alpha: int, beta: int) -> list[list]:
    """F_p-matrices of (mult by alpha, mult-by-root o Frobenius^(ell-1))
    where root^(1+p+...+p^(ell-1)) = beta, so the shift generator's ell-th
    power is exactly the scalar beta; generates a group isomorphic to
    <T_alpha, V_beta>."""
    tau = regular_rep(ctx, alpha)
    root = power_sum_root(ctx, beta)
    v = VecSpace(ctx.p, ctx.m).compose(regular_rep(ctx, root),
                                       frobenius_rep(ctx, ctx.m - 1))
    return [tau, v]


def power_sum_root(ctx, beta: int) -> int:
    """Solve x^(1+p+...+p^(ell-1)) = beta for beta in the prime subfield;
    the discrete log of beta is always divisible by the power sum."""
    ps = power_sum(ctx.p, ctx.m)
    if beta == 1:
        return 1
    t = ctx.dlog(beta)
    if t % ps != 0:
        raise InvariantError(f"no power-sum root for {beta}")
    return ctx.pow(ctx.generator, t // ps)


def fp_images(mat: MonomialMatrix, ctx) -> list[int]:
    """mat as an F_p-matrix on GF(p^m)^ell = F_p^(ell*m): coordinate
    j*m + k holds digit k of entry j."""
    field, big = VecSpace(ctx.p, ctx.m), VecSpace(ctx.p, mat.ell * ctx.m)
    return [field.decode(ctx.mul(mat.coeffs[j], ctx.p ** k))
            << ((j + mat.shift) % mat.ell * ctx.m * big.w)
            for j in range(mat.ell) for k in range(ctx.m)]


def test_generator_matrix_shape_identities():
    ctx = make_field(2, 3)
    alpha = ctx.root_of_unity(7)
    pair = generator_matrices(ctx, alpha, 1, 3)
    # V^ell = beta * I
    v3 = pair.V.mul(pair.V, ctx).mul(pair.V, ctx)
    assert v3.shift == 0 and set(v3.coeffs) == {1}
    # V T V^-1 has T's diagonal cyclically Frobenius-shifted
    conj = pair.V.mul(pair.T, ctx).mul(monomial_inv(pair.V, ctx), ctx)
    assert conj.shift == 0
    assert conj.coeffs == tuple(pair.T.coeffs[(j - 1) % 3] for j in range(3))


def test_identity_pair_for_alpha_beta_one():
    ctx = make_field(2, 3)
    pair = generator_matrices(ctx, 1, 1, 3)
    assert pair.T == MonomialMatrix.identity(3)
    assert pair.V.shift == 1 and set(pair.V.coeffs) == {1}


def test_v_squared_is_scalar_for_ell_two():
    ctx = make_field(3, 2)
    beta = field_neg(ctx, 1)
    pair = generator_matrices(ctx, ctx.generator, beta, 2)
    v2 = pair.V.mul(pair.V, ctx)
    assert v2.shift == 0 and v2.coeffs == (beta, beta)


def test_closure_orders():
    ctx8 = make_field(2, 3)
    a7 = ctx8.root_of_unity(7)
    pair = generator_matrices(ctx8, a7, 1, 3)
    assert len(closure_elements([pair.T], ctx8)) == 7
    assert len(closure_elements([pair.T, pair.V], ctx8)) == 21
    ctx9 = make_field(3, 2)
    pair9 = generator_matrices(ctx9, ctx9.root_of_unity(8), 1, 2)
    assert len(closure_elements([pair9.T, pair9.V], ctx9)) == 16


def test_split_class_contract_examples():
    ctx = make_field(3, 2)
    params = ExtensionParams(3, 2, 1, 1)
    a8 = ctx.root_of_unity(8)
    a4 = ctx.root_of_unity(4)
    m1 = field_neg(ctx, 1)
    assert split_class(ctx, a8, 1, params) == ("split", 0)
    assert split_class(ctx, a4, m1, params) == ("nonsplit", 1)
    assert split_class(ctx, a8, m1, params) == ("split", 0)


def test_nonsplit_index_refuses_beta_outside_the_coset_subgroup():
    # c = 2, p = 7: gcd(c, p - 1) = 2, so only 1 and 6 are in the subgroup
    with pytest.raises(DomainError, match="3 is not in the order-2 subgroup mod 7"):
        nonsplit_index(2, 3, 7, 2)
    assert nonsplit_index(2, 6, 7, 2) == 1


def test_coset_generators_start_from_sympy_least_primitive_root():
    # c = p - 1 gives h = g itself, the generator of make_field(p, 1)
    sympy = pytest.importorskip("sympy")
    for p in sympy.primerange(2, 5000):
        assert coset_generator(p - 1, p) == sympy.ntheory.primitive_root(p), p


def test_split_class_rejects_beta_outside_prime_field():
    ctx = make_field(3, 2)
    params = ExtensionParams(3, 2, 1, 1)
    with pytest.raises(DomainError):
        split_class(ctx, ctx.generator, ctx.generator, params)


def test_split_class_frobenius_invariance_small_grid():
    for (p, ell) in ((3, 2), (5, 2), (2, 3), (7, 2), (5, 3)):
        ctx = make_field(p, ell)
        params = ExtensionParams(p, ell, 1, 1)
        for ea in range(1, p ** ell - 1):
            alpha = ctx.pow(ctx.generator, ea)
            for eb in range(p - 1):
                beta = pow_mod_prime(ctx, eb)
                got = split_class(ctx, alpha, beta, params)
                twisted = split_class(ctx, ctx.frob(alpha), beta, params)
                assert got == twisted


def pow_mod_prime(ctx, e: int) -> int:
    """e-th power of the canonical prime-subfield generator, as a ctx int."""
    root = ctx.root_of_unity(ctx.p - 1) if ctx.p > 2 else 1
    return ctx.pow(root, e)


def test_catalog_q2():
    entries = catalog(ExtensionParams(2, 3, 1, 1))
    labels = [e.descriptor.label for e in entries]
    assert labels == ["C(7)", "NA(7,split)"]
    orders = {e.descriptor.label: (e.matrix_order, e.full_order)
              for e in entries}
    assert orders["C(7)"] == (7, 7 * 8)
    assert orders["NA(7,split)"] == (21, 21 * 8)


def test_catalog_inertia_divisible_case_cyclic_only():
    entries = catalog(ExtensionParams(2, 3, 1, 3))
    assert [e.descriptor.label for e in entries] == ["C(7)"]
    assert entries[0].abelian


def test_catalog_keys_match_census_keys():
    for (p, ell, ek, fk) in ((2, 3, 1, 1), (3, 2, 1, 1), (5, 2, 1, 1),
                             (2, 3, 2, 3), (7, 2, 1, 2), (3, 2, 1, 2)):
        params = ExtensionParams(p, ell, ek, fk)
        assert [e.descriptor.label for e in catalog(params)] == \
            [e.label for e in census_by_group(params).by_group]


def test_catalog_representative_invariants():
    for entry in catalog(ExtensionParams(3, 2, 1, 1)):
        if entry.descriptor.kind == "cyclic":
            assert entry.abelian and entry.matrix_order == entry.descriptor.c
            assert entry.noncommuting_witness is None
        else:
            assert not entry.abelian
            assert entry.matrix_order == entry.descriptor.c * 2
            assert entry.noncommuting_witness is not None
        assert entry.full_order == entry.expected_matrix_order * 9


def test_nonsplit_representative_round_trips_through_classifier():
    params = ExtensionParams(3, 2, 1, 1)
    entries = {e.descriptor.label: e for e in catalog(params)}
    ns = entries["NA(4,ns1)"]
    ctx = make_field(3, 2)
    gens = nonabelian_prime_field_model(ctx, ns.alpha, ns.beta)
    got = classify_submodule(3, 2, gens)
    assert got.label == "NA(4,ns1)"


@pytest.mark.parametrize("p", [7, 13])
def test_nonsplit_representatives_round_trip_at_ell_three(p):
    # the classifier's coset element must act as the catalog's V does,
    # T -> T^(p^-1), or the class index comes back negated
    ctx = make_field(p, 3)
    checked = 0
    for entry in catalog(ExtensionParams(p, 3, 1, 1)):
        if (entry.descriptor.kind != "nonsplit"
                or entry.expected_matrix_order > 2000):
            continue
        gens = nonabelian_prime_field_model(ctx, entry.alpha, entry.beta)
        assert classify_submodule(p, 3, gens).label == entry.descriptor.label
        checked += 1
    assert checked == 4


def test_conjugation_identity_on_all_catalog_representatives():
    from padicext.ffield import make_field as mf
    for (p, ell, ek, fk) in ((2, 3, 1, 1), (3, 2, 1, 1), (5, 2, 1, 1)):
        ctx = mf(p, ell)
        for entry in catalog(ExtensionParams(p, ell, ek, fk)):
            if entry.descriptor.kind == "cyclic":
                continue
            T, V = entry.generators
            conj = V.mul(T, ctx).mul(monomial_inv(V, ctx), ctx)
            shifted = tuple(T.coeffs[(j - 1) % ell] for j in range(ell))
            assert conj.shift == 0 and conj.coeffs == shifted
            vl = V
            for _ in range(ell - 1):
                vl = vl.mul(V, ctx)
            assert vl.shift == 0 and set(vl.coeffs) == {entry.beta}


def test_prime_field_models_close_to_matching_orders():
    ctx = make_field(2, 3)
    a7 = ctx.root_of_unity(7)
    space = VecSpace(2, 3)
    tau, v = nonabelian_prime_field_model(ctx, a7, 1)
    got = classify_submodule(2, 3, [tau, v])
    assert got.label == "NA(7,split)"
    assert len(matrix_group_elements(2, 3, [tau, v])) == 21
    dtau, dbeta = cyclic_prime_field_model(ctx, a7, 1)
    got_c = classify_submodule(2, 3, [dtau, dbeta])
    assert got_c.label == "C(7)"


# ---------------------------------------------------------------------------
# the exponent-coordinate closure against a field-coordinate reference

def field_closure(generators, ctx, cap=10 ** 5):
    """Reference: BFS closure over MonomialMatrix values, each product a
    field multiply (MonomialMatrix.mul)."""
    gens = list(generators)
    seen = {MonomialMatrix.identity(gens[0].ell)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m.mul(g, ctx)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapacityError(f"group closure exceeds cap {cap}")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def from_keys(keys, ell, ctx):
    """Field-coordinate matrices of (shift, exponent tuple) closure keys."""
    return {MonomialMatrix(ell, shift, tuple(ctx.pow(ctx.generator, k)
                                             for k in exps))
            for shift, exps in keys}


def test_closure_matches_field_reference_on_small_catalogs():
    primes = (2, 3, 5, 7, 11, 13)
    checked = 0
    for p in primes:
        for ell in primes:
            if p == ell or p ** ell > 1 << 14:
                continue
            ctx = make_field(p, ell)
            for fk in (1,) + ((ell,) if ell <= 4 else ()):
                for entry in catalog(ExtensionParams(p, ell, 1, fk),
                                     closure_cap=10 ** 4):
                    if entry.matrix_order is None:
                        continue
                    ref = len(field_closure(entry.generators, ctx, cap=10 ** 4))
                    assert len(closure_elements(entry.generators, ctx)) == ref
                    assert entry.matrix_order == ref
                    checked += 1
    assert checked > 50


def _random_monomial(rng, ctx, ell):
    return MonomialMatrix(ell, rng.randrange(ell),
                          tuple(rng.randrange(1, ctx.order) for _ in range(ell)))


@pytest.mark.parametrize("p,ell", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_closure_matches_field_reference_on_random_pairs(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(p * 100 + ell)
    for _ in range(12):
        gens = [_random_monomial(rng, ctx, ell) for _ in range(2)]
        ref = field_closure(gens, ctx)
        keys = closure_elements(gens, ctx)
        assert len(keys) == len(ref)
        assert from_keys(keys, ell, ctx) == ref
        # the cap refuses exactly the groups larger than it
        with pytest.raises(CapacityError):
            closure_elements(gens, ctx, cap=len(ref) - 1)
        assert len(closure_elements(gens, ctx, cap=len(ref))) == len(ref)
        # the same group as F_p-matrices, through the oracle's closure
        fp_gens = [tuple(fp_images(g, ctx)) for g in gens]
        dim = ell * ctx.m
        assert len(matrix_group_elements(p, dim, fp_gens)) == len(ref)
        space = VecSpace(p, dim)
        ident = tuple(space.unit(j) for j in range(dim))
        step = partial(_mat_mul, space)
        assert len(closure(ident, fp_gens, step, len(ref))) == len(ref)
        with pytest.raises(CapacityError):
            closure(ident, fp_gens, step, len(ref) - 1)


def test_closure_when_coefficient_order_exceeds_group_order():
    # V = shift with coefficients (x, x^-1): V^2 = I, whatever the order of x
    for p in (3, 5, 13):
        ctx = make_field(p, 2)
        x = ctx.generator
        v = MonomialMatrix(2, 1, (x, ctx.inv(x)))
        assert len(closure_elements([v], ctx)) == 2
        assert from_keys(closure_elements([v], ctx), 2, ctx) == \
            field_closure([v], ctx)
        t = MonomialMatrix(2, 0, (field_neg(ctx, 1), 1))
        assert len(closure_elements([v, t], ctx)) == len(field_closure([v, t], ctx))


def test_closure_takes_one_discrete_log_per_frobenius_orbit(monkeypatch):
    # a catalog T = diag(alpha, alpha^p, ...) is one Frobenius orbit of ell
    # distinct entries: one dlog, the other logs by log(y^p) = p log(y)
    p, ell = 3, 5
    ctx = make_field(p, ell)
    calls = []
    dlog = FieldCtx.dlog

    def counting(self, x):
        calls.append(x)
        return dlog(self, x)

    monkeypatch.setattr(FieldCtx, "dlog", counting)
    for entry in catalog(ExtensionParams(p, ell, 1, 1)):
        T = entry.generators[0]
        assert len(set(T.coeffs)) == ell
        calls.clear()
        keys = closure_elements([T], ctx)
        assert calls == [T.coeffs[0]]
        assert from_keys(keys, ell, ctx) == field_closure([T], ctx)


def test_closure_refuses_a_discrete_log_beyond_its_cap():
    # a coefficient of order 2^40 - 1 needs 2^20 baby steps
    ctx = make_field(2, 40)
    x = ctx.generator
    v = MonomialMatrix(2, 1, (x, ctx.inv(x)))
    with pytest.raises(CapacityError, match="baby steps"):
        closure_elements([v], ctx)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 3), (7, 1)])
def test_frobenius_rep_matches_elementwise_frob(p, m):
    ctx = make_field(p, m)
    space = VecSpace(p, m)
    for k in range(2 * m + 2):
        want = [space.decode(ctx.frob(p ** j, k)) for j in range(m)]
        assert frobenius_rep(ctx, k) == want, k
