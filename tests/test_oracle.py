"""Spinning machinery and the brute-force census oracle."""

import pickle
import random

import pytest

from padicext import oracle as oracle_module
from padicext.action import (constituents, default_aux_data, level_indices,
                             make_aux_data, residue_orbits)
from padicext.census import ExtensionParams
from padicext.errors import CapacityError, DomainError, InvariantError
from padicext.ffield import make_field
from padicext.linalg import VecSpace
from padicext.oracle import (ORACLE_FIELD_CEILING, LevelRealization, Module,
                             classify_submodule,
                             enumerate_irreducible_submodules, oracle_census,
                             spin, subspace_count_law)

from test_groups import cyclic_prime_field_model, nonabelian_prime_field_model


def trivial_module(p: int, dim: int) -> Module:
    space = VecSpace(p, dim)
    ident = [space.unit(j) for j in range(dim)]
    return Module(p, dim, [ident])


def scalar_tower_module(p: int, d: int, mult: int) -> Module:
    """mult diagonal copies of the field GF(p^d) acted on by its canonical
    generator: an isotypic block with endomorphism degree d."""
    ctx = make_field(p, d)
    space = VecSpace(p, d * mult)
    images = []
    for copy in range(mult):
        for j in range(d):
            img_field = ctx.mul(ctx.generator, ctx.p ** j)
            # the field element's digits, moved to coordinates of this copy
            images.append(space.decode(img_field) << (copy * d * space.w))
    return Module(p, d * mult, [images])


def test_subspace_count_law_examples():
    assert subspace_count_law(1, 3, 2) == 7
    assert subspace_count_law(2, 2, 3) == 10
    assert subspace_count_law(5, 1, 7) == 1
    assert subspace_count_law(3, 3, 2) == 73


def test_spin_fixed_line():
    mod = trivial_module(3, 4)
    rows = spin(mod, mod.space.unit(2))
    assert len(rows) == 1


def test_spin_idempotent_and_seed_independent():
    params = ExtensionParams(2, 3, 1, 1)
    real = LevelRealization(params, default_aux_data(params))
    mod = real.level_module(7)
    seed = 1
    rows = spin(mod, seed)
    for w in mod.space.span_members(rows):
        assert spin(mod, w) == rows


def test_spin_rejects_zero_seed():
    mod = trivial_module(2, 3)
    with pytest.raises(DomainError):
        spin(mod, 0)


def test_enumerate_trivial_action_lines():
    # no dim-2 irreducibles under the trivial action; 7 lines at dim 1
    mod = trivial_module(2, 3)
    assert enumerate_irreducible_submodules(mod, 2) == ()
    assert len(enumerate_irreducible_submodules(mod, 1)) == 7


def test_enumerate_matches_count_law_on_synthetic_blocks():
    # (p, d, mult) with p^(d*mult) small: spin count == (p^(d m)-1)/(p^d-1)
    for (p, d, mult) in ((2, 1, 3), (3, 2, 2), (2, 3, 3), (5, 2, 1),
                         (2, 2, 4), (3, 1, 4)):
        mod = scalar_tower_module(p, d, mult)
        subs = enumerate_irreducible_submodules(mod, d)
        assert len(subs) == subspace_count_law(d, mult, p), (p, d, mult)


def test_enumerate_deterministic_under_parallelism():
    mod = scalar_tower_module(2, 3, 3)
    base = enumerate_irreducible_submodules(mod, 3, parallelism=1)
    assert enumerate_irreducible_submodules(mod, 3, parallelism=4) == base
    assert enumerate_irreducible_submodules(mod, 3, parallelism=7) == base


@pytest.mark.parametrize("p,d,mult", [(2, 3, 4), (3, 2, 4)])
def test_process_pool_scan_matches_serial(p, d, mult):
    # 4096 and 6561 seeds: at or above the cut-off for worker processes
    mod = scalar_tower_module(p, d, mult)
    assert p ** mod.dim >= oracle_module.PARALLEL_MIN_SEEDS
    base = enumerate_irreducible_submodules(mod, d, parallelism=1)
    assert len(base) == subspace_count_law(d, mult, p)
    for n in (2, 3):
        assert enumerate_irreducible_submodules(mod, d, parallelism=n) == base


def test_scan_plan_caps_workers_at_usable_cpus(monkeypatch):
    # only the plan is computed here: no pool is started
    assert oracle_module._usable_cpus() >= 1
    for cpus, parallelism, total, workers in (
            (2, 8, 1 << 21, 2), (2, 2, 4096, 2), (64, 8, 1 << 21, 8),
            (64, 10 ** 9, 4096, 64), (64, 8, 5, 4), (1, 8, 1 << 21, 1)):
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: cpus)
        got, ranges = oracle_module._scan_plan(total, parallelism)
        assert got == workers == min(parallelism, len(ranges), cpus)
        # contiguous ranges covering [1, total), about 16 per worker
        assert ranges[0][0] == 1 and ranges[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert len(ranges) <= min(parallelism, cpus) * \
            oracle_module.SCAN_RANGES_PER_WORKER


def test_errors_survive_a_pickle_round_trip():
    # a worker's exception reaches the caller pickled
    for cls in (DomainError, CapacityError, InvariantError):
        err = pickle.loads(pickle.dumps(cls("level 9: cap 2^21")))
        assert type(err) is cls and str(err) == "level 9: cap 2^21"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_spin_result_is_canon_of_the_closure(p):
    rng = random.Random(p)
    for dim in (3, 5, 8):
        space = VecSpace(p, dim)
        for _ in range(6):
            gens = [[space.from_coords(rng.randrange(p) for _ in range(dim))
                     for _ in range(dim)] for _ in range(2)]
            mod = Module(p, dim, gens)
            seed = space.from_coords(rng.randrange(p) for _ in range(dim)) \
                or space.unit(0)
            # reference: grow the span under the maps until it is closed
            key = space.canon([seed])
            while True:
                grown = space.canon(list(key) + [f(r) for r in key
                                                 for f in mod.apply])
                if grown == key:
                    break
                key = grown
            rows = spin(mod, seed)
            assert rows == key
            assert space.canon(rows) == rows


@pytest.mark.parametrize("p,dim,lo,hi", [(3, 4, 1, 81), (3, 4, 8, 27),
                                          (5, 3, 24, 101), (2, 6, 5, 64),
                                          (7, 2, 48, 49)])
def test_scan_steps_seeds_in_key_order(monkeypatch, p, dim, lo, hi):
    mod = trivial_module(p, dim)
    seeds = []
    real_spin = oracle_module.spin

    def recording_spin(module, seed, abort_dim=None, abort_below=None):
        if abort_below is not None:
            seeds.append(seed)
        return real_spin(module, seed, abort_dim, abort_below)

    monkeypatch.setattr(oracle_module, "spin", recording_spin)
    oracle_module._scan_range(mod, 1, lo, hi)
    assert seeds == [mod.space.decode(k) for k in range(lo, hi)]


def test_enumerate_capacity_error_mentions_fallback():
    mod = trivial_module(2, 30)
    with pytest.raises(CapacityError, match="isotypic block"):
        enumerate_irreducible_submodules(mod, 2)


def test_residue_field_ceiling_stays_within_proven_primality():
    # building GF(p^m) factors p^m - 1 with fixed-witness Miller-Rabin,
    # proven only below 3.317e24
    assert ORACLE_FIELD_CEILING <= 3_317_044_064_679_887_385_961_981
    params = ExtensionParams(3, 2, 1, 1)
    # f_total = 56 is inside the spin cap, but 3^56 ~ 2^88.8 is refused
    with pytest.raises(CapacityError, match=str(ORACLE_FIELD_CEILING)):
        LevelRealization(params, make_aux_data(params, 8, 56))
    # 3^40 ~ 2^63.4 is admitted
    real = LevelRealization(params, make_aux_data(params, 8, 40))
    assert real.kappa.order == 3 ** 40


def test_classify_cyclic_and_nonabelian():
    ctx = make_field(2, 3)
    a7 = ctx.root_of_unity(7)
    got = classify_submodule(2, 3, cyclic_prime_field_model(ctx, a7, 1))
    assert got.label == "C(7)" and got.order == 7
    got_na = classify_submodule(2, 3, nonabelian_prime_field_model(ctx, a7, 1))
    assert got_na.label == "NA(7,split)" and got_na.order == 21
    ctx9 = make_field(3, 2)
    a4 = ctx9.root_of_unity(4)
    got_ns = classify_submodule(3, 2, nonabelian_prime_field_model(
        ctx9, a4, ctx9.neg(1)))
    assert got_ns.label == "NA(4,ns1)" and got_ns.order == 8


def test_oracle_census_q3_breakdown():
    oc = oracle_census(ExtensionParams(3, 2, 1, 1))
    assert oc.matches_closed_form
    assert oc.report.total == 30
    counts = {e.label: e.count for e in oc.report.by_group}
    assert counts == {"C(4)": 2, "C(8)": 4, "NA(8,split)": 16,
                      "NA(4,split)": 4, "NA(4,ns1)": 4}
    assert all(c.verified_exhaustively for c in oc.classes)


def test_oracle_census_q2_breakdown():
    oc = oracle_census(ExtensionParams(2, 3, 1, 1))
    assert oc.matches_closed_form
    counts = {e.label: e.count for e in oc.report.by_group}
    assert counts == {"C(7)": 2, "NA(7,split)": 14}
    # the nonabelian count is carried by two blocks of 7 = (2^3-1)/(2-1)
    na_blocks = [c for c in oc.classes if c.label == "NA(7,split)"]
    assert sorted(c.count for c in na_blocks) == [7, 7]
    assert all(c.multiplicity == 3 and c.d == 1 for c in na_blocks)


def test_oracle_census_inertia_divisible():
    oc = oracle_census(ExtensionParams(2, 3, 1, 3))
    assert oc.matches_closed_form
    assert {e.label: e.count for e in oc.report.by_group} == {"C(7)": 1168}
    assert len(oc.classes) == 16
    assert all(c.count == 73 for c in oc.classes)


def test_oracle_census_respects_override_invariants():
    params = ExtensionParams(2, 3, 1, 1)
    aux = make_aux_data(params, e_rel=7, f_rel=21)
    oc = oracle_census(params, aux)
    assert oc.matches_closed_form
    assert oc.aux.source == "user_override"


def test_oracle_rejects_p_equals_ell():
    with pytest.raises(DomainError):
        oracle_census(ExtensionParams(3, 3, 1, 1, allow_p_equals_ell=True))


def test_level_sweep_agrees_with_blocks_q3():
    oc = oracle_census(ExtensionParams(3, 2, 1, 1), level_cap=3 ** 8)
    assert [r.found for r in oc.level_exhaustive] == [2, 2, 3, 2, 2, 3, 2, 2]
    total_local = sum(r.found for r in oc.level_exhaustive)
    assert total_local == 18  # level-local counts, not the global 30


def test_oracle_agreement_grid():
    # default auxiliary invariants, both primes swapped, e_K, f_K in {1, 2}
    for (p, ell) in ((2, 3), (3, 2)):
        for ek in (1, 2):
            for fk in (1, 2):
                oc = oracle_census(ExtensionParams(p, ell, ek, fk))
                assert oc.matches_closed_form, (p, ell, ek, fk)


def test_oracle_agreement_richer_point():
    # p = 1 mod ell, so nonsplit families appear; every block verified
    oc = oracle_census(ExtensionParams(5, 2, 1, 1))
    assert oc.matches_closed_form and oc.report.total == 280
    counts = {e.label: e.count for e in oc.report.by_group}
    assert counts["NA(6,ns1)"] == 12 and counts["NA(12,ns1)"] == 48
    assert all(c.verified_exhaustively for c in oc.classes)


def test_oracle_disagreement_under_override_is_data():
    # a smaller (still valid) auxiliary field misses classes; the oracle
    # reports the shortfall instead of failing
    params = ExtensionParams(2, 3, 1, 1)
    oc = oracle_census(params, make_aux_data(params, e_rel=7, f_rel=3))
    assert not oc.matches_closed_form
    assert oc.report.total == 14
    assert {e.label: e.count for e in oc.report.by_group} == {"NA(7,split)": 14}


# ---------------------------------------------------------------------------
# the Frobenius matrix against field-side references

def _reference_tau_images(real, i):
    kappa = real.kappa
    a = kappa.pow(real.zeta, i)
    return [real.space.decode(kappa.mul(a, kappa.p ** j))
            for j in range(real.dim)]


def _reference_v_images(real):
    """x -> x^(p^f_K) by one kappa.frob per basis element x^j."""
    kappa = real.kappa
    return [real.space.decode(kappa.frob(kappa.p ** j, real.aux.f_k))
            for j in range(real.dim)]


def _reference_beta_kernel(real, s, m, orbit):
    """ker m_B(v^s) with m_B evaluated element by element in the field."""
    kappa = real.kappa
    coeffs = real.beta_min_poly(m, orbit)
    images = []
    for j in range(real.dim):
        acc = 0
        y = kappa.p ** j  # (v^s)^k applied to x^j
        for k, ck in enumerate(coeffs):
            if k:
                y = kappa.frob(y, real.aux.f_k * s)
            for _ in range(ck):
                acc = kappa.add(acc, y)
        images.append(real.space.decode(acc))
    return real.space.kernel(images)


def _beta_kernel_args(real):
    """Every (s, modulus, orbit) oracle_census asks beta_kernel for, at any
    level (the kernel does not depend on the level)."""
    p = real.p
    out = set()
    for i in level_indices(real.aux):
        for cons in constituents(i, real.aux):
            m = cons.beta_modulus
            orbit = next(o for o in residue_orbits(m, p % m if m > 1 else 0)
                         if o[0] == cons.beta_exp)
            out.add((cons.s, m, orbit))
    return sorted(out)


@pytest.mark.parametrize("point", [(5, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 1)])
def test_frobenius_matrix_matches_field_side_reference(point):
    params = ExtensionParams(*point)
    real = LevelRealization(params, default_aux_data(params))
    assert real.v_images() == _reference_v_images(real)
    for i in level_indices(real.aux):
        assert real.tau_images(i) == _reference_tau_images(real, i)
    args = _beta_kernel_args(real)
    assert args
    i = level_indices(real.aux)[0]
    for s, m, orbit in args:
        # the oracle's s, and powers of v it does not ask for
        for s_any in {s, 1, 3}:
            assert (real.beta_kernel(i, s_any, m, orbit)
                    == _reference_beta_kernel(real, s_any, m, orbit)), (s_any, m)


def test_returned_image_lists_are_fresh():
    params = ExtensionParams(3, 2, 1, 2)
    real = LevelRealization(params, default_aux_data(params))
    taus, vs = real.tau_images(1), real.v_images()
    taus[0] ^= 1
    taus.append(0)
    vs.extend(x << 1 for x in list(vs))
    vs[0] = 0
    assert real.tau_images(1) == _reference_tau_images(real, 1)
    assert real.v_images() == _reference_v_images(real)
