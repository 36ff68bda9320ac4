"""Spinning machinery and the brute-force census oracle."""

import pickle
import random
from bisect import bisect_left
from collections import Counter

import pytest

from padicext import oracle as oracle_module
from padicext.action import (constituents, default_aux_data, level_indices,
                             make_aux_data)
from padicext.arith import multiplicative_order, power
from padicext.census import ExtensionParams
from padicext.errors import CapacityError, DomainError, InvariantError
from padicext.ffield import FIELD_CEILING, make_field
from padicext.linalg import VecSpace
from padicext.oracle import (LevelRealization, Module, classify_submodule,
                             hom_basis, matrix_group_elements,
                             enumerate_irreducible_submodules, oracle_census,
                             spin, subspace_count_law, trace_key)

from test_ffield import field_add, field_neg
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
    for w in mod.space.span_lines(rows):
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


@pytest.mark.parametrize("p,d,mult", [(2, 2, 7), (3, 2, 5)])
def test_process_pool_scan_matches_serial(p, d, mult):
    # 8191 and 9841 seeds (one per line, pivot at most dim - d): above the
    # cut-off for worker processes
    mod = scalar_tower_module(p, d, mult)
    assert oracle_module.scan_seed_count(p, mod.dim, d) >= \
        oracle_module.PARALLEL_MIN_SEEDS
    base = enumerate_irreducible_submodules(mod, d, parallelism=1)
    assert len(base) == subspace_count_law(d, mult, p)
    for n in (2, 3):
        assert enumerate_irreducible_submodules(mod, d, parallelism=n) == base


def test_scan_plan_caps_workers_at_usable_cpus(monkeypatch):
    # only the plan is computed here: no pool is started
    assert oracle_module._usable_cpus() >= 1
    for cpus, parallelism, seeds, workers in (
            (2, 8, 1 << 21, 2), (2, 2, 4096, 2), (64, 8, 1 << 21, 8),
            (64, 10 ** 9, 4096, 64), (64, 8, 4, 4), (1, 8, 1 << 21, 1)):
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: cpus)
        got, ranges = oracle_module._scan_plan(seeds, parallelism)
        assert got == workers == min(parallelism, len(ranges), cpus)
        # contiguous ranges covering the seed indices [1, seeds + 1), about
        # 16 per worker
        assert ranges[0][0] == 1 and ranges[-1][1] == seeds + 1
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert len(ranges) <= min(parallelism, cpus) * \
            oracle_module.SCAN_RANGES_PER_WORKER


def test_scan_seed_count_stops_at_the_pivot_bound(monkeypatch):
    # the seeds with leading coordinate 1 and pivot at most dim - target_dim
    for p, dim in ((2, 6), (3, 4), (5, 3)):
        space = VecSpace(p, dim)
        lines = [v for v in map(space.decode, range(1, p ** dim))
                 if space.component(v, space.pivot(v)) == 1]
        for target_dim in range(1, dim + 2):
            count = oracle_module.scan_seed_count(p, dim, target_dim)
            assert count == sum(1 for v in lines
                                if space.pivot(v) <= dim - target_dim)
    assert oracle_module.scan_seed_count(2, 21, 3) == 2 ** 19 - 1
    # enumeration hands the scan exactly the seeds 1..count
    spans = []
    real_scan = oracle_module._scan_range

    def recording_scan(module, target_dim, lo, hi):
        spans.append((lo, hi))
        return real_scan(module, target_dim, lo, hi)

    monkeypatch.setattr(oracle_module, "_scan_range", recording_scan)
    enumerate_irreducible_submodules(scalar_tower_module(3, 2, 3), 2)
    assert spans == [(1, oracle_module.scan_seed_count(3, 6, 2) + 1)]


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
    # the seeds are the vectors with leading coordinate 1, in key order;
    # seed index t is the t-th of them
    mod = trivial_module(p, dim)
    space = mod.space
    vecs = [space.decode(k) for k in range(1, p ** dim)]
    keys = [k for k, v in enumerate(vecs, 1)
            if space.component(v, space.pivot(v)) == 1]
    assert len(keys) == (p ** dim - 1) // (p - 1)
    lines = [vecs[k - 1] for k in keys]
    seeds = []
    real_spin = oracle_module.spin

    def recording_spin(module, seed, abort_dim=None, abort_below=None):
        if abort_below is not None:
            seeds.append(seed)
        return real_spin(module, seed, abort_dim, abort_below)

    def scanned(ranges) -> list:
        seeds.clear()
        for a, b in ranges:
            oracle_module._scan_range(mod, 1, a, b)
        return list(seeds)

    monkeypatch.setattr(oracle_module, "spin", recording_spin)
    # the index range of the keys lo..hi-1
    a, b = 1 + bisect_left(keys, lo), 1 + bisect_left(keys, hi)
    assert scanned([(a, b)]) == [space.decode(k) for k in keys
                                 if lo <= k < hi]
    # ranges starting and ending at, just before and just after the start
    # 1 + (p^k - 1)/(p - 1) of every block k
    starts = [1 + (p ** k - 1) // (p - 1) for k in range(dim + 1)]
    ends = sorted({t for s in starts for t in (s - 1, s, s + 1)
                   if 1 <= t <= len(keys) + 1})
    for a in ends:
        for b in ends:
            if a <= b:
                assert scanned([(a, b)]) == lines[a - 1:b - 1], (a, b)
    # the ranges of every scan plan together cover every line once, in order
    for cpus, parallelism in ((1, 1), (2, 2), (2, 8), (64, 64)):
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: cpus)
        _, ranges = oracle_module._scan_plan(len(keys), parallelism)
        assert scanned(ranges) == lines


def full_scan_reference(module: Module, target_dim: int) -> tuple:
    """The exhaustive scan before seeds were taken one per line and bounded
    by pivot: spin every nonzero vector, and check irreducibility on every
    nonzero member."""
    space, p = module.space, module.p
    found: set = set()
    rejected: set = set()
    for key in range(1, p ** module.dim):
        seed = space.decode(key)
        rows = spin(module, seed, abort_dim=target_dim, abort_below=seed)
        if rows is None or len(rows) != target_dim:
            continue
        if rows in found or rows in rejected:
            continue
        members = [0]
        for r in rows:
            multiples = [space.smul(c, r) for c in range(1, p)]
            members += [space.add(m, x) for x in multiples for m in members]
        irreducible = all(
            (sub := spin(module, m, abort_dim=target_dim)) is not None
            and len(sub) == target_dim for m in members[1:])
        (found if irreducible else rejected).add(rows)
    return tuple(sorted(found))


def _conjugated(mod: Module, rng) -> Module:
    """mod in a random basis: the same module, with other seeds minimal."""
    space, p, n = mod.space, mod.p, mod.dim
    while True:
        basis = [space.from_coords(rng.randrange(p) for _ in range(n))
                 for _ in range(n)]
        if len(space.canon(basis)) == n:
            break
    # g' = B^-1 g B on coordinates: the images of basis vectors, solved back
    return Module(p, n, [[space.from_coords(space.solve(basis, img))
                          for img in space.compose(g, basis)]
                         for g in mod.generator_images])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_scan_matches_the_full_scan(p):
    rng = random.Random(p)
    max_dim = {2: 10, 3: 6, 5: 4, 7: 3}[p]  # p^dim at most 2401
    mods = [scalar_tower_module(p, d, mult)
            for d in range(1, max_dim + 1)
            for mult in range(1, max_dim // d + 1)]
    mods += [_conjugated(m, rng) for m in mods if m.dim > 1]
    for _ in range(12):
        dim = rng.randrange(1, max_dim + 1)
        space = VecSpace(p, dim)
        mods.append(Module(p, dim, [
            [space.from_coords(rng.randrange(p) if rng.random() < 0.4 else 0
                               for _ in range(dim)) for _ in range(dim)]
            for _ in range(rng.randrange(1, 3))]))
    nonempty = 0
    for mod in mods:
        for target_dim in range(1, mod.dim + 1):
            ref = full_scan_reference(mod, target_dim)
            assert enumerate_irreducible_submodules(mod, target_dim) == ref, \
                (mod.generator_images, target_dim)
            nonempty += bool(ref)
    assert nonempty >= len(mods)  # every module has irreducibles


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_subspace_finishes_its_spin_from_one_seed(monkeypatch, p):
    # a scan's spin reaches a target-dimension subspace only from its least
    # vector, so no subspace is spun to, or tested for irreducibility,
    # twice: not in one range and not across any split into ranges
    rng = random.Random(10 + p)
    max_dim = {2: 9, 3: 6, 5: 4}[p]
    mods = [scalar_tower_module(p, d, max_dim // d) for d in (1, 2)]
    mods += [_conjugated(m, rng) for m in mods]
    for _ in range(8):
        dim = rng.randrange(2, max_dim + 1)
        space = VecSpace(p, dim)
        mods.append(Module(p, dim, [
            [space.from_coords(rng.randrange(p) if rng.random() < 0.4 else 0
                               for _ in range(dim)) for _ in range(dim)]
            for _ in range(rng.randrange(1, 3))]))
    finished = []
    real_spin = oracle_module.spin

    def recording_spin(module, seed, abort_dim=None, abort_below=None):
        rows = real_spin(module, seed, abort_dim, abort_below)
        if abort_below is not None and rows is not None \
                and len(rows) == abort_dim:
            finished.append((seed, rows))
        return rows

    monkeypatch.setattr(oracle_module, "spin", recording_spin)
    spun = 0
    for mod in mods:
        for target_dim in range(1, mod.dim + 1):
            seeds = oracle_module.scan_seed_count(p, mod.dim, target_dim)
            cuts = sorted(rng.sample(range(2, seeds + 1), min(5, seeds - 1)))
            splits = [[(1, seeds + 1)],
                      list(zip([1] + cuts, cuts + [seeds + 1])),
                      [(t, t + 1) for t in range(1, seeds + 1)]]
            outcomes = []
            for ranges in splits:
                finished.clear()
                found = set()
                for lo, hi in ranges:
                    found |= oracle_module._scan_range(mod, target_dim, lo, hi)
                subspaces = [rows for _, rows in finished]
                assert len(set(subspaces)) == len(subspaces)
                assert all(seed == min(rows) for seed, rows in finished)
                outcomes.append((sorted(subspaces), found))
                spun += len(subspaces)
            assert outcomes[1] == outcomes[2] == outcomes[0]
    assert spun > 100


def test_pruned_sweep_matches_the_full_scan_on_level_modules():
    # every (3,2,1,1) level and level 9 of (2,3,1,1): a generator of
    # minimal polynomial degree above ell leaves few candidate lines, and
    # spinning them finds what the scan of every seed finds
    for point, levels in (((3, 2, 1, 1), None), ((2, 3, 1, 1), (9,))):
        params = ExtensionParams(*point)
        aux = default_aux_data(params)
        real = LevelRealization(params, aux)
        for i in levels or level_indices(aux):
            mod = real.level_module(i)
            seeds = oracle_module.scan_seed_count(params.p, mod.dim, params.ell)
            lines = oracle_module._candidate_lines(mod, params.ell, seeds)
            assert lines is not None and len(lines) < seeds, (point, i)
            full = oracle_module._scan_range(mod, params.ell, 1, seeds + 1)
            assert enumerate_irreducible_submodules(
                mod, params.ell, cap=params.p ** mod.dim) == \
                tuple(sorted(full)), (point, i)


def _random_module(p: int, dim: int, rng) -> Module:
    space = VecSpace(p, dim)
    return Module(p, dim, [[space.from_coords(rng.randrange(p)
                                              for _ in range(dim))
                            for _ in range(dim)] for _ in range(2)])


def _direct_sum(p: int, parts: list) -> Module:
    dim = sum(m.dim for m in parts)
    w = VecSpace(p, dim).w
    gens = [[], []]
    offset = 0
    for m in parts:
        for g, images in zip(gens, m.generator_images):
            g.extend(img << (offset * w) for img in images)
        offset += m.dim
    return Module(p, dim, gens)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_candidate_lines_hold_every_submodule_of_a_mixed_module(p):
    # direct sums of 2-3 random modules with no nonzero equivariant map
    # between two of equal dimension (so no two are isomorphic)
    rng = random.Random(20 + p)
    max_dim = {2: 9, 3: 6, 5: 4}[p]
    pruned = 0
    for _ in range(10):
        while True:
            dims = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
            if sum(dims) <= max_dim:
                break
        parts = []
        for d in dims:
            while True:
                m = _random_module(p, d, rng)
                if not any(o.dim == d and hom_basis(p, m.generator_images,
                                                    o.generator_images)
                           for o in parts):
                    break
            parts.append(m)
        mod = _direct_sum(p, parts)
        space = mod.space
        for target_dim in range(1, mod.dim + 1):
            ref = full_scan_reference(mod, target_dim)
            # every seed a found submodule holds is a candidate
            lines = set(oracle_module._candidate_lines(mod, target_dim,
                                                       p ** mod.dim))
            for rows in ref:
                assert {v for v in space.span_lines(rows)
                        if space.pivot(v) <= mod.dim - target_dim} <= lines
            seeds = oracle_module.scan_seed_count(p, mod.dim, target_dim)
            pruned += len(lines) < seeds
            assert enumerate_irreducible_submodules(mod, target_dim) == ref, \
                (mod.generator_images, target_dim)
    assert pruned >= 10


def test_level_sweep_spins_only_candidate_lines(monkeypatch):
    # at (2,3,1,1) every level has 3 candidate lines: one spin each, and
    # 7 more per submodule found (its lines, spun by _target_from)
    calls = []
    real_spin = oracle_module.spin

    def counting_spin(*args, **kwargs):
        calls.append(args[1])
        return real_spin(*args, **kwargs)

    def no_scan(*args):
        raise AssertionError("a level sweep planned or scanned seed ranges")

    monkeypatch.setattr(oracle_module, "spin", counting_spin)
    monkeypatch.setattr(oracle_module, "_scan_range", no_scan)
    monkeypatch.setattr(oracle_module, "_scan_plan", no_scan)
    params = ExtensionParams(2, 3, 1, 1)
    aux = default_aux_data(params)
    real = LevelRealization(params, aux)
    for i in level_indices(aux):
        calls.clear()
        subs = enumerate_irreducible_submodules(real.level_module(i), 3,
                                                cap=2 ** 21, parallelism=2)
        assert subs and len(calls) <= 3 + 7 * len(subs), (i, len(calls))


def test_level_sweep_reaches_a_16_dimensional_point():
    # a full scan would spin (3^15 - 1)/2 = 7,174,453 seeds per level
    oc = oracle_census(ExtensionParams(3, 2, 1, 2), level_cap=3 ** 16)
    assert oc.matches_closed_form
    assert len(oc.level_exhaustive) == 8
    assert sum(r.found for r in oc.level_exhaustive) == 108
    assert all(r.found == r.expected for r in oc.level_exhaustive)


def test_enumerate_capacity_error_mentions_fallback():
    mod = trivial_module(2, 30)
    with pytest.raises(CapacityError, match="isotypic block"):
        enumerate_irreducible_submodules(mod, 2)


def test_residue_field_ceiling_stays_within_proven_primality():
    # building GF(p^m) factors p^m - 1 with fixed-witness Miller-Rabin,
    # proven only below 3.317e24
    assert FIELD_CEILING <= 3_317_044_064_679_887_385_961_981
    params = ExtensionParams(3, 2, 1, 1)
    # f_total = 56 is inside the spin cap, but 3^56 ~ 2^88.8 is refused
    with pytest.raises(CapacityError, match=str(FIELD_CEILING)):
        LevelRealization(params, make_aux_data(params, 8, 56))
    # 3^40 ~ 2^63.4 is admitted
    real = LevelRealization(params, make_aux_data(params, 8, 40))
    assert real.kappa.order == 3 ** 40


def test_level_realization_leaves_the_spin_cap_to_module():
    # make_field refuses every degree past FIELD_CEILING's bit length before
    # any field work, so the realization has no spin-cap check of its own;
    # the modules actually spun keep it
    params = ExtensionParams(2, 3, 1, 1)
    with pytest.raises(CapacityError, match="FIELD_CEILING"):
        LevelRealization(params, make_aux_data(params, 1, 65))
    space = VecSpace(2, 65)
    with pytest.raises(CapacityError,
                       match=f"exceeds {oracle_module.SPIN_DIM_CAP}$"):
        Module(2, 65, [[space.unit(j) for j in range(65)]])


def _columns(space_y: VecSpace, t: int, dim_x: int) -> list:
    """The columns T e_j of a map in hom_basis coordinates (T[i][j] is
    coordinate j*dim_y + i)."""
    block = space_y.n * space_y.w
    return [(t >> (j * block)) & ((1 << block) - 1) for j in range(dim_x)]


def _equivariant(space_y, t, gens_x, gens_y, dim_x) -> bool:
    cols = _columns(space_y, t, dim_x)
    return all(space_y.compose(cols, gx) == space_y.compose(gy, cols)
               for gx, gy in zip(gens_x, gens_y))


def _random_images(space, rng):
    return [space.decode(rng.randrange(space.p ** space.n))
            for _ in range(space.n)]


def _conjugate(space, P, g):
    """P g P^-1, for P invertible."""
    P_inv = [space.from_coords(space.solve(P, space.unit(j)))
             for j in range(space.n)]
    return space.compose(P, space.compose(g, P_inv))


HOM_SHAPES = [(p, dx, dy) for p in (2, 3, 5, 7) for dx in range(1, 6)
              for dy in range(1, 6) if p ** (dx * dy) <= 729]


@pytest.mark.parametrize("p,dim_x,dim_y", HOM_SHAPES)
def test_hom_basis_matches_brute_force_count(p, dim_x, dim_y):
    rng = random.Random(1000 * p + 10 * dim_x + dim_y)
    sx, sy = VecSpace(p, dim_x), VecSpace(p, dim_y)
    maps = VecSpace(p, dim_x * dim_y)
    for trial in range(12):
        k = 1 + trial % 3
        gens_x = [_random_images(sx, rng) for _ in range(k)]
        P = None
        if dim_x == dim_y and trial % 2:
            # Y is X conjugated by an invertible P, so P is equivariant
            while P is None or sx.kernel(P):
                P = _random_images(sx, rng)
            gens_y = [_conjugate(sx, P, g) for g in gens_x]
        elif dim_x == dim_y and trial % 4 == 2:
            gens_y = gens_x  # End(X) holds at least the scalars
        else:
            gens_y = [_random_images(sy, rng) for _ in range(k)]
        basis = hom_basis(p, gens_x, gens_y)
        brute = sum(1 for t in range(p ** (dim_x * dim_y))
                    if _equivariant(sy, maps.decode(t), gens_x, gens_y, dim_x))
        assert p ** len(basis) == brute, (gens_x, gens_y)
        assert maps.canon(basis) == basis
        for t in basis:
            assert _equivariant(sy, t, gens_x, gens_y, dim_x)
        if P is not None:
            t_p = sum(col << (j * dim_y * maps.w) for j, col in enumerate(P))
            assert maps.reduce(t_p, list(basis)) == 0


def test_classify_cyclic_and_nonabelian():
    ctx = make_field(2, 3)
    a7 = ctx.root_of_unity(7)
    cyc = cyclic_prime_field_model(ctx, a7, 1)
    assert classify_submodule(2, 3, cyc).label == "C(7)"
    assert len(matrix_group_elements(2, 3, cyc)) == 7
    na = nonabelian_prime_field_model(ctx, a7, 1)
    assert classify_submodule(2, 3, na).label == "NA(7,split)"
    assert len(matrix_group_elements(2, 3, na)) == 21
    ctx9 = make_field(3, 2)
    a4 = ctx9.root_of_unity(4)
    ns = nonabelian_prime_field_model(ctx9, a4, field_neg(ctx9, 1))
    assert classify_submodule(3, 2, ns).label == "NA(4,ns1)"
    assert len(matrix_group_elements(3, 2, ns)) == 8


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
# iso-grouping by trace key: sound, and it bounds the hom_basis work

def _class_representatives(monkeypatch, point):
    """Each class's representative (tau, v) images, as oracle_census keeps
    them."""
    reps = []

    class Recording(oracle_module._PhysicalClass):
        def __init__(self, p, rep_gens):
            super().__init__(p, rep_gens)
            reps.append(rep_gens)

    monkeypatch.setattr(oracle_module, "_PhysicalClass", Recording)
    oracle_census(ExtensionParams(*point))
    return reps


def _random_conjugator(space, rng):
    """A random invertible matrix P and P^-1 = P^(|GL_n(F_p)| - 1), as
    basis images."""
    p, n = space.p, space.n
    ident = [space.unit(j) for j in range(n)]
    while True:
        P = [space.from_coords(rng.randrange(p) for _ in range(n))
             for _ in range(n)]
        if len(space.canon(P)) == n:
            break
    gl_order = 1
    for i in range(n):
        gl_order *= p ** n - p ** i
    P_inv = power(P, gl_order - 1, space.compose, ident)
    assert space.compose(P, P_inv) == ident
    return P, P_inv


@pytest.mark.parametrize("point", [(5, 2, 1, 1), (2, 3, 1, 3)])
def test_trace_key_is_a_conjugacy_invariant(monkeypatch, point):
    p, ell = point[0], point[1]
    space = VecSpace(p, ell)
    rng = random.Random(sum(point))
    reps = _class_representatives(monkeypatch, point)
    assert len(reps) > 10
    for gens in reps:
        key = trace_key(p, ell, gens)
        for _ in range(5):
            P, P_inv = _random_conjugator(space, rng)
            conj = [space.compose(P, space.compose(g, P_inv)) for g in gens]
            assert trace_key(p, ell, conj) == key
            assert hom_basis(p, conj, gens)


@pytest.mark.parametrize("point", [(5, 2, 1, 1), (3, 2, 1, 2), (2, 3, 1, 3),
                                   (3, 2, 2, 1)])
def test_trace_key_only_filters(monkeypatch, point):
    # with one key for every submodule, hom_basis alone decides each class:
    # the same classes and report
    params = ExtensionParams(*point)
    keyed = oracle_census(params)
    monkeypatch.setattr(oracle_module, "trace_key", lambda p, ell, gens: ())
    flat = oracle_census(params)
    assert repr(flat.classes) == repr(keyed.classes)
    assert flat.report == keyed.report


def test_census_hom_basis_and_min_poly_work_is_bounded(monkeypatch):
    hom_calls = 0
    min_polys = Counter()
    hom_basis_orig = oracle_module.hom_basis
    min_poly_orig = LevelRealization.beta_min_poly

    def counting_hom_basis(*args):
        nonlocal hom_calls
        hom_calls += 1
        return hom_basis_orig(*args)

    def counting_min_poly(self, m, orbit):
        min_polys[m, orbit] += 1
        return min_poly_orig(self, m, orbit)

    monkeypatch.setattr(oracle_module, "hom_basis", counting_hom_basis)
    monkeypatch.setattr(LevelRealization, "beta_min_poly", counting_min_poly)
    oc = oracle_census(ExtensionParams(5, 2, 1, 1))
    # With no trace-key collision each kernel submodule costs one hom_basis
    # call: against its class's representative, or (for a class's first
    # member) the End(X) of the class.
    # A linear lookup over groups and classes made 4,460 here.
    submodules = sum(subspace_count_law(c.d, m, 5)
                     for c in oc.classes for m in c.mult_by_level)
    assert hom_calls <= submodules <= 300
    aux = oc.aux
    wanted = {(cons.beta_modulus, cons.beta_orbit)
              for i in level_indices(aux) for cons in constituents(i, aux)
              if cons.dim_over_fp == 2}
    assert set(min_polys) == wanted
    assert set(min_polys.values()) == {1}


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
                acc = field_add(kappa, acc, y)
        images.append(real.space.decode(acc))
    return real.space.kernel(images)


def _beta_kernel_args(real):
    """Every (s, modulus, orbit) oracle_census asks beta_kernel for, at any
    level (the kernel does not depend on the level)."""
    out = set()
    for i in level_indices(real.aux):
        for cons in constituents(i, real.aux):
            out.add((cons.s, cons.beta_modulus, cons.beta_orbit))
    return sorted(out)


def _reference_beta_min_poly(p, m, orbit):
    """prod_{b in orbit} (y - xi^b), multiplied out over the aux field with
    its sums taken on decoded vectors; the coefficients must lie in F_p."""
    aux_field = make_field(p, multiplicative_order(p, m))
    xi = aux_field.root_of_unity(m)
    poly = [1]
    for b in orbit:
        minus_root = field_neg(aux_field, aux_field.pow(xi, b))
        nxt = [0] * (len(poly) + 1)
        for k, ck in enumerate(poly):
            nxt[k + 1] = field_add(aux_field, nxt[k + 1], ck)
            nxt[k] = field_add(aux_field, nxt[k], aux_field.mul(ck, minus_root))
        poly = nxt
    assert all(ck < p for ck in poly), (p, m, orbit)
    return poly


def test_beta_min_poly_matches_the_product_over_every_small_orbit():
    # every orbit of b -> p*b on Z/m, m < 60 prime to p, whose field
    # GF(p^ord_m(p)) has at most 2^40 elements
    real = LevelRealization.__new__(LevelRealization)  # beta_min_poly reads p
    orbits = 0
    for p in (2, 3, 5, 7, 11, 13):
        real.p = p
        for m in range(2, 60):
            if m % p == 0 or p ** multiplicative_order(p, m) > 1 << 40:
                continue
            seen = set()
            for b in range(m):
                if b not in seen:
                    orbit = [b]
                    while orbit[-1] * p % m != b:
                        orbit.append(orbit[-1] * p % m)
                    seen.update(orbit)
                    assert (real.beta_min_poly(m, tuple(orbit))
                            == _reference_beta_min_poly(p, m, orbit)), (p, m, b)
                    orbits += 1
    assert orbits > 1000


@pytest.mark.parametrize("point", [(5, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 1)])
def test_frobenius_matrix_matches_field_side_reference(point):
    params = ExtensionParams(*point)
    real = LevelRealization(params, default_aux_data(params))
    assert real.v_images() == _reference_v_images(real)
    for i in level_indices(real.aux):
        assert real.tau_images(i) == _reference_tau_images(real, i)
    args = _beta_kernel_args(real)
    assert args
    for s, m, orbit in args:
        # the oracle's s, and powers of v it does not ask for
        for s_any in {s, 1, 3}:
            assert (real.beta_kernel(s_any, m, orbit)
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
