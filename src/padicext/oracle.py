"""Brute-force module oracle: explicit level modules, invariant-subspace
spinning, exhaustive enumeration of target-dimension irreducibles, and an
independently assembled census to audit the closed formulas.

Strategy: per level, the second character value is isolated with the
kernel of its minimal polynomial evaluated at the commuting power of the
inertia-degree Frobenius; the resulting small kernels are enumerated
exhaustively, iso-grouped by explicit equivariant-map solving (never by
the closed-form invariants they are meant to check), assembled into
cross-level isotypic blocks, counted by the subspace law, and classified
by matrix-group closure of the restricted action.  A submodule joins the
first class, of any level, that has its trace key (the traces of g^k,
k <= ell, for g = tau, v, tau v, which isomorphic modules share) and a
representative with a nonzero hom_basis to it; else it starts a class.

An exhaustive scan of F_p^n spins one seed per line: a vector with leading
coordinate 1.  "Seeds" below means these.  A scan finds each subspace from
its least nonzero vector alone, however the seeds are split: any other
seed's spin meets a vector below the seed and aborts.  An l-dimensional
subspace has l distinct pivots, so that vector's pivot is at most n - l:
the scan for dimension l spins only the (p^(n-l+1) - 1)/(p - 1) seeds with
pivot at most n - l (scan_seed_count).  A seed is skipped unspun when a
generator's image of it already gives a smaller vector of its spin.  Every
vector of an l-dimensional submodule lies in ker q(g) for some monic q of
degree l, for each generator g; when these kernels hold fewer lines than
there are seeds, only those lines are spun, in the calling process
(_candidate_lines).  Otherwise, with parallelism N > 1, a scan of at least
PARALLEL_MIN_SEEDS seeds runs in min(N, usable CPUs) worker processes; the
result, and so every output byte, is the same for any N.  EXHAUSTIVE_CAP
and BLOCK_CAP bound p^n, not the seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from .action import (AuxFieldData, constituents, default_aux_data,
                     level_indices, pair_classes)
from .arith import closure, multiplicative_order, order, power
from .census import (CensusEntry, CensusReport, ExtensionParams, GroupClass,
                     census_by_group)
from .errors import CapacityError, DomainError, InvariantError
from .ffield import FieldCtx, make_field
from .groups import (CLOSURE_CAP, beta_is_power_residue, frobenius_rep,
                     nonsplit_index, regular_rep)
from .linalg import VecSpace, restrict_map

EXHAUSTIVE_CAP = 1 << 24
SPIN_DIM_CAP = 64
BLOCK_CAP = 1 << 18  # blocks re-counted by exhaustive spinning
PARALLEL_MIN_SEEDS = 4096  # smaller scans stay in the calling process
# contiguous seed ranges per worker: the work per seed is uneven across
# the seed indices, so one range each leaves a worker idle at the end
SCAN_RANGES_PER_WORKER = 16


# ---------------------------------------------------------------------------
# generic modules and spinning

class Module:
    """Explicit F_p[H]-module: a coordinate space plus generator maps."""

    def __init__(self, p: int, dim: int, generator_images: list[list]) -> None:
        if dim > SPIN_DIM_CAP:
            raise CapacityError(f"module dimension {dim} exceeds {SPIN_DIM_CAP}")
        self.p = p
        self.dim = dim
        self.space = VecSpace(p, dim)
        self.generator_images = [list(g) for g in generator_images]
        self.apply = [self.space.map_from_images(g) for g in self.generator_images]


def spin(module: Module, seed, abort_dim: int | None = None,
         abort_below: int | None = None):
    """Smallest action-closed subspace containing seed, as a canonical
    echelon row tuple; None when an abort threshold fires.

    `abort_dim`: give up once the dimension would exceed it (sound when
    hunting submodules of that exact dimension).  `abort_below`: give up
    when a produced vector is smaller than this one, usually the seed
    (sound for exhaustive scans: the subspace is reached from its least
    nonzero vector, and only from it).  That vector has leading coordinate 1:
    scaling a vector with leading coefficient c != 1 by 1/c gives a smaller
    one.  Its pivot is the least of the subspace's pivots, which are
    distinct, so for a subspace of dimension l in F_p^n it is at most
    n - l.  So a scan of only the seeds with leading coordinate 1 and pivot
    at most n - l still reaches every l-dimensional subspace.
    """
    space = module.space
    if not seed:
        raise DomainError("spin needs a nonzero seed")
    rows: list = []
    space.place(rows, seed)
    work = [seed]
    applies = module.apply
    reduce = space.reduce
    place = space.place
    while work:
        v = work.pop()
        for f in applies:
            w = reduce(f(v), rows)
            if not w:
                continue
            if abort_below is not None and w < abort_below:
                return None
            if abort_dim is not None and len(rows) >= abort_dim:
                return None
            place(rows, w)
            work.append(w)
    return space.back_substitute(rows)


def _scan_range(module: Module, target_dim: int, lo: int, hi: int):
    """Spin the seeds of index lo..hi-1, in key order: block k holds the
    p^k seeds unit(k) | decode(o), o < p^k, from index 1 + (p^k - 1)/(p - 1)
    on (at p = 2, seed t is the vector of key t).

    A seed whose image under some generator reduces, against the seed, to
    a nonzero vector with pivot below k is skipped unspun: that vector of
    spin(seed) is below the seed, which so is not the least vector of its
    subspace.  abort_below leaves each subspace one seed: its least vector."""
    space = module.space
    found: set = set()
    # within a block, seeds in base-p key order: add 1, carry each lane
    # that reached p; no carry reaches lane k (for p = 2, w = 1 and the int
    # addition carries by itself)
    p, w, n = space.p, space.w, space.n
    lane, carry = (1 << w) - 1, (1 << w) - p
    reduce = space.reduce
    # every generator's image of the current seed, image g in lanes
    # g*n..g*n+n-1 of one vector.  A step that carries through lanes
    # 0..j-1 adds e_0 + ... + e_j to the seed (p - 1 + 1 = 0 in each carried
    # lane), so step[the lowest set bit of the new seed, in lane j] holds
    # the images of e_0 + ... + e_j
    width = n * w
    gens = module.generator_images
    stack = VecSpace(p, n * len(gens))
    step = {}
    total = 0
    for j in range(n):
        total = stack.add(total, sum(images[j] << (g * width)
                                     for g, images in enumerate(gens)))
        step.update((1 << bit, total) for bit in range(j * w, (j + 1) * w))
    end = 1
    for k in range(n):
        start, end = end, end + p ** k  # block k: indices [start, end)
        a, b = max(lo, start), min(hi, end)
        if a >= b:
            continue
        to_k = (1 << ((k + 1) * w)) - 1  # lanes 0..k
        above = [(((1 << width) - 1 - to_k) << (g * width), g * width)
                 for g in range(len(gens))]
        # start one step back: the first step lands on
        # unit(k) | decode(a - start), with its images
        seed = space.unit(k) | space.decode(a - start)
        images = stack.add(
            sum(f(seed) << (g * width) for g, f in enumerate(module.apply)),
            stack.smul(-1, step[seed & -seed]))
        seed -= 1
        for _ in range(a, b):
            seed += 1
            j = 0
            while (seed >> j) & lane == p:
                seed += carry << j
                j += w
            images = stack.add(images, step[seed & -seed])
            for mask, shift in above:
                if not images & mask and reduce(images >> shift & to_k, (seed,)):
                    break
            else:
                rows = _target_from(module, seed, target_dim)
                if rows:
                    found.add(rows)
    return found


def _target_from(module: Module, seed: int, target_dim: int):
    """spin(seed) when seed is the least vector of an irreducible
    submodule of the target dimension (every line of which spins to all of
    it), else None."""
    rows = spin(module, seed, abort_dim=target_dim, abort_below=seed)
    if rows is None or len(rows) != target_dim:
        return None
    for line in module.space.span_lines(rows):
        sub = spin(module, line, abort_dim=target_dim)
        if sub is None or len(sub) != target_dim:
            return None
    return rows


def _scan_task(p: int, dim: int, generator_images: list[list],
               target_dim: int, lo: int, hi: int) -> set:
    """One worker's seed range.  A Module holds closures, which do not
    pickle, so the worker rebuilds it from its generator images."""
    return _scan_range(Module(p, dim, generator_images), target_dim, lo, hi)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_plan(seeds: int, parallelism: int) -> tuple[int, list]:
    """(worker processes, contiguous ranges of seed indices covering
    [1, seeds + 1)): the pool size is min(parallelism, number of ranges,
    usable CPUs)."""
    workers = min(parallelism, _usable_cpus())
    chunk = -(-seeds // (workers * SCAN_RANGES_PER_WORKER))
    ranges = [(lo, min(lo + chunk, seeds + 1))
              for lo in range(1, seeds + 1, chunk)]
    return min(workers, len(ranges)), ranges


def scan_seed_count(p: int, dim: int, target_dim: int) -> int:
    """Seeds an exhaustive scan of F_p^dim for target_dim-dimensional
    submodules spins: blocks k <= dim - target_dim, since a subspace's
    least nonzero vector has pivot at most dim - target_dim."""
    if not 1 <= target_dim <= dim:
        return 0
    return (p ** (dim - target_dim + 1) - 1) // (p - 1)


def _candidate_lines(module: Module, target_dim: int, seeds: int):
    """The seeds that can lie in a target_dim-dimensional submodule, in
    ascending order; None unless fewer than `seeds` (counted per piece).
    A vector of an l-dimensional g-invariant subspace has a g-cyclic span
    of dimension at most l, so q(g) kills it for some monic q of degree l:
    it lies in a ker q(g) for every generator g.  The pieces are these
    intersections; a g with I, g, ..., g^l dependent cuts nothing."""
    space, p, n, ell = module.space, module.p, module.dim, target_dim
    ident = [space.unit(j) for j in range(n)]
    flat = VecSpace(p, n * n)  # a matrix as one vector
    monic = VecSpace(p, ell + 1)  # coefficients, x^ell in lane ell
    width = n * space.w
    pieces = {tuple(reversed(ident))}
    for g in module.generator_images:
        powers = list(accumulate([g] * ell, space.compose, initial=ident))
        if len(flat.canon(sum(img << (j * width) for j, img in enumerate(gk))
                          for gk in powers)) <= ell:
            continue
        columns = list(zip(*powers))  # g^0 e_j, ..., g^ell e_j
        cut = set()
        for key in range(p ** ell, 2 * p ** ell):
            q = monic.decode(key)
            qg = [space.compose(col, (q,))[0] for col in columns]
            for rows in pieces:
                ker = space.kernel(space.compose(qg, rows))
                if ker:
                    cut.add(space.canon(space.compose(rows, ker)))
        pieces = cut
    # a piece's vectors with pivot at most n - ell: the span of its last rows
    tails = [[r for r in rows if space.pivot(r) <= n - ell] for rows in pieces]
    if sum(p ** len(t) - 1 for t in tails) // (p - 1) >= seeds:
        return None
    return sorted({v for t in tails for v in space.span_lines(t)})


def enumerate_irreducible_submodules(module: Module, target_dim: int,
                                     cap: int = EXHAUSTIVE_CAP,
                                     parallelism: int = 1) -> tuple:
    """All irreducible submodules of the exact target dimension, by
    exhaustive seed scan; deterministic and independent of parallelism
    (abort_below makes each subspace's verdict independent of how the
    seeds are split).  Only the scan_seed_count seeds with pivot at most
    dim - target_dim are spun: each submodule's least nonzero vector is
    one of them.  When fewer of them are _candidate_lines, only those are
    spun, in this process."""
    p = module.p
    if p ** module.dim > cap:
        raise CapacityError(
            f"exhaustive enumeration needs p^dim <= {cap}; restrict to one "
            f"level or one isotypic block instead")
    seeds = scan_seed_count(p, module.dim, target_dim)
    lines = _candidate_lines(module, target_dim, seeds)
    if lines is not None:
        found = {_target_from(module, seed, target_dim) for seed in lines}
        return tuple(sorted(found - {None}))
    workers = 1
    if parallelism > 1 and seeds >= PARALLEL_MIN_SEEDS:
        workers, ranges = _scan_plan(seeds, parallelism)
    if workers == 1:
        found = _scan_range(module, target_dim, 1, seeds + 1)
    else:
        # imported here: serial callers do not pay its memory
        from concurrent.futures import ProcessPoolExecutor
        args = (p, module.dim, module.generator_images, target_dim)
        found = set()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_task, *args, lo, hi)
                       for lo, hi in ranges]
            for fut in futures:
                found |= fut.result()
    return tuple(sorted(found))


def subspace_count_law(d: int, mult: int, p: int) -> int:
    """(p^(d*mult) - 1)/(p^d - 1): the number of irreducible submodules of
    an isotypic block of the given multiplicity over an endomorphism field
    of degree d."""
    if d < 1 or mult < 1:
        raise DomainError("d and mult must be positive")
    num = p ** (d * mult) - 1
    den = p ** d - 1
    if num % den != 0:
        raise InvariantError("subspace count law division failed")
    return num // den


# ---------------------------------------------------------------------------
# equivariant maps

def hom_basis(p: int, gens_x: list[list], gens_y: list[list]) -> tuple:
    """Basis of equivariant linear maps X -> Y, given generator images on
    each side (same generator order).  Nonzero space <=> isomorphic, for
    irreducible modules of equal dimension; dim End(X) is the
    field-of-definition degree for the irreducible modules handled here.

    T[i][j] is coordinate j*dim_y + i.  The basis is the kernel of
    T -> (T gx - gy T) over all generators, one block of dim_x*dim_y lanes
    per generator, taken on the images of the matrix units E_ij."""
    dim_x, dim_y = len(gens_x[0]), len(gens_y[0])
    n = dim_x * dim_y
    gens = list(zip(gens_x, gens_y))
    maps = VecSpace(p, n)
    sx = VecSpace(p, dim_x)
    w = maps.w
    images = [0] * n  # the image of E_ij is images[j*dim_y + i]
    for g, (gx, gy) in enumerate(gens):
        neg_gy = [maps.smul(-1, v) for v in gy]
        for j in range(dim_x):
            # E_ij gx has row i equal to row j of gx; gy E_ij has column j
            # equal to gy[i]
            row = sum(sx.component(gx[j0], j) << (j0 * dim_y * w)
                      for j0 in range(dim_x))
            for i in range(dim_y):
                img = maps.add(row << (i * w), neg_gy[i] << (j * dim_y * w))
                images[j * dim_y + i] |= img << (g * n * w)
    return VecSpace(p, n * len(gens)).kernel(images)


# ---------------------------------------------------------------------------
# classification of a submodule by its matrix group

def _mat_mul(space: VecSpace, A: tuple, B: tuple) -> tuple:
    return tuple(space.compose(A, B))


def matrix_group_elements(p: int, dim: int, gen_images: list[list]) -> set[tuple]:
    space = VecSpace(p, dim)
    ident = tuple(space.unit(j) for j in range(dim))
    return closure(ident, [tuple(g) for g in gen_images], partial(_mat_mul, space),
                   CLOSURE_CAP)


def classify_submodule(p: int, ell: int, gen_images: list[list]) -> GroupClass:
    """Class of the group generated by the action matrices on an
    ell-dimensional submodule (generators ordered: inertia part first).

    Cyclic image: C(order).  Nonabelian image of order c*ell: the split
    class is decided by counting solutions of g^ell = 1 (exactly ell of
    them means no complement); an unrecognizable shape raises, since it
    would falsify the classification at these parameters.
    """
    if ell < 2:
        raise DomainError("classification targets dimension >= 2")
    space = VecSpace(p, ell)
    gens = [tuple(g) for g in gen_images]
    ident = tuple(space.unit(j) for j in range(ell))
    mul = partial(_mat_mul, space)
    pow_ = partial(power, mul=mul, one=ident)
    abelian = all(mul(a, b) == mul(b, a) for a in gens for b in gens)
    elements = matrix_group_elements(p, ell, gens)
    n = len(elements)
    if abelian:
        if not any(order(g, n, pow_, ident) == n for g in elements):
            raise InvariantError(
                f"abelian image of order {n} is not cyclic; no descriptor fits")
        return GroupClass(kind="cyclic", c=n, class_index=0)
    if n % ell != 0:
        raise InvariantError(f"nonabelian image order {n} not divisible by {ell}")
    c = n // ell
    ell_torsion = sum(1 for g in elements if pow_(g, ell) == ident)
    if ell_torsion > ell:
        return GroupClass(kind="split", c=c, class_index=0)
    if ell_torsion != ell:
        raise InvariantError(
            f"nonabelian image has {ell_torsion} solutions of g^ell=1; "
            f"no descriptor fits")
    return GroupClass(kind="nonsplit", c=c, class_index=_nonsplit_class_index(
        space, mul, elements, p, ell, c, ident))


def _nonsplit_class_index(space: VecSpace, mul, elements: set[tuple], p: int,
                          ell: int, c: int, ident: tuple) -> int:
    if ell == 2:
        return 1
    # Rare path (needs p = 1 mod ell): find the cyclic normal part C, then
    # a coset element acting on it as gamma -> gamma^(p^(ell-1)), as the
    # catalog's V acts on T (V T V^-1 shifts the diagonal back); its ell-th
    # power is a scalar whose coset fixes the class index.
    pow_ = partial(power, mul=mul, one=ident)
    order_c = sorted(g for g in elements
                     if order(g, c * ell, pow_, ident) == c)
    if not order_c:
        raise InvariantError("no element of maximal cyclic order")
    gamma = order_c[0]
    cyc = closure(ident, (gamma,), mul, CLOSURE_CAP)
    for g in order_c:
        if g not in cyc:
            raise InvariantError("maximal cyclic subgroup is not unique")
    target = pow_(gamma, pow(p, ell - 1, c))
    for g in sorted(elements):
        if g in cyc:
            continue
        conj = mul(mul(g, gamma), pow_(g, c * ell - 1))
        if conj == target:
            beta = _scalar_of(space, pow_(g, ell))
            if beta is None:
                raise InvariantError("coset power is not scalar")
            return nonsplit_index(c, beta, p, ell)
    raise InvariantError("no coset element acts as the catalog's V")


def _scalar_of(space: VecSpace, M: tuple):
    """The scalar b with M = b*I, or None."""
    b = space.component(M[0], 0)
    for j in range(space.n):
        expected = space.smul(b, space.unit(j))
        if M[j] != expected:
            return None
    return b


# ---------------------------------------------------------------------------
# level realization over the explicit residue field

class LevelRealization:
    """Concrete unit-filtration modules for one parameter set: the big
    residue field, the fixed root of unity, and per-level action maps."""

    def __init__(self, params: ExtensionParams, aux: AuxFieldData) -> None:
        self.params = params
        self.aux = aux
        p = params.p
        self.p = p
        self.dim = aux.f_total
        self.kappa: FieldCtx = make_field(p, self.dim)
        self.zeta = self.kappa.root_of_unity(aux.e_rel)
        self.space = VecSpace(p, self.dim)
        # v = x -> x^(p^f_K) on the coordinate basis x^j, built once
        self._v = frobenius_rep(self.kappa, aux.f_k)
        self._tau: dict[int, list] = {}
        self._beta: dict[tuple, tuple] = {}

    def tau_images(self, i: int) -> list:
        """Images of multiplication by zeta^i on the basis (a fresh list)."""
        if i not in self._tau:
            self._tau[i] = regular_rep(self.kappa, self.kappa.pow(self.zeta, i))
        return list(self._tau[i])

    def v_images(self) -> list:
        """Images of x -> x^(p^f_K) on the basis (a fresh list)."""
        return list(self._v)

    def level_module(self, i: int) -> Module:
        return Module(self.p, self.dim, [self.tau_images(i), self.v_images()])

    # -- beta isolation ------------------------------------------------------

    def beta_min_poly(self, m: int, orbit: tuple[int, ...]) -> list[int]:
        """Coefficients over F_p of prod_{b in orbit} (y - xi^b) for xi the
        canonical primitive m-th root in its minimal field: the monic
        relation among the powers 0..len(orbit) of xi^orbit[0]."""
        p = self.p
        if m == 1 or orbit == (0,):
            return [(-1) % p, 1]
        deg = multiplicative_order(p, m)
        aux_field = make_field(p, deg)
        root = aux_field.pow(aux_field.root_of_unity(m), orbit[0])
        space = VecSpace(p, deg + 1)  # room for the deg + 1 powers
        ker = space.kernel([space.decode(aux_field.pow(root, k))
                            for k in range(len(orbit) + 1)])
        if len(ker) != 1 or space.pivot(ker[0]) != len(orbit):
            raise InvariantError(f"xi^{orbit[0]} (m = {m}) has no minimal "
                                 f"polynomial of degree {len(orbit)} over F_{p}")
        return [space.component(ker[0], k) for k in range(len(orbit) + 1)]

    def beta_kernel(self, s: int, m: int, orbit: tuple[int, ...]) -> tuple:
        """Canonical basis of ker m_B(v^s), as ambient rows; every level
        reads the same kernel, built once."""
        if (s, m, orbit) not in self._beta:
            space = self.space
            vk = ident = [space.unit(j) for j in range(self.dim)]
            vs = power(self._v, s, space.compose, ident)
            images = [0] * self.dim  # m_B(v^s), vk running through (v^s)^k
            for k, ck in enumerate(self.beta_min_poly(m, orbit)):
                if k:
                    vk = space.compose(vs, vk)
                if ck:
                    images = [space.add(a, space.smul(ck, b))
                              for a, b in zip(images, vk)]
            self._beta[s, m, orbit] = space.kernel(images)
        return self._beta[s, m, orbit]


# ---------------------------------------------------------------------------
# oracle census assembly

@dataclass(frozen=True)
class OracleClassReport(GroupClass):
    d: int
    multiplicity: int
    count: int
    levels: tuple[int, ...]
    mult_by_level: tuple[int, ...]
    block_dim: int
    verified_exhaustively: bool


@dataclass(frozen=True)
class LevelExhaustiveResult:
    level: int
    found: int
    expected: int
    by_label: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class OracleCensus:
    report: CensusReport
    classes: tuple[OracleClassReport, ...]
    closed_form: CensusReport
    matches_closed_form: bool
    level_exhaustive: tuple[LevelExhaustiveResult, ...]
    aux: AuxFieldData


class _PhysicalClass:
    """One isomorphism class of ell-dimensional irreducibles: a
    representative's generator images and d = dim End; per level, its
    multiplicity and the (tau, v) images on its isotypic span there; and
    its classification, once every level is seen."""

    def __init__(self, p: int, rep_gens: list[list]) -> None:
        self.rep_gens = rep_gens
        self.levels: list[int] = []
        self.mults: list[int] = []
        self.span_gens: list[list[list]] = []
        self.d = len(hom_basis(p, rep_gens, rep_gens))
        self.desc: GroupClass | None = None


def trace_key(p: int, ell: int, gens: list[list]) -> tuple:
    """Traces of g^k, k = 1..ell, for g = tau, v, tau v on an
    ell-dimensional module: isomorphic modules have simultaneously
    conjugate generators, so they share this key."""
    space = VecSpace(p, ell)
    return tuple(sum(space.component(gk[j], j) for j in range(ell)) % p
                 for g in (*gens, space.compose(*gens))
                 for gk in accumulate([g] * ell, space.compose))


def _restricted_gens(space: VecSpace, rows: tuple, gens: list) -> list[list]:
    sub = VecSpace(space.p, len(rows))
    return [restrict_map(space, rows, g, sub) for g in gens]


def oracle_census(params: ExtensionParams, aux: AuxFieldData | None = None,
                  level_cap: int = 0, parallelism: int = 1) -> OracleCensus:
    """Assemble the census by explicit enumeration and classification.

    Every level's target-dimension constituents are isolated, enumerated,
    grouped into isomorphism classes by equivariant-map solving, counted
    through the subspace law on measured multiplicities, and classified by
    matrix closure.  Blocks no larger than BLOCK_CAP are re-counted by
    exhaustive spinning; levels no larger than `level_cap` are swept whole.
    """
    if params.p == params.ell:
        raise DomainError("oracle requires p != ell")
    if aux is None:
        aux = default_aux_data(params)
    ell = params.ell
    p = params.p
    real = LevelRealization(params, aux)
    space = real.space

    classes: list[_PhysicalClass] = []
    buckets: dict[tuple, list[_PhysicalClass]] = {}  # by trace_key
    for i in level_indices(aux):
        targets = [c for c in constituents(i, aux) if c.dim_over_fp == ell]
        if not targets:
            continue
        gens = [real.tau_images(i), real.v_images()]
        for cons in targets:
            orbit, kdim = cons.beta_orbit, cons.level_dim_contribution
            kernel_rows = real.beta_kernel(cons.s, cons.beta_modulus, orbit)
            if len(kernel_rows) != kdim:
                raise InvariantError(f"kernel dimension {len(kernel_rows)} != "
                                     f"{kdim} at level {i}, beta orbit {orbit}")
            sub = VecSpace(p, len(kernel_rows))
            kgens = _restricted_gens(space, kernel_rows, gens)
            kmod = Module(p, len(kernel_rows), kgens)
            subs = enumerate_irreducible_submodules(kmod, ell,
                                                    parallelism=parallelism)
            if not subs:
                raise InvariantError(
                    f"no irreducible dim-{ell} submodules in kernel at level {i}")
            # each submodule's class, by one lookup among the classes with
            # its trace key; members in order of each class's first member
            by_class: dict[_PhysicalClass, list[tuple]] = {}
            for rows in subs:
                sgens = _restricted_gens(sub, rows, kgens)
                bucket = buckets.setdefault(trace_key(p, ell, sgens), [])
                cls = next((c for c in bucket
                            if hom_basis(p, sgens, c.rep_gens)), None)
                if cls is None:
                    cls = _PhysicalClass(p, sgens)
                    classes.append(cls)
                    bucket.append(cls)
                by_class.setdefault(cls, []).append(rows)
            for cls, members in by_class.items():
                span_rows = sub.canon([r for rows in members for r in rows])
                if len(span_rows) % ell != 0:
                    raise InvariantError("isotypic span dimension not divisible")
                mult_here = len(span_rows) // ell
                law = subspace_count_law(cls.d, mult_here, p)
                if len(members) != law:
                    raise InvariantError(
                        f"kernel enumeration found {len(members)} submodules, "
                        f"law predicts {law}")
                cls.levels.append(i)
                cls.mults.append(mult_here)
                cls.span_gens.append(_restricted_gens(sub, span_rows, kgens))

    # assemble per-class reports, classifying each representative once
    out_classes: list[OracleClassReport] = []
    counts: dict[GroupClass, int] = {}
    for cls in classes:
        mult = sum(cls.mults)
        count = subspace_count_law(cls.d, mult, p)
        desc = cls.desc = classify_submodule(p, ell, cls.rep_gens)
        block_dim = ell * mult
        verified = p ** block_dim <= BLOCK_CAP
        if verified:
            _verify_block(p, ell, cls, count, parallelism)
        counts[desc] = counts.get(desc, 0) + count
        out_classes.append(OracleClassReport(
            kind=desc.kind, c=desc.c, class_index=desc.class_index, d=cls.d,
            multiplicity=mult, count=count, levels=tuple(cls.levels),
            mult_by_level=tuple(cls.mults), block_dim=block_dim,
            verified_exhaustively=verified))

    _check_against_bookkeeping(params, aux, classes)

    level_results = []
    if level_cap:
        level_results = _sweep_levels(params, aux, real, classes, level_cap,
                                      parallelism)

    entries = sorted((CensusEntry(kind=g.kind, c=g.c, class_index=g.class_index,
                                  count=n) for g, n in counts.items()),
                     key=CensusEntry.sort_key)
    total = sum(e.count for e in entries)
    report = CensusReport(total=total, case_tag=params.case_tag,
                          by_group=tuple(entries), identity_ok=True)
    closed = census_by_group(params)
    matches = total == closed.total and report.counts() == closed.counts()
    out_classes.sort(key=lambda r: (r.c, r.label, r.levels))
    return OracleCensus(report=report, classes=tuple(out_classes),
                        closed_form=closed, matches_closed_form=matches,
                        level_exhaustive=tuple(level_results), aux=aux)


def _check_against_bookkeeping(params: ExtensionParams, aux: AuxFieldData,
                               classes: list[_PhysicalClass]) -> None:
    """The physically measured class invariants must biject with the
    exponent-arithmetic class list."""
    ell = params.ell
    abstract = []
    for pc in pair_classes(aux, dim_filter=ell):
        if pc.s == 1:
            kind = "cyclic"
        else:
            kind = ("split" if beta_is_power_residue(pc.c, pc.beta_order,
                                                     params.p, ell)
                    else "nonsplit")
        abstract.append((pc.c, kind, pc.d, pc.global_multiplicity,
                         pc.levels, pc.mult_by_level))
    physical = [(cls.desc.c, cls.desc.kind, cls.d, sum(cls.mults),
                 tuple(cls.levels), tuple(cls.mults)) for cls in classes]
    if sorted(abstract) != sorted(physical):
        raise InvariantError(
            "oracle classes do not match the exponent bookkeeping:\n"
            f"  bookkeeping: {sorted(abstract)}\n"
            f"  measured:    {sorted(physical)}")


def _verify_block(p: int, ell: int, cls: _PhysicalClass, expected_count: int,
                  parallelism: int) -> None:
    """Exhaustively spin the cross-level isotypic block, the direct sum of
    the class's level spans, and compare with the subspace law and the
    classification."""
    desc = cls.desc
    total_dim = ell * sum(cls.mults)
    bspace = VecSpace(p, total_dim)
    tau_images = []
    v_images = []
    shift = 0
    for taus, vs in cls.span_gens:
        tau_images.extend(img << shift for img in taus)
        v_images.extend(img << shift for img in vs)
        shift += len(taus) * bspace.w
    bmod = Module(p, total_dim, [tau_images, v_images])
    subs = enumerate_irreducible_submodules(bmod, ell, parallelism=parallelism)
    if len(subs) != expected_count:
        raise InvariantError(
            f"block enumeration found {len(subs)} submodules; law predicts "
            f"{expected_count} for {desc.label}")
    sample = subs[0]
    sgens = _restricted_gens(bspace, sample, [tau_images, v_images])
    got = classify_submodule(p, ell, sgens)
    if got != desc:
        raise InvariantError(
            f"block member classifies as {got.label}, class says {desc.label}")


def _sweep_levels(params, aux, real: LevelRealization, classes, level_cap: int,
                  parallelism: int) -> list[LevelExhaustiveResult]:
    """Whole-level exhaustive sweeps: every irreducible of the target
    dimension in M_i must be accounted for by the per-level isotypic
    counts, with matching classification tallies."""
    p, ell = params.p, params.ell
    out = []
    if p ** real.dim > level_cap:
        return out
    for i in level_indices(aux):
        mod = real.level_module(i)
        subs = enumerate_irreducible_submodules(mod, ell, cap=level_cap,
                                                parallelism=parallelism)
        expected = 0
        tally: dict[str, int] = {}
        for cls in classes:
            if i in cls.levels:
                n_i = subspace_count_law(cls.d, cls.mults[cls.levels.index(i)], p)
                expected += n_i
                tally[cls.desc.label] = tally.get(cls.desc.label, 0) + n_i
        found_tally: dict[str, int] = {}
        gens = [real.tau_images(i), real.v_images()]
        for rows in subs:
            sgens = _restricted_gens(real.space, rows, gens)
            desc = classify_submodule(p, ell, sgens)
            found_tally[desc.label] = found_tally.get(desc.label, 0) + 1
        if len(subs) != expected or found_tally != tally:
            raise InvariantError(
                f"level {i} sweep found {len(subs)} ({found_tally}), "
                f"bookkeeping predicts {expected} ({tally})")
        out.append(LevelExhaustiveResult(
            level=i, found=len(subs), expected=expected,
            by_label=tuple(sorted(found_tally.items()))))
    return out
