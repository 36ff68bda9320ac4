"""Brute-force module oracle: explicit level modules, invariant-subspace
spinning, exhaustive enumeration of target-dimension irreducibles, and an
independently assembled census to audit the closed formulas.

Strategy: per level, the second character value is isolated with the
kernel of its minimal polynomial evaluated at the commuting power of the
inertia-degree Frobenius; the resulting small kernels are enumerated
exhaustively, iso-grouped by explicit equivariant-map solving (never by
the closed-form invariants they are meant to check), assembled into
cross-level isotypic blocks, counted by the subspace law, and classified
by matrix-group closure of the restricted action.

With parallelism N > 1, a seed scan of at least PARALLEL_MIN_SEEDS seeds
runs in min(N, usable CPUs) worker processes; the result, and so every
output byte, is the same for any N.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from .action import (AuxFieldData, constituents, default_aux_data,
                     level_indices, pair_classes, residue_orbits)
from .arith import closure, factorize, multiplicative_order
from .census import (CensusEntry, CensusReport, ExtensionParams,
                     census_by_group, cyclic_label, nonabelian_label)
from .errors import CapacityError, DomainError, InvariantError
from .ffield import FieldCtx, make_field
from .groups import (CLOSURE_CAP, beta_is_power_residue, frobenius_rep,
                     nonsplit_index, regular_rep)
from .linalg import VecSpace, restrict_map

EXHAUSTIVE_CAP = 1 << 24
SPIN_DIM_CAP = 64
BLOCK_CAP = 1 << 18  # blocks re-counted by exhaustive spinning
# the real tractability gates are SPIN_DIM_CAP and the bookkeeping caps;
# field arithmetic is polynomial-based, so the order is bounded only by
# factoring p^m - 1 soundly: 2^64 admits GF(2^64) at the spin cap and
# stays below 3.317e24, where arith.is_prime's fixed witnesses are proven
ORACLE_FIELD_CEILING = 1 << 64
PARALLEL_MIN_SEEDS = 4096  # smaller scans stay in the calling process
# contiguous seed ranges per worker: the work per seed is uneven across
# [1, p^dim), so one range each leaves a worker idle at the end
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
    (sound for exhaustive scans, where the subspace is also reached from
    its minimal vector).
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
    space = module.space
    found: set = set()
    rejected: set = set()
    # seeds in base-p key order: add 1, carry each lane that reached p
    # (for p = 2, w = 1 and the int addition carries by itself)
    p, w = space.p, space.w
    lane, carry = (1 << w) - 1, (1 << w) - p
    seed = space.decode(lo) - 1  # the first step lands on decode(lo)
    for _ in range(lo, hi):
        seed += 1
        j = 0
        while (seed >> j) & lane == p:
            seed += carry << j
            j += w
        rows = spin(module, seed, abort_dim=target_dim, abort_below=seed)
        if rows is None or len(rows) != target_dim:
            continue
        if rows in found or rows in rejected:
            continue
        ok = True
        for member in space.span_members(rows):
            sub = spin(module, member, abort_dim=target_dim)
            if sub is None or len(sub) != target_dim:
                ok = False
                break
        if ok:
            found.add(rows)
        else:
            rejected.add(rows)
    return found, rejected


def _scan_task(p: int, dim: int, generator_images: list[list],
               target_dim: int, lo: int, hi: int) -> set:
    """One worker's seed range.  A Module holds closures, which do not
    pickle, so the worker rebuilds it from its generator images."""
    found, _ = _scan_range(Module(p, dim, generator_images), target_dim, lo, hi)
    return found


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_plan(total: int, parallelism: int) -> tuple[int, list]:
    """(worker processes, contiguous seed ranges covering [1, total)): the
    pool size is min(parallelism, number of ranges, usable CPUs)."""
    workers = min(parallelism, _usable_cpus())
    chunk = -(-(total - 1) // (workers * SCAN_RANGES_PER_WORKER))
    ranges = [(lo, min(lo + chunk, total)) for lo in range(1, total, chunk)]
    return min(workers, len(ranges)), ranges


def enumerate_irreducible_submodules(module: Module, target_dim: int,
                                     cap: int = EXHAUSTIVE_CAP,
                                     parallelism: int = 1) -> tuple:
    """All irreducible submodules of the exact target dimension, by
    exhaustive seed scan; deterministic and independent of parallelism
    (abort_below makes each subspace's verdict independent of how the
    seeds are split)."""
    total = module.p ** module.dim
    if total > cap:
        raise CapacityError(
            f"exhaustive enumeration needs p^dim <= {cap}; restrict to one "
            f"level or one isotypic block instead")
    workers = 1
    if parallelism > 1 and total >= PARALLEL_MIN_SEEDS:
        workers, ranges = _scan_plan(total, parallelism)
    if workers == 1:
        found, _ = _scan_range(module, target_dim, 1, total)
    else:
        # imported here: serial callers do not pay its memory
        from concurrent.futures import ProcessPoolExecutor
        args = (module.p, module.dim, module.generator_images, target_dim)
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

def hom_basis(p: int, gens_x: list[list], gens_y: list[list],
              dim_x: int, dim_y: int) -> tuple:
    """Basis of equivariant linear maps X -> Y, given generator images on
    each side (same generator order).  Nonzero space <=> isomorphic, for
    irreducible modules of equal dimension."""
    n = dim_x * dim_y
    big = VecSpace(p, n)
    sx = VecSpace(p, dim_x)
    sy = VecSpace(p, dim_y)
    rows = []
    for gx, gy in zip(gens_x, gens_y):
        for j0 in range(dim_x):
            # entry (i0, j0) of T gx - gy T; T[i][j] is coordinate j*dim_y + i
            for i0 in range(dim_y):
                coeffs = [0] * n
                for j in range(dim_x):
                    coeffs[j * dim_y + i0] += sx.component(gx[j0], j)
                for i in range(dim_y):
                    coeffs[j0 * dim_y + i] -= sy.component(gy[i], i0)
                rows.append(big.from_coords(coeffs))
    return big.nullspace(rows)


def modules_isomorphic(p: int, gens_x: list[list], gens_y: list[list],
                       dim: int) -> bool:
    return len(hom_basis(p, gens_x, gens_y, dim, dim)) > 0


def endomorphism_degree(p: int, gens: list[list], dim: int) -> int:
    """dim_Fp End(X); equals the field-of-definition degree for the
    irreducible modules handled here."""
    return len(hom_basis(p, gens, gens, dim, dim))


# ---------------------------------------------------------------------------
# classification of a submodule by its matrix group

@dataclass(frozen=True)
class ClassifiedGroup:
    kind: str          # "cyclic" | "split" | "nonsplit"
    c: int
    class_index: int
    order: int
    label: str


def _mat_mul(space: VecSpace, A: tuple, B: tuple) -> tuple:
    return tuple(space.compose(A, B))


def _mat_pow(space: VecSpace, A: tuple, e: int, ident: tuple) -> tuple:
    result = ident
    base = A
    while e:
        if e & 1:
            result = _mat_mul(space, result, base)
        base = _mat_mul(space, base, base)
        e >>= 1
    return result


def _mat_order(space: VecSpace, A: tuple, group_order: int, ident: tuple) -> int:
    order = group_order
    for q, _ in factorize(group_order):
        while order % q == 0 and _mat_pow(space, A, order // q, ident) == ident:
            order //= q
    return order


def matrix_group_elements(p: int, dim: int, gen_images: list[list]) -> set[tuple]:
    space = VecSpace(p, dim)
    ident = tuple(space.unit(j) for j in range(dim))
    return closure(ident, [tuple(g) for g in gen_images], partial(_mat_mul, space),
                   CLOSURE_CAP)


def classify_submodule(p: int, ell: int, gen_images: list[list]) -> ClassifiedGroup:
    """Descriptor of the group generated by the action matrices on an
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
    abelian = all(_mat_mul(space, a, b) == _mat_mul(space, b, a)
                  for a in gens for b in gens)
    elements = matrix_group_elements(p, ell, gens)
    n = len(elements)
    if abelian:
        if not any(_mat_order(space, g, n, ident) == n for g in elements):
            raise InvariantError(
                f"abelian image of order {n} is not cyclic; no descriptor fits")
        return ClassifiedGroup("cyclic", n, 0, n, cyclic_label(n))
    if n % ell != 0:
        raise InvariantError(f"nonabelian image order {n} not divisible by {ell}")
    c = n // ell
    ell_torsion = sum(1 for g in elements if _mat_pow(space, g, ell, ident) == ident)
    if ell_torsion > ell:
        return ClassifiedGroup("split", c, 0, n, nonabelian_label(c, True))
    if ell_torsion != ell:
        raise InvariantError(
            f"nonabelian image has {ell_torsion} solutions of g^ell=1; "
            f"no descriptor fits")
    j = _nonsplit_class_index(space, elements, p, ell, c, ident)
    return ClassifiedGroup("nonsplit", c, j, n, nonabelian_label(c, False, j))


def _nonsplit_class_index(space: VecSpace, elements: set[tuple], p: int,
                          ell: int, c: int, ident: tuple) -> int:
    if ell == 2:
        return 1
    # Rare path (needs p = 1 mod ell): find the cyclic normal part C, then
    # a coset element acting on it as the first Frobenius power; its ell-th
    # power is a scalar whose coset fixes the class index.
    order_c = sorted(g for g in elements
                     if _mat_order(space, g, c * ell, ident) == c)
    if not order_c:
        raise InvariantError("no element of maximal cyclic order")
    gamma = order_c[0]
    cyc = {_mat_pow(space, gamma, k, ident) for k in range(c)}
    for g in order_c:
        if g not in cyc:
            raise InvariantError("maximal cyclic subgroup is not unique")
    target = _mat_pow(space, gamma, p % c, ident)
    for g in sorted(elements):
        if g in cyc:
            continue
        conj = _mat_mul(space, _mat_mul(space, g, gamma),
                        _mat_pow(space, g, c * ell - 1, ident))
        if conj == target:
            power = _mat_pow(space, g, ell, ident)
            beta = _scalar_of(space, power)
            if beta is None:
                raise InvariantError("coset power is not scalar")
            return nonsplit_index(c, beta, p, ell)
    raise InvariantError("no coset element acts as the first Frobenius power")


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
        if self.dim > SPIN_DIM_CAP:
            raise CapacityError(
                f"residue field degree {self.dim} exceeds the spin cap")
        self.kappa: FieldCtx = make_field(p, self.dim, ceiling=ORACLE_FIELD_CEILING)
        self.zeta = self.kappa.root_of_unity(aux.e_rel)
        self.space = VecSpace(p, self.dim)
        # v = x -> x^(p^f_K) on the coordinate basis x^j, built once
        self._v = frobenius_rep(self.kappa, aux.f_k)
        self._tau: dict[int, list] = {}

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
        canonical primitive m-th root in its minimal field."""
        p = self.p
        if m == 1 or orbit == (0,):
            return [(-1) % p, 1]
        deg = multiplicative_order(p, m)
        aux_field = make_field(p, deg, ceiling=ORACLE_FIELD_CEILING)
        xi = aux_field.root_of_unity(m)
        poly = [1]
        for b in orbit:
            root = aux_field.pow(xi, b)
            nxt = [0] * (len(poly) + 1)
            for k, ck in enumerate(poly):
                nxt[k + 1] = aux_field.add(nxt[k + 1], ck)
                nxt[k] = aux_field.sub(nxt[k], aux_field.mul(ck, root))
            poly = nxt
        out = []
        for ck in poly:
            if ck >= p:
                raise InvariantError(
                    "minimal polynomial coefficients left the prime field")
            out.append(ck)
        return out

    def beta_kernel(self, i: int, s: int, m: int, orbit: tuple[int, ...]) -> tuple:
        """Canonical basis of ker m_B(v^s) inside level i (as ambient rows)."""
        space = self.space
        vs = power = [space.unit(j) for j in range(self.dim)]
        for _ in range(s):
            vs = space.compose(self._v, vs)
        images = [0] * self.dim  # m_B(v^s), power running through (v^s)^k
        for k, ck in enumerate(self.beta_min_poly(m, orbit)):
            if k:
                power = space.compose(vs, power)
            if ck:
                images = [space.add(a, space.smul(ck, b))
                          for a, b in zip(images, power)]
        return space.kernel(images)


# ---------------------------------------------------------------------------
# oracle census assembly

@dataclass(frozen=True)
class OracleClassReport:
    label: str
    kind: str
    class_index: int
    c: int
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
    def __init__(self, p: int, rep_gens: list[list], dim: int) -> None:
        self.rep_gens = rep_gens
        self.dim = dim
        self.levels: list[int] = []
        self.mults: list[int] = []
        self.span_by_level: dict[int, tuple] = {}
        self.kernel_by_level: dict[int, tuple] = {}
        self.d = endomorphism_degree(p, rep_gens, dim)


def _restricted_gens(space: VecSpace, rows: tuple, taus: list, vs: list,
                     p: int) -> list[list]:
    sub = VecSpace(p, len(rows))
    rows_l = list(rows)
    return [restrict_map(space, rows_l, taus, sub),
            restrict_map(space, rows_l, vs, sub)]


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
    for i in level_indices(aux):
        targets = [c for c in constituents(i, aux) if c.dim_over_fp == ell]
        if not targets:
            continue
        taus = real.tau_images(i)
        vs = real.v_images()
        for cons in targets:
            orbit = next(o for o in residue_orbits(
                cons.beta_modulus, p % cons.beta_modulus if cons.beta_modulus > 1 else 0)
                if o[0] == cons.beta_exp)
            kernel_rows = real.beta_kernel(i, cons.s, cons.beta_modulus, orbit)
            expected_kdim = cons.w * cons.s * cons.multiplicity_in_level
            if len(kernel_rows) != expected_kdim:
                raise InvariantError(
                    f"kernel dimension {len(kernel_rows)} != {expected_kdim} "
                    f"at level {i}, beta orbit {orbit}")
            sub = VecSpace(p, len(kernel_rows))
            kgens = _restricted_gens(space, kernel_rows, taus, vs, p)
            kmod = Module(p, len(kernel_rows), kgens)
            subs = enumerate_irreducible_submodules(kmod, ell,
                                                    parallelism=parallelism)
            if not subs:
                raise InvariantError(
                    f"no irreducible dim-{ell} submodules in kernel at level {i}")
            # group by isomorphism
            groups: list[tuple[list[list], list[tuple]]] = []
            for rows in subs:
                sgens = _restricted_gens(sub, rows, kgens[0], kgens[1], p)
                for rep_gens, members in groups:
                    if modules_isomorphic(p, sgens, rep_gens, ell):
                        members.append(rows)
                        break
                else:
                    groups.append((sgens, [rows]))
            for rep_gens, members in groups:
                span_rows = sub.canon([r for rows in members for r in rows])
                if len(span_rows) % ell != 0:
                    raise InvariantError("isotypic span dimension not divisible")
                mult_here = len(span_rows) // ell
                target_cls = None
                for cls in classes:
                    if cls.dim == ell and modules_isomorphic(
                            p, rep_gens, cls.rep_gens, ell):
                        target_cls = cls
                        break
                if target_cls is None:
                    target_cls = _PhysicalClass(p, rep_gens, ell)
                    classes.append(target_cls)
                d = target_cls.d
                if len(members) != subspace_count_law(d, mult_here, p):
                    raise InvariantError(
                        f"kernel enumeration found {len(members)} submodules, "
                        f"law predicts {subspace_count_law(d, mult_here, p)}")
                target_cls.levels.append(i)
                target_cls.mults.append(mult_here)
                target_cls.span_by_level[i] = span_rows
                target_cls.kernel_by_level[i] = kernel_rows

    # assemble per-class reports, classifying each representative once
    out_classes: list[OracleClassReport] = []
    descriptors: list[ClassifiedGroup] = []
    for cls in classes:
        mult = sum(cls.mults)
        count = subspace_count_law(cls.d, mult, p)
        desc = classify_submodule(p, ell, cls.rep_gens)
        descriptors.append(desc)
        block_dim = ell * mult
        verified = False
        if p ** block_dim <= BLOCK_CAP:
            verified = _verify_block(params, aux, real, cls, count, desc,
                                     parallelism)
        out_classes.append(OracleClassReport(
            label=desc.label, kind=desc.kind, class_index=desc.class_index,
            c=desc.c, d=cls.d, multiplicity=mult, count=count,
            levels=tuple(cls.levels), mult_by_level=tuple(cls.mults),
            block_dim=block_dim, verified_exhaustively=verified))

    _check_against_bookkeeping(params, aux, classes, descriptors)

    level_results = []
    if level_cap:
        level_results = _sweep_levels(params, aux, real, classes, descriptors,
                                      level_cap, parallelism)

    merged: dict[str, list[OracleClassReport]] = {}
    for rep in out_classes:
        merged.setdefault(rep.label, []).append(rep)
    entries = []
    for label, reps in merged.items():
        first = reps[0]
        entries.append(CensusEntry(
            label=label, c=first.c, kind=first.kind,
            class_index=first.class_index,
            count=sum(r.count for r in reps)))
    entries.sort(key=lambda e: (e.c, {"cyclic": 0, "split": 1, "nonsplit": 2}[e.kind],
                                e.class_index))
    total = sum(e.count for e in entries)
    report = CensusReport(total=total, case_tag=params.case_tag,
                          by_group=tuple(entries), identity_ok=True)
    closed = census_by_group(params)
    matches = (total == closed.total
               and {e.label: e.count for e in entries}
               == {e.label: e.count for e in closed.by_group})
    out_classes.sort(key=lambda r: (r.c, r.label, r.levels))
    return OracleCensus(report=report, classes=tuple(out_classes),
                        closed_form=closed, matches_closed_form=matches,
                        level_exhaustive=tuple(level_results), aux=aux)


def _check_against_bookkeeping(params: ExtensionParams, aux: AuxFieldData,
                               classes: list[_PhysicalClass],
                               descriptors: list[ClassifiedGroup]) -> None:
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
    physical = [(desc.c, desc.kind, cls.d, sum(cls.mults),
                 tuple(cls.levels), tuple(cls.mults))
                for cls, desc in zip(classes, descriptors)]
    if sorted(abstract) != sorted(physical):
        raise InvariantError(
            "oracle classes do not match the exponent bookkeeping:\n"
            f"  bookkeeping: {sorted(abstract)}\n"
            f"  measured:    {sorted(physical)}")


def _verify_block(params, aux, real: LevelRealization, cls: _PhysicalClass,
                  expected_count: int, desc: ClassifiedGroup,
                  parallelism: int) -> bool:
    """Exhaustively spin the cross-level isotypic block and compare with
    the subspace law and the classification."""
    p, ell = params.p, params.ell
    space = real.space
    local_bases = []
    for i in cls.levels:
        kernel_rows = cls.kernel_by_level[i]
        ksub = VecSpace(p, len(kernel_rows))
        kgens = _restricted_gens(space, kernel_rows, real.tau_images(i),
                                 real.v_images(), p)
        span_list = list(cls.span_by_level[i])
        sgens = _restricted_gens(ksub, span_list, kgens[0], kgens[1], p)
        local_bases.append((len(span_list), sgens))
    total_dim = sum(nd for nd, _ in local_bases)
    bspace = VecSpace(p, total_dim)
    tau_images = []
    v_images = []
    shift = 0
    for nd, sgens in local_bases:
        tau_images.extend(img << shift for img in sgens[0])
        v_images.extend(img << shift for img in sgens[1])
        shift += nd * bspace.w
    bmod = Module(p, total_dim, [tau_images, v_images])
    subs = enumerate_irreducible_submodules(bmod, ell, parallelism=parallelism)
    if len(subs) != expected_count:
        raise InvariantError(
            f"block enumeration found {len(subs)} submodules; law predicts "
            f"{expected_count} for {desc.label}")
    sample = subs[0]
    sgens = _restricted_gens(bspace, sample, tau_images, v_images, p)
    got = classify_submodule(p, ell, sgens)
    if (got.kind, got.c, got.class_index) != (desc.kind, desc.c, desc.class_index):
        raise InvariantError(
            f"block member classifies as {got.label}, class says {desc.label}")
    return True


def _sweep_levels(params, aux, real: LevelRealization, classes, descriptors,
                  level_cap: int, parallelism: int) -> list[LevelExhaustiveResult]:
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
        for cls, desc in zip(classes, descriptors):
            if i in cls.span_by_level:
                idx = cls.levels.index(i)
                n_i = subspace_count_law(cls.d, cls.mults[idx], p)
                expected += n_i
                tally[desc.label] = tally.get(desc.label, 0) + n_i
        found_tally: dict[str, int] = {}
        taus, vs = real.tau_images(i), real.v_images()
        for rows in subs:
            sgens = _restricted_gens(real.space, rows, taus, vs, p)
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
