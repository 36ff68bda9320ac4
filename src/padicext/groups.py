"""Catalog of normal-closure Galois groups as explicit matrix groups.

Generators are monomial ell x ell matrices over GF(p^ell): a diagonal
matrix of Frobenius-conjugate entries and a cyclic-shift matrix with a
corner coefficient.  Groups are classified by the invariant pair
(c, split class), never by abstract isomorphism search; orders come from
honest breadth-first closure.

The closure runs in exponent coordinates: each coefficient becomes its
discrete log base the field's canonical generator (FieldCtx.dlog,
baby-step giant-step, refused beyond ffield.DLOG_CAP = 2^16 baby steps,
i.e. coefficient orders above 2^32), so a product of monomial matrices
adds exponent tuples mod p^ell - 1 instead of multiplying field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .arith import closure, multiplicative_order
from .census import (ExtensionParams, census_by_group, cyclic_label,
                     nonabelian_label)
from .errors import DomainError, InvariantError
from .ffield import FieldCtx, make_field
from .linalg import VecSpace

CLOSURE_CAP = 10 ** 5
FIELD_CEILING = 1 << 62


@dataclass(frozen=True)
class MonomialMatrix:
    """ell x ell matrix sending e_j to coeffs[j] * e_{(j+shift) mod ell}."""

    ell: int
    shift: int
    coeffs: tuple[int, ...]

    def mul(self, other: "MonomialMatrix", ctx: FieldCtx) -> "MonomialMatrix":
        ell = self.ell
        s = (self.shift + other.shift) % ell
        coeffs = tuple(
            ctx.mul(other.coeffs[j], self.coeffs[(j + other.shift) % ell])
            for j in range(ell))
        return MonomialMatrix(ell, s, coeffs)

    @staticmethod
    def identity(ell: int) -> "MonomialMatrix":
        return MonomialMatrix(ell, 0, (1,) * ell)


@dataclass(frozen=True)
class MatrixPair:
    """The diagonal/shift generator pair acting on the ell-dim space."""

    T: MonomialMatrix
    V: MonomialMatrix


def generator_matrices(ctx: FieldCtx, alpha: int, beta: int, ell: int) -> MatrixPair:
    """T = diag(alpha, alpha^p, ..., alpha^(p^(ell-1))), V = shift with
    corner beta; deterministic in (alpha, beta)."""
    if alpha == 0 or beta == 0:
        raise DomainError("alpha and beta must be nonzero")
    diag = [alpha]
    for _ in range(ell - 1):  # x -> x^p: a pow by p, not by p^j
        diag.append(ctx.frob(diag[-1]))
    T = MonomialMatrix(ell, 0, tuple(diag))
    V = MonomialMatrix(ell, 1, (1,) * (ell - 1) + (beta,))
    return MatrixPair(T=T, V=V)


def closure_elements(generators, ctx: FieldCtx, cap: int = CLOSURE_CAP) -> set:
    """Elements of the generated matrix group by explicit BFS closure.

    Every coefficient lies in the cyclic group GF(p^ell)^*, so each one is
    written as its discrete log k (generator^k == coefficient) and a
    product of monomial matrices adds exponent tuples mod p^ell - 1: the
    law of MonomialMatrix.mul, with no field multiply.  Exponentiation is
    an isomorphism, so the orders are those of the field-coordinate group.
    Returns the keys (shift, exponent tuple)."""
    gens = list(generators)
    ell = gens[0].ell
    n = ctx.mult_order
    logs: dict[int, int] = {}
    laws = []
    for g in gens:
        for x in g.coeffs:
            if x not in logs:
                logs[x] = ctx.dlog(x)
        # (m * g).coeffs[j] = g.coeffs[j] * m.coeffs[(j + g.shift) % ell]
        laws.append((g.shift, tuple((logs[x], (j + g.shift) % ell)
                                    for j, x in enumerate(g.coeffs))))

    def step(key, law):
        shift, exps = key
        gshift, pairs = law
        # a list comprehension: tuple() of a generator is slower here
        return ((shift + gshift) % ell, tuple([(e + exps[i]) % n for e, i in pairs]))

    return closure((0, (0,) * ell), laws, step, cap)


def group_closure_order(generators, ctx: FieldCtx, cap: int = CLOSURE_CAP) -> int:
    """Order of the generated matrix group by explicit BFS closure.

    Raises CapacityError when the group exceeds cap elements, and also
    when a generator coefficient has multiplicative order above 2^32 (its
    discrete log is refused), even if the group itself is small."""
    return len(closure_elements(generators, ctx, cap))


# ---------------------------------------------------------------------------
# split / nonsplit conventions (shared with the module oracle)

@lru_cache(maxsize=None)
def least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise DomainError(f"{p} has no primitive root; not prime?")


def power_sum(p: int, ell: int) -> int:
    """1 + p + ... + p^(ell-1)."""
    return (p ** ell - 1) // (p - 1)


def beta_is_power_residue(c: int, beta_order: int, p: int, ell: int) -> bool:
    """Whether an element of the given order lies in C^(1+p+...+p^(ell-1))
    for C cyclic of order c; this decides the split case."""
    ps = power_sum(p, ell)
    return (c // gcd(c, ps)) % beta_order == 0


def nonsplit_index(c: int, beta_residue: int, p: int, ell: int) -> int:
    """Class index 1..ell-1 of beta (an element of F_p*, as an int mod p)
    relative to the canonical coset generator.

    Convention: h = g^((p-1)/g1) for g the least primitive root mod p and
    g1 = gcd(c, p-1) generates C intersect F_p*; the index is the discrete
    log of beta base h, reduced mod ell."""
    g1 = gcd(c, p - 1)
    h = pow(least_primitive_root(p), (p - 1) // g1, p)
    x = 1
    for k in range(g1):
        if x == beta_residue % p:
            j = k % ell
            if j == 0:
                raise InvariantError("nonsplit_index called on a split beta")
            return j
        x = x * h % p
    raise DomainError(f"{beta_residue} is not in the order-{g1} subgroup mod {p}")


def split_class(ctx: FieldCtx, alpha: int, beta: int,
                params: ExtensionParams) -> tuple[str, int]:
    """("split", 0) or ("nonsplit", j) for the pair (alpha, beta).

    alpha ranges over GF(p^ell)^*, beta over the prime subfield; the class
    depends only on c = ord<alpha,beta> and the coset of beta, so it is
    invariant under alpha -> alpha^p.
    """
    p, ell = params.p, params.ell
    if alpha == 0 or beta == 0:
        raise DomainError("alpha and beta must be nonzero")
    if beta >= p:  # the prime subfield is exactly the ints below p
        raise DomainError("beta must lie in the prime subfield")
    c = lcm(ctx.element_order(alpha), ctx.element_order(beta))
    beta_order = ctx.element_order(beta)
    if beta_is_power_residue(c, beta_order, p, ell):
        return ("split", 0)
    return ("nonsplit", nonsplit_index(c, beta, p, ell))


# ---------------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class GroupDescriptor:
    kind: str  # "cyclic" | "split" | "nonsplit"
    c: int
    class_index: int
    p: int
    ell: int
    label: str


@dataclass(frozen=True)
class CatalogEntry:
    descriptor: GroupDescriptor
    alpha: int
    beta: int
    generators: tuple[MonomialMatrix, ...]
    matrix_order: int | None  # None when beyond the closure cap
    expected_matrix_order: int
    full_order: int  # matrix part times p^ell
    abelian: bool
    noncommuting_witness: tuple[MonomialMatrix, MonomialMatrix] | None


def catalog(params: ExtensionParams,
            closure_cap: int = CLOSURE_CAP) -> list[CatalogEntry]:
    """One entry per positive-count census descriptor, with a concrete
    matrix representative; closure orders are computed when the expected
    order fits under the cap, otherwise left as None."""
    p, ell = params.p, params.ell
    ctx = make_field(p, ell, ceiling=FIELD_CEILING)
    entries: list[CatalogEntry] = []
    for centry in census_by_group(params).by_group:
        c = centry.c
        alpha = ctx.root_of_unity(c)
        if centry.kind == "cyclic":
            beta = 1
            diag_a = generator_matrices(ctx, alpha, 1, ell).T
            diag_b = MonomialMatrix(ell, 0, (1,) * ell)
            gens: tuple[MonomialMatrix, ...] = (diag_a, diag_b)
            expected = c
            abelian = True
            desc = GroupDescriptor("cyclic", c, 0, p, ell, cyclic_label(c))
        else:
            if centry.kind == "split":
                beta = 1
            else:
                g1 = gcd(c, p - 1)
                h = pow(least_primitive_root(p), (p - 1) // g1, p)
                beta = pow(h, centry.class_index, p)
                got = split_class(ctx, alpha, beta, params)
                if got != ("nonsplit", centry.class_index):
                    raise InvariantError(
                        f"nonsplit representative for {centry.label} "
                        f"classified as {got}")
            pair = generator_matrices(ctx, alpha, beta, ell)
            gens = (pair.T, pair.V)
            expected = c * ell
            abelian = False
            desc = GroupDescriptor(centry.kind, c, centry.class_index, p, ell,
                                   nonabelian_label(c, centry.kind == "split",
                                                    centry.class_index))
        order = None
        witness = None
        if expected <= closure_cap:
            elements = closure_elements(gens, ctx, cap=closure_cap)
            order = len(elements)
            if order != expected:
                raise InvariantError(
                    f"closure order {order} != expected {expected} for {desc.label}")
            if not abelian:
                witness = _noncommuting_pair(gens, ctx)
                if witness is None:
                    raise InvariantError(f"{desc.label} closed abelian")
            elif _noncommuting_pair(gens, ctx) is not None:
                raise InvariantError(f"{desc.label} is not abelian")
        entries.append(CatalogEntry(
            descriptor=desc, alpha=alpha, beta=beta, generators=gens,
            matrix_order=order, expected_matrix_order=expected,
            full_order=expected * p ** ell, abelian=abelian,
            noncommuting_witness=witness))
    return entries


def _noncommuting_pair(gens, ctx: FieldCtx):
    for a in gens:
        for b in gens:
            if a.mul(b, ctx) != b.mul(a, ctx):
                return (a, b)
    return None


# ---------------------------------------------------------------------------
# prime-field models (regular representation on the power basis)

def regular_rep(ctx: FieldCtx, a: int) -> list[int]:
    """Multiplication-by-a as basis images over F_p (linalg vectors)."""
    space = VecSpace(ctx.p, ctx.m)
    return [space.decode(ctx.mul(a, ctx.p ** j)) for j in range(ctx.m)]


def frobenius_rep(ctx: FieldCtx, k: int = 1) -> list[int]:
    """x -> x^(p^k) as basis images over F_p: (x -> x^p)^(k mod m)."""
    space = VecSpace(ctx.p, ctx.m)
    step = [space.decode(ctx.frob(ctx.p ** j)) for j in range(ctx.m)]
    out = [space.unit(j) for j in range(ctx.m)]
    for _ in range(k % ctx.m):
        out = space.compose(step, out)
    return out
