"""Exact linear algebra over F_p on small vector spaces.

A vector of F_p^n is one int, coordinate i in the lane of bits
[i*w, (i+1)*w).  For p = 2, w = 1: bit-packed vectors, summed by XOR.  For
odd p the lanes have headroom: integer sums and multiples are exact while
each lane stays at most H = LANE_HEADROOM*(p-1)^2, i.e. holds at most
LANE_HEADROOM products a*b with a, b < p.  One Barrett step reduces every
lane mod p at once, x - ((x*m >> s) & qmask)*p: s is the least shift with
H*(p-1) < 2^s and m = ceil(2^s/p), so (x*m) >> s == x // p for x <= H; w is
the bit length of H*m, so x*m never carries into the next lane; qmask keeps
the low w - s bits of each lane.  Row operations reduce after every
LANE_HEADROOM - 1 steps, and a map or product whose lane sums could pass H
is refused with CapacityError when it is built.  A product of two vectors
as ints (Kronecker substitution) sums up to n products per lane, so
ffield's residue ring, which multiplies GF(p^n) elements that way, caps n
at LANE_HEADROOM.

decode and encode map vectors to and from base-p keys (the ffield element
encoding); reduced vectors compare like their keys (coordinate n - 1 most
significant).  Subspaces are reduced row echelon bases, pivots descending
and pivot coefficient 1: a unique hashable key.  Dimensions stay below
~100, so O(n^2) row operations are fine; applying a fixed map, the hot
path of spinning, uses chunk tables (8 bits per XOR table for p = 2, at
most 256 digit combinations per table for odd p < 256).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .errors import CapacityError, DomainError

LANE_HEADROOM = 64  # products a*b (a, b < p) one lane sum may hold


@lru_cache(maxsize=None)
def _barrett(p: int) -> tuple[int, int, int]:
    """(lane width w, shift s, multiplier m) for odd p."""
    bound = LANE_HEADROOM * (p - 1) ** 2
    s = (bound * (p - 1)).bit_length()
    m = -(-(1 << s) // p)
    return (bound * m).bit_length(), s, m


class VecSpace:
    """Coordinate space F_p^n; vectors are lane-packed ints."""

    def __init__(self, p: int, n: int) -> None:
        self.p = p
        self.n = n
        if p == 2:
            # m = qmask = 0 makes the Barrett step the identity
            self.w, self._s, self._m, self._q = 1, 0, 0, 0
        else:
            w, self._s, self._m = _barrett(p)
            self.w = w
            every_lane = ((1 << (n * w)) - 1) // ((1 << w) - 1)
            self._q = every_lane * ((1 << (w - self._s)) - 1)
        self._lane = (1 << self.w) - 1

    def _lanes(self, x: int) -> int:
        """Every lane of x (each at most H) reduced mod p."""
        return x - ((x * self._m >> self._s) & self._q) * self.p

    # -- vector basics ------------------------------------------------------

    def unit(self, i: int) -> int:
        return 1 << (i * self.w)

    def component(self, v: int, j: int) -> int:
        return (v >> (j * self.w)) & self._lane

    def from_coords(self, coords: Iterable[int]) -> int:
        """The vector with the given coordinates, taken mod p; refuses more
        than n of them, since no lane past n is ever reduced."""
        coords = tuple(coords)
        if len(coords) > self.n:
            raise DomainError(f"{len(coords)} coordinates in F_{self.p}^{self.n}")
        p, w = self.p, self.w
        return sum((c % p) << (j * w) for j, c in enumerate(coords))

    def add(self, u: int, v: int) -> int:
        if self.p == 2:
            return u ^ v
        return self._lanes(u + v)

    def smul(self, c: int, v: int) -> int:
        return self._lanes(c % self.p * v)

    def decode(self, key: int) -> int:
        """The vector whose coordinates are the base-p digits of key, such
        as a GF(p^n) element in its ffield encoding."""
        if self.p == 2:
            return key
        p, w = self.p, self.w
        v = 0
        for j in range(self.n):
            key, r = divmod(key, p)
            v |= r << (j * w)
        return v

    def encode(self, v: int) -> int:
        """The inverse of decode: the key whose base-p digits are v's
        coordinates."""
        if self.p == 2:
            return v
        key = 0
        for j in range(self.n - 1, -1, -1):
            key = key * self.p + self.component(v, j)
        return key

    # -- echelon bases --------------------------------------------------------

    def pivot(self, v: int) -> int:
        """Index of the highest nonzero coordinate, -1 for zero."""
        return (v.bit_length() - 1) // self.w

    def reduce(self, v: int, rows: list) -> int:
        """Reduce v against echelon rows (distinct pivots, descending, pivot
        coefficient 1)."""
        if self.p == 2:
            for r in rows:
                h = r.bit_length() - 1
                if (v >> h) & 1:
                    v ^= r
            return v
        p, w, lane = self.p, self.w, self._lane
        room = left = LANE_HEADROOM - 1  # v itself is the first product
        for r in rows:
            h = (r.bit_length() - 1) // w * w
            c = ((v >> h) & lane) % p
            if c:
                v += (p - c) * r
                left -= 1
                if not left:
                    v = self._lanes(v)
                    left = room
        return v if left == room else self._lanes(v)

    def insert(self, rows: list, v: int) -> bool:
        """Reduce v and insert into the descending-pivot basis; report growth."""
        v = self.reduce(v, rows)
        if v:
            self.place(rows, v)
        return v != 0

    def place(self, rows: list, v: int) -> None:
        """Insert v, nonzero and already reduced against rows, into the
        descending-pivot basis, scaled to pivot coefficient 1."""
        lead = self.component(v, self.pivot(v))
        if lead != 1:
            v = self.smul(pow(lead, -1, self.p), v)
        # distinct pivots: a row with a higher pivot is a larger int
        lo, hi = 0, len(rows)
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid] > v:
                lo = mid + 1
            else:
                hi = mid
        rows.insert(lo, v)

    def canon(self, rows: Iterable) -> tuple:
        """Unique reduced echelon key for the span of rows."""
        basis: list = []
        for v in rows:
            self.insert(basis, v)
        return self.back_substitute(basis)

    def back_substitute(self, basis: list) -> tuple:
        """The canonical key of a descending-pivot echelon basis with unit
        pivots: clears the entries above every pivot, in place."""
        for i in range(len(basis) - 2, -1, -1):
            basis[i] = self.reduce(basis[i], basis[i + 1:])
        return tuple(basis)

    def span_lines(self, rows) -> Iterator[int]:
        """One vector per line of the span of reduced echelon rows, the one
        with leading coefficient 1, in ascending key order: (p^k - 1)/(p - 1)
        of them.  Row r_i yields r_i plus each member of the span of the
        rows below it."""
        below = [0]  # the span of the rows below, ascending
        for i in range(len(rows) - 1, -1, -1):
            r = rows[i]
            yield from (self.add(r, m) for m in below)
            if i:
                multiples = [self.smul(c, r) for c in range(1, self.p)]
                below += [self.add(x, m) for x in multiples for m in below]

    # -- linear maps -----------------------------------------------------------

    def map_from_images(self, images: list) -> Callable:
        """Linear map from basis images, applied through chunk tables."""
        p, w = self.p, self.w
        per = 1  # coordinates per table: at most 256 digit combinations
        while p ** (per + 1) <= 256:
            per += 1
        if p != 2 and self.n > per * LANE_HEADROOM:
            raise CapacityError(
                f"a map on F_{p}^{self.n} sums {-(-self.n // per)} table "
                f"entries per lane, over LANE_HEADROOM = {LANE_HEADROOM}")
        if p > 256:  # one coordinate's table alone would hold p entries
            return lambda v: self.compose(images, (v,))[0]
        tables = []
        for base in range(0, self.n, per):
            chunk = images[base:base + per]
            if p == 2:
                tbl = [0] * (1 << len(chunk))
                for bits in range(1, 1 << len(chunk)):
                    low = bits & -bits
                    tbl[bits] = tbl[bits ^ low] ^ chunk[low.bit_length() - 1]
            else:
                tbl = {0: 0}
                for i, col in enumerate(chunk):
                    mults = [self.smul(a, col) for a in range(p)]
                    tbl = {key | a << (i * w): self.add(val, mults[a])
                           for key, val in tbl.items() for a in range(p)}
            tables.append(tbl)
        if len(tables) == 1:
            t0 = tables[0]

            def apply1(v, _t0=t0):
                return _t0[v]

            return apply1
        if p != 2:
            bits = per * w

            def apply_lanes(v, _tables=tables, _bits=bits,
                            _mask=(1 << bits) - 1, _m=self._m, _s=self._s,
                            _q=self._q, _p=p):
                acc = 0
                for t in _tables:
                    acc += t[v & _mask]
                    v >>= _bits
                return acc - ((acc * _m >> _s) & _q) * _p

            return apply_lanes
        if len(tables) == 2:
            t0, t1 = tables

            def apply2(v, _t0=t0, _t1=t1):
                return _t0[v & 255] ^ _t1[v >> 8]

            return apply2
        if len(tables) == 3:
            t0, t1, t2 = tables

            def apply3(v, _t0=t0, _t1=t1, _t2=t2):
                return _t0[v & 255] ^ _t1[(v >> 8) & 255] ^ _t2[v >> 16]

            return apply3

        def apply_many(v, _tables=tables):
            acc = 0
            for t in _tables:
                acc ^= t[v & 255]
                v >>= 8
            return acc

        return apply_many

    def compose(self, outer: list, inner) -> list:
        """Basis images of outer o inner, both given by basis images; with
        inner = any vectors, their images under outer (for a vector of
        coefficients, the combination of the vectors in outer)."""
        w, lane = self.w, self._lane
        out = []
        if self.p == 2:
            for img in inner:
                acc = 0
                j = 0
                while img:
                    if img & 1:
                        acc ^= outer[j]
                    img >>= 1
                    j += 1
                out.append(acc)
            return out
        if len(outer) > LANE_HEADROOM:
            raise CapacityError(
                f"a product on F_{self.p}^{self.n} sums {len(outer)} "
                f"products per lane, over LANE_HEADROOM = {LANE_HEADROOM}")
        for img in inner:
            acc = 0
            j = 0
            while img:
                c = img & lane
                if c:
                    acc += c * outer[j]
                img >>= w
                j += 1
            out.append(self._lanes(acc))
        return out

    def kernel(self, images: list) -> tuple:
        """Canonical basis of {x : sum x_j images[j] = 0}; refuses more
        than n images, since the tag of image n would land in the image
        lanes."""
        if len(images) > self.n:
            raise DomainError(f"{len(images)} images in F_{self.p}^{self.n}")
        # eliminate on [image | tag] rows: the tag (low lanes) records the
        # combination of units, the image (high lanes) carries the pivots
        aug = VecSpace(self.p, 2 * self.n)
        shift = self.n * self.w
        rows: list = []
        null = []
        for j, img in enumerate(images):
            v = aug.reduce(img << shift | self.unit(j), rows)
            if v >> shift:
                aug.place(rows, v)
            else:
                null.append(v)
        return self.canon(null)

    def solve(self, basis_rows: list, v: int):
        """Coefficients of v in the given (independent) rows, or None."""
        k = len(basis_rows)
        aug = VecSpace(self.p, self.n + k)
        shift = k * self.w
        rows: list = []
        for j, r in enumerate(basis_rows):
            aug.insert(rows, r << shift | aug.unit(j))
        # what is left is [v - sum g_j r_j | -g]
        rest = aug.reduce(v << shift, rows)
        if rest >> shift:
            return None
        return tuple(-aug.component(rest, j) % self.p for j in range(k))


def restrict_map(space: VecSpace, block_rows: list, images: list,
                 sub: VecSpace) -> list:
    """Basis images, in block coordinates, of the map with the given basis
    images restricted to the span of block_rows, a reduced echelon basis
    (as canon, spin and kernel give).  Coordinates are read at the rows'
    pivots and checked by rebuilding each image: DomainError if the span is
    not invariant or the rows are not reduced."""
    out = []
    for img in space.compose(images, block_rows):
        coords = sub.from_coords(space.component(img, space.pivot(r))
                                 for r in block_rows)
        if space.compose(block_rows, (coords,))[0] != img:
            raise DomainError("span is not invariant or rows are not reduced")
        out.append(coords)
    return out
