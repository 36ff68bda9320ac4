"""Exact F_p linear algebra: canonical bases, kernels, equivariant maps."""

import random

import pytest

from padicext.errors import CapacityError, DomainError
from padicext.linalg import LANE_HEADROOM, VecSpace, restrict_map


def random_vec(space, rng):
    return space.decode(rng.randrange(space.p ** space.n))


def test_canon_is_a_span_invariant():
    rng = random.Random(5)
    for p, n in ((2, 10), (3, 6), (5, 4)):
        space = VecSpace(p, n)
        for _ in range(40):
            rows = [random_vec(space, rng) for _ in range(3)]
            key = space.canon(rows)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            mixed = shuffled + [space.add(rows[0], space.smul(p - 1, rows[1]))]
            assert space.canon(mixed) == key
            # canonical rows are reduced echelon: unique pivots, sorted
            pivots = [space.pivot(r) for r in key]
            assert pivots == sorted(pivots, reverse=True)
            assert len(set(pivots)) == len(pivots)


def test_span_members_count():
    # one vector per line: (p^k - 1)/(p - 1), leading coefficient 1, ascending
    for p, n, units in ((3, 4, (0, 2)), (5, 5, (0, 3, 4)), (2, 5, (1, 2, 4))):
        space = VecSpace(p, n)
        rows = space.canon([space.unit(j) for j in units])
        lines = list(space.span_lines(rows))
        assert len(lines) == (p ** len(rows) - 1) // (p - 1)
        assert lines == sorted(set(lines))
        assert all(space.component(v, space.pivot(v)) == 1 for v in lines)
        assert len({space.canon([v]) for v in lines}) == len(lines)


def test_kernel_of_projection():
    for p in (2, 3, 5):
        space = VecSpace(p, 5)
        images = [space.unit(j) for j in range(4)] + [0]
        ker = space.kernel(images)
        assert len(ker) == 1
        assert space.pivot(ker[0]) == 4


def test_kernel_members_annihilated():
    rng = random.Random(9)
    for p, n in ((2, 8), (3, 5)):
        space = VecSpace(p, n)
        images = [random_vec(space, rng) for _ in range(n)]
        apply_fn = space.map_from_images(images)
        ker = space.kernel(images)
        for row in ker:
            assert space.pivot(apply_fn(row)) < 0
        # rank-nullity
        rank = len(space.canon(images))
        assert rank + len(ker) == n


def test_solve_round_trip():
    rng = random.Random(3)
    for p, n in ((2, 9), (3, 6)):
        space = VecSpace(p, n)
        basis = space.canon([random_vec(space, rng) for _ in range(4)])
        for _ in range(20):
            coeffs = [rng.randrange(p) for _ in basis]
            v = 0
            for c, r in zip(coeffs, basis):
                v = space.add(v, space.smul(c, r))
            got = space.solve(list(basis), v)
            assert got is not None
            rebuilt = 0
            for c, r in zip(got, basis):
                rebuilt = space.add(rebuilt, space.smul(c, r))
            assert rebuilt == v


def test_solve_detects_outside_vectors():
    space = VecSpace(2, 4)
    basis = [space.unit(0), space.unit(1)]
    assert space.solve(basis, space.unit(3)) is None


def test_restrict_map_to_invariant_subspace():
    # cyclic shift on F_2^6; the even/odd-split subspace spanned by
    # (e0+e2+e4) and (e1+e3+e5) is invariant
    space = VecSpace(2, 6)
    images = [space.unit((j + 1) % 6) for j in range(6)]
    u = space.unit(0) ^ space.unit(2) ^ space.unit(4)
    w = space.unit(1) ^ space.unit(3) ^ space.unit(5)
    sub = VecSpace(2, 2)
    mat = restrict_map(space, [u, w], images, sub)
    apply_sub = sub.map_from_images(mat)
    assert apply_sub(sub.unit(0)) == sub.unit(1)
    assert apply_sub(sub.unit(1)) == sub.unit(0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_restrict_map_reads_the_solved_coordinates(p):
    # every image of the two maps lies in W, so W is invariant under both;
    # the coordinates read at W's pivots are the ones solve finds
    rng = random.Random(p)
    n = 8
    space = VecSpace(p, n)
    for k in range(1, n):
        rows = list(space.canon([random_vec(space, rng) for _ in range(k)]))
        sub = VecSpace(p, len(rows))
        for _ in range(2):
            images = space.compose(rows, [random_vec(sub, rng)
                                          for _ in range(n)])
            solved = [sub.from_coords(space.solve(rows, img))
                      for img in space.compose(images, rows)]
            assert restrict_map(space, rows, images, sub) == solved


@pytest.mark.parametrize("p", [2, 3, 5])
def test_restrict_map_refuses_a_moved_span_and_unreduced_rows(p):
    space = VecSpace(p, 6)
    shift = [space.unit((j + 1) % 6) for j in range(6)]
    with pytest.raises(DomainError):  # e0 goes to e1, outside its span
        restrict_map(space, [space.unit(0)], shift, VecSpace(p, 1))
    u = space.from_coords([1, 0, 1, 0, 1, 0])
    w = space.from_coords([0, 1, 0, 1, 0, 1])
    # span(u, w) is shift-invariant, but u + w is not zero at u's pivot
    unreduced = [space.add(u, w), u]
    assert all(space.solve(unreduced, img) is not None
               for img in space.compose(shift, unreduced))
    with pytest.raises(DomainError):
        restrict_map(space, unreduced, shift, VecSpace(p, 2))


def test_coords_to_vec_codecs():
    assert VecSpace(2, 4).from_coords((1, 0, 1, 1)) == 0b1101
    space = VecSpace(3, 3)
    v = space.from_coords((2, 0, 1))
    # coordinate j in lane j; the key is the base-3 number 102
    assert v == 2 | 1 << (2 * space.w)
    assert [space.component(v, j) for j in range(3)] == [2, 0, 1]
    assert space.decode(2 + 1 * 9) == v
    assert space.from_coords((5, -1, 3)) == space.from_coords((2, 2, 0))


def test_from_coords_refuses_coordinates_past_n():
    # a lane past n is never reduced by add, smul or _lanes
    for p in (2, 3):
        with pytest.raises(DomainError):
            VecSpace(p, 2).from_coords([1, 2, 1])
    assert VecSpace(3, 2).from_coords([1]) == 1


def test_kernel_refuses_more_images_than_n():
    # x = (1, 1, 1) is the kernel of [e0, e1, e0 + e1] over F_2, and
    # (1, 1) that of [e0, 2 e0] over F_3; a kernel vector with more
    # coordinates than n is not a vector of the space, and the tag of image
    # n would land in the image lanes
    for space, images in ((VecSpace(2, 2), [1, 2, 3]), (VecSpace(3, 1), [1, 2])):
        with pytest.raises(DomainError):
            space.kernel(images)
    assert VecSpace(2, 3).kernel([1, 2, 3]) == (0b111,)
    space = VecSpace(3, 2)
    assert space.kernel([1, 2]) == (space.from_coords([1, 1]),)


# ---------------------------------------------------------------------------
# differential check of the lane codec against a coordinate-tuple reference

class TupleSpace:
    """Reference F_p^n on coordinate tuples, written the way the odd-p
    tuple codec was, to check the lane-packed codec against."""

    def __init__(self, p, n):
        self.p, self.n = p, n

    def pivot(self, v):
        for i in range(self.n - 1, -1, -1):
            if v[i]:
                return i
        return -1

    def reduce(self, v, rows):
        p = self.p
        v = list(v)
        for r in rows:
            h = self.pivot(r)
            c = v[h]
            if c:
                factor = c * pow(r[h], -1, p) % p
                for i in range(h + 1):
                    v[i] = (v[i] - factor * r[i]) % p
        return tuple(v)

    def insert(self, rows, v):
        v = self.reduce(v, rows)
        h = self.pivot(v)
        if h < 0:
            return False
        inv = pow(v[h], -1, self.p)
        v = tuple(c * inv % self.p for c in v)
        pos = 0
        while pos < len(rows) and self.pivot(rows[pos]) > h:
            pos += 1
        rows.insert(pos, v)
        return True

    def canon(self, rows):
        basis = []
        for v in rows:
            self.insert(basis, v)
        for i in range(len(basis) - 1, -1, -1):
            basis[i] = self.reduce(basis[i], basis[i + 1:])
        return tuple(basis)

    def unit(self, j, k=None):
        return tuple(int(i == j) for i in range(self.n if k is None else k))

    def kernel(self, images):
        p = self.p
        aug, null = [], []
        for j, img in enumerate(images):
            tag = self.unit(j)
            for rimg, rtag in aug:
                h = self.pivot(rimg)
                if img[h]:
                    f = img[h] * pow(rimg[h], -1, p) % p
                    img = tuple((a - f * b) % p for a, b in zip(img, rimg))
                    tag = tuple((a - f * b) % p for a, b in zip(tag, rtag))
            if self.pivot(img) < 0:
                null.append(tag)
            else:
                aug.append((img, tag))
                aug.sort(key=lambda t: -self.pivot(t[0]))
        return self.canon(null)

    def solve(self, basis_rows, v):
        p, k = self.p, len(basis_rows)
        red = []
        for j, row in enumerate(basis_rows):
            tag = self.unit(j, k)
            for rr, rt in red:
                h = self.pivot(rr)
                if row[h]:
                    f = row[h] * pow(rr[h], -1, p) % p
                    row = tuple((a - f * b) % p for a, b in zip(row, rr))
                    tag = tuple((a - f * b) % p for a, b in zip(tag, rt))
            if self.pivot(row) >= 0:
                red.append((row, tag))
                red.sort(key=lambda t: -self.pivot(t[0]))
        coeffs = [0] * k
        for rr, rt in red:
            h = self.pivot(rr)
            if v[h]:
                f = v[h] * pow(rr[h], -1, p) % p
                v = tuple((a - f * b) % p for a, b in zip(v, rr))
                coeffs = [(c + f * t) % p for c, t in zip(coeffs, rt)]
        return None if self.pivot(v) >= 0 else tuple(coeffs)

    def apply(self, images, v):
        acc = [0] * self.n
        for c, col in zip(v, images):
            for i in range(self.n):
                acc[i] += c * col[i]
        return tuple(a % self.p for a in acc)

    def span_lines(self, rows):
        """Row i plus each combination of the rows below it, the lowest
        row taking the least significant digit."""
        for i in range(len(rows) - 1, -1, -1):
            below = rows[i + 1:]
            for idx in range(self.p ** len(below)):
                t = idx
                acc = rows[i]
                for r in reversed(below):
                    t, c = divmod(t, self.p)
                    acc = tuple((a + c * b) % self.p for a, b in zip(acc, r))
                yield acc


def as_tuple(space, v):
    return tuple(space.component(v, j) for j in range(space.n))


def as_tuples(space, vs):
    return tuple(as_tuple(space, v) for v in vs)


def random_tuple(p, n, rng):
    return tuple(rng.randrange(p) for _ in range(n))


@pytest.mark.parametrize("p", (3, 5, 7, 65537))  # 65537: maps without tables
@pytest.mark.parametrize("n", (1, 8, 64))
def test_lane_codec_matches_tuple_reference(p, n):
    rng = random.Random(1000 * p + n)
    space, ref = VecSpace(p, n), TupleSpace(p, n)
    full = tuple([p - 1] * n)  # worst case for the lane headroom
    for trial in range(6):
        # trial 1 has n rows: full rank, so reductions run long enough to
        # pass the LANE_HEADROOM - 1 row operations between Barrett steps
        k = n if trial == 1 else rng.randrange(1, min(n, 6) + 1)
        rows = [random_tuple(p, n, rng) for _ in range(k)]
        if trial == 0:
            rows[0] = full
        lanes = [space.from_coords(r) for r in rows]
        key = space.canon(lanes)
        assert as_tuples(space, key) == ref.canon(rows)
        if p ** k <= 400:
            assert [as_tuple(space, v) for v in space.span_lines(key)] \
                == list(ref.span_lines(as_tuples(space, key)))
        # images of rank at most k
        images = [tuple(sum(rng.randrange(p) * r[i] for r in rows) % p
                        for i in range(n)) for _ in range(n)]
        if trial == 0:
            images = [full] * n
        image_lanes = [space.from_coords(img) for img in images]
        assert as_tuples(space, space.kernel(image_lanes)) == ref.kernel(images)
        apply_fn = space.map_from_images(image_lanes)
        for v in (full, random_tuple(p, n, rng)):
            assert as_tuple(space, apply_fn(space.from_coords(v))) \
                == ref.apply(images, v)
        basis = ref.canon(rows)
        basis_lanes = [space.from_coords(r) for r in basis]
        inside = ref.apply(list(basis) + [(0,) * n] * (n - len(basis)),
                           random_tuple(p, n, rng))
        for v in (inside, random_tuple(p, n, rng), full):
            assert space.solve(basis_lanes, space.from_coords(v)) \
                == ref.solve(list(basis), v)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (64, 200))
def test_reduce_at_the_worst_case_lane_growth(p, n):
    # row h is e_h + (p-1)(e_0 + ... + e_{h-1}); v is chosen so that every
    # row is subtracted p-1 times, which adds (p-1)^2 to every lower lane:
    # the largest growth per step, run over 3 flushes when n = 200
    space, ref = VecSpace(p, n), TupleSpace(p, n)
    rows = [tuple([p - 1] * h + [1] + [0] * (n - h - 1))
            for h in range(n - 1, 0, -1)]
    v = tuple((1 - (n - 1 - h)) % p for h in range(n))
    got = space.reduce(space.from_coords(v), [space.from_coords(r) for r in rows])
    assert as_tuple(space, got) == ref.reduce(v, rows)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_barrett_step_is_exact_over_the_whole_headroom(p):
    space = VecSpace(p, 3)
    bound = LANE_HEADROOM * (p - 1) ** 2
    for x in range(bound + 1):
        # every lane value up to the bound, next to a full and an empty lane
        packed = bound | x << space.w
        assert space._lanes(packed) == space.from_coords((bound, x, 0))


def test_map_beyond_the_headroom_is_refused():
    # p = 3 tables hold 5 coordinates each: 64 tables cover n = 320
    full = VecSpace(3, 320)
    images = [full.from_coords([2] * 320)] * 320
    apply_fn = full.map_from_images(images)
    assert apply_fn(images[0]) == full.from_coords([320 * 4 % 3] * 320)
    over = VecSpace(3, 321)
    with pytest.raises(CapacityError, match="LANE_HEADROOM"):
        over.map_from_images([over.unit(0)] * 321)
    with pytest.raises(CapacityError, match="LANE_HEADROOM"):
        VecSpace(5, 65).compose([0] * 65, [1])
    # p = 2 sums by XOR and has no headroom to run out of
    assert VecSpace(2, 400).map_from_images([1] * 400)((1 << 400) - 1) == 0
