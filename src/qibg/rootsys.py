"""Irreducible root systems, generic plane projections, and clockwise ray classes.

Every supported system is half-integral, so each system is computed on one
int64 array: its doubled lattice, row i being 2r for the i-th root r, with an
exact dict from each row, as a tuple of ints, back to its index.  The negation
map, the count of root lines and the plane images derive from those two, at
any ambient dimension; the pair sums and the simple roots are derived from
them only when first read.  The roots handed out keep their exact
coordinates: plain ints, and Fractions only for the half-integer (spin)
coordinates of F4 and E6-E8.

A projection is a pair of integer vectors (u, w) mapping a root v to the
plane point (u.v, w.v); validity means no root lands on the real axis and
distinct root lines keep distinct image lines.  All ordering and side
decisions are made with integer cross products only; the float angles
carried by orderings are for reporting and drawing.

numpy is imported inside the functions that build or read the arrays, so that
importing qibg (decompose, bigcell, harness and cli import this module) does
not load it.  The SL(n) path never touches an array: `sl_class_ordering`
builds its A_{n-1} ordering from the closed form of the root images, so the
column-major and clockwise strategies, campaigns and big-cell splits run
without numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

Root = tuple  # of int, or Fraction for a half-integer coordinate

FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")

ROOT_COUNT = {
    "A": lambda n: n * n + n,
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * n - 2 * n,
    "BC": lambda n: 2 * n * n + 2 * n,
    "G2": lambda n: 12,
    "F4": lambda n: 48,
    "E6": lambda n: 72,
    "E7": lambda n: 126,
    "E8": lambda n: 240,
}


class InvalidProjectionError(ValueError):
    pass


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient_dim: int
    roots: tuple

    @cached_property
    def _tables(self) -> _Tables:
        # Built on first use and kept on the instance, outside the compared and
        # hashed fields: a lookup hashes no root coordinate, and a system built
        # by hand, or equal to another but distinct from it, gets its own tables.
        return _system_tables(self)

    @cached_property
    def _sums(self) -> np.ndarray:
        """Columns (a, b, row of a+b) for every a <= b with a+b a root; built on first read."""
        import numpy as np

        lattice, rows = self._tables.lattice, self._tables.rows
        # |2a + 2b|^2 must be a doubled root's: the Gram matrix rules out most pairs
        norms = np.einsum("ij,ij->i", lattice, lattice)
        squared = norms[:, None] + norms[None, :] + 2 * (lattice @ lattice.T)
        a, b = np.nonzero(np.triu(np.isin(squared, norms)))
        s = np.array([rows.get(t, -1) for t in zip(*(lattice[a] + lattice[b]).T.tolist())],
                     dtype=np.intp)
        found = s >= 0   # masks each column, so the stack stays row-major for _closed
        return np.stack([a[found], b[found], s[found]])

    @cached_property
    def simple_roots(self) -> tuple:
        """The lexicographically positive roots that are no sum of two positive roots."""
        import numpy as np

        positive = _lead_signs(self._tables.lattice) > 0
        a, b, s = self._sums
        summed = np.zeros(len(self.roots), dtype=bool)
        summed[s[positive[a] & positive[b]]] = True
        return tuple(sorted(itertools.compress(self.roots, positive & ~summed)))


@dataclass(frozen=True)
class Projection:
    u: tuple
    w: tuple


@dataclass(frozen=True)
class ClassOrdering:
    """Positive-root ray classes, listed clockwise (angles strictly decreasing)."""

    positive_classes: tuple   # tuple of tuples of roots
    angles: tuple             # float ray angle per class, in (0, pi)
    class_rays: tuple         # primitive integer (x, y) per class ray
    root_images: tuple        # integer (x, y) image per root, aligned with rs.roots
    # set by class_ordering alone; see _ordering_arrays
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SideSets:
    i: int
    left: frozenset
    right: frozenset
    left_pos: frozenset
    right_pos: frozenset


@dataclass(frozen=True)
class InvariantReport:
    family: str
    rank: int
    class_count: int
    side_sets_closed: bool
    positive_systems_ok: bool
    partition_recursion_ok: bool
    boundary_ok: bool
    failures: tuple

    @property
    def all_ok(self) -> bool:
        return (self.side_sets_closed and self.positive_systems_ok
                and self.partition_recursion_ok and self.boundary_ok)


# --- construction -----------------------------------------------------------
#
# Roots are built as doubled vectors 2r, which are integral for every supported
# system, and halved only when `build` hands them out.


def _vec(coeffs, dim) -> tuple:
    v = [0] * dim
    for i, c in coeffs:
        v[i] = 2 * c
    return tuple(v)


def _classical(family: str, n: int):
    if family == "A":
        return {_vec([(i, 1), (j, -1)], n + 1)
                for i, j in itertools.permutations(range(n + 1), 2)}, n + 1
    roots = {_vec([(i, si), (j, sj)], n) for i, j in itertools.combinations(range(n), 2)
             for si in (1, -1) for sj in (1, -1)}
    if family in ("B", "BC"):
        roots.update(_vec([(i, s)], n) for i in range(n) for s in (1, -1))
    if family in ("C", "BC"):
        roots.update(_vec([(i, s)], n) for i in range(n) for s in (2, -2))
    return roots, n


def _g2():
    roots, dim = _classical("A", 2)
    roots.update(_vec([(i, 2 * s), (j, -s), (k, -s)], dim)
                 for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)) for s in (1, -1))
    return roots, dim


def _f4():
    roots, dim = _classical("B", 4)
    # the spin roots (+-1/2, ..., +-1/2), doubled
    roots.update(itertools.product((1, -1), repeat=4))
    return roots, dim


def _e8():
    roots, dim = _classical("D", 8)
    # the spin roots with an even number of minus signs, doubled
    roots.update(s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0)
    return roots, dim


def _e_subsystem(constraints):
    roots, dim = _e8()
    kept = {r for r in roots
            if all(sum(a * b for a, b in zip(c, r)) == 0 for c in constraints)}
    return kept, dim


def _halve(doubled) -> Root:
    return tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in doubled)


@lru_cache(maxsize=None)
def build(family: str, rank: int) -> RootSystem:
    """Construct the standard realization of an irreducible root system.

    A system is immutable, so each (family, rank) is built once and shared,
    together with the lookup tables it carries."""
    if rank >= {"A": 1, "BC": 1, "B": 2, "C": 2, "D": 3}.get(family, math.inf):
        roots, dim = _classical(family, rank)
    elif family == "G2" and rank == 2:
        roots, dim = _g2()
    elif family == "F4" and rank == 4:
        roots, dim = _f4()
    elif family == "E8" and rank == 8:
        roots, dim = _e8()
    elif family == "E7" and rank == 7:
        roots, dim = _e_subsystem([_vec([(6, 1), (7, 1)], 8)])
    elif family == "E6" and rank == 6:
        roots, dim = _e_subsystem([_vec([(6, 1), (7, 1)], 8),
                                   _vec([(5, 1), (6, -1)], 8)])
    else:
        raise ValueError(f"unsupported root system ({family}, {rank})")
    expected = ROOT_COUNT[family](rank)
    if len(roots) != expected:
        raise AssertionError(f"{family}{rank}: built {len(roots)} roots, expected {expected}")
    # halving keeps the lexicographic order
    return RootSystem(family, rank, dim, tuple(map(_halve, sorted(roots))))


# --- exact projection machinery ---------------------------------------------


class _Tables(NamedTuple):
    rows: dict            # 2r as a tuple of ints -> row of r; exact at any dimension
    lattice: np.ndarray   # row i is 2 * rs.roots[i]; int64, entries in [-4, 4]
    neg: np.ndarray       # row of -r, per row r
    lines: int            # number of root lines


def _lead_signs(lattice) -> np.ndarray:
    """Sign of each row's first nonzero entry: +1 on the lexicographically positive rows."""
    import numpy as np

    return np.sign(lattice[np.arange(len(lattice)), np.argmax(lattice != 0, axis=1)])


def _system_tables(rs: RootSystem) -> _Tables:
    """Per-system tables, all derived from the doubled lattice; read them
    through the system's cached `_tables`."""
    import numpy as np

    # 2c is an integer for every coordinate c: read it off numerator and denominator
    doubled = [tuple(c.numerator * 2 // c.denominator for c in r) for r in rs.roots]
    rows = {r: i for i, r in enumerate(doubled)}
    lattice = np.array(doubled, dtype=np.int64)
    # a row over its content, signed to lead positive, is its line's primitive vector
    primitive = lattice // np.gcd.reduce(lattice, axis=1)[:, None]
    lines = set(map(tuple, (primitive * _lead_signs(primitive)[:, None]).tolist()))
    return _Tables(rows=rows, lattice=lattice,
                   neg=np.array([rows[r] for r in map(tuple, (-lattice).tolist())]),
                   lines=len(lines))


def _image_array(rs: RootSystem, proj: Projection) -> np.ndarray:
    import numpy as np

    # |u.2r| <= 4 * dim * max|u| bounds every image coordinate; below 2**30,
    # every 2x2 cross product of two images fits in int64, else Python ints.
    bound = 4 * rs.ambient_dim * max(map(abs, map(operator.index, (*proj.u, *proj.w))))
    dtype = np.int64 if bound < 2 ** 30 else object
    xy = (rs._tables.lattice.astype(dtype, copy=False)
          @ np.array([proj.u, proj.w], dtype=dtype).T)
    return xy >> (((xy[:, 0] | xy[:, 1]) & 1) == 0)[:, None]   # halve the even pairs


def root_images(rs: RootSystem, proj: Projection) -> tuple:
    """Exact integer plane image per root (positive per-root rescaling only).

    One matrix product gives (u.2r, w.2r) for every root r; the image is half
    of it, or the pair itself where halving would leave a half-integer."""
    return tuple(map(tuple, _image_array(rs, proj).tolist()))


def _slope_steps(xy) -> np.ndarray:
    import numpy as np

    # cross products of neighbouring images, each turned into the upper
    # half-plane: negative where the slope x/y rises, zero where it stays
    x, y = (xy * np.sign(xy[:, 1:])).T
    return x[:-1] * y[1:] - y[:-1] * x[1:]


def _images(rs: RootSystem, proj: Projection) -> tuple:
    """The image array, its rows by increasing slope x/y, and the image line
    index 0, 1, ... per entry of that order; both None if an image has y = 0."""
    import numpy as np

    xy = _image_array(rs, proj)
    x, y = xy.T
    if not y.all():
        return xy, None, None
    steps = None
    if xy.dtype != object:
        # Rounding keeps the order of two slopes or ties them, so a float sort is
        # exact unless it tied two distinct slopes; the stable one measured faster.
        order = np.argsort(x / y, kind="stable")
        steps = _slope_steps(xy[order])
    if steps is None or (steps > 0).any():
        order = np.array(sorted(range(len(xy)), key=lambda i: Fraction(int(x[i]), int(y[i]))))
        steps = _slope_steps(xy[order])
    line = np.zeros(len(xy), dtype=np.intp)
    np.cumsum(steps != 0, out=line[1:])
    return xy, order, line


def _is_generic(rs: RootSystem, proj: Projection, images: tuple) -> bool:
    # A linear map sends proportional roots to parallel images, so root lines
    # stay distinct exactly when there are as many image lines as root lines.
    _, order, line = images
    return bool(order is not None and line[-1] + 1 == rs._tables.lines)


def is_valid_projection(rs: RootSystem, proj: Projection) -> bool:
    """No root image on the real axis, and distinct root lines stay distinct."""
    return _is_generic(rs, proj, _images(rs, proj))


def sample_projection(rs: RootSystem, seed: int) -> Projection:
    """Rejection-sample a valid projection, coordinates in [-1000, 1000];
    deterministic for a fixed seed."""
    rng = random.Random(seed)
    dim = rs.ambient_dim
    for _ in range(10_000):
        proj = Projection(*(tuple(rng.randint(-1000, 1000) for _ in range(dim))
                            for _ in "uw"))
        if is_valid_projection(rs, proj):
            return proj
    raise InvalidProjectionError("no valid projection found in 10000 tries; this indicates a bug")


def positive_roots(rs: RootSystem, proj: Projection) -> frozenset:
    """Roots whose image lands in the open upper half-plane."""
    return frozenset(r for cls in class_ordering(rs, proj).positive_classes for r in cls)


def class_ordering(rs: RootSystem, proj: Projection) -> ClassOrdering:
    """Group positive roots by ray and list the rays in clockwise order."""
    import numpy as np

    images = _images(rs, proj)
    if not _is_generic(rs, proj, images):
        raise InvalidProjectionError("projection violates the genericity conditions")
    xy, order, line = images
    # Every image line holds a root and its negative, so the classes are the
    # lines in slope order, and increasing x/y is clockwise above the real axis.
    up = xy[order, 1] > 0
    rows, class_ids = order[up], line[up]
    ends = np.cumsum(np.bincount(class_ids))   # one past each class's last row
    head = xy[rows[ends - 1]]
    rays = head // np.gcd(head[:, :1], head[:, 1:])
    picked = list(map(rs.roots.__getitem__, rows.tolist()))
    if len(picked) == len(ends):   # one root per class: nothing to sort
        classes = tuple(zip(picked))
    else:
        bounds = [0, *ends.tolist()]
        classes = tuple(tuple(sorted(picked[a:b])) for a, b in zip(bounds, bounds[1:]))
    ray_list = tuple(map(tuple, rays.tolist()))
    ordering = ClassOrdering(classes, tuple(math.atan2(y, x) for x, y in ray_list),
                             ray_list, tuple(map(tuple, xy.tolist())))
    object.__setattr__(ordering, "_arrays", (
        xy, np.concatenate([[(-1, 0)], rays, [(1, 0)]]), rows, class_ids))
    return ordering


def _ordering_arrays(ordering: ClassOrdering, rs: RootSystem) -> tuple:
    """The image array, the boundary rays ((-1, 0), the class rays clockwise,
    (1, 0)), and the positive roots' rows and class indices, class by class:
    as class_ordering left them, or rebuilt from the fields in exact ints."""
    if ordering._arrays is not None:
        return ordering._arrays
    import numpy as np

    classes = ordering.positive_classes
    return (np.array(ordering.root_images, dtype=object),
            np.array([(-1, 0), *ordering.class_rays, (1, 0)], dtype=object),
            [rs._tables.rows[tuple(2 * c for c in r)] for cls in classes for r in cls],
            [j for j, cls in enumerate(classes) for _ in cls])


def _side_signs(images, rays) -> np.ndarray:
    """Sign of cross(ray, image) per boundary ray (row) and root (column): +1
    left of the ray, -1 right of it.  Row i is side-set index i, and the last
    row is +1 exactly on the positive roots."""
    import numpy as np

    cross = np.outer(rays[:, 0], images[:, 1]) - np.outer(rays[:, 1], images[:, 0])
    return np.sign(cross).astype(np.int8)


def side_sets(ordering: ClassOrdering, rs: RootSystem, i: int) -> SideSets:
    """Roots strictly left/right of the i-th class ray (0 and k+1 are the
    real-axis conventions)."""
    k = len(ordering.positive_classes)
    if not 0 <= i <= k + 1:
        raise ValueError(f"side-set index {i} out of range 0..{k + 1}")
    signs = _side_signs(*_ordering_arrays(ordering, rs)[:2])
    left, right, pos = signs[i] > 0, signs[i] < 0, signs[-1] > 0
    return SideSets(i, *(frozenset(itertools.compress(rs.roots, m))
                         for m in (left, right, left & pos, right & pos)))


# Triples are gathered this many at a time, which bounds the working memory
# of a closedness test whatever the number of masks.
_TRIPLE_CHUNK = 1024


def _closed(sums, masks) -> np.ndarray:
    """Per row of the (m, n) bool `masks`: is that set of roots closed under
    the pair sums (a, b, a+b) of `sums`?"""
    import numpy as np

    bits = np.packbits(masks.T, axis=1)   # per root, one bit per mask
    unclosed = np.zeros(bits.shape[1], dtype=np.uint8)
    for start in range(0, sums.shape[1], _TRIPLE_CHUNK):
        a, b, s = bits[sums[:, start:start + _TRIPLE_CHUNK]]
        unclosed |= np.bitwise_or.reduce(a & b & ~s, axis=0)
    return np.unpackbits(unclosed, count=len(masks)) == 0


def is_closed(roots, rs: RootSystem) -> bool:
    """True iff for all a, b in the set with a+b a root, a+b is in the set."""
    import numpy as np

    rows = rs._tables.rows
    mask = np.zeros((1, len(rs.roots)), dtype=bool)
    for r in roots:
        at = rows.get(tuple(2 * c for c in r))
        if at is None:
            raise ValueError(f"element {r} is not a root of {rs.family}{rs.rank}")
        mask[0, at] = True
    return bool(_closed(rs._sums, mask)[0])


# --- bulk verification -------------------------------------------------------


def verify_notation_invariants(rs: RootSystem, proj: Projection) -> InvariantReport:
    """Machine-check every combinatorial claim about the clockwise classes."""
    import numpy as np

    ordering = class_ordering(rs, proj)
    tables = rs._tables
    n = len(rs.roots)
    k = len(ordering.positive_classes)
    images, rays, rows, class_ids = _ordering_arrays(ordering, rs)
    signs = _side_signs(images, rays)
    pos = signs[-1] > 0
    left, right = signs > 0, signs < 0
    left_pos, right_pos = left & pos, right & pos
    # class j (0-based) from the grouping, not from the side signs
    classes = np.zeros((k, n), dtype=bool)
    classes[class_ids, rows] = True
    # A positive system is checked against the full right set, not right_pos.
    systems = classes | right[1:k + 1]
    # Only the left sets (the last, left of (1, 0), being the positive set)
    # and the positive systems are tested outright.  Negation maps pair sums
    # to pair sums, so right[i] is closed exactly when left[i] is wherever
    # right[i] = -left[i]; an intersection of closed sets is closed, so
    # left_pos[i] and right_pos[i] are closed where both their parts are.  A
    # verdict no identity gives is tested as well.
    closed = _closed(rs._sums, np.concatenate([left, systems]))
    left_closed = closed[:k + 2]
    mirrored = np.all(right == left[:, tables.neg], axis=1)
    right_closed = mirrored & left_closed
    sides_closed = np.stack([left_closed, right_closed, left_closed & left_closed[-1],
                             right_closed & left_closed[-1]], axis=1)   # (k+2, 4)
    unsettled = ~sides_closed
    unsettled[:, 0] = False         # tested outright
    unsettled[:, 1] = ~mirrored     # else closed exactly when left[i] is
    if unsettled.any():
        sides = np.stack([left, right, left_pos, right_pos], axis=1)   # (k+2, 4, n)
        sides_closed[unsettled] = _closed(rs._sums, sides[unsettled])

    names = ("left", "right", "left_pos", "right_pos")   # the columns of `sides_closed`
    failures = [f"side set {names[j]}[{i}] is not closed"
                for i, j in zip(*np.nonzero(~sides_closed))]

    negated = systems[:, tables.neg]
    systems_ok = ((np.count_nonzero(systems, axis=1) == n // 2)
                  & ~np.any(systems & negated, axis=1) & np.all(systems | negated, axis=1)
                  & closed[k + 2:])
    failures += [f"class {i} union right set is not a positive system"
                 for i in np.flatnonzero(~systems_ok) + 1]

    before = left_pos[1:k + 1]
    partition_ok = ~(np.any(before & classes, axis=1)
                     | np.any(left_pos[2:] != (before | classes), axis=1))
    failures += [f"left positives at {i + 1} are not the disjoint "
                 f"union of those at {i} with class {i}"
                 for i in np.flatnonzero(~partition_ok) + 1]

    boundary_ok = (not np.any(left_pos[1]) and not np.any(right_pos[k])
                   and np.array_equal(right_pos[0], pos)
                   and np.array_equal(left_pos[k + 1], pos))
    if not boundary_ok:
        failures.append("boundary conventions violated")

    return InvariantReport(rs.family, rs.rank, k, bool(sides_closed.all()),
                           bool(systems_ok.all()), bool(partition_ok.all()),
                           boundary_ok, tuple(failures))


# --- bridge to SL(n) ---------------------------------------------------------


@lru_cache(maxsize=None)
def _sl_roots(n: int) -> tuple:
    """(pairs, positive, classes) for A_{n-1}: (a, b) per root e_a - e_b of
    build("A", n - 1), in its order; the pairs with a < b; and the class
    (root,) of each of those."""
    roots = build("A", n - 1).roots
    pairs = tuple((r.index(1), r.index(-1)) for r in roots)
    up = [i for i, (a, b) in enumerate(pairs) if a < b]
    return pairs, tuple(map(pairs.__getitem__, up)), tuple((roots[i],) for i in up)


def _turns(xs, ys) -> list:
    """Cross product of each vector (x, y) with the next: positive where the
    next lies strictly clockwise of it, for y > 0; zero where they are parallel."""
    return list(map(operator.sub, map(operator.mul, xs[1:], ys), map(operator.mul, xs, ys[1:])))


def _sl_clockwise(proj: Projection, pairs) -> tuple | None:
    """(order, xs, ys): the roots e_a - e_b, (a, b) in `pairs`, as indices
    into `pairs` by increasing slope x/y of their images (x, y) =
    (u_a - u_b, w_a - w_b), and those images in that order; or None when two
    slopes coincide.  This is the genericity test of the SL path.

    For a w that decreases strictly, no root maps onto the real axis and each
    a < b root maps above it, so root lines keep distinct image lines exactly
    when those roots have distinct primitive rays, that is, distinct slopes;
    and increasing slope is clockwise."""
    u, w = proj.u, proj.w
    xs = [u[a] - u[b] for a, b in pairs]
    ys = [w[a] - w[b] for a, b in pairs]
    order = sorted(range(len(pairs)), key=list(map(operator.truediv, xs, ys)).__getitem__)
    ox, oy = [xs[i] for i in order], [ys[i] for i in order]
    # Rounding keeps the order of two slopes or ties them, so the float sort is
    # exact unless a neighbour turns back; an exact sort then settles the order.
    turns = _turns(ox, oy)
    if min(turns, default=1) < 0 and 0 not in turns:
        order.sort(key=cmp_to_key(lambda i, j: xs[i] * ys[j] - xs[j] * ys[i]))
        ox, oy = [xs[i] for i in order], [ys[i] for i in order]
        turns = _turns(ox, oy)
    if 0 in turns:   # two neighbours share a slope
        return None
    return order, ox, oy


def sl_class_ordering(n: int, seed: int = 0) -> ClassOrdering:
    """Clockwise ordering for A_{n-1} whose positive system is the standard one
    (e_a - e_b positive iff a < b), as needed to index SL(n) matrix positions.

    It is the ordering `class_ordering` gives for the first valid projection
    drawn, built from the closed form (u_a - u_b, w_a - w_b) of the image of
    e_a - e_b, with no array.  tests/test_rootsys.py holds the two equal:
    test_sl_class_ordering_matches_class_ordering, and
    test_sl_class_ordering_keeps_the_draw_order_past_rejected_tries past
    rejected draws; test_sl_class_ordering_matches_recorded_orderings pins
    digests recorded from the array path up to n = 64."""
    if n < 2:
        raise ValueError("need n >= 2")
    pairs, positive, classes = _sl_roots(n)
    rng = random.Random(seed)
    for _ in range(10_000):
        w = sorted((rng.randint(1, 10 ** 6) for _ in range(n)), reverse=True)
        if len(set(w)) != n:
            continue
        u = tuple(rng.randint(-1000, 1000) for _ in range(n))
        found = _sl_clockwise(Projection(u, tuple(w)), positive)
        if found is None:
            continue
        order, xs, ys = found
        gs = list(map(math.gcd, xs, ys))
        rx, ry = list(map(operator.floordiv, xs, gs)), list(map(operator.floordiv, ys, gs))
        return ClassOrdering(tuple([classes[j] for j in order]),
                             tuple(map(math.atan2, ry, rx)), tuple(zip(rx, ry)),
                             tuple([(u[a] - u[b], w[a] - w[b]) for a, b in pairs]))
    raise InvalidProjectionError("could not sample a standard ordering; this indicates a bug")


def sl_block_positions(ordering: ClassOrdering) -> tuple:
    """1-based (row, col) block position per class of a standard A_{n-1} ordering."""
    positions = []
    for cls in ordering.positive_classes:
        if len(cls) != 1:
            raise ValueError("A-type classes must be singletons")
        root = cls[0]
        if sorted(root) != [-1, *[0] * (len(root) - 2), 1]:
            raise ValueError("ordering is not built on A-type roots e_a - e_b")
        a, b = root.index(1), root.index(-1)
        if a >= b:
            raise ValueError("ordering does not use the standard positive system")
        positions.append((a + 1, b + 1))
    return tuple(positions)


# --- drawing -----------------------------------------------------------------


def render_rays_svg(rs: RootSystem, proj: Projection) -> str:
    """Static 480 x 480 SVG of the projected root rays (rendering only; no
    decision depends on these floats)."""
    ordering = class_ordering(rs, proj)
    size = 480
    half = size / 2
    radius = half - 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#ccc"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#ccc"/>',
    ]

    def point(x, y):   # where the direction (x, y) meets the drawn circle
        r = math.hypot(x, y)
        return half + radius * x / r, half - radius * y / r

    for px, py in itertools.starmap(point, ordering.root_images):
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#555"/>')
    for idx, (px, py) in enumerate(itertools.starmap(point, ordering.class_rays), start=1):
        parts.append(f'<line x1="{half}" y1="{half}" x2="{px:.2f}" y2="{py:.2f}" '
                     f'stroke="#c33" stroke-width="1.5"/>')
        parts.append(f'<text x="{px:.2f}" y="{py - 6:.2f}" font-size="11" '
                     f'text-anchor="middle">{idx}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
