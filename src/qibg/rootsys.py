"""Irreducible root systems, generic plane projections, and clockwise ray classes.

Every supported system is half-integral, so each system is computed on one
int64 array: its doubled lattice, row i being 2r for the i-th root r.  The
negation map, the pair sums, the proportionality table and the plane images
all derive from that array.  The roots handed out keep their exact
coordinates: plain ints, and Fractions only for the half-integer (spin)
coordinates of F4 and E6-E8.

A projection is a pair of integer vectors (u, w) mapping a root v to the
plane point (u.v, w.v); validity means no root lands on the real axis and
distinct root lines keep distinct image lines.  All ordering and side
decisions are made with integer cross products only; the float angles
carried by orderings are for reporting and drawing.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

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
    simple_roots: tuple


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
    roots = set()
    if family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    roots.add(_vec([(i, 1), (j, -1)], dim))
        return roots, dim
    dim = n
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.add(_vec([(i, si), (j, sj)], dim))
    if family in ("B", "BC"):
        for i in range(n):
            roots.add(_vec([(i, 1)], dim))
            roots.add(_vec([(i, -1)], dim))
    if family in ("C", "BC"):
        for i in range(n):
            roots.add(_vec([(i, 2)], dim))
            roots.add(_vec([(i, -2)], dim))
    return roots, dim


def _g2():
    roots, dim = _classical("A", 2)
    for i in range(3):
        others = [j for j in range(3) if j != i]
        roots.add(_vec([(i, 2), (others[0], -1), (others[1], -1)], dim))
        roots.add(_vec([(i, -2), (others[0], 1), (others[1], 1)], dim))
    return roots, dim


def _f4():
    roots, dim = _classical("B", 4)
    # the spin roots (+-1/2, ..., +-1/2), doubled
    roots.update(itertools.product((1, -1), repeat=4))
    return roots, dim


def _e8():
    roots, dim = _classical("D", 8)
    # the spin roots with an even number of minus signs, doubled
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.add(signs)
    return roots, dim


def _e_subsystem(constraints):
    roots, dim = _e8()
    kept = {r for r in roots
            if all(sum(a * b for a, b in zip(c, r)) == 0 for c in constraints)}
    return kept, dim


def _lex_positive(root) -> bool:
    for c in root:
        if c != 0:
            return c > 0
    return False


def _compute_simple_roots(roots) -> tuple:
    positives = sorted(r for r in roots if _lex_positive(r))
    pos_set = set(positives)
    simple = []
    for r in positives:
        decomposable = any(
            s != r and tuple(a - b for a, b in zip(r, s)) in pos_set
            for s in pos_set
        )
        if not decomposable:
            simple.append(r)
    return tuple(simple)


def _halve(doubled) -> Root:
    return tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in doubled)


def build(family: str, rank: int) -> RootSystem:
    """Construct the standard realization of an irreducible root system."""
    if family == "A" and rank >= 1:
        roots, dim = _classical("A", rank)
    elif family in ("B", "C") and rank >= 2:
        roots, dim = _classical(family, rank)
    elif family == "D" and rank >= 3:
        roots, dim = _classical("D", rank)
    elif family == "BC" and rank >= 1:
        roots, dim = _classical("BC", rank)
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
    # halving keeps the lexicographic order and the simple roots
    ordered = tuple(sorted(roots))
    return RootSystem(family, rank, dim, tuple(map(_halve, ordered)),
                      tuple(map(_halve, _compute_simple_roots(ordered))))


# --- exact projection machinery ---------------------------------------------


class _Tables(NamedTuple):
    index: dict           # root -> row
    lattice: np.ndarray   # row i is 2 * rs.roots[i]; int64, entries in [-4, 4]
    neg: np.ndarray       # row of -r, per row r
    sums: np.ndarray      # columns (a, b, row of a+b) for every a <= b with a+b a root
    prop: np.ndarray      # prop[a, b]: roots a and b are proportional


@lru_cache(maxsize=None)
def _system_tables(rs: RootSystem) -> _Tables:
    """Per-system tables, all derived from the doubled lattice."""
    n, dim = len(rs.roots), rs.ambient_dim
    # 2c is an integer for every coordinate c: read it off numerator and denominator
    lattice = np.array([[c.numerator * 2 // c.denominator for c in r] for r in rs.roots],
                       dtype=np.int64)
    # Coordinates of 2r, and of a sum of two such vectors, lie in [-8, 8], where
    # this base-17 key is injective.  It is linear: the key of a sum is the sum
    # of the keys, so one n x n addition finds every pair sum.
    key = lattice @ 17 ** np.arange(dim, dtype=np.int64)
    order = np.argsort(key)

    def row_of(k):
        at = order[np.searchsorted(key, k, sorter=order).clip(max=n - 1)]
        return np.where(key[at] == k, at, -1)

    sum_rows = row_of(key[:, None] + key[None, :])
    a, b = np.nonzero(np.triu(sum_rows >= 0))
    gram = lattice @ lattice.T
    norms = np.diag(gram)
    return _Tables(index={r: i for i, r in enumerate(rs.roots)},
                   lattice=lattice,
                   neg=row_of(-key),
                   sums=np.stack([a, b, sum_rows[a, b]]),
                   # Cauchy-Schwarz is an equality exactly for parallel vectors
                   prop=gram * gram == np.outer(norms, norms))


def _exact_dtype(rs: RootSystem, proj: Projection):
    # |u.2r| <= 4 * dim * max|u|.  Below 2**30 every image coordinate and every
    # 2x2 cross product of two images fits in int64; beyond, exact Python ints.
    peak = max(abs(operator.index(c)) for v in (proj.u, proj.w) for c in v)
    return np.int64 if 4 * rs.ambient_dim * peak < 2 ** 30 else object


def root_images(rs: RootSystem, proj: Projection) -> tuple:
    """Exact integer plane image per root (positive per-root rescaling only).

    One matrix product gives (u.2r, w.2r) for every root r; the image is half
    of it, or the pair itself where halving would leave a half-integer."""
    dtype = _exact_dtype(rs, proj)
    xy = (_system_tables(rs).lattice.astype(dtype, copy=False)
          @ np.array([proj.u, proj.w], dtype=dtype).T)
    xy[np.all(xy % 2 == 0, axis=1)] //= 2
    return tuple(map(tuple, xy.tolist()))


def _is_generic(rs: RootSystem, proj: Projection, images) -> bool:
    xy = np.array(images, dtype=_exact_dtype(rs, proj))
    x, y = xy[:, 0], xy[:, 1]
    # image lines coincide exactly where the root lines do
    return bool(np.all(y != 0)
                and np.array_equal(np.outer(x, y) == np.outer(y, x), _system_tables(rs).prop))


def is_valid_projection(rs: RootSystem, proj: Projection) -> bool:
    """No root image on the real axis, and distinct root lines stay distinct."""
    return _is_generic(rs, proj, root_images(rs, proj))


def sample_projection(rs: RootSystem, seed: int, span: int = 1000,
                      max_tries: int = 10_000) -> Projection:
    """Rejection-sample a valid projection; deterministic for a fixed seed."""
    rng = random.Random(seed)
    dim = rs.ambient_dim
    for _ in range(max_tries):
        u = tuple(rng.randint(-span, span) for _ in range(dim))
        w = tuple(rng.randint(-span, span) for _ in range(dim))
        proj = Projection(u, w)
        if is_valid_projection(rs, proj):
            return proj
    raise InvalidProjectionError(
        f"no valid projection found in {max_tries} tries; this indicates a bug")


def positive_roots(rs: RootSystem, proj: Projection) -> frozenset:
    """Roots whose image lands in the open upper half-plane."""
    return frozenset(r for cls in class_ordering(rs, proj).positive_classes for r in cls)


def _primitive(x: int, y: int) -> tuple[int, int]:
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def class_ordering(rs: RootSystem, proj: Projection) -> ClassOrdering:
    """Group positive roots by ray and list the rays in clockwise order."""
    imgs = root_images(rs, proj)
    if not _is_generic(rs, proj, imgs):
        raise InvalidProjectionError("projection violates the genericity conditions")
    groups: dict[tuple[int, int], list] = {}
    for r, (x, y) in zip(rs.roots, imgs):
        if y > 0:
            groups.setdefault(_primitive(x, y), []).append(r)
    # clockwise: strictly decreasing angle in (0, pi); for upper-half rays
    # A precedes B exactly when cross(A, B) < 0
    rays = sorted(groups, key=_upper_half_angle_key, reverse=True)
    classes = tuple(tuple(sorted(groups[ray])) for ray in rays)
    angles = tuple(math.atan2(y, x) for x, y in rays)
    return ClassOrdering(classes, angles, tuple(rays), imgs)


def _upper_half_angle_key(ray):
    # Exact strictly-increasing-angle key for upper-half-plane rays: -x/y is
    # monotone in the angle on (0, pi).
    x, y = ray
    return Fraction(-x, y)


def _boundary_ray(ordering: ClassOrdering, i: int) -> tuple[int, int]:
    k = len(ordering.positive_classes)
    if i == 0:
        return (-1, 0)
    if i == k + 1:
        return (1, 0)
    return ordering.class_rays[i - 1]


def side_sets(ordering: ClassOrdering, rs: RootSystem, i: int) -> SideSets:
    """Roots strictly left/right of the i-th class ray (0 and k+1 are the
    real-axis conventions)."""
    k = len(ordering.positive_classes)
    if not 0 <= i <= k + 1:
        raise ValueError(f"side-set index {i} out of range 0..{k + 1}")
    rx, ry = _boundary_ray(ordering, i)
    left, right, left_pos, right_pos = [], [], [], []
    for r, (x, y) in zip(rs.roots, ordering.root_images):
        c = rx * y - ry * x
        if c > 0:
            left.append(r)
            if y > 0:
                left_pos.append(r)
        elif c < 0:
            right.append(r)
            if y > 0:
                right_pos.append(r)
    return SideSets(i, frozenset(left), frozenset(right),
                    frozenset(left_pos), frozenset(right_pos))


def _closed_mask(sums, mask) -> bool:
    a, b, s = mask[sums]
    return not (a & b & ~s).any()


def is_closed(roots, rs: RootSystem) -> bool:
    """True iff for all a, b in the set with a+b a root, a+b is in the set."""
    tables = _system_tables(rs)
    mask = np.zeros(len(rs.roots), dtype=bool)
    try:
        mask[[tables.index[tuple(r)] for r in roots]] = True
    except KeyError as e:
        raise ValueError(f"element {e} is not a root of {rs.family}{rs.rank}") from None
    return _closed_mask(tables.sums, mask)


# --- bulk verification -------------------------------------------------------


def verify_notation_invariants(rs: RootSystem, proj: Projection) -> InvariantReport:
    """Machine-check every combinatorial claim about the clockwise classes."""
    ordering = class_ordering(rs, proj)
    tables = _system_tables(rs)
    n = len(rs.roots)
    imgs = np.array(ordering.root_images, dtype=_exact_dtype(rs, proj))
    pos_mask = imgs[:, 1] > 0
    k = len(ordering.positive_classes)
    class_masks = []
    for cls in ordering.positive_classes:
        m = np.zeros(n, dtype=bool)
        m[[tables.index[r] for r in cls]] = True
        class_masks.append(m)

    failures = []
    left_pos_masks = {}
    right_masks = {}
    right_pos_masks = {}
    side_sets_closed = True
    for i in range(k + 2):
        rx, ry = _boundary_ray(ordering, i)
        cross = rx * imgs[:, 1] - ry * imgs[:, 0]
        left = cross > 0
        right = right_masks[i] = cross < 0
        left_pos_masks[i] = left & pos_mask
        right_pos_masks[i] = right & pos_mask
        for name, mask in (("left", left), ("right", right),
                           ("left_pos", left_pos_masks[i]),
                           ("right_pos", right_pos_masks[i])):
            if not _closed_mask(tables.sums, mask):
                side_sets_closed = False
                failures.append(f"side set {name}[{i}] is not closed")

    # A positive system is checked against the full right set, not right_pos.
    positive_systems_ok = True
    for i in range(1, k + 1):
        s = class_masks[i - 1] | right_masks[i]
        ok = (int(s.sum()) == n // 2
              and not np.any(s & s[tables.neg])
              and bool(np.all(s | s[tables.neg]))
              and _closed_mask(tables.sums, s))
        if not ok:
            positive_systems_ok = False
            failures.append(f"class {i} union right set is not a positive system")

    partition_recursion_ok = True
    for i in range(1, k + 1):
        lhs = left_pos_masks[i + 1]
        if np.any(left_pos_masks[i] & class_masks[i - 1]) or not np.array_equal(
                lhs, left_pos_masks[i] | class_masks[i - 1]):
            partition_recursion_ok = False
            failures.append(f"left positives at {i + 1} are not the disjoint "
                            f"union of those at {i} with class {i}")

    boundary_ok = (not np.any(left_pos_masks[1])
                   and not np.any(right_pos_masks[k])
                   and np.array_equal(right_pos_masks[0], pos_mask)
                   and np.array_equal(left_pos_masks[k + 1], pos_mask))
    if not boundary_ok:
        failures.append("boundary conventions violated")

    return InvariantReport(rs.family, rs.rank, k, side_sets_closed,
                           positive_systems_ok, partition_recursion_ok,
                           boundary_ok, tuple(failures))


# --- bridge to SL(n) ---------------------------------------------------------


def sl_class_ordering(n: int, seed: int = 0, max_tries: int = 10_000) -> ClassOrdering:
    """Clockwise ordering for A_{n-1} whose positive system is the standard one
    (e_a - e_b positive iff a < b), as needed to index SL(n) matrix positions."""
    if n < 2:
        raise ValueError("need n >= 2")
    rs = build("A", n - 1)
    rng = random.Random(seed)
    for _ in range(max_tries):
        w = sorted((rng.randint(1, 10 ** 6) for _ in range(n)), reverse=True)
        if len(set(w)) != n:
            continue
        u = tuple(rng.randint(-1000, 1000) for _ in range(n))
        proj = Projection(u, tuple(w))
        if is_valid_projection(rs, proj):
            return class_ordering(rs, proj)
    raise InvalidProjectionError("could not sample a standard ordering; this indicates a bug")


def sl_block_positions(ordering: ClassOrdering) -> tuple:
    """1-based (row, col) block position per class of a standard A_{n-1} ordering."""
    positions = []
    for cls in ordering.positive_classes:
        if len(cls) != 1:
            raise ValueError("A-type classes must be singletons")
        root = cls[0]
        plus = [i for i, c in enumerate(root) if c == 1]
        minus = [i for i, c in enumerate(root) if c == -1]
        if len(plus) != 1 or len(minus) != 1 or any(
                c not in (0, 1, -1) for c in root):
            raise ValueError("ordering is not built on A-type roots e_a - e_b")
        a, b = plus[0], minus[0]
        if a >= b:
            raise ValueError("ordering does not use the standard positive system")
        positions.append((a + 1, b + 1))
    return tuple(positions)


# --- serialization and drawing ------------------------------------------------


def root_system_to_json(rs: RootSystem) -> dict:
    return {
        "family": rs.family,
        "rank": rs.rank,
        "roots": [[str(c) for c in r] for r in rs.roots],
    }


def ordering_report(rs: RootSystem, proj: Projection) -> dict:
    """Class lists plus per-index side-set memberships, JSON-ready."""
    ordering = class_ordering(rs, proj)
    k = len(ordering.positive_classes)
    report = {
        "family": rs.family,
        "rank": rs.rank,
        "class_count": k,
        "classes": [[[str(c) for c in r] for r in cls]
                    for cls in ordering.positive_classes],
        "angles": list(ordering.angles),
        "side_sets": [],
    }
    for i in range(k + 2):
        ss = side_sets(ordering, rs, i)
        report["side_sets"].append({
            "i": i,
            "left_pos": sorted([str(c) for c in r] for r in ss.left_pos),
            "right_pos": sorted([str(c) for c in r] for r in ss.right_pos),
        })
    return report


def render_rays_svg(rs: RootSystem, proj: Projection, size: int = 480) -> str:
    """Static SVG of the projected root rays (rendering only; no decision
    depends on these floats)."""
    ordering = class_ordering(rs, proj)
    imgs = ordering.root_images
    half = size / 2
    radius = half - 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#ccc"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#ccc"/>',
    ]
    for x, y in imgs:
        r = math.hypot(x, y)
        px = half + radius * x / r
        py = half - radius * y / r
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#555"/>')
    for idx, (x, y) in enumerate(ordering.class_rays, start=1):
        r = math.hypot(x, y)
        px = half + radius * x / r
        py = half - radius * y / r
        parts.append(f'<line x1="{half}" y1="{half}" x2="{px:.2f}" y2="{py:.2f}" '
                     f'stroke="#c33" stroke-width="1.5"/>')
        parts.append(f'<text x="{px:.2f}" y="{py - 6:.2f}" font-size="11" '
                     f'text-anchor="middle">{idx}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
