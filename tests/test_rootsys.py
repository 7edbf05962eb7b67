import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qibg import rootsys as rt

EXPECTED_COUNTS = [
    ("A", 2, 6), ("A", 5, 30), ("B", 2, 8), ("B", 4, 32), ("C", 3, 18),
    ("D", 4, 24), ("BC", 1, 4), ("BC", 3, 24), ("G2", 2, 12), ("F4", 4, 48),
    ("E6", 6, 72), ("E7", 7, 126), ("E8", 8, 240),
]

# ambient dimension 17: A16, and BC17 with three root lengths and doubled-root lines
DIM_17 = [("A", 16, 272), ("BC", 17, 612)]


@pytest.mark.parametrize("family,rank,count", EXPECTED_COUNTS)
def test_root_counts(family, rank, count):
    rs = rt.build(family, rank)
    assert len(rs.roots) == count
    assert len(rs.simple_roots) == rank


@pytest.mark.parametrize("family,rank,count", EXPECTED_COUNTS)
def test_negation_closure(family, rank, count):
    rs = rt.build(family, rank)
    roots = set(rs.roots)
    for r in roots:
        assert tuple(-c for c in r) in roots


def test_invalid_family_rank():
    for family, rank in (("D", 2), ("E6", 5), ("G2", 3), ("A", 0), ("X", 1)):
        with pytest.raises(ValueError):
            rt.build(family, rank)


def test_a2_roots_explicit():
    rs = rt.build("A", 2)
    expect = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [Fraction(0)] * 3
                v[i], v[j] = Fraction(1), Fraction(-1)
                expect.add(tuple(v))
    assert set(rs.roots) == expect


def test_bc1_root_multiples():
    rs = rt.build("BC", 1)
    assert set(rs.roots) == {(Fraction(1),), (Fraction(-1),),
                             (Fraction(2),), (Fraction(-2),)}


def test_g2_length_ratio():
    rs = rt.build("G2", 2)
    sq = sorted({sum(c * c for c in r) for r in rs.roots})
    assert len(sq) == 2 and sq[1] / sq[0] == 3
    longs = [r for r in rs.roots if sum(c * c for c in r) == sq[1]]
    assert len(longs) == 6


def _parallel(a, b) -> bool:
    """Reference: a and b are parallel exactly when every 2x2 minor vanishes."""
    return all(x * t == y * z for x, y in zip(a, b) for z, t in zip(a, b))


def test_bc_only_proportional_pairs_are_doubles():
    rs = rt.build("BC", 2)
    for r in rs.roots:
        doubled = tuple(2 * c for c in r)
        halved = tuple(Fraction(c, 2) for c in r)
        for s in rs.roots:
            if s in (r, tuple(-c for c in r)):
                continue
            if _parallel(r, s):
                assert s in (doubled, halved, tuple(-c for c in doubled),
                             tuple(-c for c in halved))


# --- projections --------------------------------------------------------------


def test_projection_rejects_real_axis_hit():
    rs = rt.build("A", 2)
    # w orthogonal to e1 - e2 sends that root to the real axis
    proj = rt.Projection(u=(1, 2, 5), w=(1, 1, 0))
    assert not rt.is_valid_projection(rs, proj)
    with pytest.raises(rt.InvalidProjectionError):
        rt.positive_roots(rs, proj)


def test_projection_rejects_merged_lines():
    rs = rt.build("A", 2)
    # u = w collapses every image onto one line through the diagonal
    proj = rt.Projection(u=(3, 1, 0), w=(3, 1, 0))
    assert not rt.is_valid_projection(rs, proj)


def test_bc1_projection_allows_shared_line():
    rs = rt.build("BC", 1)
    proj = rt.sample_projection(rs, 0)
    assert rt.is_valid_projection(rs, proj)
    ordering = rt.class_ordering(rs, proj)
    assert len(ordering.positive_classes) == 1
    assert len(ordering.positive_classes[0]) == 2


def test_sample_projection_deterministic_snapshot():
    rs = rt.build("A", 2)
    proj = rt.sample_projection(rs, 1)
    assert proj == rt.Projection(u=(-725, 165, 735), w=(643, 564, -871))


def test_positive_roots_half_and_closed():
    for family, rank in (("A", 2), ("B", 2), ("G2", 2), ("BC", 2)):
        rs = rt.build(family, rank)
        for seed in range(5):
            proj = rt.sample_projection(rs, seed)
            pos = rt.positive_roots(rs, proj)
            assert len(pos) == len(rs.roots) // 2
            assert rt.is_closed(pos, rs)
            neg = {tuple(-c for c in r) for r in pos}
            assert pos | neg == set(rs.roots) and not (pos & neg)


def test_g2_positive_closedness_brute_force():
    rs = rt.build("G2", 2)
    proj = rt.sample_projection(rs, 11)
    pos = rt.positive_roots(rs, proj)
    allroots = set(rs.roots)
    for a in pos:
        for b in pos:
            s = tuple(x + y for x, y in zip(a, b))
            if s in allroots:
                assert s in pos


# --- class orderings -----------------------------------------------------------


def test_a2_has_three_singleton_classes():
    rs = rt.build("A", 2)
    for seed in range(10):
        ordering = rt.class_ordering(rs, rt.sample_projection(rs, seed))
        assert len(ordering.positive_classes) == 3
        assert all(len(c) == 1 for c in ordering.positive_classes)


def test_b2_has_four_classes():
    rs = rt.build("B", 2)
    ordering = rt.class_ordering(rs, rt.sample_projection(rs, 2))
    assert len(ordering.positive_classes) == 4


def test_angles_strictly_decreasing_in_upper_half():
    import math
    for family, rank in (("A", 3), ("BC", 2), ("G2", 2), ("F4", 4)):
        rs = rt.build(family, rank)
        ordering = rt.class_ordering(rs, rt.sample_projection(rs, 3))
        assert all(0 < a < math.pi for a in ordering.angles)
        assert all(a > b for a, b in zip(ordering.angles, ordering.angles[1:]))


def test_middle_ray_between_summands():
    # the ray of a sum of positive roots lies strictly between the two rays
    rs = rt.build("A", 2)
    for seed in range(20):
        ordering = rt.class_ordering(rs, rt.sample_projection(rs, seed))
        roots = [c[0] for c in ordering.positive_classes]
        s = tuple(a + b for a, b in zip(roots[0], roots[2]))
        assert roots[1] == s


# --- side sets ------------------------------------------------------------------


def test_side_set_boundary_conventions():
    rs = rt.build("B", 3)
    proj = rt.sample_projection(rs, 4)
    ordering = rt.class_ordering(rs, proj)
    k = len(ordering.positive_classes)
    pos = rt.positive_roots(rs, proj)
    assert rt.side_sets(ordering, rs, 0).right_pos == pos
    assert rt.side_sets(ordering, rs, 0).left_pos == frozenset()
    assert rt.side_sets(ordering, rs, 1).left_pos == frozenset()
    assert rt.side_sets(ordering, rs, k).right_pos == frozenset()
    assert rt.side_sets(ordering, rs, k + 1).left_pos == pos


def test_side_set_index_out_of_range():
    rs = rt.build("A", 2)
    ordering = rt.class_ordering(rs, rt.sample_projection(rs, 0))
    with pytest.raises(ValueError):
        rt.side_sets(ordering, rs, 6)


def test_a2_middle_class_sides_closed_brute_force():
    rs = rt.build("A", 2)
    allroots = set(rs.roots)
    for seed in range(10):
        ordering = rt.class_ordering(rs, rt.sample_projection(rs, seed))
        ss = rt.side_sets(ordering, rs, 2)
        for group in (ss.left, ss.right, ss.left_pos, ss.right_pos):
            for a in group:
                for b in group:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in allroots:
                        assert s in group


def test_g2_right_sets_closed_for_every_index():
    rs = rt.build("G2", 2)
    proj = rt.sample_projection(rs, 6)
    ordering = rt.class_ordering(rs, proj)
    for i in range(len(ordering.positive_classes) + 2):
        ss = rt.side_sets(ordering, rs, i)
        assert rt.is_closed(ss.right, rs)
        assert rt.is_closed(ss.left, rs)


def test_is_closed_examples():
    rs = rt.build("A", 2)
    proj = rt.sample_projection(rs, 0)
    pos = rt.positive_roots(rs, proj)
    assert rt.is_closed(pos, rs)
    roots = sorted(pos)
    # drop the middle (sum) root: {a, b} with a+b in the system is not closed
    ordering = rt.class_ordering(rs, proj)
    a = ordering.positive_classes[0][0]
    b = ordering.positive_classes[2][0]
    assert not rt.is_closed({a, b}, rs)


def test_is_closed_rejects_non_roots():
    rs = rt.build("A", 2)
    with pytest.raises(ValueError):
        rt.is_closed({(Fraction(7), Fraction(0), Fraction(0))}, rs)


# --- invariant verification -----------------------------------------------------


def test_huge_projection_coordinates_stay_exact():
    # coordinates large enough to overflow int64 products force the exact path
    rs = rt.build("A", 2)
    base = rt.sample_projection(rs, 1)
    big = 10 ** 14
    proj = rt.Projection(u=tuple(c * big for c in base.u),
                         w=tuple(c * big + 1 for c in base.w))
    if rt.is_valid_projection(rs, proj):
        rep = rt.verify_notation_invariants(rs, proj)
        assert rep.all_ok
        assert len(rt.class_ordering(rs, proj).positive_classes) == 3


def test_notation_invariants_a2():
    rs = rt.build("A", 2)
    for seed in range(20):
        rep = rt.verify_notation_invariants(rs, rt.sample_projection(rs, seed))
        assert rep.all_ok, rep.failures


def test_notation_invariants_bc2_many_seeds():
    rs = rt.build("BC", 2)
    for seed in range(100):
        rep = rt.verify_notation_invariants(rs, rt.sample_projection(rs, seed))
        assert rep.all_ok, rep.failures


def test_corrupted_side_set_is_caught():
    rs = rt.build("A", 2)
    proj = rt.sample_projection(rs, 1)
    ordering = rt.class_ordering(rs, proj)
    ss = rt.side_sets(ordering, rs, 2)
    pos = rt.positive_roots(rs, proj)
    cls = set(ordering.positive_classes[1])
    # move one root from the right side to the left side
    moved = next(iter(ss.right_pos))
    left_bad = set(ss.left_pos) | {moved}
    right_bad = set(ss.right_pos) - {moved}
    # the partition of the positives into left, class, right must now fail
    assert left_bad | cls | right_bad == pos
    ok_partition = (rt.side_sets(ordering, rs, 2).left_pos == frozenset(left_bad))
    assert not ok_partition
    # and at least one mutated set stops being closed here
    assert not (rt.is_closed(left_bad, rs) and rt.is_closed(right_bad, rs))


def _swap_classes(ordering, j):
    seqs = [list(ordering.positive_classes), list(ordering.angles), list(ordering.class_rays)]
    for seq in seqs:
        seq[j], seq[j + 1] = seq[j + 1], seq[j]
    return rt.ClassOrdering(*map(tuple, seqs), ordering.root_images)


def _move_root_across_ray(ordering, rs, j):
    # the first root of class j goes strictly between class rays j+1 and j+2
    at = rs.roots.index(ordering.positive_classes[j][0])
    (ax, ay), (bx, by) = ordering.class_rays[j + 1], ordering.class_rays[j + 2]
    images = list(ordering.root_images)
    images[at] = (ax + bx, ay + by)
    return rt.ClassOrdering(ordering.positive_classes, ordering.angles,
                            ordering.class_rays, tuple(images))


def _not_disjoint(i):
    return f"left positives at {i + 1} are not the disjoint union of those at {i} with class {i}"


# Reports recorded from the per-index implementation this one replaced.
@pytest.mark.parametrize("tamper,want", [
    (lambda o, rs: _swap_classes(o, 1),
     rt.InvariantReport("G2", 2, 6, True, True, False, True,
                        tuple(_not_disjoint(i) for i in (1, 2, 3)))),
    (lambda o, rs: _move_root_across_ray(o, rs, 1),
     rt.InvariantReport("G2", 2, 6, False, False, False, True,
                        ("side set right[3] is not closed",
                         "class 3 union right set is not a positive system",
                         _not_disjoint(2), _not_disjoint(3)))),
])
def test_tampered_orderings_fail_the_recorded_checks(monkeypatch, tamper, want):
    rs = rt.build("G2", 2)
    proj = rt.sample_projection(rs, 0)
    bad = tamper(rt.class_ordering(rs, proj), rs)
    monkeypatch.setattr(rt, "class_ordering", lambda rs_, proj_: bad)
    assert rt.verify_notation_invariants(rs, proj) == want


def _invariants_with_every_set_tested(rs, ordering, closed):
    """The invariant report with all 4(k+2) side sets and the k positive
    systems tested for closedness outright, by `closed` (rt._closed)."""
    n, k = len(rs.roots), len(ordering.positive_classes)
    images, rays, rows, class_ids = rt._ordering_arrays(ordering, rs)
    signs = rt._side_signs(images, rays)
    pos = signs[-1] > 0
    left, right = signs > 0, signs < 0
    left_pos, right_pos = left & pos, right & pos
    classes = np.zeros((k, n), dtype=bool)
    classes[class_ids, rows] = True
    systems = classes | right[1:k + 1]
    sides = np.stack([left, right, left_pos, right_pos], axis=1)
    verdicts = closed(rs._sums, np.concatenate([sides.reshape(-1, n), systems]))
    sides_closed = verdicts[:4 * (k + 2)].reshape(k + 2, 4)
    names = ("left", "right", "left_pos", "right_pos")
    failures = [f"side set {names[j]}[{i}] is not closed"
                for i, j in zip(*np.nonzero(~sides_closed))]
    negated = systems[:, rs._tables.neg]
    systems_ok = ((np.count_nonzero(systems, axis=1) == n // 2)
                  & ~np.any(systems & negated, axis=1) & np.all(systems | negated, axis=1)
                  & verdicts[4 * (k + 2):])
    failures += [f"class {i} union right set is not a positive system"
                 for i in np.flatnonzero(~systems_ok) + 1]
    before = left_pos[1:k + 1]
    partition_ok = ~(np.any(before & classes, axis=1)
                     | np.any(left_pos[2:] != (before | classes), axis=1))
    failures += [_not_disjoint(i) for i in np.flatnonzero(~partition_ok) + 1]
    boundary_ok = (not np.any(left_pos[1]) and not np.any(right_pos[k])
                   and np.array_equal(right_pos[0], pos)
                   and np.array_equal(left_pos[k + 1], pos))
    if not boundary_ok:
        failures.append("boundary conventions violated")
    return rt.InvariantReport(rs.family, rs.rank, k, bool(sides_closed.all()),
                              bool(systems_ok.all()), bool(partition_ok.all()),
                              boundary_ok, tuple(failures))


INVARIANT_SYSTEMS = [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("BC", 8), ("F4", 4),
                     ("E6", 6), ("E7", 7), ("E8", 8), ("G2", 2)]


@pytest.mark.parametrize("family,rank", INVARIANT_SYSTEMS)
def test_implied_closedness_matches_testing_every_set(monkeypatch, family, rank):
    rs = rt.build(family, rank)
    closed, class_ordering = rt._closed, rt.class_ordering
    calls = []   # mask rows per _closed call, one list per verification

    def counted(sums, masks):
        calls[-1].append(len(masks))
        return closed(sums, masks)

    monkeypatch.setattr(rt, "_closed", counted)

    def check(proj, ordering):
        calls.append([])
        monkeypatch.setattr(rt, "class_ordering", lambda rs_, proj_: ordering)
        got = rt.verify_notation_invariants(rs, proj)
        assert got == _invariants_with_every_set_tested(rs, ordering, closed)
        return got

    for seed in range(3):
        proj = rt.sample_projection(rs, seed)
        ordering = class_ordering(rs, proj)
        k = len(ordering.positive_classes)
        assert check(proj, ordering).all_ok
        # one call, on the k + 2 left sets (the last is the positive set) and
        # the k positive systems: 242 rows on E8, where all sets take 608
        assert calls[-1] == [2 * k + 2]
        for j in sorted({0, k // 2, k - 3}):
            check(proj, _swap_classes(ordering, j))
            assert not check(proj, _move_root_across_ray(ordering, rs, j)).all_ok
    # the moved root breaks right[i] = -left[i], so some verdict needs the fallback
    assert any(len(c) == 2 for c in calls)


# every system the tests build: criterion 6 verifies ranks up to 8, and the
# SL(n) orderings reach A15
BUILT_SYSTEMS = [(f, r) for f, lo, hi in (("A", 1, 15), ("B", 2, 8), ("C", 2, 8),
                                          ("D", 3, 8), ("BC", 1, 8))
                 for r in range(lo, hi + 1)] + [("G2", 2), ("F4", 4), ("E6", 6),
                                                 ("E7", 7), ("E8", 8)]


def _unordered(sums):
    """The pair-sum triples as ({a, b}, a+b)."""
    return {(min(a, b), max(a, b), s) for a, b, s in zip(*sums.tolist())}


@pytest.mark.parametrize("family,rank", BUILT_SYSTEMS + [(f, r) for f, r, _ in DIM_17])
def test_negation_permutes_the_pair_sums(family, rank):
    rs = rt.build(family, rank)
    neg, rows = rs._tables.neg, np.arange(len(rs.roots))
    assert np.array_equal(neg[neg], rows) and not np.any(neg == rows)
    assert _unordered(neg[rs._sums]) == _unordered(rs._sums)


# --- bridge and serialization ----------------------------------------------------


def test_sl_ordering_at_64_builds_no_pair_sums():
    # the SL(n) path reads the lattice and the line count, never the N x N pair sums
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rt.sl_class_ordering(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert "_sums" not in rt.build("A", 63).__dict__


def test_sl_class_ordering_is_standard():
    for n in (2, 3, 4, 5):
        ordering = rt.sl_class_ordering(n, seed=3)
        positions = rt.sl_block_positions(ordering)
        assert len(positions) == n * (n - 1) // 2
        assert all(1 <= a < b <= n for a, b in positions)
        assert len(set(positions)) == len(positions)


# sha256 prefixes of repr((positive_classes, class_rays, root_images, angles)),
# recorded from the implementation that validated each accepted projection
# twice; the n = 32 and 64 entries from the one that sent every draw through
# class_ordering
SL_ORDERING_DIGESTS = {
    (2, 0): "9046dd7d444626c1", (3, 1): "98988ee4c3eb3351", (5, 7): "98f1c02383539a3c",
    (6, 3): "3179f43fb7b075ce", (9, 11): "bae68390c6dfbd48", (16, 5): "5b441f0a2daab82e",
    (32, 13): "1ba5833813a517ad", (64, 2): "86fca0667d9eb8e7",
}


@pytest.mark.parametrize("n,seed", sorted(SL_ORDERING_DIGESTS))
def test_sl_class_ordering_matches_recorded_orderings(n, seed):
    o = rt.sl_class_ordering(n, seed=seed)
    text = repr((o.positive_classes, o.class_rays, o.root_images, o.angles))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SL_ORDERING_DIGESTS[n, seed]


def _sl_ordering_reference(n, seed):
    """The sampling loop with a separate validity test before class_ordering."""
    rs = rt.build("A", n - 1)
    rng = random.Random(seed)
    while True:
        w = sorted((rng.randint(1, 10 ** 6) for _ in range(n)), reverse=True)
        if len(set(w)) != n:
            continue
        u = tuple(rng.randint(-1000, 1000) for _ in range(n))
        proj = rt.Projection(u, tuple(w))
        if rt.is_valid_projection(rs, proj):
            return rt.class_ordering(rs, proj)


@pytest.mark.parametrize("n", range(2, 10))
def test_sl_class_ordering_matches_class_ordering(n):
    for seed in range(50):
        assert rt.sl_class_ordering(n, seed) == _sl_ordering_reference(n, seed)


def _with_rejections(monkeypatch, test, rejected, sample, n, seed):
    """Run sample(n, seed) with the first three calls of the validity test
    rt.<test> returning `rejected`; return its ordering and the projection
    of every call of the test."""
    real = getattr(rt, test)
    seen = []

    def flaky(*args):
        seen.append(next(a for a in args if isinstance(a, rt.Projection)))
        return real(*args) if len(seen) > 3 else rejected

    monkeypatch.setattr(rt, test, flaky)
    try:
        return sample(n, seed), seen
    finally:
        monkeypatch.setattr(rt, test, real)


def test_sl_class_ordering_keeps_the_draw_order_past_rejected_tries(monkeypatch):
    # random projections of small A_{n-1} are practically never rejected, so
    # the retry path is forced, in the SL path's genericity test and in the
    # reference's
    for n, seed in ((3, 0), (4, 9), (6, 2)):
        got, seen = _with_rejections(monkeypatch, "_sl_clockwise", None,
                                     rt.sl_class_ordering, n, seed)
        want, want_seen = _with_rejections(monkeypatch, "_is_generic", False,
                                           _sl_ordering_reference, n, seed)
        assert got == want and got != rt.sl_class_ordering(n, seed)
        # the accepted projection is validated once; the reference validates
        # it again in class_ordering
        assert seen == want_seen[:4] and len(seen) == 4 and len(want_seen) == 5


def test_sl_clockwise_sorts_slopes_that_floats_tie():
    # 2**53 + 1 and 2**53 round to the same float: only the exact pass orders them
    pairs = ((0, 1), (1, 2))
    proj = rt.Projection((2 ** 54 + 1, 2 ** 53, 0), (2, 1, 0))
    assert rt._sl_clockwise(proj, pairs) == ([1, 0], [2 ** 53, 2 ** 53 + 1], [1, 1])
    # equal slopes: the projection is not generic
    assert rt._sl_clockwise(rt.Projection((4, 2, 0), (2, 1, 0)), pairs) is None


def test_sl_block_positions_rejects_nonstandard():
    rs = rt.build("A", 2)
    accepted = rejected = 0
    for seed in range(40):
        proj = rt.sample_projection(rs, seed)
        ordering = rt.class_ordering(rs, proj)
        try:
            positions = rt.sl_block_positions(ordering)
        except ValueError:
            rejected += 1
            continue
        accepted += 1
        assert all(a < b for a, b in positions)
    # generic projections hit standard and non-standard chambers alike
    assert accepted > 0 and rejected > 0


def test_render_rays_svg():
    rs = rt.build("A", 2)
    svg = rt.render_rays_svg(rs, rt.sample_projection(rs, 1))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<line") >= 3


# --- the doubled-lattice tables, against exact loops over rs.roots ------------------

ONE_PER_FAMILY = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("BC", 2), ("G2", 2),
                  ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]

LATTICE_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                            database=None)


def _exact_sum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _closed_brute_force(subset, rs):
    allroots = set(rs.roots)
    return all(_exact_sum(a, b) not in allroots or _exact_sum(a, b) in subset
               for a in subset for b in subset)


def _simple_roots_brute_force(rs):
    """The lexicographically positive roots that are no sum of two positive roots."""
    positives = sorted(r for r in rs.roots if next(c > 0 for c in r if c != 0))
    pos_set = set(positives)
    return tuple(r for r in positives
                 if not any(s != r and tuple(a - b for a, b in zip(r, s)) in pos_set
                            for s in pos_set))


@pytest.mark.parametrize("family,rank,count", EXPECTED_COUNTS + DIM_17)
def test_lattice_tables_match_exact_loops(family, rank, count):
    rs = rt.build(family, rank)
    tables = rt._system_tables(rs)
    index = {r: i for i, r in enumerate(rs.roots)}
    assert tables.rows == {tuple(2 * c for c in r): i for r, i in index.items()}
    assert tables.neg.tolist() == [index[tuple(-c for c in r)] for r in rs.roots]
    sums = {(i, j, index[_exact_sum(a, b)])
            for i, a in enumerate(rs.roots) for j, b in enumerate(rs.roots[i:], i)
            if _exact_sum(a, b) in index}
    assert set(map(tuple, rs._sums.T.tolist())) == sums
    assert rs._sums.shape[1] == len(sums)
    # a root opens a line when it is parallel to no root listed before it, and
    # parallelism is transitive, so checking the roots that opened a line will do
    openers = []
    for r in rs.roots:
        if not any(_parallel(r, s) for s in openers):
            openers.append(r)
    assert tables.lines == len(openers)
    assert rs.simple_roots == _simple_roots_brute_force(rs)


def test_equal_systems_built_separately_get_identical_tables():
    rs = rt.build("E8", 8)
    assert rt.build("E8", 8) is rs
    twin = rt.RootSystem(rs.family, rs.rank, rs.ambient_dim, tuple(tuple(r) for r in rs.roots))
    assert twin == rs and hash(twin) == hash(rs) and twin is not rs
    mine, theirs = rs._tables, twin._tables
    assert mine is not theirs and twin._tables is theirs
    assert mine.rows == theirs.rows and mine.lines == theirs.lines
    for name in ("lattice", "neg"):
        assert np.array_equal(getattr(mine, name), getattr(theirs, name))
    assert rs._sums is not twin._sums and np.array_equal(rs._sums, twin._sums)
    assert twin.simple_roots == rs.simple_roots


def test_hand_built_system_gets_its_own_tables():
    # the same roots listed in another order are a different (unequal) system
    rs = rt.build("G2", 2)
    flipped = rt.RootSystem(rs.family, rs.rank, rs.ambient_dim, rs.roots[::-1])
    rows = {tuple(2 * c for c in r): i for i, r in enumerate(flipped.roots)}
    assert flipped._tables.rows == rows
    assert flipped._tables.neg.tolist() == [rows[tuple(-2 * c for c in r)]
                                            for r in flipped.roots]
    assert flipped._tables.lattice.tolist() == rs._tables.lattice[::-1].tolist()
    # the same pair sums, on the flipped rows
    assert _unordered(flipped._sums) == _unordered(len(rs.roots) - 1 - rs._sums)
    assert flipped.simple_roots == rs.simple_roots
    proj = rt.sample_projection(rs, 4)
    assert rt.root_images(flipped, proj) == rt.root_images(rs, proj)[::-1]


@pytest.mark.parametrize("family,rank", ONE_PER_FAMILY)
@LATTICE_PROPERTY
@given(data=st.data())
def test_is_closed_matches_brute_force(family, rank, data):
    rs = rt.build(family, rank)
    n = len(rs.roots)
    # start from a closed set (empty or a positive system), then toggle a few
    # roots, or take a small arbitrary set
    start = data.draw(st.sampled_from(["empty", "positive", "arbitrary"]))
    if start == "arbitrary":
        subset = {rs.roots[i] for i in data.draw(st.sets(st.integers(0, n - 1), max_size=6))}
    else:
        subset = set()
        if start == "positive":
            seed = data.draw(st.integers(0, 3))
            subset = set(rt.positive_roots(rs, rt.sample_projection(rs, seed)))
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            subset ^= {rs.roots[i]}
    assert rt.is_closed(subset, rs) == _closed_brute_force(subset, rs)


def _exact_images(rs, proj):
    out = []
    for r in rs.roots:
        x = sum(Fraction(a) * b for a, b in zip(proj.u, r))
        y = sum(Fraction(a) * b for a, b in zip(proj.w, r))
        scale = math.lcm(x.denominator, y.denominator)
        out.append((int(x * scale), int(y * scale)))
    return tuple(out)


@lru_cache(maxsize=None)
def _parallel_table(rs):
    return [[_parallel(a, b) for b in rs.roots] for a in rs.roots]


def _valid_brute_force(parallel, imgs):
    return all(y != 0 for _, y in imgs) and all(
        (xa * yb == ya * xb) == parallel[i][j]
        for i, (xa, ya) in enumerate(imgs) for j, (xb, yb) in enumerate(imgs))


@pytest.mark.parametrize("family,rank", [("A", 2), ("G2", 2), ("F4", 4), ("E8", 8)])
def test_images_past_int64_match_exact_dot_products(family, rank):
    rs = rt.build(family, rank)
    base = rt.sample_projection(rs, 5)
    big = 2 ** 62
    scaled = rt.Projection(tuple(big * c for c in base.u), tuple(big * c for c in base.w))
    shifted = rt.Projection(tuple(big * c + 1 for c in base.u),
                            tuple(big * c - 3 for c in base.w))
    merged = rt.Projection(scaled.u, scaled.u)
    parallel = _parallel_table(rs)
    for proj in (scaled, shifted, merged):
        imgs = rt.root_images(rs, proj)
        assert imgs == _exact_images(rs, proj)
        assert max(abs(c) for p in imgs for c in p) >= 2 ** 62
        assert rt.is_valid_projection(rs, proj) == _valid_brute_force(parallel, imgs)
    # scaling both vectors keeps every image ray, so the ordering survives
    assert not rt.is_valid_projection(rs, merged)
    ordering = rt.class_ordering(rs, scaled)
    base_ordering = rt.class_ordering(rs, base)
    assert ordering.positive_classes == base_ordering.positive_classes
    assert rt.verify_notation_invariants(rs, scaled).all_ok
    for i in range(len(ordering.positive_classes) + 2):
        assert rt.side_sets(ordering, rs, i) == rt.side_sets(base_ordering, rs, i)
    assert ordering.class_rays == base_ordering.class_rays


def _classes_brute_force(rs, imgs):
    """Positive roots grouped by exact ray, the rays by increasing x/y, which
    is clockwise above the real axis."""
    rays = {}
    for r, (x, y) in zip(rs.roots, imgs):
        if y > 0:
            rays.setdefault(Fraction(x, y), []).append(r)
    slopes = sorted(rays)
    return (tuple(tuple(sorted(rays[q])) for q in slopes),
            tuple((q.numerator, q.denominator) for q in slopes))


@pytest.mark.parametrize("family,rank", ONE_PER_FAMILY)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_genericity_and_classes_match_proportionality_oracle(family, rank, data):
    # Spans 2 and 3 make many projections fail, span 1000 few.  Scaling keeps
    # every verdict and moves the images past 2**30 onto exact Python ints;
    # the shift then perturbs the scaled projection.
    rs = rt.build(family, rank)
    span = data.draw(st.sampled_from([2, 3, 1000]))
    scale = data.draw(st.sampled_from([1, 2 ** 30, 2 ** 62 + 1]))
    shift = data.draw(st.sampled_from([0, 1]))
    u, w = (data.draw(st.tuples(*[st.integers(-span, span)] * rs.ambient_dim))
            for _ in range(2))
    proj = rt.Projection(tuple(scale * c for c in u), tuple(scale * c + shift for c in w))
    imgs = _exact_images(rs, proj)
    valid = _valid_brute_force(_parallel_table(rs), imgs)
    assert rt.is_valid_projection(rs, proj) == valid
    if not valid:
        with pytest.raises(rt.InvalidProjectionError):
            rt.class_ordering(rs, proj)
        return
    ordering = rt.class_ordering(rs, proj)
    assert ordering.root_images == imgs
    assert (ordering.positive_classes, ordering.class_rays) == _classes_brute_force(rs, imgs)


def test_slopes_tied_as_floats_are_ordered_exactly():
    # e1 - e2 and e1 - e3 land on (2m-2, 2m-3) and (2m-1, 2m-2): distinct
    # slopes that round to one float, with images still on int64
    rs = rt.build("A", 2)
    m = 2 ** 26
    proj = rt.Projection((m, 2 - m, 1 - m), (m, 3 - m, 2 - m))
    imgs = rt.root_images(rs, proj)
    (x1, y1), (x2, y2) = imgs[rs.roots.index((1, -1, 0))], imgs[rs.roots.index((1, 0, -1))]
    assert x1 / y1 == x2 / y2 and x1 * y2 != x2 * y1
    ordering = rt.class_ordering(rs, proj)
    assert ((ordering.positive_classes, ordering.class_rays)
            == _classes_brute_force(rs, _exact_images(rs, proj)))
    assert rt.verify_notation_invariants(rs, proj).all_ok
