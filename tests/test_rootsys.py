import hashlib
import math
import random
from fractions import Fraction

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


# --- bridge and serialization ----------------------------------------------------


def test_sl_class_ordering_is_standard():
    for n in (2, 3, 4, 5):
        ordering = rt.sl_class_ordering(n, seed=3)
        positions = rt.sl_block_positions(ordering)
        assert len(positions) == n * (n - 1) // 2
        assert all(1 <= a < b <= n for a, b in positions)
        assert len(set(positions)) == len(positions)


# sha256 prefixes of repr((positive_classes, class_rays, root_images, angles)),
# recorded from the implementation that validated each accepted projection twice
SL_ORDERING_DIGESTS = {
    (2, 0): "9046dd7d444626c1", (3, 1): "98988ee4c3eb3351", (5, 7): "98f1c02383539a3c",
    (6, 3): "3179f43fb7b075ce", (9, 11): "bae68390c6dfbd48", (16, 5): "5b441f0a2daab82e",
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


def _with_rejections(monkeypatch, sample, n, seed):
    """Run sample(n, seed) with the first three validity tests failing; return
    its ordering and every projection the validity test saw."""
    generic = rt._is_generic
    seen = []

    def flaky(rs, proj, images):
        seen.append(proj)
        return len(seen) > 3 and generic(rs, proj, images)

    monkeypatch.setattr(rt, "_is_generic", flaky)
    try:
        return sample(n, seed), seen
    finally:
        monkeypatch.setattr(rt, "_is_generic", generic)


def test_sl_class_ordering_keeps_the_draw_order_past_rejected_tries(monkeypatch):
    # random projections of A_{n-1} are practically never rejected, so the
    # retry path is forced
    for n, seed in ((3, 0), (4, 9), (6, 2)):
        got, seen = _with_rejections(monkeypatch, rt.sl_class_ordering, n, seed)
        want, want_seen = _with_rejections(monkeypatch, _sl_ordering_reference, n, seed)
        assert got == want and got != rt.sl_class_ordering(n, seed)
        # the accepted projection is validated once, not once more by class_ordering
        assert seen == want_seen[:4] and len(seen) == 4 and len(want_seen) == 5


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


def test_json_dump_shape():
    rs = rt.build("BC", 1)
    obj = rt.root_system_to_json(rs)
    assert obj["family"] == "BC" and obj["rank"] == 1
    assert sorted(obj["roots"]) == sorted([["-1"], ["-2"], ["1"], ["2"]])


def test_ordering_report_and_svg():
    rs = rt.build("A", 2)
    proj = rt.sample_projection(rs, 1)
    rep = rt.ordering_report(rs, proj)
    assert rep["class_count"] == 3
    assert len(rep["side_sets"]) == 5
    svg = rt.render_rays_svg(rs, proj)
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


@pytest.mark.parametrize("family,rank,count", EXPECTED_COUNTS)
def test_lattice_tables_match_exact_loops(family, rank, count):
    rs = rt.build(family, rank)
    tables = rt._system_tables(rs)
    index = {r: i for i, r in enumerate(rs.roots)}
    assert tables.index == index
    assert tables.neg.tolist() == [index[tuple(-c for c in r)] for r in rs.roots]
    sums = {(i, j, index[_exact_sum(a, b)])
            for i, a in enumerate(rs.roots) for j, b in enumerate(rs.roots)
            if i <= j and _exact_sum(a, b) in index}
    assert set(map(tuple, tables.sums.T.tolist())) == sums
    assert tables.sums.shape[1] == len(sums)
    assert tables.prop.tolist() == [[_parallel(a, b) for b in rs.roots] for a in rs.roots]


def test_equal_systems_built_separately_get_identical_tables():
    rs = rt.build("E8", 8)
    assert rt.build("E8", 8) is rs
    twin = rt.RootSystem(rs.family, rs.rank, rs.ambient_dim,
                         tuple(tuple(r) for r in rs.roots),
                         tuple(tuple(r) for r in rs.simple_roots))
    assert twin == rs and hash(twin) == hash(rs) and twin is not rs
    mine, theirs = rs._tables, twin._tables
    assert mine is not theirs and twin._tables is theirs
    assert mine.index == theirs.index
    for name in ("lattice", "neg", "sums", "prop"):
        assert np.array_equal(getattr(mine, name), getattr(theirs, name))


def test_hand_built_system_gets_its_own_tables():
    # the same roots listed in another order are a different (unequal) system
    rs = rt.build("G2", 2)
    flipped = rt.RootSystem(rs.family, rs.rank, rs.ambient_dim, rs.roots[::-1],
                            rs.simple_roots)
    index = {r: i for i, r in enumerate(flipped.roots)}
    assert flipped._tables.index == index
    assert flipped._tables.neg.tolist() == [index[tuple(-c for c in r)]
                                            for r in flipped.roots]
    assert flipped._tables.lattice.tolist() == rs._tables.lattice[::-1].tolist()
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
    parallel = [[_parallel(a, b) for b in rs.roots] for a in rs.roots]
    for proj in (scaled, shifted, merged):
        imgs = rt.root_images(rs, proj)
        assert imgs == _exact_images(rs, proj)
        assert max(abs(c) for p in imgs for c in p) >= 2 ** 62
        assert rt.is_valid_projection(rs, proj) == _valid_brute_force(parallel, imgs)
    # scaling both vectors keeps every image ray, so the ordering survives
    assert not rt.is_valid_projection(rs, merged)
    ordering = rt.class_ordering(rs, scaled)
    assert ordering.positive_classes == rt.class_ordering(rs, base).positive_classes
    assert rt.verify_notation_invariants(rs, scaled).all_ok
