import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qibg import bigcell as bc
from qibg import exactmat as em
from qibg import rootsys as rt

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def F(m):
    return tuple(tuple(Fraction(e) for e in row) for row in m)


def test_corner_minors_examples():
    assert bc.corner_minors(I3) == (1, 1)
    assert bc.corner_minors(((2, 1), (1, 1))) == (1,)
    assert bc.corner_minors(((0, 1), (-1, 0))) == (0,)


def test_corner_minors_integer_valued_on_integer_input():
    rng = random.Random(3)
    for _ in range(50):
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
        assert all(isinstance(v, int) for v in bc.corner_minors(m))


def test_in_big_cell_examples():
    assert bc.in_big_cell(I3)
    assert not bc.in_big_cell(((0, 1), (-1, 0)))
    with pytest.raises(ValueError):
        bc.in_big_cell(((1, 1), (1, 1)))


def test_ul_identity():
    fac = bc.ul_factorize(I3)
    assert fac.u_plus == F(I3)
    assert fac.p_minus == F(I3)


def test_ul_hand_example():
    fac = bc.ul_factorize(((2, 1), (1, 1)))
    assert fac.u_plus == F(((1, 1), (0, 1)))
    assert fac.p_minus == F(((1, 0), (1, 1)))


def test_ul_not_in_big_cell():
    with pytest.raises(bc.NotInBigCell):
        bc.ul_factorize(((0, 1), (-1, 0)))


def test_ul_rational_input():
    g = ((Fraction(1, 2), Fraction(3)), (Fraction(1, 5), Fraction(2)))
    fac = bc.ul_factorize(g)
    assert em.multiply(fac.u_plus, fac.p_minus) == F(g)
    assert fac.u_plus[1][0] == 0 and fac.u_plus[0][0] == 1 == fac.u_plus[1][1]


def test_ul_equivalence_with_minors():
    rng = random.Random(17)
    checked = 0
    while checked < 1500:
        n = rng.choice((2, 3, 4))
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if em.determinant(m) == 0:
            continue
        checked += 1
        member = bc.in_big_cell(m)
        try:
            fac = bc.ul_factorize(m)
            assert em.multiply(fac.u_plus, fac.p_minus) == F(m)
            success = True
        except bc.NotInBigCell:
            success = False
        assert member == success


def _random_unitriangular(rng, n):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return tuple(tuple(r) for r in rows)


def _random_lower(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        rows[i][i] = Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 5))
    return tuple(tuple(r) for r in rows)


def test_ul_uniqueness_oracle():
    # factorizing a known product U * P must recover U and P exactly
    rng = random.Random(23)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        u = _random_unitriangular(rng, n)
        p = _random_lower(rng, n)
        fac = bc.ul_factorize(em.multiply(u, p))
        assert fac.u_plus == u
        assert fac.p_minus == p


def test_determinant_of_parts():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.choice((2, 3))
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        d = em.determinant(m)
        if d == 0 or not bc.in_big_cell(m):
            continue
        fac = bc.ul_factorize(m)
        assert em.determinant(fac.u_plus) == 1
        assert em.determinant(fac.p_minus) == d


def test_bound_report_identity():
    rep = bc.denominator_and_norm_check(I3)
    assert rep.minors == (1, 1)
    assert rep.denominators == (1,)
    assert rep.all_ok
    obj = bc.bound_report_to_json(rep)
    assert obj["denominators"] == ["1"] and obj["minors"] == ["1", "1"]


def test_bound_report_hand_example():
    rep = bc.denominator_and_norm_check(((2, 1), (1, 1)))
    assert rep.denominators_divide and rep.norm_bound_ok
    fac = bc.ul_factorize(((2, 1), (1, 1)))
    assert all(Fraction(e).denominator == 1 for row in fac.p_minus for e in row)


def test_bound_report_on_random_words():
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        gamma = em.random_word(3, 30, seed)
        if not bc.in_big_cell(gamma):
            continue
        count += 1
        rep = bc.denominator_and_norm_check(gamma)
        assert rep.all_ok


def test_bound_report_requires_membership():
    with pytest.raises(bc.NotInBigCell):
        bc.denominator_and_norm_check(((0, 1), (-1, 0)))


def test_bound_report_requires_integrality():
    with pytest.raises(ValueError):
        bc.denominator_and_norm_check(((Fraction(1, 2), 0), (0, 2)))


# --- the fraction-free kernel against independent oracles ----------------------


def _fraction_ul(g):
    """The Fraction elimination the kernel replaced, kept as a test oracle."""
    n = len(g)
    m = [[Fraction(e) for e in row] for row in g]
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n - 1, 0, -1):
        if m[j][j] == 0:
            raise bc.NotInBigCell(f"corner minor of size {n - j} vanishes")
        for i in range(j):
            f = m[i][j] / m[j][j]
            if f:
                for c in range(n):
                    m[i][c] -= f * m[j][c]
                    u[c][j] += f * u[c][i]
    if m[0][0] == 0:
        raise ValueError("matrix is singular")
    return tuple(tuple(row) for row in u), tuple(tuple(row) for row in m)


def _sympy_minors(g):
    """Corner determinants of every size 1..n, smallest corner first."""
    n = len(g)
    return [sympy.Matrix([row[n - s:] for row in g[n - s:]]).det()
            for s in range(1, n + 1)]


def _outcome(fn, g):
    try:
        return fn(g)
    except ValueError as e:  # NotInBigCell included
        return type(e), str(e)


@st.composite
def integer_matrices(draw):
    """Random integer matrices, n = 2..7, with a share made singular or made
    to leave the big cell at a chosen corner."""
    n = draw(st.integers(2, 7))
    bound = draw(st.sampled_from((1, 3, 50)))
    rows = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]
    defect = draw(st.sampled_from(("none", "corner", "singular")))
    if defect == "corner":
        j = n - draw(st.integers(1, n - 1))  # the corner rows j..n-1 turn dependent
        if j == n - 1:
            rows[j][j] = 0
        else:
            rows[n - 1][j:] = rows[j][j:]
    elif defect == "singular":
        a, b = draw(st.permutations(range(n)))[:2]
        t = draw(st.integers(-2, 2))
        rows[b] = [t * x for x in rows[a]]
    return tuple(tuple(row) for row in rows)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(integer_matrices())
def test_kernel_minors_match_sympy(g):
    minors = bc.corner_minors(g)
    assert all(isinstance(d, int) for d in minors)
    assert list(minors) == _sympy_minors(g)[:-1]


@PROPERTY
@given(integer_matrices())
def test_kernel_membership_agrees_with_minors(g):
    *corners, det = _sympy_minors(g)
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            bc.in_big_cell(g)
    else:
        assert bc.in_big_cell(g) == all(corners)


@PROPERTY
@given(integer_matrices())
def test_kernel_ul_matches_fraction_elimination(g):
    want = _outcome(_fraction_ul, g)
    got = _outcome(bc.ul_factorize, g)
    if isinstance(got, bc.BigCellFactorization):
        assert (got.u_plus, got.p_minus) == want
        assert sympy.Matrix(got.u_plus) * sympy.Matrix(got.p_minus) == sympy.Matrix(g)
    else:
        assert got == want


@PROPERTY
@given(integer_matrices())
def test_kernel_reports_the_smallest_vanishing_corner(g):
    corners = _sympy_minors(g)[:-1]
    if all(corners):
        return
    size = corners.index(0) + 1
    with pytest.raises(bc.NotInBigCell, match=f"^corner minor of size {size} vanishes$"):
        bc.ul_factorize(g)
    with pytest.raises(bc.NotInBigCell, match="outside the big cell"):
        bc.denominator_and_norm_check(g)


@PROPERTY
@given(integer_matrices(), st.integers(1, 12))
def test_kernel_rational_input_matches_fraction_elimination(g, q):
    scaled = tuple(tuple(Fraction(e, q + i) for i, e in enumerate(row)) for row in g)
    assert list(bc.corner_minors(scaled)) == _sympy_minors(scaled)[:-1]
    got = _outcome(bc.ul_factorize, scaled)
    if isinstance(got, bc.BigCellFactorization):
        got = (got.u_plus, got.p_minus)
    assert got == _outcome(_fraction_ul, scaled)


def test_kernel_self_check_rejects_any_wrong_numerator():
    g = em.random_word(5, 40, 3)
    h = [list(row) for row in g]
    m = bc._bareiss_ul([list(row) for row in g])
    assert bc._reassembles(m, h)
    for i in range(5):
        for j in range(5):
            if i != j:
                m[i][j] += 1
                assert not bc._reassembles(m, h)
                m[i][j] -= 1


# --- unipotent class splits -----------------------------------------------------


def test_split_identity():
    ordering = rt.sl_class_ordering(3, seed=1)
    sp = bc.unipotent_class_split(F(I3), ordering, 2)
    assert sp.left_part == F(I3) and sp.mid_part == F(I3) and sp.right_part == F(I3)


def test_split_single_position():
    ordering = rt.sl_class_ordering(3, seed=1)
    positions = rt.sl_block_positions(ordering)
    u = F(em.elementary(3, 1, 2, 5))
    owner = positions.index((1, 2)) + 1
    for i in range(1, 4):
        sp = bc.unipotent_class_split(u, ordering, i)
        parts = {1: sp.mid_part} if i == owner else {}
        if i < owner:
            assert sp.right_part == u
        elif i > owner:
            assert sp.left_part == u
        else:
            assert sp.mid_part == u
        prod = em.multiply(em.multiply(sp.left_part, sp.mid_part), sp.right_part)
        assert prod == u


def test_split_round_trip_generic():
    rng = random.Random(77)
    for n in (3, 4, 5):
        ordering = rt.sl_class_ordering(n, seed=n)
        k = n * (n - 1) // 2
        for _ in range(20):
            u = _random_unitriangular(rng, n)
            for i in range(1, k + 1):
                sp = bc.unipotent_class_split(u, ordering, i)
                prod = em.multiply(em.multiply(sp.left_part, sp.mid_part),
                                   sp.right_part)
                assert prod == u


def _dense_split(u, ordering, i):
    """The split with every peeled factor reassembled as a dense product of
    elementary matrices."""
    n = len(u)
    pos0 = [(a - 1, b - 1) for a, b in rt.sl_block_positions(ordering)]
    rows = [[Fraction(e) for e in row] for row in u]

    def peel(positions):
        acc = F(em.identity(n))
        for a, b in sorted(positions, key=lambda p: p[1] - p[0]):
            c = rows[a][b]
            if c:
                rows[a] = [x - c * y for x, y in zip(rows[a], rows[b])]
                elem = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
                elem[a][b] = c
                acc = em.multiply(acc, elem)
        return acc

    left = peel(pos0[: i - 1])
    mid = peel(pos0[i - 1: i])
    return left, mid, tuple(map(tuple, rows))


@st.composite
def unitriangular_splits(draw):
    """(u, ordering, i): a random upper unitriangular u, n = 2..7, with integer
    or rational entries, one of a few standard orderings and a class index."""
    n = draw(st.integers(2, 7))
    entry = st.one_of(st.integers(-20, 20),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
    u = tuple(tuple(1 if r == c else draw(entry) if c > r else 0 for c in range(n))
              for r in range(n))
    ordering = rt.sl_class_ordering(n, seed=draw(st.integers(0, 4)))
    return u, ordering, draw(st.integers(1, n * (n - 1) // 2))


@PROPERTY
@given(unitriangular_splits())
def test_split_matches_dense_reassembly(case):
    u, ordering, i = case
    sp = bc.unipotent_class_split(u, ordering, i)
    parts = (sp.left_part, sp.mid_part, sp.right_part)
    assert parts == _dense_split(u, ordering, i)
    assert all(type(e) is Fraction for part in parts for row in part for e in row)
    assert em.multiply(em.multiply(*parts[:2]), parts[2]) == F(u)


def test_split_rejects_non_unitriangular():
    ordering = rt.sl_class_ordering(3, seed=1)
    with pytest.raises(ValueError):
        bc.unipotent_class_split(((1, 0, 0), (1, 1, 0), (0, 0, 1)), ordering, 1)


def test_split_rejects_bad_index():
    ordering = rt.sl_class_ordering(3, seed=1)
    with pytest.raises(ValueError):
        bc.unipotent_class_split(F(I3), ordering, 0)
    with pytest.raises(ValueError):
        bc.unipotent_class_split(F(I3), ordering, 4)


def test_split_dimension_mismatch():
    ordering = rt.sl_class_ordering(4, seed=1)
    with pytest.raises(ValueError):
        bc.unipotent_class_split(F(I3), ordering, 1)


def test_factorization_json():
    fac = bc.ul_factorize(((2, 1), (1, 1)))
    obj = bc.factorization_to_json(fac)
    assert obj["u_plus"] == [["1", "1"], ["0", "1"]]
    assert obj["p_minus"] == [["1", "0"], ["1", "1"]]
