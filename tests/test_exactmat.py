import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qibg import exactmat as em

I2 = ((1, 0), (0, 1))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_multiply_identity():
    assert em.multiply(I2, I2) == I2


def test_multiply_hand_product():
    a = ((1, 1), (0, 1))
    b = ((1, 0), (1, 1))
    assert em.multiply(a, b) == ((2, 1), (1, 1))


def test_multiply_elementary_product():
    e21 = em.elementary(3, 2, 1, 3)
    e13 = em.elementary(3, 1, 3, 2)
    assert em.multiply(e21, e13) == ((1, 0, 2), (3, 1, 6), (0, 0, 1))


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        em.multiply(I2, I3)


def test_determinant_examples():
    assert em.determinant(I3) == 1
    assert em.determinant(((2, 1), (1, 1))) == 1
    assert em.determinant(((0, 1), (-1, 0))) == 1
    assert em.determinant(((1, 2), (2, 4))) == 0


def test_determinant_matches_permanent_expansion():
    # brute-force cofactor oracle on random 4x4 integer matrices
    import itertools

    def brute(m):
        n = len(m)
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= m[i][perm[i]]
            total += sign * term
        return total

    rng = random.Random(5)
    for _ in range(25):
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
        assert em.determinant(m) == brute(m)


def test_determinant_keeps_the_entry_type():
    """Integer input gives an int; rational input, singular or not, gives
    the exact Fraction."""
    rng = random.Random(8)
    for t in range(60):
        n = 1 + t % 6
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if t % 4 == 0:
            m[0] = list(m[-1])  # singular for n >= 2
        want = sympy.Matrix(m).det()
        got = em.determinant(m)
        assert type(got) is int and got == want
        q = [[Fraction(e, rng.randint(1, 7)) for e in row] for row in m]
        got = em.determinant(q)
        assert type(got) is Fraction and got == sympy.Matrix(q).det()


@st.composite
def square_matrices(draw):
    """n = 1..7, dense or sparse (entries in {-1, 0, 1}, mostly 0, so the
    kernel meets zero pivots, row swaps and all-zero columns), with int or
    Fraction entries."""
    n = draw(st.integers(1, 7))
    entry = draw(st.sampled_from((st.integers(-9, 9), st.sampled_from((0, 0, 0, 0, 1, -1)))))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[Fraction(e, draw(st.integers(1, 6))) for e in row] for row in rows]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_determinant_matches_sympy(m):
    got = em.determinant(m)
    assert got == sympy.Matrix(m).det()
    rational = any(isinstance(e, Fraction) for row in m for e in row)
    assert type(got) is (Fraction if rational else int)


def test_sup_norm_examples():
    assert em.sup_norm(I2) == 1
    assert em.sup_norm(((2, -3), (1, 1))) == 3
    assert em.sup_norm(((1, 0, 2), (3, 1, 6), (0, 0, 1))) == 6


def test_sup_norm_at_least_one_for_unimodular():
    for seed in range(20):
        assert em.sup_norm(em.random_word(3, 10, seed)) >= 1


def test_sup_norm_submultiplicative_up_to_dimension():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        a = em.random_word(n, rng.randint(0, 20), rng.randrange(10 ** 6))
        b = em.random_word(n, rng.randint(0, 20), rng.randrange(10 ** 6))
        assert em.sup_norm(em.multiply(a, b)) <= n * em.sup_norm(a) * em.sup_norm(b)


def test_random_word_zero_length_is_identity():
    assert em.random_word(2, 0, 123) == I2


def test_random_word_single_generator():
    for seed in range(20):
        m = em.random_word(2, 1, seed)
        assert m in {
            em.elementary(2, 1, 2, 1), em.elementary(2, 1, 2, -1),
            em.elementary(2, 2, 1, 1), em.elementary(2, 2, 1, -1),
        }


def test_random_word_reproducible():
    assert em.random_word(4, 33, 99) == em.random_word(4, 33, 99)
    assert em.random_word(4, 33, 99) != em.random_word(4, 33, 98)


def test_random_word_golden_snapshot():
    assert em.random_word(3, 20, 42) == ((-1, -2, 4), (0, 1, -1), (-2, 1, 2))


def test_random_word_always_unimodular():
    for seed in range(10):
        assert em.determinant(em.random_word(5, 40, seed)) == 1


def test_json_round_trip_exact():
    big = 10 ** 60
    m = ((big, -big - 7), (1, 0))
    # not unimodular, but the format does not care
    blob = json.dumps(em.matrix_to_json(m))
    assert em.matrix_from_json(json.loads(blob)) == m


def test_json_rational_round_trip():
    from fractions import Fraction
    m = ((Fraction(1, 2), Fraction(-3)), (Fraction(22, 7), Fraction(0)))
    blob = json.dumps(em.matrix_to_json(m))
    assert em.matrix_from_json(json.loads(blob), rational=True) == m


def test_json_rejects_ragged():
    with pytest.raises(ValueError):
        em.matrix_from_json({"n": 2, "entries": [["1", "0"], ["0"]]})
    with pytest.raises(ValueError):
        em.matrix_from_json({"entries": [["1"]]})


@pytest.mark.parametrize("obj", [
    {"n": True, "entries": [["1"]]},
    {"n": 1.0, "entries": [["1"]]},
    {"n": "1", "entries": [["1"]]},
    {"n": 1, "entries": 5},
    {"n": 1, "entries": [5]},
])
def test_json_matrix_needs_a_json_int_dimension_and_lists(obj):
    with pytest.raises(ValueError):
        em.matrix_from_json(obj)


@pytest.mark.parametrize("text", [
    "1_0", " +7 ", "+7", "7 ", " 7", "7\n", "1e3", "1.5", "0x10", "", "-", "--1",
    "1/", "/2", "1/-2", "1/2/3", "\u0663", "1/\u0662", "NaN", "Infinity",
])
def test_exact_from_str_rejects(text):
    for rational in (False, True):
        with pytest.raises(ValueError):
            em.exact_from_str(text, rational)
    with pytest.raises(ValueError):
        em.matrix_from_json({"n": 1, "entries": [[text]]})


def test_exact_from_str_rejects_fractions_and_non_strings():
    with pytest.raises(ValueError):
        em.exact_from_str("1/2")
    for value in (7, 1.0, None, b"7"):
        with pytest.raises(ValueError):
            em.exact_from_str(value, rational=True)


def test_exact_from_str_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/00", "0/0"):
        with pytest.raises(ValueError):
            em.exact_from_str(text, rational=True)
    with pytest.raises(ValueError):
        em.matrix_from_json({"n": 1, "entries": [["1/0"]]}, rational=True)


def test_exact_codec_values():
    from fractions import Fraction
    assert em.exact_from_str("-007") == -7
    assert em.exact_from_str("6/4", rational=True) == Fraction(3, 2)
    assert em.exact_from_str("-5", rational=True) == Fraction(-5)
    assert em.exact_to_str(Fraction(-6, 4)) == "-3/2"
    assert em.exact_to_str(Fraction(4, 2)) == "2"
    assert em.exact_to_str(-10 ** 30) == "-1" + "0" * 30


def test_json_round_trip_past_the_int_str_digit_limit():
    from fractions import Fraction
    huge = 10 ** 100_000 - 12345
    m = ((huge, -1), (3, 0))
    blob = json.dumps(em.matrix_to_json(m))
    assert len(blob) > 100_000
    assert em.matrix_from_json(json.loads(blob)) == m
    q = ((Fraction(-huge, 7), Fraction(0)), (Fraction(1), Fraction(1, 2)))
    blob = json.dumps(em.matrix_to_json(q))
    assert em.matrix_from_json(json.loads(blob), rational=True) == q


def test_log_abs_huge_values():
    x = 7 ** 4000
    approx = em.log_abs(x)
    assert abs(approx - 4000 * em.log_abs(7)) < 1e-6 * approx
