import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qibg import decompose as dc
from qibg import exactmat as em
from qibg import rootsys as rt

I2 = ((1, 0), (0, 1))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def reassemble(fac):
    prod = em.identity(fac.n)
    for f in fac.factors:
        prod = em.multiply(prod, dc.embed(f, fac.n))
    return prod


def test_embed_identity_block():
    f = dc.BlockFactor(1, 2, I2)
    assert dc.embed(f, 3) == I3


def test_embed_rotation_block():
    f = dc.BlockFactor(1, 3, ((0, 1), (-1, 0)))
    assert dc.embed(f, 3) == ((0, 0, 1), (0, 1, 0), (-1, 0, 0))


def test_embed_reversed_indices():
    f = dc.BlockFactor(3, 1, ((1, 2), (0, 1)))
    m = dc.embed(f, 3)
    assert m[2][2] == 1 and m[2][0] == 2 and m[0][2] == 0 and m[0][0] == 1
    assert m[1] == (0, 1, 0)


def test_embed_out_of_range():
    with pytest.raises(ValueError):
        dc.embed(dc.BlockFactor(0, 2, I2), 3)
    with pytest.raises(ValueError):
        dc.embed(dc.BlockFactor(2, 2, I2), 3)
    with pytest.raises(ValueError):
        dc.embed(dc.BlockFactor(1, 4, I2), 3)


# --- column-major ---------------------------------------------------------------


def test_column_major_identity():
    fac = dc.decompose_column_major(I3)
    assert fac.factors == ()
    assert fac.strategy == dc.COLUMN_MAJOR


def test_column_major_elementary():
    fac = dc.decompose_column_major(((1, 5), (0, 1)))
    assert len(fac.factors) == 1
    f = fac.factors[0]
    assert (f.k, f.l) == (1, 2) and f.block == ((1, 5), (0, 1))


def test_column_major_example_matrix():
    m = ((1, 0, 2), (3, 1, 6), (0, 0, 1))
    fac = dc.decompose_column_major(m)
    assert len(fac.factors) <= 6
    assert reassemble(fac) == m


def test_column_major_rejects_non_unimodular():
    with pytest.raises(ValueError):
        dc.decompose_column_major(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        dc.decompose_column_major(((0, 1), (1, 0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_column_major_round_trip(n):
    for seed in range(25):
        m = em.random_word(n, 30, seed)
        fac = dc.decompose_column_major(m)
        assert len(fac.factors) <= n * n - n
        assert reassemble(fac) == m


def test_column_major_handles_negative_diagonal():
    m = ((-1, 0), (0, -1))
    fac = dc.decompose_column_major(m)
    assert reassemble(fac) == m


# --- clockwise -------------------------------------------------------------------


def test_clockwise_identity():
    fac = dc.decompose_clockwise(I3)
    assert fac.factors == ()
    assert fac.strategy == dc.CLOCKWISE


def test_clockwise_n2_matches_column_major():
    for seed in range(20):
        m = em.random_word(2, 25, seed)
        cm = dc.decompose_column_major(m)
        cw = dc.decompose_clockwise(m)
        assert cw.strategy == dc.CLOCKWISE
        assert cw.factors == cm.factors


def test_clockwise_example_matrix():
    m = ((1, 0, 2), (3, 1, 6), (0, 0, 1))
    fac = dc.decompose_clockwise(m)
    assert len(fac.factors) <= 6
    assert reassemble(fac) == m


@pytest.mark.parametrize("n", [3, 4, 5])
def test_clockwise_round_trip(n):
    ordering = rt.sl_class_ordering(n, seed=2)
    for seed in range(25):
        m = em.random_word(n, 30, seed)
        fac, diag = dc.clockwise_with_diagnostics(m, ordering)
        assert len(fac.factors) <= n * n - n
        assert reassemble(fac) == m
        assert diag.reannihilations == 0


def test_clockwise_many_orderings_agree_on_product():
    m = em.random_word(3, 30, 5)
    for seed in range(8):
        ordering = rt.sl_class_ordering(3, seed=seed)
        fac = dc.decompose_clockwise(m, ordering)
        assert reassemble(fac) == m


def test_clockwise_outside_big_cell():
    # permutation-like matrices have vanishing corner minors
    cases = [
        ((0, 1, 0), (-1, 0, 0), (0, 0, 1)),
        ((0, 0, 1), (0, -1, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 0, -1), (0, 1, 0)),
    ]
    for m in cases:
        assert em.determinant(m) == 1
        fac, diag = dc.clockwise_with_diagnostics(m)
        assert diag.omega_fallback
        assert reassemble(fac) == m
        assert len(fac.factors) <= 6
        assert diag.reannihilations == 0


def test_clockwise_rejects_mismatched_ordering():
    ordering = rt.sl_class_ordering(4, seed=0)
    with pytest.raises(ValueError):
        dc.decompose_clockwise(I3, ordering)


# --- verification -----------------------------------------------------------------


def test_verify_trivial():
    rep = dc.verify(I3, dc.Factorization(3, dc.COLUMN_MAJOR, ()))
    assert rep.all_ok
    assert rep.stats.max_ratio == 0.0


def test_verify_round_trip():
    m = em.random_word(3, 20, 8)
    fac = dc.decompose_column_major(m)
    rep = dc.verify(m, fac)
    assert rep.all_ok


def test_verify_detects_deleted_factor():
    m = em.random_word(3, 20, 8)
    fac = dc.decompose_column_major(m)
    assert len(fac.factors) > 1
    broken = dc.Factorization(fac.n, fac.strategy, fac.factors[1:])
    rep = dc.verify(m, broken)
    assert not rep.product_ok
    assert not rep.all_ok


def test_verify_detects_bad_support():
    bad = dc.Factorization(3, dc.COLUMN_MAJOR,
                           (dc.BlockFactor(1, 2, ((2, 0), (0, 1))),))
    rep = dc.verify(I3, bad)
    assert not rep.support_ok
    bad2 = dc.Factorization(3, dc.COLUMN_MAJOR,
                            (dc.BlockFactor(1, 1, I2),))
    rep2 = dc.verify(I3, bad2)
    assert not rep2.support_ok


def test_verify_detects_dimension_mismatch():
    fac = dc.decompose_column_major(em.random_word(2, 10, 1))
    rep = dc.verify(I3, fac)
    assert not rep.all_ok


def test_verify_detects_count_overflow():
    f = dc.BlockFactor(1, 2, ((1, 1), (0, 1)))
    g = dc.BlockFactor(1, 2, ((1, -1), (0, 1)))
    factors = (f, g) * 4  # 8 > 6 factors multiplying to the identity
    rep = dc.verify(I3, dc.Factorization(3, dc.COLUMN_MAJOR, factors))
    assert rep.product_ok
    assert not rep.count_ok
    assert not rep.all_ok


def _dense_product_ok(m, fac):
    """The reference check: a dense product of embedded blocks, each of which
    must have determinant 1 and a valid position."""
    n = len(m)
    prod = em.identity(n)
    for f in fac.factors:
        (a, b), (c, d) = f.block
        if a * d - b * c != 1 or not (1 <= f.k <= n and 1 <= f.l <= n) or f.k == f.l:
            return False
        prod = em.multiply(prod, dc.embed(f, n))
    return prod == em.as_matrix(m)


TAMPERS = ("none", "entry", "swap", "drop", "diagonal", "range")


@st.composite
def factorizations(draw):
    """(matrix, factorization, tamper): a factorization of a random word by
    either strategy, n = 2..7, possibly tampered with in one way."""
    n = draw(st.integers(2, 7))
    m = em.random_word(n, draw(st.integers(0, 14)), draw(st.integers(0, 10 ** 6)))
    strategy = draw(st.sampled_from(dc.STRATEGIES))
    fac = (dc.decompose_column_major(m) if strategy == dc.COLUMN_MAJOR
           else dc.decompose_clockwise(m))
    factors = list(fac.factors)
    tamper = draw(st.sampled_from(TAMPERS if len(factors) >= 2
                                  else ("none", "diagonal", "range")))
    if tamper in ("entry", "drop", "diagonal", "range") and factors:
        i = draw(st.integers(0, len(factors) - 1))
    if tamper == "entry":
        # right-multiply one block by [[1, t], [0, 1]]: determinant stays 1
        f, t = factors[i], draw(st.integers(-3, 3).filter(bool))
        (a, b), (c, d) = f.block
        factors[i] = dc.BlockFactor(f.k, f.l, ((a, a * t + b), (c, c * t + d)))
    elif tamper == "swap":
        i, j = draw(st.lists(st.integers(0, len(factors) - 1), min_size=2, max_size=2,
                             unique=True))
        factors[i], factors[j] = factors[j], factors[i]
    elif tamper == "drop":
        del factors[i]
    elif tamper in ("diagonal", "range"):
        k = draw(st.integers(1, n))
        l = k if tamper == "diagonal" else draw(st.sampled_from((0, n + 1, -1)))
        bad = dc.BlockFactor(k, l, ((1, draw(st.integers(-2, 2))), (0, 1)))
        if factors:
            factors[i] = bad
        else:
            factors.append(bad)
    return m, dc.Factorization(n, strategy, tuple(factors)), tamper


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(factorizations())
def test_verify_product_matches_dense_reference(case):
    m, fac, tamper = case
    rep = dc.verify(m, fac)
    assert rep.product_ok == _dense_product_ok(m, fac)
    if tamper == "none":
        assert rep.all_ok
    elif tamper != "swap":
        # one factor multiplied by a non-identity block, one non-identity factor
        # left out, or one that does not embed; a swap of commuting factors is
        # no change, so there the dense reference alone decides
        assert not rep.product_ok


def test_verify_makes_no_dense_product(monkeypatch):
    m = em.random_word(6, 30, 2)
    fac = dc.decompose_clockwise(m)

    def forbidden(*args):
        raise AssertionError("dense product in verify")

    monkeypatch.setattr(dc, "multiply", forbidden)
    monkeypatch.setattr(dc, "embed", forbidden)
    assert dc.verify(m, fac).all_ok


# --- quasi-isometry stats -----------------------------------------------------------


def test_stats_identity():
    st = dc.quasi_isometry_stats(I3, dc.Factorization(3, dc.COLUMN_MAJOR, ()))
    assert st.max_ratio == 0.0 and st.input_log_norm == 0.0


def test_stats_single_elementary():
    m = em.elementary(2, 1, 2, 5)
    fac = dc.decompose_column_major(m)
    st = dc.quasi_isometry_stats(m, fac)
    assert st.max_ratio == pytest.approx(1.0)


def test_stats_regression_snapshot():
    m = em.random_word(3, 30, 7)
    fac = dc.decompose_column_major(m)
    st = dc.quasi_isometry_stats(m, fac)
    assert st.max_ratio == pytest.approx(0.912463697361436, rel=1e-12)


def test_guaranteed_bound_holds_everywhere():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        m = em.random_word(n, rng.randint(0, 35), rng.randrange(10 ** 6))
        bound = dc.guaranteed_log_norm_bound(n, m)
        for fac in (dc.decompose_column_major(m), dc.decompose_clockwise(m)):
            st = dc.quasi_isometry_stats(m, fac)
            assert all(v <= bound for v in st.per_factor_log_norms)


def test_clockwise_past_the_float_norm_ceiling():
    # the clockwise bound (2n+4)^(n^2-n+1) exceeds the largest float from n=15
    m = em.random_word(16, 40, 16)
    fac = dc.decompose_clockwise(m)
    assert dc.verify(m, fac).all_ok
    assert dc.guaranteed_log_norm_bound(16, m, 36.0, extra_exponent=1) == math.inf
    assert (dc.guaranteed_log_norm_bound(14, m, 32.0, extra_exponent=1)
            == 32.0 ** (14 * 13 + 1) * math.log(14 * em.sup_norm(m)))


def test_column_major_past_the_float_norm_ceiling():
    # the column-major bound 2^(n^2-n) exceeds the largest float from n=33
    m = em.random_word(33, 6, 33)
    fac = dc.decompose_column_major(m)
    assert dc.verify(m, fac).all_ok
    assert dc.guaranteed_log_norm_bound(33, m) == math.inf
    assert dc.guaranteed_log_norm_bound(32, m) == 2.0 ** (32 * 31) * math.log(32 * em.sup_norm(m))


# --- serialization -------------------------------------------------------------------


def test_factorization_json_round_trip():
    m = em.random_word(3, 25, 3)
    fac = dc.decompose_clockwise(m)
    blob = json.dumps(dc.factorization_to_json(fac))
    back = dc.factorization_from_json(json.loads(blob))
    assert back == fac


def test_factorization_json_round_trip_past_the_int_str_digit_limit():
    huge = 10 ** 100_000 + 1
    fac = dc.Factorization(2, dc.COLUMN_MAJOR, (dc.BlockFactor(1, 2, ((1, -huge), (0, 1))),))
    blob = json.dumps(dc.factorization_to_json(fac))
    assert len(blob) > 100_000
    assert dc.factorization_from_json(json.loads(blob)) == fac


def test_factorization_json_rejects_garbage():
    with pytest.raises(ValueError):
        dc.factorization_from_json({"n": 2})
    with pytest.raises(ValueError):
        dc.factorization_from_json({"n": 2, "strategy": "sideways", "factors": []})
    with pytest.raises(ValueError):
        dc.factorization_from_json({"n": 2, "strategy": dc.COLUMN_MAJOR, "factors": [
            {"k": 1, "l": 2, "block": [["1", "1_0"], ["0", "1"]]}]})
