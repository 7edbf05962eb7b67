"""Big-cell membership, exact UL factorization, and unipotent class splits.

A square rational matrix g lies in the big cell exactly when every
bottom-right corner minor is nonzero; there it factors uniquely as
g = u_plus * p_minus with u_plus upper unitriangular and p_minus lower
triangular.  One fraction-free (Bareiss) elimination from the bottom-right
corner yields all of this at once: its pivots are the corner minors, and
the integers it leaves above and below the diagonal are the numerators of
u_plus and p_minus over consecutive minors.  Rational input is scaled to an
integer matrix by the least common denominator first.  Every division in the
pass is exact, so "equal" always means equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmat import (_exact_div, as_matrix, determinant, exact_to_str, log_abs,
                       log_sup_norm, multiply, sup_norm)
from .rootsys import ClassOrdering, sl_block_positions

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotInBigCell(ValueError):
    pass


@dataclass(frozen=True)
class BigCellFactorization:
    u_plus: tuple   # upper unitriangular, rational
    p_minus: tuple  # lower triangular, nonzero diagonal, rational


@dataclass(frozen=True)
class UnipotentClassSplit:
    left_part: tuple
    mid_part: tuple
    right_part: tuple


@dataclass(frozen=True)
class BoundReport:
    minors: tuple
    minor_product: int
    denominators: tuple  # distinct factor-entry denominators, ascending
    denominators_divide: bool
    log_norm_input: float
    log_norm_p_minus: float
    norm_constant: int
    norm_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.denominators_divide and self.norm_bound_ok


def _integer_rows(g) -> tuple:
    """(h, scale): h = scale * g as an integer matrix, scale the least common
    denominator of the entries (1 for integer input)."""
    g = as_matrix(g)
    if all(isinstance(e, int) for row in g for e in row):
        return g, 1
    rows = [[Fraction(e) for e in row] for row in g]
    scale = math.lcm(*(e.denominator for row in rows for e in row))
    return tuple(tuple(int(e * scale) for e in row) for row in rows), scale


def _bareiss_ul(m: list) -> list:
    """Fraction-free elimination of the integer matrix m from its bottom-right
    corner, in place, without pivoting; returns m.

    With D_j the determinant of the corner of size n - j, and D_n = 1:
    m[j][j] = D_j; u_plus[i][j] = m[i][j] / D_j for i < j; and
    p_minus[k][c] = m[k][c] / D_{k+1} for c < k, p_minus[k][k] = D_k / D_{k+1}.
    A zero pivot D_j with j >= 1 raises NotInBigCell; m[j][j] then holds that
    zero minor and the diagonal below it the smaller corner minors.
    """
    n = len(m)
    prev = 1
    for j in range(n - 1, 0, -1):
        pivot_row = m[j]
        p = pivot_row[j]
        if p == 0:
            raise NotInBigCell(f"corner minor of size {n - j} vanishes")
        for i in range(j):
            row = m[i]
            f = row[j]
            for c in range(j):
                row[c] = _exact_div(row[c] * p - f * pivot_row[c], prev)
        prev = p
    return m


def _reassembles(m, h) -> bool:
    """Integer-only check that the pass m factors h exactly.

    With U~ the upper and L~ the lower triangle of m (sharing the diagonal of
    minors), h = U~ * diag(1 / (D_k * D_{k+1})) * L~; both sides are scaled by
    P = prod_k D_k * D_{k+1} so that every entry is compared as an integer.
    """
    n = len(m)
    minors = [m[k][k] for k in range(n)] + [1]
    pair = [minors[k] * minors[k + 1] for k in range(n)]
    total = math.prod(pair)
    weight = [total // d for d in pair]
    return all(
        sum(m[i][k] * weight[k] * m[k][c] for k in range(max(i, c), n))
        == total * h[i][c]
        for i in range(n) for c in range(n))


def _factor(g) -> tuple:
    """(m, factorization): one kernel pass over g and the UL factors read off it."""
    h, scale = _integer_rows(g)
    n = len(h)
    m = _bareiss_ul([list(row) for row in h])
    if m[0][0] == 0:
        raise ValueError("matrix is singular")
    assert _reassembles(m, h)
    minors = [m[k][k] for k in range(n)] + [1]
    u_plus = tuple(
        tuple(Fraction(m[i][j], minors[j]) if j > i else _ONE if j == i else _ZERO
              for j in range(n))
        for i in range(n))
    p_minus = tuple(
        tuple(Fraction(m[k][c], minors[k + 1] * scale) if c <= k else _ZERO
              for c in range(n))
        for k in range(n))
    return m, BigCellFactorization(u_plus, p_minus)


def corner_minors(g) -> tuple:
    """Determinants of the bottom-right j x j submatrices, j = 1..n-1.

    They are the pivots of one kernel pass.  A vanishing pivot stops the
    pass; the larger corners then get a determinant each.
    """
    h, scale = _integer_rows(g)
    n = len(h)
    m = [list(row) for row in h]
    try:
        _bareiss_ul(m)
    except NotInBigCell:
        pass
    out = []
    for j in range(n - 1, 0, -1):
        out.append(m[j][j])
        if m[j][j] == 0:
            break
    out += [determinant(tuple(row[j:] for row in h[j:]))
            for j in range(n - 1 - len(out), 0, -1)]
    if scale == 1:
        return tuple(out)
    return tuple(Fraction(d, scale ** size) for size, d in enumerate(out, 1))


def in_big_cell(g) -> bool:
    """True iff every corner minor is nonzero; raises on singular input."""
    h, _ = _integer_rows(g)
    try:
        det = _bareiss_ul([list(row) for row in h])[0][0]
        member = True
    except NotInBigCell:
        det = determinant(h)  # the pass stopped short of the full minor
        member = False
    if det == 0:
        raise ValueError("matrix is singular")
    return member


def ul_factorize(g) -> BigCellFactorization:
    """Exact g = u_plus * p_minus, or NotInBigCell when a corner minor vanishes."""
    return _factor(g)[1]


def denominator_and_norm_check(gamma) -> BoundReport:
    """Verify the two exact bounds tying a factorization to its corner minors:
    denominators divide (prod of minors)^n and log|p_minus| <= n^2 * log-norm."""
    gamma = as_matrix(gamma)
    n = len(gamma)
    if any(not isinstance(e, int) for row in gamma for e in row):
        raise ValueError("expected an integer matrix")
    try:
        m, fac = _factor(gamma)
    except NotInBigCell:
        raise NotInBigCell("input is outside the big cell") from None
    minors = tuple(m[j][j] for j in range(n - 1, 0, -1))
    product = math.prod(minors)
    power = abs(product) ** n
    denominators = tuple(sorted({
        e.denominator for mat in (fac.u_plus, fac.p_minus) for row in mat for e in row}))
    denominators_divide = all(power % q == 0 for q in denominators)
    log_in = max(0.0, log_sup_norm(gamma))
    log_p = log_abs(sup_norm(fac.p_minus))
    bound = (n * n) * max(1.0, log_in)
    return BoundReport(minors, product, denominators, denominators_divide,
                       log_in, log_p, n * n, log_p <= bound)


# --- unipotent class splits ---------------------------------------------------


def _check_unitriangular(u) -> tuple:
    u = as_matrix(u)
    n = len(u)
    for i in range(n):
        if u[i][i] != 1 or any(u[i][j] != 0 for j in range(i)):
            raise ValueError("matrix is not upper unitriangular")
    return u


def _peel(rows, positions, n):
    """Extract the left factor supported on `positions` (0-based, by height);
    closedness of the position set keeps the factor inside its support."""
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for a, b in sorted(positions, key=lambda p: p[1] - p[0]):
        c = rows[a][b]
        if c:
            for col in range(n):
                rows[a][col] -= c * rows[b][col]
            # acc <- acc * (I + c e_ab): column b gains c times column a
            for row in acc:
                row[b] += c * row[a]
    return tuple(map(tuple, acc))


def unipotent_class_split(u, ordering: ClassOrdering, i: int) -> UnipotentClassSplit:
    """Split an upper unitriangular matrix as left * mid * right along the
    i-th clockwise class (1-based) of a standard A_{n-1} ordering."""
    u = _check_unitriangular(u)
    n = len(u)
    positions = sl_block_positions(ordering)
    k = len(positions)
    if not 1 <= i <= k:
        raise ValueError(f"class index {i} out of range 1..{k}")
    if k != n * (n - 1) // 2 or any(b > n for _, b in positions):
        raise ValueError("ordering does not match the matrix dimension")
    pos0 = [(a - 1, b - 1) for a, b in positions]
    rows = [[Fraction(e) for e in row] for row in u]
    left = _peel(rows, pos0[: i - 1], n)
    mid = _peel(rows, pos0[i - 1: i], n)
    right = tuple(tuple(row) for row in rows)
    _check_support(left, set(pos0[: i - 1]))
    _check_support(mid, set(pos0[i - 1: i]))
    _check_support(right, set(pos0[i:]))
    assert multiply(multiply(left, mid), right) == tuple(
        tuple(Fraction(e) for e in row) for row in u)
    return UnipotentClassSplit(left, mid, right)


def _check_support(mat, allowed) -> None:
    n = len(mat)
    for r in range(n):
        for c in range(n):
            if r == c:
                continue
            if mat[r][c] != 0 and (r, c) not in allowed:
                raise AssertionError("split factor leaks outside its class support")


def factorization_to_json(fac: BigCellFactorization) -> dict:
    def enc(mat):
        return [[exact_to_str(e) for e in row] for row in mat]

    return {
        "n": len(fac.u_plus),
        "u_plus": enc(fac.u_plus),
        "p_minus": enc(fac.p_minus),
    }


def bound_report_to_json(rep: BoundReport) -> dict:
    return {
        "minors": [exact_to_str(m) for m in rep.minors],
        "minor_product": exact_to_str(rep.minor_product),
        "denominators": [exact_to_str(q) for q in rep.denominators],
        "denominators_divide": rep.denominators_divide,
        "log_norm_input": rep.log_norm_input,
        "log_norm_p_minus": rep.log_norm_p_minus,
        "norm_constant": rep.norm_constant,
        "norm_bound_ok": rep.norm_bound_ok,
    }
