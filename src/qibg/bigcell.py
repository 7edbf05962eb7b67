"""Big-cell membership, exact UL factorization, and unipotent class splits.

A square rational matrix g lies in the big cell exactly when every
bottom-right corner minor is nonzero; there it factors uniquely as
g = u_plus * p_minus with u_plus upper unitriangular and p_minus lower
triangular.  One fraction-free (Bareiss) pass from the bottom-right corner,
``exactmat._bareiss`` (the same kernel ``determinant`` runs), yields all of
this at once: its pivots are the corner minors, it reports the smallest one
that vanishes, so membership and singularity take one pass, and the integers
it leaves above and below the diagonal are the numerators of u_plus and
p_minus over consecutive minors.  Rational input is scaled to an integer
matrix by the least common denominator first.  Every division in the pass is
exact, so "equal" always means equal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactmat import (_bareiss, _integer_rows, as_matrix, determinant, log_abs, log_sup_norm,
                       multiply, sup_norm)
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


def _reassembles(m, h) -> bool:
    """Integer-only check that the pass m factors h exactly.

    With U~ the upper and L~ the lower triangle of m (sharing the diagonal of
    minors), h = U~ * diag(1 / (D_k * D_{k+1})) * L~; both sides are scaled by
    P = prod_k D_k * D_{k+1} so that every entry is compared as an integer.
    The weights P / (D_k * D_{k+1}) are folded into the rows of U~ once, and
    both triangles are zero-padded to full rows and columns.
    """
    n = len(m)
    minors = [m[k][k] for k in range(n)] + [1]
    pair = [minors[k] * minors[k + 1] for k in range(n)]
    total = math.prod(pair)
    weight = [total // d for d in pair]
    upper = [[0] * i + [m[i][k] * weight[k] for k in range(i, n)] for i in range(n)]
    lower = [[0] * c + [m[k][c] for k in range(c, n)] for c in range(n)]
    mul = operator.mul
    return all([sum(map(mul, u_row, l_col)) for l_col in lower] == [total * e for e in h_row]
               for u_row, h_row in zip(upper, h))


def _factor(g) -> tuple:
    """(m, factorization): one kernel pass over g and the UL factors read off it."""
    h, scale = _integer_rows(as_matrix(g))
    n = len(h)
    m = [list(row) for row in h]
    det, vanished = _bareiss(m)
    if vanished:
        raise NotInBigCell(f"corner minor of size {vanished} vanishes")
    if det == 0:
        raise ValueError("matrix is singular")
    if not _reassembles(m, h):
        raise AssertionError("UL factors do not reassemble the input")
    minors = [m[k][k] for k in range(n)] + [1]
    u_plus = tuple(
        tuple([_ZERO] * i + [_ONE]
              + [Fraction(x, d) if x else _ZERO for x, d in zip(row[i + 1:], minors[i + 1:])])
        for i, row in enumerate(m))
    p_minus = tuple(
        tuple([Fraction(x, minors[k + 1] * scale) if x else _ZERO for x in row[:k + 1]]
              + [_ZERO] * (n - 1 - k))
        for k, row in enumerate(m))
    return m, BigCellFactorization(u_plus, p_minus)


def corner_minors(g) -> tuple:
    """Determinants of the bottom-right j x j submatrices, j = 1..n-1.

    They are the pivots of one kernel pass, up to the smallest corner that
    vanishes; the larger corners then get a determinant each.
    """
    h, scale = _integer_rows(as_matrix(g))
    n = len(h)
    m = [list(row) for row in h]
    vanished = _bareiss(m)[1] or n
    out = [m[j][j] for j in range(n - 1, n - vanished, -1)]
    if vanished < n:
        out.append(0)
        out += [determinant(tuple(row[j:] for row in h[j:]))
                for j in range(n - 1 - vanished, 0, -1)]
    if scale == 1:
        return tuple(out)
    return tuple(Fraction(d, scale ** size) for size, d in enumerate(out, 1))


def in_big_cell(g) -> bool:
    """True iff every corner minor is nonzero; raises on singular input."""
    h, _ = _integer_rows(as_matrix(g))
    det, vanished = _bareiss([list(row) for row in h])
    if det == 0:
        raise ValueError("matrix is singular")
    return not vanished


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
    log_in = log_sup_norm(gamma)
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
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b in sorted(positions, key=lambda p: p[1] - p[0]):
        c = rows[a][b]
        if c:
            for col in range(n):
                rows[a][col] -= c * rows[b][col]
            # acc <- acc * (I + c e_ab): column b gains c times column a
            for row in acc:
                row[b] += c * row[a]
    return tuple(map(tuple, acc))


def _clear_denominators(u) -> tuple:
    """(v, powers): v = D u D^-1 with D = diag(d^(n-1), ..., d, 1), d the least
    common denominator of u, so v[r][c] = d^(c-r) * u[r][c] is an integer; and
    powers[k] = d^k.  The conjugation scales each root subgroup by a nonzero
    factor, so it keeps every support, and peeling commutes with it."""
    n = len(u)
    above = [[e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row[r + 1:]]
             for r, row in enumerate(u)]
    d = math.lcm(*(e.denominator for row in above for e in row))
    powers = [d ** k for k in range(n)]
    v = []
    for r, row in enumerate(above):
        cleared = []
        for k, e in enumerate(row, 1):
            x, rest = divmod(e.numerator * powers[k], e.denominator)
            if rest:
                raise AssertionError("conjugated entry is not an integer")
            cleared.append(x)
        v.append([0] * r + [1] + cleared)
    return v, powers


def _restore_denominators(part, powers) -> tuple:
    """D^-1 part D: entry (r, c) is x / d^(c-r), as a Fraction."""
    return tuple(
        tuple(_ONE if r == c else Fraction(x, powers[c - r]) if x else _ZERO
              for c, x in enumerate(row))
        for r, row in enumerate(part))


def unipotent_class_split(u, ordering: ClassOrdering, i: int) -> UnipotentClassSplit:
    """Split an upper unitriangular matrix as left * mid * right along the
    i-th clockwise class (1-based) of a standard A_{n-1} ordering.

    The peel and its self-check run on the integer conjugate of u (see
    `_clear_denominators`); Fractions are built only for the returned parts."""
    u = _check_unitriangular(u)
    n = len(u)
    positions = sl_block_positions(ordering)
    k = len(positions)
    if not 1 <= i <= k:
        raise ValueError(f"class index {i} out of range 1..{k}")
    if k != n * (n - 1) // 2 or any(b > n for _, b in positions):
        raise ValueError("ordering does not match the matrix dimension")
    pos0 = [(a - 1, b - 1) for a, b in positions]
    rows, powers = _clear_denominators(u)
    v = tuple(map(tuple, rows))
    left = _peel(rows, pos0[: i - 1], n)
    mid = _peel(rows, pos0[i - 1: i], n)
    right = tuple(map(tuple, rows))
    _check_support(left, set(pos0[: i - 1]))
    _check_support(mid, set(pos0[i - 1: i]))
    _check_support(right, set(pos0[i:]))
    if multiply(multiply(left, mid), right) != v:
        raise AssertionError("class split does not multiply back to the input")
    return UnipotentClassSplit(*(_restore_denominators(part, powers)
                                 for part in (left, mid, right)))


def _check_support(mat, allowed) -> None:
    n = len(mat)
    for r in range(n):
        for c in range(n):
            if r == c:
                continue
            if mat[r][c] != 0 and (r, c) not in allowed:
                raise AssertionError("split factor leaks outside its class support")

