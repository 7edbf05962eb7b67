"""Exact arbitrary-precision square-matrix arithmetic over Z and Q.

Matrices are immutable tuples of row tuples.  Integer matrices hold Python
ints, rational matrices hold ``fractions.Fraction`` values (always in lowest
terms).  Nothing in this module touches floating point except the logarithm
helpers used for norm statistics.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

Matrix = tuple  # n x n tuple of row tuples


def as_matrix(rows) -> Matrix:
    """Normalize nested iterables into an immutable square matrix."""
    m = tuple(tuple(r) for r in rows)
    if not m or any(len(r) != len(m) for r in m):
        raise ValueError("matrix must be square and nonempty")
    return m


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def multiply(a, b) -> Matrix:
    """Exact matrix product; raises on dimension mismatch."""
    a, b = as_matrix(a), as_matrix(b)
    n = len(a)
    if len(b) != n:
        raise ValueError(f"dimension mismatch: {n} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _exact_div(x, y):
    if isinstance(x, int) and isinstance(y, int):
        q, r = divmod(x, y)
        if r:
            raise ArithmeticError("non-exact division in fraction-free elimination")
        return q
    return x / y


def determinant(a):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = as_matrix(a)
    n = len(a)
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for j in range(n - 1):
        pivot = next((i for i in range(j, n) if m[i][j] != 0), None)
        if pivot is None:
            return 0
        if pivot != j:
            m[j], m[pivot] = m[pivot], m[j]
            sign = -sign
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = _exact_div(m[i][c] * m[j][j] - m[i][j] * m[j][c], prev)
            m[i][j] = 0
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def check_unimodular(a) -> Matrix:
    """Return ``a`` as a matrix, raising if it is not in SL(n,Z) with n >= 2."""
    a = as_matrix(a)
    if len(a) < 2:
        raise ValueError("unimodular matrices need dimension n >= 2")
    if any(not isinstance(e, int) for row in a for e in row):
        raise ValueError("unimodular matrices must have integer entries")
    d = determinant(a)
    if d != 1:
        raise ValueError(f"matrix has determinant {d}, expected 1")
    return a


def inverse_unimodular(a) -> Matrix:
    """Exact inverse of a determinant-1 integer matrix (again integral)."""
    a = check_unimodular(a)
    n = len(a)
    # Gauss-Jordan over Q; the result is integral because det = 1.
    work = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [e / pv for e in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [e - f * p for e, p in zip(work[i], work[col])]
    inv = []
    for row in work:
        ints = []
        for e in row[n:]:
            if e.denominator != 1:
                raise ArithmeticError("inverse of a unimodular matrix must be integral")
            ints.append(int(e))
        inv.append(tuple(ints))
    return tuple(inv)


def sup_norm(a):
    """Maximum absolute value of the entries."""
    a = as_matrix(a)
    return max(abs(e) for row in a for e in row)


_LOG2 = math.log(2)


def log_abs(x) -> float:
    """Natural log of |x| for huge ints and Fractions, without overflow."""
    if isinstance(x, Fraction):
        return log_abs(x.numerator) - log_abs(x.denominator)
    x = abs(x)
    if x == 0:
        raise ValueError("log of zero")
    if x.bit_length() <= 512:
        return math.log(x)
    shift = x.bit_length() - 512
    return math.log(x >> shift) + shift * _LOG2


def log_sup_norm(a) -> float:
    return log_abs(sup_norm(a))


def elementary(n: int, k: int, l: int, m: int) -> Matrix:
    """Identity with entry (k, l) set to m; indices are 1-based, k != l."""
    if not (1 <= k <= n and 1 <= l <= n) or k == l:
        raise ValueError(f"invalid elementary position ({k}, {l}) for n={n}")
    rows = [list(r) for r in identity(n)]
    rows[k - 1][l - 1] = m
    return tuple(tuple(r) for r in rows)


def random_word(n: int, length: int, seed: int) -> Matrix:
    """Deterministic product of `length` uniformly chosen generators E_{k,l}(+-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if length < 0:
        raise ValueError("need length >= 0")
    rng = random.Random(seed)
    pairs = [(k, l) for k in range(n) for l in range(n) if k != l]
    rows = [list(r) for r in identity(n)]
    for _ in range(length):
        k, l = pairs[rng.randrange(len(pairs))]
        m = rng.choice((1, -1))
        # right-multiply by E_{k,l}(m): column l += m * column k
        for row in rows:
            row[l] += m * row[k]
    return tuple(tuple(r) for r in rows)


# --- JSON text format -------------------------------------------------------
#
# {"n": int, "entries": [[string, ...], ...]}  with exact decimal ("p") or
# rational ("p/q") strings, row-major.  Round-trips exactly.


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {"n": len(a), "entries": [[str(e) for e in row] for row in a]}


def matrix_from_json(obj, rational: bool = False) -> Matrix:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON needs 'n' and 'entries'")
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or n < 1 or len(entries) != n:
        raise ValueError("matrix JSON has inconsistent dimensions")
    rows = []
    for row in entries:
        if len(row) != n:
            raise ValueError("matrix JSON has inconsistent dimensions")
        if rational:
            rows.append(tuple(Fraction(str(e)) for e in row))
        else:
            rows.append(tuple(int(str(e), 10) for e in row))
    return tuple(rows)
