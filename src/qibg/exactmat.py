"""Exact arbitrary-precision square-matrix arithmetic over Z and Q.

Matrices are immutable tuples of row tuples.  Integer matrices hold Python
ints, rational matrices hold ``fractions.Fraction`` values (always in lowest
terms).  Nothing in this module touches floating point except the logarithm
helpers used for norm statistics.
"""

from __future__ import annotations

import math
import operator
import random
import re
from decimal import Decimal
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


_INEXACT = "non-exact division in fraction-free elimination"


def _integer_rows(g: Matrix) -> tuple:
    """(h, scale): h = scale * g as an integer matrix, scale the least common
    denominator of the entries.  An all-int g is returned itself, with scale 1."""
    if all(isinstance(e, int) for row in g for e in row):
        return g, 1
    rows = [[Fraction(e) for e in row] for row in g]
    scale = math.lcm(*(e.denominator for row in rows for e in row))
    return tuple(tuple(int(e * scale) for e in row) for row in rows), scale


def determinant(a):
    """Exact determinant via one fraction-free (Bareiss) pass, ``_bareiss``.
    Rational input is scaled to integers by the least common denominator s,
    and det(s * a) / s^n comes back as a Fraction; integer input gives an int."""
    a = as_matrix(a)
    h, scale = _integer_rows(a)
    det = _bareiss([list(row) for row in h])[0]
    return det if h is a else Fraction(det, scale ** len(h))


def _bareiss(m: list) -> tuple:
    """(det, vanished): fraction-free elimination of the integer matrix m from
    its bottom-right corner, in place; the one elimination in the package.

    With D_j the determinant of the corner of size n - j, and D_n = 1, a pass
    in which no pivot vanishes leaves m[j][j] = D_j (so det = m[0][0]); the
    integers above the diagonal are the numerators of the upper unitriangular
    UL factor, u_plus[i][j] = m[i][j] / D_j for i < j, and those below it of
    the lower one, p_minus[k][c] = m[k][c] / D_{k+1} for c <= k.

    ``vanished`` is the size of the smallest corner minor (of size < n) that
    vanishes, or 0 if none does.  At a zero pivot the first row above with a
    nonzero entry in the pivot column is swapped in and the sign flipped, so
    the pass still yields the determinant; if no such row exists it stops and
    returns (0, vanished).  Every division is checked to be exact.
    """
    n = len(m)
    sign = 1
    vanished = 0
    prev = 1
    for j in range(n - 1, 0, -1):
        if m[j][j] == 0:
            vanished = vanished or n - j
            k = next((i for i in range(j) if m[i][j]), None)
            if k is None:
                return 0, vanished
            m[j], m[k] = m[k], m[j]
            sign = -sign
        pivot_row = m[j]
        p = pivot_row[j]
        for i in range(j):
            row = m[i]
            f = row[j]
            for c in range(j):
                q, r = divmod(row[c] * p - f * pivot_row[c], prev)
                if r:
                    raise ArithmeticError(_INEXACT)
                row[c] = q
        prev = p
    return sign * m[0][0], vanished


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
    """log max(1, |a|): 0 for the zero matrix, log |a| for any other integer one."""
    return log_abs(max(1, sup_norm(a)))


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

_EXACT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def exact_to_str(x) -> str:
    """Exact text of an int ("p") or of a Fraction ("p/q" unless integral).
    Digits go through Decimal, because str(int) refuses more than 4300."""
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        num, den = operator.index(x), 1
    text = str(Decimal(num))
    return text if den == 1 else f"{text}/{Decimal(den)}"


def exact_from_str(text, rational: bool = False):
    """Parse what ``exact_to_str`` writes: ASCII ``-?[0-9]+``, or also
    ``-?[0-9]+/[0-9]+`` when ``rational``.  Returns an int, or a Fraction when
    ``rational``; any other text, or a zero denominator, raises ValueError."""
    match = _EXACT_TEXT.fullmatch(text) if isinstance(text, str) else None
    if match is None or (match[2] and not rational):
        kind = "rational" if rational else "integer"
        raise ValueError(f"not an exact {kind}: {str(text)[:40]!r}")
    num = int(Decimal(match[1]))
    if not rational:
        return num
    den = int(Decimal(match[2] or "1"))
    if den == 0:
        raise ValueError(f"zero denominator: {text[:40]!r}")
    return Fraction(num, den)


def json_int(value, what: str) -> int:
    """A JSON integer as ``json`` parses it: an int, and not a bool.  Strings,
    floats and booleans raise ValueError rather than being coerced by int()."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {str(value)[:40]!r}")
    return value


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {"n": len(a), "entries": [[exact_to_str(e) for e in row] for row in a]}


def matrix_from_json(obj, rational: bool = False) -> Matrix:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON needs 'n' and 'entries'")
    n = json_int(obj["n"], "n")
    entries = obj["entries"]
    if (n < 1 or not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(row, list) or len(row) != n for row in entries)):
        raise ValueError("matrix JSON has inconsistent dimensions")
    return tuple(tuple(exact_from_str(e, rational) for e in row) for row in entries)
