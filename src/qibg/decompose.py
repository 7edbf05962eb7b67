"""Factor SL(n,Z) matrices into at most n^2 - n embedded SL(2,Z) block factors.

Two strategies are provided.  The column-major sweep clears the strict lower
triangle column by column with gcd blocks and then the upper triangle with
elementary blocks.  The clockwise strategy annihilates the unipotent
component of the matrix one ray class at a time, in the clockwise order of
the classes; closedness of the right-of-ray root sets guarantees that a class
once annihilated stays annihilated, and the runtime counter verifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bigcell import NotInBigCell, ul_factorize
# determinant and multiply are no longer called here, but stay importable:
# the benchmark's tracer (perfbench/tracer.py) wraps qibg.decompose.determinant
# and qibg.decompose.multiply (and the public embed below).
from .exactmat import (as_matrix, check_unimodular, determinant, exact_from_str, exact_to_str,
                       identity, json_int, log_abs, log_sup_norm, multiply, sup_norm)
from .rootsys import ClassOrdering, sl_block_positions, sl_class_ordering
from .sl2 import block_det, block_inverse, ext_gcd, gcd_transform

COLUMN_MAJOR = "column_major"
CLOCKWISE = "clockwise"
STRATEGIES = (COLUMN_MAJOR, CLOCKWISE)


@dataclass(frozen=True)
class BlockFactor:
    """One SL(2,Z) element supported on rows/columns (k, l), 1-based."""

    k: int
    l: int
    block: tuple  # ((int, int), (int, int)), determinant 1


@dataclass(frozen=True)
class Factorization:
    n: int
    strategy: str
    factors: tuple


@dataclass(frozen=True)
class QuasiIsometryStats:
    input_log_norm: float
    per_factor_log_norms: tuple
    max_ratio: float


@dataclass(frozen=True)
class VerificationReport:
    product_ok: bool
    count_ok: bool
    support_ok: bool
    factor_count: int
    factor_limit: int
    stats: QuasiIsometryStats

    @property
    def all_ok(self) -> bool:
        return self.product_ok and self.count_ok and self.support_ok


@dataclass
class ClockwiseDiagnostics:
    reannihilations: int = 0
    omega_fallback: bool = False
    classes_annihilated: int = 0


def embed(f: BlockFactor, n: int):
    """Expand a block factor to the n x n matrix supported on its block."""
    if not (1 <= f.k <= n and 1 <= f.l <= n) or f.k == f.l:
        raise ValueError(f"block position ({f.k}, {f.l}) out of range for n={n}")
    rows = [list(r) for r in identity(n)]
    (b00, b01), (b10, b11) = f.block
    k, l = f.k - 1, f.l - 1
    rows[k][k] = b00
    rows[k][l] = b01
    rows[l][k] = b10
    rows[l][l] = b11
    return tuple(tuple(r) for r in rows)


def _left_mult_block(rows, k: int, l: int, block) -> None:
    """rows <- embed(block at k,l) * rows, updating the two touched rows."""
    (b00, b01), (b10, b11) = block
    rk, rl = rows[k - 1], rows[l - 1]
    new_k = [b00 * x + b01 * y for x, y in zip(rk, rl)]
    new_l = [b10 * x + b11 * y for x, y in zip(rk, rl)]
    rows[k - 1] = new_k
    rows[l - 1] = new_l


def _column_sweep(rows, emit) -> None:
    """Clear the strict lower triangle with gcd blocks, forcing unit diagonal."""
    n = len(rows)
    for j in range(n - 1):
        for i in range(j + 1, n):
            a, b = rows[j][j], rows[i][j]
            if b == 0 and a >= 0:
                continue
            t = gcd_transform(a, b)
            _left_mult_block(rows, j + 1, i + 1, t.matrix)
            emit(BlockFactor(j + 1, i + 1, block_inverse(t.matrix)))
        if rows[j][j] != 1 or any(rows[i][j] != 0 for i in range(j + 1, n)):
            raise AssertionError(f"column {j + 1} is not cleared to a unit pivot")


def _is_identity(rows) -> bool:
    n = len(rows)
    return all(rows[i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(n))


def decompose_column_major(matrix) -> Factorization:
    """Column-by-column gcd sweep followed by upper-triangular cleanup.

    The sweep's intermediate entries are not minors of the input, and on
    random words they grow exponentially with n.  Measured on
    ``random_word(n, 4 * n, seed)``, seeds 1-5 (entries of at most 4 bits),
    the largest factor entry has 12-624 bits at n=32, 16-1449 at n=48 and
    up to 836,882 at n=56.  The guaranteed norm bound is +inf from n=33, so
    ``violations`` reads 0 there whatever the growth.
    """
    m = check_unimodular(as_matrix(matrix))
    n = len(m)
    rows = [list(r) for r in m]
    factors = []
    _column_sweep(rows, factors.append)
    for r in range(n - 2, -1, -1):
        for c in range(r + 1, n):
            v = rows[r][c]
            if v:
                _left_mult_block(rows, r + 1, c + 1, ((1, -v), (0, 1)))
                factors.append(BlockFactor(r + 1, c + 1, ((1, v), (0, 1))))
    if not _is_identity(rows):
        raise AssertionError("sweep did not reach the identity")
    fac = Factorization(n, COLUMN_MAJOR, tuple(factors))
    _check_norm_control(fac, guaranteed_log_norm_bound(n, m))
    return fac


def _annihilator_block(s: Fraction):
    """x in SL(2,Z) with x^{-1} [[1, s], [0, 1]] lower triangular over Q."""
    num, den = s.numerator, s.denominator
    g, a, t = ext_gcd(den, num)
    if g != 1:
        raise AssertionError(f"gcd({den}, {num}) is {g}, not 1")
    c = -t
    # minimal residue keeps |a| <= |num|/2 + 1 and |c| <= den/2
    c %= den
    if 2 * c > den:
        c -= den
    a = (1 + c * num) // den
    return ((a, num), (c, den))


def decompose_clockwise(matrix, ordering: ClassOrdering | None = None) -> Factorization:
    fac, _ = clockwise_with_diagnostics(matrix, ordering)
    return fac


def clockwise_with_diagnostics(matrix, ordering: ClassOrdering | None = None):
    """Clockwise class annihilation; returns the factorization and counters.

    Requires an A_{n-1} ordering whose positive system is the standard one.
    The first class's UL factorization decides big-cell membership.  For
    inputs outside the big cell a preliminary column sweep moves the matrix
    into it (the sweep output is unipotent, where every corner minor is 1);
    the class annihilation then runs unchanged.
    """
    m = check_unimodular(as_matrix(matrix))
    n = len(m)
    if ordering is None:
        ordering = sl_class_ordering(n)
    positions = sl_block_positions(ordering)
    if len(positions) != n * (n - 1) // 2 or any(b > n for _, b in positions):
        raise ValueError("ordering does not match the matrix dimension")
    diag = ClockwiseDiagnostics()
    if n == 2:
        # one class only; the strategies coincide by definition
        base = decompose_column_major(m)
        return Factorization(n, CLOCKWISE, base.factors), diag

    rows = [list(r) for r in m]
    factors = []
    done: list[tuple[int, int]] = []
    for a, b in positions:
        try:
            u_plus = ul_factorize(rows).u_plus
        except NotInBigCell:
            if done:
                raise
            diag.omega_fallback = True
            _column_sweep(rows, factors.append)
            u_plus = ul_factorize(rows).u_plus
        for pa, pb in done:
            if u_plus[pa - 1][pb - 1] != 0:
                diag.reannihilations += 1
        s = u_plus[a - 1][b - 1]
        if s != 0:
            x = _annihilator_block(Fraction(s))
            _left_mult_block(rows, a, b, block_inverse(x))
            factors.append(BlockFactor(a, b, x))
            diag.classes_annihilated += 1
        done.append((a, b))

    if any(rows[r][c] != 0 for r in range(n) for c in range(r + 1, n)):
        raise AssertionError("class annihilation did not reach the lower parabolic")

    # lower-triangular cleanup; the diagonal is +-1 with product 1, and the
    # 2x2 blocks [[d, 0], [-b, d]] absorb the signs while clearing entries
    for j in range(n - 1):
        for i in range(j + 1, n):
            d, bval = rows[j][j], rows[i][j]
            if bval == 0 and d == 1:
                continue
            block = ((d, 0), (-bval, d))
            _left_mult_block(rows, j + 1, i + 1, block)
            factors.append(BlockFactor(j + 1, i + 1, block_inverse(block)))
    if not _is_identity(rows):
        raise AssertionError("cleanup did not reach the identity")

    fac = Factorization(n, CLOCKWISE, tuple(factors))
    _check_norm_control(fac, guaranteed_log_norm_bound(n, m, 2.0 * n + 4.0, extra_exponent=1))
    return fac, diag


def _power_or_inf(base: float, exponent: int) -> float:
    """base ** exponent as a float, or +inf where it exceeds the largest float.

    Every log norm compared against such a bound is a finite float, so an
    infinite bound decides each comparison exactly as the true one would.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def guaranteed_log_norm_bound(n: int, matrix, base: float = 2.0,
                              extra_exponent: int = 0) -> float:
    """Per-factor log-norm ceiling base^(n^2-n+extra_exponent) * max(1, log(n * |matrix|));
    +inf once the ceiling exceeds the largest float (n >= 33 for the default base 2).

    The defaults give the column-major guarantee; the clockwise strategy is held
    to base 2n+4 with one extra exponent."""
    return (_power_or_inf(base, n * n - n + extra_exponent)
            * max(1.0, log_abs(n * sup_norm(matrix))))


def _factor_log_norm(f: BlockFactor) -> float:
    (b00, b01), (b10, b11) = f.block
    return log_abs(max(1, abs(b00), abs(b01), abs(b10), abs(b11)))


def _check_norm_control(fac: Factorization, bound: float) -> None:
    # log_abs is nondecreasing, so one log of the largest entry decides for all
    top = max((abs(e) for f in fac.factors for row in f.block for e in row), default=1)
    if log_abs(max(1, top)) > bound:
        raise AssertionError("factor norm exceeds the guaranteed growth bound")


def quasi_isometry_stats(matrix, fac: Factorization) -> QuasiIsometryStats:
    """Per-factor log norms against the input log norm (ratio floor at 1)."""
    m = as_matrix(matrix)
    input_log = log_sup_norm(m)
    # Built from a list: tuple() of an iterator of unknown length grows by
    # resizing, which fragments the small-object heap; over a few thousand
    # n=5 campaign calls that grew the process by about 4 MiB.
    per = tuple([_factor_log_norm(f) for f in fac.factors])
    max_ratio = max(per) / max(1.0, input_log) if per else 0.0
    return QuasiIsometryStats(input_log, per, max_ratio)


def verify(matrix, fac: Factorization) -> VerificationReport:
    """Exact product, count, and support checks; failures are fields."""
    m = as_matrix(matrix)
    n = len(m)
    limit = n * n - n
    support_ok = fac.n == n
    embeddable = []
    for f in fac.factors:
        good = (1 <= f.k <= n and 1 <= f.l <= n and f.k != f.l
                and block_det(f.block) == 1)
        support_ok = support_ok and good
        if good:
            embeddable.append(f)
    # prod <- prod * embed(f): only columns k and l of each row change
    prod = [list(r) for r in identity(n)]
    for f in embeddable:
        (b00, b01), (b10, b11) = f.block
        k, l = f.k - 1, f.l - 1
        for row in prod:
            x, y = row[k], row[l]
            row[k] = x * b00 + y * b10
            row[l] = x * b01 + y * b11
    product_ok = (len(embeddable) == len(fac.factors)
                  and tuple(map(tuple, prod)) == m)
    return VerificationReport(
        product_ok=product_ok,
        count_ok=len(fac.factors) <= limit,
        support_ok=support_ok,
        factor_count=len(fac.factors),
        factor_limit=limit,
        stats=quasi_isometry_stats(m, fac),
    )


# --- JSON ---------------------------------------------------------------------


def factorization_to_json(fac: Factorization) -> dict:
    return {
        "n": fac.n,
        "strategy": fac.strategy,
        "factors": [
            {"k": f.k, "l": f.l,
             "block": [[exact_to_str(e) for e in row] for row in f.block]}
            for f in fac.factors
        ],
    }


def factorization_from_json(obj) -> Factorization:
    if not isinstance(obj, dict) or not {"n", "strategy", "factors"} <= set(obj):
        raise ValueError("factorization JSON needs 'n', 'strategy' and 'factors'")
    n = json_int(obj["n"], "n")
    if obj["strategy"] not in STRATEGIES:
        raise ValueError(f"unknown strategy {str(obj['strategy'])[:40]!r}")
    if not isinstance(obj["factors"], list):
        raise ValueError("'factors' must be a list")
    factors = []
    for f in obj["factors"]:
        if not isinstance(f, dict) or not {"k", "l", "block"} <= set(f):
            raise ValueError("each factor needs 'k', 'l' and 'block'")
        rows = f["block"]
        if not isinstance(rows, list) or len(rows) != 2 or any(
                not isinstance(r, list) or len(r) != 2 for r in rows):
            raise ValueError("blocks must be 2x2")
        block = tuple(tuple(exact_from_str(e) for e in r) for r in rows)
        factors.append(BlockFactor(json_int(f["k"], "k"), json_int(f["l"], "l"), block))
    return Factorization(n, obj["strategy"], tuple(factors))
