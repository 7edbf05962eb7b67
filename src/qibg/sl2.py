"""Euclidean kernel: 2x2 determinant-1 transforms sending (a, b) to (gcd, 0).

The returned matrix always has g > 0 in the first output slot and satisfies
the norm bound sup|entries| <= max(|a|, |b|, 1), which is what gives the
factorization algorithms their per-step norm control.
"""

from __future__ import annotations

from dataclasses import dataclass

Block = tuple  # ((int, int), (int, int))


@dataclass(frozen=True)
class GcdTransform:
    matrix: Block
    g: int


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, p, q) with p*a + q*b = g and g = gcd(a, b) > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gcd_transform(a: int, b: int) -> GcdTransform:
    """SL(2,Z) matrix M with M(a, b)^T = (g, 0)^T, g = gcd > 0, |M| <= max(|a|,|b|,1)."""
    if a == 0 and b == 0:
        raise ValueError("gcd transform undefined for the zero vector")
    if b == 0:
        if a > 0:
            return GcdTransform(((1, 0), (0, 1)), a)
        return GcdTransform(((-1, 0), (0, -1)), -a)
    if a == 0:
        if b > 0:
            return GcdTransform(((0, 1), (-1, 0)), b)
        return GcdTransform(((0, -1), (1, 0)), -b)
    g, p, _ = ext_gcd(a, b)
    # Reduce p to the minimal absolute residue mod |b|/g; this pins
    # |p| <= |b/g| and |q| <= |a/g|, hence the sup-norm bound.
    m = abs(b) // g
    p %= m
    if 2 * p > m:
        p -= m
    q = (g - p * a) // b
    mat = ((p, q), (-(b // g), a // g))
    if p * a + q * b != g:
        raise AssertionError(f"Bezout identity fails for ({a}, {b})")
    return GcdTransform(mat, g)


def apply_block(mat: Block, v: tuple[int, int]) -> tuple[int, int]:
    (m00, m01), (m10, m11) = mat
    return (m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1])


def block_det(mat: Block):
    (m00, m01), (m10, m11) = mat
    return m00 * m11 - m01 * m10


def block_inverse(mat: Block) -> Block:
    """Inverse of a determinant-1 2x2 block."""
    (m00, m01), (m10, m11) = mat
    return ((m11, -m01), (-m10, m00))
