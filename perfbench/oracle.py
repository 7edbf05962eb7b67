"""The benchmark's own exact arithmetic and digests, independent of qibg.

Checks built on these helpers keep working when the library drops its
internal self-checks (the ``assert`` statements vanish under ``-O``, and
the self-check inside ``ul_factorize`` is slated to move out).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def mat_mul(a, b) -> tuple:
    """Exact product of two square matrices of ints or Fractions."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def det(a) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    m = [[Fraction(e) for e in row] for row in a]
    n = len(m)
    d = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            m[j], m[p] = m[p], m[j]
            d = -d
        d *= m[j][j]
        for i in range(j + 1, n):
            f = m[i][j] / m[j][j]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return d


def corner_minors(a) -> tuple:
    """Determinants of the bottom-right j x j corners, j = 1..n-1."""
    n = len(a)
    return tuple(det([row[n - j:] for row in a[n - j:]]) for j in range(1, n))


def is_lower_triangular(p) -> bool:
    return all(p[i][j] == 0 for i in range(len(p)) for j in range(i + 1, len(p)))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    """Digest of a JSON-ready object in canonical form."""
    return digest(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def ordering_digest(proj, ordering) -> str:
    """Digest of a projection and the exact content of its ordering: the
    classes (as root strings) and their rays."""
    return json_digest({
        "u": list(proj.u),
        "w": list(proj.w),
        "classes": [[[str(c) for c in r] for r in cls]
                    for cls in ordering.positive_classes],
        "rays": [list(ray) for ray in ordering.class_rays],
    })


def class_positions(ordering) -> tuple:
    """0-based (row, col) per class of an A_{n-1} ordering: the root
    e_a - e_b sits at (a, b)."""
    return tuple((cls[0].index(1), cls[0].index(-1))
                 for cls in ordering.positive_classes)


def supported_on(u, positions) -> bool:
    """True iff u is unitriangular with off-diagonal entries only at positions."""
    allowed = set(positions)
    return all(u[i][j] == (1 if i == j else 0)
               for i in range(len(u)) for j in range(len(u))
               if i == j or (i, j) not in allowed)
