"""Null-space and hyperplane helpers shared by the certificate machinery.

Float paths go through SVD; exact paths run Gaussian elimination over
``Fraction`` so verdicts near degeneracy carry no rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .monomials import Number

_RTOL = 1e-9


def exact_nullspace(rows: Sequence[Sequence[Number]]) -> tuple[Optional[list[Fraction]], int]:
    """Gauss-Jordan reduction of A over ``Fraction``.

    Returns (v, rank): v is a non-zero rational vector with A v = 0, or None
    when A has full column rank.
    """
    if not rows:
        return None, 0
    ncols = len(rows[0])
    mat = [[Fraction(v) for v in r] for r in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivot_of_col]
    if not free:
        return None, r
    f0 = free[0]
    v = [Fraction(0)] * ncols
    v[f0] = Fraction(1)
    for c, row_idx in pivot_of_col.items():
        v[c] = -mat[row_idx][f0]
    return v, r


def float_nullspace_vector(rows: Sequence[Sequence[float]], rtol: float = _RTOL) -> Optional[np.ndarray]:
    """A unit-norm v with A v ~ 0, or None when A is numerically full column rank."""
    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return None
    _, sig, vh = np.linalg.svd(a)
    ncols = a.shape[1]
    if len(sig) < ncols:
        return vh[-1]
    if sig[0] == 0 or sig[-1] <= rtol * sig[0]:
        return vh[-1]
    return None


def nullspace_vector(rows, exact: bool):
    if exact:
        return exact_nullspace(rows)[0]
    v = float_nullspace_vector(rows)
    return None if v is None else list(v)


def affine_normal(
    points: Sequence[Sequence[Number]], exact: bool = False, rtol: float = _RTOL
) -> Optional[tuple[tuple[Number, ...], Number]]:
    """Hyperplane (u, a) with <u, p> = a through d points of R^d.

    Returns None when the points are affinely dependent, in which case the
    containing hyperplane is not unique.  Float normals are unit length with
    the first significant component positive; exact normals are rational,
    scaled so the first non-zero component equals 1.
    """
    d = len(points[0])
    if len(points) != d:
        raise ValueError(f"need exactly {d} points in dimension {d}, got {len(points)}")
    if d == 1:
        one = Fraction(1) if exact else 1.0
        return (one,), (Fraction(points[0][0]) if exact else float(points[0][0]))

    if exact:
        base = [Fraction(c) for c in points[0]]
        diffs = [[Fraction(c) - b for c, b in zip(p, base)] for p in points[1:]]
        # unique plane needs the differences to span a (d-1)-dimensional space
        u, rank = exact_nullspace(diffs)
        if rank != d - 1:
            return None
        lead = next(c for c in u if c != 0)
        u = tuple(c / lead for c in u)
        a = sum(c * b for c, b in zip(u, base))
        return u, a

    base = np.asarray(points[0], dtype=float)
    diffs = np.asarray([np.asarray(p, dtype=float) - base for p in points[1:]])
    _, sig, vh = np.linalg.svd(diffs)
    if sig[0] == 0 or sig[-1] <= rtol * sig[0]:
        return None
    u = vh[-1]
    lead = next((c for c in u if abs(c) > 1e-12), u[0])
    if lead < 0:
        u = -u
    a = float(np.mean([np.dot(u, np.asarray(p, dtype=float)) for p in points]))
    return tuple(float(c) for c in u), a

