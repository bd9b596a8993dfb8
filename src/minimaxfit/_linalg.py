"""Exact elimination for the LP's certification and hyperplanes for alternation.

`exact_solve` solves a basis block over ``Fraction`` for `lp._certify`;
`affine_normal` gives the hyperplane through d points, by SVD in float and
by Gaussian elimination over ``Fraction`` in exact mode, so verdicts near
degeneracy carry no rounding.
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
        candidates = [i for i in range(r, len(mat)) if mat[i][c]]
        if not candidates:
            continue
        # the sparsest pivot row fills in least; the reduced form does not depend on the choice
        pivot = min(candidates, key=lambda i: sum(1 for v in mat[i] if v))
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        prow = mat[r] = [v / pv if v else v for v in mat[r]]
        support = [j for j, v in enumerate(prow) if v]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                row = mat[i]
                for j in support:
                    row[j] -= f * prow[j]
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


def exact_solve(a: Sequence[Sequence[Number]], b: Sequence[Number]) -> Optional[list[Fraction]]:
    """x with A x = b for square A over ``Fraction``, or None when A is singular.

    A null vector of [A | -b] has a non-zero last entry exactly when A is
    non-singular; the elimination then makes that entry one.
    """
    if not a:
        return []
    v, _ = exact_nullspace([list(row) + [-bi] for row, bi in zip(a, b)])
    if v is None or v[-1] == 0:
        return None
    return v[:-1]


def affine_normal(
    points: Sequence[Sequence[Number]], exact: bool = False
) -> Optional[tuple[tuple[Number, ...], Number]]:
    """Hyperplane (u, a) with <u, p> = a through d points of R^d.

    Returns None when the points are affinely dependent (in float mode: the
    smallest singular value of the differences is at most 1e-9 times the
    largest), in which case the containing hyperplane is not unique.  Float
    normals are unit length with the first significant component positive;
    exact normals are rational, scaled so the first non-zero component equals 1.
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
    if sig[0] == 0 or sig[-1] <= _RTOL * sig[0]:
        return None
    u = vh[-1]
    lead = next((c for c in u if abs(c) > 1e-12), u[0])
    if lead < 0:
        u = -u
    a = float(np.mean([np.dot(u, np.asarray(p, dtype=float)) for p in points]))
    return tuple(float(c) for c in u), a

