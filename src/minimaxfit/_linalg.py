"""Exact elimination for the LP's certification, integer rows, and hyperplanes for alternation.

`exact_solve` solves a basis block exactly for `lp._certify`, and a hull
test's proposed support for `optimality.exact_weights`; `affine_normal`
gives the hyperplane through d points, by SVD in float and by
fraction-free elimination over integers in exact mode, so verdicts near
degeneracy carry no rounding.  Both eliminate in `exact_nullspace`, over
rows that `integer_row` scales to integers.  `integer_rows` scales a whole
table [A | b] that way, once: the exact LP's certificate and row check
(`lp._integers`) and the exact fit's residuals read its rows through
`monomials.dot_rows`.  `affine_normals` gives the float hyperplanes of a
whole batch of d-point sets at once, each bit for bit `affine_normal`'s,
and `integer_normals` the exact ones of a batch of integer points, as
primitive integer normals and offsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .monomials import Number

_RTOL = 1e-9


def integer_row(values: Sequence[Number]) -> tuple[list[int], int]:
    """The numbers as integers over the lcm D of their denominators: (D * values, D).

    An int or ``Fraction`` is read as it is, any other number through ``Fraction``.
    """
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*[v.denominator for v in exact])
    return [v.numerator * (den // v.denominator) for v in exact], den


def integer_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, V, D), object arrays of ints: row i of [A | b] is [N_i | V_i] / D_i, D_i the lcm of its denominators."""
    scaled = [integer_row([*a, v]) for a, v in zip(A.tolist(), b.tolist())]
    N = np.array([row for row, _ in scaled], dtype=object).reshape(len(scaled), A.shape[1] + 1)
    return N[:, :-1], N[:, -1], np.array([den for _, den in scaled], dtype=object)


def exact_nullspace(rows: Sequence[Sequence[Number]]) -> tuple[Optional[list[Fraction]], int]:
    """Fraction-free Gaussian elimination of A (Bareiss, Math. Comp. 22, 1968).

    The rows are scaled to integers (`integer_row`).  A column with a
    non-zero entry below the pivots takes the first as pivot p, and each row
    below becomes (p * row - f * pivot row) / (the previous pivot), an exact
    division.  The pivot columns are those independent of the columns before
    them, as in Gauss-Jordan reduction.  Returns (v, rank): v is the null
    vector with 1 at the first free column and 0 at the other free columns,
    every entry a ``Fraction``, or None when A has full column rank.
    """
    if not rows:
        return None, 0
    ncols = len(rows[0])
    mat = [integer_row(r)[0] for r in rows]
    pivots: list[int] = []  # the pivot column of each echelon row
    det = 1  # the last pivot: the determinant of the pivot block
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow, p = mat[r], mat[r][c]
        for i in range(r + 1, len(mat)):  # also where f == 0, so that every entry stays a minor
            f = mat[i][c]
            mat[i] = [(p * a - f * b) // det for a, b in zip(mat[i], prow)]
        pivots.append(c)
        det = p
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None, len(pivots)
    w = [0] * ncols  # det * v, integral by Cramer's rule
    w[free[0]] = det
    for k in reversed(range(len(pivots))):
        row = mat[k]
        w[pivots[k]] = -sum(row[c] * w[c] for c in [free[0], *pivots[k + 1:]]) // row[pivots[k]]
    return [Fraction(v, det) for v in w], len(pivots)


def exact_solve(a: Sequence[Sequence[Number]], b: Sequence[Number]) -> Optional[list[Fraction]]:
    """The unique x with A x = b, as ``Fraction``s, or None when there is none or more than one.

    A null vector of [A | -b] has a non-zero last entry exactly when A's
    columns are linearly independent and b is in their span (for square A:
    when A is non-singular); the elimination then makes that entry one.
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

    `verify_by_hyperplanes` takes its planes from `affine_normals` and
    `integer_normals`; this is the one-plane reference they are tested
    against.
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


def affine_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float `affine_normal` of a batch: (u, a, unique) for a (B, d, d) array of B sets of d points.

    Row b of u and a is bit for bit what `affine_normal` returns for
    ``points[b]`` wherever ``unique[b]`` holds, and ``unique[b]`` is False
    exactly where it returns None.  One batched SVD runs the same LAPACK
    routine on the same differences, and each offset is the mean of the same
    dot products: a vector-by-vector `np.matmul` takes the dot kernel of
    `np.dot`, whose sums another order or `einsum` would not reproduce.
    """
    count, d = points.shape[:2]
    if d == 1:
        return np.ones((count, 1)), points[:, 0, 0].copy(), np.ones(count, dtype=bool)
    _, sig, vh = np.linalg.svd(points[:, 1:] - points[:, :1])
    unique = sig[:, -1] > _RTOL * sig[:, 0]  # false also where sig[0] == 0, as sig is non-negative
    u = vh[:, -1]
    lead = u[np.arange(count), np.argmax(np.abs(u) > 1e-12, axis=1)]  # no such entry: the first
    u = np.where((lead < 0)[:, None], -u, u)
    a = np.add.reduce(np.matmul(points[:, :, None, :], u[:, None, :, None])[:, :, 0, 0], axis=1) / d  # np.mean
    return u, a, unique


def integer_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact hyperplanes of a batch over integers: (U, A, unique) for a (B, d, d) object array of ints.

    Row b of U is the primitive integer normal of the plane <U, x> = A
    through ``points[b]``, its first non-zero entry positive, so (U, A)
    determines the plane and `affine_normal`'s exact (u, a) is (U, A)
    divided by that entry.  U starts as the signed (d-1) x (d-1) minors of
    the differences p_k - p_0 (their generalised cross product), which all
    vanish exactly where the points are affinely dependent: there
    ``unique`` is False.
    """
    count, d = points.shape[:2]
    diffs = points[:, 1:] - points[:, :1]
    U = np.stack([_det(np.delete(diffs, j, axis=2)) * (-1) ** j for j in range(d)], axis=1)
    g = np.gcd.reduce(U, axis=1)
    unique = g != 0
    U = U // np.where(unique, g, 1)[:, None]
    lead = U[np.arange(count), np.argmax(U != 0, axis=1)]
    U = np.where((lead < 0)[:, None], -U, U)
    return U, (U * points[:, 0]).sum(axis=1), unique


def _det(M: np.ndarray) -> np.ndarray:
    """The determinants of a stack of k x k object matrices, by expansion along the first row."""
    if M.shape[1] == 0:
        return np.ones(len(M), dtype=object)
    total = 0
    for j in range(M.shape[1]):
        term = M[:, 0, j] * _det(np.delete(M[:, 1:], j, axis=2))
        total = total - term if j % 2 else total + term
    return total
