"""Exact elimination for the LP's certification, integer rows, and hyperplanes for alternation.

`exact_solve` solves a basis block exactly for `lp._certify` and for an
exact optimal basis's duals (`lp.duals`), and a hull test's proposed
support for `optimality.certified_meet`, by fraction-free elimination in
`exact_nullspace`, over rows that `integer_row` scales to integers.
`integer_rows` scales a whole table [A | b] that way, once: the
exact LP's certificate and row check (`lp._integers`) and the exact fit's
residuals read its rows through `monomials.dot_rows`.  A hyperplane's
normal has one formula in both arithmetics, the signed minors of its
points' differences (`_minors`): `integer_normals` gives the exact planes of
a batch of integer points, as primitive integer normals and offsets, and
`affine_normals` the float ones of a batch, as unit normals, each bit for
bit what `affine_normal` computes for its one plane in Python floats.
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
    """Fraction-free Gaussian elimination of A, which has at least one row (Bareiss, Math. Comp. 22, 1968).

    The rows are scaled to integers (`integer_row`).  A column with a
    non-zero entry below the pivots takes the first as pivot p, and each row
    below becomes (p * row - f * pivot row) / (the previous pivot), an exact
    division.  The pivot columns are those independent of the columns before
    them, as in Gauss-Jordan reduction.  Returns (v, rank): v is the null
    vector with 1 at the first free column and 0 at the other free columns,
    every entry a ``Fraction``, or None when A has full column rank.
    """
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


def affine_normal(points: Sequence[Sequence[Number]]) -> Optional[tuple[tuple[float, ...], float]]:
    """Float hyperplane (u, a) with <u, p> = a through d points of R^d, one at a time in Python floats.

    The normal U is the signed (d-1)-minors of the differences p_k - p_0
    (their generalised cross product, as `integer_normals` takes it), each
    minor expanded along its first row.  Returns None when the points are
    affinely dependent: when |U| is at most 1e-9 times the product of the
    |p_k - p_0|, which bounds it (Hadamard), in which case the containing
    hyperplane is not unique.  Else u is U over |U|, negated when its first
    component above 1e-12 in size (or its first, if none is) is negative,
    and a is the mean of the <u, p_k>; every sum runs in coordinate order.

    `verify_by_hyperplanes` takes its planes from `affine_normals`; this is
    the one-plane reference it is tested against bit for bit.
    """
    d = len(points[0])
    if len(points) != d:
        raise ValueError(f"need exactly {d} points in dimension {d}, got {len(points)}")
    if d == 1:
        return (1.0,), float(points[0][0])

    base = [float(c) for c in points[0]]
    diffs = [[float(c) - b for c, b in zip(p, base)] for p in points[1:]]

    def det(rows: list) -> float:
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, c in enumerate(rows[0]):
            term = c * det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total - term if j % 2 else total + term
        return total

    def norm(v: list) -> float:
        total = v[0] * v[0]
        for c in v[1:]:
            total = total + c * c
        return math.sqrt(total)

    U = [det([r[:j] + r[j + 1:] for r in diffs]) * (-1) ** j for j in range(d)]
    bound = norm(diffs[0])
    for r in diffs[1:]:
        bound = bound * norm(r)
    size = norm(U)
    if not size > _RTOL * bound:
        return None
    u = [c / size for c in U]
    if next((c for c in u if abs(c) > 1e-12), u[0]) < 0:
        u = [-c for c in u]
    total = 0.0
    for k, p in enumerate(points):
        dot = u[0] * float(p[0])
        for c, x in zip(u[1:], p[1:]):
            dot = dot + c * float(x)
        total = total + dot if k else dot
    return tuple(u), total / d


def affine_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float `affine_normal` of a batch: (u, a, unique) for a (B, d, d) float array of B sets of d points.

    Row b of u and a is bit for bit what `affine_normal` returns for
    ``points[b]`` wherever ``unique[b]`` holds, and ``unique[b]`` is False
    exactly where it returns None; u and a are zero there.  The minors are
    `integer_normals`' (`_minors` over floats), and every sum takes
    `affine_normal`'s order.  The work runs over the batch axis, one
    coordinate at a time.
    """
    count, d = points.shape[:2]
    if d == 1:
        return np.ones((count, 1)), points[:, 0, 0].copy(), np.ones(count, dtype=bool)
    P = np.ascontiguousarray(points.transpose(1, 2, 0))  # P[k, j]: coordinate j of point k, over the batch
    diffs = P[1:] - P[0]
    U = _minors(diffs)
    bound = _norms(diffs[0])
    for k in range(1, d - 1):
        bound = bound * _norms(diffs[k])
    size = _norms(U)
    unique = size > _RTOL * bound
    u = np.where(unique, U / np.where(unique, size, 1.0), 0.0)
    lead = u[np.argmax(np.abs(u) > 1e-12, axis=0), np.arange(count)]  # no such entry: the first
    u = np.where(lead < 0, -u, u)
    total = None  # the mean of the <u, p_k>
    for k in range(d):
        dot = u[0] * P[k, 0]
        for j in range(1, d):
            dot = dot + u[j] * P[k, j]
        total = dot if total is None else total + dot
    return u.T, total / d, unique


def unit_planes(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float planes, a (B, d) array of normals and their offsets, scaled to unit normals as `_norms` takes them."""
    norm = _norms(normals.T)
    return normals / norm[:, None], offsets / norm


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each column of a float (k, B) array, its squares summed over the rows in order."""
    total = v[0] * v[0]
    for k in range(1, len(v)):
        total = total + v[k] * v[k]
    return np.sqrt(total)


def integer_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact hyperplanes of a batch over integers: (U, A, unique) for a (B, d, d) object array of ints.

    Row b of U is the primitive integer normal of the plane <U, x> = A
    through ``points[b]``, its first non-zero entry positive, so (U, A)
    determines the plane, and the rational (u, a) with u's first non-zero
    entry 1 is (U, A) divided by that entry.  U starts as the signed
    (d-1) x (d-1) minors of the differences p_k - p_0 (their generalised
    cross product), which all vanish exactly where the points are affinely
    dependent: there ``unique`` is False.
    """
    count, d = points.shape[:2]
    U = _minors((points[:, 1:] - points[:, :1]).transpose(1, 2, 0)).T
    g = np.gcd.reduce(U, axis=1)
    unique = g != 0
    U = U // np.where(unique, g, 1)[:, None]
    lead = U[np.arange(count), np.argmax(U != 0, axis=1)]
    U = np.where((lead < 0)[:, None], -U, U)
    return U, (U * points[:, 0]).sum(axis=1), unique


def _minors(diffs: np.ndarray) -> np.ndarray:
    """The signed (d-1)-minors of (d-1) x d differences, a (d-1, d, B) stack: a (d, B) normal of each span.

    Ints or floats: one formula in both arithmetics.
    """
    return np.stack([_det(np.delete(diffs, j, axis=1)) * (-1) ** j for j in range(diffs.shape[1])])


def _det(M: np.ndarray) -> np.ndarray:
    """The determinants of a (k, k, B) stack of matrices, ints or floats, by expansion along the first row."""
    if len(M) == 0:
        return np.ones(M.shape[2:], dtype=M.dtype)
    if len(M) == 1:
        return M[0, 0]
    total = 0
    for j in range(len(M)):
        term = M[0, j] * _det(np.delete(M[1:], j, axis=1))
        total = total - term if j % 2 else total + term
    return total
