"""Graded monomial bases and polynomial evaluation.

All types are immutable and all operations are pure; they work uniformly over
floats and exact rationals (``fractions.Fraction``), which is what makes the
exact certificate mode of the higher layers possible.

`lift_matrix` is the one monomial evaluator (`lift` is its row for a single
point) and `dot_rows` takes `dot` of every row.  Both are fixed bit for bit:
each power is Python's ``x ** e`` (numpy's vectorised pow differs in the last
bit for some values once e >= 3), each monomial multiplies its powers in
coordinate order, and the dot adds its terms left to right from zero
(``matrix @ c`` leaves the order of the sum to BLAS, and ``sum`` compensates
float rounding from Python 3.12 on).

`dot_rows` over shared rows is the package's one kernel for polynomial
values, moment sums and residuals: a fit's residuals, a certificate's
moment residual, a witness's margins and an LP's row check.  `dot` serves
a single point (`evaluate`) and an LP's objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of total degree <= `degree` in `dimension` variables.

    Ordering is graded lexicographic (total degree ascending, earlier
    coordinates dominating within a degree level), so the constant monomial
    comes first and the degree-(m-1) basis is a prefix of the degree-m basis:
    `SampleSet.lifted` reads every lower degree from one table's leading columns.
    """

    dimension: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]  # (e_1, ..., e_d) of each monomial x^e

    @property
    def size(self) -> int:
        return len(self.exponents)


def build_basis(dimension: int, degree: int) -> MonomialBasis:
    """Graded-lexicographic basis of all monomials with total degree <= degree."""
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    exps = [e for e in product(range(degree + 1), repeat=dimension) if sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), tuple(-c for c in e)))
    return MonomialBasis(dimension, degree, tuple(exps))


def lift(point: Sequence[Number], basis: MonomialBasis) -> list[Number]:
    """The vector of all basis monomial values at `point`, constant (int 1) first.

    Row 0 of `lift_matrix` over the point as a one-row object table.
    """
    return lift_matrix(np.array([point], dtype=object), basis)[0].tolist()


def lift_matrix(points: Union[np.ndarray, Sequence[Sequence[Number]]], basis: MonomialBasis) -> np.ndarray:
    """Array whose row i holds the value at points[i] of every basis monomial, constant first.

    A float (n, d) table gives a float64 matrix; an object one (of
    ``Fraction``, say) an object matrix of the table's own numbers, with int 1
    in the constant column.
    """
    table = np.array(points, ndmin=2)
    table = table if table.dtype == object else table.astype(float)
    coords = table.T.tolist()
    if len(coords) != basis.dimension:
        raise ValueError(f"points have dimension {len(coords)}, basis expects {basis.dimension}")
    powers: dict[tuple[int, int], np.ndarray] = {}
    matrix = np.ones((len(table), basis.size), dtype=table.dtype)
    for j, exponents in enumerate(basis.exponents):
        column = None
        for k, e in enumerate(exponents):
            if e:
                if (k, e) not in powers:
                    powers[k, e] = np.array([x**e for x in coords[k]], dtype=table.dtype)
                column = powers[k, e] if column is None else column * powers[k, e]
        if column is not None:
            matrix[:, j] = column
    return matrix


@dataclass(frozen=True)
class PolynomialModel:
    """Coefficient vector over a monomial basis, constant coefficient first."""

    basis: MonomialBasis
    coefficients: tuple[Number, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != self.basis.size:
            raise ValueError(
                f"{len(self.coefficients)} coefficients for a basis of size {self.basis.size}"
            )

    @property
    def degree(self) -> int:
        return self.basis.degree

    def __call__(self, point: Sequence[Number]) -> Number:
        return evaluate(self, point)


def dot(coeffs: Sequence[Number], lifted: Sequence[Number]) -> Number:
    """Inner product of a coefficient vector with a lifted point, summed left to right.

    A plain loop, not ``sum``, whose float path compensates its rounding from
    Python 3.12 on; `dot_rows` repeats this order.
    """
    total: Number = 0
    for c, g in zip(coeffs, lifted):
        total = total + c * g
    return total


def dot_rows(matrix: np.ndarray, coeffs: Sequence[Number]) -> np.ndarray:
    """`dot` of the coefficients with every row of a matrix, bit for bit.

    The matrix is float64 (a `lift_matrix`, say), or an object array of
    ``Fraction``, whose sums are then exact.
    """
    total = np.zeros(matrix.shape[0], dtype=matrix.dtype)
    for j, c in enumerate(coeffs):
        total += matrix.dtype.type(c) * matrix[:, j]
    return total


def evaluate(model: PolynomialModel, point: Sequence[Number]) -> Number:
    """Polynomial value: inner product of the coefficients with lift(point)."""
    return dot(model.coefficients, lift(point, model.basis))


WeightTriple = tuple[Number, Number, Number]  # (convex weight, factor, scalar value)


def shift_monomial_weights(
    weights_left: Sequence[WeightTriple],
    weights_right: Sequence[WeightTriple],
    delta: Number,
    tol: float = 1e-9,
) -> tuple[Number, Number]:
    """Both sides of the shifted weighted sum identity.

    Given triples (w_i, a_i, x_i) on the left and (v_i, b_i, y_i) on the right
    with matching weighted masses sum(w a) == sum(v b) and weighted moments
    sum(w a x) == sum(v b y), returns the two sides of

        sum_i w_i a_i (x_i - delta)  and  sum_i v_i b_i (y_i - delta),

    which agree for every scalar delta.  Hypotheses violated beyond `tol`
    (scaled) raise ValueError; pass tol=0 for exact rational inputs.
    """
    mass_l = sum(w * a for w, a, _ in weights_left)
    mass_r = sum(v * b for v, b, _ in weights_right)
    mom_l = sum(w * a * x for w, a, x in weights_left)
    mom_r = sum(v * b * y for v, b, y in weights_right)
    scale = max(1.0, *(abs(float(s)) for s in (mass_l, mass_r, mom_l, mom_r)))
    if abs(mass_l - mass_r) > tol * scale:
        raise ValueError(f"weighted masses differ: {mass_l} vs {mass_r}")
    if abs(mom_l - mom_r) > tol * scale:
        raise ValueError(f"weighted moments differ: {mom_l} vs {mom_r}")
    left = sum(w * a * (x - delta) for w, a, x in weights_left)
    right = sum(v * b * (y - delta) for v, b, y in weights_right)
    return left, right
