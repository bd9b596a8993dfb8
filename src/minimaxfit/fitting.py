"""Best uniform approximation on a finite sample set, and its extreme sets.

The fit solves the linear program

    minimise z  s.t.  -z <= f(x_i) - <A, lift(x_i)> <= z   for every sample,

via a working-set loop: solve the LP on a subset, add the worst violator,
repeat until no sample deviates beyond the subset optimum.  At termination
the model is optimal for the full set, and the LP kernel only ever sees
small dense problems.  In float mode each round appends the new point's two
rows to the last round's LP and starts the solve from its optimal basis
(``start`` of `lp.solve`), so the two-phase simplex runs in the first round
only, and wherever that warm start gives up.  Exact fits solve every round
from scratch on the working set in sorted order: where the minimax
coefficients are not unique (a symmetric 2-D grid), a warm basis or another
row order certifies another optimum of the same psi.

Residuals follow the convention r(x) = f(x) - L(A, x), so the positive
extreme set holds points where the target sits above the model.

`SampleSet.lifted` is the one place a sample point is lifted; the fit and
every verifier read their rows from it.  Exact rows are made on first
request, once per degree, so checking the extreme points lifts only those.
Float rows are rows of one float64 matrix per degree (`lift_matrix`), and
every float residual pass is `dot_rows` over it: the fit's working-set loop
(worst point by `np.argmax`, whose first-index rule is the tie rule of the
exact loop), and `extreme_sets` and `compute_psi` when every sample
coordinate and value is a Python float.  The matrix repeats `lift` and `dot`
bit for bit (see `monomials`), so both forms give the same residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .lp import LinearProgram, LpFailure, solve, solve_exact
from .monomials import Number, PolynomialModel, build_basis, dot, dot_rows, evaluate, lift, lift_matrix

DUPLICATE_TOL = 1e-12
DEGENERATE_PSI = 1e-12
DEFAULT_REL_TOL = 1e-8


def _finite(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) or math.isfinite(x)  # no float() of a huge rational


class SampleSet:
    """Finite set of d-dimensional points with target values f(x).

    Points must be pairwise distinct (coordinate tolerance 1e-12) and every
    coordinate and value finite.  Values may be ints, floats or Fractions;
    exact-mode operations convert through ``Fraction`` without loss.
    """

    def __init__(self, points: Sequence[Sequence[Number]], values: Sequence[Number]):
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("sample set must contain at least one point")
        d = len(pts[0])
        if d < 1:
            raise ValueError("points must have at least one coordinate")
        vals = list(values)
        if len(vals) != len(pts):
            raise ValueError(f"{len(vals)} values for {len(pts)} points")
        for k, p in enumerate(pts):
            if len(p) != d:
                raise ValueError(f"point {k} has dimension {len(p)}, expected {d}")
        flat = list(chain(*pts, vals))
        # Python floats only: then the float view is the samples themselves
        self._floats = set(map(type, flat)) == {float}
        if not (np.isfinite(flat).all() if self._floats else all(map(_finite, flat))):
            bad = next(k for k, x in enumerate(flat) if not _finite(x))
            if bad < len(pts) * d:
                raise ValueError(f"point {bad // d} has a coordinate that is not finite: {pts[bad // d]}")
            raise ValueError(f"value {bad - len(pts) * d} is not finite: {flat[bad]}")
        self._check_duplicates(pts, self._floats)
        self.dimension = d
        self.points: tuple[tuple[Number, ...], ...] = tuple(pts)
        self.values: tuple[Number, ...] = tuple(vals)
        self._views: dict[bool, tuple] = {}
        self._lifted: dict[tuple[int, bool], tuple] = {}  # (degree, exact) -> (basis, rows)
        self._matrices: dict[int, np.ndarray] = {}  # degree -> float lift_matrix

    @staticmethod
    def _check_duplicates(pts, floats: bool):
        keys = pts
        if not floats:
            try:
                keys = [tuple(map(float, p)) for p in pts]  # rational arithmetic is slow
            except OverflowError:  # a finite rational beyond float range: compare exactly
                pass
        keyed = sorted((p, k) for k, p in enumerate(keys))
        for a in range(len(keyed)):
            pa, ia = keyed[a]
            for b in range(a + 1, len(keyed)):
                pb, ib = keyed[b]
                if pb[0] - pa[0] > DUPLICATE_TOL:
                    break
                if all(abs(x - y) <= DUPLICATE_TOL for x, y in zip(pa, pb)):
                    raise ValueError(f"duplicate points at indices {min(ia, ib)} and {max(ia, ib)}")

    def __len__(self) -> int:
        return len(self.points)

    def view(self, exact: bool) -> tuple[tuple[tuple[Number, ...], ...], tuple[Number, ...]]:
        """Points and values as ``Fraction`` (exact) or ``float``, converted on first use.

        Every verifier reads the samples through this view, so repeated calls
        (one per candidate hyperplane, say) share one conversion.
        """
        if exact not in self._views:
            conv = Fraction if exact else float
            self._views[exact] = (
                tuple(tuple(conv(c) for c in p) for p in self.points),
                tuple(conv(v) for v in self.values),
            )
        return self._views[exact]

    def lifted_matrix(self, degree: int) -> np.ndarray:
        """`lift_matrix` of the float view over the degree-`degree` basis, built once."""
        if degree not in self._matrices:
            self._matrices[degree] = lift_matrix(self.view(False)[0], build_basis(self.dimension, degree))
        return self._matrices[degree]

    def lifted(self, indices: Sequence[int], degree: int, exact: bool) -> list[tuple[Number, ...]]:
        """Rows lift(x_i) of the `view(exact)` points over the degree-`degree` basis, i in `indices`.

        Exact rows are lifted the first time they are asked for; float rows
        are read from `lifted_matrix`.  Either way a row is made once per
        degree and arithmetic, then shared by every later caller.
        """
        if (degree, exact) not in self._lifted:
            self._lifted[degree, exact] = (build_basis(self.dimension, degree), [None] * len(self.points))
        basis, rows = self._lifted[degree, exact]
        pts = self.view(True)[0] if exact else None
        matrix = None if exact else self.lifted_matrix(degree)
        for i in indices:
            if rows[i] is None:
                rows[i] = tuple(lift(pts[i], basis)) if exact else tuple(matrix[i].tolist())
        return [rows[i] for i in indices]


@dataclass(frozen=True)
class FitResult:
    model: PolynomialModel
    psi: Number  # max |residual|, by construction from the residuals
    residuals: tuple[Number, ...]  # f(x_i) - L(A, x_i), aligned with the samples


@dataclass(frozen=True)
class ExtremeSets:
    """Indices of maximal positive (plus) and negative (minus) deviation."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    psi: Number
    rel_tol: float
    degenerate: bool = False


def fit_minimax(samples: SampleSet, degree: int, exact: bool = False) -> FitResult:
    """Coefficients minimising max |f(x) - L(A, x)| over the sample set."""
    basis = build_basis(samples.dimension, degree)
    if basis.size > len(samples):
        warnings.warn(
            f"basis size {basis.size} exceeds sample count {len(samples)}; fit is underdetermined",
            stacklevel=2,
        )
    vals = samples.view(exact)[1]
    n = len(vals)
    if exact:
        lifts = samples.lifted(range(n), degree, True)
    else:
        matrix, targets = samples.lifted_matrix(degree), np.array(vals)

    nc = basis.size
    objective = [0] * nc + [1]
    bounds = [(None, None)] * nc + [(0, None)]

    k0 = min(n, 2 * (nc + 2))
    if k0 <= 1:
        working = {0}
    else:
        working = {round(i * (n - 1) / (k0 - 1)) for i in range(k0)}

    def rows_of(indices):
        for i, u in zip(indices, samples.lifted(indices, degree, exact)):
            yield (list(u) + [-1], "<=", vals[i])
            yield ([-g for g in u] + [-1], "<=", -vals[i])

    rows = list(rows_of(sorted(working)))
    start = None
    while True:
        lp = LinearProgram(objective, rows, bounds)
        sol = solve_exact(lp) if exact else solve(lp, start=start)
        if sol.status != "optimal":
            raise LpFailure(
                f"minimax LP came back {sol.status}",
                {"working_set": len(working), "samples": n, "degree": degree},
            )
        coeffs = sol.x[:nc]
        z = sol.x[nc]

        if exact:
            residuals = [vals[i] - dot(coeffs, lifts[i]) for i in range(n)]
            worst_i = max(range(n), key=lambda i: (abs(residuals[i]), -i))
            worst = abs(residuals[worst_i])
        else:
            residuals = targets - dot_rows(matrix, coeffs)
            worst_i = int(np.argmax(np.abs(residuals)))
            worst = float(abs(residuals[worst_i]))
        slack = 0 if exact else 1e-9 * max(1.0, float(z)) + 1e-12
        if worst <= z + slack or worst_i in working:
            break
        working.add(worst_i)
        if exact:  # every round afresh on sorted rows (see the module docstring)
            rows = list(rows_of(sorted(working)))
        else:
            rows += rows_of([worst_i])
            start = sol

    model = PolynomialModel(basis, tuple(coeffs))
    residuals = tuple(residuals if exact else residuals.tolist())
    return FitResult(model=model, psi=worst, residuals=residuals)


def _model_residuals(model: PolynomialModel, samples: SampleSet) -> list[Number]:
    """f(x_i) - L(A, x_i) at every sample, over `lifted_matrix` when the samples are Python floats."""
    if not samples._floats or model.basis.dimension != samples.dimension:
        return [v - evaluate(model, p) for p, v in zip(samples.points, samples.values)]
    fitted = dot_rows(samples.lifted_matrix(model.degree), model.coefficients)
    return (np.array(samples.values) - fitted).tolist()


def compute_psi(model: PolynomialModel, samples: SampleSet) -> Number:
    """Uniform error max |f(x) - L(A, x)| over the samples."""
    return max(map(abs, _model_residuals(model, samples)))


def partition_extremes(residuals: Sequence[Number], rel_tol: float = DEFAULT_REL_TOL) -> ExtremeSets:
    """Partition the maximal-deviation points by residual sign.

    Index i lands in `plus` iff residuals[i] >= (1 - rel_tol) * psi and in
    `minus` for the mirrored condition, psi being the largest |residual|.
    When psi falls below the absolute tolerance 1e-12 the model is exact on
    the samples; the result is flagged degenerate with both sets holding
    every index.
    """
    if not (0 <= rel_tol < 0.5):
        raise ValueError(f"rel_tol must lie in [0, 0.5), got {rel_tol}")
    psi = max(abs(r) for r in residuals)
    if float(psi) <= DEGENERATE_PSI:
        every = tuple(range(len(residuals)))
        return ExtremeSets(plus=every, minus=every, psi=psi, rel_tol=rel_tol, degenerate=True)
    exact_mode = isinstance(psi, (Fraction, int))
    band = psi * (Fraction(rel_tol) if exact_mode else rel_tol)
    threshold = psi - band
    plus = tuple(i for i, r in enumerate(residuals) if r >= threshold)
    minus = tuple(i for i, r in enumerate(residuals) if -r >= threshold)
    return ExtremeSets(plus=plus, minus=minus, psi=psi, rel_tol=rel_tol)


def extreme_sets(
    model: PolynomialModel, samples: SampleSet, rel_tol: float = DEFAULT_REL_TOL
) -> ExtremeSets:
    """`partition_extremes` of the residuals f(x_i) - L(A, x_i) at the samples.

    A fit already holds its residuals (`FitResult.residuals`); partitioning
    those gives the same sets without evaluating the model again.
    """
    return partition_extremes(_model_residuals(model, samples), rel_tol)


def count_alternations(extremes: ExtremeSets, samples: SampleSet) -> int:
    """Length of the longest sign-alternating run of extreme points (d = 1).

    Extreme points are sorted by coordinate; the count equals the number of
    maximal blocks of equal deviation sign.  Not meaningful for degenerate
    (exact-fit) extreme sets.
    """
    if samples.dimension != 1:
        raise ValueError("alternation counting is defined for one-dimensional samples only")
    tagged = [(float(samples.points[i][0]), 1) for i in extremes.plus]
    tagged += [(float(samples.points[i][0]), -1) for i in extremes.minus]
    if not tagged:
        return 0
    tagged.sort(key=lambda t: (t[0], -t[1]))
    count = 1
    for (_, a), (_, b) in zip(tagged, tagged[1:]):
        if a != b:
            count += 1
    return count
