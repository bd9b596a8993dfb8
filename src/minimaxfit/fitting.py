"""Best uniform approximation on a finite sample set, and its extreme sets.

The fit solves the linear program

    minimise z  s.t.  -z <= f(x_i) - <A, lift(x_i)> <= z   for every sample,

via a working-set loop: solve the LP on a subset, add the worst violator,
repeat until no sample deviates beyond the subset optimum.  At termination
the model is optimal for the full set, and the LP kernel only ever sees
small dense problems.

Residuals follow the convention r(x) = f(x) - L(A, x), so the positive
extreme set holds points where the target sits above the model.

`SampleSet.lifted` is the one place a sample point is lifted; the fit and
every verifier read their rows from it.  Rows are made on first request, once
per (degree, arithmetic), so checking the extreme points lifts only those.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lp import LinearProgram, LpFailure, solve, solve_exact
from .monomials import Number, PolynomialModel, build_basis, dot, evaluate, lift

DUPLICATE_TOL = 1e-12
DEGENERATE_PSI = 1e-12
DEFAULT_REL_TOL = 1e-8


class SampleSet:
    """Finite set of d-dimensional points with target values f(x).

    Points must be pairwise distinct (coordinate tolerance 1e-12).  Values
    may be ints, floats or Fractions; exact-mode operations convert through
    ``Fraction`` without loss.
    """

    def __init__(self, points: Sequence[Sequence[Number]], values: Sequence[Number]):
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("sample set must contain at least one point")
        d = len(pts[0])
        if d < 1:
            raise ValueError("points must have at least one coordinate")
        for k, p in enumerate(pts):
            if len(p) != d:
                raise ValueError(f"point {k} has dimension {len(p)}, expected {d}")
        vals = list(values)
        if len(vals) != len(pts):
            raise ValueError(f"{len(vals)} values for {len(pts)} points")
        self._check_duplicates(pts)
        self.dimension = d
        self.points: tuple[tuple[Number, ...], ...] = tuple(pts)
        self.values: tuple[Number, ...] = tuple(vals)
        self._views: dict[bool, tuple] = {}
        self._lifted: dict[tuple[int, bool], tuple] = {}  # (degree, exact) -> (basis, rows)

    @staticmethod
    def _check_duplicates(pts):
        keyed = sorted((tuple(float(c) for c in p), k) for k, p in enumerate(pts))
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

    def lifted(self, indices: Sequence[int], degree: int, exact: bool) -> list[tuple[Number, ...]]:
        """Rows lift(x_i) of the `view(exact)` points over the degree-`degree` basis, i in `indices`.

        Each row is computed the first time it is asked for at this degree
        and arithmetic, then shared by every later caller.
        """
        if (degree, exact) not in self._lifted:
            self._lifted[degree, exact] = (build_basis(self.dimension, degree), [None] * len(self.points))
        basis, rows = self._lifted[degree, exact]
        pts = self.view(exact)[0]
        for i in indices:
            if rows[i] is None:
                rows[i] = tuple(lift(pts[i], basis))
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
    lifts = samples.lifted(range(n), degree, exact)

    nc = basis.size
    objective = [0] * nc + [1]
    bounds = [(None, None)] * nc + [(0, None)]
    lp_solve = solve_exact if exact else solve

    k0 = min(n, 2 * (nc + 2))
    if k0 <= 1:
        working = {0}
    else:
        working = {round(i * (n - 1) / (k0 - 1)) for i in range(k0)}

    coeffs: list[Number] = []
    residuals: list[Number] = []
    while True:
        rows = []
        for i in sorted(working):
            u = lifts[i]
            rows.append((list(u) + [-1], "<=", vals[i]))
            rows.append(([-g for g in u] + [-1], "<=", -vals[i]))
        sol = lp_solve(LinearProgram(objective, rows, bounds))
        if sol.status != "optimal":
            raise LpFailure(
                f"minimax LP came back {sol.status}",
                {"working_set": len(working), "samples": n, "degree": degree},
            )
        coeffs = sol.x[:nc]
        z = sol.x[nc]

        residuals = [vals[i] - dot(coeffs, lifts[i]) for i in range(n)]
        worst_i = max(range(n), key=lambda i: (abs(residuals[i]), -i))
        worst = abs(residuals[worst_i])
        slack = 0 if exact else 1e-9 * max(1.0, float(z)) + 1e-12
        if worst <= z + slack or worst_i in working:
            break
        working.add(worst_i)

    model = PolynomialModel(basis, tuple(coeffs))
    psi = max(abs(r) for r in residuals)
    return FitResult(model=model, psi=psi, residuals=tuple(residuals))


def compute_psi(model: PolynomialModel, samples: SampleSet) -> Number:
    """Uniform error max |f(x) - L(A, x)| over the samples."""
    return max(abs(v - evaluate(model, p)) for p, v in zip(samples.points, samples.values))


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
    residuals = [v - evaluate(model, p) for p, v in zip(samples.points, samples.values)]
    return partition_extremes(residuals, rel_tol)


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
