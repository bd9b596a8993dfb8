"""Best uniform approximation on a finite sample set, and its extreme sets.

The fit solves the linear program

    minimise z  s.t.  -z <= f(x_i) - <A, lift(x_i)> <= z   for every sample,

via a working-set loop: solve the LP on a subset, add the samples that
deviate beyond the subset optimum z, repeat until none does.  At
termination the model is optimal for the full set, and the LP kernel only
ever sees small dense problems.  A round stops the loop when its worst
sample (largest |r|, the first index among ties) deviates by at most z
(plus a slack of about 1e-9 z in float), or is in the working set already.
Otherwise, in d > 1 it adds that sample alone (single exchange).  In 1-D
it adds the largest-|r| sample of every sign run of the residual, in
coordinate order, that reaches beyond z, the worst sample among them
(Stiefel's multiple exchange, "Numerical methods of Tchebycheff
approximation", 1959): the optimum's extreme points alternate in sign,
so a round brings a candidate for each of them at once, and fits take
fewer rounds.  The stopping test is the same, so the result is the
minimax fit either way; in 1-D that fit is unique (Haar), so exact fits
give the same coefficients as with single exchange.

In float mode no round runs phase 1: the first round's LP has no "==" row
and costs only z >= 0, so `lp.solve` starts it from the basis of every
row's slack, and each later round appends the new samples' rows
[u | -1] and [-u | -1] to the last round's float64 rows and starts from
its optimal basis (``start`` of `lp.solve`).  The two-phase simplex runs
only where such a start gives up.  Exact fits solve every round from
scratch on the working set in sorted order: where the minimax
coefficients are not unique (a symmetric 2-D grid), a warm basis or
another row order certifies another optimum of the same psi.

Residuals follow the convention r(x) = f(x) - L(A, x), so the positive
extreme set holds points where the target sits above the model.  An exact
fit takes them over integers: each sample's row (lift(x_i), f(x_i)) is
written once per fit as integers over the lcm D_i of its denominators
(`_integer_rows`), each round's coefficients as integers p over their lcm
q, and r_i = (q V_i - p . N_i) / (q D_i) is one ``Fraction`` per sample,
the value `dot` would give.

`SampleSet.lifted` is the one place a sample point is lifted; the fit and
every verifier read their rows from it.  Exact rows are made on first
request, once per degree, so checking the extreme points lifts only those.
Float rows are rows of a degree's float64 matrix (`lift_matrix` of the
samples' float64 table `SampleSet.xy`) once that is built; before,
`lift_matrix` makes only the rows asked for, which are the same rows bit
for bit (reduction and alternation at degrees 1 and m-1 ask for a few).
Every float residual pass is `dot_rows` over a full matrix, against the
table's values `SampleSet.f`: the fit's working-set loop, and
`extreme_sets` and `compute_psi` when every sample coordinate and value is
a float.  The matrix repeats `lift` and `dot` bit for bit (see
`monomials`), so both forms give the same residuals.  The exact loop, and
every residual pass over other samples, keeps its residuals in an object
array (of ``Fraction`` in exact mode), so the same numpy calls pick the
worst sample, the runs and the extreme sets, comparing exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter, mul
from typing import Optional, Sequence

import numpy as np

from .lp import LESS, LinearProgram, LpFailure, solve, solve_exact
from .monomials import Number, PolynomialModel, build_basis, dot_rows, evaluate, lift, lift_matrix

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

    When every coordinate and value is a float (an (n, d) and an (n,) float64
    array, as `ingest` reads them, or Python floats), the samples are also
    kept as the float64 table `xy` (n x d) and `f` (n), on which the checks
    here, `lifted_matrix`, the fit's targets and every float residual pass
    run; `xy` and `f` are None otherwise.  `points` and `values` are tuples
    of Python numbers in either case, for the verifiers.
    """

    def __init__(self, points: Sequence[Sequence[Number]], values: Sequence[Number]):
        arrays = (isinstance(points, np.ndarray) and points.ndim == 2 and points.dtype == float
                  and isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype == float)
        pts = [] if arrays else [tuple(p) for p in points]
        vals = values if arrays else list(values)
        n = len(points) if arrays else len(pts)
        if not n:
            raise ValueError("sample set must contain at least one point")
        d = points.shape[1] if arrays else len(pts[0])
        if d < 1:
            raise ValueError("points must have at least one coordinate")
        if len(vals) != n:
            raise ValueError(f"{len(vals)} values for {n} points")
        for k, p in enumerate(pts):
            if len(p) != d:
                raise ValueError(f"point {k} has dimension {len(p)}, expected {d}")
        self.xy: Optional[np.ndarray] = None
        self.f: Optional[np.ndarray] = None
        if arrays or set(map(type, chain(*pts, vals))) == {float}:
            self.xy, self.f = np.array(points if arrays else pts), np.array(vals)
            bad_points = np.flatnonzero(~np.isfinite(self.xy).all(axis=1))
            bad_values = np.flatnonzero(~np.isfinite(self.f))
        else:
            bad_points = [k for k, p in enumerate(pts) if not all(map(_finite, p))]
            bad_values = [k for k, v in enumerate(vals) if not _finite(v)]
        if len(bad_points):
            k = int(bad_points[0])
            point = tuple(self.xy[k].tolist()) if arrays else pts[k]
            raise ValueError(f"point {k} has a coordinate that is not finite: {point}")
        if len(bad_values):
            k = int(bad_values[0])
            raise ValueError(f"value {k} is not finite: {vals[k]}")
        self._check_duplicates(pts if self.xy is None else self.xy)
        self.dimension = d
        if arrays:  # the same Python floats a list of them would have given
            pts, vals = map(tuple, self.xy.tolist()), self.f.tolist()
        self.points: tuple[tuple[Number, ...], ...] = tuple(pts)
        self.values: tuple[Number, ...] = tuple(vals)
        # Python floats are their own float view: no second float() copy
        self._views: dict[bool, tuple] = {False: (self.points, self.values)} if self.xy is not None else {}
        self._lifted: dict[tuple[int, bool], tuple] = {}  # (degree, exact) -> (basis, rows)
        self._matrices: dict[int, np.ndarray] = {}  # degree -> float lift_matrix

    @staticmethod
    def _check_duplicates(pts):
        """Raise on the first pair of points within DUPLICATE_TOL in every coordinate.

        The keys are sorted lexicographically, ties by index.  Offset k then
        compares row a with row a+k of the sorted keys, for every a whose
        first-coordinate gap x[a+k, 0] - x[a, 0] is within the tolerance; that
        gap only grows with k, so the offsets stop at the first empty window.
        The pair reported is the first in sorted order (smallest a, then
        smallest k), the one a scan of a against each later row would meet
        first.  The keys are the float64 values of the coordinates; a finite
        rational beyond float range makes them an object array, compared exactly.
        """
        try:
            keys = np.array(pts, dtype=float)
        except OverflowError:
            keys = np.array(pts, dtype=object)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        first = None  # (a, k) of the first duplicate pair in sorted order
        for k in range(1, len(keys)):
            a = np.flatnonzero(keys[k:, 0] - keys[:-k, 0] <= DUPLICATE_TOL)
            if not a.size:
                break
            same = a[(abs(keys[a + k] - keys[a]) <= DUPLICATE_TOL).all(axis=1)]
            if same.size and (first is None or same[0] < first[0]):
                first = (same[0], k)
        if first is not None:
            ia, ib = sorted(order[[first[0], first[0] + first[1]]].tolist())
            raise ValueError(f"duplicate points at indices {ia} and {ib}")

    def __len__(self) -> int:
        return len(self.points)

    def view(self, exact: bool) -> tuple[tuple[tuple[Number, ...], ...], tuple[Number, ...]]:
        """Points and values as ``Fraction`` (exact) or ``float``, converted on first use.

        Every verifier reads the samples through this view, so repeated calls
        (one per candidate hyperplane, say) share one conversion.  When every
        coordinate and value is a Python float already (`ingest`, float
        `generate_grid`), the float view is ``(self.points, self.values)``
        itself, with no copy.
        """
        if exact not in self._views:
            conv = Fraction if exact else float
            self._views[exact] = (
                tuple(tuple(conv(c) for c in p) for p in self.points),
                tuple(conv(v) for v in self.values),
            )
        return self._views[exact]

    def lifted_matrix(self, degree: int) -> np.ndarray:
        """`lift_matrix` of `xy` (else of the float view) over the degree-`degree` basis, built once."""
        if degree not in self._matrices:
            pts = self.view(False)[0] if self.xy is None else self.xy
            self._matrices[degree] = lift_matrix(pts, build_basis(self.dimension, degree))
        return self._matrices[degree]

    def lifted(self, indices: Sequence[int], degree: int, exact: bool) -> list[tuple[Number, ...]]:
        """Rows lift(x_i) of the `view(exact)` points over the degree-`degree` basis, i in `indices`.

        Exact rows are lifted the first time they are asked for.  Float rows
        are read from `lifted_matrix` once it is built (the fit's degree);
        other float rows are lifted on request by `lift_matrix` over just
        those points, which gives the matrix's rows bit for bit (it works row
        by row).  Either way a row is made once per degree and arithmetic,
        then shared by every later caller.
        """
        if (degree, exact) not in self._lifted:
            self._lifted[degree, exact] = (build_basis(self.dimension, degree), [None] * len(self.points))
        basis, rows = self._lifted[degree, exact]
        missing = [i for i in dict.fromkeys(indices) if rows[i] is None]
        if missing:
            pts = self.view(exact)[0]
            if exact:
                new = [lift(pts[i], basis) for i in missing]
            elif degree in self._matrices:
                new = self._matrices[degree][missing].tolist()
            else:
                new = lift_matrix([pts[i] for i in missing], basis).tolist()
            for i, row in zip(missing, new):
                rows[i] = tuple(row)
        return [rows[i] for i in indices]


@dataclass(frozen=True)
class FitResult:
    model: PolynomialModel
    psi: Number  # max |residual|, by construction from the residuals
    # f(x_i) - L(A, x_i), aligned with the samples: read-only float64 (float fit) or Fraction objects (exact)
    residuals: np.ndarray


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
    if exact:  # object arrays of the lifted Fractions
        lifts = samples.lifted(range(n), degree, True)
        table = _integer_rows(lifts, vals)
        matrix, targets = np.array(lifts, dtype=object), np.array(vals, dtype=object)
    else:
        matrix = samples.lifted_matrix(degree)
        targets = np.array(vals) if samples.f is None else samples.f
    if samples.dimension == 1:  # multiple exchange runs over the samples in coordinate order
        coords = np.array([x for x, in samples.points], dtype=object) if samples.xy is None else samples.xy[:, 0]
        order = np.argsort(coords, kind="stable")

    nc = basis.size
    objective = [0] * nc + [1]
    bounds = [(None, None)] * nc + [(0, None)]

    k0 = min(n, 2 * (nc + 2))
    if k0 <= 1:
        working = {0}
    else:
        working = {round(i * (n - 1) / (k0 - 1)) for i in range(k0)}

    def rows_of(indices):
        lifted, v = matrix[indices], targets[indices]
        A = np.empty((2 * len(indices), nc + 1), dtype=matrix.dtype)
        A[0::2, :nc], A[1::2, :nc], A[:, nc] = lifted, -lifted, -1
        return A, np.column_stack((v, -v)).ravel()

    A, rhs = rows_of(sorted(working))
    start = None
    while True:
        lp = LinearProgram(objective, A, [LESS] * len(rhs), rhs, bounds)
        sol = solve_exact(lp) if exact else solve(lp, start=start)
        if sol.status != "optimal":
            raise LpFailure(
                f"minimax LP came back {sol.status}",
                {"working_set": len(working), "samples": n, "degree": degree},
            )
        coeffs = sol.x[:nc]
        z = sol.x[nc]

        if exact:  # Fractions in an object array: the same numpy calls compare them exactly
            residuals = np.array(_integer_residuals(table, coeffs), dtype=object)
        else:
            residuals = targets - dot_rows(matrix, coeffs)
        size = np.abs(residuals)
        worst_i = int(np.argmax(size))  # the first index of the largest |r|
        worst = size[worst_i] if exact else float(size[worst_i])
        slack = 0 if exact else 1e-9 * max(1.0, float(z)) + 1e-12
        if worst <= z + slack or worst_i in working:
            break
        if samples.dimension == 1:
            new = [i for i in _run_peaks(residuals[order], order, z + slack) if i not in working]
        else:
            new = [worst_i]
        working.update(new)
        if exact:  # every round afresh on sorted rows (see the module docstring)
            A, rhs = rows_of(sorted(working))
        else:
            new_A, new_rhs = rows_of(new)
            A, rhs = np.concatenate((A, new_A)), np.concatenate((rhs, new_rhs))
            start = sol

    residuals.flags.writeable = False
    return FitResult(model=PolynomialModel(basis, tuple(coeffs)), psi=worst, residuals=residuals)


def _run_peaks(residuals: np.ndarray, indices: np.ndarray, bound: Number) -> list[int]:
    """Stiefel's multiple exchange: the sample of largest |r| in each sign run of 1-D residuals above `bound`.

    `residuals` are those of the samples `indices`, in coordinate order.  The
    samples of nonzero residual split, in that order, into maximal same-sign
    runs, as `sign_blocks` splits extreme points (a zero residual splits no
    run).  Each run whose largest |r| exceeds `bound` gives its sample of
    largest |r|, the lowest index among ties, so the worst sample of all is
    one of them.
    """
    live = residuals != 0
    residuals, indices = residuals[live], indices[live]
    size, neg = np.abs(residuals), residuals < 0
    starts = np.flatnonzero(np.concatenate(([True], neg[1:] != neg[:-1])))
    ends = np.append(starts[1:], len(indices))
    peaks = np.maximum.reduceat(size, starts)
    return [int(indices[a:b][size[a:b] == p].min()) for a, b, p in zip(starts, ends, peaks) if p > bound]


def _integer_rows(lifts: Sequence[Sequence[Number]], vals: Sequence[Number]) -> list[tuple]:
    """Each exact row (lift(x_i), f(x_i)) as (N_i, V_i, D_i): integers N_i, V_i over its lcm denominator D_i."""
    table = []
    for u, v in zip(lifts, vals):
        den = math.lcm(v.denominator, *(g.denominator for g in u))
        row = tuple(g.numerator * (den // g.denominator) for g in u)
        table.append((row, v.numerator * (den // v.denominator), den))
    return table


def _integer_residuals(table, coeffs: Sequence[Number]) -> list[Fraction]:
    """f(x_i) - dot(coeffs, lift(x_i)) at every row of `_integer_rows`, exactly.

    With the coefficients as integers p over their lcm denominator q, the
    residual is (q V_i - p . N_i) / (q D_i): integer sums and one ``Fraction``
    normalisation per row, where `dot` normalises twice per term.
    """
    q = math.lcm(*(c.denominator for c in coeffs))
    p = [c.numerator * (q // c.denominator) for c in coeffs]
    return [Fraction(q * v - sum(map(mul, p, row)), q * den) for row, v, den in table]


def _model_residuals(model: PolynomialModel, samples: SampleSet) -> np.ndarray:
    """f(x_i) - L(A, x_i) at every sample: float64 over `lifted_matrix` and `f` when the samples are floats, else objects."""
    if samples.xy is None or model.basis.dimension != samples.dimension:
        return np.array([v - evaluate(model, p) for p, v in zip(samples.points, samples.values)], dtype=object)
    return samples.f - dot_rows(samples.lifted_matrix(model.degree), model.coefficients)


def _largest_magnitude(residuals: np.ndarray) -> Number:
    """max |r| as a Python number: a float over float64, else the first largest |r| as it is."""
    return np.abs(residuals).max(keepdims=True).item()


def compute_psi(model: PolynomialModel, samples: SampleSet) -> Number:
    """Uniform error max |f(x) - L(A, x)| over the samples."""
    return _largest_magnitude(_model_residuals(model, samples))


def partition_extremes(residuals: Sequence[Number], rel_tol: float = DEFAULT_REL_TOL) -> ExtremeSets:
    """Partition the maximal-deviation points by residual sign.

    Index i lands in `plus` iff residuals[i] >= (1 - rel_tol) * psi and in
    `minus` for the mirrored condition, psi being the largest |residual|.
    When psi falls below the absolute tolerance 1e-12 the model is exact on
    the samples; the result is flagged degenerate with both sets holding
    every index.  A float64 array is compared as it is; any other residuals
    go into an object array, so each number keeps its own type and Python's
    comparisons (psi of [1.5, 2] is the int 2).
    """
    if not (0 <= rel_tol < 0.5):
        raise ValueError(f"rel_tol must lie in [0, 0.5), got {rel_tol}")
    if not (isinstance(residuals, np.ndarray) and residuals.dtype == float):
        residuals = np.array(residuals, dtype=object)
    psi = _largest_magnitude(residuals)
    if psi <= DEGENERATE_PSI:  # exact for a Fraction, also one beyond float range
        every = tuple(range(len(residuals)))
        return ExtremeSets(plus=every, minus=every, psi=psi, rel_tol=rel_tol, degenerate=True)
    threshold = psi - psi * (Fraction(rel_tol) if isinstance(psi, (Fraction, int)) else rel_tol)
    plus = tuple(np.flatnonzero(residuals >= threshold).tolist())
    minus = tuple(np.flatnonzero(-residuals >= threshold).tolist())
    return ExtremeSets(plus=plus, minus=minus, psi=psi, rel_tol=rel_tol)


def extreme_sets(
    model: PolynomialModel, samples: SampleSet, rel_tol: float = DEFAULT_REL_TOL
) -> ExtremeSets:
    """`partition_extremes` of the residuals f(x_i) - L(A, x_i) at the samples.

    A fit already holds its residuals (`FitResult.residuals`); partitioning
    those gives the same sets without evaluating the model again.
    """
    return partition_extremes(_model_residuals(model, samples), rel_tol)


def sign_blocks(points, plus: Sequence[int], minus: Sequence[int]) -> list[tuple[int, bool]]:
    """(i, i in minus) of the first point of each maximal same-sign block of 1-D points.

    Sorted by coordinate, plus before minus at an equal one; Python compares
    int, float and Fraction exactly, so no coordinate is converted.
    """
    tagged = sorted([(points[i][0], False, i) for i in plus] + [(points[i][0], True, i) for i in minus])
    return [(next(block)[2], side) for side, block in groupby(tagged, key=itemgetter(1))]


def count_alternations(extremes: ExtremeSets, samples: SampleSet) -> int:
    """Length of the longest sign-alternating run of extreme points (d = 1).

    The number of `sign_blocks` of the extreme points, over the samples' own
    coordinates.  Not meaningful for degenerate (exact-fit) extreme sets.
    """
    if samples.dimension != 1:
        raise ValueError("alternation counting is defined for one-dimensional samples only")
    return len(sign_blocks(samples.points, extremes.plus, extremes.minus))
