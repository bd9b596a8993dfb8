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
only where such a start gives up.  An exact fit runs these float rounds
on the samples' float view first, then exact rounds from the working set
they end with, each from scratch on the set in sorted order, with the same
stop rule: the answer is still the exact optimum of the full LP.  Only the
set passes on, not the float basis: where the minimax coefficients are not
unique (a symmetric 2-D grid), a warm basis or another row order
certifies another optimum of the same psi, the mirror one.  When the float
view overflows or the float rounds raise `LpFailure`, the exact rounds
start from the evenly spaced samples, as a float fit does.

Residuals follow the convention r(x) = f(x) - L(A, x), so the positive
extreme set holds points where the target sits above the model.  An exact
fit takes them over integers: `_linalg.integer_rows` writes each sample's
row (lift(x_i), f(x_i)) once per fit as integers N_i, V_i over the lcm D_i
of its denominators, each round's coefficients are integers p over their
lcm q, and r_i = (q V_i - dot_rows(N, p)_i) / (q D_i) is one ``Fraction``
per sample, the value `dot` would give; `lp._check_rows` checks an exact
point with the same kernel over the same kind of rows.

`SampleSet` keeps the samples as one table, and `SampleSet.lifted` is the
one place a sample point is lifted: one (n x basis) array per arithmetic,
in the dtype of its `view`, lifted at the highest degree asked for.
Degree m (the fit, the certificate), m - 1 (alternation) and 1 (reduction)
read its leading columns, the fit all rows, a verifier the extreme ones.
The rows repeat `lift` bit for bit, and `dot_rows` repeats `dot` (see
`monomials`), so every residual pass is `dot_rows`: over float64 rows
against the table's values `SampleSet.f` in the float fit's working-set
loop, and in `extreme_sets` and `compute_psi` on a float64 table; over the
integer rows in the exact loop.  The exact loop, and every residual pass
over an object table, keeps its residuals in an object array (of
``Fraction`` in exact mode), so the same numpy calls pick the worst
sample, the runs and the extreme sets, comparing exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from ._linalg import integer_row, integer_rows
from .lp import LESS, LinearProgram, LpFailure, solve, solve_exact
from .monomials import MonomialBasis, Number, PolynomialModel, build_basis, dot_rows, lift_matrix
from .monomials import evaluate  # unused here, kept because bench/tracing.py counts fitting.evaluate

DUPLICATE_TOL = 1e-12
DEGENERATE_PSI = 1e-12
DEFAULT_REL_TOL = 1e-8

_fractions = np.frompyfunc(Fraction, 2, 1)  # Fraction(numerator, denominator) of every entry, an object array


def _finite(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) or math.isfinite(x)  # no float() of a huge rational


def _floats(table: np.ndarray) -> np.ndarray:
    """A table as float64: an int or ``Fraction`` entry by int true division of its numerator by its denominator."""
    rational = (int, Fraction)
    values = [x.numerator / x.denominator if type(x) in rational else float(x) for x in table.ravel().tolist()]
    return np.array(values, dtype=float).reshape(table.shape)


class SampleSet:
    """Finite set of d-dimensional points with target values f(x), held as one table.

    Points must be pairwise distinct (coordinate tolerance 1e-12) and every
    coordinate and value finite.  Values may be ints, floats or Fractions;
    exact-mode operations convert through ``Fraction`` without loss.

    The table is `xy` (n x d) and `f` (n), read-only: float64 arrays when
    every coordinate and value is a float (as `ingest` reads them, or Python
    floats), else object arrays of the numbers as given.  Every layer
    indexes it, its `view` in one arithmetic, or the rows of `lifted`;
    `points` and `values` give it as tuples of Python numbers.
    """

    def __init__(self, points: Sequence[Sequence[Number]], values: Sequence[Number]):
        arrays = (isinstance(points, np.ndarray) and points.ndim == 2 and points.dtype == float
                  and isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype == float)
        pts = points if arrays else [tuple(p) for p in points]
        vals = values if arrays else list(values)
        if not len(pts):
            raise ValueError("sample set must contain at least one point")
        d = len(pts[0])
        if d < 1:
            raise ValueError("points must have at least one coordinate")
        if len(vals) != len(pts):
            raise ValueError(f"{len(vals)} values for {len(pts)} points")
        for k, p in enumerate([] if arrays else pts):
            if len(p) != d:
                raise ValueError(f"point {k} has dimension {len(p)}, expected {d}")
        kinds = {float} if arrays else set(map(type, chain(*pts, vals)))
        if any(issubclass(kind, np.generic) for kind in kinds):  # numpy scalars as the Python numbers they hold
            pts = [tuple(c.item() if isinstance(c, np.generic) else c for c in p) for p in pts]
            vals = [v.item() if isinstance(v, np.generic) else v for v in vals]
            kinds = set(map(type, chain(*pts, vals)))
        floats = kinds == {float}
        self.xy = np.array(pts, dtype=float if floats else object)
        self.f = np.array(vals, dtype=self.xy.dtype)
        finite = np.isfinite if floats else np.vectorize(_finite, otypes=[bool])
        bad_points = np.flatnonzero(~finite(self.xy).all(axis=1))
        bad_values = np.flatnonzero(~finite(self.f))
        if len(bad_points):
            k = int(bad_points[0])
            raise ValueError(f"point {k} has a coordinate that is not finite: {tuple(self.xy[k].tolist())}")
        if len(bad_values):
            k = int(bad_values[0])
            raise ValueError(f"value {k} is not finite: {self.f[k]}")
        self._check_duplicates(self.xy)
        self.dimension = d
        self.xy.flags.writeable = self.f.flags.writeable = False
        self._views: dict[bool, tuple[np.ndarray, np.ndarray]] = {}  # a table of floats or of Fractions is its own view
        if kinds in ({float}, {Fraction}):
            self._views[kinds == {Fraction}] = self.xy, self.f
        self._lifted: dict[bool, tuple[int, np.ndarray]] = {}  # exact -> (degree, every row lifted at it)

    @staticmethod
    def _check_duplicates(pts):
        """Raise on the first pair of points within DUPLICATE_TOL in every coordinate.

        In d > 1 a prefilter first keeps only the rows that may have a
        duplicate: the rows are sorted by each coordinate in turn within the
        groups so far, a new group starts wherever the gap exceeds the
        tolerance, and rows left alone in a group are dropped.  Two points
        within the tolerance in a coordinate sit in one chain of gaps within
        it, so every duplicate pair survives, in the same relative order.
        The kept keys are sorted lexicographically, ties by index.  Offset k
        then compares row a with row a+k of the sorted keys, for every a whose
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
        if keys.shape[1] > 1:  # the prefilter
            rows, group = np.arange(len(keys)), np.zeros(len(keys), dtype=int)
            for j in range(keys.shape[1]):
                by = np.lexsort((keys[rows, j], group))
                rows, group, x = rows[by], group[by], keys[rows[by], j]
                new = np.ones(len(rows), dtype=bool)
                new[1:] = (group[1:] != group[:-1]) | (x[1:] - x[:-1] > DUPLICATE_TOL)
                group = np.cumsum(new)
                shared = np.bincount(group)[group] > 1
                rows, group = rows[shared], group[shared]
            rows.sort()
            order = rows[np.lexsort(keys[rows].T[::-1])]
        else:
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
        return len(self.f)

    @property
    def points(self) -> tuple[tuple[Number, ...], ...]:
        return tuple(map(tuple, self.xy.tolist()))

    @property
    def values(self) -> tuple[Number, ...]:
        return tuple(self.f.tolist())

    def view(self, exact: bool) -> tuple[np.ndarray, np.ndarray]:
        """The table (points, values) over ``Fraction`` (exact) or float64, converted on first use.

        Every verifier reads the samples through this view, so repeated calls
        (one per candidate hyperplane, say) share one conversion.  The float
        view of a float64 table, and the exact view of a table whose every
        entry is a ``Fraction`` (as `ingest` reads it in exact mode), is the
        table itself.  A rational entry (int or ``Fraction``) becomes its
        numerator over its denominator by int true division, the float that
        ``float`` rounds it to and the same `OverflowError` beyond float
        range, without ``numbers.Rational.__float__``'s call overhead.
        """
        if exact not in self._views:
            convert = np.frompyfunc(Fraction, 1, 1) if exact else _floats
            self._views[exact] = convert(self.xy), convert(self.f)
        return self._views[exact]

    def lifted(self, indices: Sequence[int], degree: int, exact: bool) -> np.ndarray:
        """Rows lift(x_i) of the `view(exact)` points over the degree-`degree` basis, i in `indices`.

        They are read, as a new array, from the leading C(d + degree, degree)
        columns of one (n x basis) table per arithmetic in the view's dtype
        (see `MonomialBasis`), lifted at the highest degree asked for so far.
        """
        if self._lifted.get(exact, (-math.inf,))[0] < degree:
            self._lifted[exact] = degree, lift_matrix(self.view(exact)[0], build_basis(self.dimension, degree))
        return self._lifted[exact][1][np.asarray(indices, dtype=np.intp), :math.comb(self.dimension + degree, degree)]


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
    """Coefficients minimising max |f(x) - L(A, x)| over the sample set.

    The working-set rounds (`_exchange`) start from evenly spaced samples.
    An exact fit runs them in float first, then exactly from the float
    rounds' final working set, or from the evenly spaced samples when the
    float view overflows or the float rounds raise `LpFailure`.  The float
    basis is not passed on: it certifies the mirror optimum of a symmetric grid.
    """
    basis = build_basis(samples.dimension, degree)
    n = len(samples)
    if basis.size > n:
        warnings.warn(f"basis size {basis.size} exceeds sample count {n}; fit is underdetermined", stacklevel=2)
    k0 = min(n, 2 * (basis.size + 2))
    working = {round(i * (n - 1) / (k0 - 1)) for i in range(k0)} if k0 > 1 else {0}
    if exact:
        try:
            working = _exchange(samples, basis, working, exact=False)[3]
        except (OverflowError, LpFailure):
            pass
    coeffs, psi, residuals, _ = _exchange(samples, basis, working, exact)
    residuals.flags.writeable = False
    return FitResult(model=PolynomialModel(basis, tuple(coeffs)), psi=psi, residuals=residuals)


def _exchange(samples: SampleSet, basis: MonomialBasis, working: set[int], exact: bool):
    """Rounds from a copy of `working` until the stop rule holds: (coefficients, psi, residuals, working set)."""
    n, nc = len(samples), basis.size
    matrix, targets = samples.lifted(np.arange(n), basis.degree, exact), samples.view(exact)[1]
    if exact:
        N, V, D = integer_rows(matrix, targets)
    order = None  # the samples in coordinate order, for 1-D multiple exchange, sorted when first needed
    objective = [0] * nc + [1]
    bounds = [(None, None)] * nc + [(0, None)]

    def rows_of(indices):
        lifted, v = matrix[indices], targets[indices]
        A = np.empty((2 * len(indices), nc + 1), dtype=matrix.dtype)
        A[0::2, :nc], A[1::2, :nc], A[:, nc] = lifted, -lifted, -1
        return A, np.column_stack((v, -v)).ravel()

    working = set(working)
    A, rhs = rows_of(sorted(working))
    start = None
    while True:
        lp = LinearProgram(objective, A, [LESS] * len(rhs), rhs, bounds)
        sol = solve_exact(lp) if exact else solve(lp, start=start)
        if sol.status != "optimal":
            diagnostics = {"working_set": len(working), "samples": n, "degree": basis.degree, "iterations": sol.iterations}
            raise LpFailure(f"minimax LP came back {sol.status}", diagnostics)
        coeffs = sol.x[:nc]
        z = sol.x[nc]

        if exact:  # Fractions in an object array: the same numpy calls compare them exactly
            p, q = integer_row(coeffs)
            residuals = _fractions(q * V - dot_rows(N, p), q * D)
        else:
            residuals = targets - dot_rows(matrix, coeffs)
        size = np.abs(residuals)
        worst_i = int(np.argmax(size))  # the first index of the largest |r|
        worst = size[worst_i] if exact else float(size[worst_i])
        slack = 0 if exact else 1e-9 * max(1.0, float(z)) + 1e-12
        if worst <= z + slack or worst_i in working:
            return coeffs, worst, residuals, working
        if samples.dimension == 1:
            order = np.argsort(samples.view(exact)[0][:, 0], kind="stable") if order is None else order
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


def model_values(model: PolynomialModel, samples: SampleSet, indices: Sequence[int]) -> np.ndarray:
    """L(A, x_i) for i in `indices`, over the table as it is: rows of `lifted` when the table is its own view
    (float64, or every entry a ``Fraction``), else a lift of its objects."""
    indices, exact = np.asarray(indices, dtype=np.intp), samples.xy.dtype == object
    if samples._views.get(exact, (None,))[0] is not samples.xy or model.basis.dimension != samples.dimension:
        return dot_rows(lift_matrix(samples.xy[indices], model.basis), model.coefficients)
    return dot_rows(samples.lifted(indices, model.degree, exact), model.coefficients)


def _largest_magnitude(residuals: np.ndarray) -> Number:
    """max |r| as a Python number: a float over float64, else the first largest |r| as it is."""
    return np.abs(residuals).max(keepdims=True).item()


def compute_psi(model: PolynomialModel, samples: SampleSet) -> Number:
    """Uniform error max |f(x) - L(A, x)| over the samples."""
    return _largest_magnitude(samples.f - model_values(model, samples, np.arange(len(samples))))


def partition_extremes(residuals: Sequence[Number], rel_tol: float = DEFAULT_REL_TOL) -> ExtremeSets:
    """Partition the maximal-deviation points by residual sign.

    Index i lands in `plus` iff residuals[i] >= (1 - rel_tol) * psi and in
    `minus` for the mirrored condition, psi being the largest |residual|.
    When psi is 0, or a float psi falls below the absolute tolerance
    `DEGENERATE_PSI`, the model is exact on the samples; the result is
    flagged degenerate with both sets holding every index.  A float64 array
    is compared as it is; any other residuals go into an object array, so
    each number keeps its own type and Python's comparisons (psi of
    [1.5, 2] is the int 2).
    """
    if not (0 <= rel_tol < 0.5):
        raise ValueError(f"rel_tol must lie in [0, 0.5), got {rel_tol}")
    if not (isinstance(residuals, np.ndarray) and residuals.dtype == float):
        residuals = np.array(residuals, dtype=object)
    psi = _largest_magnitude(residuals)
    if psi <= (0 if isinstance(psi, Fraction) else DEGENERATE_PSI):  # no float tolerance on an exact psi
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
    return partition_extremes(samples.f - model_values(model, samples, np.arange(len(samples))), rel_tol)


def sign_blocks(column: np.ndarray, plus: Sequence[int], minus: Sequence[int]) -> list[tuple[int, bool]]:
    """(i, i in minus) of the first point of each maximal same-sign block of 1-D points.

    `column` holds the coordinates, sorted with plus before minus at an equal
    one; int, float and Fraction compare exactly, so none is converted.
    """
    tagged = sorted([(column[i], False, i) for i in plus] + [(column[i], True, i) for i in minus])
    return [(next(block)[2], side) for side, block in groupby(tagged, key=itemgetter(1))]


def count_alternations(extremes: ExtremeSets, samples: SampleSet) -> int:
    """Length of the longest sign-alternating run of extreme points (d = 1).

    The number of `sign_blocks` of the extreme points, over the samples' own
    coordinates.  Not meaningful for degenerate (exact-fit) extreme sets.
    """
    if samples.dimension != 1:
        raise ValueError("alternation counting is defined for one-dimensional samples only")
    return len(sign_blocks(samples.xy[:, 0], extremes.plus, extremes.minus))
