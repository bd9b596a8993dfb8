"""Shared corpus builders for the test suite."""

from __future__ import annotations

import builtins
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from typing import Optional

import numpy as np

from minimaxfit import (
    ExtremeSets,
    FitResult,
    IntersectionCertificate,
    LinearProgram,
    LpFailure,
    LpSolution,
    PolynomialModel,
    ReductionReport,
    ReductionStep,
    ReductionTrace,
    SampleSet,
    build_basis,
    extreme_sets,
    fit_minimax,
    hulls_intersect,
    solve,
    solve_exact,
)
from minimaxfit import optimality
from minimaxfit.lp import _TOL, _integers, _standard_form
from minimaxfit.reduction import ZERO_TOL


@dataclass
class Instance:
    samples: SampleSet
    degree: int
    fit: FitResult
    extremes: ExtremeSets


def lp_from_rows(objective, rows, bounds=None, box=()) -> LinearProgram:
    """The LP of rows (coefficients, relation, rhs), every number kept as given, then `box` written as rows.

    `box` holds (lo, hi) for its leading variables, None where there is no
    bound: x_j >= lo and x_j <= hi each become a row after `rows`.
    """
    for j, (lo, hi) in enumerate(box):
        unit = [int(k == j) for k in range(len(objective))]
        rows = [*rows, *([(unit, ">=", lo)] if lo is not None else []), *([(unit, "<=", hi)] if hi is not None else [])]
    return LinearProgram(objective, [list(c) for c, _, _ in rows], [r for _, r, _ in rows],
                         [b for _, _, b in rows], bounds)


def reference_margin_lp(plus_lifted, minus_lifted) -> LinearProgram:
    """The primal margin LP: maximise t with <A, lift> >= t on E+ and <= -t on E-, each |A_k| <= 1 two rows.

    Its variables are A (free) then t (free), its rows one per point of E+,
    one per point of E-, then A_k <= 1 and A_k >= -1 for each monomial k; the
    reference for `optimality.check_isolability`, which solves its LP dual.
    """
    width = len(plus_lifted[0]) if len(plus_lifted) else len(minus_lifted[0])
    unit = [[int(j == k) for j in range(width)] + [0] for k in range(width)]
    A = ([list(u) + [-1] for u in plus_lifted] + [list(v) + [1] for v in minus_lifted] + unit + unit)
    relations = [">="] * len(plus_lifted) + ["<="] * len(minus_lifted) + ["<="] * width + [">="] * width
    return LinearProgram([0] * width + [-1], A, relations, [0] * (len(plus_lifted) + len(minus_lifted))
                         + [1] * width + [-1] * width)


def reference_max_margin(plus_lifted, minus_lifted, exact: bool):
    """The optimum t of `reference_margin_lp`, by `solve_exact` or the float `solve`."""
    sol = (solve_exact if exact else solve)(reference_margin_lp(plus_lifted, minus_lifted))
    assert sol.status == "optimal"
    return -sol.objective_value


def reference_moment_certificate(extremes: ExtremeSets, samples: SampleSet, degree: int,
                                 exact: bool = False) -> Optional[IntersectionCertificate]:
    """The moment LP's vertex (`optimality._moment_lp` over the extreme sets) as a certificate, or None.

    The certificate path `check_hull_intersection` took before it read the
    margin LP's weights; kept as an oracle for the certificates it gives now.
    """
    plus_lifted = samples.lifted(extremes.plus, degree, exact)
    minus_lifted = samples.lifted(extremes.minus, degree, exact)
    sol = (solve_exact if exact else solve)(optimality._moment_lp(plus_lifted, minus_lifted))
    if sol.status != "optimal":
        return None
    alpha, beta = tuple(sol.x[:len(plus_lifted)]), tuple(sol.x[len(plus_lifted):])
    return IntersectionCertificate(degree, tuple(extremes.plus), tuple(extremes.minus), alpha, beta,
                                   optimality._moment_residual(plus_lifted, minus_lifted, alpha, beta), exact)


def verify_farkas(lp: LinearProgram, farkas, exact: bool = False) -> bool:
    """Check an infeasibility witness, one multiplier per row, against the standardised encoding.

    The witness `y` must combine the standardised rows A u = b over u >= 0
    into a contradiction: y.A <= 0 on every column and y.b > 0.  A slack
    column carries its row's relation, so this asks y <= 0 of a "<=" row
    and y >= 0 of a ">=" row; exact, of y_i / D_i on the integer rows.
    """
    conv, tol = (Fraction, 0) if exact else (float, _TOL)
    _, rows, rhs, _ = _standard_form(lp, exact)
    if len(farkas) != len(rows):
        return False
    D = _integers(lp)[2] if exact else [1] * len(rows)
    y = np.array([conv(v) / d for v, d in zip(farkas, D)], dtype=rows.dtype)
    return bool((y @ rows <= tol).all() and y @ rhs > tol)


def gauss_jordan_nullspace(rows) -> tuple[Optional[list[Fraction]], int]:
    """Gauss-Jordan reduction of A over ``Fraction``: the reference for `_linalg.exact_nullspace`.

    Returns (v, rank): v is the null vector with 1 at the first free column
    and 0 at the other free columns, or None when A has full column rank.
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


def reference_exact_plane(points) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
    """The rational plane (u, a) through d points, u's first non-zero component 1, or None: the reference key.

    Gauss-Jordan over ``Fraction`` on the differences from the first point;
    None when they do not span d - 1 dimensions.  Exact alternation keys its
    planes by a primitive integer normal and offset, in one-to-one
    correspondence with this key.
    """
    base = [Fraction(c) for c in points[0]]
    if len(base) == 1:
        return (Fraction(1),), base[0]
    u, rank = gauss_jordan_nullspace([[Fraction(c) - b for c, b in zip(p, base)] for p in points[1:]])
    if rank != len(base) - 1:
        return None
    lead = next(c for c in u if c)
    u = tuple(c / lead for c in u)
    return u, sum((c * b for c, b in zip(u, base)), Fraction(0))


def reference_exact_sides(points, normal, offset) -> list[int]:
    """sign(<u, x> - a) of each point, summed over ``Fraction``: the reference for exact `alternation._signs`."""
    values = [sum((Fraction(c) * Fraction(x) for c, x in zip(normal, p)), Fraction(0)) - Fraction(offset)
              for p in points]
    return [(v > 0) - (v < 0) for v in values]


def bogus_float_supports(monkeypatch) -> list:
    """Make every float moment LP claim a meet on the first point of each class.

    Two distinct points never have equal lifted moments above degree 0, so
    every such claim is wrong there, and only the exact check can stop it.
    Returns the list that each `solve_exact` call of `optimality` appends its LP to.
    """
    def first_points(A):  # x of an (m, n) LP: one on its first plus and first minus column
        x = np.zeros(A.shape[1])
        for row in (0, 1):
            x[np.argmax(A[row] != 0)] = 1.0
        return x

    monkeypatch.setattr(optimality, "solve", lambda lp, **_: LpSolution("optimal", x=first_points(lp.A).tolist()))
    rational = []
    real = optimality.solve_exact
    monkeypatch.setattr(optimality, "solve_exact", lambda lp, **kw: rational.append(lp) or real(lp, **kw))
    return rational


def reference_lift(point, exponents) -> list:
    """Monomial values at a point, one per exponent tuple: the reference for `lift_matrix` and `lift`.

    Each value starts from int 1 and multiplies in the Python power x ** e of
    every coordinate with e != 0, in coordinate order; x^0 is 1 even at x == 0.
    """
    values = []
    for exps in exponents:
        assert len(exps) == len(point), f"point {point} does not match exponents {exps}"
        v = 1
        for x, e in zip(point, exps):
            if e:
                v = v * x**e
        values.append(v)
    return values


def reference_entering(obj, tol):
    """Bland's entering scan, element by element over the reduced costs' array: the reference for `lp._entering`."""
    for j in range(len(obj)):
        if obj[j] < -tol:
            return j
    return None


def reference_leaving(T, entering: int, basis, tol):
    """The row-by-row ratio test over the tableau's array entries: the reference for `lp._leaving`.

    The least ratio T[i, -1] / T[i, entering] over the rows with an entry
    above `tol`, ratios within `tol` relative of the best so far tying, ties
    going to the smallest basic column; None when no entry is above `tol`.
    """
    best_ratio = None
    leaving = None
    for i in range(T.shape[0]):
        a = T[i, entering]
        if not a > tol:
            continue
        ratio = T[i, -1] / a
        if best_ratio is None:
            best_ratio, leaving = ratio, i
            continue
        margin = tol * max(1, abs(best_ratio))
        if ratio < best_ratio - margin:
            best_ratio, leaving = ratio, i
        elif abs(ratio - best_ratio) <= margin and basis[i] < basis[leaving]:
            leaving = i
    return leaving


def reference_standard_form(lp, conv):
    """The per-coefficient standardisation that the array `lp._standard_form` replaced, over `conv`.

    Per variable its (column, sign) terms: one column for x >= 0, two for a
    free x; each row substituted one coefficient at a time, skipping zeros; a
    +-1 slack per row that is not "=="; the costs likewise.  Returns
    (col_terms, rows, rhs, costs) as lists.
    """
    col_terms, ncols = [], 0
    for lo, _ in lp.bounds:
        if lo is not None:
            col_terms.append([(ncols, 1)])
            ncols += 1
        else:
            col_terms.append([(ncols, 1), (ncols + 1, -1)])
            ncols += 2
    sub_rows = []
    for coeffs, rel, rhs in zip(lp.A.tolist(), lp.relations.tolist(), lp.rhs.tolist()):
        row = [conv(0)] * ncols
        for j, a in enumerate(coeffs):
            a = conv(a)
            if a == 0:
                continue
            for col, sign in col_terms[j]:
                row[col] += a if sign > 0 else -a
        sub_rows.append((row, rel, conv(rhs)))
    nslack = sum(1 for _, rel, _ in sub_rows if rel != "==")
    rows, rhs, slack_at = [], [], ncols
    for row, rel, b in sub_rows:
        row = row + [conv(0)] * nslack
        if rel != "==":
            row[slack_at] = conv(1) if rel == "<=" else conv(-1)
            slack_at += 1
        rows.append(row)
        rhs.append(b)
    costs = [conv(0)] * (ncols + nslack)
    for j, c in enumerate(lp.objective):
        c = conv(c)
        if c != 0:
            for col, sign in col_terms[j]:
                costs[col] += c if sign > 0 else -c
    return col_terms, rows, rhs, costs




def reference_rational_simplex(lp: LinearProgram) -> LpSolution:
    """The two-phase simplex over a ``Fraction`` tableau: the reference for exact `lp._solve`.

    The rows are `reference_standard_form` over ``Fraction``.  A row with a
    negative rhs is negated, then every row gains its artificial, and phase 1
    minimises their sum; the Farkas witness of an infeasible LP is
    (1 - the artificial's reduced cost) times the row's sign.  Each
    artificial still basic leaves on the first column with a non-zero entry
    in its row, or its row is dropped as redundant, and phase 2 minimises
    the costs without the artificial columns.  Each phase enters the first
    negative reduced cost (`reference_entering`); the least ratio leaves,
    ties going to the smallest basic column (`reference_leaving`).  The
    pivots run on the whole tableau.
    """
    col_terms, rows, rhs, costs = reference_standard_form(lp, Fraction)
    m, art0 = len(rows), len(costs)
    T = np.array([row + [Fraction(0)] * m + [b] for row, b in zip(rows, rhs)], dtype=object)
    T = T.reshape(m, art0 + m + 1)
    signs = [1] * m
    for i in range(m):
        if T[i, -1] < 0:
            T[i, :], signs[i] = -T[i, :], -1
        T[i, art0 + i] = Fraction(1)
    basis = [art0 + i for i in range(m)]
    obj, it = _reference_phase(T, basis, np.array([Fraction(0)] * art0 + [Fraction(1)] * m, dtype=object), 0)
    if obj is None:
        raise LpFailure("phase-1 simplex ended unbounded")
    if sum(T[i, -1] for i in range(m) if basis[i] >= art0) > 0:
        return LpSolution("infeasible", farkas=[(1 - obj[art0 + i]) * signs[i] for i in range(m)], iterations=it)
    dropped = []
    for i in range(m):
        if basis[i] >= art0:
            j = next((j for j in range(art0) if T[i, j] != 0), None)
            if j is None:
                dropped.append(i)
            else:
                _reference_pivot(T, i, j)
                basis[i] = j
    T = np.delete(T, dropped, axis=0)
    T = np.concatenate((T[:, :art0], T[:, -1:]), axis=1)
    basis = [b for i, b in enumerate(basis) if i not in dropped]
    obj, it = _reference_phase(T, basis, np.array(costs, dtype=object), it)
    if obj is None:
        return LpSolution("unbounded", iterations=it)
    x_std = [Fraction(0)] * art0
    for i, j in enumerate(basis):
        x_std[j] = T[i, -1]
    x = [sum((sign * x_std[col] for col, sign in terms), Fraction(0)) for terms in col_terms]
    value = sum((Fraction(c) * v for c, v in zip(lp.objective, x)), Fraction(0))
    return LpSolution("optimal", x=x, objective_value=value, iterations=it, basis=(tuple(basis), tuple(dropped)))


def _reference_phase(T, basis, costs, it: int):
    """One phase of `reference_rational_simplex` on T in place: (reduced costs, None if unbounded; pivots so far)."""
    obj = costs.copy()
    for i, j in enumerate(basis):
        obj = obj - costs[j] * T[i, :-1]
    while True:
        entering = reference_entering(obj, 0)
        if entering is None:
            return obj, it
        leaving = reference_leaving(T, entering, basis, 0)
        if leaving is None:
            return None, it
        _reference_pivot(T, leaving, entering)
        basis[leaving] = entering
        obj = obj - obj[entering] * T[leaving, :-1]
        it += 1


def _reference_pivot(T, row: int, col: int):
    T[row, :] = T[row, :] / T[row, col]
    for i in range(len(T)):
        if i != row and T[i, col] != 0:
            T[i, :] = T[i, :] - T[i, col] * T[row, :]


def reference_exact_fit(samples: SampleSet, degree: int) -> FitResult:
    """The exact working-set loop from evenly spaced samples, every round cold: the reference for exact `fit_minimax`.

    Each round solves the minimax LP over the working set's rows, in sorted
    index order, with `solve_exact`, and takes every residual as a Python
    ``Fraction`` sum over `reference_lift` rows.  It stops when the worst
    sample (largest |r|, lowest index) deviates by at most z or is in the
    working set already; otherwise it adds that sample (d > 1), or in 1-D the
    largest-|r| sample of each sign run beyond z, the lowest index among ties.
    """
    basis = build_basis(samples.dimension, degree)
    points, values = (a.tolist() for a in samples.view(True))
    rows = [reference_lift(p, basis.exponents) for p in points]
    n, nc = len(rows), basis.size
    k0 = min(n, 2 * (nc + 2))
    working = {0} if k0 <= 1 else {round(i * (n - 1) / (k0 - 1)) for i in range(k0)}
    order = sorted(range(n), key=lambda i: points[i][0])
    while True:
        A, rhs = [], []
        for i in sorted(working):
            A += [rows[i] + [-1], [-g for g in rows[i]] + [-1]]
            rhs += [values[i], -values[i]]
        sol = solve_exact(LinearProgram([0] * nc + [1], A, ["<="] * len(rhs), rhs, [(None, None)] * nc + [(0, None)]))
        assert sol.status == "optimal"
        coeffs, z = sol.x[:nc], sol.x[nc]
        residuals = [v - sum((c * g for c, g in zip(coeffs, row)), Fraction(0)) for v, row in zip(values, rows)]
        psi = max(map(abs, residuals))
        worst = [abs(r) for r in residuals].index(psi)
        if psi <= z or worst in working:
            return FitResult(PolynomialModel(basis, tuple(coeffs)), psi, residuals)
        if samples.dimension > 1:
            working.add(worst)
            continue
        live = [(i, residuals[i]) for i in order if residuals[i]]
        for _, run in groupby(live, key=lambda item: item[1] < 0):
            run = list(run)
            peak = max(abs(r) for _, r in run)
            if peak > z:
                working.add(min(i for i, r in run if abs(r) == peak))


def reference_reduction(extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False) -> ReductionReport:
    """Every branch of the point reduction replayed from scratch: the reference for `reduce_and_verify`.

    Branches come in `itertools.product` order over (dimension, min/max); each
    one shifts and removes from the original extreme sets, stops when a side
    is empty (vacuous), and ends with its own degree-1 hull test.
    """
    choices = [(j, v) for j in range(samples.dimension) for v in ("min", "max")]
    traces = []
    for branch in product(choices, repeat=degree - 1):
        plus, minus = set(extremes.plus), set(extremes.minus)
        live = sorted(plus | minus)
        coords = dict(zip(live, samples.view(exact)[0][live].tolist()))
        steps = []
        for j, variant in branch:
            if not plus or not minus:
                break
            live = sorted(plus | minus)
            column = [coords[i][j] for i in live]
            if variant == "min":
                delta = min(column)
                for i in live:
                    coords[i][j] = coords[i][j] - delta
            else:
                top = max(column)
                for i in live:
                    coords[i][j] = top - coords[i][j]
                delta = -top
            if exact:
                removed = tuple(i for i in live if coords[i][j] == 0)
            else:
                removed = tuple(i for i in live if abs(coords[i][j]) <= ZERO_TOL)
            plus -= set(removed)
            minus -= set(removed)
            steps.append(ReductionStep(j + 1, variant, delta, removed, degree - len(steps) - 1))
        if not plus or not minus:
            verdict = "vacuous"
        else:
            verdict = "pass" if hulls_intersect(samples, sorted(plus), sorted(minus), 1, exact) else "fail"
        traces.append(ReductionTrace(tuple((j + 1, v) for j, v in branch), tuple(steps), verdict))
    return ReductionReport(
        verdict="fail" if any(t.verdict == "fail" for t in traces) else "pass",
        traces=tuple(traces),
        vacuous_branches=sum(t.verdict == "vacuous" for t in traces),
    )


def random_samples(rng: random.Random, dimension: int, count: int) -> SampleSet:
    points = []
    seen = set()
    while len(points) < count:
        p = tuple(round(rng.uniform(-1, 1), 6) for _ in range(dimension))
        if p in seen:
            continue
        seen.add(p)
        points.append(p)
    values = [round(rng.uniform(-1, 1), 6) for _ in range(count)]
    return SampleSet(points, values)


def build_fit_corpus(seed: int, count: int, dims, degrees, point_range) -> list[Instance]:
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        d = rng.choice(list(dims))
        m = rng.choice(list(degrees))
        n = rng.randint(*point_range)
        samples = random_samples(rng, d, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits are expected here
            fit = fit_minimax(samples, m)
        corpus.append(Instance(samples, m, fit, extreme_sets(fit.model, samples)))
    return corpus


def lemma_system(rng: random.Random, n_left: int, n_right: int):
    """Weight triples satisfying the shift-identity hypotheses exactly."""

    def frac(lo=-3, hi=3):
        return Fraction(rng.randint(lo * 12, hi * 12), 12)

    def positive_frac():
        return Fraction(rng.randint(1, 24), 12)

    raw = [positive_frac() for _ in range(n_left)]
    total = sum(raw)
    alphas = [w / total for w in raw]
    lefts = [(alphas[i], positive_frac(), frac()) for i in range(n_left)]

    raw = [positive_frac() for _ in range(n_right)]
    total = sum(raw)
    betas = [w / total for w in raw]
    bs = [positive_frac() for _ in range(n_right)]
    mass_left = sum(w * a for w, a, _ in lefts)
    mass_right = sum(b * v for b, v in zip(betas, bs))
    bs = [v * mass_left / mass_right for v in bs]  # match the weighted masses

    ys = [frac() for _ in range(n_right - 1)]
    moment_left = sum(w * a * x for w, a, x in lefts)
    partial = sum(betas[i] * bs[i] * ys[i] for i in range(n_right - 1))
    y_last = (moment_left - partial) / (betas[-1] * bs[-1])
    ys.append(y_last)
    rights = [(betas[i], bs[i], ys[i]) for i in range(n_right)]
    return lefts, rights


def synthetic_univariate(signs: str) -> tuple[SampleSet, ExtremeSets]:
    """Extreme sets over points 0..n-1 with the given '+-' sign pattern."""
    n = len(signs)
    xs = [(float(i),) for i in range(n)]
    samples = SampleSet(xs, [1.0 if c == "+" else -1.0 for c in signs])
    plus = tuple(i for i, c in enumerate(signs) if c == "+")
    minus = tuple(i for i, c in enumerate(signs) if c == "-")
    return samples, ExtremeSets(plus=plus, minus=minus, psi=1.0, rel_tol=0.0)


_builtin_sum = builtins.sum  # kept: a test may put `compensated_sum` in its place


def compensated_sum(iterable, /, start=0):
    """`sum` as CPython computes it over floats from 3.12 on: Neumaier's compensated sum.

    Items that are not all floats (ints, ``Fraction``, numpy scalars) are
    summed by the running interpreter's own `sum`.
    """
    items = list(iterable)
    if not items or type(start) not in (int, float) or not all(type(x) is float for x in items):
        return _builtin_sum(items, start)
    s, c = float(start), 0.0
    for x in items:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c if c and math.isfinite(c) else s
