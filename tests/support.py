"""Shared corpus builders for the test suite."""

from __future__ import annotations

import builtins
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from minimaxfit import (
    ExtremeSets,
    FitResult,
    LinearProgram,
    SampleSet,
    extreme_sets,
    fit_minimax,
)


@dataclass
class Instance:
    samples: SampleSet
    degree: int
    fit: FitResult
    extremes: ExtremeSets


def lp_from_rows(objective, rows, bounds=None) -> LinearProgram:
    """The LP of rows (coefficients, relation, rhs), every number kept as given."""
    return LinearProgram(objective, [list(c) for c, _, _ in rows], [r for _, r, _ in rows],
                         [b for _, _, b in rows], bounds)


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
