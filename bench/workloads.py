"""Seeded inputs for the benchmark workloads.

Every input is a CSV file (header x1..xd,f) and, for ``verify-coeffs``, a
coefficients JSON; the program under test receives only these files.  Targets
are random integer-coefficient polynomials of degree m+1 or m+2, some with an
``abs(x1)`` term, sampled on uniform or Chebyshev grids over [-1, 1]^d.  The
same seed always gives the same files.  The fixed Baseline instances of
ROADMAP.md open the stream of the workload they belong to.

This module imports neither ``minimaxfit`` nor scipy: it replicates the
documented graded-lexicographic monomial order itself, so a change to that
order shows up as wrong answers instead of being silently followed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

# Why each workload exists, and the inputs that realise it (see STRATA below).
WORKLOADS = {
    "fit-1d": {
        "why": "float fit on 2,001-point 1-D grids: many samples, few extremes and m+2 planes, so "
               "per-sample residual and extreme-set passes, lifting and CSV ingest dominate",
        "params": "192 seeded 2,001-point grids, m=1..6, uniform and chebyshev nodes, random "
                  "targets of degree m+1..m+2; plus Baseline -1,1;1001;uniform;x1^6 at m=5",
    },
    "fit-exact": {
        "why": "fit --exact: the rational simplex takes nearly all op time and the float LP "
               "never runs",
        "params": "a seeded uniform 101-point grid at m=2; plus both exact Baseline rows, "
                  "-1,1;201;uniform;x1^4 at m=3 and -1,1:-1,1;9;uniform;x1^2*x2+x2^3 at m=2",
    },
    "verify-coeffs": {
        "why": "verify and alternate on given coefficients, no fitting: optimal models take the "
               "pass path (every plane checked), least-squares ones the fail path",
        "params": "4 seeded grids, 21^2/26^2/31^2 at m=4 and 7^3 at m=3; each with "
                  "HiGHS-optimal and least-squares coefficients, each run through verify and alternate",
    },
}

# The ROADMAP Baseline crash instances (abs-Chebyshev 21^2 at m=4 and the
# 3-D 9^3 fit) are not in any timed workload: once fixed they would run for
# minutes (8,556 candidate planes), and ROADMAP item 2 freezes them as
# regression tests instead.


def graded_lex(dimension: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponents, constant first, graded then reverse-lexicographic."""
    exps = [e for e in product(range(degree + 1), repeat=dimension) if sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), tuple(-c for c in e)))
    return exps


@dataclass
class Target:
    terms: list[tuple[tuple[int, ...], int]]  # (exponents, integer coefficient)
    abs_coeff: int = 0  # coefficient of abs(x1)

    def __call__(self, point):
        total = 0
        for exps, c in self.terms:
            term = c
            for x, e in zip(point, exps):
                if e:
                    term = term * x**e
            total = total + term
        if self.abs_coeff:
            total = total + self.abs_coeff * abs(point[0])
        return total

    def text(self) -> str:
        parts = []
        for exps, c in self.terms:
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e)
            parts.append(f"{c}*{mono}" if mono else str(c))
        if self.abs_coeff:
            parts.append(f"{self.abs_coeff}*abs(x1)")
        return " + ".join(parts) or "0"


@dataclass
class Instance:
    name: str
    dimension: int
    resolution: int
    nodes: str  # uniform | chebyshev
    degree: int  # model degree m
    target: Target
    exact: bool = False
    baseline: bool = False
    commands: list[str] = field(default_factory=lambda: ["fit"])
    coeff_kinds: list[str] = field(default_factory=list)  # verify-coeffs: "optimal", "lsq"
    points: Optional[list] = None
    values: Optional[list] = None
    xy: Optional[np.ndarray] = None  # float64 points, one row per sample
    f: Optional[np.ndarray] = None  # float64 values


def _axis(resolution: int, nodes: str, exact: bool):
    if nodes == "uniform":
        xs = [Fraction(-1) + Fraction(2 * k, resolution - 1) for k in range(resolution)]
        return xs if exact else [float(x) for x in xs]
    xs = sorted(math.cos(math.pi * k / (resolution - 1)) for k in range(resolution))
    return [Fraction(x) for x in xs] if exact else xs


def _random_target(high: random.Random, low: random.Random, dimension: int, degree: int) -> Target:
    """Random target of degree m+1 or m+2 for a degree-m model.

    `high` draws the part above degree m, which alone fixes the error
    function of the best fit (a degree-m model absorbs the rest), and the
    abs(x1) term; `low` draws the part of degree <= m.  Every monomial of the
    top degree is present, so the part above degree m involves every
    coordinate: a target whose excess depends on one coordinate only has a
    residual that is constant along grid lines, with extreme sets of dozens to
    hundreds of points and thousands of candidate planes (up to a minute per
    op).  Such instances stay out of the timed workloads for the same reason
    as the excluded Baseline rows.
    """
    coeff = lambda rng: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])  # noqa: E731
    top = degree + high.choice([1, 2])
    terms = []
    for e in graded_lex(dimension, top):
        rng = high if sum(e) > degree else low
        if sum(e) == top or rng.random() < 0.5:
            terms.append((e, coeff(rng)))
    abs_coeff = high.choice([-3, -2, -1, 1, 2, 3]) if high.random() < 1 / 3 else 0
    return Target(terms, abs_coeff)


def _seeded(high, low, workload, dimension, resolution, nodes, degree) -> Instance:
    nodes = nodes or high.choice(["uniform", "chebyshev"])
    target = _random_target(high, low, dimension, degree)
    extra = {}
    if workload == "verify-coeffs":
        extra = dict(commands=["verify", "alternate"], coeff_kinds=["optimal", "lsq"])
    return Instance(f"{workload}-d{dimension}-n{resolution}-{nodes}-m{degree}", dimension,
                    resolution, nodes, degree, target, exact=workload == "fit-exact", **extra)


# Instance shapes per workload as (dimension, points per axis, node type or
# None for a seeded choice, model degree m).  The seeded stream cycles
# through them.
STRATA = {
    "fit-1d": [(1, 2001, nodes, m) for m in range(1, 7) for nodes in ("uniform", "chebyshev")],
    # one seeded fit, faster than both Baseline rows: the median and the tail
    # then fall on fixed inputs (the seeded part moves an exact fit's time by
    # up to a factor of three)
    "fit-exact": [(1, 101, "uniform", 2)],
    # one 3-D model among three 2-D ones, so that its roughly 900-plane pass
    # path stays above the 90th percentile, which then rests on the 2-D ones
    "verify-coeffs": [(2, 21, None, 4), (2, 26, None, 4), (2, 31, None, 4), (3, 7, None, 3)],
}
# Only fit-1d runs enough distinct ops (193) for its medians to absorb fully
# random targets.  The other workloads hold 3 and 16 distinct ops, so there
# the part above degree m, the abs term and the node type are fixed per shape
# (drawn once from the shape's own generator) and the seed draws the part of
# degree <= m: every seed then poses problems of the same difficulty, with
# different input files and different LP data.
RANDOM_EXCESS = {"fit-1d"}
# Seeded instances per run, and the time one pass over a workload's ops took
# when the baseline was measured (2-core VM, Python 3.11).  A run makes
# round(seconds / PASS_S) passes, at least one, so that it lasts about
# --seconds today and every later commit repeats each op as often.  fit-1d
# makes one pass over twice as many inputs rather than two: its share of
# failing inputs, and so ok_rate, then moves less from seed to seed.
STREAM_LENGTH = {"fit-1d": 192, "fit-exact": 1, "verify-coeffs": 4}
PASS_S = {"fit-1d": 22.0, "fit-exact": 8.5, "verify-coeffs": 4.0}


def _baselines(workload: str) -> list[Instance]:
    if workload == "fit-1d":
        return [Instance("baseline-x1^6-n1001-m5", 1, 1001, "uniform", 5, Target([((6,), 1)]),
                         baseline=True)]
    if workload == "fit-exact":
        return [Instance("baseline-x1^4-n201-m3", 1, 201, "uniform", 3, Target([((4,), 1)]),
                         exact=True, baseline=True),
                Instance("baseline-x1^2*x2+x2^3-n9-m2", 2, 9, "uniform", 2,
                         Target([((2, 1), 1), ((0, 3), 1)]), exact=True, baseline=True)]
    return []


def plan(workload: str, seed: int) -> list[Instance]:
    """The instance stream of one workload for one seed: Baseline rows first."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out = _baselines(workload)
    strata = STRATA[workload]
    for k in range(STREAM_LENGTH[workload]):
        shape = k % len(strata)
        high = rng if workload in RANDOM_EXCESS else random.Random(f"{workload}:shape{shape}")
        out.append(_seeded(high, rng, workload, *strata[shape]))
    for k, inst in enumerate(out):
        inst.name = f"{k:03d}-{inst.name}"
    return out


def sample(inst: Instance) -> None:
    """Fill in the grid points and target values of an instance."""
    axis = _axis(inst.resolution, inst.nodes, inst.exact)
    inst.points = list(product(axis, repeat=inst.dimension))
    inst.xy = np.asarray(inst.points, dtype=float)
    if inst.exact:
        inst.values = [inst.target(p) for p in inst.points]
        inst.f = np.asarray([float(v) for v in inst.values])
    else:  # the same sums as Target.__call__, vectorised over the grid
        inst.f = inst.target(inst.xy.T)
        inst.values = inst.f.tolist()


def _cell(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


def write_csv(inst: Instance, path: Path) -> None:
    header = [f"x{i + 1}" for i in range(inst.dimension)] + ["f"]
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in p) + "," + _cell(v) for p, v in zip(inst.points, inst.values)]
    path.write_text("\n".join(lines) + "\n")


def lifted(xy: np.ndarray, degree: int) -> np.ndarray:
    """Float64 matrix of basis monomials (graded-lex order) at the rows of `xy`."""
    exps = graded_lex(xy.shape[1], degree)
    return np.column_stack([np.prod(xy ** np.asarray(e, dtype=float), axis=1) for e in exps])


def least_squares_coeffs(inst: Instance) -> list[float]:
    """Least-squares coefficients: a model that is, in general, not minimax."""
    c, *_ = np.linalg.lstsq(lifted(inst.xy, inst.degree), inst.f, rcond=None)
    return c.tolist()


def write_coeffs(path: Path, degree: int, coeffs) -> None:
    path.write_text(json.dumps({"degree": degree, "coefficients": list(coeffs)}) + "\n")
