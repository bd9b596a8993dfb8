"""Fast necessary-condition check by coordinate-extreme point removal.

Each step picks a dimension and a min/max variant, translates that
coordinate so its extremizers land on zero, removes them, and lowers the
degree by one; after degree-many-minus-one steps the remaining extreme sets
must intersect in plain R^d (or one side must have been emptied, which
passes vacuously).  The underlying shift identity is valid for every legal
(dimension, variant) choice, so necessity demands that every branch pass,
and every branch is run: one depth-first walk of the branch tree makes each
shared prefix's shifts and removals once.

The closing test, `hulls_intersect` (no LP on a line), runs on the survivors'
own coordinates: each step maps one coordinate of every survivor by the same
affine bijection (x -> x - delta, or top - x), which maps hulls onto hulls and
so cannot change whether degree-1 hulls meet; shifts only decide removals.
So branches that end with the same survivors share one closing test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fitting import ExtremeSets, SampleSet
from .monomials import Number
from .optimality import hulls_intersect

ZERO_TOL = 1e-10


@dataclass(frozen=True)
class ReductionStep:
    dimension: int  # 1-based, matching the x1..xd column naming
    variant: str  # "min" | "max"
    delta: Number  # min coordinate, or -max for the max variant
    removed: tuple[int, ...]  # sample indices whose shifted coordinate hit zero
    degree_after: int


@dataclass(frozen=True)
class ReductionTrace:
    branch: tuple[tuple[int, str], ...]  # planned (dimension, variant) sequence
    steps: tuple[ReductionStep, ...]
    verdict: str  # "pass" | "fail" | "vacuous"


@dataclass(frozen=True)
class ReductionReport:
    verdict: str  # "pass" | "fail"
    traces: tuple[ReductionTrace, ...]
    vacuous_branches: int


def _step(coords, j, variant, exact):
    """Shift coordinate j of the live points onto zero: (delta, removed, survivors' coordinates)."""
    live = sorted(coords)
    column = [coords[i][j] for i in live]
    if variant == "min":
        delta = min(column)
        column = [x - delta for x in column]
    else:
        top = max(column)
        # flip the axis so the shift again lands on non-negative values
        column = [top - x for x in column]
        delta = -top
    hit = [x == 0 if exact else abs(x) <= ZERO_TOL for x in column]
    removed = tuple(i for i, h in zip(live, hit) if h)
    survivors = {i: coords[i][:j] + (x,) + coords[i][j + 1:] for i, x, h in zip(live, column, hit) if not h}
    return delta, removed, survivors


def reduce_and_verify(
    extremes: ExtremeSets,
    samples: SampleSet,
    degree: int,
    exact: bool = False,
) -> ReductionReport:
    """Necessary optimality check via iterated point reduction.

    Runs every (dimension, variant) sequence of degree-1 steps, one trace per
    branch in `itertools.product` order.  Fails when any branch ends with
    disjoint hulls; a branch that empties an extreme set passes vacuously and
    is counted in `vacuous_branches`.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not extremes.plus or not extremes.minus:
        raise ValueError("both extreme sets must be non-empty")
    choices = [(j, v) for j in range(samples.dimension) for v in ("min", "max")]
    live = sorted(set(extremes.plus) | set(extremes.minus))
    traces = []
    closing = {}  # survivor pair -> verdict of its degree-1 hull test

    def walk(branch, coords, plus, minus, steps):
        if not plus or not minus:
            for rest in product(choices, repeat=degree - 1 - len(branch)):
                traces.append(ReductionTrace(branch + tuple((j + 1, v) for j, v in rest), steps, "vacuous"))
        elif len(branch) == degree - 1:
            key = (tuple(sorted(plus)), tuple(sorted(minus)))
            if key not in closing:
                closing[key] = "pass" if hulls_intersect(samples, *key, 1, exact) else "fail"
            traces.append(ReductionTrace(branch, steps, closing[key]))
        else:
            for j, variant in choices:
                delta, removed, survivors = _step(coords, j, variant, exact)
                step = ReductionStep(j + 1, variant, delta, removed, degree - 1 - len(branch))
                walk(branch + ((j + 1, variant),), survivors, plus - set(removed), minus - set(removed),
                     steps + (step,))

    walk((), dict(zip(live, map(tuple, samples.view(exact)[0][live].tolist()))),
         set(extremes.plus), set(extremes.minus), ())
    return ReductionReport(
        verdict="fail" if any(trace.verdict == "fail" for trace in traces) else "pass",
        traces=tuple(traces),
        vacuous_branches=sum(trace.verdict == "vacuous" for trace in traces),
    )
