"""Fast necessary-condition check by coordinate-extreme point removal.

Each step picks a dimension and a min/max variant, translates that
coordinate so its extremizers land on zero, removes them, and lowers the
degree by one; after degree-many-minus-one steps the remaining extreme sets
must intersect in plain R^d (or one side must have been emptied, which
passes vacuously).  The underlying shift identity is valid for every legal
(dimension, variant) choice, so necessity demands that every branch pass;
the exhaustive strategy enumerates them all.

The closing test, `hulls_intersect` (no LP on a line), runs on the survivors'
own coordinates: each step maps one coordinate of every survivor by the same
affine bijection (x -> x - delta, or top - x), which maps hulls onto hulls and
so cannot change whether degree-1 hulls meet; shifts only decide removals.
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


def _branches(strategy: str, dimension: int, degree: int):
    steps_needed = degree - 1
    if strategy == "exhaustive":
        choices = [(j, v) for j in range(dimension) for v in ("min", "max")]
        return list(product(choices, repeat=steps_needed))
    if strategy == "single":
        return [tuple((k % dimension, "min") for k in range(steps_needed))]
    raise ValueError(f"unknown strategy {strategy!r}")


def _run_branch(branch, plus0, minus0, samples: SampleSet, degree, exact):
    live = sorted(plus0 | minus0)
    coords = dict(zip(live, samples.view(exact)[0][live].tolist()))
    plus, minus = set(plus0), set(minus0)
    mcur = degree
    steps = []
    for j, variant in branch:
        if mcur <= 1 or not plus or not minus:
            break
        live = sorted(plus | minus)
        column = [coords[i][j] for i in live]
        if variant == "min":
            delta = min(column)
            for i in live:
                coords[i][j] = coords[i][j] - delta
        else:
            top = max(column)
            # flip the axis so the shift again lands on non-negative values
            for i in live:
                coords[i][j] = top - coords[i][j]
            delta = -top
        if exact:
            removed = tuple(i for i in live if coords[i][j] == 0)
        else:
            removed = tuple(i for i in live if abs(coords[i][j]) <= ZERO_TOL)
        plus -= set(removed)
        minus -= set(removed)
        mcur -= 1
        steps.append(ReductionStep(j + 1, variant, delta, removed, mcur))

    if not plus or not minus:
        verdict = "vacuous"
    else:
        verdict = "pass" if hulls_intersect(samples, sorted(plus), sorted(minus), 1, exact) else "fail"
    return ReductionTrace(tuple((j + 1, v) for j, v in branch), tuple(steps), verdict)


def reduce_and_verify(
    extremes: ExtremeSets,
    samples: SampleSet,
    degree: int,
    strategy: str = "exhaustive",
    exact: bool = False,
) -> ReductionReport:
    """Necessary optimality check via iterated point reduction.

    `strategy` is "exhaustive", every (dimension, variant) sequence, or
    "single", the one branch that takes the dimensions 1..d in turn with the
    min variant.  Fails when any branch ends with disjoint hulls; a branch
    that empties an extreme set passes vacuously and is counted in
    `vacuous_branches`.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not extremes.plus or not extremes.minus:
        raise ValueError("both extreme sets must be non-empty")
    plus0, minus0 = set(extremes.plus), set(extremes.minus)

    traces = []
    vacuous = 0
    any_fail = False
    for branch in _branches(strategy, samples.dimension, degree):
        trace = _run_branch(branch, plus0, minus0, samples, degree, exact)
        traces.append(trace)
        if trace.verdict == "fail":
            any_fail = True
        elif trace.verdict == "vacuous":
            vacuous += 1
    return ReductionReport(
        verdict="fail" if any_fail else "pass",
        traces=tuple(traces),
        vacuous_branches=vacuous,
    )
