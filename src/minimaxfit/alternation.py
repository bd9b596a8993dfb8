"""Hyperplane sign-splitting: the multivariate generalisation of alternation.

A hyperplane flips the deviation sign of everything on its negative side.
For an optimal model, every hyperplane split must admit either a
degree-reduced hull intersection of the flipped classes or a same-degree
intersection of the on-plane sign classes.  Enumerating only the hyperplanes
through d affinely independent extreme points suffices, which turns the
condition into finitely many small LP checks.  Many need no LP: a degree-(m-1)
certificate with support S+, S- (convex weights matching every lifted moment)
is, zero elsewhere, a feasible point of the moment LP of any later split whose
flipped classes hold S+ and S- one each, either way round, as the LP is
symmetric in its sides.  So enumeration keeps the supports it has found.

Every hull test is `hulls_intersect` on sample indices, over rows lifted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from ._linalg import affine_normal
from .fitting import ExtremeSets, SampleSet
from .monomials import Number
from .optimality import IntersectionCertificate, check_hull_intersection, hulls_intersect

PLANE_TOL = 1e-9
_CANON_DECIMALS = 12


@dataclass(frozen=True)
class HyperplaneSplit:
    """Sign-flip classification of extreme points against <u, x> = a.

    `plus_side` collects points whose deviation sign matches the sign of
    their half-space (E+ above, E- below); `minus_side` the opposite;
    on-plane points keep their own sign class.
    """

    normal: tuple[Number, ...]
    offset: Number
    plus_side: tuple[int, ...]
    minus_side: tuple[int, ...]
    on_plane_plus: tuple[int, ...]
    on_plane_minus: tuple[int, ...]


@dataclass(frozen=True)
class SplitCondition:
    holds: bool
    via: Optional[str]  # "degree_reduction" | "point_elimination"
    degree_reduction: Optional[bool]  # None when both sides of the check are empty
    point_elimination: Optional[bool]


@dataclass(frozen=True)
class HyperplaneVerdict:
    verdict: str  # "pass" | "fail" | "vacuous"
    counterexample: Optional[HyperplaneSplit]
    planes_checked: int
    warning: Optional[str] = None


def split(
    extremes: ExtremeSets,
    samples: SampleSet,
    normal: Sequence[Number],
    offset: Number,
    exact: bool = False,
) -> HyperplaneSplit:
    """Partition the extreme points by side of the hyperplane <u, x> = a.

    Float normals are scaled to unit length before the 1e-9 tolerance test;
    exact mode classifies with zero tolerance and keeps the normal rational.
    """
    if exact:
        u = [Fraction(c) for c in normal]
        a = Fraction(offset)
    else:
        u = [float(c) for c in normal]
        norm = math.sqrt(sum(c * c for c in u))
        if norm == 0:
            raise ValueError("hyperplane normal must be non-zero")
        u = [c / norm for c in u]
        a = float(offset) / norm
    if all(c == 0 for c in u):
        raise ValueError("hyperplane normal must be non-zero")
    if len(u) != samples.dimension:
        raise ValueError(f"normal has dimension {len(u)}, samples have {samples.dimension}")

    classed = [(i, True) for i in extremes.plus] + [(i, False) for i in extremes.minus]
    return _classify(classed, samples, u, a, exact)


def _classify(classed, samples: SampleSet, u, a, exact: bool) -> HyperplaneSplit:
    """Split (index, in E+) pairs by their side of <u, x> = a, flipping below the plane."""
    pts = samples.view(exact)[0]
    tol = 0 if exact else PLANE_TOL
    plus_side, minus_side, on_plus, on_minus = [], [], [], []
    for idx, positive_class in classed:
        s = sum(c * x for c, x in zip(u, pts[idx])) - a
        if abs(s) <= tol:
            (on_plus if positive_class else on_minus).append(idx)
        elif (s > 0) == positive_class:
            plus_side.append(idx)
        else:
            minus_side.append(idx)
    return HyperplaneSplit(
        tuple(u), a, tuple(plus_side), tuple(minus_side), tuple(on_plus), tuple(on_minus)
    )


def check_split_condition(
    split_: HyperplaneSplit, samples: SampleSet, degree: int, exact: bool = False
) -> SplitCondition:
    """Degree-reduction or point-elimination test for one hyperplane split.

    Degree reduction asks the degree-(m-1) lifted hulls of the flipped side
    classes to meet; point elimination asks the degree-m hulls of the
    on-plane sign classes to meet.  A test whose two input sets are both
    empty is not applicable (None) rather than false.
    """

    def meet(plus, minus, m) -> Optional[bool]:
        if not plus and not minus:
            return None
        return hulls_intersect(samples, plus, minus, m, exact) is not None

    reduction = meet(split_.plus_side, split_.minus_side, degree - 1)
    elimination = meet(split_.on_plane_plus, split_.on_plane_minus, degree)
    if reduction:
        via: Optional[str] = "degree_reduction"
    elif elimination:
        via = "point_elimination"
    else:
        via = None
    return SplitCondition(
        holds=bool(reduction) or bool(elimination),
        via=via,
        degree_reduction=reduction,
        point_elimination=elimination,
    )


def _canonical_key(u, a, exact: bool):
    if exact:
        lead = next(c for c in u if c != 0)
        return (tuple(c / lead for c in u), a / lead)
    return tuple(round(float(c), _CANON_DECIMALS) for c in list(u) + [a])


def _candidate_planes(idxs, samples: SampleSet, exact: bool):
    pts = samples.view(exact)[0]
    seen = set()
    for combo in combinations(idxs, samples.dimension):
        geom = affine_normal([pts[i] for i in combo], exact=exact)
        if geom is None:
            continue  # affinely dependent subset: plane not unique, excluded
        u, a = geom
        key = _canonical_key(u, a, exact)
        if key in seen:
            continue
        seen.add(key)
        yield u, a


def verify_by_hyperplanes(
    extremes: ExtremeSets,
    samples: SampleSet,
    degree: int,
    exact: bool = False,
    recursive: bool = False,
) -> HyperplaneVerdict:
    """Check every hyperplane through d affinely independent extreme points.

    Passes when each induced split satisfies the split condition; the first
    failing split is returned as a counterexample.  A split that contains a
    stored degree-(m-1) support (see the module docstring) holds with no LP,
    and point elimination runs only when degree reduction fails; verdict,
    count and counterexample equal those of `check_split_condition` on every
    plane.  Degree 1 delegates to the direct hull check.  `recursive=True`
    (univariate, degree <= 3 only) recurses the degree reduction down to the
    linear base case instead of closing with one moment LP.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        outcome = check_hull_intersection(extremes, samples, 1, exact)
        verdict = "pass" if isinstance(outcome, IntersectionCertificate) else "fail"
        return HyperplaneVerdict(verdict, None, 0, warning="degree 1: direct hull check")
    if recursive and (samples.dimension != 1 or degree > 3):
        raise ValueError("full recursion is supported for d = 1, degree <= 3 only")

    d = samples.dimension
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    if len(idxs) < d:
        return HyperplaneVerdict(
            "vacuous", None, 0, warning=f"fewer than d = {d} extreme points"
        )

    checked = 0
    supports: list = []  # (S+, S-) sample indices of every degree-(m-1) certificate found
    for u, a in _candidate_planes(idxs, samples, exact):
        sp = split(extremes, samples, u, a, exact=exact)
        if recursive:
            ok = _holds_recursive(sp, samples, degree, exact)
        else:
            ok = _holds_reusing(sp, samples, degree, exact, supports)
        checked += 1
        if not ok:
            return HyperplaneVerdict("fail", sp, checked)
    if checked == 0:
        return HyperplaneVerdict(
            "vacuous", None, 0, warning="no affinely independent extreme subset"
        )
    return HyperplaneVerdict("pass", None, checked)


def _holds_reusing(sp: HyperplaneSplit, samples: SampleSet, degree: int, exact: bool, supports: list) -> bool:
    """`check_split_condition(...).holds`, with no LP where a stored support decides it."""
    plus, minus = set(sp.plus_side), set(sp.minus_side)
    if any(s <= plus and t <= minus or s <= minus and t <= plus for s, t in supports):
        return True
    found = hulls_intersect(samples, sp.plus_side, sp.minus_side, degree - 1, exact)
    if found:
        supports.append(found)
        return True
    return hulls_intersect(samples, sp.on_plane_plus, sp.on_plane_minus, degree, exact) is not None


def _holds_recursive(sp: HyperplaneSplit, samples: SampleSet, degree: int, exact: bool) -> bool:
    if hulls_intersect(samples, sp.on_plane_plus, sp.on_plane_minus, degree, exact):
        return True
    return _verify_level(set(sp.plus_side), set(sp.minus_side), samples, degree - 1, exact)


def _verify_level(plus, minus, samples: SampleSet, degree: int, exact: bool) -> bool:
    if not plus or not minus:
        return False
    if degree == 1:
        return hulls_intersect(samples, sorted(plus), sorted(minus), 1, exact) is not None
    idxs = sorted(plus | minus)
    classed = [(i, i not in minus) for i in idxs]  # a point in both classes counts as E-
    for u, a in _candidate_planes(idxs, samples, exact):
        sp = _classify(classed, samples, u, a, exact)
        if not _holds_recursive(sp, samples, degree, exact):
            return False
    return True
