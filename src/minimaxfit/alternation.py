"""Hyperplane sign-splitting: the multivariate generalisation of alternation.

A hyperplane flips the deviation sign of everything on its negative side.  For
an optimal model, every hyperplane split must admit either a degree-reduced
hull intersection of the flipped classes or a same-degree intersection of the
on-plane sign classes.  Enumerating only the hyperplanes through d affinely
independent extreme points suffices, which turns the condition into finitely
many hull checks, small LPs in d > 1.

`verify_by_hyperplanes` takes the d-point combinations in batches: a small
first batch, so that a split failing early classifies few planes, then
batches of a fixed size, so that memory stays bounded.  A float batch gets
its planes from one batched SVD (`affine_normals`, bit for bit
`affine_normal`'s).  An exact one works over integers: the extreme points
are scaled once to X / q (one `integer_row` over all their coordinates),
and `integer_normals` gives each plane as a primitive integer normal U and
offset A.  One sign matrix sign(X U^T - a) of the extreme points X against
the batch's planes classifies them all as `split` classifies one: a float
plane scaled to a unit normal with `PLANE_TOL`, an exact one as integer
sums with no tolerance.  Only a counterexample's plane goes back to the
rational normal whose first non-zero component is 1, as reports show it.

Many splits need no LP: a degree-(m-1) certificate with support S+, S-
(convex weights matching every lifted moment) is, zero elsewhere, a feasible
point of the moment LP of any later split whose flipped classes hold S+ and
S- one each, either way round, as the LP is symmetric in its sides.  So each
support found marks, as a boolean mask over the batch, every plane whose
flipped classes contain it, and a marked plane holds with no LP.  The
support is whichever vertex the priced moment LP of `hulls_intersect`
reaches.  So pricing decides which planes it marks, but not a verdict: a
marked plane's hulls do meet.

In d > 1 the degree-(m-1) tests go in groups, in either arithmetic.  A
group is the next planes, in plane order, that no stored support marks and
whose test is a moment LP (both flipped classes non-empty, no point in
both).  The first group holds one plane and each next one twice as many, up
to `_GROUP`, so a split failing at its first plane still costs one LP.  A
group of more than one plane is one `optimality.hulls_intersect_batch` call:
a stack of moment LPs over the extreme rows lifted once, solved together by
`lp.solve_batch`.  It reads the float view of the lifted rows, also in
exact arithmetic.  A batched answer only ever says that the hulls meet,
with the support `hulls_intersect` reaches on that plane, and only once its
weights are non-negative and its rows hold; in exact arithmetic, only once
`optimality.certified_meet` finds exact weights on that support, whose
positive ones are the support stored.  The planes still take their
turns in plane order, and supports are stored in that order: a plane that
a support stored after its group was formed marks drops its answer.  So the
planes that need a test, and the supports they store, are those of one
test per plane.  Every other plane takes the scalar `hulls_intersect` at its
turn: one the batch left undecided (infeasible, at the pivot cap or failing
a check), one whose test is no LP, and every degree-m point-elimination
test.  A failing split, and so the counterexample, is decided as it is
without the batch.  In d = 1, and for exact points beyond float range,
every test is one `hulls_intersect` per plane, on sample indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from ._linalg import affine_normals, integer_normals, integer_row
from ._linalg import affine_normal  # unused here, kept because bench/tracing.py counts alternation.affine_normal
from .fitting import ExtremeSets, SampleSet
from .monomials import Number
from .optimality import certified_meet, hulls_intersect, hulls_intersect_batch

PLANE_TOL = 1e-9
_CANON_DECIMALS = 12  # a float plane's key: its normal and offset rounded to this many decimals
_FIRST_BATCH = 16  # combinations in the first batch
_BATCH = 2048  # combinations in every later batch
_GROUP = 32  # the most degree-(m-1) hull tests that one `hulls_intersect_batch` call makes


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
    exact mode keeps the normal rational and classifies over integers with
    zero tolerance, as `verify_by_hyperplanes` does.
    """
    conv = Fraction if exact else float
    u = [conv(c) for c in normal]
    if not any(u):
        raise ValueError("hyperplane normal must be non-zero")
    if len(u) != samples.dimension:
        raise ValueError(f"normal has dimension {len(u)}, samples have {samples.dimension}")
    rows, sign = _rows(extremes)
    points = samples.view(exact)[0][rows]
    if exact:  # <u, x> - a = (<W, X> - q c) / (q r), with x = X / q and (u, a) = (W, c) / r
        normal, offset = tuple(u), Fraction(offset)
        points, q = _integer_points(points)
        w, _ = integer_row([*u, offset])
        normals, offsets = np.array([w[:-1]], dtype=object), np.array([q * w[-1]], dtype=object)
    else:
        normals, offsets = _unit(np.array([u]), np.array([float(offset)]))
        normal, offset = tuple(normals[0].tolist()), offsets.tolist()[0]
    side = _sides(points, normals, offsets, exact)
    return HyperplaneSplit(normal, offset, *_classes(rows, side[:, 0] * sign, sign))


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


def verify_by_hyperplanes(
    extremes: ExtremeSets,
    samples: SampleSet,
    degree: int,
    exact: bool = False,
) -> HyperplaneVerdict:
    """Check every hyperplane through d affinely independent extreme points.

    Passes when each induced split satisfies the split condition; the first
    failing split is returned as a counterexample, equal to `split` of the
    first combination's `affine_normal` plane.  Planes go in the order of
    the combinations, each counted once.  A split whose flipped classes
    contain a degree-(m-1) support found before (see the module docstring)
    holds with no LP, and point elimination runs only when degree reduction
    fails; verdict, count and counterexample equal those of
    `check_split_condition` on every plane.  Degree 1 asks `hulls_intersect`
    whether the degree-1 hulls of E+ and E- meet, which is the certificate's
    verdict with no moment LP on a line.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        met = hulls_intersect(samples, extremes.plus, extremes.minus, 1, exact) is not None
        verdict = "pass" if met else "fail"
        return HyperplaneVerdict(verdict, None, 0, warning="degree 1: direct hull check")

    d = samples.dimension
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    if len(idxs) < d:
        return HyperplaneVerdict(
            "vacuous", None, 0, warning=f"fewer than d = {d} extreme points"
        )

    coords, q = samples.view(exact)[0][idxs], None
    if exact:
        coords, q = _integer_points(coords)
    place = {i: k for k, i in enumerate(idxs)}
    in_plus, in_minus = (np.array([[i in cls] for i in idxs]) for cls in map(set, (extremes.plus, extremes.minus)))
    rows, sign = _rows(extremes)
    at = [place[i] for i in rows]
    n = len(idxs)
    lifted = None  # float rows for `hulls_intersect_batch`, in either arithmetic
    if d > 1:
        try:
            lifted = samples.lifted(rows, degree - 1, False)
        except OverflowError:  # exact points beyond float range: every test is scalar
            pass
    twice = np.flatnonzero(in_plus[:, 0] & in_minus[:, 0])
    seen: set = set()
    supports: list = []  # rows of `_contains`'s stack for every degree-(m-1) support found
    checked = 0
    group = 1
    combos = combinations(range(len(idxs)), d)
    size = _FIRST_BATCH
    while batch := list(islice(combos, size)):
        size = _BATCH
        batch, normals, offsets = _new_planes(batch, coords, exact, seen)
        if not batch:
            continue
        side = _sides(coords, normals, offsets, exact)
        flipped = side[at] * sign[:, None]
        classes = _point_classes(side, in_plus, in_minus)
        # the planes whose degree-(m-1) test is an LP: both flipped classes non-empty, no point in both
        moment_lp = (flipped > 0).any(axis=0) & (flipped < 0).any(axis=0) & ~(side[twice] != 0).any(axis=0)
        reused = np.zeros(len(batch), dtype=bool)
        for support in supports:
            reused |= _contains(classes, support)
        grouped, meets = 0, {}  # the planes before `grouped` have had their group; the meets its batch found
        for j in range(len(batch)):
            checked += 1
            if reused[j]:
                continue
            plus_side, minus_side, on_plus, on_minus = _classes(rows, flipped[:, j], sign)
            if lifted is not None and j >= grouped and moment_lp[j]:
                planes = j + np.flatnonzero(moment_lp[j:] & ~reused[j:])[:group]
                grouped, group = planes[-1] + 1, min(2 * group, _GROUP)
                if len(planes) > 1:
                    meets = {k: tuple(frozenset(rows[r] for r in cls) for cls in meet) for k, meet
                             in zip(planes.tolist(), hulls_intersect_batch(lifted, flipped[:, planes])) if meet}
            found = meets.get(j)
            if exact:  # a float meet counts once exact weights on its support certify it
                found = certified_meet(samples, found, degree - 1)
            found = found or hulls_intersect(samples, plus_side, minus_side, degree - 1, exact)
            if found:
                s, t = ([place[i] for i in members] for members in found)
                supports.append(np.array([s + [n + k for k in t], [n + k for k in s] + t]))
                reused |= _contains(classes, supports[-1])
                continue
            if hulls_intersect(samples, on_plus, on_minus, degree, exact) is None:
                normal, offset = normals[j].tolist(), offsets.tolist()[j]
                if exact:
                    normal, offset = _rational_plane(normal, offset, q)
                counterexample = HyperplaneSplit(tuple(normal), offset, plus_side, minus_side, on_plus, on_minus)
                return HyperplaneVerdict("fail", counterexample, checked)
    if checked == 0:
        return HyperplaneVerdict(
            "vacuous", None, 0, warning="no affinely independent extreme subset"
        )
    return HyperplaneVerdict("pass", None, checked)


def _new_planes(batch, coords: np.ndarray, exact: bool, seen: set):
    """The combinations of `batch` whose plane is unique and not in `seen`, with their normals and offsets.

    An exact plane's key is its primitive integer normal and offset over
    the integer points (`integer_normals`), which fix its rational normal
    whose first non-zero component is 1, and its offset; a float one's, its
    normal and offset rounded to `_CANON_DECIMALS` decimals.  Each new key
    goes into `seen`.
    """
    normals, offsets, unique = (integer_normals if exact else affine_normals)(coords[np.array(batch)])
    if exact:
        keys = [(*u, a) if ok else None for u, a, ok in zip(normals.tolist(), offsets.tolist(), unique.tolist())]
    else:
        keys = [tuple([round(v, _CANON_DECIMALS) for v in u + [a]]) if ok else None
                for u, a, ok in zip(normals.tolist(), offsets.tolist(), unique.tolist())]
    kept = []
    for k, key in enumerate(keys):
        if key is not None and key not in seen:
            seen.add(key)
            kept.append(k)
    if not kept:
        return [], None, None
    normals, offsets = (normals[kept], offsets[kept]) if exact else _unit(normals[kept], offsets[kept])
    return [batch[k] for k in kept], normals, offsets


def _integer_points(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact points as integers X over one denominator q, the lcm of all of theirs (`integer_row`): (X, q)."""
    X, q = integer_row(points.ravel().tolist())
    return np.array(X, dtype=object).reshape(points.shape), q


def _rational_plane(normal: list[int], offset: int, q: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """An integer plane over the points X / q as the rational (u, a) whose first non-zero u is 1, as reports show it."""
    lead = next(c for c in normal if c)
    return tuple(Fraction(c, lead) for c in normal), Fraction(offset, q * lead)


def _unit(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float planes scaled to unit normals, the norm's squares summed over the coordinates in order."""
    norm = normals[:, 0] * normals[:, 0]
    for k in range(1, normals.shape[1]):
        norm = norm + normals[:, k] * normals[:, k]
    norm = np.sqrt(norm)
    return normals / norm[:, None], offsets / norm


def _sides(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray, exact: bool) -> np.ndarray:
    """sign(<u, x> - a) of each point (rows) against each plane (columns): 0 within `PLANE_TOL`, or exactly 0.

    Exact points, normals and offsets are Python ints (`_integer_points`,
    `integer_normals`), so every sign is an integer sum's.  The sum runs
    over the coordinates in order, so a float value does not depend on how
    many points or planes there are.
    """
    s = points[:, :1] * normals[:, 0]
    for k in range(1, normals.shape[1]):
        s = s + points[:, k:k + 1] * normals[:, k]
    s = s - offsets
    tol = 0 if exact else PLANE_TOL
    return (s > tol).astype(np.int8) - (s < -tol)


def _rows(extremes: ExtremeSets) -> tuple[list, np.ndarray]:
    """The extreme points once per class they are in, E+ first, and each row's class sign (+1 for E+, -1 for E-)."""
    rows = list(extremes.plus) + list(extremes.minus)
    return rows, np.where(np.arange(len(rows)) < len(extremes.plus), 1, -1).astype(np.int8)


def _classes(rows: list, flipped: np.ndarray, sign: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """A plane's (plus_side, minus_side, on_plane_plus, on_plane_minus) from its flipped sides of the rows.

    A row's flipped side is its side of the plane times its class sign.
    """
    classes: tuple[list, ...] = ([], [], [], [])
    for i, f, c in zip(rows, flipped.tolist(), sign.tolist()):
        classes[(0 if f > 0 else 1) if f else (2 if c > 0 else 3)].append(i)
    return tuple(map(tuple, classes))


def _point_classes(side: np.ndarray, in_plus: np.ndarray, in_minus: np.ndarray) -> np.ndarray:
    """Which points each plane puts in its flipped plus class (rows 0..n-1) and its flipped minus class (n..2n-1)."""
    up, down = side == 1, side == -1
    return np.concatenate((up & in_plus | down & in_minus, down & in_plus | up & in_minus))


def _contains(classes: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The planes whose flipped classes hold S+ and S- one each, either way round.

    `classes` stacks each plane's flipped plus class over its flipped minus
    class; the support's two rows index S+ in the first and S- in the
    second, and the other way round.
    """
    return np.logical_and.reduce(classes[support], axis=1).any(axis=0)
