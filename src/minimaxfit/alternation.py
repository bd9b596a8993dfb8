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
`affine_normal`'s); an exact one from `affine_normal` per combination.  One
sign matrix sign(X U^T - a) of the extreme points X against the batch's
planes classifies them all as `split` classifies one: a float plane scaled
to a unit normal with `PLANE_TOL`, an exact one with no tolerance.

Many splits need no LP: a degree-(m-1) certificate with support S+, S-
(convex weights matching every lifted moment) is, zero elsewhere, a feasible
point of the moment LP of any later split whose flipped classes hold S+ and
S- one each, either way round, as the LP is symmetric in its sides.  So each
support found marks, as a boolean mask over the batch, every plane whose
flipped classes contain it, and a marked plane holds with no LP.

Every hull test is `hulls_intersect` on sample indices, over rows lifted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from ._linalg import affine_normal, affine_normals
from .fitting import ExtremeSets, SampleSet
from .monomials import Number
from .optimality import hulls_intersect

PLANE_TOL = 1e-9
_CANON_DECIMALS = 12  # a float plane's key: its normal and offset rounded to this many decimals
_FIRST_BATCH = 16  # combinations in the first batch
_BATCH = 2048  # combinations in every later batch


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
    conv = Fraction if exact else float
    u = [conv(c) for c in normal]
    if not any(u):
        raise ValueError("hyperplane normal must be non-zero")
    if len(u) != samples.dimension:
        raise ValueError(f"normal has dimension {len(u)}, samples have {samples.dimension}")
    dtype = object if exact else float
    normals, offsets = np.array([u], dtype=dtype), np.array([conv(offset)], dtype=dtype)
    if not exact:
        normals, offsets = _unit(normals, offsets)
    rows, sign = _rows(extremes)
    side = _sides(samples.view(exact)[0][rows], normals, offsets, exact)
    return HyperplaneSplit(tuple(normals[0].tolist()), offsets.tolist()[0], *_classes(rows, side[:, 0] * sign, sign))


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

    coords = samples.view(exact)[0][idxs]
    place = {i: k for k, i in enumerate(idxs)}
    in_plus, in_minus = (np.array([[i in cls] for i in idxs]) for cls in map(set, (extremes.plus, extremes.minus)))
    rows, sign = _rows(extremes)
    at = [place[i] for i in rows]
    n = len(idxs)
    seen: set = set()
    supports: list = []  # rows of `_contains`'s stack for every degree-(m-1) support found
    checked = 0
    combos = combinations(range(len(idxs)), d)
    size = _FIRST_BATCH
    while batch := list(islice(combos, size)):
        size = _BATCH
        batch, normals, offsets = _new_planes(batch, coords, exact, seen)
        if not batch:
            continue
        side = _sides(coords, normals, offsets, exact)
        flipped = side[at] * sign[:, None]
        classes = None  # built when a support is first applied to this batch
        reused = np.zeros(len(batch), dtype=bool)
        for support in supports:
            classes = _point_classes(side, in_plus, in_minus) if classes is None else classes
            reused |= _contains(classes, support)
        for j in range(len(batch)):
            checked += 1
            if reused[j]:
                continue
            plus_side, minus_side, on_plus, on_minus = _classes(rows, flipped[:, j], sign)
            found = hulls_intersect(samples, plus_side, minus_side, degree - 1, exact)
            if found:
                s, t = ([place[i] for i in members] for members in found)
                supports.append(np.array([s + [n + k for k in t], [n + k for k in s] + t]))
                if j + 1 < len(batch):
                    classes = _point_classes(side, in_plus, in_minus) if classes is None else classes
                    reused |= _contains(classes, supports[-1])
                continue
            if hulls_intersect(samples, on_plus, on_minus, degree, exact) is None:
                counterexample = HyperplaneSplit(tuple(normals[j].tolist()), offsets.tolist()[j],
                                                 plus_side, minus_side, on_plus, on_minus)
                return HyperplaneVerdict("fail", counterexample, checked)
    if checked == 0:
        return HyperplaneVerdict(
            "vacuous", None, 0, warning="no affinely independent extreme subset"
        )
    return HyperplaneVerdict("pass", None, checked)


def _new_planes(batch, coords: np.ndarray, exact: bool, seen: set):
    """The combinations of `batch` whose plane is unique and not in `seen`, with their normals and offsets.

    A plane's key is its exact normal and offset (the first non-zero
    component of the normal is 1), or the float ones rounded to
    `_CANON_DECIMALS` decimals; each new key goes into `seen`.
    """
    if exact:
        keys = [affine_normal(coords[list(combo)], exact=True) for combo in batch]
    else:
        normals, offsets, unique = affine_normals(coords[np.array(batch)])
        keys = [tuple([round(v, _CANON_DECIMALS) for v in u + [a]]) if ok else None
                for u, a, ok in zip(normals.tolist(), offsets.tolist(), unique.tolist())]
    kept = []
    for k, key in enumerate(keys):
        if key is not None and key not in seen:
            seen.add(key)
            kept.append(k)
    if not kept:
        return [], None, None
    if exact:
        normals = np.array([keys[k][0] for k in kept], dtype=object)
        offsets = np.array([keys[k][1] for k in kept], dtype=object)
    else:
        normals, offsets = _unit(normals[kept], offsets[kept])
    return [batch[k] for k in kept], normals, offsets


def _unit(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float planes scaled to unit normals, the norm's squares summed over the coordinates in order."""
    norm = normals[:, 0] * normals[:, 0]
    for k in range(1, normals.shape[1]):
        norm = norm + normals[:, k] * normals[:, k]
    norm = np.sqrt(norm)
    return normals / norm[:, None], offsets / norm


def _sides(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray, exact: bool) -> np.ndarray:
    """sign(<u, x> - a) of each point (rows) against each plane (columns): 0 within `PLANE_TOL`, or exactly 0.

    The sum runs over the coordinates in order, so a float value does not
    depend on how many points or planes there are.
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
