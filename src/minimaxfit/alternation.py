"""Hyperplane sign-splitting: the multivariate generalisation of alternation.

A hyperplane flips the deviation sign of everything on its negative side.  For
an optimal model, every hyperplane split must admit either a degree-reduced
hull intersection of the flipped classes or a same-degree intersection of the
on-plane sign classes.  Enumerating only the hyperplanes through d affinely
independent extreme points suffices, which turns the condition into finitely
many hull checks, small LPs in d > 1.

`verify_by_hyperplanes` takes the d-point combinations in batches of a
fixed size, so that memory stays bounded.  A plane's normal has one formula
in both arithmetics: the signed (d-1)-minors of the differences p_k - p_0,
their generalised cross product.  A float batch gets its planes from
`affine_normals` (bit for bit `affine_normal`'s) as unit normals; a
combination spans no plane when the minors' norm is at most 1e-9 times
the product of the |p_k - p_0|, which bounds it.  An exact batch works
over integers: the extreme points are scaled once to X / q (one
`integer_row` over all their coordinates), and `integer_normals` gives each
plane as a primitive integer normal U and offset A.  One sign matrix
sign(X U^T - a) of the extreme points X against the batch's planes
classifies them all as `split` classifies one: a float plane scaled to a
unit normal with `PLANE_TOL`, an exact one as integer sums with no
tolerance.  Each plane is checked once, at its first combination, and is
known in either arithmetic by its column of the sign matrix: that is all
its tests read, and it fixes the plane, as the points on it hold d
affinely independent ones.  With zero tolerance two distinct exact planes
never share a column, so an exact count is the number of distinct planes;
a float count does not hang on a normal's last bits, and is the exact
count wherever the two arithmetics see the same points on each plane.
Only a counterexample's plane goes back to the rational normal whose
first non-zero component is 1, as reports show it.

In d > 1 most planes need no hull test, because a degree-m certificate
answers it (the characterization theorem in its hull form; Cheney,
*Introduction to Approximation Theory*, 1966).  Take convex weights alpha
on E+ and beta on E- whose lifted degree-m moments match, and a plane's
affine function l(x) = <u, x> - a.  For every p of degree m - 1, l p has
degree m, so sum alpha_i l(x_i) p(x_i) = sum beta_i l(x_i) p(x_i); moving
the l < 0 terms across gives weights alpha_i |l(x_i)| and beta_i |l(x_i)|
on the plane's flipped classes whose degree-(m-1) moments match, and p = 1
says both classes carry the same mass.  So each side over its sum is a
point of the plane's moment LP whenever the certificate weighs a point off
the plane.  `verify_by_hyperplanes` takes the certificate from its caller
(`fit` has one), or finds one itself at the first batch holding a plane
whose test is a moment LP (`_own_certificate`).  An exact certificate
that passes `certificate_checks` decides every plane with a weighted
point off it.  A float one decides a plane when both masses are positive
and the point, non-negative as it is, holds every row of the plane's
moment LP within the float row check's slack (`lp._row_slack`) of that
LP's own coefficients.  The sums <u, x> - a are those the sign matrix is
read from.  Without a certificate (an isolable set, an `LpFailure`)
every plane takes the hull tests below, as does every plane the
certificate leaves open.

Of the planes left, many need no LP either: a degree-(m-1) certificate
with support S+, S- (convex weights matching every lifted moment) is, zero
elsewhere, a feasible point of the moment LP of any later split whose
flipped classes hold S+ and S- one each, either way round, as the LP is
symmetric in its sides.  A support is stored as the rows (`_rows`) of S+
on its plane's flipped plus side and of S- on its minus side; a plane
holds with no LP where one list's rows are all > 0 and the other's all
< 0 (a point in both extreme sets is only ever the support ({i}, {i}),
whose two rows' sides are opposite).  The support is the vertex the moment
LP of `hulls_intersect` reaches, so the vertex decides which planes it
marks, but not a verdict: a marked plane's hulls do meet.

A plane that neither the certificate nor a stored support decides takes
the scalar `hulls_intersect` at its turn: degree m - 1 on its flipped
classes, then, only where that fails, degree m on its on-plane classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Optional, Sequence

import numpy as np

from ._linalg import affine_normals, exact_nullspace, integer_normals, integer_row, unit_planes
from ._linalg import affine_normal  # unused here, kept because bench/tracing.py counts alternation.affine_normal
from .fitting import ExtremeSets, SampleSet
from .monomials import Number
from .lp import LpFailure, _row_slack
from .optimality import IntersectionCertificate, VerificationOutcome, certificate_checks
from .optimality import check_hull_intersection, find_critical_point_set, hulls_intersect

PLANE_TOL = 1e-9
_BATCH = 2048  # combinations in each batch


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
        normals, offsets = unit_planes(np.array([u]), np.array([float(offset)]))
        normal, offset = tuple(normals[0].tolist()), offsets.tolist()[0]
    side = _signs(_distances(points, normals, offsets), exact)
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
    outcome: Optional[VerificationOutcome] = None,
) -> HyperplaneVerdict:
    """Check every hyperplane through d affinely independent extreme points.

    Passes when each induced split satisfies the split condition; the first
    failing split is returned as a counterexample, equal to `split` of the
    first combination's plane: in float its `affine_normal` plane, in exact
    the rational plane of `integer_normals` whose first non-zero normal
    component is 1 (`_rational_plane`).  Planes go in the order of
    the combinations, each counted once.  A split whose flipped classes
    contain a degree-(m-1) support found before (see the module docstring)
    holds with no LP, and point elimination runs only when degree reduction
    fails; verdict, count and counterexample equal those of
    `check_split_condition` on every plane.  In d > 1 a degree-m
    certificate of these extremes decides most planes first (see the module
    docstring): `outcome` is `check_hull_intersection`'s, when the caller
    has it; else `_own_certificate` finds one at the first batch holding a
    plane whose test is a moment LP, and finding none leaves every plane to
    the hull tests.  Degree 1 asks `hulls_intersect` whether the degree-1
    hulls of E+ and E- meet, which is the certificate's verdict with no
    moment LP on a line.  Fewer than d extreme points lie on one plane,
    whose split has no flipped class: it is the one plane checked, and
    holds exactly when the degree-m hulls of E+ and E- meet; a failure
    returns `split` of `_plane_through` them all.
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
        warning = f"fewer than d = {d} extreme points: one plane through them all"
        if hulls_intersect(samples, extremes.plus, extremes.minus, degree, exact):
            return HyperplaneVerdict("pass", None, 1, warning)
        plane = _plane_through(samples.view(exact)[0][idxs])
        return HyperplaneVerdict("fail", split(extremes, samples, *plane, exact), 1, warning)

    coords, q = samples.view(exact)[0][idxs], None
    if exact:
        coords, q = _integer_points(coords)
    rows, sign = _rows(extremes)
    at = np.searchsorted(idxs, rows)  # each row's point among `idxs`
    lifted = samples.lifted(rows, degree - 1, False) if d > 1 and not exact else None  # for `_certificate_meets`
    twice = np.searchsorted(idxs, sorted(set(extremes.plus).intersection(extremes.minus)))
    pending = d > 1 and outcome is None  # d = 1 takes no certificate: each test there is a sign-block count
    weighted = _certificate_weights(outcome, extremes, degree, exact) if d > 1 else None
    seen: set = set()  # keys of the planes of earlier batches
    supports: list = []  # (S+ rows, S- rows) of every degree-(m-1) support found, as `_contains` reads them
    checked = 0
    combos = combinations(range(len(idxs)), d)
    while batch := list(islice(combos, _BATCH)):
        batch, normals, offsets, distances, side = _new_planes(batch, coords, exact, seen)
        if not batch:
            continue
        flipped = side[at] * sign[:, None]
        # the planes whose degree-(m-1) test is an LP: both flipped classes non-empty, no point in both
        moment_lp = (flipped > 0).any(axis=0) & (flipped < 0).any(axis=0) & ~(side[twice] != 0).any(axis=0)
        reused = np.zeros(len(batch), dtype=bool)
        for support in supports:
            reused |= _contains(flipped, support)
        if pending and (moment_lp & ~reused).any():
            pending, weighted = False, _own_certificate(extremes, samples, degree, exact)
        if weighted is not None:
            held, w = weighted  # the rows the certificate weighs, and their weights
            reused |= _certificate_meets(w, flipped[held], distances[at[held]], None if exact else lifted[held], exact)
        for j in range(len(batch)):
            checked += 1
            if reused[j]:
                continue
            plus_side, minus_side, on_plus, on_minus = _classes(rows, flipped[:, j], sign)
            found = hulls_intersect(samples, plus_side, minus_side, degree - 1, exact)
            if found:
                col = flipped[:, j].tolist()
                supports.append(tuple([r for r, i in enumerate(rows) if i in members and col[r] == f]
                                      for members, f in zip(found, (1, -1))))
                reused |= _contains(flipped, supports[-1])
                continue
            if hulls_intersect(samples, on_plus, on_minus, degree, exact) is None:
                normal, offset = normals[j].tolist(), offsets.tolist()[j]
                if exact:
                    normal, offset = _rational_plane(normal, offset, q)
                counterexample = HyperplaneSplit(tuple(normal), offset, plus_side, minus_side, on_plus, on_minus)
                return HyperplaneVerdict("fail", counterexample, checked)
    if checked == 0:
        return HyperplaneVerdict("vacuous", None, 0, warning="no affinely independent extreme subset")
    return HyperplaneVerdict("pass", None, checked)


def _new_planes(batch, coords: np.ndarray, exact: bool, seen: set):
    """The combinations of `batch` whose plane is unique and new: (combinations, normals, offsets, distances, signs).

    A plane is known by its sign column over the points `coords`, which is
    all that its tests read, and which fixes it, as the points on it hold d
    affinely independent ones.  Exact signs have zero tolerance, so two
    distinct exact planes never share a column; a float plane is scaled to
    a unit normal first.  A plane is new when no combination before it in
    the batch has its column, nor any in an earlier batch: `seen` holds
    their keys and takes the batch's.  Equal columns within the batch are
    found by one `np.unique` over their bytes, and a column's key in `seen`
    packs it into two bits per point.  The distances and signs are
    `_distances` and `_signs` of the points against the planes kept, one
    column each.
    """
    d = coords.shape[1]
    points = coords[np.fromiter(chain.from_iterable(batch), dtype=np.intp, count=len(batch) * d).reshape(-1, d)]
    normals, offsets, unique = (integer_normals if exact else affine_normals)(points)
    kept = np.flatnonzero(unique)
    normals, offsets = normals[kept], offsets[kept]
    if not exact:
        normals, offsets = unit_planes(normals, offsets)
    distances = _distances(coords, normals, offsets)
    side = _signs(distances, exact)
    columns = np.ascontiguousarray(side.T)
    _, first = np.unique(columns.view(f"V{len(coords)}").ravel(), return_index=True)
    first.sort()
    keys = [row.tobytes() for row in np.packbits(np.hstack((columns[first] > 0, columns[first] < 0)), axis=1)]
    first = first[[k for k, key in enumerate(keys) if key not in seen]]
    seen.update(keys)
    if not len(first):
        return [], None, None, None, None
    return [batch[k] for k in kept[first].tolist()], normals[first], offsets[first], distances[:, first], side[:, first]


def _integer_points(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact points as integers X over one denominator q, the lcm of all of theirs (`integer_row`): (X, q)."""
    X, q = integer_row(points.ravel().tolist())
    return np.array(X, dtype=object).reshape(points.shape), q


def _plane_through(points: np.ndarray) -> tuple[list[Fraction], Fraction]:
    """A rational plane (u, a) through the fewer than d rows of `points`, read exactly, whose first non-zero u is 1.

    u is `exact_nullspace`'s null vector of the differences p_k - p_0, or of one zero row for one point.
    """
    d = points.shape[1]
    base, *rest = [[Fraction(c) for c in p] for p in points.tolist()] or [[0] * d]
    u, _ = exact_nullspace([[c - b for c, b in zip(p, base)] for p in rest] or [[0] * d])
    lead = next(c for c in u if c)
    return [c / lead for c in u], sum(c * x for c, x in zip(u, base)) / lead


def _rational_plane(normal: list[int], offset: int, q: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """An integer plane over the points X / q as the rational (u, a) whose first non-zero u is 1, as reports show it."""
    lead = next(c for c in normal if c)
    return tuple(Fraction(c, lead) for c in normal), Fraction(offset, q * lead)


def _distances(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """<u, x> - a of each point (rows) against each plane (columns).

    Exact points, normals and offsets are Python ints (`_integer_points`,
    `integer_normals`), so every value is an integer sum.  The sum runs
    over the coordinates in order, so a float value does not depend on how
    many points or planes there are.
    """
    s = points[:, :1] * normals[:, 0]
    for k in range(1, normals.shape[1]):
        s = s + points[:, k:k + 1] * normals[:, k]
    return s - offsets


def _signs(distances: np.ndarray, exact: bool) -> np.ndarray:
    """sign(<u, x> - a) of each of `_distances`: 0 within `PLANE_TOL`, or exactly 0."""
    tol = 0 if exact else PLANE_TOL
    return (distances > tol).astype(np.int8) - (distances < -tol)


def _certificate_weights(outcome, extremes: ExtremeSets, degree: int, exact: bool):
    """(rows, weights): the rows (E+ then E-, as `_rows`) that `outcome`, a degree-m certificate, weighs positively.

    A float weight below zero (a margin LP's rounding, within
    `certificate_checks`' 1e-9) is left out like a zero one, so the point
    of `_certificate_meets` is non-negative; its rows are checked all the
    same.  The weights are None in exact arithmetic, where a plane needs
    only the rows.  The pair is None when `outcome` is no certificate of
    these extremes at this degree in this arithmetic, or an exact one that
    fails `certificate_checks`; a float one is checked plane by plane.
    """
    if not (isinstance(outcome, IntersectionCertificate) and (outcome.degree, outcome.exact) == (degree, exact)
            and (outcome.plus_indices, outcome.minus_indices) == (tuple(extremes.plus), tuple(extremes.minus))):
        return None
    if exact and not all(certificate_checks(outcome).values()):
        return None
    weights = outcome.alpha + outcome.beta
    r = np.flatnonzero([w > 0 for w in weights])
    return r, None if exact else np.array([weights[k] for k in r], dtype=float)


def _own_certificate(extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool):
    """`_certificate_weights` of a degree-m certificate solved here, or None when there is none.

    A float one is `check_hull_intersection`'s, one margin LP.  An exact
    plane needs only the points an exact certificate weighs, and
    `find_critical_point_set` gives them: the support of exact weights that
    one fraction-free solve certifies on a float moment LP's vertex, else
    the rational simplex's.  That costs less than an exact margin LP, whose
    float guess can stall and leave it to the rational simplex.  An
    `LpFailure` leaves no certificate.
    """
    try:
        if exact:
            support = find_critical_point_set(extremes, samples, degree, True)
            return None if support is None else (np.flatnonzero(np.isin(_rows(extremes)[0], support)), None)
        return _certificate_weights(check_hull_intersection(extremes, samples, degree), extremes, degree, False)
    except LpFailure:
        return None


def _certificate_meets(weights: Optional[np.ndarray], flipped: np.ndarray, distances: np.ndarray,
                       lifted: Optional[np.ndarray], exact: bool) -> np.ndarray:
    """The planes whose flipped classes meet at the certificate's point (see the module docstring).

    Row r of `flipped`, `distances` and the float degree-(m-1) rows
    `lifted` belongs to the weighted row r of `weights`, all positive.  An
    exact plane needs one of them off it.  A float one needs a positive
    sum of w_r |l(x_r)| on each class, and the point they make, each side
    over its sum (non-negative as it is), within `_row_slack` of every row
    of the plane's `_moment_lp`: the two sum rows, and each moment row.
    The slack is taken over the weighted rows off the plane, a subset of
    that LP's columns, so it is never looser than the LP's own.
    """
    off = flipped != 0
    if exact:
        return off.any(axis=0)
    v = np.where(off, weights[:, None] * np.abs(distances), 0.0)
    plus, minus = np.where(flipped > 0, v, 0.0), np.where(flipped < 0, v, 0.0)
    mass = np.array([plus.sum(axis=0), minus.sum(axis=0)])
    held = (mass > 0).all(axis=0)
    x = np.array([plus, minus]) / np.where(held, mass, 1.0)[:, None, :]
    residuals = np.concatenate((x.sum(axis=1) - 1, lifted[:, 1:].T @ (x[0] - x[1])))
    largest = np.concatenate((np.ones_like(mass), [np.where(off, c[:, None], 0.0).max(axis=0)
                                                    for c in np.abs(lifted[:, 1:].T)]))
    rhs = np.zeros((len(largest), 1))
    rhs[:2] = 1
    return held & (np.abs(residuals) <= _row_slack(largest[:, :, None], rhs)).all(axis=0)


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


def _contains(flipped: np.ndarray, support: tuple[list, list]) -> np.ndarray:
    """The planes where one of `support`'s lists, the rows of S+ and of S-, is all > 0 in `flipped`, the other < 0.

    Each flipped side is -1, 0 or 1, so that holds exactly where S+'s sum less S-'s is plus or minus their count.
    """
    plus, minus = support
    return np.abs(flipped[plus].sum(axis=0) - flipped[minus].sum(axis=0)) == len(plus) + len(minus)
