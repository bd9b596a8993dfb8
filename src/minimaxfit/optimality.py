"""Optimality verification for uniform fits.

A model is a best approximation exactly when convex weights on the positive
and negative extreme points match every lifted monomial moment up to the
model degree (the lifted extreme hulls meet), and not when a polynomial of
that degree strictly separates the two extreme sets (isolability).  One LP
decides both, `_margin_lp`, the moment system's l1 relaxation, whose LP
dual is the largest separating margin t: at t = 0 its weights, each side
over its sum, are the certificate, and at t > 0 its negated monomial-row
duals are the separating polynomial.  `check_isolability` solves it, and
`check_hull_intersection` reads its verdict from that one solve.

Every verifier reads its lifted rows from `SampleSet.lifted`, and
`hulls_intersect` is the one indexed hull test of reduction and alternation;
on a line it counts sign blocks instead (discrete alternation, Cheney 1966).
A certificate's moment residual, and a witness's margins and scale, take
one `dot_rows` per side over those rows (transposed for the moments).
An exact hull test in d > 1 lets the float test propose a support and
takes it once `certified_meet`, one fraction-free solve over that
support's exact columns, finds unique non-negative weights on it; only a
support it rejects, or a float test that finds none, goes to the rational
moment LP (`solve_exact`).

A fit's certificate is its own LP's dual: the moment system is the LP dual
of the minimax fit (Rivlin & Shapiro, J. SIAM 1961; Cheney, *Introduction
to Approximation Theory*, 1966, ch. 2), so the fit's final basis holds
moment-matching weights on at most n_m + 2 points (`FitResult.weights`),
and the margin LP runs only without them or when they fail a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence, Union

import numpy as np

from ._linalg import exact_solve
from .fitting import ExtremeSets, SampleSet, model_values, sign_blocks
from .lp import LinearProgram, LpFailure, duals, solve, solve_exact
from .monomials import Number, PolynomialModel, build_basis, dot, dot_rows
from .monomials import evaluate, lift  # unused here, kept because bench/tracing.py counts both bindings

ISOLABLE_MARGIN = 1e-9


@dataclass(frozen=True)
class IntersectionCertificate:
    """Convex weights proving the lifted extreme hulls intersect.

    `alpha` weights the points of `plus_indices`, `beta` those of
    `minus_indices`; each side sums to one and every basis monomial moment
    matches within `moment_residual`.
    """

    degree: int
    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]
    alpha: tuple[Number, ...]
    beta: tuple[Number, ...]
    moment_residual: Number
    exact: bool = False


@dataclass(frozen=True)
class SeparationWitness:
    """Polynomial strictly positive on E+ and strictly negative on E-.

    Normalised so the smaller of the two margins is one: exactly in exact
    arithmetic, within the rounding of evaluating the scaled coefficients in
    float.  A margin is None when the corresponding extreme set is empty
    (the trivially improvable case).
    """

    model: PolynomialModel
    plus_margin: Optional[Number]  # min of L over E+
    minus_margin: Optional[Number]  # max of L over E-


@dataclass(frozen=True)
class IsolabilityResult:
    isolable: bool
    margin: Number
    witness: Optional[SeparationWitness]
    weights: Optional[tuple[tuple[Number, ...], tuple[Number, ...]]] = None  # not isolable: (alpha, beta), each sum 1


VerificationOutcome = Union[IntersectionCertificate, SeparationWitness]


def _moment_system(plus_lifted: np.ndarray, minus_lifted: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(A, b) of A w = b: weights w on E+ and E-, each side summing to one, whose lifted moments match."""
    p, q, width = len(plus_lifted), len(minus_lifted), plus_lifted.shape[1]
    A = np.zeros((width + 1, p + q), dtype=plus_lifted.dtype)
    A[0, :p] = A[1, p:] = 1
    A[2:, :p] = plus_lifted[:, 1:].T  # the constant moment is implied by the sums
    A[2:, p:] = -minus_lifted[:, 1:].T
    return A, [1, 1] + [0] * (width - 1)


def _moment_lp(plus_lifted: np.ndarray, minus_lifted: np.ndarray) -> LinearProgram:
    """The moment system's "==" rows over p + q non-negative weights."""
    A, b = _moment_system(plus_lifted, minus_lifted)
    return LinearProgram([0] * A.shape[1], A, ["=="] * len(b), b, ((0, None),) * A.shape[1])


def _moment_residual(plus_lifted: np.ndarray, minus_lifted: np.ndarray, alpha, beta) -> Number:
    """The largest |moment of alpha on E+ - moment of beta on E-| over the basis; the int 0 when all match."""
    diff = dot_rows(plus_lifted.T, alpha) - dot_rows(minus_lifted.T, beta)
    return np.abs(diff).max(keepdims=True).item() or 0


def _margins(coeffs, plus_lifted: np.ndarray, minus_lifted: np.ndarray):
    """The polynomial's least value on E+ and greatest on E-, None for an empty side."""
    plus, minus = dot_rows(plus_lifted, coeffs).tolist(), dot_rows(minus_lifted, coeffs).tolist()
    return min(plus, default=None), max(minus, default=None)


def _margin_lp(plus_lifted: np.ndarray, minus_lifted: np.ndarray) -> LinearProgram:
    """The moment system's l1 relaxation: minimise |sum alpha lift(E+) - sum beta lift(E-)|_1.

    Over alpha, beta >= 0 with sum alpha + sum beta = 1, the l1 norm as
    sum (s+ + s-) over s+- >= 0: one "==" row per monomial (the constant's
    included), then the mass row.  It is the LP dual of the largest margin t
    with <A, lift> >= t on E+ and <= -t on E- over |A|_inf <= 1, so its
    optimum is t, zero exactly when the lifted hulls meet, and A is the
    monomial rows' duals negated.
    """
    (p, width), q = plus_lifted.shape, len(minus_lifted)
    A = np.zeros((width + 1, p + q + 2 * width), dtype=plus_lifted.dtype)
    A[:width, :p], A[:width, p:p + q] = plus_lifted.T, -minus_lifted.T
    A[:width, p + q:p + q + width], A[:width, p + q + width:] = -np.eye(width, dtype=int), np.eye(width, dtype=int)
    A[width, :p + q] = 1
    return LinearProgram([0] * (p + q) + [1] * (2 * width), A, ["=="] * (width + 1), [0] * width + [1],
                         ((0, None),) * A.shape[1])


def hulls_intersect(
    samples: SampleSet, plus: Sequence[int], minus: Sequence[int], degree: int, exact: bool = False
) -> Optional[tuple[frozenset, frozenset]]:
    """Where the lifted degree-`degree` hulls of two indexed sample classes meet, or None.

    Returns (S+, S-), the sample indices on which one moment-matching
    solution puts strictly positive weight, taken with no tolerance in either
    arithmetic; those points' hulls meet on their own.  In d > 1 that
    solution is the vertex of the moment LP that the simplex reaches.  In
    exact arithmetic the float test on the samples' float view proposes its
    vertex first, and its support stands once `certified_meet` finds exact
    weights on it; else (an overflowing float view, an `LpFailure`, no float
    meet or a rejected support) `solve_exact` decides, so it alone says the
    hulls do not meet.
    A sample in both classes is such a solution by itself (weight one on
    each side matches every moment), so it is returned with no LP.  On a
    line, so is the first point of each of the first k+2 `sign_blocks`
    (k = `degree`): their divided difference (sum w_j p(x_j) = 0 for
    deg p <= k) has every w_j nonzero and alternating in sign, as the blocks
    do; fewer blocks admit a separating polynomial (at most k sign changes).  None, which is falsy, when the hulls
    do not meet or a class is empty.
    """
    if not plus or not minus:
        return None
    shared = set(plus).intersection(minus)
    if shared:
        i = min(shared)
        return frozenset((i,)), frozenset((i,))
    if samples.dimension == 1:
        blocks = sign_blocks(samples.view(exact)[0][:, 0], plus, minus)[: degree + 2]
        if len(blocks) < degree + 2:
            return None
        return frozenset(i for i, neg in blocks if not neg), frozenset(i for i, neg in blocks if neg)
    if exact:
        try:
            proposed = hulls_intersect(samples, plus, minus, degree)
        except (OverflowError, LpFailure):
            proposed = None
        certified = certified_meet(samples, proposed, degree)
        if certified:
            return certified
    plus_lifted = samples.lifted(plus, degree, exact)
    minus_lifted = samples.lifted(minus, degree, exact)
    sol = (solve_exact if exact else solve)(_moment_lp(plus_lifted, minus_lifted))
    if sol.status != "optimal":
        return None
    p = len(plus)
    positive = [k for k, w in enumerate(sol.x) if w > 0]
    return frozenset(plus[k] for k in positive if k < p), frozenset(minus[k - p] for k in positive if k >= p)


def certified_meet(
    samples: SampleSet, meet: Optional[tuple[Sequence[int], Sequence[int]]], degree: int
) -> Optional[tuple[frozenset, frozenset]]:
    """A proposed meet (S+, S-) of a float hull test, as the points of positive exact weight on it, or None.

    The float-to-exact crossover of Applegate, Cook, Dash & Espinoza (ORL
    2007) for a moment LP: one fraction-free solve (`_linalg.exact_solve`)
    of `_moment_system` over the proposed points' exact lifted columns.  It
    has a solution only when the columns are linearly independent and the
    rhs lies in their span, and then exactly one; None when it has none or
    a weight is negative.  Unique weights on independent columns are a
    vertex of the moment LP, so no proper subset of their support meets.
    """
    if not meet:
        return None
    plus, minus = sorted(meet[0]), sorted(meet[1])
    A, b = _moment_system(samples.lifted(plus, degree, True), samples.lifted(minus, degree, True))
    x = exact_solve(A.tolist(), b)
    if x is None or min(x) < 0:
        return None
    return frozenset(i for i, w in zip(plus, x) if w), frozenset(i for i, w in zip(minus, x[len(plus):]) if w)


def check_hull_intersection(
    extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False,
    weights: Optional[tuple[dict[int, Number], dict[int, Number]]] = None,
    isolability: Optional[IsolabilityResult] = None,
) -> VerificationOutcome:
    """Certificate of optimality, or a strict separating polynomial.

    Degenerate and one-sided sets take no LP, nor do a fit's weights
    (`FitResult.weights`) that weigh only extreme points and pass
    `certificate_checks`.  Else the outcome is `check_isolability`'s, solved
    here or given as `isolability`: its witness, or its weights once they
    pass `certificate_checks`; failing one is an `LpFailure` naming the
    margin and the checks.
    """
    plus_lifted = samples.lifted(extremes.plus, degree, exact)
    minus_lifted = samples.lifted(extremes.minus, degree, exact)

    def certificate(alpha, beta) -> IntersectionCertificate:
        return IntersectionCertificate(degree, tuple(extremes.plus), tuple(extremes.minus), alpha, beta,
                                       _moment_residual(plus_lifted, minus_lifted, alpha, beta), exact)

    if extremes.degenerate:  # exact fit: any shared point certifies optimality outright
        return certificate((1,) + (0,) * (len(extremes.plus) - 1), (1,) + (0,) * (len(extremes.minus) - 1))
    if not extremes.plus or not extremes.minus:  # the constant +1 or -1 separates
        basis = build_basis(samples.dimension, degree)
        coeffs = (1 if extremes.plus else -1,) + (0,) * (basis.size - 1)
        return SeparationWitness(PolynomialModel(basis, coeffs), *_margins(coeffs, plus_lifted, minus_lifted))
    if weights is not None:
        plus, minus = weights
        zero = Fraction(0) if exact else 0.0
        cert = certificate(tuple(plus.get(i, zero) for i in extremes.plus),
                           tuple(minus.get(i, zero) for i in extremes.minus))
        inside = plus.keys() <= set(extremes.plus) and minus.keys() <= set(extremes.minus)
        if inside and all(certificate_checks(cert).values()):
            return cert
    iso = isolability or check_isolability(extremes, samples, degree, exact)
    if iso.isolable:
        return iso.witness
    cert = certificate(*iso.weights)
    failed = [name for name, ok in certificate_checks(cert).items() if not ok]
    if failed:
        raise LpFailure(f"margin {iso.margin} reads not isolable, but its weights fail {', '.join(failed)}",
                        {"margin": float(iso.margin), "failed": failed})
    return cert


def certificate_checks(cert: IntersectionCertificate) -> dict[str, bool]:
    """A report replay's checks: moments matched within 1e-8, each side's weights >= -1e-9 summing to 1 within 1e-9.

    An exact certificate has no tolerance.
    """
    tol = 0 if cert.exact else 1e-9
    convex = abs(sum(cert.alpha) - 1) <= tol and abs(sum(cert.beta) - 1) <= tol
    return {"certificate_moments": abs(cert.moment_residual) <= (0 if cert.exact else 1e-8),
            "certificate_sums": convex and all(w >= -tol for w in cert.alpha + cert.beta)}


def check_isolability(
    extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False
) -> IsolabilityResult:
    """Strict separability of E+ and E- by a polynomial of the given degree, from one `_margin_lp` solve.

    Its optimum is the largest margin t of L(A, x) >= t on E+ and <= -t on
    E- over |A|_inf <= 1, isolable above `ISOLABLE_MARGIN` (above 0 in
    rational mode); a float t below zero, the rounding of t = 0, reads 0.
    Isolable sets get the witness, A as the monomial rows' duals negated and
    scaled (an `LpFailure` when it does not separate strictly); others the
    LP's weights on each side over that side's sum, 2 alpha and 2 beta at an
    exact t = 0, where the constant row splits the unit mass evenly.
    """
    if not extremes.plus and not extremes.minus:
        raise ValueError("both extreme sets are empty")
    plus_lifted = samples.lifted(extremes.plus, degree, exact)
    minus_lifted = samples.lifted(extremes.minus, degree, exact)
    lp = _margin_lp(plus_lifted, minus_lifted)
    sol = (solve_exact if exact else solve)(lp)
    if sol.status != "optimal":
        raise LpFailure(f"margin LP came back {sol.status}", {"status": sol.status, "iterations": sol.iterations})
    t = sol.objective_value if exact else max(0.0, sol.objective_value)
    if t <= (0 if exact else ISOLABLE_MARGIN):
        p, q = len(plus_lifted), len(minus_lifted)
        alpha, beta = sol.x[:p], sol.x[p:p + q]
        a, b = dot(alpha, repeat(1)), dot(beta, repeat(1))  # left to right, as every float sum of a report
        return IsolabilityResult(False, t, None, (tuple(w / a for w in alpha), tuple(w / b for w in beta)))
    y = duals(lp, sol)
    if y is None:
        raise LpFailure("margin LP has no duals at its basis", {"iterations": sol.iterations})
    coeffs = [-v for v in y[:-1]]
    least = min(np.concatenate((dot_rows(plus_lifted, coeffs), -dot_rows(minus_lifted, coeffs))).tolist())
    if least <= 0:
        raise LpFailure("margin LP is positive but no strict separator found (degenerate instance)",
                        {"margin": float(t)})
    scaled = tuple(c / least for c in coeffs)  # the smaller margin is one: exactly, or within float rounding
    witness = SeparationWitness(PolynomialModel(build_basis(samples.dimension, degree), scaled),
                                *_margins(scaled, plus_lifted, minus_lifted))
    return IsolabilityResult(True, t, witness)


def find_critical_point_set(
    extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False
) -> Optional[list[int]]:
    """A minimal non-isolable extreme subset, sorted, or None when E+ and E- are isolable.

    The union of the two supports `hulls_intersect` returns, so no LP runs
    beyond its own.  In d > 1 they are a vertex of the moment LP: its
    positive weights sit on linearly independent lifted columns, so they
    are the only moment-matching weights on their points, and dropping any
    one point leaves hulls that do not meet.  An exact support is
    `solve_exact`'s vertex or `certified_meet`'s support of the unique exact
    weights on a float vertex's independent columns.  On a line they are
    the k+2 sign-block points, any k+1 of which change sign at most k
    times, and a point in both sets is non-isolable on its own.
    """
    if not extremes.plus and not extremes.minus:
        raise ValueError("both extreme sets are empty")
    meet = hulls_intersect(samples, extremes.plus, extremes.minus, degree, exact)
    return None if meet is None else sorted(meet[0] | meet[1])


def verify_certificate(cert: IntersectionCertificate, samples: SampleSet) -> Number:
    """Replay certificate weights over the lifted samples; returns the worst moment residual."""
    plus_lifted = samples.lifted(cert.plus_indices, cert.degree, cert.exact)
    minus_lifted = samples.lifted(cert.minus_indices, cert.degree, cert.exact)
    return _moment_residual(plus_lifted, minus_lifted, cert.alpha, cert.beta)


def verify_witness(
    witness: SeparationWitness, plus: Sequence[int], minus: Sequence[int], samples: SampleSet
) -> bool:
    """Replay a separating polynomial over the indexed samples, one `dot_rows`; True when the separation is strict."""
    values = model_values(witness.model, samples, [*plus, *minus]).tolist()
    return all(v > 0 for v in values[:len(plus)]) and all(v < 0 for v in values[len(plus):])
