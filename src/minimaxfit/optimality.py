"""Optimality verification for uniform fits.

A model is a best approximation exactly when convex weights on the positive
and negative extreme points match every lifted monomial moment up to the
model degree; feasibility of that moment system is one small LP.  When it is
infeasible, the Farkas multipliers assemble into a polynomial of the same
degree that strictly separates the two extreme sets, which is the classical
separability (isolability) view of non-optimality.  Both views are exposed
and must agree; tests lean on that cross-check.

Every verifier reads its lifted rows from `SampleSet.lifted`, and
`hulls_intersect` is the one indexed hull test of reduction and alternation;
on a line it counts sign blocks instead (discrete alternation, Cheney 1966).
A certificate's moment residual, and a witness's margins and scale, take
one `dot_rows` per side over those rows (transposed for the moments).
An exact hull test in d > 1 lets the float test propose a support and
takes it once `exact_weights`, one fraction-free solve over that support's
exact columns, finds unique non-negative weights on it (`certified_meet`);
only a support it rejects, or a float test that finds none, goes to the
rational moment LP (`solve_exact`).

A fit's certificate is its own LP's dual: the moment system is the LP dual
of the minimax fit (Rivlin & Shapiro, J. SIAM 1961; Cheney, *Introduction
to Approximation Theory*, 1966, ch. 2), so the fit's final basis holds
moment-matching weights on at most n_m + 2 points (`FitResult.weights`),
and the moment LP runs only without them or when they fail a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._linalg import exact_solve
from .fitting import ExtremeSets, SampleSet, model_values, sign_blocks
from .lp import LinearProgram, LpFailure, solve, solve_batch, solve_exact
from .monomials import Number, PolynomialModel, build_basis, dot_rows
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

    Normalised so the smaller of the two margins equals one.  A margin is
    None when the corresponding extreme set is empty (the trivially
    improvable case).
    """

    model: PolynomialModel
    plus_margin: Optional[Number]  # min of L over E+
    minus_margin: Optional[Number]  # max of L over E-


@dataclass(frozen=True)
class IsolabilityResult:
    isolable: bool
    margin: Number
    witness: Optional[SeparationWitness]


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


def _normalized_witness(coeffs, basis, plus_lifted, minus_lifted) -> Optional[SeparationWitness]:
    """The polynomial scaled so that its smaller margin is one, or None when it does not separate strictly."""
    t = min(np.concatenate((dot_rows(plus_lifted, coeffs), -dot_rows(minus_lifted, coeffs))).tolist())
    if t <= 0:
        return None
    scaled = PolynomialModel(basis, tuple(c / t for c in coeffs))
    return SeparationWitness(scaled, *_margins(scaled.coefficients, plus_lifted, minus_lifted))


def _max_margin(plus_lifted, minus_lifted, width, exact: bool):
    """Maximise t with <A, lift> >= t on E+, <= -t on E-, |A|_inf <= 1."""
    p, q = len(plus_lifted), len(minus_lifted)
    objective = [0] * width + [-1]  # maximise t
    A = np.column_stack((np.concatenate((plus_lifted, minus_lifted)), [-1] * p + [1] * q))  # the rows' dtype
    bounds = [(-1, 1)] * width + [(None, None)]
    lp = LinearProgram(objective, A, [">="] * p + ["<="] * q, [0] * (p + q), bounds)
    sol = (solve_exact if exact else solve)(lp)
    if sol.status != "optimal":
        raise LpFailure(f"margin LP came back {sol.status}", {"status": sol.status, "iterations": sol.iterations})
    return sol.x[width], sol.x[:width]


def hulls_intersect(
    samples: SampleSet, plus: Sequence[int], minus: Sequence[int], degree: int, exact: bool = False
) -> Optional[tuple[frozenset, frozenset]]:
    """Where the lifted degree-`degree` hulls of two indexed sample classes meet, or None.

    Returns (S+, S-), the sample indices on which one moment-matching
    solution puts strictly positive weight, taken with no tolerance in either
    arithmetic; those points' hulls meet on their own.  In d > 1 that
    solution is some vertex of the moment LP, solved with pricing (see
    `lp.solve`): which vertex depends on the pricing, the verdict does not,
    and no report shows the vertex.  In exact arithmetic the float test on
    the samples' float view proposes its vertex first, and its support
    stands once `certified_meet` finds exact weights on it; else (an
    overflowing float view, an `LpFailure`, no float meet or a rejected
    support) `solve_exact` decides, so it alone says the hulls do not meet.
    A sample in both classes is such a solution by itself (weight one on
    each side matches every moment), so it is returned with no LP.  On a
    line, so is the first point of each of the first k+2 `sign_blocks`
    (k = `degree`): their divided difference (sum w_j p(x_j) = 0 for
    deg p <= k) has every w_j nonzero and alternating in sign, as the blocks
    do; fewer blocks admit a separating polynomial (at most k sign changes).  None, which is falsy, when the hulls
    do not meet or a class is empty.  `hulls_intersect_batch` runs many of
    these float moment LPs at once (`lp.solve_batch`) and reaches the same
    vertex on each it decides.
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
    sol = (solve_exact if exact else solve)(_moment_lp(plus_lifted, minus_lifted), price=True)
    if sol.status != "optimal":
        return None
    p = len(plus)
    positive = [k for k, w in enumerate(sol.x) if w > 0]
    return frozenset(plus[k] for k in positive if k < p), frozenset(minus[k - p] for k in positive if k >= p)


def exact_weights(
    samples: SampleSet, plus: Sequence[int], minus: Sequence[int], degree: int
) -> Optional[tuple[dict[int, Fraction], dict[int, Fraction]]]:
    """The one set of exact convex weights on two indexed classes whose lifted moments match, or None.

    One fraction-free solve (`_linalg.exact_solve`) of the moment system
    (`_moment_system`: each side's weights summing to one, every
    non-constant degree-`degree` moment matched) over the points' exact
    lifted columns.  It has a solution only when the columns are linearly
    independent and the rhs lies in their span, and then exactly one; None
    when it has none or a weight is negative.  Returns
    ({i: weight on plus}, {i: weight on minus}) for the positive weights,
    in the form of `FitResult.weights`.  Unique weights on independent
    columns are a vertex of the moment LP, so no proper subset of their
    points meets.
    """
    A, b = _moment_system(samples.lifted(plus, degree, True), samples.lifted(minus, degree, True))
    x = exact_solve(A.tolist(), b)
    if x is None or min(x) < 0:
        return None
    return ({i: w for i, w in zip(plus, x) if w}, {i: w for i, w in zip(minus, x[len(plus):]) if w})


def certified_meet(
    samples: SampleSet, meet: Optional[tuple[Sequence[int], Sequence[int]]], degree: int
) -> Optional[tuple[frozenset, frozenset]]:
    """A proposed meet (S+, S-) of a float hull test, as the points of positive `exact_weights` on it, or None.

    This is the float-to-exact crossover of Applegate, Cook, Dash &
    Espinoza (ORL 2007) for a moment LP: the float solve proposes a
    support, and exact arithmetic accepts it or not.
    """
    weights = meet and exact_weights(samples, sorted(meet[0]), sorted(meet[1]), degree)
    return (frozenset(weights[0]), frozenset(weights[1])) if weights else None


def hulls_intersect_batch(lifted: np.ndarray, sides: np.ndarray) -> list[Optional[tuple[list[int], list[int]]]]:
    """Where the float hulls of many class pairs over the same rows meet, as far as one `lp.solve_batch` decides.

    Column k of `sides` puts row r of `lifted` in its plus class (> 0), its
    minus class (< 0) or neither (0); both classes must be non-empty and
    hold no point twice.  Their moment LPs (`_moment_lp`, the rows of each
    class in order) are stacked, padded with zero columns to the rows of
    `lifted`, and solved together.  Entry k is the rows (S+, S-) on which
    the point reached puts positive weight, the vertex `hulls_intersect`
    reaches on the same classes, or None when the batch leaves that LP
    undecided (infeasible among them): None does not say the hulls are apart.
    """
    K, (R, width) = sides.shape[1], lifted.shape
    side = np.where(sides.T > 0, 0, np.where(sides.T < 0, 1, 2))  # each LP's columns: plus, then minus, then none
    order = np.argsort(side, axis=1, kind="stable")
    side = np.take_along_axis(side, order, axis=1)[:, None, :]
    moments = lifted[order][:, :, 1:].transpose(0, 2, 1)
    A = np.zeros((K, width + 1, R))
    A[:, :1], A[:, 1:2] = side == 0, side == 1
    A[:, 2:] = np.where(side == 0, moments, np.where(side == 1, -moments, 0.0))
    b = np.zeros((K, width + 1))
    b[:, :2] = 1
    x, feasible = solve_batch(A, b)
    plus, minus = (x > 0) & (side[:, 0] == 0), (x > 0) & (side[:, 0] == 1)
    return [(order[k][plus[k]].tolist(), order[k][minus[k]].tolist()) if feasible[k] else None for k in range(K)]


def check_hull_intersection(
    extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False,
    weights: Optional[tuple[dict[int, Number], dict[int, Number]]] = None,
) -> VerificationOutcome:
    """Certificate of optimality, or a strict separating polynomial.

    A fit's `FitResult.weights`, as `weights`, are the certificate when
    they weigh only extreme points and pass `certificate_checks`.  Else
    feasibility of the moment-matching LP over the extreme sets yields the
    certificate weights; infeasibility converts the Farkas witness into a
    degree-`degree` polynomial separating E+ from E-, normalised so the
    smaller margin is one.  Degenerate and one-sided sets take no LP.
    """
    basis = build_basis(samples.dimension, degree)
    plus_lifted = samples.lifted(extremes.plus, degree, exact)
    minus_lifted = samples.lifted(extremes.minus, degree, exact)

    def certificate(alpha, beta) -> IntersectionCertificate:
        return IntersectionCertificate(degree, tuple(extremes.plus), tuple(extremes.minus), alpha, beta,
                                       _moment_residual(plus_lifted, minus_lifted, alpha, beta), exact)

    if extremes.degenerate:  # exact fit: any shared point certifies optimality outright
        return certificate((1,) + (0,) * (len(extremes.plus) - 1), (1,) + (0,) * (len(extremes.minus) - 1))
    if not extremes.plus or not extremes.minus:  # the constant +1 or -1 separates
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
    sol = (solve_exact if exact else solve)(_moment_lp(plus_lifted, minus_lifted))
    if sol.status == "optimal":
        return certificate(tuple(sol.x[:len(plus_lifted)]), tuple(sol.x[len(plus_lifted):]))
    if sol.status != "infeasible":
        raise LpFailure(f"moment LP came back {sol.status}", {"status": sol.status, "iterations": sol.iterations})

    y = sol.farkas  # Farkas multipliers: mass row E+, mass row E-, one per non-constant monomial
    coeffs = [-(y[0] - y[1]) * (Fraction(1, 2) if exact else 0.5)] + [-ck for ck in y[2:]]
    witness = _normalized_witness(coeffs, basis, plus_lifted, minus_lifted)
    if witness is None:
        # float-mode Farkas too noisy to give strict margins; fall back to the
        # margin-maximising LP, which must separate if the moment LP is infeasible
        t, coeffs = _max_margin(plus_lifted, minus_lifted, basis.size, exact)
        witness = _normalized_witness(coeffs, basis, plus_lifted, minus_lifted)
        if witness is None:
            raise LpFailure(
                "moment system infeasible but no strict separator found (degenerate instance)",
                {"margin": float(t)},
            )
    return witness


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
    """Strict separability of E+ and E- by a polynomial of the given degree.

    Maximises the margin t subject to L(A, x) >= t on E+, <= -t on E-
    and |A|_inf <= 1; the sets are isolable when the optimum exceeds 1e-9
    (exactly positive in rational mode).
    """
    if not extremes.plus and not extremes.minus:
        raise ValueError("both extreme sets are empty")
    basis = build_basis(samples.dimension, degree)
    plus_lifted = samples.lifted(extremes.plus, degree, exact)
    minus_lifted = samples.lifted(extremes.minus, degree, exact)
    t, coeffs = _max_margin(plus_lifted, minus_lifted, basis.size, exact)
    isolable = (t > 0) if exact else (t > ISOLABLE_MARGIN)
    witness = None
    if isolable:
        witness = _normalized_witness(coeffs, basis, plus_lifted, minus_lifted)
    return IsolabilityResult(isolable=isolable, margin=t, witness=witness)


def find_critical_point_set(
    extremes: ExtremeSets, samples: SampleSet, degree: int, exact: bool = False
) -> Optional[list[int]]:
    """A minimal non-isolable extreme subset, sorted, or None when E+ and E- are isolable.

    The union of the two supports `hulls_intersect` returns, so no LP runs
    beyond its own.  In d > 1 they are a vertex of the moment LP: its
    positive weights sit on linearly independent lifted columns, so they
    are the only moment-matching weights on their points, and dropping any
    one point leaves hulls that do not meet.  An exact support is
    `solve_exact`'s vertex or the positive `exact_weights` on a float
    vertex's points, which that solve found unique on independent columns.
    On a line they are the k+2 sign-block points, any k+1 of which change
    sign at most k times, and a point in both sets is non-isolable on its
    own.
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
