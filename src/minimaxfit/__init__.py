"""Best uniform (minimax) polynomial approximation on finite point sets.

Fits multivariate polynomial models by linear programming and verifies their
optimality three independent ways: a convex-hull moment certificate, a fast
point-reduction necessary check, and a hyperplane sign-split test that
generalises the univariate alternation criterion.  A `MonomialBasis` is plain
data (one exponent tuple per monomial), and `reduce_and_verify` runs every
branch of the point reduction in one depth-first walk.
"""

from .alternation import (
    HyperplaneSplit,
    HyperplaneVerdict,
    SplitCondition,
    check_split_condition,
    split,
    verify_by_hyperplanes,
)
from .fitting import (
    ExtremeSets,
    FitResult,
    SampleSet,
    compute_psi,
    count_alternations,
    extreme_sets,
    fit_minimax,
    partition_extremes,
)
from .lp import LinearProgram, LpFailure, LpSolution, solve, solve_exact, verify_farkas
from .monomials import (
    MonomialBasis,
    PolynomialModel,
    build_basis,
    evaluate,
    lift,
    shift_monomial_weights,
)
from .optimality import (
    IntersectionCertificate,
    IsolabilityResult,
    SeparationWitness,
    check_hull_intersection,
    check_isolability,
    find_critical_point_set,
    hulls_intersect,
    verify_certificate,
    verify_witness,
)
from .reduction import (
    ReductionReport,
    ReductionStep,
    ReductionTrace,
    reduce_and_verify,
)

__version__ = "0.1.0"

__all__ = [
    "MonomialBasis",
    "PolynomialModel",
    "build_basis",
    "evaluate",
    "lift",
    "shift_monomial_weights",
    "LinearProgram",
    "LpFailure",
    "LpSolution",
    "solve",
    "solve_exact",
    "verify_farkas",
    "SampleSet",
    "FitResult",
    "ExtremeSets",
    "fit_minimax",
    "compute_psi",
    "extreme_sets",
    "partition_extremes",
    "count_alternations",
    "IntersectionCertificate",
    "SeparationWitness",
    "IsolabilityResult",
    "check_hull_intersection",
    "check_isolability",
    "find_critical_point_set",
    "hulls_intersect",
    "verify_certificate",
    "verify_witness",
    "ReductionReport",
    "ReductionStep",
    "ReductionTrace",
    "reduce_and_verify",
    "HyperplaneSplit",
    "HyperplaneVerdict",
    "SplitCondition",
    "split",
    "check_split_condition",
    "verify_by_hyperplanes",
    "__version__",
]
