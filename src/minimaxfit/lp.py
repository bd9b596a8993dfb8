"""Self-contained dense linear programming: two-phase and dual simplex with anti-cycling rules.

The LPs in this package are small (at most a few hundred variables), so a
dense tableau with anti-cycling pivoting is the robust choice.  One
implementation serves two arithmetic modes: float64 with a 1e-9 tolerance on
reduced costs and row residuals, and exact rationals (``Fraction``) with
zero tolerance, used when certificate verdicts must be trusted near
degeneracy.

A `LinearProgram` holds one coefficient array with relation and rhs arrays.
Every solve reads them through one array standardisation (`_standard_form`),
over float64, ``Fraction`` or integers, converted once per LP and arithmetic
(`_rows`, and `_integers` through `_linalg.integer_rows`).

Every simplex solve ends in one routine, `_finish`: the primal simplex from
a primal feasible tableau, the point in the original variables, and a check
of every original row.  The tableau comes from the two-phase simplex from
scratch (`_solve`, in either arithmetic, its artificial columns dropped
after phase 1) or, in float64, from a dual feasible basis by the dual
simplex (`_warm`; Koberstein, "The dual simplex method", PhD thesis,
Paderborn 2005).  Two bases are dual feasible as they stand: every row's
slack, when no row is "==" and no standardised column costs less than zero,
as in a fit's minimax LP; and the optimal basis of an LP whose rows lead
this one's, plus the appended rows' slacks, as a fit's working-set rounds
make them (Stiefel's exchange is this simplex on the same LP).  `_warm`
standardises the whole LP and maps the start's basis into it.  A dual start
that cannot finish leaves the LP to the two-phase simplex, which decides
every other status.  A cold float point that breaks a row refactors: its
final basis goes to `_warm` with no rows appended, which solves B^-1 [A | b]
afresh and finishes from there; the failure stands only if that fails too.

The primal simplex enters the first column of negative reduced cost
(Bland, "New finite pivoting rules for the simplex method", Math. of OR
1977), and the least ratio picks the row that leaves, ties going to the
smallest basic column.  A solve asked to `price` enters the column of most
negative reduced cost instead, for the first two pivots per tableau row of
each phase, then hands over to Bland's rule, so it still ends.  It reaches
an optimal vertex in fewer pivots, but not always the one Bland's rule
reaches, so only hull tests whose vertex is never reported ask for it
(`optimality.hulls_intersect`).  The scans read the tableau as Python
lists: its few tens of rows are too few for array scans to pay.

`solve_batch` decides a stack of same-shape float LPs A_k x = b_k, x >= 0,
in lockstep: each pivot step is a few numpy operations over the whole stack
(Gurung & Ray, "Simultaneous solving of batched linear programs on a GPU",
ICPE 2019; on the CPU here).  The many small moment LPs of alternation's
hull tests cost more in per-LP set-up and per-pivot interpreter overhead
than in arithmetic.  It sits beside `_simplex` rather than inside it because
it needs less: the objective is zero, so it runs phase 1 and no phase 2; it
reports no basis, Farkas witness or status, only a point that passed the
non-negativity and row checks, so an LP it does not decide goes to `solve`;
and a cap on its pivots bounds how long the stack waits for its slowest LP.
It takes `_simplex`'s pivot rule, priced then Bland's, and `_leaving`'s
ratio test, so each LP reaches the point that `solve(price=True)` reaches.

Exact solves run as a float-to-exact crossover (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", ORL 2007): a
float guess proposes an optimal basis, which is solved and checked once
over integers on its k x k block of basic structural columns (see
`_certify`: rows scaled by the lcm of their denominators, `_integers`, and
fraction-free block solves, `_linalg.exact_nullspace`).  The guess is the
two-phase solve, its pivots capped by the LP's size, or the all-slack dual
start when that raises.  Every other outcome sends the LP through the
rational simplex from scratch over ``Fraction``, so every status an exact
solve returns is decided in exact arithmetic.  `duals` solves the same
block (`_block`) for an optimal basis's duals: a fit's certificate.

Infeasible solves always carry a Farkas witness so callers can turn "no
certificate" into an explicit separating functional.  The witness lives in
the standardised row space: original rows first, then one row per two-sided
variable bound; ``verify_farkas`` checks it against that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._linalg import exact_solve, integer_row, integer_rows
from .monomials import Number, dot, dot_rows

LESS, EQUAL, GREATER = "<=", "==", ">="

_TOL = 1e-9
_MAX_ITER = 50_000
# Pivots a float guess of `solve_exact` may make per standardised row and column.  The
# largest guess over the test suite and the benchmark workloads (seeds 1 and 7) made 454
# pivots on 68 rows and 99 columns, and none made more than 3.5 per row and column (433
# on 52 and 73; priced guesses at most 1.1); the exact 3-D grid fit's first round (88
# rows, 129 columns) ran 19,633 before phase 1 gave up.
_GUESS_PIVOTS = 4
_PRICED_PIVOTS = 2  # pivots per tableau row that a priced `_simplex` call enters by most negative reduced cost
# Pivots per row after which `solve_batch` leaves an LP undecided.  Alternation's moment LPs
# made at most 7.7 per row on 2,690 random 2-D and 3-D fits (161 pivots on 21 rows) and 2.6 on
# the verify-coeffs ops at seeds 1 and 7 (29 on 11).
_BATCH_PIVOTS = 10


class LpFailure(RuntimeError):
    """Numerical failure inside the solver; diagnostics attached."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _entries(values) -> np.ndarray:
    """A float64 ndarray as it is; anything else as an object array of its numbers, none converted."""
    if isinstance(values, np.ndarray) and values.dtype == float:
        return values
    return np.asarray(values, dtype=object)


class LinearProgram:
    """minimise c.x subject to A x (relations) rhs and variable bounds.

    A has one row per constraint and one column per variable; `relations`
    holds "<=", "==" or ">=" per row.  A float64 ndarray A or rhs is kept as
    it is; any other is held as an object array of the numbers as given, so
    an exact solve sees them unrounded.  Bounds default to free variables.
    The arrays are read, never written: a solve converts them once.
    """

    def __init__(
        self,
        objective: Sequence[Number],
        A,
        relations: Sequence[str],
        rhs: Sequence[Number],
        bounds: Optional[Sequence[tuple[Optional[Number], Optional[Number]]]] = None,
    ):
        self.objective = tuple(objective)
        n = len(self.objective)
        self.A, self.relations, self.rhs = _entries(A), np.asarray(relations, dtype=str), _entries(rhs)
        if not self.A.size:  # no rows
            self.A = self.A.reshape(len(self.A), n)
        m = len(self.A)
        if self.A.shape != (m, n) or self.relations.shape != (m,) or self.rhs.shape != (m,):
            raise ValueError(f"A {self.A.shape}, relations {self.relations.shape} and rhs {self.rhs.shape}"
                             f" do not make rows over {n} variables")
        if not ((self.relations == LESS) | (self.relations == EQUAL) | (self.relations == GREATER)).all():
            raise ValueError(f"unknown relation among {self.relations.tolist()}")
        self.bounds = ((None, None),) * n if bounds is None else tuple((lo, hi) for lo, hi in bounds)
        if len(self.bounds) != n:
            raise ValueError(f"{len(self.bounds)} bounds for {n} variables")
        self._converted: dict = {}  # see `_rows` and `_integers`

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[list[Number]] = None
    objective_value: Optional[Number] = None
    farkas: Optional[list[Number]] = None
    iterations: int = 0  # pivots of the whole call: an abandoned warm start's and a refactor's included
    # optimal only: (basic column per kept standardised row, dropped redundant rows)
    basis: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = field(default=None, repr=False, compare=False)


def solve(lp: LinearProgram, start: Optional[LpSolution] = None, *, price: bool = False) -> LpSolution:
    """Simplex in float64.  Deterministic.

    `start`, if given, is an optimal solution of an LP whose rows are the
    leading rows of `lp`, with the same objective and bounds.  The dual
    simplex (`_warm`) begins at its basis, mapped into `lp`'s standard form,
    or without `start` at the basis of every row's slack when that is dual
    feasible; the two-phase simplex runs when there is no such start or it
    cannot finish.  `iterations` counts the pivots of every attempt, an
    abandoned dual start's and a refactor's.  `price` prices the two-phase
    simplex (see `_simplex`): it reaches some optimal vertex in fewer pivots,
    but not always the one Bland's rule reaches.
    """
    solution, spent = _warm(lp, start)
    if solution is None:
        try:
            solution = _solve(lp, exact=False, price=price)
        except LpFailure as err:
            err.diagnostics["iterations"] += spent
            raise
        solution.iterations += spent
    return solution


def solve_exact(lp: LinearProgram, *, price: bool = False) -> LpSolution:
    """Exact rational solution; status decisions carry no tolerance.

    The float simplex's optimal basis is certified exactly, over integers,
    and its exact vertex returned.  The guess is the two-phase solve from
    scratch, capped at `_GUESS_PIVOTS` pivots per standardised row and
    column, or the dual simplex from the all-slack basis when that raises
    and the LP has that start.  Without an optimal guess (infeasible LPs
    then get their Farkas witness from the rational simplex), or when its
    basis is singular or fails an exact check, the two-phase simplex runs
    over ``Fraction``.
    The certificate and every row check share one conversion of the rows to
    integers, the rational simplex one to ``Fraction``.  `price` prices the
    guess and the rational simplex alike, as in `solve`.
    """
    try:
        guess = _solve(lp, exact=False, guess=True, price=price)
    except (LpFailure, OverflowError, ZeroDivisionError):
        try:
            guess = _warm(lp, None)[0]
        except (OverflowError, ZeroDivisionError):
            guess = None
    if guess is not None and guess.status == "optimal":
        certified = _certify(lp, *guess.basis, iterations=guess.iterations)
        if certified is not None:
            return certified
    return _solve(lp, exact=True, price=price)


# --- standardisation: x = offset + sum(sign * u) over non-negative columns u --


def _rows(lp: LinearProgram, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """A and rhs over ``Fraction`` (object arrays) or float64, converted on first use per LP."""
    if exact not in lp._converted:
        convert = np.frompyfunc(Fraction, 1, 1) if exact else (lambda a: np.asarray(a, dtype=float))
        lp._converted[exact] = convert(lp.A), convert(lp.rhs)
    return lp._converted[exact]


def _integers(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, V, D) = `integer_rows` of A and rhs: each row times the lcm D_i of its denominators, on first use per LP."""
    if "integer" not in lp._converted:
        lp._converted["integer"] = integer_rows(lp.A, lp.rhs)
    return lp._converted["integer"]


def _columns(bounds, conv):
    """Each standardised column's variable and sign, each variable's offset, each two-sided bound's column and width."""
    var, sign, offsets, bound_cols, widths = [], [], [], [], []
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:  # x = lo + u
            lo = conv(lo)
            if hi is not None:
                bound_cols.append(len(var))
                widths.append(conv(hi) - lo)
            var.append(j)
            sign.append(1)
            offsets.append(lo)
        elif hi is not None:  # x = hi - u
            var.append(j)
            sign.append(-1)
            offsets.append(conv(hi))
        else:  # x = u - v
            var += [j, j]
            sign += [1, -1]
            offsets.append(conv(0))
    return var, sign, offsets, bound_cols, widths


def _standard_form(lp: LinearProgram, exact: bool, integer: bool = False):
    """The columns (variable, sign, offsets), rows R = [S | slacks] and rhs b of R u = b over u >= 0, and u's costs.

    S holds A's column of each standardised column's variable, negated where
    its sign is -1, and the offsets move to the rhs.  The original rows come
    first, then one "<=" row per two-sided bound, then one slack column per
    row that is not "==": +1 for "<=", -1 for ">=".  Over float64 every zero
    is +0.0.  With `integer` (and `exact`) they are the integer rows
    (`_integers`), every zero and one of R an int.
    """
    conv = Fraction if exact else float
    A, rhs = _integers(lp)[:2] if integer else _rows(lp, exact)
    unit = int if integer else conv  # the type of R's zeros and ones
    var, sign, offsets, bound_cols, widths = _columns(lp.bounds, conv)
    neg = [k for k, s in enumerate(sign) if s < 0]

    def signed(M):
        M[..., neg] = -M[..., neg]
        return M if exact else M + 0.0  # -0.0 -> 0.0, the zero a per-coefficient substitution leaves

    def zeros(*shape):
        return np.full(shape, unit(0), dtype=A.dtype)

    structural = signed(A[:, var])
    costs = signed(np.array([conv(lp.objective[j]) for j in var], dtype=A.dtype))
    if any(offsets):  # zero for every free variable and every lower bound 0
        rhs = rhs - dot_rows(A, offsets)
    bound_rows = zeros(len(bound_cols), len(var))
    bound_rows[np.arange(len(bound_cols)), bound_cols] = unit(1)
    relations = np.concatenate((lp.relations, [LESS] * len(bound_cols)))
    inequalities = np.flatnonzero(relations != EQUAL)
    slacks = zeros(len(relations), len(inequalities))
    slacks[inequalities, np.arange(len(inequalities))] = np.where(relations[inequalities] == LESS, unit(1), unit(-1))
    rows = np.concatenate((np.concatenate((structural, bound_rows)), slacks), axis=1)
    b = np.concatenate((rhs, np.array(widths, dtype=A.dtype)))
    return (var, sign, offsets), rows, b, np.concatenate((costs, zeros(len(inequalities))))


def _scaled(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float rows [A | b], each divided by the largest of 1 and its |entries|, and those divisors."""
    A = np.column_stack((rows, rhs))
    scale = np.maximum(1.0, np.abs(A).max(axis=1))
    return A / scale[:, None], scale


def _solve(lp: LinearProgram, exact: bool, guess: bool = False, price: bool = False) -> LpSolution:
    """The two-phase simplex from scratch; a float point that breaks a row refactors (see `_warm`).

    A `guess` (the float guess of `solve_exact`) raises `LpFailure` once both
    phases together have made `_GUESS_PIVOTS` pivots per standardised row
    and column, so that a stalling guess hands over soon.  `price` prices
    both phases (`_simplex`).
    """
    conv = Fraction if exact else float
    tol = 0 if exact else _TOL
    columns, rows, rhs, costs = _standard_form(lp, exact)
    if exact:
        factors: list[Number] = [Fraction(1)] * len(rows)  # std row = factor * substituted row (Farkas mapping)
    else:
        standard, scale = _scaled(rows, rhs)
        rows, rhs = standard[:, :-1], standard[:, -1]
        factors = (1.0 / scale).tolist()

    m, art0 = rows.shape  # structural and slack columns come first
    ncols = art0 + m + 1  # then artificial, then rhs
    T = np.full((m, ncols), conv(0), dtype=rows.dtype)
    T[:, :art0], T[:, -1] = rows, rhs
    for i in range(m):
        if T[i, -1] < 0:
            T[i, :] = -T[i, :]
            factors[i] = -factors[i]
        T[i, art0 + i] = conv(1)
    basis = [art0 + i for i in range(m)]

    # phase 1: minimise the sum of artificials
    costs1 = np.full(ncols - 1, conv(0), dtype=rows.dtype)
    costs1[art0:] = conv(1)
    cap = _GUESS_PIVOTS * (m + art0) if guess else None
    obj, status, it = _simplex(T, basis, costs1, tol, phase=1, cap=cap, price=price)
    if status != "optimal":
        raise LpFailure(f"phase-1 simplex ended {status}", {"status": status, "iterations": it})
    if sum(T[i, -1] for i in range(m) if basis[i] >= art0) > tol:
        farkas = [(conv(1) - obj[art0 + i]) * factors[i] for i in range(m)]
        if not exact:
            farkas = [float(v) for v in farkas]
        return LpSolution("infeasible", farkas=farkas, iterations=it)

    # drive artificials out of the basis; remove rows that turn out redundant
    dropped = []
    for i in range(m):
        if basis[i] >= art0:
            j = next((j for j, v in enumerate(T[i, :art0].tolist()) if abs(v) > tol), None)
            if j is None:
                dropped.append(i)
            else:
                _pivot(T, i, j)
                basis[i] = j
    if dropped:
        T = np.delete(T, dropped, axis=0)
        basis = [b for i, b in enumerate(basis) if i not in dropped]
    T = np.concatenate((T[:, :art0], T[:, -1:]), axis=1)  # phase 2 has no artificial columns
    try:
        return _finish(lp, columns, T, basis, dropped, costs, it, cap, price)
    except LpFailure as err:  # `_warm` refactors a float tableau at its final basis
        if exact:
            raise
        refactored, spent = _warm(lp, LpSolution("optimal", basis=(tuple(basis), tuple(dropped))))
        err.diagnostics["iterations"] += spent
        if refactored is None:
            raise
        refactored.iterations = err.diagnostics["iterations"]
        return refactored


def _slack_basis_dual_feasible(lp: LinearProgram) -> bool:
    """Whether the basis of every row's slack is a dual feasible start: no "==" row, no negative cost."""
    if (lp.relations == EQUAL).any():
        return False
    var, sign = _columns(lp.bounds, float)[:2]
    return all(lp.objective[j] * s >= 0 for j, s in zip(var, sign))


def _warm(lp: LinearProgram, start: Optional[LpSolution]) -> tuple[Optional[LpSolution], int]:
    """The float solve by dual simplex from a dual feasible basis, and its pivots; no solution when it cannot finish.

    Without `start`, every row enters with its slack basic, which is dual
    feasible when no row is "==" and no standardised column costs less than
    zero (`_slack_basis_dual_feasible`, checked before any tableau work).
    With `start`, its basis plus the slack of every appended row is a basis
    of `lp` with the same duals (the new slacks cost nothing), so only
    appended rows can be primal infeasible.  They stand after the prefix's
    rows, their slacks after the prefix's slacks, so bound rows, their
    slacks and dropped bound rows move up.  The tableau B^-1 [A | b] comes
    from one dense solve of the kept scaled standardised rows, with no
    pivots.  In the dual simplex `_leaving_row` picks the row that leaves,
    and the column of minimum ratio enters, ties going to the smallest
    column.  `_finish` runs the primal simplex and the row check.

    No solution without such a start (an appended "==" row, say), on a
    singular basis, a negative reduced cost, a dual step without an entering
    column (the LP may be infeasible, and the cold solve finds its Farkas
    witness), the iteration cap, an end other than optimal or an `LpFailure`.
    """
    usable = _slack_basis_dual_feasible(lp) if start is None else start.basis is not None
    if not usable:
        return None, 0
    columns, rows, rhs, c = _standard_form(lp, exact=False)
    nstruct = len(columns[0])
    A = _scaled(rows, rhs)[0]
    if start is None:
        basis, dropped = list(range(nstruct, nstruct + len(rows))), ()
    else:
        old_basis, old_dropped = start.basis
        prefix = len(old_basis) + len(old_dropped) - (len(rows) - lp.num_rows)  # rows of `start`'s LP
        if not 0 <= prefix <= lp.num_rows or (lp.relations[prefix:] == EQUAL).any():
            return None, 0
        added = lp.num_rows - prefix
        first_new = nstruct + int((lp.relations[:prefix] != EQUAL).sum())  # the first appended slack
        basis = [j if j < first_new else j + added for j in old_basis] + list(range(first_new, first_new + added))
        dropped = tuple(i if i < prefix else i + added for i in old_dropped)
    if dropped:
        A = np.delete(A, dropped, axis=0)
    try:
        T = np.linalg.solve(A[:, basis], A)
    except np.linalg.LinAlgError:
        return None, 0
    T[:, basis] = np.eye(len(basis))
    obj = c - c[basis] @ T[:, :-1]
    if not np.isfinite(T).all() or (obj < -_TOL).any():
        return None, 0

    it = 0
    while True:
        infeasible = np.flatnonzero(T[:, -1] < -_TOL)
        if not infeasible.size:
            break
        leaving = _leaving_row(T, basis, infeasible, it)
        row = T[leaving, :-1]
        cols = np.flatnonzero(row < -_TOL)
        if not cols.size or it >= _MAX_ITER:
            return None, it
        ratios = obj[cols] / -row[cols]
        best = ratios.min()
        entering = int(cols[np.argmax(ratios <= best + _TOL * max(1.0, abs(best)))])
        _pivot(T, leaving, entering)
        basis[leaving] = entering
        obj = obj - obj[entering] * T[leaving, :-1]
        it += 1
    try:
        solution = _finish(lp, columns, T, basis, dropped, c, it)
    except LpFailure as err:
        return None, err.diagnostics["iterations"]
    return (solution if solution.status == "optimal" else None), solution.iterations


def _leaving_row(T: np.ndarray, basis: list[int], infeasible: np.ndarray, step: int) -> int:
    """The row that leaves at dual simplex step `step`, among the `infeasible` rows of tableau T.

    For the first m steps (m rows) the row of largest infeasibility, ties
    going to the smallest basic column; from then on the row with the
    smallest basic column (Bland's rule for the dual), so the solve ends.
    """
    if step < len(basis):
        values = T[infeasible, -1]
        infeasible = infeasible[values == values.min()]
    return min(infeasible, key=basis.__getitem__)


def _finish(lp, columns, T, basis, dropped, costs, iterations: int, cap=None, price: bool = False) -> LpSolution:
    """Every simplex solve ends here: phase 2 from a primal feasible tableau, then the point and the row check.

    T is B^-1 [A | b] over the standardised columns, `costs` their costs (an
    array) and `dropped` the redundant rows left out of T; zero tolerance over
    ``Fraction`` (object T), else 1e-9.  An `LpFailure` (the iteration cap, a
    broken row) carries the pivots of the whole call, `iterations` of them
    made before this one, and `cap` and `price` are `_simplex`'s.
    """
    exact = T.dtype == object
    try:
        _, status, iterations = _simplex(T, basis, costs, 0 if exact else _TOL, phase=2, it=iterations, cap=cap,
                                         price=price)
        if status == "unbounded":
            return LpSolution("unbounded", iterations=iterations)
        x_std = [0] * len(costs)  # an int zero adds exactly to a float or a Fraction
        for i, j in enumerate(basis):
            x_std[j] = T[i, -1]
        return _optimal(lp, columns, x_std, exact, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure as err:
        err.diagnostics.setdefault("iterations", iterations)
        raise


def _optimal(lp, columns, x_std, exact: bool, iterations: int, basis) -> LpSolution:
    """The solution at standardised point x_std, once every original row holds."""
    conv = Fraction if exact else float
    var, sign, offsets = columns
    x = list(offsets)
    for col, (j, s) in enumerate(zip(var, sign)):
        x[j] = x[j] + (x_std[col] if s > 0 else -x_std[col])
    if not exact:
        x = [float(v) for v in x]
    value = conv(dot([conv(c) for c in lp.objective], x))
    _check_rows(lp, x, exact, iterations=iterations)
    return LpSolution("optimal", x=x, objective_value=value, iterations=iterations, basis=basis)


def _block(rows: np.ndarray, nstruct: int, basis, dropped):
    """(S, T, slack_of, B_TS) of a basis over the standardised rows, or None when it is not square or is singular.

    With the rows T whose slack is not basic and the basic structural columns
    S first, B = [[B_TS, 0], [B_RS, +-I]] (`slack_of`: row of R -> its slack),
    singular when the k x k B_TS is, or when a dropped row's slack is basic.
    """
    slack_row = np.nonzero(rows[:, nstruct:])[0].tolist()  # the row of slack column nstruct + s
    kept = [i for i in range(len(rows)) if i not in dropped]
    if len(basis) != len(kept) or len(set(basis)) != len(basis):
        return None  # not square, or two equal columns
    struct = [j for j in basis if j < nstruct]
    slack_of = {slack_row[j - nstruct]: j for j in basis if j >= nstruct}  # row -> its basic slack
    if any(i in dropped for i in slack_of):
        return None
    tight = [i for i in kept if i not in slack_of]
    return struct, tight, slack_of, rows[np.ix_(tight, struct)]


def duals(lp: LinearProgram, solution: LpSolution) -> Optional[list[Number]]:
    """y with B^T y = c_B at an optimal solution's basis, on `lp`'s original rows, in its arithmetic; None if singular.

    Solved on `_block`'s B_TS, so y is exactly zero on each row whose slack
    is basic or that was dropped, and y <= 0 on a "<=" row (c - A^T y >= 0);
    an exact y on the integer rows (`_integers`), where it is D^-1 y.
    """
    exact = isinstance(solution.objective_value, Fraction)
    columns, rows, _, costs = _standard_form(lp, exact=True, integer=True) if exact else _standard_form(lp, exact=False)
    found = _block(rows, len(columns[0]), *solution.basis)
    if found is None:
        return None
    struct, tight, _, block = found
    try:
        y_t = (exact_solve if exact else np.linalg.solve)(block.T.tolist(), costs[struct].tolist())
    except np.linalg.LinAlgError:
        return None
    if y_t is None:
        return None
    y = np.zeros(len(rows), dtype=rows.dtype)  # over integers, an int 0 off T
    y[tight] = y_t
    return (y[:lp.num_rows] * _integers(lp)[2] if exact else y[:lp.num_rows]).tolist()


def _certify(lp: LinearProgram, basis, dropped, iterations: int) -> Optional[LpSolution]:
    """The exact vertex of a proposed optimal basis, or None if it is not one.

    Solves B x_B = b and B^T y = c_B exactly on `_block`'s k x k block:
    B_TS x_S = b_T and B_TS^T y_T = c_S, each basic slack +-(b_i - a_i . x_S)
    and y zero on the rows of the basic slacks, the unique solutions of the
    full systems.  Then asks for x_B >= 0, reduced costs c - A^T y >= 0 on
    every column, the dropped rows and every original row satisfied, exactly.

    The standard form is read from the integer rows (`_integers`).  Scaling
    row i by D_i > 0 changes no decision: a basic slack is D_i times the
    original one, the duals are D^-1 y, so every reduced cost is the same,
    and a dropped row holds as before.  With x_S = X / q and y_T = Y / r
    from the fraction-free block solves, the slacks, the reduced costs'
    signs and the dropped rows are integer sums.
    """
    columns, rows, rhs, costs = _standard_form(lp, exact=True, integer=True)
    found = _block(rows, len(columns[0]), basis, dropped)
    if found is None:
        return None
    struct, tight, slack_of, block = found
    x_s = exact_solve(block.tolist(), rhs[tight].tolist())
    y = exact_solve(block.T.tolist(), costs[struct].tolist())
    if x_s is None or y is None:
        return None
    X, q = integer_row(x_s)  # x_S = X / q
    Y, r = integer_row(y)  # y_T = Y / r
    C, c_den = integer_row(costs.tolist())  # c = C / c_den
    w = np.zeros(len(costs), dtype=object)  # q times the standardised point
    w[struct] = X
    loose, slacks = list(slack_of), list(slack_of.values())
    w[slacks] = (q * rhs[loose] - rows[np.ix_(loose, struct)] @ np.array(X, dtype=object)) * rows[loose, slacks]
    reduced = np.array(C, dtype=object) * r - c_den * (np.array(Y, dtype=object) @ rows[tight])  # r c_den (c - A^T y)
    if (w < 0).any() or (reduced < 0).any() or (rows[list(dropped)] @ w != q * rhs[list(dropped)]).any():
        return None
    try:
        return _optimal(lp, columns, [Fraction(v, q) for v in w], True, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure:
        return None


def solve_batch(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasible points of a stack of float LPs A_k x = b_k over x >= 0, decided in lockstep: (x, feasible).

    A is (K, m, n) and b (K, m); a column of zeros pads an LP with fewer
    variables and never enters.  Each LP takes the steps of `_solve`'s phase
    1 on it: the same scaled rows, the same pivots (`_PRICED_PIVOTS` per row
    priced, then Bland's rule, and `_leaving`'s ratio test), the same
    artificials driven out, so its point is the one `solve` reaches; there
    is no phase 2, as the objective is zero.  `feasible[k]` holds when LP k
    ended phase 1 feasible within `_BATCH_PIVOTS` pivots per row, its point is
    non-negative and every row holds as `_check_rows` asks.  Anything else
    (infeasible, the cap, a step with no leaving row, a broken row) is
    False, and the LP is left to `solve`.
    """
    K, m, n = A.shape
    S = np.concatenate((A + 0.0, b[:, :, None]), axis=2)
    S = S / np.maximum(1.0, np.abs(S).max(axis=2))[:, :, None]  # `_scaled`, row by row
    S[S[:, :, -1] < 0] *= -1
    T = np.zeros((K, m + 1, n + m + 1))  # row m holds the reduced costs, so that each pivot updates them
    T[:, :m, :n], T[:, :m, -1] = S[:, :, :n], S[:, :, -1]
    T[:, np.arange(m), n + np.arange(m)] = 1.0
    obj = np.zeros((K, n + m))
    obj[:, n:] = 1.0
    for i in range(m):
        obj = obj - T[:, i, :-1]
    T[:, m, :-1] = obj
    basis = np.tile(n + np.arange(m), (K, 1))
    ended = np.zeros(K, dtype=bool)  # phase 1 reached its optimum
    at = rows = np.arange(K)  # the LPs still pivoting: T[at], basis[at] are `Tw`, `bw`
    Tw, bw = T, basis
    cap = _BATCH_PIVOTS * m
    for it in range(cap + 1):
        obj = Tw[:, m, :-1]
        negative = obj < -_TOL
        entering = np.argmin(obj, axis=1) if it < _PRICED_PIVOTS * m else np.argmax(negative, axis=1)
        column = Tw[rows, :, entering]
        leaving = _leaving_rows(column[:, :m], Tw[:, :m, -1], bw)
        going = negative.any(axis=1)
        step = going & (leaving >= 0) & (it < cap)  # no leaving row: `_solve` raises
        if not step.all():
            ended[at[~going]] = True
            T[at], basis[at] = Tw, bw
            at, Tw, bw, entering, leaving, column = (v[step] for v in (at, Tw, bw, entering, leaving, column))
            if not at.size:
                break
            rows = np.arange(len(at))
        _pivot_rows(Tw, leaving, column)
        bw[rows, leaving] = entering
    artificial = basis >= n
    residue = np.zeros(K)
    for i in range(m):
        residue = residue + np.where(artificial[:, i], T[:, i, -1], 0.0)
    feasible = ended & (residue <= _TOL)
    stuck = feasible[:, None] & artificial  # a pivot on row i changes no other row's basic column
    for i in np.flatnonzero(stuck.any(axis=0)).tolist():  # drive the artificials out, in row order
        nonzero = np.abs(T[:, i, :n]) > _TOL
        out = np.flatnonzero(stuck[:, i] & nonzero.any(axis=1))
        if out.size:
            entering, sub = np.argmax(nonzero[out], axis=1), T[out]
            _pivot_rows(sub, np.full(len(out), i), sub[np.arange(len(out)), :, entering])
            T[out], basis[out, i] = sub, entering
    x = np.zeros((K, n))
    k, i = np.nonzero(basis < n)
    x[k, basis[k, i]] = T[k, i, -1]
    total = np.zeros((K, m))  # `dot_rows` of each LP's rows, column by column
    for j in range(n):
        total += A[:, :, j] * x[:, j, None]
    feasible &= (x >= 0).all(axis=1) & (np.abs(total - b) <= _row_slack(A, b)).all(axis=1)
    return x, feasible


def _leaving_rows(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """`_leaving` for each row of a stack of entering columns, rhs and bases; -1 where a step has no leaving row.

    `_leaving` treats a ratio r above the least r* as r* only when r - r*
    is within its margin 1e-9 max(1, |r|, |r*|), so only when
    r - r* < 2e-9 (1 + |r*|).  Where no other ratio lies within
    3e-9 (1 + 2|r*|) of r*, a bound wide enough for rounding, `_leaving`
    picks the smallest basic column among the least ratios, as this does at
    once over the stack; elsewhere the rows are scanned in order, as
    `_leaving` scans them.
    """
    ok = column > _TOL
    ratio = np.divide(rhs, column, out=np.full(rhs.shape, np.inf), where=ok)
    least = ratio.min(axis=1, keepdims=True)
    tied = ratio == least
    leaving = np.where(tied, basis, np.inf).argmin(axis=1)
    leaving[least[:, 0] == np.inf] = -1
    near = ((ratio <= least + 3e-9 * (1 + 2 * np.abs(least))) != tied).any(axis=1)
    for k in np.flatnonzero(near).tolist():
        step = _leaving(column[k].tolist(), rhs[k].tolist(), basis[k].tolist(), _TOL)
        leaving[k] = -1 if step is None else step
    return leaving


def _pivot_rows(T: np.ndarray, row: np.ndarray, column: np.ndarray):
    """`_pivot` of each tableau T[k] of a stack on row[k], `column[k]` being its entering column.

    The pivot row is written after the update, so it ends as `_pivot`
    leaves it, having had zero times itself subtracted.
    """
    at = np.arange(len(T))
    pivot_row = T[at, row] / column[at, row][:, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[at, row] = pivot_row


def _check_rows(lp: LinearProgram, x, exact: bool, iterations: int):
    """Raise `LpFailure` at the first original row that the point x breaks.

    A defensive residual check; the 1e-9 contract itself is asserted in
    tests.  All rows are checked at once.  A float point x is checked on
    the float64 rows (`_rows`), where `dot_rows` sums the columns left to
    right, so each residual is bit for bit that of a per-row ``sum``
    (Python 3.11); a row may miss by 1e-7 times the largest of 1, its
    |coefficients| and |rhs|.  An exact x = X / q (`integer_row`) may miss
    no row; N X - q V over the integer rows (`_integers`) is q D_i times
    each residual.
    """
    if not lp.num_rows:
        return
    if exact:
        N, V, D = _integers(lp)
        X, q = integer_row(x)
        resid = dot_rows(N, X) - q * V  # q D_i times each residual
        slack = 0
    else:
        matrix, rhs = _rows(lp, exact)
        resid = dot_rows(matrix, x) - rhs
        slack = _row_slack(matrix, rhs)
    rels = lp.relations
    bad = (((rels == EQUAL) & (abs(resid) > slack)) | ((rels == LESS) & (resid > slack))
           | ((rels == GREATER) & (resid < -slack)))
    if bad.any():
        k = int(np.argmax(bad))
        residual = float(Fraction(resid[k], q * D[k]) if exact else resid[k])
        raise LpFailure(
            f"optimal point violates row {k} by {residual:.3e}",
            {"row": k, "residual": residual, "iterations": iterations},
        )


def _row_slack(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """How far a float point may miss each row of A (the last axis) and its rhs: 1e-7 max(1, |row|, |rhs|)."""
    return 1e-7 * np.maximum(np.abs(A).max(axis=-1, initial=1.0), np.abs(rhs))


def _pivot(T: np.ndarray, row: int, col: int):
    T[row, :] = T[row, :] / T[row, col]
    column = T[:, col].copy()
    column[row] = 0 * column[row]
    T -= column[:, None] * T[row]


def _entering(reduced: list, tol, priced: bool) -> Optional[int]:
    """The column that enters, from the reduced costs as a list, or None at an optimum.

    Priced, the most negative reduced cost, ties going to the smallest
    column; otherwise the first column below -`tol` (Bland's rule).
    """
    if priced:
        j = min(range(len(reduced)), key=reduced.__getitem__, default=None)
        return j if j is not None and reduced[j] < -tol else None
    return next((j for j, r in enumerate(reduced) if r < -tol), None)


def _leaving(column: list, rhs: list, basis: list[int], tol) -> Optional[int]:
    """The row that leaves, from the entering column and the rhs as lists, or None when the step is unbounded.

    The least ratio rhs_i / a_i over the rows with a_i > `tol`, ratios within
    `tol` relative of the best so far tying, ties going to the smallest basic
    column.
    """
    best_ratio = leaving = None
    for i, a in enumerate(column):
        if not a > tol:
            continue
        ratio = rhs[i] / a
        if best_ratio is None:
            best_ratio, leaving = ratio, i
            continue
        margin = tol * max(1, abs(best_ratio))
        if ratio < best_ratio - margin:
            best_ratio, leaving = ratio, i
        elif abs(ratio - best_ratio) <= margin and basis[i] < basis[leaving]:
            leaving = i
    return leaving


def _simplex(T, basis, costs, tol, phase: int, it: int = 0, cap: Optional[int] = None, price: bool = False):
    """Minimise costs.x from the basic feasible point of tableau T, `it` pivots made so far.

    With `price`, the column of most negative reduced cost enters for this
    call's first `_PRICED_PIVOTS` pivots per tableau row.  After that, and
    without `price`, the first column of negative reduced cost enters
    (Bland's rule), which ends every solve (`_entering`).  The least ratio
    picks the row that leaves, ties going to the smallest basic column
    (`_leaving`).  Both scans read Python lists.  Entries within `tol` of
    zero are zero (0 over ``Fraction``, else 1e-9, and ratios within 1e-9
    relative tie).  Returns the reduced costs, "optimal" or "unbounded", and
    the pivots so far; raises `LpFailure` once the pivots so far pass `cap`,
    by default `_MAX_ITER` pivots of its own.
    """
    m, ncols = T.shape
    obj = costs.copy()
    for i in range(m):
        cb = costs[basis[i]]
        if cb != 0:
            obj = obj - cb * T[i, : ncols - 1]

    if cap is None:
        cap = it + _MAX_ITER
    priced_until = it + _PRICED_PIVOTS * m if price else it
    while True:
        entering = _entering(obj.tolist(), tol, it < priced_until)
        if entering is None:
            return obj, "optimal", it
        leaving = _leaving(T[:, entering].tolist(), T[:, -1].tolist(), basis, tol)
        if leaving is None:
            return obj, "unbounded", it

        _pivot(T, leaving, entering)
        basis[leaving] = entering
        red = obj[entering]
        if red != 0:
            obj = obj - red * T[leaving, : ncols - 1]

        it += 1
        if it > cap:
            raise LpFailure(
                f"simplex exceeded {cap} iterations in phase {phase}",
                {"phase": phase, "iterations": it, "rows": m, "cols": ncols - 1},
            )


def verify_farkas(lp: LinearProgram, farkas: Sequence[Number], exact: bool = False) -> bool:
    """Check an infeasibility witness against the standardised encoding.

    The witness `y` must combine the standardised rows A u = b over u >= 0
    (original rows first, then the two-sided-bound rows) into a
    contradiction: y.A <= 0 on every column and y.b > 0.  A slack column
    carries its row's relation, so this asks y <= 0 of a "<=" row and
    y >= 0 of a ">=" row.
    """
    conv = Fraction if exact else float
    _, rows, rhs, _ = _standard_form(lp, exact)
    if len(farkas) != len(rows):
        return False
    y = np.array([conv(v) for v in farkas], dtype=rows.dtype)
    tol = 0 if exact else _TOL
    return bool((y @ rows <= tol).all() and y @ rhs > tol)
