"""Self-contained dense linear programming: two-phase and dual simplex with anti-cycling rules.

The LPs in this package are small (at most a few hundred variables), so a
dense tableau with anti-cycling pivoting is the robust choice.  One
implementation serves two arithmetic modes: float64 with a 1e-9 tolerance on
reduced costs and row residuals, and exact rationals, held as integers, with
zero tolerance, used when certificate verdicts must be trusted near
degeneracy.

A `LinearProgram` holds one coefficient array with relation and rhs arrays,
over variables that are free or non-negative.  Every solve reads them
through one array standardisation (`_standard_form`), over float64 or
integers, converted once per LP and arithmetic (`_rows`, and `_integers`
through `_linalg.integer_rows`).

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
smallest basic column.  An LP whose objective is all zero is a
feasibility test, where any vertex will do, so its phase 1 is priced: the
column of most negative reduced cost enters for the first two pivots per
tableau row, then Bland's rule takes over, so it still ends.  That reaches
a feasible vertex in fewer pivots, but not always Bland's.  The scans read
the tableau as Python lists: its few tens of rows are too few for array
scans to pay.

Exact solves run as a float-to-exact crossover (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", ORL 2007): a
float guess proposes an optimal basis, which is solved and checked once
over integers on its k x k block of basic structural columns (see
`_certify`: rows scaled by the lcm of their denominators, `_integers`, and
fraction-free block solves, `_linalg.exact_nullspace`).  The guess is the
two-phase solve, its pivots capped by the LP's size, or the all-slack dual
start when that raises.  Every other outcome sends the LP through the
rational simplex from scratch, over integer rows (`_pivot`), so every status
an exact solve returns is decided in exact arithmetic.  `duals` solves the
same block (`_block`) for an optimal basis's duals: a fit's certificate.

Infeasible solves always carry a Farkas witness, one multiplier per row
over the standardised rows, so an infeasible verdict can be checked.
"""

from __future__ import annotations

import math
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
    """minimise c.x subject to A x (relations) rhs, each variable free or non-negative.

    A has one row per constraint and one column per variable; `relations`
    holds "<=", "==" or ">=" per row.  A float64 ndarray A or rhs is kept as
    it is; any other is held as an object array of the numbers as given, so
    an exact solve sees them unrounded.  A variable's bounds are (None, None)
    (free, the default) or (0, None); any other bound is a row of A.  The
    arrays are read, never written: a solve converts them once.
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
        for bound in self.bounds:
            if bound not in ((None, None), (0, None)):
                raise ValueError(f"bounds {bound} are neither (None, None) nor (0, None); write them as rows")
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


def solve(lp: LinearProgram, start: Optional[LpSolution] = None) -> LpSolution:
    """Simplex in float64.  Deterministic.

    `start`, if given, is an optimal solution of an LP whose rows are the
    leading rows of `lp`, with the same objective and bounds.  The dual
    simplex (`_warm`) begins at its basis, mapped into `lp`'s standard form,
    or without `start` at the basis of every row's slack when that is dual
    feasible; the two-phase simplex runs when there is no such start or it
    cannot finish.  `iterations` counts the pivots of every attempt, an
    abandoned dual start's and a refactor's.  An LP with no objective has
    its phase 1 priced (see `_solve`).
    """
    solution, spent = _warm(lp, start)
    if solution is None:
        try:
            solution = _solve(lp, exact=False)
        except LpFailure as err:
            err.diagnostics["iterations"] += spent
            raise
        solution.iterations += spent
    return solution


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Exact rational solution; status decisions carry no tolerance.

    The float simplex's optimal basis is certified exactly, over integers,
    and its exact vertex returned.  The guess is the two-phase solve from
    scratch, capped at `_GUESS_PIVOTS` pivots per standardised row and
    column, or the dual simplex from the all-slack basis when that raises
    and the LP has that start.  Without an optimal guess (infeasible LPs
    then get their Farkas witness from the rational simplex), or when its
    basis is singular or fails an exact check, the two-phase simplex runs
    on integer rows.  The certificate, every row check and the rational
    simplex share one conversion of the rows to integers (`_integers`).
    An LP with no objective has phase 1 priced in both, as in `solve`.
    """
    try:
        guess = _solve(lp, exact=False, guess=True)
    except (LpFailure, OverflowError, ZeroDivisionError):
        try:
            guess = _warm(lp, None)[0]
        except (OverflowError, ZeroDivisionError):
            guess = None
    if guess is not None and guess.status == "optimal":
        certified = _certify(lp, *guess.basis, iterations=guess.iterations)
        if certified is not None:
            return certified
    return _solve(lp, exact=True)


# --- standardisation: x = u, or x = u - v when free, over non-negative columns --


def _rows(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """A and rhs over float64, converted on first use per LP."""
    if "float" not in lp._converted:
        lp._converted["float"] = np.asarray(lp.A, dtype=float), np.asarray(lp.rhs, dtype=float)
    return lp._converted["float"]


def _integers(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, V, D) = `integer_rows` of A and rhs: each row times the lcm D_i of its denominators, on first use per LP."""
    if "integer" not in lp._converted:
        lp._converted["integer"] = integer_rows(lp.A, lp.rhs)
    return lp._converted["integer"]


def _columns(bounds) -> tuple[list[int], list[int]]:
    """Each standardised column's variable and sign: one column u for x >= 0, two for a free x = u - v."""
    var, sign = [], []
    for j, (lo, _) in enumerate(bounds):
        var += [j] if lo is not None else [j, j]
        sign += [1] if lo is not None else [1, -1]
    return var, sign


def _standard_form(lp: LinearProgram, exact: bool):
    """The columns (variable, sign), rows R = [S | slacks] and rhs b of R u = b over u >= 0, and u's costs.

    S holds A's column of each standardised column's variable, negated where
    its sign is -1, then one slack column per row that is not "==": +1 for
    "<=", -1 for ">=".  Over float64 every zero is +0.0.  Exact, they are the
    integer rows (`_integers`): row i is D_i times the rational row but for
    its slack's +-1, an int as every zero.
    """
    A, rhs = _integers(lp)[:2] if exact else _rows(lp)
    unit = int if exact else float  # the type of R's zeros and ones
    var, sign = _columns(lp.bounds)
    neg = [k for k, s in enumerate(sign) if s < 0]

    def signed(M):
        M[..., neg] = -M[..., neg]
        return M if exact else M + 0.0  # -0.0 -> 0.0, the zero a per-coefficient substitution leaves

    structural = signed(A[:, var])
    costs = signed(np.array([(Fraction if exact else float)(lp.objective[j]) for j in var], dtype=A.dtype))
    inequalities = np.flatnonzero(lp.relations != EQUAL)
    slacks = np.full((len(rhs), len(inequalities)), unit(0), dtype=A.dtype)
    slacks[inequalities, np.arange(len(inequalities))] = np.where(lp.relations[inequalities] == LESS, unit(1), unit(-1))
    rows = np.concatenate((structural, slacks), axis=1)
    return (var, sign), rows, rhs, np.concatenate((costs, np.full(len(inequalities), unit(0), dtype=A.dtype)))


def _scaled(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float rows [A | b], each divided by the largest of 1 and its |entries|, and those divisors."""
    A = np.column_stack((rows, rhs))
    scale = np.maximum(1.0, np.abs(A).max(axis=1))
    return A / scale[:, None], scale


def _solve(lp: LinearProgram, exact: bool, guess: bool = False) -> LpSolution:
    """The two-phase simplex from scratch; a float point that breaks a row refactors (see `_warm`).

    A `guess` (the float guess of `solve_exact`) raises `LpFailure` once both
    phases together have made `_GUESS_PIVOTS` pivots per standardised row and
    column, so that a stalling guess hands over soon.  Phase 1 is priced
    (`_simplex`) exactly when the objective is all zero, where any feasible
    vertex answers; phase 2 keeps Bland's rule.  Exact rows are integers (`_pivot`).
    """
    tol = 0 if exact else _TOL
    columns, rows, rhs, costs = _standard_form(lp, exact)
    m, art0 = rows.shape  # structural and slack columns come first
    if exact:  # row i is D_i times the rational row, so its denominator is D_i
        den = _integers(lp)[2]
        rows[:, len(columns[0]):] *= den[:, None]  # each slack's rational +-1, times D_i
        factors, costs = [1] * m, np.array(integer_row(costs)[0], dtype=object)  # same pivots
    else:
        standard, scale = _scaled(rows, rhs)
        rows, rhs, den = standard[:, :-1], standard[:, -1], np.ones(m)
        factors = (1.0 / scale).tolist()

    ncols = art0 + m + 1  # then artificial, then rhs
    T = np.zeros((m, ncols), dtype=rows.dtype)
    T[:, :art0], T[:, -1] = rows, rhs
    for i in range(m):
        if T[i, -1] < 0:
            T[i, :] = -T[i, :]
            factors[i] = -factors[i]
        T[i, art0 + i] = den[i]
    basis, den = [art0 + i for i in range(m)], den.tolist()

    # phase 1: minimise the sum of artificials
    costs1 = np.array([0] * art0 + [1] * m, dtype=rows.dtype)
    cap = _GUESS_PIVOTS * (m + art0) if guess else None
    (obj, oden), status, it = _simplex(T, den, basis, costs1, tol, phase=1, cap=cap, price=not any(lp.objective))
    if status != "optimal":
        raise LpFailure(f"phase-1 simplex ended {status}", {"status": status, "iterations": it})
    if sum(T[i, -1] for i in range(m) if basis[i] >= art0) > tol:
        farkas = [(oden - obj[art0 + i]) * factors[i] for i in range(m)]  # float: oden is 1
        farkas = [Fraction(v, oden) for v in farkas] if exact else [float(v) for v in farkas]
        return LpSolution("infeasible", farkas=farkas, iterations=it)

    # drive artificials out of the basis; remove rows that turn out redundant
    dropped = []
    for i in range(m):
        if basis[i] >= art0:
            j = next((j for j, v in enumerate(T[i, :art0].tolist()) if abs(v) > tol), None)
            if j is None:
                dropped.append(i)
            else:
                _pivot(T, i, j, den)
                basis[i] = j
    if dropped:
        T = np.delete(T, dropped, axis=0)
        basis, den = ([v for i, v in enumerate(kept) if i not in dropped] for kept in (basis, den))
    T = np.concatenate((T[:, :art0], T[:, -1:]), axis=1)  # phase 2 has no artificial columns
    try:
        return _finish(lp, columns, T, den, basis, dropped, costs, it, cap)
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
    var, sign = _columns(lp.bounds)
    return all(lp.objective[j] * s >= 0 for j, s in zip(var, sign))


def _warm(lp: LinearProgram, start: Optional[LpSolution]) -> tuple[Optional[LpSolution], int]:
    """The float solve by dual simplex from a dual feasible basis, and its pivots; no solution when it cannot finish.

    Without `start`, every row enters with its slack basic, which is dual
    feasible when no row is "==" and no standardised column costs less than
    zero (`_slack_basis_dual_feasible`, checked before any tableau work).
    With `start`, its basis plus the slack of every appended row is a basis
    of `lp` with the same duals (the new slacks cost nothing), so only
    appended rows can be primal infeasible.  They stand after the prefix's
    rows, their slacks after the prefix's slacks.  The tableau B^-1 [A | b]
    comes from one dense solve of the kept scaled standardised rows, with no
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
        basis, dropped = start.basis
        prefix = len(basis) + len(dropped)  # rows of `start`'s LP
        if prefix > lp.num_rows or (lp.relations[prefix:] == EQUAL).any():
            return None, 0
        first_new = nstruct + int((lp.relations[:prefix] != EQUAL).sum())  # the first appended slack
        basis = list(basis) + list(range(first_new, first_new + lp.num_rows - prefix))
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
        solution = _finish(lp, columns, T, [1] * len(basis), basis, dropped, c, it)
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


def _finish(lp, columns, T, den, basis, dropped, costs, iterations: int, cap=None) -> LpSolution:
    """Every simplex solve ends here: phase 2 from a primal feasible tableau, then the point and the row check.

    T (row i over den[i]) is B^-1 [A | b] over the standardised columns,
    `costs` their costs (an array), `dropped` the redundant rows left out of
    T; zero tolerance over integers, else 1e-9.  An `LpFailure` (the cap, a
    broken row) carries the pivots of the whole call, `iterations` of them
    made before this one; `cap` is `_simplex`'s.
    """
    exact = T.dtype == object
    try:
        _, status, iterations = _simplex(T, den, basis, costs, 0 if exact else _TOL, phase=2, it=iterations, cap=cap)
        if status == "unbounded":
            return LpSolution("unbounded", iterations=iterations)
        x_std = [0] * len(costs)  # an int zero adds exactly to a float or a Fraction
        for i, j in enumerate(basis):
            x_std[j] = Fraction(T[i, -1], den[i]) if exact else T[i, -1]
        return _optimal(lp, columns, x_std, exact, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure as err:
        err.diagnostics.setdefault("iterations", iterations)
        raise


def _optimal(lp, columns, x_std, exact: bool, iterations: int, basis) -> LpSolution:
    """The solution at standardised point x_std, once every original row holds."""
    conv = Fraction if exact else float
    x = [conv(0)] * lp.num_vars
    for col, (j, s) in enumerate(zip(*columns)):
        x[j] = x[j] + (x_std[col] if s > 0 else -x_std[col])
    if not exact:
        x = [float(v) for v in x]
    value = conv(dot([conv(c) for c in lp.objective], x))
    _check_rows(lp, x, exact, iterations=iterations)
    return LpSolution("optimal", x=x, objective_value=value, iterations=iterations, basis=basis)


def _block(rows: np.ndarray, nstruct: int, basis, dropped):
    """(S, T, B_TS) of a basis over the standardised rows, or None when it is not square or is singular.

    With the rows T whose slack is not basic and the basic structural columns
    S first, B = [[B_TS, 0], [B_RS, +-I]] (R the rows of the basic slacks),
    singular when the k x k B_TS is, or when a dropped row's slack is basic.
    """
    slack_row = np.nonzero(rows[:, nstruct:])[0].tolist()  # the row of slack column nstruct + s
    kept = [i for i in range(len(rows)) if i not in dropped]
    if len(basis) != len(kept) or len(set(basis)) != len(basis):
        return None  # not square, or two equal columns
    struct = [j for j in basis if j < nstruct]
    loose = {slack_row[j - nstruct] for j in basis if j >= nstruct}  # the rows of the basic slacks
    if not loose.isdisjoint(dropped):
        return None
    tight = [i for i in kept if i not in loose]
    return struct, tight, rows[np.ix_(tight, struct)]


def duals(lp: LinearProgram, solution: LpSolution) -> Optional[list[Number]]:
    """y with B^T y = c_B at an optimal solution's basis, on `lp`'s original rows, in its arithmetic; None if singular.

    Solved on `_block`'s B_TS, so y is exactly zero on each row whose slack
    is basic or that was dropped, and y <= 0 on a "<=" row (c - A^T y >= 0);
    an exact y on the integer rows (`_integers`), where it is D^-1 y.
    """
    exact = isinstance(solution.objective_value, Fraction)
    columns, rows, _, costs = _standard_form(lp, exact)
    found = _block(rows, len(columns[0]), *solution.basis)
    if found is None:
        return None
    struct, tight, block = found
    try:
        y_t = (exact_solve if exact else np.linalg.solve)(block.T.tolist(), costs[struct].tolist())
    except np.linalg.LinAlgError:
        return None
    if y_t is None:
        return None
    y = np.zeros(len(rows), dtype=rows.dtype)  # over integers, an int 0 off T
    y[tight] = y_t
    return (y * _integers(lp)[2] if exact else y).tolist()


def _certify(lp: LinearProgram, basis, dropped, iterations: int) -> Optional[LpSolution]:
    """The exact vertex of a proposed optimal basis, or None if it is not one.

    Solves B x_B = b and B^T y = c_B exactly on `_block`'s k x k block:
    B_TS x_S = b_T and B_TS^T y_T = c_S, y zero on the rows of the basic
    slacks, the unique solutions of the full systems.  Then asks for
    x_S >= 0, reduced costs c - A^T y >= 0 on every column and the dropped
    rows satisfied, exactly; a basic slack is >= 0 exactly when its row
    holds, which `_optimal`'s check of every original row asks.

    The standard form is read from the integer rows (`_integers`).  Scaling
    row i by D_i > 0 changes no decision: the duals are D^-1 y, so every
    reduced cost is the same, and a dropped row holds as before.  With
    x_S = X / q and y_T = Y / r from the fraction-free block solves, the
    reduced costs' signs and the dropped rows are integer sums.
    """
    columns, rows, rhs, costs = _standard_form(lp, exact=True)
    found = _block(rows, len(columns[0]), basis, dropped)
    if found is None:
        return None
    struct, tight, block = found
    x_s = exact_solve(block.tolist(), rhs[tight].tolist())
    y = exact_solve(block.T.tolist(), costs[struct].tolist())
    if x_s is None or y is None:
        return None
    X, q = integer_row(x_s)  # x_S = X / q
    Y, r = integer_row(y)  # y_T = Y / r
    C, c_den = integer_row(costs.tolist())  # c = C / c_den
    w = np.zeros(len(costs), dtype=object)  # q times the standardised point, its slacks left at zero
    w[struct] = X
    reduced = np.array(C, dtype=object) * r - c_den * (np.array(Y, dtype=object) @ rows[tight])  # r c_den (c - A^T y)
    if (w < 0).any() or (reduced < 0).any() or (rows[list(dropped)] @ w != q * rhs[list(dropped)]).any():
        return None
    try:
        return _optimal(lp, columns, [Fraction(v, q) for v in w], True, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure:
        return None


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
        matrix, rhs = _rows(lp)
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


def _pivot(T: np.ndarray, row: int, col: int, den=None):
    """Pivot T on (row, col): float64 as a whole; integers (row i over den[i]) on each row non-zero in col."""
    if T.dtype != object:
        T[row, :] = T[row, :] / T[row, col]
        column = T[:, col].copy()
        column[row] = 0 * column[row]
        T -= column[:, None] * T[row]
        return
    # one denominator per row spares the rows that `col` misses, which a common one (Edmonds 1967) rescales too
    T[row], den[row] = _eliminate(T[row] if T[row, col] > 0 else -T[row], abs(T[row, col]), 0, T[row], 1)
    for i in set(np.flatnonzero(T[:, col]).tolist()) - {row}:
        T[i], den[i] = _eliminate(T[i], den[i], T[i, col], T[row], den[row])


def _eliminate(row: np.ndarray, den, entry, prow: np.ndarray, p):
    """row / den - (entry / den) (prow / p): over integers p row - entry prow and den p > 0 over their gcd."""
    if row.dtype != object:  # float64 rows have denominators 1
        return row - entry * prow, den
    row, den = p * row - entry * prow, den * p
    g = math.gcd(*row.tolist(), den)
    return (row // g, den // g) if g > 1 else (row, den)


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
    column.  With `tol` 0 the ratios are exact and compared crosswise,
    rhs_i a_l against rhs_l a_i, which needs no division.
    """
    best_ratio = leaving = None
    if not tol:
        for i, a in enumerate(column):
            if not a > 0:
                continue
            if leaving is not None:
                gap = rhs[i] * column[leaving] - rhs[leaving] * a  # a_i a_l (ratio_i - ratio_l)
                if gap > 0 or (gap == 0 and basis[i] > basis[leaving]):
                    continue
            leaving = i
        return leaving
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


def _simplex(T, den, basis, costs, tol, phase: int, it: int = 0, cap: Optional[int] = None, price: bool = False):
    """Minimise costs.x from the basic feasible point of tableau T (row i over den[i]), `it` pivots made so far.

    With `price` (phase 1 of an LP with no objective, see `_solve`), the
    column of most negative reduced cost enters for this call's first
    `_PRICED_PIVOTS` pivots per tableau row.  After that, and
    without `price`, the first column of negative reduced cost enters
    (Bland's rule), which ends every solve (`_entering`).  The least ratio
    picks the row that leaves, ties going to the smallest basic column
    (`_leaving`).  Both scans read Python lists.  Entries within `tol` of
    zero are zero (0 over integers, else 1e-9, and ratios within 1e-9
    relative tie).  Returns the reduced costs as (obj, oden), obj / oden,
    "optimal" or "unbounded", and the pivots so far; raises `LpFailure` once
    the pivots so far pass `cap`, by default `_MAX_ITER` pivots of its own.
    """
    m, ncols = T.shape
    obj, oden = costs.copy(), 1  # the reduced costs are obj / oden
    for i in range(m):
        cb = costs[basis[i]]
        if cb != 0:
            obj, oden = _eliminate(obj, oden, cb * oden, T[i, : ncols - 1], den[i])

    if cap is None:
        cap = it + _MAX_ITER
    priced_until = it + _PRICED_PIVOTS * m if price else it
    while True:
        entering = _entering(obj.tolist(), tol, it < priced_until)
        if entering is None:
            return (obj, oden), "optimal", it
        leaving = _leaving(T[:, entering].tolist(), T[:, -1].tolist(), basis, tol)
        if leaving is None:
            return (obj, oden), "unbounded", it

        _pivot(T, leaving, entering, den)
        basis[leaving] = entering
        red = obj[entering]
        if red != 0:
            obj, oden = _eliminate(obj, oden, red, T[leaving, : ncols - 1], den[leaving])

        it += 1
        if it > cap:
            raise LpFailure(
                f"simplex exceeded {cap} iterations in phase {phase}",
                {"phase": phase, "iterations": it, "rows": m, "cols": ncols - 1},
            )
