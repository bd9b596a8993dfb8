"""Self-contained dense linear programming: two-phase and dual simplex with anti-cycling rules.

The LPs in this package are small (at most a few hundred variables), so a
dense tableau with anti-cycling pivoting is the robust choice.  One
implementation serves two arithmetic modes: float64 with a 1e-9 tolerance on
reduced costs and row residuals, and exact rationals (``Fraction``) with
zero tolerance, used when certificate verdicts must be trusted near
degeneracy.

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
make them (Stiefel's exchange is this simplex on the same LP).  A float
optimal solution carries its scaled standardised rows, so a warm round
standardises only the rows it appends.  A dual start that cannot finish
leaves the LP to the two-phase simplex, which decides every other status.
A cold float point that breaks a row refactors: its final basis and scaled
rows go to `_warm` with no rows appended, which solves B^-1 [A | b] afresh
and finishes from there; the failure stands only if that fails too.

Exact solves run as a float-to-exact crossover (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", ORL 2007): a
float guess proposes an optimal basis, which is solved and checked once
over ``Fraction`` on its k x k block of basic structural columns (see
`_certify`).  The guess is the two-phase solve, or the all-slack dual start
when that raises.  Every other outcome sends the LP through the rational
simplex from scratch, so every status an exact solve returns is decided in
exact arithmetic.

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

from ._linalg import exact_solve
from .monomials import Number, dot_rows

LESS, EQUAL, GREATER = "<=", "==", ">="
_RELATIONS = (LESS, EQUAL, GREATER)

_TOL = 1e-9
_MAX_ITER = 50_000


class LpFailure(RuntimeError):
    """Numerical failure inside the solver; diagnostics attached."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class LinearProgram:
    """minimise c.x subject to rows (coeffs, relation, rhs) and variable bounds.

    Bounds default to free variables; relations are "<=", "==" or ">=".
    """

    def __init__(
        self,
        objective: Sequence[Number],
        rows: Sequence[tuple[Sequence[Number], str, Number]],
        bounds: Optional[Sequence[tuple[Optional[Number], Optional[Number]]]] = None,
    ):
        self.objective = tuple(objective)
        n = len(self.objective)
        checked = []
        for k, (coeffs, rel, rhs) in enumerate(rows):
            coeffs = tuple(coeffs)
            if len(coeffs) != n:
                raise ValueError(f"row {k} has width {len(coeffs)}, expected {n}")
            if rel not in _RELATIONS:
                raise ValueError(f"row {k} has unknown relation {rel!r}")
            checked.append((coeffs, rel, rhs))
        self.rows = tuple(checked)
        if bounds is None:
            bounds = ((None, None),) * n
        bounds = tuple((lo, hi) for lo, hi in bounds)
        if len(bounds) != n:
            raise ValueError(f"{len(bounds)} bounds for {n} variables")
        self.bounds = bounds

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[list[Number]] = None
    objective_value: Optional[Number] = None
    farkas: Optional[list[Number]] = None
    iterations: int = 0  # pivots of the whole call: an abandoned warm start's and a refactor's included
    # optimal only: (basic column per kept standardised row, dropped redundant rows)
    basis: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = field(default=None, repr=False, compare=False)
    # float optimal only: the LP's scaled standardised rows [A | b], dropped rows included (see `_warm`)
    _rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def solve(lp: LinearProgram, start: Optional[LpSolution] = None) -> LpSolution:
    """Simplex in float64.  Deterministic.

    `start`, if given, is an optimal solution of an LP whose rows are the
    leading rows of `lp`, with the same objective and bounds.  The dual
    simplex (`_warm`) begins at its basis, or without `start` at the basis of
    every row's slack when that is dual feasible; the two-phase simplex runs
    when there is no such start or it cannot finish.  `iterations` counts
    the pivots of every attempt, an abandoned dual start's and a refactor's.
    """
    solution, spent = _warm(lp, start)
    if solution is None:
        solution = _solve(lp, exact=False)
        solution.iterations += spent
    return solution


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Exact rational solution; status decisions carry no tolerance.

    The float simplex's optimal basis is certified over ``Fraction`` and its
    exact vertex returned.  The guess is the two-phase solve from scratch,
    or the dual simplex from the all-slack basis when that raises and the LP
    has that start.  Without an optimal guess (infeasible LPs then get their
    Farkas witness from the rational simplex), or when its basis is singular
    or fails an exact check, the two-phase simplex runs over ``Fraction``.
    """
    try:
        guess = _solve(lp, exact=False)
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


# --- standardisation -------------------------------------------------------
#
# Each original variable becomes one or two non-negative columns plus an
# offset: x = off + sum(sign * u).  Two-sided bounds append a "u <= hi - lo"
# row after the original rows.


def _columns(bounds, conv):
    """Per variable its standardised (column, sign) terms and offset, the two-sided bounds, the column count."""
    col_terms: list[list[tuple[int, int]]] = []  # per variable: [(column, sign)]
    offsets: list[Number] = []
    bound_rows: list[tuple[int, Number]] = []  # (column, upper bound on that column)
    ncols = 0
    for lo, hi in bounds:
        if lo is not None:
            lo = conv(lo)
        if hi is not None:
            hi = conv(hi)
        if lo is not None:
            col_terms.append([(ncols, 1)])
            offsets.append(lo)
            if hi is not None:
                bound_rows.append((ncols, hi - lo))
            ncols += 1
        elif hi is not None:
            col_terms.append([(ncols, -1)])
            offsets.append(hi)
            ncols += 1
        else:
            col_terms.append([(ncols, 1), (ncols + 1, -1)])
            offsets.append(conv(0))
            ncols += 2
    return col_terms, offsets, bound_rows, ncols


def _substitute_rows(rows, col_terms, offsets, ncols: int, conv) -> list[tuple[list[Number], str, Number]]:
    """Each row (coeffs, rel, rhs) over the standardised columns, the offsets moved to the rhs."""
    zero = conv(0)
    sub_rows = []
    for coeffs, rel, rhs in rows:
        row = [zero] * ncols
        shift = conv(0)
        for j, a in enumerate(coeffs):
            a = conv(a)
            if a == 0:
                continue
            if offsets[j]:  # zero for every free variable and every lower bound 0
                shift += a * offsets[j]
            for col, sign in col_terms[j]:
                row[col] += a if sign > 0 else -a
        sub_rows.append((row, rel, conv(rhs) - shift))
    return sub_rows


def _costs(objective, col_terms, ncols: int, conv) -> list[Number]:
    """The cost of each of `ncols` standardised columns (slacks cost nothing)."""
    costs = [conv(0)] * ncols
    for j, c in enumerate(objective):
        c = conv(c)
        if c == 0:
            continue
        for col, sign in col_terms[j]:
            costs[col] += c if sign > 0 else -c
    return costs


def _standard_form(lp: LinearProgram, conv):
    """Rows A = [substituted | slack] with A u = rhs over u >= 0, and the costs of u.

    The original rows come first, then one "<=" row per two-sided bound.
    """
    col_terms, offsets, bound_rows, nstruct = _columns(lp.bounds, conv)
    sub_rows = _substitute_rows(lp.rows, col_terms, offsets, nstruct, conv)
    for col, ub in bound_rows:
        row = [conv(0)] * nstruct
        row[col] = conv(1)
        sub_rows.append((row, LESS, ub))
    nslack = sum(1 for _, rel, _ in sub_rows if rel != EQUAL)
    rows, rhs = [], []
    slack_at = nstruct
    for row, rel, b in sub_rows:
        row = row + [conv(0)] * nslack
        if rel != EQUAL:
            row[slack_at] = conv(1) if rel == LESS else conv(-1)
            slack_at += 1
        rows.append(row)
        rhs.append(b)
    return col_terms, offsets, rows, rhs, _costs(lp.objective, col_terms, nstruct + nslack, conv)


def _scaled(rows, rhs, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The float rows [A | b], each divided by the largest of 1 and its |entries|, and those divisors."""
    A = np.array([row + [b] for row, b in zip(rows, rhs)], dtype=float).reshape(len(rows), width)
    scale = np.maximum(1.0, np.abs(A).max(axis=1))
    return A / scale[:, None], scale


def _solve(lp: LinearProgram, exact: bool) -> LpSolution:
    """The two-phase simplex from scratch; a float point that breaks a row refactors (see `_warm`)."""
    conv = Fraction if exact else float
    dtype = object if exact else float
    tol = 0 if exact else _TOL
    col_terms, offsets, rows, rhs, costs = _standard_form(lp, conv)

    m = len(rows)
    art0 = len(costs)  # structural and slack columns come first
    ncols = art0 + m + 1  # then artificial, then rhs

    T = np.zeros((m, ncols), dtype=dtype)
    if exact:
        T[:, :] = Fraction(0)
        standard = None
        for i, row in enumerate(rows):
            T[i, :art0] = row
            T[i, -1] = rhs[i]
        factors: list[Number] = [Fraction(1)] * m  # std row = factor * substituted row (Farkas mapping)
    else:
        standard, scale = _scaled(rows, rhs, art0 + 1)
        T[:, :art0], T[:, -1] = standard[:, :-1], standard[:, -1]
        factors = (1.0 / scale).tolist()
    for i in range(m):
        if T[i, -1] < 0:
            T[i, :] = -T[i, :]
            factors[i] = -factors[i]
        T[i, art0 + i] = conv(1)
    basis = [art0 + i for i in range(m)]

    # phase 1: minimise the sum of artificials
    costs1 = np.full(ncols - 1, conv(0), dtype=dtype)
    costs1[art0:] = conv(1)
    obj, status, it = _simplex(T, basis, costs1, tol, phase=1)
    if status != "optimal":
        raise LpFailure("phase-1 simplex did not terminate", {"status": status, "iterations": it})
    if sum(T[i, -1] for i in range(m) if basis[i] >= art0) > tol:
        farkas = [(conv(1) - obj[art0 + i]) * factors[i] for i in range(m)]
        if not exact:
            farkas = [float(v) for v in farkas]
        return LpSolution("infeasible", farkas=farkas, iterations=it)

    # drive artificials out of the basis; remove rows that turn out redundant
    dropped = []
    for i in range(m):
        if basis[i] >= art0:
            for j in range(art0):
                if abs(T[i, j]) > tol:
                    _pivot(T, i, j)
                    basis[i] = j
                    break
            else:
                dropped.append(i)
    if dropped:
        T = np.delete(T, dropped, axis=0)
        basis = [b for i, b in enumerate(basis) if i not in dropped]
    T = np.concatenate((T[:, :art0], T[:, -1:]), axis=1)  # phase 2 has no artificial columns
    try:
        return _finish(lp, col_terms, offsets, T, basis, dropped, np.array(costs, dtype=dtype), it, standard)
    except LpFailure as err:  # `_warm` refactors a float tableau; an exact one carries no scaled rows
        refactored = _warm(lp, LpSolution("optimal", basis=(tuple(basis), tuple(dropped)), _rows=standard))[0]
        if refactored is None:
            raise
        refactored.iterations += err.diagnostics["iterations"]
        return refactored


def _slack_basis_dual_feasible(lp: LinearProgram) -> bool:
    """Whether the basis of every row's slack is a dual feasible start: no "==" row, no negative cost."""
    if any(rel == EQUAL for _, rel, _ in lp.rows):
        return False
    col_terms = _columns(lp.bounds, float)[0]
    return all(c * sign >= 0 for c, terms in zip(lp.objective, col_terms) for _, sign in terms)


def _dual_start(lp: LinearProgram, start: Optional[LpSolution]):
    """A dual feasible start of `lp` for `_warm`, or None.

    Returns the variables' columns and offsets, the scaled standardised rows
    [A | b] (dropped rows included), the costs, a basis and the dropped rows.
    Without `start`, every row enters with its slack basic, which is dual
    feasible when no row is "==" and no standardised column costs less than
    zero (`_slack_basis_dual_feasible`, checked before any tableau work).
    With `start`, its basis plus the slack of every appended row is a basis
    of `lp` with the same duals (the new slacks cost nothing), so its
    reduced costs stay non-negative and only appended rows can be primal
    infeasible.  `start` carries the scaled standardised rows of its LP, and
    only the appended rows are standardised here: they go in after the
    prefix's rows, their slack columns after the prefix's slacks, so bound
    rows and their slacks move up.  Each row is the one a rebuild of every
    row would give, bit for bit.  None without carried rows or on an
    appended "==" row.
    """
    if start is None:
        if not _slack_basis_dual_feasible(lp):
            return None
        col_terms, offsets, rows, rhs, costs = _standard_form(lp, float)
        nstruct = sum(map(len, col_terms))
        standard = _scaled(rows, rhs, len(costs) + 1)[0]
        return col_terms, offsets, standard, costs, list(range(nstruct, nstruct + len(rows))), ()
    carried = start._rows
    if start.basis is None or carried is None:  # not optimal, or not a float solve
        return None
    col_terms, offsets, bound_rows, nstruct = _columns(lp.bounds, float)
    old_basis, old_dropped = start.basis
    prefix = len(carried) - len(bound_rows)  # rows of `start`'s LP
    if not 0 <= prefix <= lp.num_rows or any(rel == EQUAL for _, rel, _ in lp.rows[prefix:]):
        return None
    added = lp.num_rows - prefix
    first_new = nstruct + sum(rel != EQUAL for _, rel, _ in lp.rows[:prefix])  # the first appended slack
    width = carried.shape[1] + added
    new = np.zeros((added, width))
    for k, (row, rel, b) in enumerate(_substitute_rows(lp.rows[prefix:], col_terms, offsets, nstruct, float)):
        new[k, :nstruct], new[k, first_new + k], new[k, -1] = row, 1.0 if rel == LESS else -1.0, b
    standard = np.zeros((len(carried) + added, width))
    old_rows = np.r_[:prefix, prefix + added:len(standard)]
    standard[np.ix_(old_rows, np.r_[:first_new, first_new + added:width])] = carried
    standard[prefix:prefix + added] = new / np.maximum(1.0, np.abs(new).max(axis=1))[:, None]  # as `_scaled`
    basis = [j if j < first_new else j + added for j in old_basis] + list(range(first_new, first_new + added))
    dropped = tuple(i if i < prefix else i + added for i in old_dropped)
    return col_terms, offsets, standard, _costs(lp.objective, col_terms, width - 1, float), basis, dropped


def _warm(lp: LinearProgram, start: Optional[LpSolution]) -> tuple[Optional[LpSolution], int]:
    """The float solve by dual simplex from a dual feasible basis, and its pivots; no solution when it cannot finish.

    The basis and the scaled standardised rows come from `_dual_start`, the
    tableau B^-1 [A | b] from one dense solve of the kept rows, with no
    pivots.  In the dual simplex `_leaving_row` picks the row that leaves,
    and the column of minimum ratio enters, ties going to the smallest
    column.  `_finish` runs the primal simplex and the row check.

    No solution without a start, on a singular basis, a negative reduced
    cost, a dual step without an entering column (the LP may be infeasible,
    and the cold solve finds its Farkas witness), the iteration cap, an end
    other than optimal or an `LpFailure`.
    """
    begun = _dual_start(lp, start)
    if begun is None:
        return None, 0
    col_terms, offsets, standard, costs, basis, dropped = begun
    A = np.delete(standard, dropped, axis=0) if dropped else standard
    try:
        T = np.linalg.solve(A[:, basis], A)
    except np.linalg.LinAlgError:
        return None, 0
    T[:, basis] = np.eye(len(basis))
    c = np.array(costs, dtype=float)
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
        solution = _finish(lp, col_terms, offsets, T, basis, dropped, c, it, standard)
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


def _finish(lp, col_terms, offsets, T, basis, dropped, costs, iterations: int, standard=None) -> LpSolution:
    """Every simplex solve ends here: phase 2 from a primal feasible tableau, then the point and the row check.

    T is B^-1 [A | b] over the standardised columns, `costs` their costs (an
    array) and `dropped` the redundant rows left out of T; zero tolerance over
    ``Fraction`` (object T), else 1e-9.  An `LpFailure` (the iteration cap, a
    broken row) carries the pivots of the whole call, `iterations` of them
    made before this one.  The scaled rows of a float solve, `standard`, ride
    along on its optimal solution.
    """
    exact = T.dtype == object
    try:
        _, status, iterations = _simplex(T, basis, costs, 0 if exact else _TOL, phase=2, it=iterations)
        if status == "unbounded":
            return LpSolution("unbounded", iterations=iterations)
        x_std = [0] * len(costs)  # an int zero adds exactly to a float or a Fraction
        for i, j in enumerate(basis):
            x_std[j] = T[i, -1]
        return _optimal(lp, col_terms, offsets, x_std, exact, iterations, (tuple(basis), tuple(dropped)), standard)
    except LpFailure as err:
        err.diagnostics.setdefault("iterations", iterations)
        raise


def _optimal(lp, col_terms, offsets, x_std, exact: bool, iterations: int, basis, standard=None) -> LpSolution:
    """The solution at standardised point x_std, once every original row holds; `standard` rides along."""
    conv = Fraction if exact else float
    x = []
    for j in range(lp.num_vars):
        v = offsets[j]
        for col, sign in col_terms[j]:
            v = v + (x_std[col] if sign > 0 else -x_std[col])
        x.append(v if exact else float(v))
    value = conv(sum(conv(c) * xj for c, xj in zip(lp.objective, x)))
    _check_rows(lp, x, conv, exact, iterations=iterations)
    return LpSolution("optimal", x=x, objective_value=value, iterations=iterations, basis=basis, _rows=standard)


def _certify(lp: LinearProgram, basis, dropped, iterations: int) -> Optional[LpSolution]:
    """The exact vertex of a proposed optimal basis, or None if it is not one.

    Solves B x_B = b and B^T y = c_B over ``Fraction`` on the kept rows, then
    asks for x_B >= 0, reduced costs c - A^T y >= 0 on every column, the
    dropped rows satisfied and every original row satisfied, all exactly.

    B is solved on its structural block.  A basic slack is the unit column
    +-e_i of its own row i, so with the rows T whose slack is not basic
    first and the basic structural columns S first, B = [[B_TS, 0],
    [B_RS, +-I]].  B is singular exactly when B_TS is (|T| = |S| for a
    square basis of distinct columns), or when a basic slack belongs to a
    dropped row (a zero column).  Otherwise B_TS x_S = b_T and
    B_TS^T y_T = c_S are k x k solves, k = |S| (at most one more than the
    number of coefficients in a fit LP), each basic slack is
    +-(b_i - a_i . x_S), and y is zero on the rows R of the basic slacks,
    which cost nothing.  These x_B and y solve the full systems, whose
    solutions are unique, so the vertex certified is the one the dense
    m x m solves would give.
    """
    col_terms, offsets, rows, rhs, costs = _standard_form(lp, Fraction)
    nstruct = sum(map(len, col_terms))
    slack_row = [i for i, row in enumerate(rows) if any(row[nstruct:])]  # the row of slack column nstruct + s
    kept = [i for i in range(len(rows)) if i not in dropped]
    if len(basis) != len(kept) or len(set(basis)) != len(basis):
        return None  # not square, or two equal columns
    struct = [j for j in basis if j < nstruct]
    slack_of = {slack_row[j - nstruct]: j for j in basis if j >= nstruct}  # row -> its basic slack
    if any(i in dropped for i in slack_of):
        return None
    tight = [i for i in kept if i not in slack_of]
    x_s = exact_solve([[rows[i][j] for j in struct] for i in tight], [rhs[i] for i in tight])
    y = exact_solve([[rows[i][j] for i in tight] for j in struct], [costs[j] for j in struct])
    if x_s is None or y is None:
        return None
    x_std = [Fraction(0)] * len(costs)
    for j, v in zip(struct, x_s):
        x_std[j] = v
    for i, j in slack_of.items():  # the slack's entry is +-1, its own inverse
        x_std[j] = (rhs[i] - sum(rows[i][c] * v for c, v in zip(struct, x_s) if v)) * rows[i][j]
    if any(x_std[j] < 0 for j in basis):
        return None
    for j, c in enumerate(costs):
        if c - sum(yi * rows[i][j] for yi, i in zip(y, tight) if yi and rows[i][j]) < 0:
            return None
    for i in dropped:
        if sum(a * v for a, v in zip(rows[i], x_std) if v) != rhs[i]:
            return None
    try:
        return _optimal(lp, col_terms, offsets, x_std, True, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure:
        return None


def _check_rows(lp: LinearProgram, x, conv, exact: bool, iterations: int):
    """Raise `LpFailure` at the first original row that the point x breaks.

    A defensive residual check; the 1e-9 contract itself is asserted in
    tests.  All rows are checked at once: `dot_rows` sums the columns left to
    right in float64 (``conv`` float), or over ``Fraction`` in an object
    array, so each float residual is bit for bit that of a per-row ``sum``
    (Python 3.11).  A float row may miss by 1e-7 times the largest of 1,
    its |coefficients| and |rhs|; an exact row not at all.
    """
    if not lp.rows:
        return
    coeffs, rels, rhs = zip(*lp.rows)
    if exact:  # Fraction entries, so that no float enters an exact sum
        coeffs, rhs = [[conv(a) for a in row] for row in coeffs], [conv(b) for b in rhs]
    dtype = object if exact else float
    matrix, rhs = np.array(coeffs, dtype=dtype), np.array(rhs, dtype=dtype)
    resid = dot_rows(matrix, x) - rhs
    slack = 0 if exact else 1e-7 * np.maximum(np.abs(matrix).max(axis=1, initial=1.0), np.abs(rhs))
    rels = np.array(rels)
    bad = (((rels == EQUAL) & (abs(resid) > slack)) | ((rels == LESS) & (resid > slack))
           | ((rels == GREATER) & (resid < -slack)))
    if bad.any():
        k = int(np.argmax(bad))
        raise LpFailure(
            f"optimal point violates row {k} by {float(resid[k]):.3e}",
            {"row": k, "residual": float(resid[k]), "iterations": iterations},
        )


def _pivot(T: np.ndarray, row: int, col: int):
    T[row, :] = T[row, :] / T[row, col]
    column = T[:, col].copy()
    column[row] = 0 * column[row]
    T -= np.outer(column, T[row, :])


def _simplex(T, basis, costs, tol, phase: int, it: int = 0):
    """Minimise costs.x from the basic feasible point of tableau T by Bland's rule, `it` pivots made so far.

    Entries within `tol` of zero are zero (0 over ``Fraction``, else 1e-9,
    and ratios within 1e-9 relative tie).  Returns the reduced costs,
    "optimal" or "unbounded", and the pivots so far; raises `LpFailure`
    after `_MAX_ITER` pivots of its own.
    """
    m, ncols = T.shape
    obj = costs.copy()
    for i in range(m):
        cb = costs[basis[i]]
        if cb != 0:
            obj = obj - cb * T[i, : ncols - 1]

    cap = it + _MAX_ITER
    while True:
        entering = None
        for j in range(ncols - 1):
            if obj[j] < -tol:
                entering = j
                break
        if entering is None:
            return obj, "optimal", it

        best_ratio = None
        leaving = None
        for i in range(m):
            a = T[i, entering]
            if not a > tol:
                continue
            ratio = T[i, -1] / a
            if best_ratio is None:
                best_ratio, leaving = ratio, i
                continue
            margin = tol * max(1, abs(best_ratio))
            if ratio < best_ratio - margin:
                best_ratio, leaving = ratio, i
            elif abs(ratio - best_ratio) <= margin and basis[i] < basis[leaving]:
                leaving = i
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
                f"simplex exceeded {_MAX_ITER} iterations in phase {phase}",
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
    _, _, rows, rhs, costs = _standard_form(lp, conv)
    if len(farkas) != len(rows):
        return False
    y = [conv(v) for v in farkas]
    tol = 0 if exact else _TOL
    for j in range(len(costs)):
        if sum(yi * row[j] for yi, row in zip(y, rows)) > tol:
            return False
    return sum(yi * b for yi, b in zip(y, rhs)) > tol
