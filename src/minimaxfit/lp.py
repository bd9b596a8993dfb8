"""Self-contained dense linear programming: two-phase simplex with Bland's rule.

The LPs in this package are small (at most a few hundred variables), so a
dense tableau with anti-cycling pivoting is the robust choice.  One
implementation serves two arithmetic modes: float64 with a 1e-9 tolerance on
reduced costs and row residuals, and exact rationals (``Fraction``) with
zero tolerance, used when certificate verdicts must be trusted near
degeneracy.

Exact solves run as a float-to-exact crossover (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", ORL 2007): the
float simplex proposes an optimal basis, which is then solved and checked
once over ``Fraction``: primal values non-negative, reduced costs
non-negative, every row satisfied exactly.  A basis that fails any check, and
every float failure or non-optimal float status, sends the LP through the
rational simplex from scratch.  Every status an exact solve returns is thus
decided in exact arithmetic.  The certificate solves only the basis's
structural block (see `_certify`): a basic slack is a unit column, so
B x_B = b and B^T y = c_B over all m kept rows reduce to two k x k systems
over the k basic structural columns, k at most one more than a fit's
coefficients.  A non-singular system has one solution, so the block gives
the vertex the m x m solves would.

A float solve may start from the optimal basis of an LP whose rows are the
leading rows of its own (``start``), as the working-set loop of the minimax
fit makes them round after round; Stiefel's exchange is this simplex on the
same LP.  The appended rows enter with their slacks basic, which leaves the
basis dual feasible, so a dual simplex restores primal feasibility and no
phase 1 runs.  A warm start returns only an optimal point that passed the
same row check as a cold one; anything else sends the LP through the
two-phase simplex from scratch, which decides every other status.

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
    iterations: int = 0  # pivots of the whole call, an abandoned warm start's included
    # optimal only: (basic column per kept standardised row, dropped redundant rows)
    basis: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = field(default=None, repr=False, compare=False)


def solve(lp: LinearProgram, start: Optional[LpSolution] = None) -> LpSolution:
    """Simplex in float64.  Deterministic (Bland's rule).

    Without `start`, the two-phase simplex runs from scratch.  `start` is an
    optimal solution of an LP whose rows are the leading rows of `lp`, with
    the same objective and bounds; the solve then begins at its basis (see
    `_warm`) and runs from scratch only when that attempt cannot finish.
    """
    solution, spent = _warm(lp, start) if start is not None else (None, 0)
    if solution is None:
        solution = _solve(lp, exact=False)
        solution.iterations += spent
    return solution


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Exact rational solution; status decisions carry no tolerance.

    The float simplex's optimal basis is certified over ``Fraction`` and its
    exact vertex returned.  When the float solve fails, ends other than
    optimal (infeasible LPs then get their Farkas witness from the rational
    simplex), or its basis is singular or fails an exact check, the two-phase
    simplex runs over ``Fraction`` from scratch.
    """
    try:
        guess = _solve(lp, exact=False)
    except (LpFailure, OverflowError, ZeroDivisionError):
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


def _substitute(lp: LinearProgram, conv):
    col_terms: list[list[tuple[int, int]]] = []  # per variable: [(column, sign)]
    offsets: list[Number] = []
    bound_rows: list[tuple[int, Number]] = []  # (column, upper bound on that column)
    ncols = 0
    for lo, hi in lp.bounds:
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

    zero = conv(0)
    sub_rows: list[tuple[list[Number], str, Number]] = []
    for coeffs, rel, rhs in lp.rows:
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
    for col, ub in bound_rows:
        row = [zero] * ncols
        row[col] = conv(1)
        sub_rows.append((row, LESS, ub))
    return col_terms, offsets, ncols, sub_rows


def _standard_form(lp: LinearProgram, conv):
    """Rows A = [substituted | slack] with A u = rhs over u >= 0, and the costs of u."""
    col_terms, offsets, nstruct, sub_rows = _substitute(lp, conv)
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
    costs = [conv(0)] * (nstruct + nslack)
    for j, c in enumerate(lp.objective):
        c = conv(c)
        if c == 0:
            continue
        for col, sign in col_terms[j]:
            costs[col] += c if sign > 0 else -c
    return col_terms, offsets, rows, rhs, costs


def _solve(lp: LinearProgram, exact: bool) -> LpSolution:
    conv = Fraction if exact else float
    dtype = object if exact else float
    col_terms, offsets, rows, rhs, costs = _standard_form(lp, conv)

    m = len(rows)
    art0 = len(costs)  # structural and slack columns come first
    ncols = art0 + m + 1  # then artificial, then rhs

    T = np.zeros((m, ncols), dtype=dtype)
    if exact:
        T[:, :] = Fraction(0)
    factors: list[Number] = []  # std row = factor * substituted row (Farkas mapping)
    for i, row in enumerate(rows):
        T[i, :art0] = row
        T[i, -1] = rhs[i]

        factor = conv(1)
        if not exact:
            scale = max(1.0, np.abs(T[i, : ncols - 1]).max(), abs(T[i, -1]))
            if scale > 1.0:
                T[i, :] = T[i, :] / scale
                factor = factor / scale
        if T[i, -1] < 0:
            T[i, :] = -T[i, :]
            factor = -factor
        factors.append(factor)
        T[i, art0 + i] = conv(1)

    basis = [art0 + i for i in range(m)]
    artificial = set(range(art0, art0 + m))

    # phase 1: minimise the sum of artificials
    costs1 = np.zeros(ncols - 1, dtype=dtype)
    if exact:
        costs1[:] = Fraction(0)
    for j in artificial:
        costs1[j] = conv(1)
    obj, status, it1 = _simplex(T, basis, costs1, barred=frozenset(), phase=1)
    if status != "optimal":
        raise LpFailure("phase-1 simplex did not terminate", {"status": status, "iterations": it1})
    infeas = sum(T[i, -1] for i in range(m) if basis[i] in artificial)
    if infeas > (0 if exact else _TOL):
        farkas = [(conv(1) - obj[art0 + i]) * factors[i] for i in range(m)]
        if not exact:
            farkas = [float(v) for v in farkas]
        return LpSolution("infeasible", farkas=farkas, iterations=it1)

    # drive artificials out of the basis; remove rows that turn out redundant
    drop_rows = []
    for i in range(m):
        if basis[i] not in artificial:
            continue
        pivot_col = None
        for j in range(art0):
            entry = T[i, j]
            if (entry != 0) if exact else (abs(entry) > _TOL):
                pivot_col = j
                break
        if pivot_col is None:
            drop_rows.append(i)
        else:
            _pivot(T, i, pivot_col)
            basis[i] = pivot_col
    if drop_rows:
        T = np.delete(T, drop_rows, axis=0)
        basis = [b for i, b in enumerate(basis) if i not in set(drop_rows)]

    # phase 2: the real objective over structural columns
    costs2 = np.array(costs + [conv(0)] * m, dtype=dtype)
    obj, status, it2 = _simplex(T, basis, costs2, barred=frozenset(artificial), phase=2)
    if status == "unbounded":
        return LpSolution("unbounded", iterations=it1 + it2)
    if status != "optimal":
        raise LpFailure("phase-2 simplex did not terminate", {"status": status, "iterations": it2})

    x_std = [conv(0)] * art0
    for i, b in enumerate(basis):
        x_std[b] = T[i, -1]
    return _optimal(lp, col_terms, offsets, x_std, exact, it1 + it2, (tuple(basis), tuple(drop_rows)))


def _warm(lp: LinearProgram, start: LpSolution) -> tuple[Optional[LpSolution], int]:
    """The float solve from `start`'s basis and the pivots it made; no solution when it cannot finish.

    `start`'s basis plus the slack of every appended row is a basis of `lp`
    with the same duals (the new slacks cost nothing), so its reduced costs
    stay non-negative and only appended rows can be primal infeasible.  The
    tableau B^-1 [A | b] comes from one dense solve of the standardised rows,
    with no pivots.  A dual simplex then restores primal feasibility with
    Bland's rule for the dual: the infeasible row with the smallest basic
    column leaves, and the column of minimum ratio enters, ties going to the
    smallest column.  The primal simplex and the row check finish as in
    `_solve`.  No solution on an appended "==" row, a singular basis, a
    negative reduced cost, a dual step without an entering column (the LP
    may be infeasible, and the cold solve finds its Farkas witness), the
    iteration cap or an `LpFailure`.
    """
    if start.basis is None:  # not optimal
        return None, 0
    col_terms, offsets, rows, rhs, costs = _standard_form(lp, float)
    old_basis, old_dropped = start.basis
    prefix = len(old_basis) + len(old_dropped) - (len(rows) - lp.num_rows)  # rows of `start`'s LP
    if not 0 <= prefix <= lp.num_rows or any(rel == EQUAL for _, rel, _ in lp.rows[prefix:]):
        return None, 0
    added = lp.num_rows - prefix
    # the appended rows' slacks and rows come after the prefix's own; bound rows and their slacks move up
    first_new = sum(map(len, col_terms)) + sum(rel != EQUAL for _, rel, _ in lp.rows[:prefix])
    basis = [j if j < first_new else j + added for j in old_basis] + list(range(first_new, first_new + added))
    dropped = tuple(i if i < prefix else i + added for i in old_dropped)

    A = np.array([row + [b] for i, (row, b) in enumerate(zip(rows, rhs)) if i not in dropped], dtype=float)
    A = A.reshape(len(basis), len(costs) + 1)
    A /= np.maximum(1.0, np.abs(A).max(axis=1))[:, None]  # as `_solve` scales its rows
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
        leaving = min(infeasible, key=basis.__getitem__)
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
        _, status, it2 = _simplex(T, basis, c, barred=frozenset(), phase=2)
    except LpFailure as err:
        return None, it + err.diagnostics["iterations"]
    it += it2
    if status != "optimal":
        return None, it
    x_std = np.zeros(len(costs))
    x_std[basis] = T[:, -1]
    try:
        return _optimal(lp, col_terms, offsets, x_std.tolist(), False, it, (tuple(basis), dropped)), it
    except LpFailure:
        return None, it


def _optimal(lp, col_terms, offsets, x_std, exact: bool, iterations: int, basis) -> LpSolution:
    """The solution at standardised point x_std, once every original row holds."""
    conv = Fraction if exact else float
    x = []
    for j in range(lp.num_vars):
        v = offsets[j]
        for col, sign in col_terms[j]:
            v = v + (x_std[col] if sign > 0 else -x_std[col])
        x.append(v if exact else float(v))
    value = sum(conv(c) * xj for c, xj in zip(lp.objective, x))
    if not exact:
        value = float(value)

    _check_rows(lp, x, conv, exact, iterations=iterations)
    return LpSolution("optimal", x=x, objective_value=value, iterations=iterations, basis=basis)


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


def _simplex(T, basis, costs, barred, phase):
    """Minimise costs.x from the current basic feasible point.  Bland's rule."""
    m, ncols = T.shape
    exact = T.dtype == object
    tol = _TOL
    obj = costs.copy()
    for i in range(m):
        cb = costs[basis[i]]
        if cb != 0:
            obj = obj - cb * T[i, : ncols - 1]

    it = 0
    while True:
        entering = None
        for j in range(ncols - 1):
            if j in barred:
                continue
            v = obj[j]
            if (v < 0) if exact else (v < -tol):
                entering = j
                break
        if entering is None:
            return obj, "optimal", it

        best_ratio = None
        leaving = None
        for i in range(m):
            a = T[i, entering]
            positive = (a > 0) if exact else (a > tol)
            if not positive:
                continue
            ratio = T[i, -1] / a
            if best_ratio is None:
                best_ratio, leaving = ratio, i
                continue
            if exact:
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leaving]):
                    best_ratio, leaving = ratio, i
            else:
                near = abs(ratio - best_ratio) <= tol * max(1.0, abs(best_ratio))
                if ratio < best_ratio - tol * max(1.0, abs(best_ratio)):
                    best_ratio, leaving = ratio, i
                elif near and basis[i] < basis[leaving]:
                    leaving = i
        if leaving is None:
            return obj, "unbounded", it

        _pivot(T, leaving, entering)
        basis[leaving] = entering
        red = obj[entering]
        if red != 0:
            obj = obj - red * T[leaving, : ncols - 1]

        it += 1
        if it > _MAX_ITER:
            raise LpFailure(
                f"simplex exceeded {_MAX_ITER} iterations in phase {phase}",
                {"phase": phase, "iterations": it, "rows": m, "cols": ncols - 1},
            )


def verify_farkas(lp: LinearProgram, farkas: Sequence[Number], exact: bool = False) -> bool:
    """Check an infeasibility witness against the standardised encoding.

    The witness `y` must combine the substituted rows (original rows first,
    then the two-sided-bound rows) into a contradiction over non-negative
    columns: y.A <= 0 componentwise, y(<= rows) <= 0, y(>= rows) >= 0, and
    y.b > 0.
    """
    conv = Fraction if exact else float
    _, _, ncols, sub_rows = _substitute(lp, conv)
    if len(farkas) != len(sub_rows):
        return False
    y = [conv(v) for v in farkas]
    slack = 0 if exact else _TOL
    for j in range(ncols):
        combo = sum(yi * row[j] for yi, (row, _, _) in zip(y, sub_rows))
        if combo > slack:
            return False
    for yi, (_, rel, _) in zip(y, sub_rows):
        if rel == LESS and yi > slack:
            return False
        if rel == GREATER and yi < -slack:
            return False
    total = sum(yi * rhs for yi, (_, _, rhs) in zip(y, sub_rows))
    return total > (0 if exact else _TOL)
