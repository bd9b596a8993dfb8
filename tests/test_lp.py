"""Two-phase simplex: statuses, witnesses, determinism, invariances, and the exact crossover."""

import builtins
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxfit.lp as lp_module
from minimaxfit import LinearProgram, LpFailure, LpSolution, build_basis, lift, solve, solve_exact
from minimaxfit._linalg import exact_solve
from minimaxfit import fitting
from minimaxfit.cli import RunConfig, parse_grid_spec, run
from minimaxfit.monomials import dot
from minimaxfit.optimality import _margin_lp, _moment_lp

from support import (
    build_fit_corpus,
    compensated_sum,
    lp_from_rows,
    random_samples,
    reference_entering,
    reference_leaving,
    reference_margin_lp,
    reference_rational_simplex,
    reference_standard_form,
    verify_farkas,
)


def test_minimize_above_lower_bound():
    sol = solve(LinearProgram([1.0], [[1.0]], [">="], [3.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_conflicting_rows_are_infeasible_with_farkas():
    lp = LinearProgram([0.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.farkas is not None
    assert verify_farkas(lp, sol.farkas)


@pytest.mark.parametrize("exact", [False, True])
def test_farkas_check_rejects_each_broken_condition(exact):
    # x >= 0 with x == -1: y = (-1, 0) combines the rows into 0 <= -1; each wrong y breaks one condition
    for rel, rhs, wrong in (("<=", 5, [-1, 0.5]), (">=", -3, [-1, -0.5]), ("==", 5, [-1, 2])):
        lp = LinearProgram([0], [[1], [1]], ["==", rel], [-1, rhs], [(0, None)])
        assert verify_farkas(lp, [-1, 0], exact)
        assert not verify_farkas(lp, wrong, exact)  # a slack column of the relation, else the structural one
        assert not verify_farkas(lp, [0, 0], exact)  # y.b = 0
        assert not verify_farkas(lp, [-1], exact)  # one entry per standardised row
    # x >= 0 with x >= 2 and x <= 1: rows u - s0 = 2 and u + s1 = 1; a witness needs both, as y = (1, -1)
    lp = LinearProgram([0], [[1], [1]], [">=", "<="], [2, 1], [(0, None)])
    assert verify_farkas(lp, [1, -1], exact)
    assert not verify_farkas(lp, [1], exact)  # each row has its own entry
    assert not verify_farkas(lp, [1, 0], exact)  # without the "<=" row, x's column sums to 1 > 0
    assert not verify_farkas(lp, [1, -2], exact)  # y.b = 0
    assert not verify_farkas(lp, [1, 1], exact)  # the "<=" slack's column sums to 1 > 0
    sol = (solve_exact if exact else solve)(lp)
    assert sol.status == "infeasible" and len(sol.farkas) == 2 and verify_farkas(lp, sol.farkas, exact)


def test_free_unconstrained_minimization_is_unbounded():
    assert solve(LinearProgram([-1.0], [], [], [])).status == "unbounded"


def test_exact_empty_problem():
    sol = solve_exact(LinearProgram([0], [], [], []))
    assert sol.status == "optimal"
    assert sol.objective_value == 0


def test_exact_contradictory_equalities():
    lp = LinearProgram([0], [[1], [1]], ["==", "=="], [1, 2])
    sol = solve_exact(lp)
    assert sol.status == "infeasible"
    assert verify_farkas(lp, sol.farkas, exact=True)


def test_exact_bivariate_moment_system_has_half_weights():
    # corners (1,1),(-1,-1) against (1,-1),(-1,1): matching the constant, x and
    # y moments forces all four convex weights to 1/2
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1]]
    lp = LinearProgram([0, 0, 0, 0], A, ["=="] * 4, [1, 1, 0, 0], ((0, None),) * 4)
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == [Fraction(1, 2)] * 4


def _random_box_lp(rng: random.Random):
    """Box-constrained LP, the box written as rows, whose optimum is a known corner."""
    n = rng.randint(1, 4)
    los = [round(rng.uniform(-4, 0), 3) for _ in range(n)]
    his = [round(lo + rng.uniform(0.5, 3), 3) for lo in los]
    c = [round(rng.choice([-1, 1]) * rng.uniform(0.2, 2), 3) for _ in range(n)]
    corner = [lo if cj > 0 else hi for cj, lo, hi in zip(c, los, his)]
    rows = []
    for _ in range(rng.randint(0, 3)):  # redundant rows that keep the corner feasible
        a = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
        rhs = sum(ai * xi for ai, xi in zip(a, corner)) + rng.uniform(0.1, 1)
        rows.append((a, "<=", rhs))
    lp = lp_from_rows(c, rows, box=list(zip(los, his)))
    value = sum(ci * xi for ci, xi in zip(c, corner))
    return lp, value


def test_random_constructed_optima():
    rng = random.Random(7)
    for _ in range(60):
        lp, expected = _random_box_lp(rng)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - expected) <= 1e-8 * max(1.0, abs(expected))


def test_optimal_points_satisfy_rows_to_tolerance():
    rng = random.Random(11)
    for _ in range(40):
        lp, _ = _random_box_lp(rng)
        sol = solve(lp)
        for coeffs, rel, rhs in zip(lp.A, lp.relations, lp.rhs):  # "<=" rows, then the box's ">=" and "<=" rows
            resid = sum(a * x for a, x in zip(coeffs, sol.x)) - rhs
            scale = max(1.0, max(abs(a) for a in coeffs), abs(rhs))
            assert (resid if rel == "<=" else -resid) <= 1e-9 * scale


def _random_rational_lp(rng: random.Random):
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        rel = rng.choice(["<=", "==", ">="])
        rhs = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        rows.append((coeffs, rel, rhs))
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return lp_from_rows(c, rows, box=[(Fraction(-5), Fraction(5))] * n)  # the box keeps it bounded


def test_float_and_exact_agree_on_status():
    rng = random.Random(23)
    for _ in range(50):
        lp = _random_rational_lp(rng)
        assert solve(_as_float(lp)).status == solve_exact(lp).status


def test_determinism():
    rng = random.Random(3)
    lp, _ = _random_box_lp(rng)
    first = solve(lp)
    second = solve(lp)
    assert first.x == second.x and first.objective_value == second.objective_value


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations([0, 1, 2]), st.lists(st.floats(0.1, 10), min_size=3, max_size=3))
def test_status_invariant_under_row_permutation_and_scaling(seed, perm, scales):
    rng = random.Random(seed)
    base = _random_rational_lp(rng)
    while base.num_rows != 3 + 2 * base.num_vars:  # three rows, then the box's
        base = _random_rational_lp(rng)
    lp = _as_float(base)
    order = [*perm, *range(3, lp.num_rows)]
    s = np.concatenate((np.array(scales)[perm], np.ones(lp.num_rows - 3)))
    scrambled = LinearProgram(lp.objective, s[:, None] * lp.A[order], lp.relations[order], s * lp.rhs[order], lp.bounds)
    assert solve(lp).status == solve(scrambled).status


@pytest.mark.parametrize("A, relations, rhs, bounds, message", [
    ([[1.0]], ["<="], [0.0], None, "A (1, 1)"),  # a row of the wrong width
    (np.ones((1, 3)), ["<="], [0.0], None, "A (1, 3)"),
    ([[1.0, 2.0], [1.0]], ["<=", "<="], [0.0, 0.0], None, "A (2,)"),  # ragged
    ([[1.0, 2.0]], ["<="], [0.0, 1.0], None, "rhs (2,)"),
    ([[1.0, 2.0]], ["<="], [], None, "rhs (0,)"),
    ([[1.0, 2.0]], ["<=", "<="], [0.0], None, "relations (2,)"),
    ([[1.0, 2.0]], [], [0.0], None, "relations (0,)"),
    ([[1.0, 2.0], [0.0, 1.0]], ["<=", "<"], [0.0, 1.0], None, "unknown relation among ['<=', '<']"),
    ([[1.0, 2.0]], ["=<"], [0.0], None, "unknown relation among ['=<']"),
    ([[1.0, 2.0]], ["<="], [0.0], [(0, None)], "1 bounds for 2 variables"),
    ([[1.0, 2.0]], ["<="], [0.0], [(0, None)] * 3, "3 bounds for 2 variables"),
    ([[1.0, 2.0]], ["<="], [0.0], [(0, None), (-1, 1)], "bounds (-1, 1) are neither"),
    ([[1.0, 2.0]], ["<="], [0.0], [(0, 1), (0, None)], "bounds (0, 1) are neither"),
    ([[1.0, 2.0]], ["<="], [0.0], [(1, None), (0, None)], "bounds (1, None) are neither"),
    ([[1.0, 2.0]], ["<="], [0.0], [(None, None), (None, 0)], "bounds (None, 0) are neither"),
], ids=["row-width", "array-width", "ragged-rows", "long-rhs", "short-rhs", "long-relations", "short-relations",
        "relation-<", "relation-=<", "few-bounds", "many-bounds", "two-sided", "zero-to-one", "lower-one",
        "upper-only"])
def test_constructor_rejects_inconsistent_arrays(A, relations, rhs, bounds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LinearProgram([1.0, 2.0], A, relations, rhs, bounds)


def test_constructor_keeps_float64_and_every_other_number_as_given():
    A = np.array([[1.0, -0.0]])
    lp = LinearProgram([1, 1], A, ["=="], [2**60 + 1])
    assert lp.A is A and lp.rhs.dtype == object and lp.rhs[0] == 2**60 + 1
    lp = LinearProgram([1, 1], [[0.5, 2**60 + 1]], ["=="], [Fraction(1, 3)])
    assert lp.A.dtype == object and lp.A.tolist() == [[0.5, 2**60 + 1]] and type(lp.A[0, 1]) is int
    assert type(lp.rhs[0]) is Fraction
    assert (LinearProgram([1], [], [], []).A.shape, LinearProgram([1], [], [], []).num_rows) == ((0, 1), 0)


def test_exact_solve_of_rows_mixing_a_float_and_a_huge_int():
    # (2^53 + 1) x - 2^53 y == 1 and y == 1.0 make x = 1; over float64, 2^53 + 1 rounds to 2^53 and x to 1 + 2^-53
    lp = LinearProgram([1, 1], [[2**53 + 1, -(2.0**53)], [0, 1.0]], ["==", "=="], [1, 1.0], [(0, None)] * 2)
    sol = solve_exact(lp)
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [1, 1], 2)
    assert all(type(v) is Fraction for v in sol.x)


# --- standardisation: the array form against a coefficient-by-coefficient one --


_NUMBERS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -1.0]),
    st.integers(-6, 6),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.fractions(-10, 10, max_denominator=12),
)


@st.composite
def _bounded_lps(draw):
    """LPs over free and non-negative variables, some boxed by rows, many zero coefficients, some "==" rows."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    coefficient = st.one_of(st.just(0), st.just(-0.0), _NUMBERS)
    A = draw(st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=m, max_size=m))
    relations = draw(st.lists(st.sampled_from(["<=", "==", ">="]), min_size=m, max_size=m))
    rhs = draw(st.lists(_NUMBERS, min_size=m, max_size=m))
    bounds = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["free", "non-negative", "lower", "upper", "both"]),
                                           min_size=n, max_size=n))):
        bounds.append((0, None) if kind == "non-negative" else (None, None))
        for rel in {"lower": [">="], "upper": ["<="], "both": [">=", "<="]}.get(kind, []):  # a bound as a row
            A, relations, rhs = A + [[int(k == j) for k in range(n)]], relations + [rel], rhs + [draw(_NUMBERS)]
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    if draw(st.booleans()):  # as float64 arrays, kept as they are
        A, rhs = np.array(A, dtype=float).reshape(len(rhs), n), np.array(rhs, dtype=float)
    return LinearProgram(objective, A, relations, rhs, bounds)


@settings(max_examples=300, deadline=None)
@given(_bounded_lps())
def test_standard_form_matches_the_coefficient_loop_bit_for_bit(lp):
    for exact in (False, True):
        conv = Fraction if exact else float
        col_terms, rows, rhs, costs = reference_standard_form(lp, conv)
        (var, sign), got_rows, got_rhs, got_costs = lp_module._standard_form(lp, exact)
        terms = [[] for _ in lp.bounds]
        for col, (j, s) in enumerate(zip(var, sign)):
            terms[j].append((col, s))
        assert terms == col_terms
        assert got_rows.shape == (len(rhs), len(costs))
        if exact:  # the integer rows: row i's columns and rhs D_i times the rational ones, its slack's +-1 kept
            D = lp_module._integers(lp)[2]
            ncols = len(var)
            assert got_rows.tolist() == [[d * v for v in row[:ncols]] + row[ncols:] for d, row in zip(D, rows)]
            assert got_rhs.tolist() == [d * b for d, b in zip(D, rhs)] and got_costs.tolist() == costs
            assert {type(v) for v in got_rows.flat} <= {int}
            assert {type(v) for v in got_costs} <= {int, Fraction}
        else:  # every bit, so a zero negated to -0.0 fails
            assert got_rows.tobytes() == np.array(rows, dtype=float).reshape(got_rows.shape).tobytes()
            assert got_rhs.tobytes() == np.array(rhs, dtype=float).tobytes()
            assert got_costs.tobytes() == np.array(costs, dtype=float).tobytes()


# --- exact solves: float-to-exact crossover against the rational simplex ----


def _from_scratch(lp):
    return lp_module._solve(lp, exact=True)


def _holds_exactly(lp, x):
    for coeffs, rel, rhs in zip(lp.A, lp.relations, lp.rhs):
        gap = sum(Fraction(a) * v for a, v in zip(coeffs, x)) - Fraction(rhs)
        if not {"<=": gap <= 0, "==": gap == 0, ">=": gap >= 0}[rel]:
            return False
    return all((lo is None or v >= lo) and (hi is None or v <= hi) for v, (lo, hi) in zip(x, lp.bounds))


def _minimax_lp(samples, degree):
    """fit_minimax's LP with every sample in the working set, over Fraction."""
    basis = build_basis(samples.dimension, degree)
    A, rhs = [], []
    for p, v in zip(*samples.view(True)):
        u = lift(p, basis)
        A += [u + [-1], [-g for g in u] + [-1]]
        rhs += [v, -v]
    return LinearProgram([0] * basis.size + [1], A, ["<="] * len(A), rhs, [(None, None)] * basis.size + [(0, None)])


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_a_fit_lp_solve_its_dual(exact):
    """`duals` at a fit LP's optimum: y <= 0, A^T y = c, b . y the optimum, and y zero, bit for bit, off the tight rows."""
    rng = random.Random(11 + exact)
    for _ in range(12):
        dimension, degree = rng.choice((1, 2)), rng.choice((1, 2))
        samples = random_samples(rng, dimension, build_basis(dimension, degree).size + rng.randint(3, 8))
        lp = _minimax_lp(samples, degree) if exact else _as_float(_minimax_lp(samples, degree))
        sol = (solve_exact if exact else solve)(lp)
        y = lp_module.duals(lp, sol)
        rational = np.frompyfunc(Fraction, 1, 1)
        A, b = (rational(lp.A), rational(lp.rhs)) if exact else lp_module._rows(lp)
        tol = 0 if exact else 1e-9
        assert len(y) == lp.num_rows and max(y) <= 0 and sol.x[-1] > 0
        assert all(abs(got - c) <= tol for got, c in zip(A.T @ np.array(y, dtype=A.dtype), lp.objective))
        assert abs(b @ np.array(y, dtype=b.dtype) - sol.objective_value) <= tol
        slack = b - A @ np.array(sol.x, dtype=A.dtype)
        assert all(v == 0 for v, s in zip(y, slack) if s > 1e-9)
        assert all(type(v) is (Fraction if exact else float) for v in y if v)


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_a_basis_without_one_solution_are_none(exact):
    # x, y >= 0 with x + y == 1 and 2x + 2y == 2: each basis below but the last has no unique B^T y = c_B
    lp = LinearProgram([1, 1], [[1, 1], [2, 2]], ["==", "=="], [1, 2], [(0, None)] * 2)

    def at(basis, dropped=()):
        return LpSolution("optimal", objective_value=Fraction(1) if exact else 1.0, basis=(basis, dropped))

    assert lp_module.duals(lp, at((0,))) is None  # one column for two kept rows
    assert lp_module.duals(lp, at((0, 1, 1))) is None  # three columns
    assert lp_module.duals(lp, at((0, 0))) is None  # a repeated column
    assert lp_module.duals(lp, at((0, 1))) is None  # a singular block: both rows are x + y, doubled
    y = lp_module.duals(lp, at((0,), (1,)))  # the redundant row dropped: y = (1, 0)
    assert y == [1, 0] and type(y[0]) is (Fraction if exact else float)


def _exact_corpus():
    """Seeded exact LPs: random rational, minimax, moment and primal margin LPs, every box written as rows."""
    rng = random.Random(2017)
    lps = [_random_rational_lp(rng) for _ in range(60)]
    for _ in range(16):
        d = rng.choice([1, 2])
        samples = random_samples(rng, d, rng.randint(4, 9))
        lps.append(_minimax_lp(samples, rng.randint(1, 3 if d == 1 else 2)))
    # fitted extreme sets: feasible moment LPs with many optimal vertices
    for inst in build_fit_corpus(5, 12, dims=(1, 2), degrees=(1, 2), point_range=(8, 20)):
        basis = build_basis(inst.samples.dimension, inst.degree)
        pts = inst.samples.view(True)[0]
        plus = np.array([lift(pts[i], basis) for i in inst.extremes.plus], dtype=object)
        minus = np.array([lift(pts[i], basis) for i in inst.extremes.minus], dtype=object)
        if len(plus) and len(minus):
            lps += [_moment_lp(plus, minus), reference_margin_lp(plus, minus)]
    # random point clouds: separable ones give infeasible moment LPs
    for _ in range(16):
        d, m = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        basis = build_basis(d, m)
        cloud = np.array([lift([Fraction(rng.randint(-8, 8), 4) for _ in range(d)], basis) for _ in range(7)],
                         dtype=object)
        cut = rng.randint(1, 6)
        lps += [_moment_lp(cloud[:cut], cloud[cut:]), reference_margin_lp(cloud[:cut], cloud[cut:])]
    return lps


@pytest.fixture(scope="module")
def exact_corpus():
    return [(lp, _from_scratch(lp)) for lp in _exact_corpus()]


def _assert_same_exact_answer(lp, got, ref):
    assert got.status == ref.status
    if ref.status == "optimal":
        assert got.objective_value == ref.objective_value
        assert all(isinstance(v, Fraction) for v in got.x)
        assert _holds_exactly(lp, got.x)
        assert sum(Fraction(c) * v for c, v in zip(lp.objective, got.x)) == got.objective_value
    if ref.status == "infeasible":
        assert verify_farkas(lp, got.farkas, exact=True)


def test_crossover_matches_rational_simplex(exact_corpus):
    statuses = set()
    for lp, ref in exact_corpus:
        _assert_same_exact_answer(lp, solve_exact(lp), ref)
        statuses.add(ref.status)
    assert statuses == {"optimal", "infeasible"}


def _same_solve(got, ref):
    """Status, point, objective, Farkas witness, pivots and basis all equal, every exact number a ``Fraction``."""
    assert (got.status, got.x, got.objective_value, got.farkas) == (ref.status, ref.x, ref.objective_value, ref.farkas)
    assert (got.iterations, got.basis) == (ref.iterations, ref.basis)
    exact = [*(got.x or []), *(got.farkas or []), *([got.objective_value] if got.x else [])]
    assert all(type(v) is Fraction for v in exact)


def test_integer_tableau_solves_as_the_rational_simplex(monkeypatch):
    lps = _exact_corpus() + [_first_exact_round(monkeypatch, "-1,1:-1,1;5;chebyshev;x1^2*x2+x2^3", 2)]
    assert (lps[-1].num_rows, lps[-1].num_vars) == (36, 7)  # the exact 5x5 Baseline row's fit LP
    statuses = set()
    for lp in lps:  # Bland's rule in every phase, zero objectives too
        ref = reference_rational_simplex(lp)
        _same_solve(lp_module._solve(lp, exact=True), ref)
        statuses.add(ref.status)
    assert statuses == {"optimal", "infeasible"}


@settings(max_examples=200, deadline=None)
@given(_bounded_lps(), st.booleans())
def test_integer_tableau_solves_any_bounded_lp_as_the_rational_simplex(lp, feasibility):
    # rowless LPs, box rows alone, float and -0.0 entries: every standard-form case, with no objective too
    if feasibility:
        lp = LinearProgram([0] * lp.num_vars, lp.A, lp.relations, lp.rhs, lp.bounds)
    _same_solve(lp_module._solve(lp, exact=True), reference_rational_simplex(lp))


def test_exact_pivots_see_only_integers(monkeypatch):
    lps, real, seen = _exact_corpus()[::3], lp_module._pivot, []

    def spy(T, row, col, den=None):
        assert den is not None and all(d > 0 for d in den)
        seen.append({type(v) for v in [*T.flat, *den]})
        return real(T, row, col, den)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    for lp in lps:
        lp_module._solve(lp, exact=True)
    assert len(seen) > 100 and set().union(*seen) == {int}


def test_exact_farkas_check_divides_by_each_row_scale():
    # x >= 0 with x/2 >= 1 (D = 2), x <= 1 (D = 1) and 2x/3 <= 1/3 (D = 3): rows (1/2) u - s0 = 1, u + s1 = 1 and
    # (2/3) u + s2 = 1/3; y is a witness when y0/2 + y1 + 2 y2/3 <= 0, y0 >= 0, y1, y2 <= 0 and y0 + y1 + y2/3 > 0
    lp = LinearProgram([0], [[Fraction(1, 2)], [1], [Fraction(2, 3)]], [">=", "<=", "<="], [1, 1, Fraction(1, 3)],
                       [(0, None)])
    assert lp_module._integers(lp)[2].tolist() == [2, 1, 3]
    for witness in ([2, -1, 0], [2.0, -1.0, 0.0], [Fraction(2), Fraction(-1), Fraction(0)], [2, 0, Fraction(-3, 2)],
                    [2.0, 0.0, -1.5]):
        assert verify_farkas(lp, witness, exact=True) and verify_farkas(lp, witness)
    # witnesses on the integer rows u - s0 = 2, u + s1 = 1 and 2u + s2 = 1 only: each misses y_i / D_i
    for scaled in ([1, -1, 0], [2, 0, -1], [2.0, 0.0, -1.0]):
        assert not verify_farkas(lp, scaled, exact=True) and not verify_farkas(lp, scaled)
    assert verify_farkas(lp, solve_exact(lp).farkas, exact=True)


@pytest.mark.parametrize("error", [LpFailure("float failure"), OverflowError, ZeroDivisionError])
def test_failed_float_guess_falls_back(monkeypatch, exact_corpus, error):
    real = lp_module._solve

    def float_fails(lp, exact, **guess):
        if not exact:
            raise error
        return real(lp, exact, **guess)

    monkeypatch.setattr(lp_module, "_solve", float_fails)
    for lp, ref in exact_corpus[::6]:
        got = solve_exact(lp)
        assert (got.status, got.x, got.objective_value, got.farkas) == (
            ref.status, ref.x, ref.objective_value, ref.farkas
        )


def _wrong_basis_guess(monkeypatch, pick_basis):
    """Make the float guess claim optimality at (basis, dropped rows) = pick_basis(lp, row count)."""
    real = lp_module._solve
    fallbacks = []

    def guess(lp, exact, **capped):
        if exact:
            fallbacks.append(lp)
            return real(lp, exact, **capped)
        basis = pick_basis(lp, len(lp_module._standard_form(lp, exact=False)[1]))
        return lp_module.LpSolution("optimal", x=[0.0] * lp.num_vars, basis=basis)

    monkeypatch.setattr(lp_module, "_solve", guess)
    return fallbacks


@pytest.mark.parametrize("basis, flaw", [
    ((0, 1), "not optimal: the reduced cost of the <= slack is -1"),
    ((1, 2), "not primal feasible: the >= slack is -1"),
    ((0, 0), "singular"),
])
def test_wrong_float_basis_is_rejected(monkeypatch, basis, flaw):
    # min x s.t. x >= 1, x <= 3, x >= 0; columns: x, the >= slack, the <= slack
    lp = LinearProgram([1], [[1], [1]], [">=", "<="], [1, 3], [(0, None)])
    fallbacks = _wrong_basis_guess(monkeypatch, lambda lp, m: (basis, ()))
    sol = solve_exact(lp)
    assert fallbacks == [lp], flaw
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [1], 1)


def test_dropped_row_must_hold(monkeypatch):
    # max x s.t. x <= 5, x <= 3, x >= 0.  Dropping row 1 as redundant leaves x = 5, which meets row 0.
    lp = LinearProgram([-1], [[1], [1]], ["<=", "<="], [5, 3], [(0, None)])
    fallbacks = _wrong_basis_guess(monkeypatch, lambda lp, m: ((0,), (1,)))
    sol = solve_exact(lp)
    assert fallbacks == [lp]
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [3], -3)


def test_random_float_bases_never_change_the_answer(monkeypatch, exact_corpus):
    rng = random.Random(9)

    def random_basis(lp, m):
        ncols = len(lp_module._standard_form(lp, exact=False)[3])
        return tuple(rng.randrange(ncols) for _ in range(m)), ()

    fallbacks = _wrong_basis_guess(monkeypatch, random_basis)
    for lp, ref in exact_corpus[::2]:
        _assert_same_exact_answer(lp, solve_exact(lp), ref)
    assert fallbacks  # most random bases are rejected


def _dense_certify(lp, basis, dropped, iterations):
    """The m x m `_certify` the structural-block one replaced: both solves over the whole basis."""
    columns, rows, rhs, costs = lp_module._standard_form(lp, exact=True)
    kept = [i for i in range(len(rows)) if i not in dropped]
    x_b = exact_solve([[rows[i][j] for j in basis] for i in kept], [rhs[i] for i in kept])
    y = exact_solve([[rows[i][j] for i in kept] for j in basis], [costs[j] for j in basis])
    if x_b is None or y is None or any(v < 0 for v in x_b):
        return None
    x_std = [Fraction(0)] * len(costs)
    for j, v in zip(basis, x_b):
        x_std[j] = v
    for j, c in enumerate(costs):
        if c - sum(yi * rows[i][j] for yi, i in zip(y, kept) if rows[i][j]) < 0:
            return None
    for i in dropped:
        if sum(a * v for a, v in zip(rows[i], x_std) if v) != rhs[i]:
            return None
    try:
        return lp_module._optimal(lp, columns, x_std, True, iterations, (tuple(basis), tuple(dropped)))
    except LpFailure:
        return None


def _candidate_bases(lp, rng):
    """(basis, dropped rows) pairs, each with one column per kept row, for `lp`.

    The float solver's basis and neighbours of it with one column swapped
    (often another vertex, or a singular basis with a duplicate column),
    the float basis with a row of a basic slack dropped and that slack gone
    (the dropped row then holds only where the slack was zero), uniformly
    random columns, and random rows dropped, their basis now and then
    holding a dropped row's slack.
    """
    columns, rows, _, costs = lp_module._standard_form(lp, exact=False)
    nstruct, m, ncols = len(columns[0]), len(rows), len(costs)
    slack_of = dict(zip((i for i, row in enumerate(rows) if any(row[nstruct:])), range(nstruct, ncols)))
    out = []
    guess = lp_module._solve(lp, exact=False)
    if guess.status == "optimal":
        out.append(guess.basis)
        for _ in range(4):
            basis = list(guess.basis[0])
            if basis:
                basis[rng.randrange(len(basis))] = rng.randrange(ncols)
            out.append((tuple(basis), guess.basis[1]))
        basis, dropped = guess.basis
        kept = [i for i in range(m) if i not in dropped]
        loose = [k for k, i in enumerate(kept) if slack_of.get(i) == basis[k]]
        if loose:
            k = rng.choice(loose)
            out.append((basis[:k] + basis[k + 1:], tuple(sorted(dropped + (kept[k],)))))
    out.append((tuple(rng.randrange(ncols) for _ in range(m)), ()))
    for _ in range(2):
        dropped = tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) if m else ()
        basis = [rng.randrange(ncols) for _ in range(m - len(dropped))]
        droppable = [slack_of[i] for i in dropped if i in slack_of]
        if basis and droppable and rng.random() < 0.5:
            basis[rng.randrange(len(basis))] = rng.choice(droppable)
        out.append((tuple(basis), dropped))
    return out


def test_block_certificate_matches_the_dense_one(exact_corpus):
    rng = random.Random(41)
    certified = rejected = 0
    for lp, _ in exact_corpus:
        for basis, dropped in _candidate_bases(lp, rng):
            got = lp_module._certify(lp, basis, dropped, iterations=3)
            ref = _dense_certify(lp, basis, dropped, iterations=3)
            assert (got is None) == (ref is None), (basis, dropped)
            if ref is None:
                rejected += 1
                continue
            certified += 1
            assert (got.x, got.objective_value, got.basis) == (ref.x, ref.objective_value, ref.basis)
            assert all(type(v) is Fraction for v in got.x)
    assert certified > 100 and rejected > 100


def _huge_lp(rng: random.Random):
    """An LP boxed by ``Fraction`` bound rows, with rows of huge ints, Fractions or both."""
    n, m = rng.randint(1, 4), rng.randint(1, 5)
    box = [rng.choice([(Fraction(-7, 3), Fraction(5, 2)), (Fraction(1, 3), Fraction(19, 4)),
                       (Fraction(-9, 4), Fraction(-1, 6))]) for _ in range(n)]
    rows = []
    for _ in range(m):
        kind = rng.choice(["huge", "fraction", "mixed"])
        scale = 10**30 + rng.randint(0, 10**6) if kind != "fraction" else 1
        coeffs = [rng.randint(-6, 6) * scale if kind == "huge" or (kind == "mixed" and rng.random() < 0.5)
                  else Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        rhs = rng.randint(-8, 8) * scale if kind == "huge" else Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        rows.append((coeffs, rng.choice(["<=", "==", ">="]), rhs))
    return lp_from_rows([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)], rows, box=box)


def test_integer_certificate_with_huge_rows_matches_the_dense_one():
    rng = random.Random(43)
    certified = rejected = 0
    for _ in range(160):
        lp = _huge_lp(rng)
        for basis, dropped in _candidate_bases(lp, rng):
            got = lp_module._certify(lp, basis, dropped, iterations=5)
            ref = _dense_certify(lp, basis, dropped, iterations=5)
            assert (got is None) == (ref is None), (basis, dropped)
            if ref is None:
                rejected += 1
                continue
            certified += 1
            assert (got.x, got.objective_value, got.basis) == (ref.x, ref.objective_value, ref.basis)
            assert all(type(v) is Fraction for v in got.x)
        _assert_same_exact_answer(lp, solve_exact(lp), _from_scratch(lp))
    assert certified > 50 and rejected > 50


def test_integer_row_check_reports_the_fraction_residual(monkeypatch):
    # an exact fit's first round: rows with denominators up to 64, broken by hand at each coordinate
    lp = _first_exact_round(monkeypatch, "-1,1:-1,1;9;uniform;x1^2*x2+x2^3", 2)
    sol = solve_exact(lp)
    assert _check_rows_outcome(lp, sol.x, True) is None
    broken = 0
    for j in range(lp.num_vars):
        for eps in (Fraction(1, 10**40), Fraction(-7, 3), Fraction(2**70 + 1, 3**5)):
            x = list(sol.x)
            x[j] += eps
            ref = _loop_check_rows(lp, x, True)
            got = _check_rows_outcome(lp, x, True)
            if ref is None:
                assert got is None
                continue
            broken += 1
            k, resid = ref
            assert got == (k, float(resid), f"optimal point violates row {k} by {float(resid):.3e}")
    assert broken >= 2 * lp.num_vars


@pytest.mark.parametrize("cost, rhs, basis, dropped, x", [
    (1, 1, (0, 2), (), [1]),  # the optimal vertex: x = 1 on the ">=" row, "<=" slack 2
    (1, 1, (0, 1), (), None),  # x = 3 on the "<=" row: feasible, but the "<=" slack's reduced cost is -1
    (1, 1, (0, 0), (), None),  # a duplicate column
    (1, 1, (0, 1, 2), (), None),  # three columns for two kept rows
    (1, 0, (0, 2), (), [0]),
    # each basic value below is feasible and each reduced cost non-negative, but B is not invertible
    (1, 0, (2, 2), (), None),  # the "<=" slack twice
    (1, 0, (2,), (1,), None),  # the slack of the dropped "<=" row: a zero column
    (0, 0, (0, 1, 2), (), None),
])
def test_block_certificate_on_a_box(cost, rhs, basis, dropped, x):
    # min cost * x s.t. x >= rhs, x <= 3, x >= 0: rows u - s1 = rhs and u + s2 = 3 over columns u, s1, s2
    lp = LinearProgram([cost], [[1], [1]], [">=", "<="], [rhs, 3], [(0, None)])
    got = lp_module._certify(lp, basis, dropped, iterations=0)
    assert (got and got.x) == x
    if len(basis) + len(dropped) == 2:
        ref = _dense_certify(lp, basis, dropped, iterations=0)
        assert (ref and ref.x) == x


@pytest.mark.parametrize("grid, degree, psi, coefficients", [
    ("-1,1;201;uniform;x1^4", 3, "24998319/200000000", ["-24998319/200000000", "0", "1", "0"]),
    ("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", 2, "69/112",
     ["-99/1120", "0", "155/112", "-11/160", "0", "11/70"]),
])
def test_exact_baseline_rows_are_pinned(grid, degree, psi, coefficients):
    # the exact Baseline instances of the ROADMAP, as the rational simplex alone solved them
    code, report = run(RunConfig(command="fit", grid=grid, degree=degree, exact=True))
    assert code == 0
    assert report["psi"] == psi
    assert report["model"]["coefficients"] == coefficients


class _FirstRound(Exception):
    pass


def _first_exact_round(monkeypatch, grid: str, degree: int) -> LinearProgram:
    """The first minimax LP an exact fit on `grid` hands to `solve_exact`."""
    def stop(lp):
        raise _FirstRound(lp)

    with monkeypatch.context() as patched:
        patched.setattr(fitting, "solve_exact", stop)
        with pytest.raises(_FirstRound) as first:
            fitting.fit_minimax(parse_grid_spec(grid), degree, exact=True)
    return first.value.args[0]


def test_stalling_float_guess_is_capped(monkeypatch):
    # the first round of the exact 3-D grid fit (88 rows over 21 variables): its float guess once
    # made 19,633 phase-1 pivots before phase 1 ended "unbounded" and the rowless start took over
    lp = _first_exact_round(monkeypatch, "-1,1:-1,1:-1,1;9;uniform;x1*x2*x3+x1^3", 3)
    assert (lp.num_rows, lp.num_vars) == (88, 21)
    real, solves = lp_module._solve, []

    def recorded(lp, exact, **guess):
        try:
            sol = real(lp, exact, **guess)
        except LpFailure as err:
            solves.append((exact, err.diagnostics["iterations"], str(err)))
            raise
        solves.append((exact, sol.iterations, sol.status))
        return sol

    monkeypatch.setattr(lp_module, "_solve", recorded)
    got = solve_exact(lp)
    monkeypatch.undo()
    (exact, pivots, outcome), = solves  # the float guess alone: no rational simplex ran
    assert not exact and "exceeded" in outcome
    assert pivots <= lp_module._GUESS_PIVOTS * (88 + 129) + 1  # 20 free coefficients, z >= 0, 88 slacks
    rowless = lp_module._warm(lp, None)[0]
    ref = lp_module._certify(lp, *rowless.basis, iterations=rowless.iterations)
    assert got.status == "optimal" and (got.x, got.objective_value) == (ref.x, ref.objective_value)


def test_phase_1_failure_names_its_status(monkeypatch):
    real = lp_module._simplex

    def unbounded(T, den, basis, costs, tol, phase, it=0, cap=None):
        return ((costs, 1), "unbounded", 7) if phase == 1 else real(T, den, basis, costs, tol, phase, it, cap)

    monkeypatch.setattr(lp_module, "_simplex", unbounded)
    lp = LinearProgram([1.0], [[1.0]], [">="], [3.0])
    with pytest.raises(LpFailure, match="phase-1 simplex ended unbounded") as failure:
        lp_module._solve(lp, exact=False)
    assert failure.value.diagnostics == {"status": "unbounded", "iterations": 7}


@pytest.mark.parametrize("entry", ["solve", "_solve"])
def test_failed_float_solve_counts_every_attempt(monkeypatch, entry):
    # every float point breaks a row: the dual start gives up after 3 pivots, the cold solve raises
    # in its row check and the refactor at its basis gives up after 4 more; the failure carries them all
    checked = []

    def broken(lp, x, exact, iterations):
        checked.append(iterations)
        raise LpFailure("optimal point violates row 0 by 1.000e+00", {"row": 0, "residual": 1.0, "iterations": iterations})

    monkeypatch.setattr(lp_module, "_check_rows", broken)
    monkeypatch.setattr(lp_module, "_warm", lambda lp, start: (None, 3 if start is None else 4))
    lp = LinearProgram([0.0, 1.0], [[1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]], ["<=", "<=", ">="], [1.0, -1.0, 0.5])
    with pytest.raises(LpFailure, match=re.escape("optimal point violates row 0 by 1.000e+00")) as failure:
        solve(lp) if entry == "solve" else lp_module._solve(lp, exact=False)
    (cold,) = checked
    assert cold > 0
    total = cold + 4 + (3 if entry == "solve" else 0)
    assert failure.value.diagnostics == {"row": 0, "residual": 1.0, "iterations": total}


# --- warm starts: a prefix's optimal basis against the cold two-phase solve --


def _prefix(lp, count):
    return LinearProgram(lp.objective, lp.A[:count], lp.relations[:count], lp.rhs[:count], lp.bounds)


def _appended(lp, rows):
    extra = lp_from_rows(lp.objective, rows)
    return LinearProgram(lp.objective, np.concatenate((lp.A, extra.A)), np.concatenate((lp.relations, extra.relations)),
                         np.concatenate((lp.rhs, extra.rhs)), lp.bounds)


def _as_float(lp):
    return LinearProgram([float(c) for c in lp.objective], np.asarray(lp.A, dtype=float), lp.relations,
                         np.asarray(lp.rhs, dtype=float), lp.bounds)


def _warm_pairs():
    """Seeded (prefix, full) LP pairs over Fraction; `full` appends "<=" and ">=" rows to `prefix`.

    Minimax LPs cut after any sample, as the working-set loop grows them;
    moment LPs (all "==") with weight caps appended; primal margin LPs cut
    after any row, so that some appended rows are box rows; and random
    rational LPs with random inequalities appended.
    """
    rng = random.Random(1959)
    pairs = []
    for _ in range(16):
        d = rng.choice([1, 2])
        full = _minimax_lp(random_samples(rng, d, rng.randint(5, 12)), rng.randint(1, 3 if d == 1 else 2))
        pairs.append((_prefix(full, 2 * rng.randint(0, full.num_rows // 2 - 1)), full))
    for inst in build_fit_corpus(5, 12, dims=(1, 2), degrees=(1, 2), point_range=(8, 20)):
        basis = build_basis(inst.samples.dimension, inst.degree)
        pts = inst.samples.view(True)[0]
        plus = np.array([lift(pts[i], basis) for i in inst.extremes.plus], dtype=object)
        minus = np.array([lift(pts[i], basis) for i in inst.extremes.minus], dtype=object)
        moment = _moment_lp(plus, minus)
        n = moment.num_vars
        caps = [([int(j == i) for j in range(n)], "<=", Fraction(rng.randint(1, 4), 4))
                for i in rng.sample(range(n), min(n, 3))]
        margin = reference_margin_lp(plus, minus)
        pairs += [(moment, _appended(moment, caps)), (_prefix(margin, rng.randint(0, margin.num_rows - 1)), margin)]
    for _ in range(40):
        lp = _random_rational_lp(rng)
        extra = [([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(lp.num_vars)],
                  rng.choice(["<=", ">="]), Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        pairs.append((lp, _appended(lp, extra)))
    return pairs


@pytest.fixture
def cold_solves(monkeypatch):
    """The arithmetic of every `lp._solve` call from here on."""
    real, calls = lp_module._solve, []

    def counted(lp, exact, **guess):
        calls.append(exact)
        return real(lp, exact, **guess)

    monkeypatch.setattr(lp_module, "_solve", counted)
    return calls


def test_warm_start_matches_cold_solve(cold_solves):
    outcomes = set()
    warm_pivots = cold_pivots = 0
    for prefix, full in _warm_pairs():
        prefix, full = _as_float(prefix), _as_float(full)
        start = solve(prefix)
        if start.status != "optimal":
            continue
        cold = solve(full)
        cold_solves.clear()
        warm = solve(full, start=start)
        assert warm.status == cold.status
        outcomes.add(cold.status)
        if cold.status == "infeasible":  # no entering column in the dual simplex: the cold solve decides
            assert cold_solves == [False]
            assert verify_farkas(full, warm.farkas)
            continue
        assert cold_solves == []  # the warm start finished on its own
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9 * max(1.0, abs(cold.objective_value))
        for coeffs, rel, rhs in zip(full.A, full.relations, full.rhs):
            gap = sum(a * x for a, x in zip(coeffs, warm.x)) - rhs
            slack = 1e-9 * max(1.0, max(map(abs, coeffs), default=0.0), abs(rhs))
            assert {"<=": gap <= slack, "==": abs(gap) <= slack, ">=": gap >= -slack}[rel]
        assert all((lo is None or v >= lo - 1e-9) and (hi is None or v <= hi + 1e-9)
                   for v, (lo, hi) in zip(warm.x, full.bounds))
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert outcomes == {"optimal", "infeasible"}
    assert warm_pivots < cold_pivots / 2


def _fell_back(full, start, cold_solves):
    """solve(full, start) made one cold solve and returned exactly its answer."""
    cold_solves.clear()
    got = solve(full, start=start)
    ref = lp_module._solve(full, exact=False)
    assert cold_solves == [False, False]  # the fallback, then `ref`
    assert (got.status, got.x, got.objective_value, got.farkas) == (ref.status, ref.x, ref.objective_value, ref.farkas)
    return got, ref


_BOX = LinearProgram([1], [[1], [1]], [">=", "<="], [1, 3], [(0, None)])  # min x over 1 <= x <= 3


def test_appended_equality_row_falls_back(cold_solves):
    _fell_back(_appended(_BOX, [([1], "==", 2)]), solve(_BOX), cold_solves)


def test_singular_start_basis_falls_back(cold_solves):
    start = solve(_BOX)
    start.basis = ((0,) * len(start.basis[0]), start.basis[1])
    _fell_back(_appended(_BOX, [([1], "<=", 2)]), start, cold_solves)


def test_dual_infeasible_start_falls_back(cold_solves):
    # the optimal basis of max x is primal feasible for min x, with reduced cost -1 on the "<=" slack
    start = solve(LinearProgram([-1], _BOX.A, _BOX.relations, _BOX.rhs, _BOX.bounds))
    assert start.x == [pytest.approx(3.0)]
    _fell_back(_appended(_BOX, [([1], "<=", 5)]), start, cold_solves)


def test_warm_lp_failure_falls_back_and_counts_its_pivots(monkeypatch, cold_solves):
    samples = random_samples(random.Random(4), 1, 12)
    full = _as_float(_minimax_lp(samples, 2))
    start = solve(_prefix(full, 12))
    warm, spent = lp_module._warm(full, start)
    assert warm is not None and spent > 0
    real, checks = lp_module._check_rows, []

    def first_check_fails(lp, x, exact, iterations):
        checks.append(iterations)
        if len(checks) == 1:
            raise LpFailure("optimal point violates row 0")
        return real(lp, x, exact, iterations=iterations)

    monkeypatch.setattr(lp_module, "_check_rows", first_check_fails)
    got, ref = _fell_back(full, start, cold_solves)
    assert checks[0] == spent
    assert got.iterations == ref.iterations + spent


def _loop_check_rows(lp, x, exact):
    """The per-row check `_check_rows` replaced: (row, residual) of the first broken row, or None.

    Its ``sum`` was this left-to-right loop on Python 3.11 (3.12 compensates float sums).
    """
    conv = Fraction if exact else float
    for k, (coeffs, rel, rhs) in enumerate(zip(lp.A, lp.relations, lp.rhs)):
        lhs = 0
        for a, xj in zip(coeffs, x):
            lhs = lhs + conv(a) * xj
        resid = lhs - conv(rhs)
        scale = max(1.0, max((abs(float(a)) for a in coeffs), default=0.0), abs(float(rhs)))
        slack = 0 if exact else 1e-7 * scale
        if ((rel == "==" and abs(resid) > slack) or (rel == "<=" and resid > slack)
                or (rel == ">=" and resid < -slack)):
            return k, resid
    return None


def _check_rows_outcome(lp, x, exact):
    conv = Fraction if exact else float
    try:
        lp_module._check_rows(lp, x, exact, iterations=7)
    except LpFailure as err:
        assert err.diagnostics["iterations"] == 7
        return err.diagnostics["row"], err.diagnostics["residual"], str(err)
    return None


@pytest.mark.parametrize("exact", [False, True])
def test_check_rows_matches_the_row_loop(exact):
    rng = random.Random(31)
    conv = Fraction if exact else float

    def number():
        v = rng.choice([rng.uniform(-1, 1), rng.uniform(-1e3, 1e3), rng.randint(-5, 5), 0.0, 1e-9])
        return Fraction(v).limit_denominator(10**6) if exact and rng.random() < 0.5 else v

    for trial in range(300):
        n, m = rng.randint(1, 9), rng.randint(1, 12)
        x = [conv(number()) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [number() for _ in range(n)]
            lhs = sum(conv(a) * xj for a, xj in zip(coeffs, x))
            # rhs near lhs: most rows hold, some miss by about the float slack
            rhs = float(lhs) + rng.choice([0.0, 0.0, 1e-6, -1e-6, 1e-8, -1e-3]) * max(1.0, abs(float(lhs)))
            rows.append((coeffs, rng.choice(["<=", "==", ">="]), rhs))
        lp = lp_from_rows([0] * n, rows)
        ref = _loop_check_rows(lp, x, exact)
        got = _check_rows_outcome(lp, x, exact)
        if ref is None:
            assert got is None, trial
        else:
            k, resid = ref
            assert got == (k, float(resid), f"optimal point violates row {k} by {float(resid):.3e}"), trial
        # one "== 0" row per coefficient row exposes its whole float sum, bit for bit
        for coeffs, _, _ in rows:
            single = lp_from_rows([0] * n, [(coeffs, "==", 0)])
            ref, got = _loop_check_rows(single, x, exact), _check_rows_outcome(single, x, exact)
            assert (ref is None) == (got is None)
            if ref is not None:
                assert float(ref[1]).hex() == got[1].hex()
    assert _check_rows_outcome(LinearProgram([1], [], [], []), [conv(2)], exact) is None


# --- dual starts: the all-slack basis and the dual pricing rule --------------


def _dual_feasible_by_hand(lp):
    """No "==" row and no standardised column of negative cost, read off the objective and bounds."""
    if any(rel == "==" for rel in lp.relations):
        return False
    return all(c >= 0 if lo is not None else not c for c, (lo, _) in zip(lp.objective, lp.bounds))


def _rowless_lps(rng: random.Random):
    """Random rational LPs over x >= 0 with costs >= 0 and no "==" row, whose slack basis is dual feasible."""
    lps = []
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        rows = [([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)], rng.choice(["<=", ">="]),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 3))) for _ in range(m)]
        lps.append(lp_from_rows([rng.randint(0, 3) for _ in range(n)], rows, [(0, None)] * n))
    return lps


def test_rowless_start_exactly_when_the_slack_basis_is_dual_feasible(monkeypatch, cold_solves):
    real_form, forms = lp_module._standard_form, []
    monkeypatch.setattr(lp_module, "_standard_form", lambda lp, exact: forms.append(exact) or real_form(lp, exact))
    kinds = {True: 0, False: 0}
    for lp in map(_as_float, _exact_corpus() + _rowless_lps(random.Random(29))):
        rowless = _dual_feasible_by_hand(lp)
        assert lp_module._slack_basis_dual_feasible(lp) == rowless
        ref = lp_module._solve(lp, exact=False)
        cold_solves.clear()
        forms.clear()
        got = solve(lp)
        assert got.status == ref.status
        if not rowless:  # straight to the two-phase solve: no tableau work before it, no pivots spent
            assert (cold_solves, forms) == ([False], [False])
            assert (got.x, got.iterations) == (ref.x, ref.iterations)
        elif ref.status == "optimal":  # the dual simplex from the all-slack basis finishes on its own
            assert cold_solves == []
            assert abs(got.objective_value - ref.objective_value) <= 1e-9 * max(1.0, abs(ref.objective_value))
        else:
            assert cold_solves == [False] and verify_farkas(lp, got.farkas)
        kinds[rowless] += 1
    assert min(kinds.values()) >= 20, kinds
    # the minimax LPs of a fit start rowless; moment and margin LPs ("==" rows) and primal margin LPs
    # (free t at cost -1) never do
    samples = random_samples(random.Random(3), 1, 9)
    assert _dual_feasible_by_hand(_minimax_lp(samples, 2))
    lifted = samples.lifted(range(9), 1, True)
    for lp in (_moment_lp, _margin_lp, reference_margin_lp):
        assert not lp_module._slack_basis_dual_feasible(lp(lifted[:4], lifted[4:]))


def test_dual_rule_turns_to_blands_rule_after_m_steps(monkeypatch):
    T = np.array([[0.5, -1.0], [0.5, -3.0], [0.5, -3.0], [0.5, 2.0]])  # last column: the basic values
    basis, infeasible = [1, 7, 5, 0], np.array([0, 1, 2])
    # largest infeasibility for steps 0..3 (m = 4), ties to the smallest basic column; then the smallest basic column
    assert [lp_module._leaving_row(T, basis, infeasible, step) for step in (0, 3, 4, 9)] == [2, 2, 0, 0]

    real, steps = lp_module._leaving_row, []

    def recorded(T, basis, infeasible, step):
        row = real(T, basis, infeasible, step)
        values = T[infeasible, -1]
        if step < len(basis):
            assert T[row, -1] == values.min()
        else:
            assert basis[row] == min(basis[i] for i in infeasible)
        steps.append((step, len(basis)))
        return row

    monkeypatch.setattr(lp_module, "_leaving_row", recorded)
    for prefix, full in _warm_pairs():
        prefix, full = _as_float(prefix), _as_float(full)
        start = solve(prefix)
        if start.status == "optimal":
            solve(full, start=start)
    assert steps and all(step < m for step, m in steps)  # these finish within m dual steps
    # a rowless start that needs 6 dual steps on its 4 rows (found by a seeded search)
    rows = [([0, 2, 5, -3], ">=", -1), ([-4, -1, 5, 4], "<=", 3), ([-3, 5, 3, -1], "<=", -4), ([-5, 3, 4, 5], ">=", 6)]
    lp = lp_from_rows([3, 2, 1, 0], rows, [(0, None)] * 4)
    steps.clear()
    got = solve(lp)
    assert steps == [(k, 4) for k in range(6)]
    assert got.objective_value == pytest.approx(solve_exact(lp).objective_value, rel=1e-9)


# --- the simplex's scans over lists --


def _near_tie_tableau(rng: random.Random, exact: bool):
    """A random tableau whose ratio tests tie or nearly tie in one column, a basis, and reduced costs near -tol."""
    conv, tol = (Fraction, 0) if exact else (float, lp_module._TOL)
    tiny = [Fraction(1, 10**12)] if exact else [tol, 1.5 * tol, -tol]  # entries at and around the tolerance
    nudges = [0, 0, Fraction(1, 10**9), Fraction(-1, 10**12)] if exact else [0, 0, 4e-10, -4e-10, 1e-9, -3e-9]
    m, n = rng.randint(1, 8), rng.randint(1, 6)
    T = np.empty((m, n + 1), dtype=object if exact else float)
    for i in range(m):
        for j in range(n):
            T[i, j] = conv(rng.choice([0, -1, *tiny]) if rng.random() < 0.3 else Fraction(rng.randint(1, 400), 80))
    tie, base = rng.randrange(n), conv(rng.choice([0, Fraction(1, 2), 2, 1000]))  # most rows' ratio in column `tie`
    for i in range(m):
        nudge = conv(rng.choice(nudges))
        T[i, -1] = T[i, tie] * base * (1 + nudge) + nudge
    basis = rng.sample(range(3 * m + n), m)
    obj = np.array([conv(rng.choice([-1, -tol, -(1 + 1e-7) * tol, -2 * tol, 0, -0.25, 0.5])) for _ in range(n)],
                   dtype=T.dtype)
    return T, basis, obj, tol


@pytest.mark.parametrize("exact", [False, True])
def test_list_scans_pick_what_the_element_loops_pick(exact):
    rng = random.Random(24 + exact)
    tie_broken = 0  # leaving rows that are not the first row of least ratio
    for _ in range(400):
        T, basis, obj, tol = _near_tie_tableau(rng, exact)
        for col in range(T.shape[1] - 1):
            got = lp_module._leaving(T[:, col].tolist(), T[:, -1].tolist(), basis, tol)
            assert got == reference_leaving(T, col, basis, tol)
            rows = [i for i in range(len(T)) if T[i, col] > tol]
            if got is not None:
                least = min(rows, key=lambda i: T[i, -1] / T[i, col])
                tie_broken += got != least
        assert lp_module._entering(obj.tolist(), tol) == reference_entering(obj, tol)
    assert tie_broken >= 20


def _beale_in_phase_1(scale: int = 30) -> LinearProgram:
    """Beale's cycling example (1955), posed so that its degenerate pivots fall in phase 1.

    Beale's LP, minimise -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 over two rows
    with rhs 0 and x6 <= 1, is written with its slacks x1..x3 as variables
    and "==" rows, so phase 1 starts from an artificial basis that plays the
    slacks' part.  A fourth row, -scale c - (sum of the others), with rhs
    scale/20 - 1 makes phase 1's objective (the sum of the artificials)
    scale c.x plus a constant, zero exactly on Beale's optimal face, where
    c.x = -1/20.  Its artificial stays basic at 1/2 while x stays at the
    degenerate origin.
    """
    c = [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    rows = [[1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0, 0, 1, 0]]
    last = [-scale * cj - sum(r[j] for r in rows) for j, cj in enumerate(c)]
    return LinearProgram(c, rows + [last], ["=="] * 4, [0, 0, 1, Fraction(scale, 20) - 1], [(0, None)] * 7)


@pytest.mark.parametrize("exact", [False, True])
def test_solve_ends_on_beales_cycling_example(exact):
    # with no objective the same phase 1 runs, and every feasible point lies on Beale's optimal face
    lp = _beale_in_phase_1()
    feasibility = LinearProgram([0] * lp.num_vars, lp.A, lp.relations, lp.rhs, lp.bounds)
    entry = solve_exact if exact else solve
    value = Fraction(-1, 20) if exact else pytest.approx(-0.05, rel=1e-12)
    for got in (lp_module._solve(lp, exact=exact), lp_module._solve(feasibility, exact=exact),
                entry(lp), entry(feasibility)):
        assert got.status == "optimal" and dot(lp.objective, got.x) == value


# --- refactoring: a cold float point that breaks a row restarts from its final basis --


def _fitted_moment_and_margin_lps(exact):
    """The moment and the margin LP (`optimality._margin_lp`) of the first fitted 2-D extreme sets of both signs."""
    for inst in build_fit_corpus(5, 12, dims=(2,), degrees=(2,), point_range=(8, 20)):
        plus = inst.samples.lifted(inst.extremes.plus, 2, exact)
        minus = inst.samples.lifted(inst.extremes.minus, 2, exact)
        if len(plus) and len(minus):
            return {"moment": _moment_lp(plus, minus), "margin": _margin_lp(plus, minus)}


def _checks_failing_once(monkeypatch, exact):
    """Make the first `_check_rows` call in the given arithmetic fail; returns each call's (exact, iterations)."""
    real, calls = lp_module._check_rows, []

    def fails_once(lp, x, arith, iterations):
        first = arith == exact and all(a != exact for a, _ in calls)
        calls.append((arith, iterations))
        if first:
            raise LpFailure("optimal point violates row 0")  # no diagnostics: `_finish` adds the pivots
        return real(lp, x, arith, iterations=iterations)

    monkeypatch.setattr(lp_module, "_check_rows", fails_once)
    return calls


@pytest.mark.parametrize("kind", ["moment", "margin"])
def test_broken_row_refactors_at_the_final_basis(monkeypatch, cold_solves, kind):
    lp = _fitted_moment_and_margin_lps(exact=False)[kind]
    assert not lp_module._slack_basis_dual_feasible(lp)  # so `solve` goes straight to the two-phase simplex
    ref = solve(lp)
    assert ref.status == "optimal" and ref.iterations > 0
    calls = _checks_failing_once(monkeypatch, exact=False)
    cold_solves.clear()
    got = solve(lp)
    assert cold_solves == [False]  # no second cold solve: `_warm` finished from the cold basis
    assert [arith for arith, _ in calls] == [False, False]
    assert calls[0][1] == ref.iterations
    assert got.iterations == calls[0][1] + calls[1][1]  # the cold pivots, then the refactor's
    assert got.status == ref.status
    assert max(abs(a - b) for a, b in zip(got.x, ref.x)) <= 1e-9


@pytest.mark.parametrize("kind", ["moment", "margin"])
def test_broken_exact_row_reaches_the_rational_simplex(monkeypatch, cold_solves, kind):
    lp = _fitted_moment_and_margin_lps(exact=True)[kind]
    ref = _from_scratch(lp)
    _checks_failing_once(monkeypatch, exact=True)
    with pytest.raises(LpFailure):  # exact arithmetic has no refactor: the failure stands
        lp_module._solve(lp, exact=True)
    calls = _checks_failing_once(monkeypatch, exact=True)
    cold_solves.clear()
    got = solve_exact(lp)  # the certificate's check fails, so the rational simplex answers
    assert cold_solves == [False, True]
    assert [arith for arith, _ in calls] == [False, True, True]
    assert (got.status, got.x, got.objective_value) == (ref.status, ref.x, ref.objective_value)


def test_refactor_drops_the_rows_the_cold_solve_dropped(monkeypatch, cold_solves):
    # row 1 repeats row 0, so phase 1 drops it; the refactor solves B^-1 [A | b] on the kept rows alone
    lp = LinearProgram([1, 2, 0.5], [[1, 1, 1], [1, 1, 1], [1, -1, 0]], ["=="] * 3, [1, 1, 0.2], [(0, None)] * 3)
    cold = lp_module._solve(lp, exact=False)
    assert cold.status == "optimal" and cold.basis[1] == (1,)
    warm, pivots = lp_module._warm(lp, LpSolution("optimal", basis=cold.basis))
    calls = _checks_failing_once(monkeypatch, exact=False)
    cold_solves.clear()
    got = lp_module._solve(lp, exact=False)  # its first row check fails, so `_warm` refactors at its basis
    assert cold_solves == [False] and [arith for arith, _ in calls] == [False, False]
    assert pivots == 0 and got.iterations == cold.iterations
    for sol in warm, got:  # the same vertex, solved afresh: equal up to rounding
        assert (sol.status, sol.basis) == (cold.status, cold.basis)
        assert max(abs(a - b) for a, b in zip(sol.x, cold.x)) <= 1e-15


# --- a differential test against HiGHS --------------------------------------


def _highs(lp):
    """The status and objective of a float LP by scipy's HiGHS."""
    from scipy.optimize import linprog

    sign = np.where(lp.relations == ">=", -1.0, 1.0)[:, None]
    A, rhs = sign * lp.A, sign[:, 0] * lp.rhs  # each ">=" row as a "<=" row
    ub, eq = lp.relations != "==", lp.relations == "=="
    res = linprog(lp.objective, A_ub=A[ub] if ub.any() else None, b_ub=rhs[ub] if ub.any() else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                  bounds=list(lp.bounds), method="highs")
    assert res.status in (0, 2, 3), res.message
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status], res.fun


def test_float_solve_agrees_with_highs():
    # the minimax, moment, margin and primal margin LPs of fitted instances; a moment LP that drops
    # one sign's first extreme point is often infeasible
    pytest.importorskip("scipy")
    seen = {}
    corpus = build_fit_corpus(5, 12, dims=(1, 2), degrees=(1, 2), point_range=(8, 20))
    corpus += build_fit_corpus(17, 12, dims=(1, 2, 3), degrees=(1, 2, 3), point_range=(10, 30))
    for inst in corpus:
        lps = [("minimax", _minimax_lp(inst.samples, inst.degree))]
        plus = inst.samples.lifted(inst.extremes.plus, inst.degree, True)
        minus = inst.samples.lifted(inst.extremes.minus, inst.degree, True)
        if len(plus) and len(minus):
            lps += [("moment", _moment_lp(plus, minus)), ("margin", _margin_lp(plus, minus)),
                    ("primal margin", reference_margin_lp(plus, minus))]
            lps += [("moment", _moment_lp(plus[1:], minus))] if len(plus) > 1 else []
            lps += [("moment", _moment_lp(plus, minus[1:]))] if len(minus) > 1 else []
        for kind, lp in lps:
            lp = _as_float(lp)
            got = solve(lp)
            status, value = _highs(lp)
            assert got.status == status, (kind, status)
            if status == "optimal":
                assert got.objective_value == pytest.approx(value, rel=1e-7, abs=1e-12), kind
            seen.setdefault(kind, set()).add(status)
    assert seen == {"minimax": {"optimal"}, "moment": {"optimal", "infeasible"}, "margin": {"optimal"},
                    "primal margin": {"optimal"}}


def test_objective_value_adds_left_to_right_under_any_sum(monkeypatch):
    # c.x is `dot`'s left-to-right sum from zero; a compensated float `sum` (Python 3.12 on) would give 1.0
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    lp = LinearProgram([1e16, 1.0, -1e16], np.eye(3), ["=="] * 3, [1.0] * 3)
    sol = solve(lp)
    assert sol.x == [1.0, 1.0, 1.0] and sol.objective_value == dot(lp.objective, sol.x) == 0.0


def _equality_lps(rng, moments: bool):
    """30 equality LPs over x >= 0 with 11 rows: degree-3 moment LPs of random 2-D classes, or random ones."""
    lps = []
    for _ in range(30):
        if moments:
            samples = random_samples(rng, 2, 30)
            idx = rng.sample(range(30), rng.randint(2, 30))
            p = rng.randint(1, len(idx) - 1)
            lps.append(_moment_lp(samples.lifted(idx[:p], 3, False), samples.lifted(idx[p:], 3, False)))
            continue
        n = rng.randint(3, 20)
        A = np.array([[rng.choice((0.0, rng.uniform(-2, 2))) for _ in range(n)] for _ in range(11)])
        x = np.array([rng.choice((0.0, rng.uniform(0, 1))) for _ in range(n)])
        b = A @ x if rng.random() < 0.7 else np.array([rng.uniform(-1, 1) for _ in range(11)])
        lps.append(LinearProgram([0.0] * n, A, ["=="] * 11, b.tolist(), [(0, None)] * n))
    return lps


@pytest.mark.parametrize("moments", [True, False])
def test_float_points_of_equality_lps_hold_every_row_within_the_row_check(moments):
    """Each float point `solve` finds on an equality LP passes the row check, and each LP it finds infeasible is.

    Every optimal float point misses each row by at most `_row_slack` of
    that row and its rhs, and its weights are non-negative up to rounding.
    An LP whose rhs is A x in float may have no exact solution (A has more
    rows than rank), so only the float verdict "infeasible" must be exact.
    """
    statuses = []
    for lp in _equality_lps(random.Random(70), moments):
        sol = solve(lp)
        statuses.append(sol.status)
        if sol.status == "infeasible":
            assert solve_exact(lp).status == "infeasible"
        else:
            A, b, x = np.asarray(lp.A, dtype=float), np.asarray(lp.rhs, dtype=float), np.array(sol.x)
            assert (np.abs(A @ x - b) <= lp_module._row_slack(A, b)).all()
            assert x.min() >= -1e-9
    assert {"optimal", "infeasible"} <= set(statuses)
