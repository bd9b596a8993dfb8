"""Two-phase simplex: statuses, witnesses, determinism, invariances, and the exact crossover."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import minimaxfit.lp as lp_module
from minimaxfit import LinearProgram, LpFailure, build_basis, lift, solve, solve_exact, verify_farkas
from minimaxfit.cli import RunConfig, run
from minimaxfit.optimality import _moment_lp

from support import build_fit_corpus, random_samples


def test_minimize_above_lower_bound():
    sol = solve(LinearProgram([1.0], [([1.0], ">=", 3.0)]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_conflicting_rows_are_infeasible_with_farkas():
    lp = LinearProgram([0.0], [([1.0], "<=", 1.0), ([1.0], ">=", 2.0)])
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.farkas is not None
    assert verify_farkas(lp, sol.farkas)


def test_free_unconstrained_minimization_is_unbounded():
    assert solve(LinearProgram([-1.0], [])).status == "unbounded"


def test_exact_empty_problem():
    sol = solve_exact(LinearProgram([0], []))
    assert sol.status == "optimal"
    assert sol.objective_value == 0


def test_exact_contradictory_equalities():
    lp = LinearProgram([0], [([1], "==", 1), ([1], "==", 2)])
    sol = solve_exact(lp)
    assert sol.status == "infeasible"
    assert verify_farkas(lp, sol.farkas, exact=True)


def test_exact_bivariate_moment_system_has_half_weights():
    # corners (1,1),(-1,-1) against (1,-1),(-1,1): matching the constant, x and
    # y moments forces all four convex weights to 1/2
    rows = [
        ([1, 1, 0, 0], "==", 1),
        ([0, 0, 1, 1], "==", 1),
        ([1, -1, -1, 1], "==", 0),
        ([1, -1, 1, -1], "==", 0),
    ]
    lp = LinearProgram([0, 0, 0, 0], rows, ((0, None),) * 4)
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == [Fraction(1, 2)] * 4


def _random_box_lp(rng: random.Random):
    """Box-constrained LP whose optimum is a known corner."""
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
    lp = LinearProgram(c, rows, list(zip(los, his)))
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
        for coeffs, rel, rhs in lp.rows:
            resid = sum(a * x for a, x in zip(coeffs, sol.x)) - rhs
            scale = max(1.0, max(abs(a) for a in coeffs), abs(rhs))
            assert resid <= 1e-9 * scale


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
    bounds = [(Fraction(-5), Fraction(5)) for _ in range(n)]  # keep it bounded
    return LinearProgram(c, rows, bounds)


def test_float_and_exact_agree_on_status():
    rng = random.Random(23)
    for _ in range(50):
        lp = _random_rational_lp(rng)
        float_lp = LinearProgram(
            [float(c) for c in lp.objective],
            [([float(a) for a in coeffs], rel, float(rhs)) for coeffs, rel, rhs in lp.rows],
            [(float(lo), float(hi)) for lo, hi in lp.bounds],
        )
        exact_status = solve_exact(lp).status
        assert solve(float_lp).status == exact_status


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
    while len(base.rows) != 3:
        base = _random_rational_lp(rng)
    float_rows = [([float(a) for a in coeffs], rel, float(rhs)) for coeffs, rel, rhs in base.rows]
    lp = LinearProgram(
        [float(c) for c in base.objective],
        float_rows,
        [(float(lo), float(hi)) for lo, hi in base.bounds],
    )
    scrambled_rows = []
    for i in perm:
        coeffs, rel, rhs = float_rows[i]
        s = scales[i]
        scrambled_rows.append(([s * a for a in coeffs], rel, s * rhs))
    scrambled = LinearProgram(lp.objective, scrambled_rows, lp.bounds)
    assert solve(lp).status == solve(scrambled).status


def test_row_width_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [([1.0], "<=", 0.0)])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [([1.0], "<", 0.0)])


# --- exact solves: float-to-exact crossover against the rational simplex ----


def _from_scratch(lp):
    return lp_module._solve(lp, exact=True)


def _holds_exactly(lp, x):
    for coeffs, rel, rhs in lp.rows:
        gap = sum(Fraction(a) * v for a, v in zip(coeffs, x)) - Fraction(rhs)
        if not {"<=": gap <= 0, "==": gap == 0, ">=": gap >= 0}[rel]:
            return False
    return all((lo is None or v >= lo) and (hi is None or v <= hi) for v, (lo, hi) in zip(x, lp.bounds))


def _minimax_lp(samples, degree):
    """fit_minimax's LP with every sample in the working set, over Fraction."""
    basis = build_basis(samples.dimension, degree)
    rows = []
    for p, v in zip(*samples.view(True)):
        u = lift(p, basis)
        rows.append((u + [-1], "<=", v))
        rows.append(([-g for g in u] + [-1], "<=", -v))
    return LinearProgram([0] * basis.size + [1], rows, [(None, None)] * basis.size + [(0, None)])


def _margin_lp(plus_lifted, minus_lifted):
    """The margin LP of check_isolability: max t, |A|_inf <= 1."""
    width = len(plus_lifted[0])
    rows = [(list(u) + [-1], ">=", 0) for u in plus_lifted]
    rows += [(list(v) + [1], "<=", 0) for v in minus_lifted]
    return LinearProgram([0] * width + [-1], rows, [(-1, 1)] * width + [(None, None)])


def _exact_corpus():
    """Seeded exact LPs: random rational, minimax, moment and margin LPs."""
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
        plus = [lift(pts[i], basis) for i in inst.extremes.plus]
        minus = [lift(pts[i], basis) for i in inst.extremes.minus]
        if plus and minus:
            lps += [_moment_lp(plus, minus), _margin_lp(plus, minus)]
    # random point clouds: separable ones give infeasible moment LPs
    for _ in range(16):
        d, m = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        basis = build_basis(d, m)
        cloud = [lift([Fraction(rng.randint(-8, 8), 4) for _ in range(d)], basis) for _ in range(7)]
        cut = rng.randint(1, 6)
        lps += [_moment_lp(cloud[:cut], cloud[cut:]), _margin_lp(cloud[:cut], cloud[cut:])]
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


@pytest.mark.parametrize("error", [LpFailure("float failure"), OverflowError, ZeroDivisionError])
def test_failed_float_guess_falls_back(monkeypatch, exact_corpus, error):
    real = lp_module._solve

    def float_fails(lp, exact):
        if not exact:
            raise error
        return real(lp, exact)

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

    def guess(lp, exact):
        if exact:
            fallbacks.append(lp)
            return real(lp, exact)
        basis = pick_basis(lp, len(lp_module._standard_form(lp, float)[2]))
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
    lp = LinearProgram([1], [([1], ">=", 1), ([1], "<=", 3)], [(0, None)])
    fallbacks = _wrong_basis_guess(monkeypatch, lambda lp, m: (basis, ()))
    sol = solve_exact(lp)
    assert fallbacks == [lp], flaw
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [1], 1)


def test_dropped_row_must_hold(monkeypatch):
    # max x s.t. x <= 5, 0 <= x <= 3; the bound x <= 3 is standardised row 1.
    # Dropping it as redundant leaves x = 5, which meets the original row.
    lp = LinearProgram([-1], [([1], "<=", 5)], [(0, 3)])
    fallbacks = _wrong_basis_guess(monkeypatch, lambda lp, m: ((0,), (1,)))
    sol = solve_exact(lp)
    assert fallbacks == [lp]
    assert (sol.status, sol.x, sol.objective_value) == ("optimal", [3], -3)


def test_random_float_bases_never_change_the_answer(monkeypatch, exact_corpus):
    rng = random.Random(9)

    def random_basis(lp, m):
        ncols = len(lp_module._standard_form(lp, float)[4])
        return tuple(rng.randrange(ncols) for _ in range(m)), ()

    fallbacks = _wrong_basis_guess(monkeypatch, random_basis)
    for lp, ref in exact_corpus[::2]:
        _assert_same_exact_answer(lp, solve_exact(lp), ref)
    assert fallbacks  # most random bases are rejected


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
