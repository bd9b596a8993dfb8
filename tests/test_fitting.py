"""Minimax fitting, the uniform error functional, and extreme sets."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit import (
    IntersectionCertificate,
    PolynomialModel,
    SampleSet,
    build_basis,
    check_hull_intersection,
    check_isolability,
    compute_psi,
    count_alternations,
    extreme_sets,
    fit_minimax,
    lift,
    partition_extremes,
    verify_by_hyperplanes,
)
from minimaxfit import fitting
from minimaxfit.monomials import dot
import minimaxfit.lp as lp_module

from support import build_fit_corpus, random_samples


@pytest.fixture(scope="module")
def parabola_samples():
    return SampleSet([(-1,), (0,), (1,)], [1, 0, 1])


@pytest.fixture(scope="module")
def cubic_grid():
    xs = [Fraction(-1) + Fraction(2 * k, 1000) for k in range(1001)]
    return SampleSet([(x,) for x in xs], [x**3 for x in xs])


@pytest.fixture(scope="module")
def xy_corners():
    pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    return SampleSet(pts, [x * y for x, y in pts])


class TestSampleSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet([], [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SampleSet([(0.0,), (1e-13,)], [1, 2])

    def test_huge_rational_coordinates(self):
        huge = Fraction(10**400)
        SampleSet([(huge,), (huge + 1,), (Fraction(-1, 3),)], [0, 1, 2])  # float(huge) overflows
        with pytest.raises(ValueError, match="duplicate points at indices 0 and 2"):
            SampleSet([(huge, 1), (-huge, 1), (huge, Fraction(1) + Fraction(1, 10**13))], [0, 1, 2])

    @staticmethod
    def _loop_duplicates(pts):
        """The pair loop `_check_duplicates` replaced: the message it raised, or None."""
        try:
            keys = [tuple(map(float, p)) for p in pts]
        except OverflowError:
            keys = [tuple(p) for p in pts]
        keyed = sorted((p, k) for k, p in enumerate(keys))
        for a in range(len(keyed)):
            pa, ia = keyed[a]
            for b in range(a + 1, len(keyed)):
                pb, ib = keyed[b]
                if pb[0] - pa[0] > fitting.DUPLICATE_TOL:
                    break
                if all(abs(x - y) <= fitting.DUPLICATE_TOL for x, y in zip(pa, pb)):
                    return f"duplicate points at indices {min(ia, ib)} and {max(ia, ib)}"
        return None

    def _assert_like_the_loop(self, pts):
        try:
            SampleSet._check_duplicates(pts)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == self._loop_duplicates(pts), pts
        return got

    def test_duplicate_check_matches_the_pair_loop(self):
        tol = fitting.DUPLICATE_TOL
        cases = [
            [(0.0,), (1e-12,)], [(0.0,), (1.0000000000000002e-12,)], [(1.0, 0.0), (1.0, 1e-12)],
            [(-0.0, 0.0), (0.0, -0.0)], [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0)],
            [(0, 0), (5e-13, -1), (1e-12, 0)],  # the pair is not adjacent in sort order
            [(3.0, 1.0), (0.0, 0.0), (2.0, 2.0), (3.0, 1.0 + tol), (0.0, 1e-13), (2.0, 2.0)],
            [(1, 0, 0), (0, 0, 0), (1, 0, 5e-13), (0, 0, 0), (1, 1e-13, 0)],
            [(Fraction(1, 3), Fraction(1)), (Fraction(1, 3) + Fraction(1, 10**13), 1), (0, 1)],
            [(Fraction(1, 3),), (Fraction(1, 3) + Fraction(1, 10**12),), (Fraction(2, 3),)],
            [(Fraction(10**400), 1), (Fraction(-10**400), 1), (Fraction(10**400), Fraction(1) + Fraction(1, 10**13))],
            [(10**400, 0), (10**400 + 1, 0), (Fraction(-1, 3), 5)],
            [(10**400, Fraction(1, 10**13)), (10**400, 0), (-10**400, 0), (-10**400, Fraction(1, 10**12))],
        ]
        for pts in cases:
            self._assert_like_the_loop(pts)
        assert self._assert_like_the_loop(cases[5]) == "duplicate points at indices 0 and 2"
        assert self._assert_like_the_loop(cases[6]) == "duplicate points at indices 1 and 4"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_duplicate_check_matches_the_pair_loop_on_seeded_grids(self, d):
        rng = random.Random(d)
        side = {1: 60, 2: 9, 3: 5}[d]
        for trial in range(40):
            axes = [sorted(rng.sample(range(-50, 50), side)) for _ in range(d)]
            scale = rng.choice([1.0, 1e-12, 3e-13, 0.1])
            pts = [tuple(scale * c for c in p) for p in product(*axes)]
            rng.shuffle(pts)
            for _ in range(rng.choice([0, 0, 1, 3])):  # near copies: several pairs, same report
                p = rng.choice(pts)
                pts.insert(rng.randrange(len(pts) + 1),
                           tuple(c + rng.choice([0.0, -0.0, 5e-13, -1e-12, 2e-12]) for c in p))
            self._assert_like_the_loop(pts)

    def test_rejects_inconsistent_dimension(self):
        with pytest.raises(ValueError):
            SampleSet([(0.0,), (1.0, 2.0)], [1, 2])

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(ValueError):
            SampleSet([(0.0,)], [1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_with_its_index(self, bad):
        with pytest.raises(ValueError, match=r"point 2 has a coordinate that is not finite"):
            SampleSet([(0.0, 1.0), (1.0, 1.0), (2.0, bad)], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"value 1 is not finite"):
            SampleSet([(0.0,), (1.0,), (2.0,)], [1.0, bad, 3.0])
        with pytest.raises(ValueError, match=r"value 0 is not finite"):
            SampleSet([(Fraction(1, 3),), (1,)], [bad, Fraction(10**400)])
        SampleSet([(Fraction(1, 3),), (1,)], [Fraction(10**400), 10**400])  # huge rationals are finite

    def test_view_converts_once_per_arithmetic(self):
        samples = SampleSet([(0, 0.5), (1, Fraction(1, 3))], [2, 0.25])
        for exact, kind in ((True, Fraction), (False, float)):
            pts, vals = samples.view(exact)
            assert samples.view(exact) is samples.view(exact)
            assert all(type(c) is kind for p in pts for c in p)
            assert all(type(v) is kind for v in vals)
            assert pts[1][1] == (Fraction(1, 3) if exact else 1 / 3)

    @pytest.mark.parametrize("exact", [False, True])
    def test_lifted_rows_equal_lift_bit_for_bit(self, exact):
        def bits(row):
            return [(type(v), v.hex() if isinstance(v, float) else v) for v in row]

        def lifted(point, basis):
            row = lift(point, basis)
            if not exact:  # float rows come from the float matrix, whose constant column is 1.0
                assert type(row[0]) is int
                row[0] = 1.0
            return row

        samples = random_samples(random.Random(5), 2, 12)
        pts = samples.view(exact)[0]
        order = [7, 0, 11, 3, 7]
        for degree in (0, 1, 3):
            basis = build_basis(2, degree)
            rows = samples.lifted(order, degree, exact)
            assert [bits(r) for r in rows] == [bits(lifted(pts[i], basis)) for i in order]

    def test_lifts_each_point_once_per_degree_and_arithmetic(self, monkeypatch):
        # exact rows are lifted point by point; float rows come from one matrix per degree
        calls, matrices = [], []
        real, real_matrix = fitting.lift, fitting.lift_matrix

        def counted(point, basis):
            calls.append((type(point[0]), point, basis.degree))
            return real(point, basis)

        def counted_matrix(points, basis):
            matrices.append(basis.degree)
            return real_matrix(points, basis)

        monkeypatch.setattr(fitting, "lift", counted)
        monkeypatch.setattr(fitting, "lift_matrix", counted_matrix)
        samples = random_samples(random.Random(6), 2, 14)
        for exact in (True, False):
            fit = fit_minimax(samples, 2, exact=exact)
            assert (len(calls), matrices) == (len(samples), [] if exact else [2])
            extremes = partition_extremes(fit.residuals)
            check_hull_intersection(extremes, samples, 2, exact)
            check_isolability(extremes, samples, 2, exact)
            # the verifiers reuse the fit's rows
            assert (len(calls), matrices) == (len(samples), [] if exact else [2])
        verify_by_hyperplanes(extremes, samples, 2)
        for exact in (False, True):
            for degree in (1, 2):
                samples.lifted([3, 1, 3], degree, exact)
                samples.lifted(range(len(samples)), degree, exact)
        assert len(calls) == 2 * len(samples)
        assert len(set(calls)) == len(calls)
        assert {kind for kind, _, _ in calls} == {Fraction}
        assert sorted(matrices) == [1, 2]  # one float matrix per degree


class TestFitMinimax:
    def test_parabola_three_points(self, parabola_samples):
        fit = fit_minimax(parabola_samples, 1)
        assert fit.model.coefficients[0] == pytest.approx(0.5, abs=1e-9)
        assert fit.model.coefficients[1] == pytest.approx(0.0, abs=1e-9)
        assert fit.psi == pytest.approx(0.5, abs=1e-9)
        assert [round(r, 9) for r in fit.residuals] == [0.5, -0.5, 0.5]

    def test_cubic_grid_matches_chebyshev_norm(self, cubic_grid):
        fit = fit_minimax(cubic_grid, 2)
        assert abs(fit.psi - 0.25) <= 1e-3
        assert fit.model.coefficients[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.model.coefficients[1] == pytest.approx(0.75, abs=1e-3)
        assert fit.model.coefficients[2] == pytest.approx(0.0, abs=1e-6)
        ext = extreme_sets(fit.model, cubic_grid)
        assert count_alternations(ext, cubic_grid) >= 4

    def test_xy_corners(self, xy_corners):
        fit = fit_minimax(xy_corners, 1)
        assert all(c == pytest.approx(0.0, abs=1e-9) for c in fit.model.coefficients)
        assert fit.psi == pytest.approx(1.0, abs=1e-9)

    def test_self_interpolation(self):
        rng = random.Random(5)
        samples = random_samples(rng, 2, 12)
        basis = build_basis(2, 2)
        model = PolynomialModel(basis, tuple(round(rng.uniform(-1, 1), 3) for _ in range(basis.size)))
        values = [model(p) for p in samples.points]
        refit = fit_minimax(SampleSet(samples.points, values), 2)
        assert refit.psi <= 1e-10

    def test_warns_when_underdetermined(self):
        samples = SampleSet([(0.0,), (1.0,)], [1.0, 2.0])
        with pytest.warns(UserWarning, match="underdetermined"):
            fit_minimax(samples, 3)

    def test_float_residuals_equal_ordered_dot_bit_for_bit(self):
        # the float matrix path against v - (c_0 g_0 + c_1 g_1 + ...) summed left to right
        def reference(coeffs, basis, samples):
            out = []
            for p, v in zip(samples.points, samples.values):
                total = 0
                for c, g in zip(coeffs, lift(p, basis)):
                    total = total + c * g
                out.append(v - total)
            return out

        rng = random.Random(3)
        for dimension, count, degree in ((1, 300, 5), (2, 120, 3), (3, 80, 2)):
            samples = random_samples(rng, dimension, count)
            fit = fit_minimax(samples, degree)
            expected = reference(fit.model.coefficients, fit.model.basis, samples)
            assert [r.hex() for r in fit.residuals] == [r.hex() for r in expected]
            assert fit.psi.hex() == max(map(abs, expected)).hex()
            draws = (lambda: rng.randint(-3, 3), lambda: rng.uniform(-1, 1),
                     lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 13)))
            for draw in draws:
                model = PolynomialModel(fit.model.basis, tuple(draw() for _ in range(fit.model.basis.size)))
                expected = reference(model.coefficients, model.basis, samples)
                psi = max(map(abs, expected))
                assert type(psi) is float and compute_psi(model, samples).hex() == psi.hex()
                assert extreme_sets(model, samples, 0.01) == partition_extremes(expected, 0.01)

    @pytest.mark.parametrize("exact", [False, True])
    def test_worst_point_tie_takes_lowest_index(self, monkeypatch, exact):
        # zero on the 8 starting points, 1 on the 7 between them: the first LP
        # gives the zero line, and all seven tie as worst; the lowest index joins
        points = [(Fraction(k, 7) - 1,) for k in range(15)]
        samples = SampleSet(points, [k % 2 for k in range(15)])
        working_sets = []
        real = fitting.solve_exact if exact else fitting.solve

        def recorded(lp, **kwargs):
            working_sets.append(sorted(round(float(u[1]) * 7) + 7 for u, _, _ in lp.rows if u[0] > 0))
            return real(lp, **kwargs)

        monkeypatch.setattr(fitting, "solve_exact" if exact else "solve", recorded)
        fit_minimax(samples, 1, exact=exact)
        assert working_sets[0] == list(range(0, 15, 2))
        assert working_sets[1] == sorted(working_sets[0] + [1])

    def test_rounds_after_the_first_start_warm(self, monkeypatch):
        samples = random_samples(random.Random(8), 1, 200)
        real_solve, real_cold = fitting.solve, lp_module._solve
        starts, cold = [], []

        def round_(lp, start=None):
            starts.append(start)
            return real_solve(lp, start=start)

        def counted(lp, exact):
            cold.append(exact)
            return real_cold(lp, exact)

        monkeypatch.setattr(fitting, "solve", round_)
        monkeypatch.setattr(lp_module, "_solve", counted)
        fit = fit_minimax(samples, 4)
        assert len(starts) >= 2 and starts[0] is None and None not in starts[1:]
        assert cold == [False]  # one two-phase solve, in the first round
        assert fit.psi == pytest.approx(float(fit_minimax(samples, 4, exact=True).psi), rel=1e-12)

    def test_psi_is_max_abs_residual(self, parabola_samples):
        fit = fit_minimax(parabola_samples, 1)
        assert fit.psi == max(abs(r) for r in fit.residuals)

    def test_local_minimality_under_perturbations(self, parabola_samples):
        fit = fit_minimax(parabola_samples, 1)
        rng = random.Random(17)
        for _ in range(100):
            wiggled = tuple(
                c + rng.uniform(-0.05, 0.05) for c in fit.model.coefficients
            )
            other = PolynomialModel(fit.model.basis, wiggled)
            assert compute_psi(other, parabola_samples) >= fit.psi - 1e-12

    def test_fit_always_certificated(self):
        corpus = build_fit_corpus(seed=101, count=15, dims=(1, 2), degrees=(1, 2), point_range=(6, 18))
        for inst in corpus:
            outcome = check_hull_intersection(inst.extremes, inst.samples, inst.degree)
            assert isinstance(outcome, IntersectionCertificate)

    def test_univariate_alternation_lower_bound(self):
        rng = random.Random(31)
        for _ in range(12):
            m = rng.randint(1, 3)
            samples = random_samples(rng, 1, rng.randint(m + 3, 25))
            fit = fit_minimax(samples, m)
            ext = extreme_sets(fit.model, samples)
            if ext.degenerate:
                continue
            assert count_alternations(ext, samples) >= m + 2


_RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**40)),  # beyond float range
    st.builds(Fraction, st.integers(-10, 10), st.integers(1, 10**400)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_integer_residuals_equal_the_dot_path(d, degree, data):
    basis = build_basis(d, degree)
    n = data.draw(st.integers(1, 6))
    lifts = [lift(data.draw(st.lists(_RATIONALS, min_size=d, max_size=d)), basis) for _ in range(n)]
    vals = data.draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    table = fitting._integer_rows(lifts, vals)
    for coeffs in (data.draw(st.lists(_RATIONALS, min_size=basis.size, max_size=basis.size)),
                   [0] * basis.size, [Fraction(-k, 3) for k in range(basis.size)]):
        got = fitting._integer_residuals(table, coeffs)
        assert got == [v - dot(coeffs, u) for u, v in zip(lifts, vals)]
        assert all(type(r) is Fraction for r in got)


class TestComputePsi:
    def test_exact_match_gives_zero(self, parabola_samples):
        model = PolynomialModel(build_basis(1, 2), (0, 0, 1))
        assert compute_psi(model, parabola_samples) == 0

    def test_hand_value(self, parabola_samples):
        model = PolynomialModel(build_basis(1, 1), (0.5, 0))
        assert compute_psi(model, parabola_samples) == 0.5

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-2, 2), min_size=2, max_size=2),
        st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    )
    def test_convexity(self, parabola_samples, a, b):
        basis = build_basis(1, 1)
        ma, mb = PolynomialModel(basis, tuple(a)), PolynomialModel(basis, tuple(b))
        mid = PolynomialModel(basis, tuple((x + y) / 2 for x, y in zip(a, b)))
        lhs = compute_psi(mid, parabola_samples)
        rhs = (compute_psi(ma, parabola_samples) + compute_psi(mb, parabola_samples)) / 2
        assert lhs <= rhs + 1e-12


class TestExtremeSets:
    def test_parabola_partition(self, parabola_samples):
        fit = fit_minimax(parabola_samples, 1)
        ext = extreme_sets(fit.model, parabola_samples)
        assert ext.plus == (0, 2)
        assert ext.minus == (1,)
        assert not ext.degenerate

    def test_xy_partition(self, xy_corners):
        fit = fit_minimax(xy_corners, 1)
        ext = extreme_sets(fit.model, xy_corners)
        assert [xy_corners.points[i] for i in ext.plus] == [(-1, -1), (1, 1)]
        assert [xy_corners.points[i] for i in ext.minus] == [(-1, 1), (1, -1)]

    def test_exact_fit_is_degenerate(self, parabola_samples):
        model = PolynomialModel(build_basis(1, 2), (0, 0, 1))
        ext = extreme_sets(model, parabola_samples)
        assert ext.degenerate
        assert ext.plus == ext.minus == (0, 1, 2)

    def test_rel_tol_validation(self, parabola_samples):
        model = PolynomialModel(build_basis(1, 1), (0.5, 0))
        with pytest.raises(ValueError):
            extreme_sets(model, parabola_samples, rel_tol=0.5)

    def test_exact_argmax_with_zero_band(self):
        xs = [Fraction(k, 4) for k in range(-4, 5)]
        samples = SampleSet([(x,) for x in xs], [x * x for x in xs])
        fit = fit_minimax(samples, 1, exact=True)
        ext = extreme_sets(fit.model, samples, rel_tol=0)
        residuals = [v - fit.model(p) for p, v in zip(samples.points, samples.values)]
        psi = max(abs(r) for r in residuals)
        assert set(ext.plus) == {i for i, r in enumerate(residuals) if r == psi}
        assert set(ext.minus) == {i for i, r in enumerate(residuals) if -r == psi}

    def test_fit_residuals_partition_like_the_model(self):
        # the CLI partitions FitResult.residuals instead of evaluating the model again
        for dimension, count, degree in ((1, 40, 3), (2, 30, 2)):
            samples = random_samples(random.Random(dimension), dimension, count)
            for exact in (False, True):
                view = SampleSet(*samples.view(exact))
                fit = fit_minimax(view, degree, exact=exact)
                assert list(fit.residuals) == [
                    v - fit.model(p) for p, v in zip(view.points, view.values)
                ]
                for rel_tol in (0, 1e-8, 0.1):
                    assert partition_extremes(fit.residuals, rel_tol) == extreme_sets(
                        fit.model, view, rel_tol
                    )

    def test_partition_of_residuals(self):
        ext = partition_extremes([Fraction(1), Fraction(-1, 2), Fraction(-1), Fraction(99, 100)], 0.05)
        assert (ext.plus, ext.minus, ext.psi) == ((0, 3), (2,), 1)
        assert partition_extremes([0.0, 1e-13]).degenerate
        with pytest.raises(ValueError):
            partition_extremes([1.0], rel_tol=-0.1)


class TestCountAlternations:
    def test_parabola(self, parabola_samples):
        fit = fit_minimax(parabola_samples, 1)
        assert count_alternations(extreme_sets(fit.model, parabola_samples), parabola_samples) == 3

    def test_single_point(self):
        samples = SampleSet([(0.0,), (1.0,)], [0.0, 5.0])
        from minimaxfit import ExtremeSets

        ext = ExtremeSets(plus=(1,), minus=(), psi=1.0, rel_tol=0.0)
        assert count_alternations(ext, samples) == 1

    def test_multivariate_rejected(self, xy_corners):
        fit = fit_minimax(xy_corners, 1)
        ext = extreme_sets(fit.model, xy_corners)
        with pytest.raises(ValueError):
            count_alternations(ext, xy_corners)
