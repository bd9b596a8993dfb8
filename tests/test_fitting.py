"""Minimax fitting, the uniform error functional, and extreme sets."""

import random
from fractions import Fraction

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

    def test_rejects_inconsistent_dimension(self):
        with pytest.raises(ValueError):
            SampleSet([(0.0,), (1.0, 2.0)], [1, 2])

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(ValueError):
            SampleSet([(0.0,)], [1, 2])

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

        samples = random_samples(random.Random(5), 2, 12)
        pts = samples.view(exact)[0]
        order = [7, 0, 11, 3, 7]
        for degree in (0, 1, 3):
            basis = build_basis(2, degree)
            rows = samples.lifted(order, degree, exact)
            assert [bits(r) for r in rows] == [bits(lift(pts[i], basis)) for i in order]

    def test_lifts_each_point_once_per_degree_and_arithmetic(self, monkeypatch):
        calls = []
        real = fitting.lift

        def counted(point, basis):
            calls.append((type(point[0]), point, basis.degree))
            return real(point, basis)

        monkeypatch.setattr(fitting, "lift", counted)
        samples = random_samples(random.Random(6), 2, 14)
        fit = fit_minimax(samples, 2)
        assert len(calls) == len(samples)
        extremes = partition_extremes(fit.residuals)
        check_hull_intersection(extremes, samples, 2)
        check_isolability(extremes, samples, 2)
        assert len(calls) == len(samples)  # the verifiers reuse the fit's rows
        verify_by_hyperplanes(extremes, samples, 2)
        for exact in (False, True):
            for degree in (1, 2):
                samples.lifted([3, 1, 3], degree, exact)
                samples.lifted(range(len(samples)), degree, exact)
        assert len(calls) == 4 * len(samples)
        assert len(set(calls)) == len(calls)


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
