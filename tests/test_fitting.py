"""Minimax fitting, the uniform error functional, and extreme sets."""

import math
import os
import random
import tempfile
import warnings
from fractions import Fraction
from itertools import chain, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit import (
    ExtremeSets,
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
from minimaxfit import cli, fitting
from minimaxfit.cli import ingest, parse_grid_spec
from minimaxfit._linalg import integer_row, integer_rows
from minimaxfit.monomials import dot, dot_rows
import minimaxfit.lp as lp_module
from minimaxfit.lp import LpFailure, LpSolution

from support import build_fit_corpus, lp_from_rows, random_samples, reference_exact_fit, reference_lift


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
        chains = [  # gaps within the tolerance chain across groups, in the first and in a later coordinate
            [(0.0, 0.0), (9e-13, 5.0), (1.8e-12, 0.0), (2.7e-12, 5.0)],
            [(2.7e-12, 1.8e-12), (0.0, 0.0), (1.8e-12, 0.0), (9e-13, 9e-13)],
            [(0.0, 0.0), (1.0, 9e-13), (0.0, 1.8e-12), (1.0, 2.7e-12), (0.0, 2.5e-12)],
            [(0.0, 0.0, 0.0), (0.0, 9e-13, 1.0), (0.0, 1.8e-12, 1e-13), (0.0, 2.7e-12, 1.0), (5e-13, 1.7e-12, 0.0)],
        ]
        nodes = [np.cos(np.pi * (np.arange(side) + 0.5) / side).tolist() for side in (21, 7)]
        grids = [list(product(nodes[0], repeat=2)), list(product(nodes[1], repeat=3))]
        grids += [g[:200] + [tuple(c + 5e-13 for c in g[150])] + g[200:] for g in grids]
        for pts in cases + chains + grids:
            self._assert_like_the_loop(pts)
        assert self._assert_like_the_loop(cases[5]) == "duplicate points at indices 0 and 2"
        assert self._assert_like_the_loop(cases[6]) == "duplicate points at indices 1 and 4"
        assert [self._assert_like_the_loop(pts) for pts in chains] == [
            None, "duplicate points at indices 1 and 3", "duplicate points at indices 2 and 4",
            "duplicate points at indices 2 and 4"]
        assert [self._assert_like_the_loop(pts) for pts in grids] == [
            None, None, "duplicate points at indices 150 and 200", "duplicate points at indices 150 and 200"]

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

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            SampleSet([()], [1.0])

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
            assert pts.dtype == vals.dtype == (object if exact else float)
            assert all(type(c) is kind for p in pts.tolist() for c in p)
            assert all(type(v) is kind for v in vals.tolist())
            assert pts[1, 1] == (Fraction(1, 3) if exact else 1 / 3)
        # a float64 table is its own float view
        floats = SampleSet([(0.0, 0.5), (1.0, 1 / 3)], [2.0, 0.25])
        assert all(a is b for a, b in zip(floats.view(False), (floats.xy, floats.f)))
        # and a table of Fractions (as an exact ingest reads it) its own exact view
        fractions = SampleSet([(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 3))], [Fraction(2)] * 2)
        assert all(a is b for a, b in zip(fractions.view(True), (fractions.xy, fractions.f)))

    @pytest.mark.parametrize("degrees", [(0, 1, 3), (3, 2, 1, 0), (3, 0, 2, 1, 4)],
                             ids=["ascending", "descending", "interleaved"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_lifted_rows_equal_lift_bit_for_bit(self, exact, degrees):
        # a degree below the table's reads its leading columns, one above replaces the table: either way
        # the rows are those of the degree's own lift
        def bits(row):
            return [(type(v), v.hex() if isinstance(v, float) else v) for v in row]

        def lifted(point, basis):
            row = reference_lift(point, basis.exponents)
            if not exact:  # float rows come from the float matrix, whose constant column is 1.0
                assert type(row[0]) is int
                row[0] = 1.0
            return row

        samples = random_samples(random.Random(5), 2, 12)
        pts = samples.view(exact)[0].tolist()
        order = [7, 0, 11, 3, 7]
        for degree in degrees:
            basis = build_basis(2, degree)
            rows = samples.lifted(order, degree, exact).tolist()
            assert [bits(r) for r in rows] == [bits(lifted(pts[i], basis)) for i in order]

    def test_lifts_each_point_once_per_degree_and_arithmetic(self, monkeypatch):
        # every row goes through `lift_matrix` once per arithmetic, at the highest degree asked for so
        # far: a lower degree reads the table's leading columns and lifts nothing, a higher one lifts
        # every row once more
        lifted = []  # (degree, exact, point) of each row handed to lift_matrix
        real = fitting.lift_matrix

        def counted(points, basis):
            lifted.extend((basis.degree, points.dtype == object, p) for p in map(tuple, points.tolist()))
            return real(points, basis)

        monkeypatch.setattr(fitting, "lift_matrix", counted)
        samples = random_samples(random.Random(6), 2, 14)
        n = len(samples)
        rows = {exact: [(2, exact, p) for p in map(tuple, samples.view(exact)[0].tolist())] for exact in (True, False)}
        fits = {exact: fit_minimax(samples, 2, exact=exact) for exact in (True, False)}
        assert lifted == rows[False] + rows[True]  # an exact fit runs float rounds first
        for exact, fit in fits.items():
            extremes = partition_extremes(fit.residuals)
            check_hull_intersection(extremes, samples, 2, exact)
            check_isolability(extremes, samples, 2, exact)
        verify_by_hyperplanes(extremes, samples, 2)  # degree-1 rows of some extreme points
        for exact in (False, True):
            for degree in (1, 0, 2):
                samples.lifted([3, 1, 3], degree, exact)
                samples.lifted(range(n), degree, exact)
        assert lifted == rows[False] + rows[True]  # the verifiers and every degree up to 2 reuse the fits' rows
        assert set(samples._lifted) == {False, True}  # one table per arithmetic
        samples.lifted([3], 3, False)
        assert lifted[2 * n:] == [(3, False, p) for _, _, p in rows[False]]  # a higher degree lifts every row
        for degree in (0, 2, 3):
            samples.lifted(range(n), degree, False)
        assert len(lifted) == 3 * n
        assert {(e, type(p[0])) for _, e, p in lifted} == {(True, Fraction), (False, float)}
        # a table of Fractions is its own exact view: the model's values and the verifiers share one lift;
        # exact alternation handed the certificate (as `fit` hands it) lifts no float row
        fractions = SampleSet(*samples.view(True))
        extremes = extreme_sets(fits[True].model, fractions)
        certificate = check_hull_intersection(extremes, fractions, 2, True)
        verify_by_hyperplanes(extremes, fractions, 2, True, certificate)
        assert lifted[3 * n:] == rows[True]
        # with none, the float proposal of the support it finds (`find_critical_point_set`) lifts it at degree m
        verify_by_hyperplanes(extremes, fractions, 2, True)
        floats = list(map(tuple, fractions.view(False)[0].tolist()))
        assert lifted[4 * n:] == [(2, False, p) for p in floats]

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_numpy_scalars_become_python_numbers(self, dtype):
        # a table built from numpy arrays other than a float64 pair holds the Python numbers of their
        # entries, so int64 powers do not wrap around and float32 ones are not rounded to float32
        if dtype is np.int64:
            pts, vals = np.array([[0], [100000], [200000], [300000]], dtype), np.array([0, 1, 0, 1], dtype)
            model, table = PolynomialModel(build_basis(1, 4), (0, 0, 0, 0, 1)), object
            psi, extremes = 300000**4 - 1, ((), (3,))
        else:
            pts, vals = np.array([[0.1], [0.3], [0.7]], dtype), np.array([0.1, 0.2, 0.4], dtype)
            model, table = PolynomialModel(build_basis(1, 1), (0.0, 0.5)), float
            psi, extremes = 0.050000011920928955, ((2,), ())  # f(x) - x / 2 at the float32 0.7, in float64
        for points, values in [(pts, vals), (list(pts), list(vals))]:
            samples = SampleSet(points, values)
            assert samples.xy.dtype == samples.f.dtype == table
            assert not any(isinstance(v, np.generic) for v in chain(*samples.xy.tolist(), samples.f.tolist()))
            got = compute_psi(model, samples)
            assert type(got) is type(psi) and got == psi
            got = extreme_sets(model, samples)
            assert (got.plus, got.minus) == extremes


_TABLE_FLOATS = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, 5e-324, 1e-13, -1e-12, 1.0, 1 / 3]))


def _built(points, values):
    """A SampleSet, or the message of the ValueError it raised."""
    try:
        return SampleSet(points, values)
    except ValueError as err:
        return str(err)


def _float_bits(samples):
    return ([[c.hex() for c in p] for p in samples.points], [v.hex() for v in samples.values],
            samples.xy.tobytes(), samples.f.tobytes())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_float64_table_equals_python_floats(d, data):
    # the same samples, given as (n, d) and (n,) float64 arrays or as Python floats: the same
    # points, values and table bit for bit, lifted matrices byte for byte, the same errors
    n = data.draw(st.integers(1, 10))
    pts = data.draw(st.lists(st.tuples(*[_TABLE_FLOATS] * d), min_size=n, max_size=n))
    vals = data.draw(st.lists(_TABLE_FLOATS, min_size=n, max_size=n))
    if data.draw(st.integers(0, 3)) == 0:  # one entry not finite, now and then
        k, bad = data.draw(st.integers(0, n * (d + 1) - 1)), data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if k < n * d:
            pts[k // d] = pts[k // d][:k % d] + (bad,) + pts[k // d][k % d + 1:]
        else:
            vals[k - n * d] = bad
    from_lists = _built(pts, vals)
    from_arrays = _built(np.array(pts, dtype=float), np.array(vals, dtype=float))
    if all(map(math.isfinite, chain(*pts, vals))):  # the duplicate check of the same numbers as Fractions
        exact = _built([tuple(map(Fraction, p)) for p in pts], list(map(Fraction, vals)))
        assert [x for x in (exact, from_lists) if isinstance(x, str)] in ([], [exact, exact])
    if isinstance(from_lists, str):
        assert from_arrays == from_lists
        return
    assert all(type(c) is float for p in from_arrays.points for c in p)
    assert all(type(v) is float for v in from_arrays.values)
    assert _float_bits(from_arrays) == _float_bits(from_lists)
    for degree in range(7):
        rows = [s.lifted(range(n), degree, False) for s in (from_arrays, from_lists)]
        assert rows[0].dtype == rows[1].dtype == float and rows[0].tobytes() == rows[1].tobytes()
    # a clean CSV: numpy's bulk read hands `SampleSet` its arrays, the cell reader Python floats
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        with open(path, "w") as handle:
            handle.write(",".join([f"x{k + 1}" for k in range(d)] + ["f"]) + "\n")
            handle.writelines(",".join(map(repr, p + (v,))) + "\n" for p, v in zip(pts, vals))
        bulk = ingest(path)
        with mock.patch.object(cli, "_bulk_floats", lambda body, d: None):
            cells = ingest(path)
    assert _float_bits(bulk) == _float_bits(cells) == _float_bits(from_lists)


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

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("degree", [0, 2])
    def test_one_sample_gives_the_constant_fit(self, exact, degree):
        value = Fraction(2, 7) if exact else 3.0
        samples = SampleSet([(Fraction(1, 3), Fraction(-1, 2))], [value])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a basis larger than one sample is underdetermined
            fit = fit_minimax(samples, degree, exact=exact)
        size = build_basis(2, degree).size
        assert fit.model.coefficients == (value,) + (0,) * (size - 1)
        assert fit.psi == 0 and list(fit.residuals) == [0]

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
                for c, g in zip(coeffs, reference_lift(p, basis.exponents)):
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
    @pytest.mark.parametrize("reverse", [False, True])
    def test_each_sign_run_adds_its_peak_lowest_index_first(self, monkeypatch, reverse, exact):
        # zero on the 8 starting points (the even indices), so the first LP gives the zero line.
        # The odd points make a plus run {1, 3, 5, 7} whose peak 1 ties at 1 and 3, and a minus
        # run {9, 11, 13} tied at -1: each run joins with its lowest index, also when the
        # indices run against the coordinate (reverse), where 1 and 9 are last in their runs
        xs = [Fraction(k, 7) - 1 for k in range(15)][::-1 if reverse else 1]
        half = Fraction(1, 2)
        samples = SampleSet([(x,) for x in xs], [0, 1, 0, 1, 0, half, 0, half, 0, -1, 0, -1, 0, -1, 0])
        working_sets = []
        real = fitting.solve_exact if exact else fitting.solve

        def recorded(lp, **kwargs):
            ks = [round((float(u[1]) + 1) * 7) for u in lp.A if u[0] > 0]
            working_sets.append(sorted(14 - k if reverse else k for k in ks))
            return real(lp, **kwargs)

        if exact:  # the float pass falls back, so the exact rounds start from the evenly spaced samples
            monkeypatch.setattr(fitting, "solve", _float_pass_fails)
        monkeypatch.setattr(fitting, "solve_exact" if exact else "solve", recorded)
        fit_minimax(samples, 1, exact=exact)
        assert working_sets[0] == list(range(0, 15, 2))
        assert working_sets[1] == sorted(working_sets[0] + [1, 9])

    def test_rounds_after_the_first_start_warm(self, monkeypatch):
        samples = random_samples(random.Random(8), 1, 200)
        real_solve, real_cold = fitting.solve, lp_module._solve
        starts, cold = [], []

        def round_(lp, start=None):
            starts.append(start)
            return real_solve(lp, start=start)

        def counted(lp, exact, **guess):
            cold.append(exact)
            return real_cold(lp, exact, **guess)

        monkeypatch.setattr(fitting, "solve", round_)
        monkeypatch.setattr(lp_module, "_solve", counted)
        fit = fit_minimax(samples, 4)
        assert len(starts) >= 2 and starts[0] is None and None not in starts[1:]
        assert cold == []  # no two-phase solve: the first round starts from its all-slack basis
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


def _highs_psi(samples, degree):
    """The HiGHS optimum of a 1-D minimax LP, polished on its active rows as the benchmark oracle does.

    The polish solves the equalities of the rows HiGHS reports active, so the
    extreme points reproduce psi to rounding error.
    """
    from scipy.optimize import linprog

    x, f = np.array([p[0] for p in samples.points]), np.array(samples.values)
    a = np.vander(x, degree + 1, increasing=True)
    n, nc = a.shape
    ones = np.ones((n, 1))
    res = linprog(np.r_[np.zeros(nc), 1.0], A_ub=np.vstack([np.hstack([a, -ones]), np.hstack([-a, -ones])]),
                  b_ub=np.r_[f, -f], bounds=[(None, None)] * nc + [(0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    psi = res.x[nc]
    active = np.flatnonzero(np.abs(res.ineqlin.marginals) > 1e-12)
    if active.size:
        rows, sign = active % n, np.where(active < n, 1.0, -1.0)
        sol = np.linalg.lstsq(np.hstack([a[rows], sign[:, None]]), f[rows], rcond=None)[0]
        polished = np.max(np.abs(f - a @ sol[:nc]))
        if polished <= psi * (1 + 1e-9) + 1e-12:
            psi = polished
    return float(psi)


def test_float_fits_agree_with_highs():
    # seeded 1-D targets of degree m+1..m+2 on 2,001-point grids, the Chebyshev ones at m = 5 and 6 included,
    # and the Chebyshev sextic whose first round once failed in phase 1
    pytest.importorskip("scipy")
    rng = random.Random(1708)
    specs = ["-1,1;2001;chebyshev;2 + 5*x1^2 + 3*x1^3 + -4*x1^4 + -5*x1^5 + -2*x1^6@5"]
    for m in range(1, 7):
        for nodes in ("chebyshev", "uniform") + (("chebyshev",) * 2 if m >= 5 else ()):
            top = m + rng.randint(1, 2)  # with a non-zero coefficient, so that psi > 0
            terms = [f"{rng.randint(-5, 5)}*x1^{k}" for k in range(top)] + [f"{rng.choice([-5, -2, 1, 3])}*x1^{top}"]
            specs.append(f"-1,1;2001;{nodes};{' + '.join(terms)}@{m}")
    for spec in specs:
        grid, m = spec.rsplit("@", 1)
        samples = parse_grid_spec(grid)
        fit = fit_minimax(samples, int(m))
        ref = _highs_psi(samples, int(m))
        assert abs(fit.psi - ref) <= 1e-11 * ref, (spec, fit.psi, ref)


def _single_exchange_fit(samples, degree, exact):
    """The working-set loop with single exchange in every dimension, and its rounds.

    Each round adds only the worst sample (largest |r|, the lowest index
    among ties) until it deviates by at most z (plus the float slack) or is
    in the working set already: the reference for the 1-D multiple exchange
    of `fit_minimax`, which `fit_minimax` still runs in d > 1.
    """
    basis = build_basis(samples.dimension, degree)
    vals = samples.view(exact)[1]
    n, nc = len(vals), basis.size
    if exact:
        N, V, D = integer_rows(samples.lifted(range(n), degree, True), vals)
    else:
        matrix, targets = samples.lifted(range(n), degree, False), vals
    k0 = min(n, 2 * (nc + 2))
    working = {0} if k0 <= 1 else {round(i * (n - 1) / (k0 - 1)) for i in range(k0)}

    def rows_of(indices):
        for i, u in zip(indices, samples.lifted(indices, degree, exact).tolist()):
            yield (list(u) + [-1], "<=", vals[i])
            yield ([-g for g in u] + [-1], "<=", -vals[i])

    rows, start, rounds = list(rows_of(sorted(working))), None, 0
    bounds = [(None, None)] * nc + [(0, None)]
    while True:
        lp = lp_from_rows([0] * nc + [1], rows, bounds)
        sol = lp_module.solve_exact(lp) if exact else lp_module.solve(lp, start=start)
        rounds += 1
        assert sol.status == "optimal"
        coeffs, z = sol.x[:nc], sol.x[nc]
        if exact:
            p, q = integer_row(coeffs)
            residuals = [Fraction(r, q * den) for r, den in zip((q * V - dot_rows(N, p)).tolist(), D.tolist())]
            worst_i = max(range(n), key=lambda i: (abs(residuals[i]), -i))
            worst = abs(residuals[worst_i])
        else:
            residuals = targets - dot_rows(matrix, coeffs)
            worst_i = int(np.argmax(np.abs(residuals)))
            worst = float(abs(residuals[worst_i]))
        slack = 0 if exact else 1e-9 * max(1.0, float(z)) + 1e-12
        if worst <= z + slack or worst_i in working:
            break
        working.add(worst_i)
        if exact:
            rows = list(rows_of(sorted(working)))
        else:
            rows += rows_of([worst_i])
            start = sol
    residuals = tuple(residuals if exact else residuals.tolist())
    return fitting.FitResult(PolynomialModel(basis, tuple(coeffs)), worst, residuals), rounds


def _exchange_corpus():
    """Seeded 1-D (grid, m, exact): float 2,001-point grids at m = 1-6, exact 101/201-point ones at m = 2-3."""
    rng = random.Random(1959)
    for m, nodes, exact in ([(m, nodes, False) for m in range(1, 7) for nodes in ("uniform", "chebyshev")]
                            + [(m, n, True) for m in (2, 3) for n in (101, 201)]):
        top = m + rng.randint(1, 2)
        terms = [f"{rng.randint(-5, 5)}*x1^{k}" for k in range(top)] + [f"{rng.choice([-5, -2, 1, 3])}*x1^{top}"]
        if rng.random() < 1 / 3:
            terms.append(f"{rng.randint(1, 3)}*abs(x1)")
        grid = f"-1,1;{nodes};uniform" if exact else f"-1,1;2001;{nodes}"
        yield f"{grid};{' + '.join(terms)}", m, exact


def test_multiple_exchange_matches_single_exchange_in_fewer_rounds(monkeypatch):
    # 1-D best approximations are unique (Haar): adding every sign run's peak per round changes
    # the path, not the fit; exact coefficients are identical, float psi agrees to rounding
    rounds = []
    for name in ("solve", "solve_exact"):
        real = getattr(fitting, name)
        monkeypatch.setattr(fitting, name, lambda lp, real=real, **kw: rounds.append(1) or real(lp, **kw))
    single_total = multiple_total = 0
    for grid, m, exact in _exchange_corpus():
        samples = parse_grid_spec(grid, exact=exact)
        single, single_rounds = _single_exchange_fit(samples, m, exact)
        rounds.clear()
        fit = fit_minimax(samples, m, exact=exact)
        assert len(rounds) <= single_rounds, grid
        single_total, multiple_total = single_total + single_rounds, multiple_total + len(rounds)
        got, expected = partition_extremes(fit.residuals), partition_extremes(single.residuals)
        assert (got.plus, got.minus) == (expected.plus, expected.minus), grid
        if exact:
            assert fit.model == single.model and fit.psi == single.psi, grid
        else:
            assert fit.psi == pytest.approx(single.psi, rel=1e-12, abs=0), grid
    assert multiple_total < single_total


def _float_pass_fails(lp, start=None):
    """`fitting.solve` for an exact fit whose float pass raises, as phase 1 can on a Chebyshev grid."""
    raise LpFailure("phase-1 simplex did not terminate", {"iterations": 0})


@pytest.mark.parametrize("exact", [False, True])
def test_minimax_lp_of_another_status_is_an_lp_failure(monkeypatch, exact):
    # the minimax LP is always optimal; any other status fails with that status, the round and its
    # pivots (an exact fit's float rounds fail too, so its exact rounds start from the evenly spaced 16)
    samples = random_samples(random.Random(9), 2, 30)
    for name in ("solve", "solve_exact"):
        monkeypatch.setattr(fitting, name, lambda lp, start=None: LpSolution("unbounded", iterations=5))
    with pytest.raises(LpFailure, match="^minimax LP came back unbounded$") as failure:
        fit_minimax(samples, 2, exact=exact)
    assert failure.value.diagnostics == {"working_set": 16, "samples": 30, "degree": 2, "iterations": 5}


def _rational_samples(seed, d, n):
    rng = random.Random(seed)
    points = list(dict.fromkeys(tuple(Fraction(rng.randint(-97, 97), 97) for _ in range(d)) for _ in range(2 * n)))[:n]
    return SampleSet(points, [Fraction(rng.randint(-50, 50), 37) for _ in points])


_EXACT_FITS = (
    [(f"-1,1;41;uniform;x1^5-abs(x1)@{m}", m) for m in range(1, 5)]
    + [(f"-1,1;21;chebyshev;x1^6+x1^3@{m}", m) for m in range(1, 4)]
    + [(f"random-1d-{seed}@{m}", m) for seed in range(2) for m in range(1, 5)]
    + [(f"-1,1:-1,1;5;{nodes};x1^2*x2+x2^3@{m}", m) for nodes in ("uniform", "chebyshev") for m in range(1, 5)]
    + [(f"-1,1:-1,1;7;uniform;x1^2+x2^2+abs(x1*x2)@{m}", m) for m in range(1, 5)]
    + [(f"random-2d-{seed}@{m}", m) for seed in range(2) for m in range(1, 5)]
    + [("-1,1:-1,1;9;uniform;x1^2*x2+x2^3@2", 2)]  # the exact Baseline row: its minimax coefficients are not unique
    + [(f"-1,1:-1,1:-1,1;4;uniform;x1*x2*x3+x1^2@{m}", m) for m in range(1, 5)]
    + [(f"random-3d-{seed}@{m}", m) for seed in range(2) for m in range(1, 4)]
)


@pytest.mark.parametrize("name, degree", _EXACT_FITS, ids=[name for name, _ in _EXACT_FITS])
def test_exact_fit_equals_the_cold_exact_loop(name, degree):
    # the exact rounds start from the float pass's working set, and end at the optimum the cold
    # loop from evenly spaced samples reaches: the same coefficients, psi and residuals
    spec = name.rsplit("@", 1)[0]
    if spec.startswith("random"):
        d, seed = spec.split("-")[1:]
        samples = _rational_samples(int(seed), int(d[0]), 40)
    else:
        samples = parse_grid_spec(spec, exact=True)
    fit, ref = fit_minimax(samples, degree, exact=True), reference_exact_fit(samples, degree)
    assert fit.model == ref.model and fit.psi == ref.psi and fit.residuals.tolist() == ref.residuals
    assert all(type(c) is type(r) for c, r in zip(fit.model.coefficients, ref.model.coefficients))


def test_exact_fit_falls_back_to_the_cold_start(monkeypatch):
    # a float pass that raises `LpFailure`, or samples beyond float range (`OverflowError` from the
    # float view): the exact rounds start from the evenly spaced samples, as the cold loop does
    huge = SampleSet([(0,), (1,), (2,), (3,)], [1, 10**400, 3, 5])
    with pytest.raises(OverflowError):
        huge.view(False)
    cases = [(_rational_samples(3, 1, 40), 3), (_rational_samples(4, 2, 40), 2),
             (parse_grid_spec("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", exact=True), 2)]
    for samples, degree, patched in [(huge, 1, False)] + [(s, m, True) for s, m in cases]:
        if patched:
            monkeypatch.setattr(fitting, "solve", _float_pass_fails)
        fit, ref = fit_minimax(samples, degree, exact=True), reference_exact_fit(samples, degree)
        assert fit.model == ref.model and fit.psi == ref.psi and fit.residuals.tolist() == ref.residuals


def test_first_exact_round_holds_the_float_working_set_sorted(monkeypatch):
    samples, degree = parse_grid_spec("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", exact=True), 2
    float_lps, exact_lps = [], []
    real_solve, real_exact = fitting.solve, fitting.solve_exact
    monkeypatch.setattr(fitting, "solve", lambda lp, start=None: float_lps.append(lp) or real_solve(lp, start=start))
    monkeypatch.setattr(fitting, "solve_exact", lambda lp: exact_lps.append(lp) or real_exact(lp))
    fit_minimax(samples, degree, exact=True)
    assert len(float_lps) >= 2 and exact_lps
    # the float pass's last LP holds [u_i | -1], [-u_i | -1] per working-set sample, in the order added
    lifted = samples.lifted(range(len(samples)), degree, False)
    nc = lifted.shape[1]
    index = {tuple(u): i for i, u in enumerate(lifted.tolist())}
    working = [index[tuple(u)] for u in float_lps[-1].A[0::2, :nc].tolist()]
    assert working != sorted(working) and len(set(working)) == len(working)
    rows, values = samples.lifted(sorted(working), degree, True).tolist(), samples.view(True)[1]
    first = exact_lps[0]
    assert first.A.tolist() == [r for u in rows for r in (u + [-1], [-g for g in u] + [-1])]
    assert first.rhs.tolist() == [b for i in sorted(working) for b in (values[i], -values[i])]


def test_underdetermined_exact_fit_warns_once():
    samples = SampleSet([(0,), (Fraction(1, 3),), (1,)], [1, Fraction(1, 2), 2])
    with pytest.warns(UserWarning, match="underdetermined") as caught:
        fit_minimax(samples, 3, exact=True)
    assert len(caught) == 1


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
    # the exact fit's residual pass: (q V_i - dot_rows(N, p)_i) / (q D_i), with c = p / q
    N, V, D = integer_rows(np.array(lifts, dtype=object), np.array(vals, dtype=object))
    for coeffs in (data.draw(st.lists(_RATIONALS, min_size=basis.size, max_size=basis.size)),
                   [0] * basis.size, [Fraction(-k, 3) for k in range(basis.size)]):
        p, q = integer_row(coeffs)
        got = fitting._fractions(q * V - dot_rows(N, p), q * D).tolist()
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


def _generator_partition(residuals, rel_tol):
    """`partition_extremes` as it was before float residuals went through numpy: one generator per set."""
    psi = max(abs(r) for r in residuals)
    if psi <= (0 if isinstance(psi, Fraction) else 1e-12):
        every = tuple(range(len(residuals)))
        return ExtremeSets(plus=every, minus=every, psi=psi, rel_tol=rel_tol, degenerate=True)
    threshold = psi - psi * (Fraction(rel_tol) if isinstance(psi, (Fraction, int)) else rel_tol)
    plus = tuple(i for i, r in enumerate(residuals) if r >= threshold)
    minus = tuple(i for i, r in enumerate(residuals) if -r >= threshold)
    return ExtremeSets(plus=plus, minus=minus, psi=psi, rel_tol=rel_tol)


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
        assert not partition_extremes([Fraction(0), Fraction(1, 10**13)]).degenerate  # exact: only psi 0 is
        with pytest.raises(ValueError):
            partition_extremes([1.0], rel_tol=-0.1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_float_residuals_partition_as_the_generators_do(self, data):
        # Python-float residuals are partitioned in numpy; any other number keeps the generators
        psi = data.draw(st.sampled_from([1e-13, 1.0, 0.03125]) | st.floats(1e-14, 1e6))
        rel_tol = data.draw(st.sampled_from([0.0, 1e-8, 0.1]) | st.floats(0.0, 0.49))
        threshold = psi - psi * rel_tol
        ties = [psi, threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, math.inf)]
        values = st.sampled_from(ties + [-v for v in ties] + [0.0, -0.0]) | st.floats(-psi, psi)
        residuals = data.draw(st.lists(values, min_size=1, max_size=30)) + [data.draw(st.sampled_from([psi, -psi]))]
        residuals = data.draw(st.permutations(residuals))
        if data.draw(st.booleans()):  # mixed input: some entries as int or exact Fraction
            kinds = data.draw(st.lists(st.sampled_from([float, Fraction, round]), min_size=len(residuals),
                                       max_size=len(residuals)))
            residuals = [kind(r) for kind, r in zip(kinds, residuals)]
        got, ref = partition_extremes(residuals, rel_tol), _generator_partition(residuals, rel_tol)
        assert got == ref
        assert type(got.psi) is type(ref.psi)
        assert {type(i) for i in got.plus + got.minus} <= {int}


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

    def test_coordinates_beyond_float_range(self):
        samples = SampleSet([(Fraction(10**400) + k,) for k in range(3)], [0, 0, 0])
        ext = ExtremeSets(plus=(0, 2), minus=(1,), psi=1, rel_tol=0)
        assert count_alternations(ext, samples) == 3

    def test_plus_before_minus_at_a_shared_point(self):
        # with minus first at the shared coordinate, each would count 2
        samples = SampleSet([(0,), (1,)], [0, 0])
        assert count_alternations(ExtremeSets(plus=(0, 1), minus=(0,), psi=1, rel_tol=0), samples) == 3
        assert count_alternations(ExtremeSets(plus=(1,), minus=(0, 1), psi=1, rel_tol=0), samples) == 3


def test_float_view_of_rationals_is_float_of_each_entry():
    """`SampleSet.view(False)` of ints and Fractions, huge ones and ones with huge denominators, against ``float``."""
    entries = [Fraction(1, 3), Fraction(-2, 7), Fraction(10**400 + 1, 10**399), Fraction(1, 10**400),
               Fraction(3**700, 2**1100 + 1), Fraction(-(2**1074) + 1, 2**2148), Fraction(2**1023 * 3 - 1, 2),
               10**300 + 7, -(2**60) - 1, Fraction(5, 1), 0.1, 7]
    samples = SampleSet([(e, Fraction(k, 3)) for k, e in enumerate(entries)], entries[::-1])
    points, values = samples.view(False)
    assert points.dtype == values.dtype == float
    expected = [[float(e), float(Fraction(k, 3))] for k, e in enumerate(entries)]
    assert points.tobytes() == np.array(expected).tobytes()
    assert values.tobytes() == np.array([float(e) for e in entries[::-1]]).tobytes()
    huge = SampleSet([(Fraction(10**400, 3),), (0,)], [0, 1])
    with pytest.raises(OverflowError):
        float(Fraction(10**400, 3))
    with pytest.raises(OverflowError):
        huge.view(False)
