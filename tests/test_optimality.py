"""Certificates, witnesses, the fit's own certificate, and the separability view."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit import (
    ExtremeSets,
    IntersectionCertificate,
    PolynomialModel,
    SampleSet,
    SeparationWitness,
    build_basis,
    check_hull_intersection,
    check_isolability,
    evaluate,
    extreme_sets,
    find_critical_point_set,
    fit_minimax,
    hulls_intersect,
    split,
    verify_certificate,
    verify_witness,
)
from minimaxfit import optimality
from minimaxfit._linalg import affine_normal
from minimaxfit.cli import parse_grid_spec
from minimaxfit.fitting import DEFAULT_REL_TOL, model_values, partition_extremes
from minimaxfit.lp import LpFailure, LpSolution, solve, solve_exact
from minimaxfit.optimality import _moment_lp, certified_meet

from support import build_fit_corpus, random_samples, reference_max_margin, reference_moment_certificate


@pytest.fixture(scope="module")
def xy_instance():
    pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    samples = SampleSet(pts, [x * y for x, y in pts])
    fit = fit_minimax(samples, 1, exact=True)
    return samples, extreme_sets(fit.model, samples, rel_tol=0)


@pytest.fixture(scope="module")
def parabola_instance():
    samples = SampleSet([(-1,), (0,), (1,)], [1, 0, 1])
    fit = fit_minimax(samples, 1)
    return samples, fit, extreme_sets(fit.model, samples)


class TestHullIntersection:
    def test_xy_certificate_weights(self, xy_instance):
        samples, extremes = xy_instance
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        assert isinstance(cert, IntersectionCertificate)
        assert cert.alpha == (Fraction(1, 2), Fraction(1, 2))
        assert cert.beta == (Fraction(1, 2), Fraction(1, 2))
        assert cert.moment_residual == 0

    def test_univariate_midpoint_certificate(self):
        samples = SampleSet([(-1,), (0,), (1,)], [0, 0, 0])
        extremes = ExtremeSets(plus=(0, 2), minus=(1,), psi=1.0, rel_tol=0.0)
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        assert isinstance(cert, IntersectionCertificate)
        assert cert.alpha == (Fraction(1, 2), Fraction(1, 2))
        assert cert.beta == (Fraction(1),)

    def test_two_separable_points_give_witness(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(1,), minus=(0,), psi=1.0, rel_tol=0.0)
        out = check_hull_intersection(extremes, samples, 1)
        assert isinstance(out, SeparationWitness)
        # normalised strict separation, e.g. 2x - 1 up to scaling
        assert out.model(samples.points[1]) >= 1 - 1e-9
        assert out.model(samples.points[0]) <= -1 + 1e-9

    def test_perturbed_fit_loses_certificate(self, parabola_instance):
        samples, fit, _ = parabola_instance
        bumped = PolynomialModel(fit.model.basis, (fit.model.coefficients[0] + 0.01, 0.3))
        extremes = extreme_sets(bumped, samples)
        out = check_hull_intersection(extremes, samples, 1)
        assert isinstance(out, SeparationWitness)
        assert verify_witness(out, extremes.plus, extremes.minus, samples)

    def test_empty_side_returns_witness_immediately(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(0, 1), minus=(), psi=1.0, rel_tol=0.0)
        out = check_hull_intersection(extremes, samples, 1)
        assert isinstance(out, SeparationWitness)
        assert out.minus_margin is None
        assert out.plus_margin >= 1

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_strict_separator_is_an_lp_failure(self, exact, monkeypatch):
        samples = SampleSet([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)], [0] * 5)
        extremes = ExtremeSets(plus=(0, 1), minus=(2, 3), psi=1, rel_tol=0.0)
        monkeypatch.setattr(optimality, "duals", lambda lp, sol: [0] * lp.num_rows)  # A = 0 separates nothing
        with pytest.raises(LpFailure, match="no strict separator"):
            check_hull_intersection(extremes, samples, 1, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_weights_that_fail_a_check_at_a_margin_read_as_zero_are_an_lp_failure(self, exact, monkeypatch):
        # the corners' margin LP meets at 1/4 on each point; its weights moved by 1e-6 along E+ keep
        # their sum but miss the x and y moments, and t is set to what a float solve may read for 0:
        # not isolable, yet not proved optimal either, so the certificate step names t and the check
        samples = SampleSet([(-1, -1), (-1, 1), (1, -1), (1, 1)], [0] * 4)
        extremes = ExtremeSets(plus=(0, 3), minus=(1, 2), psi=1, rel_tol=0.0)
        name = "solve_exact" if exact else "solve"
        real, shift, t = getattr(optimality, name), Fraction(1, 10**6) if exact else 1e-6, 0 if exact else 5e-10

        def skewed(lp):
            sol = real(lp)
            assert sol.x[:4] == [Fraction(1, 4)] * 4
            return replace(sol, x=[sol.x[0] + shift, sol.x[1] - shift, *sol.x[2:]], objective_value=t)

        monkeypatch.setattr(optimality, name, skewed)
        iso = check_isolability(extremes, samples, 1, exact)
        assert not iso.isolable and iso.margin == t and iso.weights[0] == (Fraction(1, 2) + 2 * shift,
                                                                          Fraction(1, 2) - 2 * shift)
        with pytest.raises(LpFailure, match=f"^margin {t} reads not isolable, but its weights fail "
                                            "certificate_moments$") as failure:
            check_hull_intersection(extremes, samples, 1, exact=exact)
        assert failure.value.diagnostics == {"margin": t, "failed": ["certificate_moments"]}

    @pytest.mark.parametrize("exact", [False, True])
    def test_margin_lp_of_another_status_is_an_lp_failure(self, exact, monkeypatch):
        # weight one on a point, s+- its |moments|, is feasible and costs >= 0, so the margin LP is optimal
        # or fails with its pivots
        samples = SampleSet([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)], [0] * 5)
        extremes = ExtremeSets(plus=(0, 1), minus=(2, 3), psi=1, rel_tol=0.0)
        monkeypatch.setattr(optimality, "solve_exact" if exact else "solve",
                            lambda lp: LpSolution("infeasible", farkas=[0] * lp.num_rows, iterations=6))
        with pytest.raises(LpFailure, match="^margin LP came back infeasible$") as failure:
            check_hull_intersection(extremes, samples, 1, exact=exact)
        assert failure.value.diagnostics == {"status": "infeasible", "iterations": 6}

    @pytest.mark.parametrize("exact", [False, True])
    def test_margin_lp_without_duals_is_an_lp_failure(self, exact, monkeypatch):
        # the separating coefficients are the margin LP's duals: a basis `duals` cannot solve gives no witness
        samples = SampleSet([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)], [0] * 5)
        extremes = ExtremeSets(plus=(0, 1), minus=(2, 3), psi=1, rel_tol=0.0)
        assert check_isolability(extremes, samples, 1, exact).isolable
        monkeypatch.setattr(optimality, "duals", lambda lp, sol: None)
        with pytest.raises(LpFailure, match="^margin LP has no duals at its basis$") as failure:
            check_isolability(extremes, samples, 1, exact)
        assert failure.value.diagnostics["iterations"] > 0

    @pytest.mark.parametrize("kind", [float, Fraction, int])
    def test_witness_replay_agrees_with_evaluate_at_each_point(self, kind):
        # the replay's one dot_rows decides as evaluating the witness point by point would;
        # a zero value separates strictly on neither side
        half = {float: 0.5, Fraction: Fraction(1, 2), int: 1}[kind]
        pts = [(x * half, kind(y)) for x in range(-4, 5) for y in range(-2, 3)]
        samples = SampleSet(pts, [kind(0)] * len(pts))
        model = PolynomialModel(build_basis(2, 2), tuple(map(kind, (-2, 1, 1, 0, 1, -1))))
        values = [evaluate(model, p) for p in pts]
        pos, neg = [i for i, v in enumerate(values) if v > 0], [i for i, v in enumerate(values) if v < 0]
        zero = [i for i, v in enumerate(values) if v == 0]
        assert pos and neg and zero
        witness = SeparationWitness(model, None, None)
        assert verify_witness(witness, pos, neg, samples) and verify_witness(witness, pos, [], samples)
        assert verify_witness(witness, [], [], samples)
        for plus, minus in ((pos + zero[:1], neg), (pos, neg + zero[-1:]), (neg, pos), (pos[:3], pos[3:4])):
            assert not verify_witness(witness, plus, minus, samples)
        # and its values are evaluate's, bit for bit, over float and rational tables alike
        rng = random.Random(4)
        floats = PolynomialModel(model.basis, tuple(rng.uniform(-3, 3) for _ in range(model.basis.size)))
        got = model_values(floats, samples, range(len(pts))).tolist()
        assert [v.hex() for v in got] == [evaluate(floats, p).hex() for p in pts]

    def test_certificate_replay(self, xy_instance):
        samples, extremes = xy_instance
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        assert verify_certificate(cert, samples) == 0


class TestLinearCase:
    def test_point_inside_interval(self):
        samples = SampleSet([(-0.5,), (1.0,), (0.5,)], [0, 0, 0])
        extremes = ExtremeSets(plus=(0, 1), minus=(2,), psi=1.0, rel_tol=0.0)
        out = check_hull_intersection(extremes, samples, 1)
        assert isinstance(out, IntersectionCertificate)

    def test_distinct_singletons_separable(self):
        samples = SampleSet([(0.0, 0.0), (1.0, 1.0)], [0, 0])
        extremes = ExtremeSets(plus=(0,), minus=(1,), psi=1.0, rel_tol=0.0)
        assert isinstance(check_hull_intersection(extremes, samples, 1), SeparationWitness)

    def test_shared_point_certificate(self):
        samples = SampleSet([(0.3, 0.7)], [0])
        extremes = ExtremeSets(plus=(0,), minus=(0,), psi=1.0, rel_tol=0.0)
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        assert isinstance(cert, IntersectionCertificate)
        assert cert.alpha == (1,) and cert.beta == (1,)


class TestIsolability:
    def test_optimal_extremes_not_isolable(self, parabola_instance):
        samples, _, extremes = parabola_instance
        res = check_isolability(extremes, samples, 1)
        assert not res.isolable

    def test_two_points_isolable_with_witness(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(1,), minus=(0,), psi=1.0, rel_tol=0.0)
        res = check_isolability(extremes, samples, 1)
        assert res.isolable
        assert res.witness is not None
        assert res.witness.model(samples.points[1]) >= 1 - 1e-9
        assert res.witness.model(samples.points[0]) <= -1 + 1e-9

    def test_rejects_two_empty_extreme_sets(self, parabola_instance):
        samples = parabola_instance[0]
        with pytest.raises(ValueError, match="both extreme sets are empty"):
            check_isolability(ExtremeSets(plus=(), minus=(), psi=1.0, rel_tol=0.0), samples, 1)

    def test_xy_corners_not_isolable(self, xy_instance):
        samples, extremes = xy_instance
        assert not check_isolability(extremes, samples, 1, exact=True).isolable

    @pytest.mark.parametrize("exact", [False, True])
    def test_margin_is_the_primal_max_margin(self, exact):
        """The l1 LP's optimum against the primal LP with |A_k| <= 1 as rows, on random and fitted extreme sets.

        Equal in exact arithmetic, within 1e-9 max(1, |t|) in float, with the
        same verdict; an isolable verdict's witness separates strictly.
        """
        rng = random.Random(83 + exact)
        cases = []
        for dimension in (1, 2, 3):
            for _ in range(8):
                samples = random_samples(rng, dimension, rng.randint(3, 12))
                samples = SampleSet(*samples.view(True)) if exact else samples
                idx = rng.sample(range(len(samples)), rng.randint(2, len(samples)))
                cut = rng.randint(1, len(idx) - 1)
                extremes = ExtremeSets(plus=tuple(sorted(idx[:cut])), minus=tuple(sorted(idx[cut:])), psi=1,
                                       rel_tol=0.0)
                cases.append((samples, extremes, rng.randint(1, 4 - dimension)))
        for inst in build_fit_corpus(seed=90, count=8, dims=(1, 2, 3), degrees=(1, 2), point_range=(6, 16)):
            cases.append((*_instance_in(inst, exact), inst.degree))
        verdicts = set()
        for samples, extremes, degree in cases:
            got = check_isolability(extremes, samples, degree, exact)
            ref = reference_max_margin(samples.lifted(extremes.plus, degree, exact),
                                       samples.lifted(extremes.minus, degree, exact), exact)
            if exact:
                assert got.margin == ref and got.isolable == (ref > 0)
            else:
                assert abs(got.margin - ref) <= 1e-9 * max(1, abs(ref))
                assert got.isolable == (ref > optimality.ISOLABLE_MARGIN)
            assert got.isolable == (got.witness is not None)
            assert not got.isolable or verify_witness(got.witness, extremes.plus, extremes.minus, samples)
            verdicts.add(got.isolable)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("exact", [False, True])
    def test_witness_smaller_margin_is_one_up_to_rounding(self, exact):
        """The witness's smaller margin: exactly one in exact arithmetic, one within float rounding otherwise.

        A float witness's coefficients are divided by the least margin and
        evaluated again, so its margin may miss one by the rounding of those
        sums, some n eps sum |c_i g_i| on a point's lifted row g.
        """
        rng = random.Random(5 + exact)
        misses = []
        for dimension in (1, 2, 3):
            for _ in range(15):
                samples = random_samples(rng, dimension, rng.randint(3, 12))
                samples = SampleSet(*samples.view(True)) if exact else samples
                idx = rng.sample(range(len(samples)), rng.randint(2, len(samples)))
                cut = rng.randint(1, len(idx) - 1)
                extremes = ExtremeSets(plus=tuple(sorted(idx[:cut])), minus=tuple(sorted(idx[cut:])), psi=1,
                                       rel_tol=0.0)
                degree = rng.randint(1, 4 - dimension)
                iso = check_isolability(extremes, samples, degree, exact)
                if not iso.isolable:
                    continue
                witness = iso.witness
                assert verify_witness(witness, extremes.plus, extremes.minus, samples)
                assert witness.plus_margin > 0 > witness.minus_margin
                miss = min(witness.plus_margin, -witness.minus_margin) - 1
                if exact:
                    assert miss == 0
                else:
                    rows = np.abs(samples.lifted([*extremes.plus, *extremes.minus], degree, False))
                    width = rows.shape[1]
                    assert abs(miss) <= 2 * width * 2.0**-52 * (rows @ np.abs(witness.model.coefficients)).max()
                misses.append(miss)
        assert len(misses) >= 20
        assert exact or any(misses)  # float rounding does move some of them off one

    def test_certified_float_margin_is_not_negative(self):
        # this certified fit's margin LP ends 5e-15 below zero; A = 0 with t = 0 is feasible, so t reads 0
        target = "-4*x1^3+4*x1^2*x2-2*x1^4+4*x1^2*x2^2-2*x2^4-5*x1^5-4*x1^4*x2+4*x1^3*x2^2-4*x1^2*x2^3+x1*x2^4+5*x2^5"
        samples = parse_grid_spec("-1,1:-1,1;21;chebyshev;" + target)
        extremes = extreme_sets(fit_minimax(samples, 4).model, samples)
        assert isinstance(check_hull_intersection(extremes, samples, 4), IntersectionCertificate)
        iso = check_isolability(extremes, samples, 4)
        assert not iso.isolable and iso.margin >= 0 and type(iso.margin) is float

    def test_agrees_with_certificate_on_corpus(self):
        corpus = build_fit_corpus(seed=404, count=20, dims=(1, 2), degrees=(1, 2), point_range=(5, 20))
        for inst in corpus:
            has_cert = isinstance(
                check_hull_intersection(inst.extremes, inst.samples, inst.degree),
                IntersectionCertificate,
            )
            iso = check_isolability(inst.extremes, inst.samples, inst.degree)
            assert has_cert == (not iso.isolable)


class TestExactWeights:
    """`certified_meet` takes only unique non-negative weights on independent columns that match every moment."""

    @staticmethod
    def _meet(points, plus, minus, degree=1):
        samples = SampleSet([tuple(map(Fraction, p)) for p in points], [0] * len(points))
        return certified_meet(samples, (set(plus), set(minus)), degree)

    def test_crossing_segments_meet_at_their_unique_weights(self):
        # weights (1/2, 1/2) on each side, so every point is in the support
        points = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        assert self._meet(points, [0, 1], [2, 3]) == (frozenset({0, 1}), frozenset({2, 3}))

    def test_dependent_columns_are_rejected_though_the_hulls_meet(self):
        # three collinear plus points: the origin is (0, 1, 0) or (1/2, 0, 1/2) of them
        points = [(-1, 0), (0, 0), (1, 0), (0, -1), (0, 1)]
        assert self._meet(points, [0, 1, 2], [3, 4]) is None
        assert hulls_intersect(SampleSet(points, [0] * 5), [0, 1, 2], [3, 4], 1, exact=True)

    def test_a_negative_weight_is_rejected(self):
        # the segments' lines cross at (3, 0), which lies outside the plus segment: weights (-1/2, 3/2)
        points = [(0, 0), (2, 0), (3, 1), (3, -1)]
        assert self._meet(points, [0, 1], [2, 3]) is None
        assert hulls_intersect(SampleSet(points, [0] * 4), [0, 1], [2, 3], 1, exact=True) is None

    def test_an_inconsistent_system_is_rejected(self):
        assert self._meet([(0, 0), (1, 1)], [0], [1]) is None
        assert self._meet([(0, 0), (1, 0), (2, 0), (0, 1)], [0, 1], [2, 3]) is None

    def test_only_exactly_positive_weights_are_kept(self):
        # point 0 on both sides matches every moment; point 1 takes weight 0, so it is not in the support
        points = [(0, 0), (1, 1)]
        assert self._meet(points, [0, 1], [0], degree=2) == (frozenset({0}), frozenset({0}))
        samples = SampleSet([tuple(map(Fraction, p)) for p in points], [0, 0])
        assert certified_meet(samples, ({1, 0}, {0}), 2) == (frozenset({0}), frozenset({0}))
        assert certified_meet(samples, None, 2) is None
        assert certified_meet(samples, ({1}, {0}), 2) is None


class TestCriticalPointSet:
    def test_rejects_two_empty_extreme_sets(self, parabola_instance):
        samples = parabola_instance[0]
        with pytest.raises(ValueError, match="both extreme sets are empty"):
            find_critical_point_set(ExtremeSets(plus=(), minus=(), psi=1.0, rel_tol=0.0), samples, 1)

    def test_parabola_full_set_is_critical(self, parabola_instance):
        samples, _, extremes = parabola_instance
        assert find_critical_point_set(extremes, samples, 1) == [0, 1, 2]

    def test_isolable_gives_none(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(1,), minus=(0,), psi=1.0, rel_tol=0.0)
        assert find_critical_point_set(extremes, samples, 1) is None

    def test_xy_corners_all_critical(self, xy_instance):
        samples, extremes = xy_instance
        crit = find_critical_point_set(extremes, samples, 1, exact=True)
        assert crit == [0, 1, 2, 3]

    def test_deleting_any_member_restores_isolability(self):
        corpus = build_fit_corpus(seed=70, count=12, dims=(1, 2), degrees=(1, 2), point_range=(6, 14))
        checked = proper = 0
        for inst, exact, rel_tol in itertools.product(corpus, (False, True), (DEFAULT_REL_TOL, 0.25)):
            samples, extremes = _instance_in(inst, exact, rel_tol)  # the wide band holds spare points
            if extremes.degenerate:
                continue
            crit = find_critical_point_set(extremes, samples, inst.degree, exact)
            assert crit is not None
            proper += len(crit) < len(set(extremes.plus + extremes.minus))
            whole = ExtremeSets(
                plus=tuple(i for i in crit if i in extremes.plus),
                minus=tuple(i for i in crit if i in extremes.minus),
                psi=extremes.psi,
                rel_tol=extremes.rel_tol,
            )
            assert not check_isolability(whole, samples, inst.degree, exact).isolable
            for idx in crit:
                trimmed = ExtremeSets(
                    plus=tuple(i for i in crit if i != idx and i in extremes.plus),
                    minus=tuple(i for i in crit if i != idx and i in extremes.minus),
                    psi=extremes.psi,
                    rel_tol=extremes.rel_tol,
                )
                assert check_isolability(trimmed, samples, inst.degree, exact).isolable
            checked += samples.dimension == 2
        assert checked >= 12 and proper >= 12

    @pytest.mark.parametrize("exact", [False, True])
    def test_runs_no_margin_lp_and_at_most_one_moment_lp(self, exact, monkeypatch):
        moment_lps, margin_lps = _recorded(monkeypatch, "_moment_lp"), _recorded(monkeypatch, "_margin_lp")
        corpus = build_fit_corpus(seed=71, count=10, dims=(1, 2), degrees=(1, 2), point_range=(6, 14))
        for inst in corpus:
            samples, extremes = _instance_in(inst, exact)
            moment_lps.clear()
            find_critical_point_set(extremes, samples, inst.degree, exact)
            assert len(moment_lps) <= (0 if samples.dimension == 1 else 1) and not margin_lps


def _recorded(monkeypatch, name):
    """The arguments of every later call of `optimality.<name>`, which still runs."""
    calls, real = [], getattr(optimality, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimality, name, recording)
    return calls


def _instance_in(inst, exact, rel_tol=DEFAULT_REL_TOL):
    """The corpus instance's samples and extreme sets, refitted over ``Fraction`` when `exact`."""
    if not exact:
        return inst.samples, extreme_sets(inst.fit.model, inst.samples, rel_tol)
    samples = SampleSet(*inst.samples.view(True))
    return samples, extreme_sets(fit_minimax(samples, inst.degree, exact=True).model, samples, rel_tol)


class TestShiftInvariance:
    def test_certificate_weights_survive_translation(self):
        # replaying the same weights on translated points keeps every moment
        # matched: that is exactly the weighted shift identity
        corpus = build_fit_corpus(seed=55, count=8, dims=(1, 2), degrees=(1, 2), point_range=(6, 15))
        rng = random.Random(99)
        for inst in corpus:
            out = check_hull_intersection(inst.extremes, inst.samples, inst.degree)
            if not isinstance(out, IntersectionCertificate):
                continue
            shift = tuple(rng.uniform(-2, 2) for _ in range(inst.samples.dimension))
            moved = SampleSet(
                [tuple(c - s for c, s in zip(p, shift)) for p in inst.samples.points],
                inst.samples.values,
            )
            assert abs(verify_certificate(out, moved)) <= 1e-8


def test_float_rows_give_a_float64_moment_lp():
    # the same rows as float64 or as an object array of Python floats: the same vertex or
    # Farkas witness, pivot for pivot, over the fitted extreme sets and with one point dropped
    statuses = []
    for inst in build_fit_corpus(5, 12, dims=(2, 3), degrees=(1, 2), point_range=(8, 20)):
        plus = inst.samples.lifted(inst.extremes.plus, inst.degree, False)
        minus = inst.samples.lifted(inst.extremes.minus, inst.degree, False)
        for p, q in ((plus, minus), (plus[1:], minus), (plus, minus[1:])):
            if not (len(p) and len(q)):
                continue
            lp, held = _moment_lp(p, q), _moment_lp(p.astype(object), q.astype(object))
            assert (lp.A.dtype, held.A.dtype) == (float, object)
            got, ref = solve(lp), solve(held)
            assert (got.status, got.x, got.farkas, got.iterations) == (ref.status, ref.x, ref.farkas, ref.iterations)
            statuses.append(got.status)
    assert {"optimal", "infeasible"} <= set(statuses)


def _moment_lp_meets(samples, plus, minus, degree, exact):
    if not plus or not minus:
        return False
    lp = _moment_lp(samples.lifted(plus, degree, exact), samples.lifted(minus, degree, exact))
    return (solve_exact if exact else solve)(lp).status == "optimal"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_dimensional_hulls_meet_as_the_moment_lp_says(data):
    """The sign-block rule of `hulls_intersect` on a line against the moment LP, in both arithmetics."""
    exact = data.draw(st.booleans())
    degree = data.draw(st.integers(0, 6))
    coords = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12, unique=True))
    samples = SampleSet([(Fraction(c, 20) if exact else c / 20,) for c in coords], [0] * len(coords))
    indices = st.lists(st.integers(0, len(coords) - 1), unique=True, max_size=len(coords))
    plus, minus = data.draw(indices), data.draw(indices)  # either may be empty, one point, or share one
    if data.draw(st.booleans()):  # disjoint classes, as every split hands over
        minus = [i for i in minus if i not in plus]
    got = hulls_intersect(samples, plus, minus, degree, exact)
    assert (got is not None) == _moment_lp_meets(samples, plus, minus, degree, exact)
    if got is None:
        return
    support_plus, support_minus = sorted(got[0]), sorted(got[1])
    assert set(support_plus) <= set(plus) and set(support_minus) <= set(minus)
    shared = set(plus) & set(minus)
    assert len(support_plus) + len(support_minus) == (2 if shared else degree + 2)
    # the support meets on its own, with every weight strictly positive
    lifted = [samples.lifted(side, degree, True) for side in (support_plus, support_minus)]
    sol = solve_exact(_moment_lp(*lifted))
    assert sol.status == "optimal" and all(w > 0 for w in sol.x)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_fit_duals_certify_where_the_moment_lp_does(monkeypatch, dimension, exact):
    """On random fits, the certificate read from the fit's LP duals, and the margin LP's, against the moment LP's.

    The moment LP's vertex (`support.reference_moment_certificate`) is the
    reference.  All three replay through `verify_certificate`; the fit's is
    taken with no hull LP and puts non-zero weight on at most n_m + 2
    points, and the margin LP's with that one LP.
    """
    moment_lps, margin_lps = _recorded(monkeypatch, "_moment_lp"), _recorded(monkeypatch, "_margin_lp")
    rng = random.Random(10 * dimension + exact)
    for _ in range(8 if exact else 25):
        degree = rng.choice((1, 2, 3) if dimension == 1 else (1, 2))
        basis = build_basis(dimension, degree)
        samples = random_samples(rng, dimension, rng.randint(basis.size + 2, 2 * basis.size + 4))
        if exact:
            samples = SampleSet(*samples.view(True))
        fit = fit_minimax(samples, degree, exact)
        extremes = partition_extremes(fit.residuals, 0 if exact else DEFAULT_REL_TOL)
        assert not extremes.degenerate
        moment_lps.clear()
        margin_lps.clear()
        own = check_hull_intersection(extremes, samples, degree, exact, fit.weights)
        assert not moment_lps and not margin_lps
        margin = check_hull_intersection(extremes, samples, degree, exact)
        assert not moment_lps and len(margin_lps) == 1
        for cert in own, margin, reference_moment_certificate(extremes, samples, degree, exact):
            assert isinstance(cert, IntersectionCertificate)
            assert verify_certificate(cert, samples) == cert.moment_residual
            if exact:
                assert sum(cert.alpha) == sum(cert.beta) == 1 and min(cert.alpha + cert.beta) >= 0
                assert cert.moment_residual == 0
            else:
                assert abs(sum(cert.alpha) - 1) <= 1e-9 and abs(sum(cert.beta) - 1) <= 1e-9
                assert min(cert.alpha + cert.beta) >= -1e-9 and cert.moment_residual <= 1e-8
        assert exact or own.moment_residual <= 1e-12
        assert sum(w != 0 for w in own.alpha + own.beta) <= basis.size + 1  # n_m + 2, n_m = basis.size - 1


@pytest.mark.parametrize("dimension", [2, 3])
def test_float_and_exact_hull_tests_agree_on_random_classes(dimension):
    """`hulls_intersect` in both arithmetics on random float class pairs: the same verdict, and vertex supports.

    An exact meet is a vertex of its moment LP, so `certified_meet` gives
    it back as it stands.  Where the float meet's support has exact
    weights, the exact test takes that support (it proposes the float
    vertex first).
    """
    rng = random.Random(60 + dimension)
    outcomes = {"meet": 0, "apart": 0, "proposed": 0}
    for _ in range(12):
        samples = random_samples(rng, dimension, rng.randint(8, 12 * dimension))
        degree = rng.randint(1, 5 - dimension)
        for _ in range(10):
            rows = rng.sample(range(len(samples)), rng.randint(4, len(samples)))
            cut = rng.randint(1, len(rows) - 1)
            plus, minus = rows[:cut], rows[cut:]
            found = hulls_intersect(samples, plus, minus, degree)
            exact = hulls_intersect(samples, plus, minus, degree, exact=True)
            assert (found is None) == (exact is None)
            outcomes["apart" if exact is None else "meet"] += 1
            if exact is None:
                continue
            assert exact[0] <= set(plus) and exact[1] <= set(minus)
            assert certified_meet(samples, exact, degree) == exact
            proposed = certified_meet(samples, found, degree)
            if proposed:
                assert exact == proposed
                outcomes["proposed"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_a_float_hull_test_whose_simplex_breaks_down_is_decided_exactly(monkeypatch):
    # the float abs-Chebyshev extremes at m = 4 without their first E+ point, split by the line through
    # samples 1 and 188: the degree-3 moment LP of the 75 + 69 flipped points runs the float phase 1
    # past its pivot cap, so the test is decided by one `solve_exact`, whose vertex meets
    samples = parse_grid_spec("-1,1:-1,1;21;chebyshev;abs(x1)+x2^3")
    extremes = extreme_sets(fit_minimax(samples, 4).model, samples)
    assert (len(extremes.plus), len(extremes.minus)) == (84, 63)
    points = samples.view(False)[0]
    sp = split(replace(extremes, plus=extremes.plus[1:]), samples, *affine_normal([points[1], points[188]]))
    assert (len(sp.plus_side), len(sp.minus_side)) == (75, 69)
    rational = []
    monkeypatch.setattr(optimality, "solve_exact", lambda lp: rational.append(lp) or solve_exact(lp))
    found = hulls_intersect(samples, sp.plus_side, sp.minus_side, 3)
    assert len(rational) == 1
    assert found and found[0] <= set(sp.plus_side) and found[1] <= set(sp.minus_side)
    assert certified_meet(samples, found, 3) == found


@pytest.mark.parametrize("meet", [True, False])
def test_an_exact_hull_test_takes_a_float_lp_failure_as_no_proposal(meet, monkeypatch):
    # the float proposal's `LpFailure` leaves the exact test to one `solve_exact`, not one inside the
    # proposal and one after it
    samples = SampleSet([(0, 0), (2, 0), (0, 2), (1, 1), (5, 5)], [0] * 5)
    plus, minus = (0, 1, 2), (3,) if meet else (4,)  # (1, 1) is the midpoint of (2, 0) and (0, 2)

    def failing(lp, start=None):
        raise LpFailure("float breakdown")

    rational = []
    monkeypatch.setattr(optimality, "solve", failing)
    monkeypatch.setattr(optimality, "solve_exact", lambda lp: rational.append(lp) or solve_exact(lp))
    found = hulls_intersect(samples, plus, minus, 1, exact=True)
    assert len(rational) == 1
    assert found == ((frozenset({1, 2}), frozenset({3})) if meet else None)
