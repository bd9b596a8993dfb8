"""Certificates, witnesses, support reduction, and the separability view."""

import random
from fractions import Fraction

import pytest

from minimaxfit import (
    ExtremeSets,
    IntersectionCertificate,
    PolynomialModel,
    SampleSet,
    SeparationWitness,
    build_basis,
    caratheodory_reduce,
    check_hull_intersection,
    check_isolability,
    extreme_sets,
    find_critical_point_set,
    fit_minimax,
    verify_certificate,
    verify_witness,
)

from support import build_fit_corpus


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

    def test_certificate_replay(self, xy_instance):
        samples, extremes = xy_instance
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        assert verify_certificate(cert, samples) == 0


class TestCaratheodoryReduce:
    def test_small_support_unchanged(self):
        samples = SampleSet([(-1,), (0,), (1,)], [0, 0, 0])
        extremes = ExtremeSets(plus=(0, 2), minus=(1,), psi=1.0, rel_tol=0.0)
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        reduced = caratheodory_reduce(cert, samples)
        assert reduced.support_size == cert.support_size
        assert reduced.moment_residual == 0

    def test_collinear_support_is_reduced(self):
        # four support points for degree 1 in R^1: one more than n_m + 2 = 3
        samples = SampleSet([(-1,), (-0.5,), (1,), (0,)], [0, 0, 0, 0])
        cert = IntersectionCertificate(
            degree=1,
            plus_indices=(0, 1, 2),
            minus_indices=(3,),
            alpha=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            beta=(Fraction(1),),
            moment_residual=0,
            exact=True,
        )
        # hand check: mean of E+ is (-1)/4 + (-1/2)/4 + 1/2 = 1/8... recompute:
        # -1/4 - 1/8 + 1/2 = 1/8 != 0, so align the minus point with the mean
        samples = SampleSet([(-1,), (-0.5,), (1,), (Fraction(1, 8),)], [0, 0, 0, 0])
        assert verify_certificate(cert, samples) == 0
        reduced = caratheodory_reduce(cert, samples)
        assert reduced.support_size <= 3
        assert verify_certificate(reduced, samples) == 0
        assert sum(reduced.alpha) == 1 and sum(reduced.beta) == 1

    def test_xy_certificate_already_tight(self, xy_instance):
        samples, extremes = xy_instance
        cert = check_hull_intersection(extremes, samples, 1, exact=True)
        reduced = caratheodory_reduce(cert, samples)
        assert reduced.support_size == 4  # 4 <= n_m + 2 = 5
        assert reduced.alpha == cert.alpha and reduced.beta == cert.beta

    def test_never_grows_support_and_preserves_verdict(self):
        corpus = build_fit_corpus(seed=303, count=10, dims=(1, 2), degrees=(1, 2), point_range=(6, 16))
        for inst in corpus:
            out = check_hull_intersection(inst.extremes, inst.samples, inst.degree)
            if not isinstance(out, IntersectionCertificate):
                continue
            reduced = caratheodory_reduce(out, inst.samples)
            basis = build_basis(inst.samples.dimension, inst.degree)
            assert reduced.support_size <= min(out.support_size, basis.nonconstant_count + 2)
            assert abs(verify_certificate(reduced, inst.samples)) <= 1e-7


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

    def test_xy_corners_not_isolable(self, xy_instance):
        samples, extremes = xy_instance
        assert not check_isolability(extremes, samples, 1, exact=True).isolable

    def test_agrees_with_certificate_on_corpus(self):
        corpus = build_fit_corpus(seed=404, count=20, dims=(1, 2), degrees=(1, 2), point_range=(5, 20))
        for inst in corpus:
            has_cert = isinstance(
                check_hull_intersection(inst.extremes, inst.samples, inst.degree),
                IntersectionCertificate,
            )
            iso = check_isolability(inst.extremes, inst.samples, inst.degree)
            assert has_cert == (not iso.isolable)


class TestCriticalPointSet:
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
        corpus = build_fit_corpus(seed=70, count=6, dims=(1,), degrees=(1, 2), point_range=(6, 14))
        for inst in corpus:
            if inst.extremes.degenerate:
                continue
            crit = find_critical_point_set(inst.extremes, inst.samples, inst.degree)
            assert crit is not None
            for idx in crit:
                trimmed = ExtremeSets(
                    plus=tuple(i for i in crit if i != idx and i in inst.extremes.plus),
                    minus=tuple(i for i in crit if i != idx and i in inst.extremes.minus),
                    psi=inst.extremes.psi,
                    rel_tol=inst.extremes.rel_tol,
                )
                assert check_isolability(trimmed, inst.samples, inst.degree).isolable


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
