"""Hyperplane splits, split conditions, and the enumeration verdicts."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from minimaxfit import (
    ExtremeSets,
    IntersectionCertificate,
    LpFailure,
    PolynomialModel,
    SampleSet,
    build_basis,
    check_hull_intersection,
    check_split_condition,
    count_alternations,
    extreme_sets,
    fit_minimax,
    hulls_intersect,
    lift,
    split,
    verify_by_hyperplanes,
)
from minimaxfit import alternation, optimality
from minimaxfit._linalg import affine_normal
from minimaxfit.alternation import _candidate_planes

from support import build_fit_corpus, random_samples, synthetic_univariate


@pytest.fixture(scope="module")
def cubic_extremes():
    # the four equioscillation points of the cubic fit, signs -, +, -, +
    samples = SampleSet([(-1.0,), (-0.5,), (0.5,), (1.0,)], [0, 0, 0, 0])
    extremes = ExtremeSets(plus=(1, 3), minus=(0, 2), psi=1.0, rel_tol=0.0)
    return samples, extremes


class TestSplit:
    def test_plane_at_left_end(self, cubic_extremes):
        samples, extremes = cubic_extremes
        sp = split(extremes, samples, (1.0,), -1.0)
        assert [samples.points[i][0] for i in sp.on_plane_minus] == [-1.0]
        assert sp.on_plane_plus == ()
        assert [samples.points[i][0] for i in sp.plus_side] == [-0.5, 1.0]
        assert [samples.points[i][0] for i in sp.minus_side] == [0.5]

    def test_plane_beyond_all_points(self, cubic_extremes):
        samples, extremes = cubic_extremes
        sp = split(extremes, samples, (1.0,), -5.0)
        # everything sits in the positive half-space: no sign flips at all
        assert set(sp.plus_side) == set(extremes.plus)
        assert set(sp.minus_side) == set(extremes.minus)
        assert sp.on_plane_plus == () and sp.on_plane_minus == ()

    def test_plane_through_no_points(self, cubic_extremes):
        samples, extremes = cubic_extremes
        sp = split(extremes, samples, (1.0,), 0.1)
        assert sp.on_plane_plus == () and sp.on_plane_minus == ()

    def test_zero_normal_rejected(self, cubic_extremes):
        samples, extremes = cubic_extremes
        with pytest.raises(ValueError):
            split(extremes, samples, (0.0,), 0.0)

    def test_sign_flip_involution(self, cubic_extremes):
        samples, extremes = cubic_extremes
        fwd = split(extremes, samples, (1.0,), -0.5)
        rev = split(extremes, samples, (-1.0,), 0.5)
        assert set(fwd.plus_side) == set(rev.minus_side)
        assert set(fwd.minus_side) == set(rev.plus_side)
        assert fwd.on_plane_plus == rev.on_plane_plus
        assert fwd.on_plane_minus == rev.on_plane_minus

    def test_partition_is_exact(self, cubic_extremes):
        samples, extremes = cubic_extremes
        sp = split(extremes, samples, (1.0,), -0.5)
        buckets = [sp.plus_side, sp.minus_side, sp.on_plane_plus, sp.on_plane_minus]
        indices = sorted(i for bucket in buckets for i in bucket)
        assert indices == sorted(set(extremes.plus) | set(extremes.minus))


class TestSplitCondition:
    def test_cubic_degree_reduction(self, cubic_extremes):
        samples, extremes = cubic_extremes
        sp = split(extremes, samples, (1.0,), -1.0)
        cond = check_split_condition(sp, samples, 2)
        assert cond.holds and cond.via == "degree_reduction"
        assert cond.degree_reduction is True

    def test_point_elimination_via_shared_location(self):
        # a point carrying both deviation signs sits on the plane: its lifted
        # vectors coincide, so the same-degree on-plane hulls trivially meet
        samples = SampleSet([(0.0, 0.5)], [0])
        extremes = ExtremeSets(plus=(0,), minus=(0,), psi=1.0, rel_tol=0.0)
        sp = split(extremes, samples, (1.0, 0.0), 0.0)
        cond = check_split_condition(sp, samples, 2)
        assert cond.holds and cond.via == "point_elimination"
        assert cond.degree_reduction is None  # both side classes empty

    def test_empty_side_and_no_plane_pairs_fails(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(), minus=(0, 1), psi=1.0, rel_tol=0.0)
        sp = split(extremes, samples, (1.0,), 0.5)
        cond = check_split_condition(sp, samples, 2)
        assert not cond.holds
        assert cond.degree_reduction is False
        assert cond.point_elimination is None


class TestVerifyByHyperplanes:
    def test_cubic_all_planes_pass(self, cubic_extremes):
        samples, extremes = cubic_extremes
        verdict = verify_by_hyperplanes(extremes, samples, 2)
        assert verdict.verdict == "pass"
        assert verdict.planes_checked == 4

    def test_non_optimal_fails_with_counterexample(self):
        samples, extremes = synthetic_univariate("++-+")
        verdict = verify_by_hyperplanes(extremes, samples, 2)
        assert verdict.verdict == "fail"
        assert verdict.counterexample is not None

    def test_degree_one_delegates_to_linear_check(self):
        pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        samples = SampleSet(pts, [x * y for x, y in pts])
        fit = fit_minimax(samples, 1)
        extremes = extreme_sets(fit.model, samples)
        verdict = verify_by_hyperplanes(extremes, samples, 1)
        assert verdict.verdict == "pass"

    def test_fewer_extremes_than_dimension_is_vacuous(self):
        samples = SampleSet([(0.0, 0.0), (1.0, 1.0)], [0, 0])
        extremes = ExtremeSets(plus=(0,), minus=(), psi=1.0, rel_tol=0.0)
        verdict = verify_by_hyperplanes(
            ExtremeSets(plus=(0,), minus=(), psi=1.0, rel_tol=0.0), samples, 2
        )
        assert verdict.verdict == "vacuous"
        assert verdict.warning

    def test_matches_certificate_on_corpus(self):
        corpus = build_fit_corpus(seed=909, count=15, dims=(1, 2), degrees=(2, 3), point_range=(8, 20))
        for inst in corpus:
            ext = inst.extremes
            if ext.degenerate or not ext.plus or not ext.minus:
                continue
            if len(set(ext.plus) | set(ext.minus)) > 8:
                continue
            cert_pass = isinstance(
                check_hull_intersection(ext, inst.samples, inst.degree), IntersectionCertificate
            )
            verdict = verify_by_hyperplanes(ext, inst.samples, inst.degree)
            assert (verdict.verdict == "pass") == cert_pass

    def test_univariate_remark_alternation_equivalence(self):
        import random

        rng = random.Random(77)
        checked = 0
        for _ in range(30):
            m = rng.randint(2, 3)
            n = rng.randint(m + 1, m + 4)
            signs = "".join(rng.choice("+-") for _ in range(n))
            if "+" not in signs or "-" not in signs:
                continue
            samples, extremes = synthetic_univariate(signs)
            verdict = verify_by_hyperplanes(extremes, samples, m)
            count = count_alternations(extremes, samples)
            assert (verdict.verdict == "pass") == (count >= m + 2), (signs, m)
            checked += 1
        assert checked >= 20

    def test_recursive_flag_agrees_with_default(self):
        import random

        rng = random.Random(78)
        for _ in range(15):
            m = rng.randint(2, 3)
            n = rng.randint(m + 2, m + 4)
            signs = "".join(rng.choice("+-") for _ in range(n))
            if "+" not in signs or "-" not in signs:
                continue
            samples, extremes = synthetic_univariate(signs)
            default = verify_by_hyperplanes(extremes, samples, m)
            recursive = verify_by_hyperplanes(extremes, samples, m, recursive=True)
            assert default.verdict == recursive.verdict, (signs, m)

    def test_recursive_flag_scope(self, cubic_extremes):
        samples, extremes = cubic_extremes
        pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        bis = SampleSet(pts, [x * y for x, y in pts])
        ext2 = ExtremeSets(plus=(0, 3), minus=(1, 2), psi=1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            verify_by_hyperplanes(ext2, bis, 2, recursive=True)


def _every_plane_verdict(extremes, samples, degree, exact):
    """(verdict, planes checked, counterexample) from `check_split_condition` on every plane."""
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    checked = 0
    for u, a in _candidate_planes(idxs, samples, exact):
        sp = split(extremes, samples, u, a, exact=exact)
        checked += 1
        if not check_split_condition(sp, samples, degree, exact).holds:
            return "fail", checked, sp
    return ("pass" if checked else "vacuous"), checked, None


def _least_squares_extremes(samples, degree, rel_tol=0.45):
    # a model that is not minimax, with the widest band so that more points are extreme
    basis = build_basis(samples.dimension, degree)
    lifted = np.array([lift(p, basis) for p in samples.points])
    coeffs, *_ = np.linalg.lstsq(lifted, np.array(samples.values), rcond=None)
    model = PolynomialModel(basis, tuple(float(c) for c in coeffs))
    return extreme_sets(model, samples, rel_tol)


def _reuse_corpus(exact):
    """(samples, extremes, degree): minimax fits in d = 2 and 3, then sets that are not optimal."""
    fits = [(42, (2,), (2, 3), (11, 18), 2)]
    if not exact:
        fits += [(41, (3,), (2,), (13, 18), 1), (43, (2,), (4,), (18, 22), 1)]
    cases = []
    for seed, dims, degrees, point_range, count in fits:
        for inst in build_fit_corpus(seed, count, dims, degrees, point_range):
            cases.append((inst.samples, inst.extremes, inst.degree))
            # one extreme point fewer: here that always leaves sets some plane fails on
            cases.append((inst.samples, replace(inst.extremes, plus=inst.extremes.plus[1:]), inst.degree))
    rng = random.Random(43)
    for d, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        samples = random_samples(rng, d, build_basis(d, m).size + 8)
        cases.append((samples, _least_squares_extremes(samples, m), m))
    return cases


def _counting_hulls(monkeypatch):
    calls = []
    real = alternation.hulls_intersect

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(alternation, "hulls_intersect", counted)
    return calls


class TestCertificateReuse:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_every_plane_reference(self, exact, monkeypatch):
        verdicts = set()
        for samples, extremes, degree in _reuse_corpus(exact):
            reference = _every_plane_verdict(extremes, samples, degree, exact)
            calls = _counting_hulls(monkeypatch)
            got = verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            monkeypatch.undo()
            assert (got.verdict, got.planes_checked, got.counterexample) == reference
            assert len(calls) <= got.planes_checked * 2
            verdicts.add(got.verdict)
        assert {"pass", "fail"} <= verdicts

    def test_three_dimensional_fit_needs_few_lps(self, monkeypatch):
        inst = build_fit_corpus(41, 1, (3,), (2,), (13, 18))[0]
        calls = _counting_hulls(monkeypatch)
        got = verify_by_hyperplanes(inst.extremes, inst.samples, inst.degree)
        assert got.verdict == "pass" and got.planes_checked > 100
        assert len(calls) < got.planes_checked / 3

    def test_reused_splits_have_feasible_moment_lps(self, monkeypatch):
        inst = build_fit_corpus(40, 1, (2,), (3,), (13, 18))[0]
        splits = []  # [split, hulls_intersect calls it made]
        real_split, real_hulls = alternation.split, alternation.hulls_intersect

        def recorded_split(*args, **kwargs):
            splits.append([real_split(*args, **kwargs), 0])
            return splits[-1][0]

        def counted(*args, **kwargs):
            splits[-1][1] += 1
            return real_hulls(*args, **kwargs)

        monkeypatch.setattr(alternation, "split", recorded_split)
        monkeypatch.setattr(alternation, "hulls_intersect", counted)
        got = verify_by_hyperplanes(inst.extremes, inst.samples, inst.degree, exact=True)
        monkeypatch.undo()
        assert got.verdict == "pass"
        reused = [sp for sp, calls in splits if calls == 0]
        assert len(reused) >= 5
        for sp in reused:
            assert hulls_intersect(inst.samples, sp.plus_side, sp.minus_side, inst.degree - 1, exact=True)


def test_shared_points_meet_without_an_lp(monkeypatch):
    """Every index in both classes: each split's two sides share a point, so every plane holds.

    The float moment LP of such splits can fail (a 3-D degenerate least-squares
    model raised "optimal point violates row 0"); a shared point needs no LP.
    """

    def no_lp(lp):
        raise LpFailure("no moment LP expected")

    monkeypatch.setattr(optimality, "solve", no_lp)
    rng = random.Random(43)
    for d, m in [(1, 3), (2, 3), (3, 4)]:
        samples = random_samples(rng, d, 10)
        every = tuple(range(len(samples)))
        extremes = ExtremeSets(plus=every, minus=every, psi=0.0, rel_tol=1e-8, degenerate=True)
        planes = 0
        for combo in combinations(every, d):
            geom = affine_normal([samples.points[i] for i in combo])
            if geom is None:
                continue
            sp = split(extremes, samples, *geom)
            assert check_split_condition(sp, samples, m).holds
            planes += 1
        assert planes > 0
