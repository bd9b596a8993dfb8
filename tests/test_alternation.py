"""Hyperplane splits, split conditions, and the enumeration verdicts."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from minimaxfit import (
    ExtremeSets,
    HyperplaneSplit,
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
from minimaxfit._linalg import affine_normal, affine_normals

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

    @pytest.mark.parametrize("exact", [False, True])
    def test_collinear_extremes_in_three_dimensions_are_vacuous(self, exact):
        # all the points lie on one line, so no three of them fix a plane
        samples = SampleSet([(t, t, t) for t in range(5)], [0] * 5)
        extremes = ExtremeSets(plus=(0, 2, 4), minus=(1, 3), psi=1, rel_tol=0.0)
        verdict = verify_by_hyperplanes(extremes, samples, 2, exact=exact)
        assert (verdict.verdict, verdict.planes_checked, verdict.counterexample) == ("vacuous", 0, None)
        assert verdict.warning == "no affinely independent extreme subset"

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


def _candidate_planes(idxs, samples, exact):
    """(u, a) of each distinct plane through d affinely independent points, one `affine_normal` per combination."""
    pts = samples.view(exact)[0]
    seen = set()
    for combo in combinations(idxs, samples.dimension):
        geom = affine_normal([pts[i] for i in combo], exact=exact)
        if geom is None:
            continue  # affinely dependent subset: plane not unique, excluded
        u, a = geom
        if exact:
            lead = next(c for c in u if c != 0)
            key = (tuple(c / lead for c in u), a / lead)
        else:
            key = tuple(round(float(c), 12) for c in list(u) + [a])
        if key in seen:
            continue
        seen.add(key)
        yield u, a


def _scalar_split(extremes, samples, normal, offset, exact):
    """`split` one point at a time: a float plane scaled to unit length, then each <u, x> - a as a Python sum."""
    if exact:
        u, a = [Fraction(c) for c in normal], Fraction(offset)
    else:
        norm = math.sqrt(sum(float(c) * float(c) for c in normal))
        u, a = [float(c) / norm for c in normal], float(offset) / norm
    pts = samples.view(exact)[0]
    tol = 0 if exact else alternation.PLANE_TOL
    plus_side, minus_side, on_plus, on_minus = [], [], [], []
    for idx, positive_class in [(i, True) for i in extremes.plus] + [(i, False) for i in extremes.minus]:
        s = sum(c * x for c, x in zip(u, pts[idx])) - a
        if abs(s) <= tol:
            (on_plus if positive_class else on_minus).append(idx)
        elif (s > 0) == positive_class:
            plus_side.append(idx)
        else:
            minus_side.append(idx)
    return HyperplaneSplit(tuple(u), a, tuple(plus_side), tuple(minus_side), tuple(on_plus), tuple(on_minus))


def _every_plane_verdict(extremes, samples, degree, exact):
    """(verdict, planes checked, counterexample) from `check_split_condition` on every plane."""
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    checked = 0
    for u, a in _candidate_planes(idxs, samples, exact):
        sp = _scalar_split(extremes, samples, u, a, exact)
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
    """(samples, extremes, degree): minimax fits in d = 1, 2 and 3, then sets that are not optimal."""
    fits = [(42, (2,), (2, 3), (11, 18), 2), (44, (1,), (2, 3, 4), (10, 25), 3)]
    if not exact:
        fits += [(41, (3,), (2,), (13, 18), 1), (43, (2,), (4,), (18, 22), 1)]
    cases = []
    for seed, dims, degrees, point_range, count in fits:
        for inst in build_fit_corpus(seed, count, dims, degrees, point_range):
            cases.append((inst.samples, inst.extremes, inst.degree))
            # one extreme point fewer: here that always leaves sets some plane fails on
            cases.append((inst.samples, replace(inst.extremes, plus=inst.extremes.plus[1:]), inst.degree))
    rng = random.Random(43)
    for d, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (1, 3), (1, 5)]:
        samples = random_samples(rng, d, build_basis(d, m).size + 8)
        cases.append((samples, _least_squares_extremes(samples, m), m))
    return cases


def _grid_corpus():
    """(samples, extremes, degree) on 2-D and 3-D grids, fitted and then not optimal.

    Grid extremes hold collinear and coplanar points, so many combinations
    span no plane and many planes pass through more than d extremes.
    """
    targets = [  # (dimension, points per axis, target, degrees)
        (2, 5, lambda x, y: x ** 3 - x * y * y + 0.5 * y, (2, 3)),
        (2, 5, lambda x, y: x * x * y + y ** 4, (2,)),
        (3, 3, lambda x, y, z: x ** 3 + y * z * z, (2,)),
        (3, 3, lambda x, y, z: x * y * z + x ** 3, (2,)),
    ]
    cases = []
    for d, side, f, degrees in targets:
        points = list(product(np.linspace(-1, 1, side).tolist(), repeat=d))
        samples = SampleSet(points, [f(*p) for p in points])
        for m in degrees:
            extremes = extreme_sets(fit_minimax(samples, m).model, samples)
            cases.append((samples, extremes, m))
            cases.append((samples, replace(extremes, plus=extremes.plus[1:]), m))
            cases.append((samples, _least_squares_extremes(samples, m), m))
    return cases


def _assert_normals_bit_for_bit(samples, extremes):
    """`affine_normals` against `affine_normal` on every combination; (combinations with no plane, repeated planes)."""
    pts = samples.view(False)[0]
    combos = list(combinations(sorted(set(extremes.plus) | set(extremes.minus)), samples.dimension))
    if not combos:
        return 0, 0
    normals, offsets, unique = affine_normals(np.array([[pts[i] for i in c] for c in combos]))
    keys = []
    for k, combo in enumerate(combos):
        ref = affine_normal([pts[i] for i in combo])
        assert (ref is None) == (not unique[k])
        if ref is not None:
            assert normals[k].tobytes() == np.array(ref[0]).tobytes()
            assert offsets[k].tobytes() == np.float64(ref[1]).tobytes()
            keys.append(tuple(round(c, 12) for c in ref[0] + (ref[1],)))
    return len(combos) - len(keys), len(keys) - len(set(keys))


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

        no_plane = repeated = 0
        grid_verdicts = set()
        for samples, extremes, degree in _grid_corpus():
            verdict, checked, counterexample = _every_plane_verdict(extremes, samples, degree, exact)
            got = verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            assert (got.verdict, got.planes_checked) == (verdict, checked)
            assert repr(got.counterexample) == repr(counterexample)  # floats bit for bit
            grid_verdicts.add(got.verdict)
            if not exact:
                dependent, again = _assert_normals_bit_for_bit(samples, extremes)
                no_plane, repeated = no_plane + dependent, repeated + again
        assert {"pass", "fail"} <= grid_verdicts
        assert exact or (no_plane > 0 and repeated > 0)

    @pytest.mark.parametrize("exact", [False, True])
    def test_split_failing_on_the_first_plane_classifies_one_batch(self, exact, monkeypatch):
        # sets that fail on the first plane and have more combinations than the first batch
        cases = [(s, e, m) for s, e, m in _reuse_corpus(exact) + _grid_corpus()
                 if math.comb(len(set(e.plus) | set(e.minus)), s.dimension) > alternation._FIRST_BATCH]
        normalised, classified = [], []
        real_normals, real_exact, real_sides = alternation.affine_normals, alternation.affine_normal, alternation._sides
        monkeypatch.setattr(alternation, "affine_normals",
                            lambda pts: normalised.append(len(pts)) or real_normals(pts))
        monkeypatch.setattr(alternation, "affine_normal",
                            lambda pts, exact=False: normalised.append(1) or real_exact(pts, exact=exact))
        monkeypatch.setattr(alternation, "_sides",
                            lambda x, u, a, ex: classified.append(u.shape[0]) or real_sides(x, u, a, ex))
        first = 0
        for samples, extremes, degree in cases:
            normalised.clear(), classified.clear()
            got = verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            if got.planes_checked != 1:
                continue
            assert got.verdict == "fail"
            first += 1
            assert sum(normalised) <= alternation._FIRST_BATCH
            assert sum(classified) <= alternation._FIRST_BATCH
        assert first >= 3

    def test_three_dimensional_fit_needs_few_lps(self, monkeypatch):
        inst = build_fit_corpus(41, 1, (3,), (2,), (13, 18))[0]
        calls = _counting_hulls(monkeypatch)
        got = verify_by_hyperplanes(inst.extremes, inst.samples, inst.degree)
        assert got.verdict == "pass" and got.planes_checked > 100
        assert len(calls) < got.planes_checked / 3

    def test_reused_splits_have_feasible_moment_lps(self, monkeypatch):
        # each plane is decided by a degree-(m-1) hull test or by a stored support; the reference
        # enumeration gives the splits in order, and those the verifier sent no test for were reused
        inst = build_fit_corpus(40, 1, (2,), (3,), (13, 18))[0]
        calls = []
        real = alternation.hulls_intersect

        def recorded(samples, plus, minus, degree, exact=False):
            if degree == inst.degree - 1:
                calls.append((tuple(plus), tuple(minus)))
            return real(samples, plus, minus, degree, exact)

        monkeypatch.setattr(alternation, "hulls_intersect", recorded)
        got = verify_by_hyperplanes(inst.extremes, inst.samples, inst.degree, exact=True)
        monkeypatch.undo()
        assert got.verdict == "pass"
        idxs = sorted(set(inst.extremes.plus) | set(inst.extremes.minus))
        splits = [_scalar_split(inst.extremes, inst.samples, u, a, True)
                  for u, a in _candidate_planes(idxs, inst.samples, True)]
        assert len(splits) == got.planes_checked
        reused, sent = [], iter(calls)
        pending = next(sent, None)
        for sp in splits:
            if (sp.plus_side, sp.minus_side) == pending:
                pending = next(sent, None)
            else:
                reused.append(sp)
        assert pending is None  # every recorded test belongs to a plane, in order
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
