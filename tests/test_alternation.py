"""Hyperplane splits, split conditions, and the enumeration verdicts."""

import json
import math
import os
import random
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit import (
    ExtremeSets,
    HyperplaneSplit,
    HyperplaneVerdict,
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
    partition_extremes,
    reduce_and_verify,
    split,
    verify_by_hyperplanes,
    verify_certificate,
)
from minimaxfit import alternation, lp, optimality
from minimaxfit._linalg import affine_normal, affine_normals
from minimaxfit.cli import RunConfig, main, parse_grid_spec, run
from minimaxfit.optimality import certificate_checks

from support import (
    bogus_float_supports,
    build_fit_corpus,
    gauss_jordan_nullspace,
    random_samples,
    reference_exact_plane,
    reference_exact_sides,
    synthetic_univariate,
)


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

    def test_normal_of_the_wrong_dimension_rejected(self, cubic_extremes):
        samples, extremes = cubic_extremes
        with pytest.raises(ValueError, match="normal has dimension 2, samples have 1"):
            split(extremes, samples, (1.0, 0.0), 0.0)

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

    def test_rejects_degree_zero(self, cubic_extremes):
        samples, extremes = cubic_extremes
        with pytest.raises(ValueError, match="degree must be at least 1"):
            verify_by_hyperplanes(extremes, samples, 0)

    def test_degree_one_delegates_to_linear_check(self):
        pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        samples = SampleSet(pts, [x * y for x, y in pts])
        fit = fit_minimax(samples, 1)
        extremes = extreme_sets(fit.model, samples)
        verdict = verify_by_hyperplanes(extremes, samples, 1)
        assert verdict.verdict == "pass"

    @pytest.mark.parametrize("exact", [False, True])
    def test_fewer_extremes_than_dimension_are_decided_on_a_plane_through_them_all(self, exact):
        # a plane holds every extreme point, so its split has no flipped class, and holds exactly when
        # the degree-m hulls of E+ and E- meet: E- empty, or two distinct points, fail on that plane
        samples = SampleSet([(0.0, 0.0), (1.0, 1.0)], [0, 0])
        verdict = verify_by_hyperplanes(ExtremeSets(plus=(0,), minus=(), psi=1.0, rel_tol=0.0), samples, 2, exact)
        assert (verdict.verdict, verdict.planes_checked) == ("fail", 1) and verdict.warning
        assert verdict.counterexample == split(ExtremeSets(plus=(0,), minus=(), psi=1.0, rel_tol=0.0), samples,
                                               (1, 0), 0, exact)
        samples = SampleSet([(0, 1, 2), (Fraction(1, 3), 5, -1), (2, 2, 2)], [0, 0, 0])
        extremes = ExtremeSets(plus=(0,), minus=(1,), psi=1, rel_tol=0.0)
        verdict = verify_by_hyperplanes(extremes, samples, 3, exact)
        sp = verdict.counterexample
        assert (verdict.verdict, verdict.planes_checked) == ("fail", 1)
        assert (sp.plus_side, sp.minus_side, sp.on_plane_plus, sp.on_plane_minus) == ((), (), (0,), (1,))
        assert sp.normal[0] == 1 if exact else math.isclose(math.hypot(*sp.normal), 1)
        # a point in both sets: its hulls meet on their own, so the one plane holds
        both = verify_by_hyperplanes(ExtremeSets(plus=(0,), minus=(0,), psi=1, rel_tol=0.0), samples, 3, exact)
        assert (both.verdict, both.planes_checked, both.counterexample) == ("pass", 1, None)

    @pytest.mark.parametrize("exact", [False, True])
    def test_collinear_extremes_in_three_dimensions_are_vacuous(self, exact):
        # all the points lie on one line, so no three of them fix a plane; their float normals are
        # zero, and are masked before any division, so no warning is raised either
        samples = SampleSet([(t, t, t) for t in range(5)], [0] * 5)
        extremes = ExtremeSets(plus=(0, 2, 4), minus=(1, 3), psi=1, rel_tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = verify_by_hyperplanes(extremes, samples, 2, exact=exact)
        assert (verdict.verdict, verdict.planes_checked, verdict.counterexample) == ("vacuous", 0, None)
        assert verdict.warning == "no affinely independent extreme subset"

    @pytest.mark.parametrize("d", [2, 3])
    def test_affinely_dependent_combinations_raise_no_warning(self, d):
        # collinear 2-D extremes (many pairs on one line) and coplanar 3-D ones (many collinear
        # triples, whose minors vanish): float planes are made with no division by zero, and they
        # are the exact run's planes
        if d == 2:
            points = [(t, 0.5 * t) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)] + [(0.0, 1.0), (0.5, -1.0)]
        else:
            points = [(x, y, 0.0) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)] + [(0.0, 0.0, 1.0)]
        samples = SampleSet(points, [0.0] * len(points))
        extremes = ExtremeSets(plus=tuple(range(0, len(points), 2)), minus=tuple(range(1, len(points), 2)),
                               psi=1.0, rel_tol=0.0)
        for degree in (2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = verify_by_hyperplanes(extremes, samples, degree)
            reference = verify_by_hyperplanes(extremes, samples, degree, exact=True)
            assert (got.verdict, got.planes_checked) == (reference.verdict, reference.planes_checked)
            assert got.planes_checked > 0

    def test_a_plane_whose_rounded_normals_differ_is_counted_once(self):
        # five points on one line of direction (4, 5), all dyadic: the float normals of its ten pairs
        # differ in their last bits, and rounded to 12 decimals their offsets split into two keys, so
        # a plane keyed that way was counted twice; keyed by its sign column it is counted once
        line = [(-0.625 + 0.25 * t, 0.25 + 0.3125 * t) for t in range(-2, 3)]
        samples = SampleSet(line + [(0.5, -0.5), (1.0, 0.75)], [0.0] * 7)
        extremes = ExtremeSets(plus=(0, 2, 4, 5), minus=(1, 3, 6), psi=1.0, rel_tol=0.0)
        got = verify_by_hyperplanes(extremes, samples, 2)
        reference = verify_by_hyperplanes(extremes, samples, 2, exact=True)
        assert (got.verdict, got.planes_checked) == (reference.verdict, reference.planes_checked) == ("pass", 12)

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
    """(u, a) of each distinct plane through d affinely independent points, one plane per combination.

    A float plane is `affine_normal`'s, an exact one `reference_exact_plane`'s (its normal's first non-zero entry 1).
    """
    pts = samples.view(exact)[0]
    seen = set()
    for combo in combinations(idxs, samples.dimension):
        geom = (reference_exact_plane if exact else affine_normal)([pts[i] for i in combo])
        if geom is None:
            continue  # affinely dependent subset: plane not unique, excluded
        u, a = geom
        key = (u, a) if exact else tuple(round(float(c), 12) for c in list(u) + [a])
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


def _plane_through_all(samples, idxs):
    """A rational plane (u, a) through fewer than d points, u's first non-zero component 1: Gauss-Jordan's null vector."""
    d = samples.dimension
    pts = samples.view(True)[0]
    base = [Fraction(c) for c in pts[idxs[0]]] if idxs else [Fraction(0)] * d
    u, _ = gauss_jordan_nullspace([[Fraction(c) - b for c, b in zip(pts[i], base)] for i in idxs[1:]] or [[0] * d])
    lead = next(c for c in u if c)
    u = [c / lead for c in u]
    return u, sum(c * b for c, b in zip(u, base))


def _every_plane_verdict(extremes, samples, degree, exact):
    """(verdict, planes checked, counterexample) from `check_split_condition` on every plane.

    Fewer than d extreme points have one plane to check, a plane through
    them all.
    """
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    if len(idxs) < samples.dimension:
        sp = _scalar_split(extremes, samples, *_plane_through_all(samples, idxs), exact)
        return ("pass", 1, None) if check_split_condition(sp, samples, degree, exact).holds else ("fail", 1, sp)
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


def _recording_hulls(monkeypatch):
    """(plus, minus, degree, meet) of every `hulls_intersect` call alternation makes, in order."""
    calls = []
    real = alternation.hulls_intersect

    def recorded(samples, plus, minus, degree, exact=False):
        found = real(samples, plus, minus, degree, exact)
        calls.append((tuple(plus), tuple(minus), degree, found))
        return found

    monkeypatch.setattr(alternation, "hulls_intersect", recorded)
    return calls


def _plane_by_plane_tests(extremes, samples, degree, exact):
    """The hull tests of a verifier that takes each plane in turn, with no certificate, as `_recording_hulls` lists them.

    A plane whose flipped classes hold a support found before, one each
    either way round, takes none; else degree m - 1 on its flipped classes,
    whose meet is stored, and only where that fails, degree m on its
    on-plane classes, whose failure ends the walk.  Fewer than d extreme
    points take one degree-m test, on the plane through them all, whose
    flipped classes are empty.
    """
    idxs = sorted(set(extremes.plus) | set(extremes.minus))
    if len(idxs) < samples.dimension:
        plus, minus = tuple(extremes.plus), tuple(extremes.minus)
        return [(plus, minus, degree, hulls_intersect(samples, plus, minus, degree, exact))]
    calls, supports = [], []
    for u, a in _candidate_planes(idxs, samples, exact):
        sp = _scalar_split(extremes, samples, u, a, exact)
        plus, minus = set(sp.plus_side), set(sp.minus_side)
        if any(s <= plus and t <= minus or s <= minus and t <= plus for s, t in supports):
            continue
        found = hulls_intersect(samples, sp.plus_side, sp.minus_side, degree - 1, exact)
        calls.append((sp.plus_side, sp.minus_side, degree - 1, found))
        if found:
            supports.append(found)
            continue
        met = hulls_intersect(samples, sp.on_plane_plus, sp.on_plane_minus, degree, exact)
        calls.append((sp.on_plane_plus, sp.on_plane_minus, degree, met))
        if met is None:
            break
    return calls


def _withhold_certificate(monkeypatch):
    """Leave `verify_by_hyperplanes` with no certificate of its own, so that every plane takes the hull tests."""
    monkeypatch.setattr(alternation, "_own_certificate", lambda *args: None)


def _stored_supports(monkeypatch):
    """The supports `verify_by_hyperplanes` stores, in their order, as their (S+ rows, S- rows) of `_rows`.

    `_contains` reads each as it is stored, and again for each later batch,
    so only its first read of each is kept; no two planes store equal
    supports.
    """
    stored = {}
    real = alternation._contains

    def read(flipped, support):
        rows = tuple(tuple(r) for r in support)
        stored.setdefault(rows, rows)
        return real(flipped, support)

    monkeypatch.setattr(alternation, "_contains", read)
    return stored


class TestCertificateReuse:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_every_plane_reference(self, exact, monkeypatch):
        verdicts = set()
        for samples, extremes, degree in _reuse_corpus(exact):
            reference = _every_plane_verdict(extremes, samples, degree, exact)
            calls = _recording_hulls(monkeypatch)
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
    def test_batch_sizes_change_no_verdict_and_no_support(self, exact, monkeypatch):
        # combinations in batches of any size: the verdict, count, counterexample and supports
        # stored, in their order, are those of the default size (with no certificate, which would
        # decide most planes before any hull test)
        cases = [(s, e, m) for s, e, m in _reuse_corpus(exact) + _grid_corpus() if s.dimension > 1]
        sizes = [1, 2, 5]
        verdicts, crossing = set(), 0
        for samples, extremes, degree in cases:
            runs = []
            for size in [alternation._BATCH, *sizes]:
                monkeypatch.setattr(alternation, "_BATCH", size)
                _withhold_certificate(monkeypatch)
                stored = _stored_supports(monkeypatch)
                got = verify_by_hyperplanes(extremes, samples, degree, exact=exact)
                monkeypatch.undo()
                runs.append((got.verdict, got.planes_checked, repr(got.counterexample), list(stored.values())))
            assert runs[1:] == runs[:1] * len(sizes)
            verdicts.add(runs[0][0])
            crossing += runs[0][1] > 5 and len(runs[0][3]) > 3  # planes and supports over several batches
        assert {"pass", "fail"} <= verdicts and crossing >= 3

    @pytest.mark.parametrize("exact", [False, True])
    def test_stores_the_supports_of_its_own_scalar_meets(self, exact, monkeypatch):
        # with no certificate, every plane no stored support decides takes the scalar hull tests at its
        # turn: the supports stored, in their order, are those of its degree-(m-1) meets, and no other
        cases = [(s, e, m) for s, e, m in _reuse_corpus(exact) + _grid_corpus() if s.dimension > 1]
        meets = 0
        for samples, extremes, degree in cases:
            _withhold_certificate(monkeypatch)
            stored = _stored_supports(monkeypatch)
            calls = _recording_hulls(monkeypatch)
            verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            monkeypatch.undo()
            rows, _ = alternation._rows(extremes)
            supports = [(frozenset(rows[r] for r in plus), frozenset(rows[r] for r in minus))
                        for plus, minus in stored.values()]
            assert supports == [found for *_, m, found in calls if m == degree - 1 and found]
            meets += len(supports)
        assert meets > 100

    @pytest.mark.parametrize("corpus", ["reuse", "grid"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_each_open_plane_takes_its_scalar_tests_at_its_turn(self, exact, corpus, monkeypatch):
        # with no certificate, the hull tests, their order and their outcomes are those of a verifier
        # that takes one plane at a time: none runs ahead of its plane, and degree m runs only where
        # degree m - 1 fails
        cases = _reuse_corpus(exact) if corpus == "reuse" else _grid_corpus()
        degree_m = 0
        for samples, extremes, degree in cases:
            _withhold_certificate(monkeypatch)
            calls = _recording_hulls(monkeypatch)
            verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            monkeypatch.undo()
            assert calls == _plane_by_plane_tests(extremes, samples, degree, exact)
            degree_m += sum(1 for *_, m, _ in calls if m == degree)
        assert degree_m >= 3

    def test_three_dimensional_fit_needs_few_lps(self, monkeypatch):
        inst = build_fit_corpus(41, 1, (3,), (2,), (13, 18))[0]
        calls = _recording_hulls(monkeypatch)
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


def _certified_sets(exact):
    """(samples, extremes, degree, certificate) of the d > 1 sets of `_reuse_corpus` and `_grid_corpus` that meet.

    A degenerate set's certificate is its first E+ and E- points, which
    certifies nothing once the first E+ point is gone, so it must pass
    `certificate_checks`.
    """
    cases = []
    for samples, extremes, degree in _reuse_corpus(exact) + _grid_corpus():
        if samples.dimension > 1:
            outcome = check_hull_intersection(extremes, samples, degree, exact)
            if isinstance(outcome, IntersectionCertificate) and all(certificate_checks(outcome).values()):
                cases.append((samples, extremes, degree, outcome))
    return cases


def _certificate_point(certificate, samples, sp, exact):
    """The identity's point on the split `sp`: each weight times |<u, x> - a| on the flipped classes, each over its sum.

    A point on `plus_side` above the plane is an E+ point there (alpha),
    below it an E- point (beta); on `minus_side` the other way round.  A
    float weight below zero, a margin LP's rounding, counts as zero.
    """
    pts = samples.view(exact)[0]
    weight = ({i: max(w, 0) for i, w in zip(certificate.minus_indices, certificate.beta)},
              {i: max(w, 0) for i, w in zip(certificate.plus_indices, certificate.alpha)})
    point = []
    for cls, above_is_plus in ((sp.plus_side, True), (sp.minus_side, False)):
        values = []
        for i in cls:
            distance = sum(c * x for c, x in zip(sp.normal, pts[i])) - sp.offset
            values.append(weight[bool(distance > 0) == above_is_plus][i] * abs(distance))
        point += [v / sum(values) for v in values]
    return point


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


def _run_report(argv, out):
    """(exit code of `main`, its report without timings)."""
    code = main(argv + ["--out", str(out)])
    with open(out) as handle:
        report = json.load(handle)
    del report["timings"]
    return code, report


class TestCertificatePlanes:
    @pytest.mark.parametrize("exact", [False, True])
    def test_each_plane_decided_gets_a_point_of_its_moment_lp(self, exact, monkeypatch):
        # the weights w |<u, x> - a| on a plane's flipped classes, each over its sum, solve that plane's
        # degree-(m-1) moment LP: exactly in exact arithmetic, within its row checks in float
        decided = []
        real = alternation._certificate_meets

        def recorded(*args):
            held = real(*args)
            decided.extend(held.tolist())
            return held

        monkeypatch.setattr(alternation, "_certificate_meets", recorded)
        cases = _certified_sets(exact)
        checked = 0
        for samples, extremes, degree, certificate in cases:
            decided.clear()
            got = verify_by_hyperplanes(extremes, samples, degree, exact, certificate)
            idxs = sorted(set(extremes.plus) | set(extremes.minus))
            planes = list(_candidate_planes(idxs, samples, exact))
            assert got.verdict == "pass" and len(decided) == len(planes) == got.planes_checked
            for (u, a), held in zip(planes, decided):
                if held:
                    sp = _scalar_split(extremes, samples, u, a, exact)
                    x = _certificate_point(certificate, samples, sp, exact)
                    program = optimality._moment_lp(samples.lifted(sp.plus_side, degree - 1, exact),
                                                    samples.lifted(sp.minus_side, degree - 1, exact))
                    assert min(x) >= 0
                    lp._check_rows(program, x, exact, iterations=0)  # raises `LpFailure` at a broken row
                    checked += 1
        assert len(cases) >= 5 and checked > 100

    def test_a_float_weight_rounded_below_zero_decides_as_zero(self, monkeypatch):
        # a margin LP can weigh a point it leaves out at -1e-17: the planes that point is off are decided as
        # they are with the weight at zero, not sent to the hull tests
        decided = []
        real = alternation._certificate_meets
        monkeypatch.setattr(alternation, "_certificate_meets",
                            lambda *args: decided.append(int(real(*args).sum())) or real(*args))
        cases = 0
        for samples, extremes, degree, certificate in _certified_sets(False):
            if 0 in certificate.alpha:
                k = certificate.alpha.index(0)
                counts = []
                for w in (0.0, -1e-17):
                    decided.clear()
                    alpha = certificate.alpha[:k] + (w,) + certificate.alpha[k + 1:]
                    verify_by_hyperplanes(extremes, samples, degree, False, replace(certificate, alpha=alpha))
                    counts.append(sum(decided))
                assert counts[0] == counts[1] > 0
                cases += 1
        assert cases >= 3

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_wrong_certificate_changes_no_verdict(self, exact):
        # the largest E+ weight moved to the next E+ point: on the sets it no longer certifies, and on the
        # sets without the point it came from, every verdict, count and counterexample is the reference's
        verdicts = set()
        for samples, extremes, degree, certificate in _certified_sets(exact):
            alpha = list(certificate.alpha)
            if len(alpha) < 2:
                continue
            k = max(range(len(alpha)), key=alpha.__getitem__)
            alpha[(k + 1) % len(alpha)] += alpha[k]
            alpha[k] *= 0
            fewer = replace(extremes, plus=extremes.plus[:k] + extremes.plus[k + 1:])
            for ext, wrong in [(extremes, replace(certificate, alpha=tuple(alpha))),
                               (fewer, replace(certificate, plus_indices=fewer.plus,
                                               alpha=tuple(alpha[:k] + alpha[k + 1:])))]:
                wrong = replace(wrong, moment_residual=verify_certificate(wrong, samples))
                assert not (exact and all(certificate_checks(wrong).values()))
                verdict, checked, counterexample = _every_plane_verdict(ext, samples, degree, exact)
                got = verify_by_hyperplanes(ext, samples, degree, exact, wrong)
                assert (got.verdict, got.planes_checked) == (verdict, checked)
                assert repr(got.counterexample) == repr(counterexample)
                verdicts.add(got.verdict)
        assert verdicts == {"pass", "fail"}

    @pytest.mark.parametrize("exact", [False, True])
    def test_fit_reads_every_plane_off_its_certificate(self, exact, tmp_path, monkeypatch):
        # `fit` hands its certificate to alternation: no hull test of a plane, so no degree-(m-1) hull LP
        corpus = (build_fit_corpus(42, 2, (2,), (2, 3), (11, 18)) + build_fit_corpus(41, 1, (3,), (2,), (13, 18))
                  + build_fit_corpus(43, 1, (2,), (4,), (18, 22)))
        calls = _recording_hulls(monkeypatch)
        planes = 0
        for k, inst in enumerate(corpus):
            data = tmp_path / f"{k}.csv"
            header = ",".join(f"x{j + 1}" for j in range(inst.samples.dimension)) + ",f"
            data.write_text("\n".join([header] + [",".join(map(repr, (*p, v)))
                                               for p, v in zip(inst.samples.points, inst.samples.values)]) + "\n")
            code, report = run(RunConfig(command="fit", input_path=str(data), degree=inst.degree, exact=exact))
            assert code == 0 and report["alternation"]["verdict"] == "pass"
            planes += report["alternation"]["planes_checked"]
        assert not calls and planes > 100

    @pytest.mark.parametrize("exact", [False, True])
    def test_alternate_finds_one_certificate_on_an_optimal_model_and_none_at_a_first_plane_failure(
            self, exact, tmp_path, monkeypatch):
        # float: one margin LP; exact: one degree-m hull test (`find_critical_point_set`) and no margin LP
        grid, coeffs = "-1,1:-1,1;7;uniform;x1^2*x2+x2^3", tmp_path / "optimal.json"
        _, fit = run(RunConfig(command="fit", grid=grid, degree=2, exact=exact))
        coeffs.write_text(json.dumps(fit["model"]))
        margins, supports = [], []
        real_margin, real_support = optimality._margin_lp, alternation.find_critical_point_set
        monkeypatch.setattr(optimality, "_margin_lp", lambda *args: margins.append(args) or real_margin(*args))
        monkeypatch.setattr(alternation, "find_critical_point_set",
                            lambda *args: supports.append(args) or real_support(*args))
        code, report = run(RunConfig(command="alternate", grid=grid, coeffs=str(coeffs), exact=exact))
        assert (code, report["alternation"]["verdict"]) == (0, "pass")
        assert (len(margins), len(supports)) == ((0, 1) if exact else (1, 0))
        # a least-squares model whose one plane passes through both its extreme points: no moment LP to decide
        lsq = ("-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3", "lsq-2d-m2.json") if exact else \
            ("-1,1:-1,1;7;uniform;x1^3*x2+x2^4", "lsq-2d-m3.json")
        margins.clear()
        supports.clear()
        code, report = run(RunConfig(command="alternate", grid=lsq[0], coeffs=os.path.join(GOLDEN, lsq[1]),
                                     exact=exact))
        assert (code, report["alternation"]["verdict"], report["alternation"]["planes_checked"]) == (2, "fail", 1)
        assert not margins and not supports

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_failing_certificate_lp_leaves_alternate_as_without_a_certificate(self, exact, tmp_path, monkeypatch):
        grid, coeffs = "-1,1:-1,1;7;uniform;x1^2*x2+x2^3", tmp_path / "optimal.json"
        _, fit = run(RunConfig(command="fit", grid=grid, degree=2, exact=exact))
        coeffs.write_text(json.dumps(fit["model"]))
        argv = ["alternate", "--grid", grid, "--coeffs", str(coeffs)] + (["--exact"] if exact else [])
        _withhold_certificate(monkeypatch)
        reference = _run_report(argv, tmp_path / "reference.json")
        monkeypatch.undo()
        calls = []

        def failing(*args):
            calls.append(args)
            raise LpFailure("the certificate's LP failed")

        # the margin LP in float, the degree-m hull test in exact arithmetic
        monkeypatch.setattr(*(alternation, "find_critical_point_set") if exact else (optimality, "check_isolability"),
                            failing)
        assert _run_report(argv, tmp_path / "report.json") == reference
        assert len(calls) == 1 and reference[0] == 0


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


_CHEBYSHEV = [Fraction(math.cos(math.pi * k / 20)) for k in range(21)]  # dyadic, denominators up to 2^106


@st.composite
def _rational_points(draw):
    """Distinct rational points in d = 2 or 3, often partly on one plane or line, with a sign class each."""
    d = draw(st.sampled_from([2, 3]))
    coordinate = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=6), st.sampled_from(_CHEBYSHEV))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d, max_size=9))
    # the leading points on one plane (x_d an affine function of the other coordinates), or on one line
    # (every x_j one of x_1): many combinations span one plane, or none
    shape = draw(st.sampled_from(["free", "plane", "line"]))
    if shape != "free":
        c = [draw(st.fractions(-2, 2, max_denominator=4)) for _ in range(2 * d)]
        k = draw(st.integers(d, max(d, len(points))))
        if shape == "plane":
            points[:k] = [p[:-1] + (sum((w * x for w, x in zip(c, p[:-1])), c[-1]),) for p in points[:k]]
        else:
            points[:k] = [(p[0],) + tuple(c[2 * j] + c[2 * j + 1] * p[0] for j in range(1, d)) for p in points[:k]]
    kept = []  # distinct as `SampleSet` asks: 1e-12 apart in some coordinate (cos(pi/2) is 6e-17, not 0)
    for p in points:
        if all(max(abs(float(a) - float(b)) for a, b in zip(p, q)) > 1e-9 for q in kept):
            kept.append(p)
    points = kept
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(points), max_size=len(points)))
    return points, signs


@settings(max_examples=120, deadline=None)
@given(_rational_points(), st.data())
def test_integer_planes_and_sides_match_the_rational_reference(case, data):
    """Exact planes over integers against the rational keys and ``Fraction`` sides they replace.

    The same combinations are kept, in the same order, across two batches
    sharing one `seen`; the sign matrices are equal, and each plane turns
    back into its reference normal and offset, as a counterexample shows it.
    `split` of any rational multiple of a plane classifies as a
    ``Fraction`` sum does.
    """
    points, signs = case
    d = len(points[0])
    if len(points) < d:
        return
    X, q = alternation._integer_points(np.array(points, dtype=object))
    assert all(type(v) is int for v in X.ravel().tolist())
    combos = list(combinations(range(len(points)), d))
    cut = data.draw(st.integers(0, len(combos)))
    seen, kept, planes = set(), [], []
    for batch in (combos[:cut], combos[cut:]):
        if batch:
            got, normals, offsets, distances, side = alternation._new_planes(batch, X, True, seen)
            kept += got
            if got:
                planes += zip(normals.tolist(), offsets.tolist())
                assert side.tolist() == alternation._signs(distances, True).tolist()
                assert alternation._signs(alternation._distances(X, normals, offsets), True).tolist() == np.array(
                    [reference_exact_sides(points, *reference_exact_plane([points[i] for i in c])) for c in got]
                ).T.tolist()
    reference, keys = [], set()
    for combo in combos:
        key = reference_exact_plane([points[i] for i in combo])
        if key is not None and key not in keys:
            keys.add(key)
            reference.append((combo, key))
    assert kept == [combo for combo, _ in reference]
    assert [alternation._rational_plane(u, a, q) for u, a in planes] == [key for _, key in reference]

    samples = SampleSet(points, [0] * len(points))
    extremes = ExtremeSets(plus=tuple(i for i, s in enumerate(signs) if s == "+"),
                           minus=tuple(i for i, s in enumerate(signs) if s == "-"), psi=1, rel_tol=0)
    scale = data.draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
    for _, (u, a) in reference[:6]:
        normal, offset = [c * scale for c in u], a * scale
        assert split(extremes, samples, normal, offset, exact=True) == _scalar_split(
            extremes, samples, normal, offset, True)


def test_float_and_exact_enumerations_keep_the_same_combinations():
    """A plane is known by its sign column in either arithmetic, so on grid extremes both keep the same planes.

    The float enumeration takes the points as they are, the exact one over
    integers (`_integer_points`); batches of `_BATCH` share one `seen`, as in
    `verify_by_hyperplanes`.  Each grid point on a plane is on it in float
    within `PLANE_TOL`, so both arithmetics see the same columns.
    """
    sets = 0
    for samples, extremes, _ in _grid_corpus():
        idxs = sorted(set(extremes.plus) | set(extremes.minus))
        combos = list(combinations(range(len(idxs)), samples.dimension))
        kept = []
        for coords, exact in [(samples.view(False)[0][idxs], False),
                              (alternation._integer_points(samples.view(True)[0][idxs])[0], True)]:
            seen: set = set()
            kept.append([c for k in range(0, len(combos), alternation._BATCH)
                         for c in alternation._new_planes(combos[k:k + alternation._BATCH], coords, exact, seen)[0]])
        assert kept[0] == kept[1] and kept[0]
        sets += 1
    assert sets == 15


def test_exact_verifiers_on_the_two_dimensional_baseline_row_make_no_rational_solve(monkeypatch):
    """The 9 x 9 exact Baseline row, with the fit's own certificate as `fit` hands it over: `solve_exact` never runs.

    The certificate decides alternation's planes, and every hull test of
    the reduction has a float support that certifies.
    """
    samples = parse_grid_spec("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", exact=True)
    fit = fit_minimax(samples, 2, exact=True)
    extremes = partition_extremes(fit.residuals, 0)
    rational = []
    real = optimality.solve_exact
    monkeypatch.setattr(optimality, "solve_exact", lambda lp, **kw: rational.append(lp) or real(lp, **kw))
    certificate = check_hull_intersection(extremes, samples, 2, True, fit.weights)
    assert isinstance(certificate, IntersectionCertificate)
    assert verify_by_hyperplanes(extremes, samples, 2, True, certificate) == HyperplaneVerdict("pass", None, 19)
    assert reduce_and_verify(extremes, samples, 2, exact=True).verdict == "pass"
    assert not rational


def test_wrong_float_supports_leave_every_exact_verdict_as_it_is(monkeypatch):
    """An optimal exact fit still passes, and its extremes less one point still fail at the same plane."""
    samples = parse_grid_spec("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", exact=True)
    extremes = partition_extremes(fit_minimax(samples, 2, exact=True).residuals, 0)
    cases = [extremes, replace(extremes, plus=extremes.plus[1:])]
    expected = [(verify_by_hyperplanes(e, samples, 2, exact=True), reduce_and_verify(e, samples, 2, exact=True))
                for e in cases]
    assert [verdict.verdict for verdict, _ in expected] == ["pass", "fail"]
    rational = bogus_float_supports(monkeypatch)
    assert [(verify_by_hyperplanes(e, samples, 2, exact=True), reduce_and_verify(e, samples, 2, exact=True))
            for e in cases] == expected
    assert rational  # the wrong supports were turned down, and the rational simplex decided


def test_exact_points_beyond_float_range_are_decided_by_the_rational_simplex(monkeypatch):
    """A 2-D set scaled by 10**400 has no float view: every hull test goes to `solve_exact`, with the same verdicts.

    Scaling the points maps each lifted hull onto the scaled one by one
    invertible linear map, and keeps every plane's sides, so verdicts and
    counterexample classes stay; a counterexample's normal stays and its
    offset scales.
    """
    samples = parse_grid_spec("-1,1:-1,1;5;uniform;x1^2*x2+x2^3", exact=True)
    scaled = SampleSet([tuple(c * 10**400 for c in p) for p in samples.points], samples.values)
    with pytest.raises(OverflowError):
        scaled.view(False)
    optimal = partition_extremes(fit_minimax(samples, 2, exact=True).residuals, 0)
    cases = [optimal, replace(optimal, plus=optimal.plus[1:])]
    rng = random.Random(5)
    pairs = []
    for _ in range(16):
        picked = rng.sample(range(25), rng.randint(4, 7))
        pairs.append((sorted(picked[:2]), sorted(picked[2:])))

    def verdicts(s, scale):
        out = []
        for e in cases:
            got = verify_by_hyperplanes(e, s, 2, exact=True)
            sp = got.counterexample
            out.append((got.verdict, got.planes_checked, sp and (sp.normal, sp.offset / scale, sp.plus_side,
                                                                 sp.minus_side, sp.on_plane_plus, sp.on_plane_minus)))
            traces = reduce_and_verify(e, s, 2, exact=True).traces
            out.append([(t.verdict, [step.removed for step in t.steps]) for t in traces])
        out += [hulls_intersect(s, plus, minus, m, True) is None for plus, minus in pairs for m in (1, 2)]
        return out

    expected = verdicts(samples, 1)
    assert {expected[0][0], expected[2][0]} == {"pass", "fail"}
    assert 0 < sum(expected[4:]) < len(expected) - 4  # both hull verdicts occur
    calls = {"solve": 0, "solve_exact": 0}
    for name in calls:
        real = getattr(optimality, name)
        monkeypatch.setattr(optimality, name, lambda lp, _real=real, _name=name, **kw:
                            calls.__setitem__(_name, calls[_name] + 1) or _real(lp, **kw))
    assert verdicts(scaled, 10**400) == expected
    assert calls["solve"] == 0 and calls["solve_exact"] > 0
