"""Hyperplane splits, split conditions, and the enumeration verdicts."""

import math
import random
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
)
from minimaxfit import alternation, lp, optimality
from minimaxfit._linalg import affine_normal, affine_normals
from minimaxfit.cli import parse_grid_spec

from support import (
    bogus_float_supports,
    build_fit_corpus,
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


def _recording_hulls(monkeypatch):
    """(plus, minus, degree, whether they meet) of every scalar `hulls_intersect` call alternation makes, in order."""
    calls = []
    real = alternation.hulls_intersect

    def recorded(samples, plus, minus, degree, exact=False):
        found = real(samples, plus, minus, degree, exact)
        calls.append((tuple(plus), tuple(minus), degree, found is not None))
        return found

    monkeypatch.setattr(alternation, "hulls_intersect", recorded)
    return calls


def _counting_hulls(monkeypatch, degree):
    """A count of the hull tests that decide a plane: each scalar `hulls_intersect` call and each batched meet taken.

    A plane that takes a degree-(m-1) meet, from a scalar test or from
    `hulls_intersect_batch`, stores its support, and `_contains` reads
    each support stored.  No two planes store equal supports (a plane
    whose classes hold a stored one is not tested), so the batched meets
    taken are the distinct supports less the scalar degree-(m-1) meets.
    The batched answers a later support makes moot are not counted.
    """
    calls, supports = _recording_hulls(monkeypatch), set()
    real = alternation._contains

    def read(classes, support):
        supports.add(support.tobytes())
        return real(classes, support)

    monkeypatch.setattr(alternation, "_contains", read)
    return lambda: len(calls) + len(supports) - sum(1 for *_, m, met in calls if m == degree - 1 and met)


class TestCertificateReuse:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_every_plane_reference(self, exact, monkeypatch):
        verdicts = set()
        for samples, extremes, degree in _reuse_corpus(exact):
            reference = _every_plane_verdict(extremes, samples, degree, exact)
            deciding = _counting_hulls(monkeypatch, degree)
            got = verify_by_hyperplanes(extremes, samples, degree, exact=exact)
            monkeypatch.undo()
            assert (got.verdict, got.planes_checked, got.counterexample) == reference
            assert deciding() <= got.planes_checked * 2
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
        real_normals = alternation.integer_normals if exact else alternation.affine_normals
        real_sides = alternation._sides
        monkeypatch.setattr(alternation, "integer_normals" if exact else "affine_normals",
                            lambda pts: normalised.append(len(pts)) or real_normals(pts))
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
        deciding = _counting_hulls(monkeypatch, inst.degree)
        got = verify_by_hyperplanes(inst.extremes, inst.samples, inst.degree)
        assert got.verdict == "pass" and got.planes_checked > 100
        assert deciding() < got.planes_checked / 3

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


def _batched_cases():
    """Float sets in d = 2 and 3 that pass and fail, each with a batch of hull tests."""
    return [(s, e, m) for s, e, m in _reuse_corpus(False) if s.dimension > 1][:8]


class TestBatchedHullTests:
    def _scalar_run(self, monkeypatch, samples, extremes, degree):
        """The verdict and scalar calls with no batch (groups of one plane), as before batching."""
        monkeypatch.setattr(alternation, "_GROUP", 1)
        calls = _recording_hulls(monkeypatch)
        got = verify_by_hyperplanes(extremes, samples, degree)
        monkeypatch.undo()
        return got, calls

    def test_batch_stores_the_supports_of_the_unbatched_verifier(self, monkeypatch):
        # batched answers a support stored meanwhile makes moot are dropped, so the supports, in
        # their order, are those of the unbatched verifier; so are verdict, count and counterexample
        for samples, extremes, degree in _batched_cases():
            runs = []
            for group in (1, alternation._GROUP):
                supports = []
                real = alternation._contains
                monkeypatch.setattr(alternation, "_GROUP", group)
                monkeypatch.setattr(alternation, "_contains",
                                    lambda classes, s: supports.append(s.tolist()) or real(classes, s))
                runs.append((verify_by_hyperplanes(extremes, samples, degree), supports))
                monkeypatch.undo()
            assert runs[0] == runs[1]

    def test_batch_left_undecided_falls_back_plane_by_plane(self, monkeypatch):
        # with no pivot allowed the kernel decides nothing, so every plane without a stored
        # support takes the scalar tests, in the order and with the outcome they had unbatched
        verdicts = set()
        for samples, extremes, degree in _batched_cases():
            reference = _every_plane_verdict(extremes, samples, degree, False)
            unbatched, scalar_calls = self._scalar_run(monkeypatch, samples, extremes, degree)
            monkeypatch.setattr(lp, "_BATCH_PIVOTS", 0)
            batches = []
            real_batch = alternation.hulls_intersect_batch
            monkeypatch.setattr(alternation, "hulls_intersect_batch",
                                lambda lifted, sides: batches.append(sides.shape[1]) or real_batch(lifted, sides))
            calls = _recording_hulls(monkeypatch)
            got = verify_by_hyperplanes(extremes, samples, degree)
            monkeypatch.undo()
            assert (got.verdict, got.planes_checked, got.counterexample) == reference
            assert got == unbatched and calls == scalar_calls
            verdicts.add(got.verdict)
            if got.planes_checked > 3:
                assert batches  # the fallback, not the unbatched path, decided these planes
        assert verdicts == {"pass", "fail"}

    def test_one_undecided_lp_sends_only_its_plane_to_the_scalar_test(self, monkeypatch):
        # the first LP of the first batch is its group's own plane: marked undecided, as a broken
        # row check marks it, that plane alone gets the scalar test, and nothing else changes
        inst = build_fit_corpus(41, 1, (3,), (2,), (13, 18))[0]
        samples, extremes, degree = inst.samples, inst.extremes, inst.degree
        reference = _every_plane_verdict(extremes, samples, degree, False)
        baseline = _recording_hulls(monkeypatch)
        assert verify_by_hyperplanes(extremes, samples, degree) == HyperplaneVerdict("pass", None, reference[1])
        monkeypatch.undo()

        first = []
        real_solve = optimality.solve_batch

        def one_undecided(A, b):
            x, feasible = real_solve(A, b)
            if not first:
                assert feasible[0]
                first.append(True)
                feasible = feasible.copy()
                feasible[0] = False
            return x, feasible

        sides = []
        real_batch = alternation.hulls_intersect_batch
        monkeypatch.setattr(alternation, "hulls_intersect_batch",
                            lambda lifted, s: sides.append(s[:, 0]) or real_batch(lifted, s))
        monkeypatch.setattr(optimality, "solve_batch", one_undecided)
        calls = _recording_hulls(monkeypatch)
        got = verify_by_hyperplanes(extremes, samples, degree)
        monkeypatch.undo()
        assert (got.verdict, got.planes_checked, got.counterexample) == reference
        rows = list(extremes.plus) + list(extremes.minus)
        plane = (tuple(r for r, c in zip(rows, sides[0]) if c > 0), tuple(r for r, c in zip(rows, sides[0]) if c < 0),
                 degree - 1, True)
        assert plane not in baseline
        at = calls.index(plane)
        assert calls[:at] + calls[at + 1:] == baseline


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
            got, normals, offsets = alternation._new_planes(batch, X, True, seen)
            kept += got
            if got:
                planes += zip(normals.tolist(), offsets.tolist())
                assert alternation._sides(X, normals, offsets, True).tolist() == np.array(
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


def test_exact_verifiers_on_the_two_dimensional_baseline_row_make_no_rational_solve(monkeypatch):
    """The 9 x 9 exact Baseline row: every hull test's float support certifies, so `solve_exact` never runs."""
    samples = parse_grid_spec("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", exact=True)
    extremes = partition_extremes(fit_minimax(samples, 2, exact=True).residuals, 0)
    rational = []
    real = optimality.solve_exact
    monkeypatch.setattr(optimality, "solve_exact", lambda lp, **kw: rational.append(lp) or real(lp, **kw))
    assert verify_by_hyperplanes(extremes, samples, 2, exact=True) == HyperplaneVerdict("pass", None, 19)
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
