"""Point-reduction necessary-condition checks and their trace contracts."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from minimaxfit import (
    ExtremeSets,
    IntersectionCertificate,
    PolynomialModel,
    SampleSet,
    SeparationWitness,
    check_hull_intersection,
    extreme_sets,
    fit_minimax,
    hulls_intersect,
    partition_extremes,
    reduce_and_verify,
    reduction,
)
from minimaxfit.cli import DEFAULT_REL_TOL, parse_grid_spec

from support import build_fit_corpus, reference_reduction, synthetic_univariate


@pytest.fixture(scope="module")
def cubic_instance():
    xs = [Fraction(-1) + Fraction(2 * k, 1000) for k in range(1001)]
    samples = SampleSet([(x,) for x in xs], [x**3 for x in xs])
    fit = fit_minimax(samples, 2, exact=True)
    extremes = extreme_sets(fit.model, samples, rel_tol=0)
    return samples, extremes


class TestCubicTraces:
    def test_min_variant_removes_leftmost(self, cubic_instance):
        samples, extremes = cubic_instance
        report = reduce_and_verify(extremes, samples, 2, exact=True)
        assert report.verdict == "pass"
        (trace,) = [trace for trace in report.traces if trace.branch == ((1, "min"),)]
        (step,) = trace.steps
        assert step.delta == -1
        assert [samples.points[i][0] for i in step.removed] == [-1]
        assert step.degree_after == 1
        assert trace.verdict == "pass"

    def test_max_variant_removes_rightmost(self, cubic_instance):
        samples, extremes = cubic_instance
        report = reduce_and_verify(extremes, samples, 2, exact=True)
        (trace,) = [trace for trace in report.traces if trace.branch == ((1, "max"),)]
        (step,) = trace.steps
        assert step.delta == -1  # recorded as minus the maximal coordinate
        assert [samples.points[i][0] for i in step.removed] == [1]
        assert trace.verdict == "pass"

    def test_exhaustive_covers_both_variants(self, cubic_instance):
        samples, extremes = cubic_instance
        report = reduce_and_verify(extremes, samples, 2, exact=True)
        assert report.verdict == "pass"
        assert {trace.branch for trace in report.traces} == {
            ((1, "min"),),
            ((1, "max"),),
        }


class TestDegreeOneBase:
    def test_xy_corners_no_steps(self):
        pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        samples = SampleSet(pts, [x * y for x, y in pts])
        fit = fit_minimax(samples, 1)
        extremes = extreme_sets(fit.model, samples)
        report = reduce_and_verify(extremes, samples, 1)
        assert report.verdict == "pass"
        (trace,) = report.traces
        assert trace.steps == ()


class TestValidation:
    def test_rejects_degree_zero(self, cubic_instance):
        samples, extremes = cubic_instance
        with pytest.raises(ValueError):
            reduce_and_verify(extremes, samples, 0)

    def test_rejects_empty_side(self):
        samples = SampleSet([(0.0,), (1.0,)], [0, 0])
        extremes = ExtremeSets(plus=(0, 1), minus=(), psi=1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            reduce_and_verify(extremes, samples, 2)


class TestNonOptimal:
    def test_perturbed_univariate_fails(self):
        # alternation broken on four points with both signs present
        samples, extremes = synthetic_univariate("+--+")
        out = check_hull_intersection(extremes, samples, 2)
        assert isinstance(out, SeparationWitness)
        report = reduce_and_verify(extremes, samples, 2)
        assert report.verdict == "fail"

    def test_perturbed_model_with_two_sided_extremes(self):
        samples, extremes = synthetic_univariate("++-+")
        report = reduce_and_verify(extremes, samples, 2)
        out = check_hull_intersection(extremes, samples, 2)
        assert isinstance(out, SeparationWitness)
        assert report.verdict == "fail"


class TestCorpusProperties:
    def test_necessity_on_certified_optimal_instances(self):
        corpus = build_fit_corpus(seed=811, count=25, dims=(1, 2), degrees=(1, 2, 3), point_range=(8, 22))
        for inst in corpus:
            if inst.extremes.degenerate or not inst.extremes.plus or not inst.extremes.minus:
                continue
            if not isinstance(
                check_hull_intersection(inst.extremes, inst.samples, inst.degree),
                IntersectionCertificate,
            ):
                continue
            report = reduce_and_verify(inst.extremes, inst.samples, inst.degree)
            assert report.verdict == "pass", (inst.degree, inst.samples.points)

    def test_every_step_removes_at_least_one_point(self):
        corpus = build_fit_corpus(seed=812, count=10, dims=(1, 2), degrees=(2, 3), point_range=(8, 20))
        for inst in corpus:
            if inst.extremes.degenerate or not inst.extremes.plus or not inst.extremes.minus:
                continue
            report = reduce_and_verify(inst.extremes, inst.samples, inst.degree)
            for trace in report.traces:
                for step in trace.steps:
                    assert len(step.removed) >= 1

    def test_trace_replay_is_deterministic(self):
        corpus = build_fit_corpus(seed=813, count=5, dims=(1, 2), degrees=(2,), point_range=(8, 16))
        for inst in corpus:
            if inst.extremes.degenerate or not inst.extremes.plus or not inst.extremes.minus:
                continue
            first = reduce_and_verify(inst.extremes, inst.samples, inst.degree)
            second = reduce_and_verify(inst.extremes, inst.samples, inst.degree)
            assert first == second

    def test_univariate_verdicts_match_certificate(self, capsys):
        """Observational sweep of the univariate completeness claim.

        Asserted on alternating extreme patterns (where the claim is as
        strong as the alternation count criterion); counted and reported on
        arbitrary sign patterns, where branches that empty one side or
        repeated-sign runs can pass vacuously.
        """
        import random

        rng = random.Random(41)
        agree = total = 0
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(max(2, m), m + 4)
            signs = "".join(rng.choice("+-") for _ in range(n))
            if "+" not in signs or "-" not in signs:
                continue
            samples, extremes = synthetic_univariate(signs)
            cert_pass = isinstance(
                check_hull_intersection(extremes, samples, m), IntersectionCertificate
            )
            red_pass = reduce_and_verify(extremes, samples, m).verdict == "pass"
            total += 1
            agree += cert_pass == red_pass
            alternating = all(a != b for a, b in zip(signs, signs[1:]))
            if alternating and n >= m + 1:
                assert cert_pass == red_pass, signs
        print(f"univariate reduction/certificate agreement: {agree}/{total}")


def _shifted_survivors(samples, extremes, trace):
    """A branch's survivors at their shifted coordinates, replayed from the trace's deltas.

    Returns (SampleSet of the survivors, plus positions, minus positions).
    """
    pts = samples.view(True)[0]
    plus, minus = set(extremes.plus), set(extremes.minus)
    coords = {i: list(pts[i]) for i in plus | minus}
    for step in trace.steps:
        j = step.dimension - 1
        for i in plus | minus:
            # min: x - delta; max, where delta = -top: top - x
            x = coords[i][j]
            coords[i][j] = x - step.delta if step.variant == "min" else -step.delta - x
        assert {i for i in plus | minus if coords[i][j] == 0} == set(step.removed)
        plus -= set(step.removed)
        minus -= set(step.removed)
    survivors = sorted(plus | minus)
    position = {i: k for k, i in enumerate(survivors)}
    shifted = SampleSet([coords[i] for i in survivors], [0] * len(survivors)) if survivors else None
    return shifted, [position[i] for i in sorted(plus)], [position[i] for i in sorted(minus)]


def test_closing_test_is_invariant_under_the_shifts():
    """Each branch's verdict, taken on the unshifted samples, equals the hull test of its shifted survivors."""
    corpus = build_fit_corpus(seed=814, count=12, dims=(1, 2, 3), degrees=(2, 3), point_range=(8, 18))
    seen = set()
    for inst in corpus:
        ext = inst.extremes
        if ext.degenerate or not ext.plus or not ext.minus:
            continue
        # the optimal sets, then sets with one extreme point fewer, which some branches fail on
        for extremes in (ext, replace(ext, plus=ext.plus[1:]), replace(ext, minus=ext.minus[1:])):
            if not extremes.plus or not extremes.minus:
                continue
            report = reduce_and_verify(extremes, inst.samples, inst.degree, exact=True)
            for trace in report.traces:
                shifted, plus, minus = _shifted_survivors(inst.samples, extremes, trace)
                seen.add(trace.verdict)
                if trace.verdict == "vacuous":
                    assert not plus or not minus
                    continue
                meet = hulls_intersect(shifted, plus, minus, 1, exact=True) is not None
                assert meet == (trace.verdict == "pass"), trace
    assert {"pass", "fail"} <= seen


@st.composite
def labelled_points(draw):
    """A small point set on a coarse lattice, ties included, with random extreme labels on both sides."""
    dimension = draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dimension), min_size=2, max_size=8, unique=True))
    labels = draw(st.lists(st.sampled_from("+- "), min_size=len(cells), max_size=len(cells))
                  .filter(lambda ls: "+" in ls and "-" in ls))
    return cells, "".join(labels), draw(st.integers(1, 4)), draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(labelled_points())
@example(([(0,), (1,), (2,), (3,)], "+-+-", 2, False))  # both branches pass
@example(([(0,), (1,), (2,), (3,)], "+--+", 2, True))  # the min branch fails
@example(([(0,), (1,), (2,)], "+--", 3, False))  # the min branch empties plus at its first step
def test_walk_equals_the_replay_of_every_branch(case):
    cells, labels, degree, exact = case
    scale = Fraction(1, 3) if exact else 1 / 3  # thirds round in float64
    samples = SampleSet([tuple(c * scale for c in cell) for cell in cells], [0] * len(cells))
    extremes = ExtremeSets(plus=tuple(i for i, s in enumerate(labels) if s == "+"),
                           minus=tuple(i for i, s in enumerate(labels) if s == "-"), psi=1, rel_tol=0.0)
    report = reduce_and_verify(extremes, samples, degree, exact=exact)
    # repr tells -0.0 from 0.0 in a recorded delta, where == does not
    assert repr(report) == repr(reference_reduction(extremes, samples, degree, exact))


def test_one_closing_test_per_survivor_pair(monkeypatch):
    """Branches that end with the same survivors share one `hulls_intersect` call."""
    samples = parse_grid_spec("-1,1:-1,1;21;chebyshev;abs(x1)+x2^3")
    extremes = partition_extremes(fit_minimax(samples, 4).residuals, rel_tol=DEFAULT_REL_TOL)
    calls = []
    real = reduction.hulls_intersect

    def recorded(samples, plus, minus, degree, exact=False):
        calls.append((tuple(plus), tuple(minus)))
        return real(samples, plus, minus, degree, exact)

    monkeypatch.setattr(reduction, "hulls_intersect", recorded)
    report = reduce_and_verify(extremes, samples, 4)
    pairs = set()
    for trace in report.traces:
        removed = {i for step in trace.steps for i in step.removed}
        if trace.verdict != "vacuous":
            pairs.add((tuple(sorted(set(extremes.plus) - removed)), tuple(sorted(set(extremes.minus) - removed))))
    assert (report.verdict, len(report.traces), len(calls)) == ("pass", 64, 20)
    assert sorted(calls) == sorted(pairs)
