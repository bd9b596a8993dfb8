"""Acceptance suite: every exit criterion at its stated tolerance.

Runs on seeded corpora and prints one PASS line per criterion (use
``pytest tests/test_acceptance.py -v -s`` to see the measurements).
"""

import random
import time
import warnings
from fractions import Fraction

import pytest

from minimaxfit import (
    IntersectionCertificate,
    PolynomialModel,
    SampleSet,
    SeparationWitness,
    check_hull_intersection,
    check_isolability,
    count_alternations,
    extreme_sets,
    fit_minimax,
    reduce_and_verify,
    shift_monomial_weights,
    verify_by_hyperplanes,
)

from support import build_fit_corpus, lemma_system, synthetic_univariate


@pytest.fixture(scope="module")
def corpus_200():
    # criterion 2/3 corpus: 200 instances, d <= 2, m <= 2, 5..30 points
    return build_fit_corpus(seed=2024, count=200, dims=(1, 2), degrees=(1, 2), point_range=(5, 30))


@pytest.fixture(scope="module")
def corpus_m3():
    # criterion 4/5 corpus: degrees up to 3
    return build_fit_corpus(seed=4096, count=80, dims=(1, 2), degrees=(1, 2, 3), point_range=(8, 24))


def test_criterion_1_univariate_chebyshev_values():
    xs = [Fraction(-1) + Fraction(2 * k, 1000) for k in range(1001)]
    worst_gap = 0.0
    for m in range(1, 6):
        samples = SampleSet([(x,) for x in xs], [x ** (m + 1) for x in xs])
        t0 = time.perf_counter()
        fit = fit_minimax(samples, m)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"degree {m} fit took {elapsed:.2f}s"
        gap = abs(float(fit.psi) - 2.0**-m)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3, f"degree {m}: psi={fit.psi} vs {2.0 ** -m}"
        ext = extreme_sets(fit.model, samples)
        assert count_alternations(ext, samples) >= m + 2
        cert = check_hull_intersection(ext, samples, m)
        assert isinstance(cert, IntersectionCertificate)
        assert abs(cert.moment_residual) <= 1e-8
    print(f"ACCEPTANCE 1 PASS: psi within {worst_gap:.2e} of 2^-m for m=1..5")


def test_criterion_2_certificates_and_perturbation_witnesses(corpus_200):
    witness_count = 0
    refit_same_optimum = []
    for k, inst in enumerate(corpus_200):
        cert = check_hull_intersection(inst.extremes, inst.samples, inst.degree)
        assert isinstance(cert, IntersectionCertificate), f"instance {k} lost its certificate"
        assert abs(cert.moment_residual) <= 1e-8

        coeffs = list(inst.fit.model.coefficients)
        coeffs[k % len(coeffs)] += 1e-2
        bumped = PolynomialModel(inst.fit.model.basis, tuple(coeffs))
        ext = extreme_sets(bumped, inst.samples)
        outcome = check_hull_intersection(ext, inst.samples, inst.degree)
        if isinstance(outcome, SeparationWitness):
            witness_count += 1
        else:
            # still optimal: only acceptable when the perturbed model is a
            # best approximation itself (non-unique optimum)
            psi_perturbed = max(abs(r) for r in (
                v - bumped(p) for p, v in zip(inst.samples.points, inst.samples.values)
            ))
            assert abs(float(psi_perturbed) - float(inst.fit.psi)) <= 1e-9
            refit_same_optimum.append(k)
    assert witness_count >= 0.95 * len(corpus_200), f"only {witness_count} witnesses"
    print(
        f"ACCEPTANCE 2 PASS: {witness_count}/200 perturbations separated; "
        f"{len(refit_same_optimum)} re-fit to the same optimum (logged: {refit_same_optimum})"
    )


def test_criterion_3_rice_equivalence(corpus_200):
    disagreements = 0
    for inst in corpus_200:
        has_cert = isinstance(
            check_hull_intersection(inst.extremes, inst.samples, inst.degree),
            IntersectionCertificate,
        )
        iso = check_isolability(inst.extremes, inst.samples, inst.degree)
        if has_cert != (not iso.isolable):
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 3 PASS: certificate <=> not-isolable on 200/200 instances")


def test_criterion_4_reduction_necessity(corpus_m3):
    checked = 0
    for inst in corpus_m3:
        ext = inst.extremes
        if ext.degenerate or not ext.plus or not ext.minus:
            continue
        if not isinstance(
            check_hull_intersection(ext, inst.samples, inst.degree), IntersectionCertificate
        ):
            continue
        report = reduce_and_verify(ext, inst.samples, inst.degree)
        assert report.verdict == "pass"
        checked += 1
    assert checked >= 40

    # univariate verdict/certificate match: certified-optimal fits plus
    # non-optimal strictly alternating extreme patterns of length m + 1
    matches = total = 0
    for inst in corpus_m3:
        ext = inst.extremes
        if inst.samples.dimension != 1 or ext.degenerate or not ext.plus or not ext.minus:
            continue
        cert_pass = isinstance(
            check_hull_intersection(ext, inst.samples, inst.degree), IntersectionCertificate
        )
        red_pass = reduce_and_verify(ext, inst.samples, inst.degree).verdict == "pass"
        total += 1
        matches += cert_pass == red_pass
    for m in (1, 2, 3):
        for lead in ("+", "-"):
            signs = "".join(lead if i % 2 == 0 else ("-" if lead == "+" else "+") for i in range(m + 1))
            samples, ext = synthetic_univariate(signs)
            cert_pass = isinstance(
                check_hull_intersection(ext, samples, m), IntersectionCertificate
            )
            red_pass = reduce_and_verify(ext, samples, m).verdict == "pass"
            total += 1
            matches += cert_pass == red_pass
            assert not cert_pass  # alternation m + 1 < m + 2 is never optimal
    assert matches == total, f"{matches}/{total} univariate verdicts matched"
    print(
        f"ACCEPTANCE 4 PASS: reduction passed {checked} certified-optimal instances; "
        f"univariate match {matches}/{total}"
    )


def test_criterion_5_hyperplane_equivalence(corpus_m3):
    t0 = time.perf_counter()
    compared = 0
    for inst in corpus_m3:
        ext = inst.extremes
        if inst.degree not in (2, 3) or ext.degenerate or not ext.plus or not ext.minus:
            continue
        if len(set(ext.plus) | set(ext.minus)) > 8:
            continue
        cert_pass = isinstance(
            check_hull_intersection(ext, inst.samples, inst.degree), IntersectionCertificate
        )
        verdict = verify_by_hyperplanes(ext, inst.samples, inst.degree)
        assert (verdict.verdict == "pass") == cert_pass
        compared += 1
    assert compared >= 20

    rng = random.Random(515)
    univariate_checked = 0
    for _ in range(60):
        m = rng.randint(2, 3)
        n = rng.randint(m + 1, m + 4)
        signs = "".join(rng.choice("+-") for _ in range(n))
        if "+" not in signs or "-" not in signs:
            continue
        samples, ext = synthetic_univariate(signs)
        verdict = verify_by_hyperplanes(ext, samples, m)
        assert (verdict.verdict == "pass") == (count_alternations(ext, samples) >= m + 2)
        univariate_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 PASS: {compared} corpus + {univariate_checked} univariate instances "
        f"in {elapsed:.1f}s"
    )


def test_criterion_6_worked_fixtures_exact():
    # parabola on three points
    s1 = SampleSet([(-1,), (0,), (1,)], [1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f1 = fit_minimax(s1, 1, exact=True)
    assert f1.model.coefficients == (Fraction(1, 2), Fraction(0))
    assert f1.psi == Fraction(1, 2)
    assert [1 if r > 0 else -1 for r in f1.residuals] == [1, -1, 1]

    # cubic on the 1001-point uniform grid
    xs = [Fraction(-1) + Fraction(2 * k, 1000) for k in range(1001)]
    s2 = SampleSet([(x,) for x in xs], [x**3 for x in xs])
    f2 = fit_minimax(s2, 2, exact=True)
    assert f2.model.coefficients == (Fraction(0), Fraction(3, 4), Fraction(0))
    assert f2.psi == Fraction(1, 4)
    ext2 = extreme_sets(f2.model, s2, rel_tol=0)
    ordered = sorted(set(ext2.plus) | set(ext2.minus), key=lambda i: s2.points[i][0])
    assert [s2.points[i][0] for i in ordered] == [-1, Fraction(-1, 2), Fraction(1, 2), 1]
    signs = [1 if i in ext2.plus else -1 for i in ordered]
    assert signs == [-1, 1, -1, 1]
    report = reduce_and_verify(ext2, s2, 2, exact=True)
    assert report.verdict == "pass"
    by_branch = {trace.branch: trace for trace in report.traces}
    min_step = by_branch[((1, "min"),)].steps[0]
    assert min_step.delta == -1 and [s2.points[i][0] for i in min_step.removed] == [-1]
    max_step = by_branch[((1, "max"),)].steps[0]
    assert max_step.delta == -1 and [s2.points[i][0] for i in max_step.removed] == [1]

    # bilinear target on the four corners
    pts = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    s3 = SampleSet(pts, [x * y for x, y in pts])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f3 = fit_minimax(s3, 1, exact=True)
    assert f3.model.coefficients == (Fraction(0), Fraction(0), Fraction(0))
    assert f3.psi == 1
    ext3 = extreme_sets(f3.model, s3, rel_tol=0)
    cert = check_hull_intersection(ext3, s3, 1, exact=True)
    assert isinstance(cert, IntersectionCertificate)
    assert cert.alpha == (Fraction(1, 2), Fraction(1, 2))
    assert cert.beta == (Fraction(1, 2), Fraction(1, 2))
    assert cert.moment_residual == 0
    print("ACCEPTANCE 6 PASS: all three worked fixtures reproduce exactly in rational mode")


def test_criterion_7_shift_identity_randomized():
    rng = random.Random(777)
    worst_float = 0.0
    for _ in range(1000):
        lefts, rights = lemma_system(rng, rng.randint(1, 5), rng.randint(1, 5))
        delta = Fraction(rng.randint(-72, 72), 12)
        left, right = shift_monomial_weights(lefts, rights, delta, tol=0)
        assert left == right

        f_lefts = [(float(w), float(a), float(x)) for w, a, x in lefts]
        f_rights = [(float(v), float(b), float(y)) for v, b, y in rights]
        f_left, f_right = shift_monomial_weights(f_lefts, f_rights, float(delta), tol=1e-9)
        worst_float = max(worst_float, abs(f_left - f_right))
        assert abs(f_left - f_right) <= 1e-10
    print(f"ACCEPTANCE 7 PASS: 1000 systems exact; float gap <= {worst_float:.2e}")
