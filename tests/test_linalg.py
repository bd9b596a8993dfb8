"""Exact fraction-free null vectors and hyperplanes through points."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit._linalg import affine_normal, affine_normals, exact_nullspace, exact_solve, integer_normals

from support import gauss_jordan_nullspace, reference_exact_plane

_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(max_denominator=60).filter(lambda q: abs(q) < 100),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-10**40, 10**40),
)


@st.composite
def _matrices(draw, square=False):
    """Tall, wide or square, dense, sparse, rank-deficient or all-zero matrices of mixed entries."""
    m = draw(st.integers(1, 7))
    n = m if square else draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["dense", "sparse", "deficient", "zero"]))
    if kind == "zero":
        return [[draw(st.sampled_from([0, 0.0, Fraction(0)])) for _ in range(n)] for _ in range(m)]
    entries = st.one_of(st.just(0), _ENTRIES) if kind == "sparse" else _ENTRIES
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if kind == "deficient":  # every row past the first `rank` combines those rows, over Fraction
        rank = draw(st.integers(0, min(m, n) - 1))
        for i in range(rank, m):
            weights = [draw(st.fractions(max_denominator=9).filter(lambda q: abs(q) < 9)) for _ in range(rank)]
            rows[i] = [sum((w * Fraction(rows[k][j]) for k, w in enumerate(weights)), Fraction(0))
                       for j in range(n)]
    return rows


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _product(b, c):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


class TestExactNullspace:
    def test_full_column_rank_has_no_null_vector(self):
        rng = random.Random(11)
        for _ in range(30):
            ncols = rng.randint(1, 5)
            extra = [[_rational(rng) for _ in range(ncols)] for _ in range(rng.randint(0, 3))]
            identity = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
            rows = identity + extra
            rng.shuffle(rows)
            v, rank = exact_nullspace(rows)
            assert v is None and rank == ncols

    def test_rank_deficient_rows_give_an_exact_null_vector(self):
        rng = random.Random(12)
        for _ in range(30):
            ncols = rng.randint(2, 6)
            inner = rng.randint(1, ncols - 1)
            b = [[_rational(rng) for _ in range(inner)] for _ in range(rng.randint(1, 7))]
            c = [[_rational(rng) for _ in range(ncols)] for _ in range(inner)]
            rows = _product(b, c)  # rank at most inner < ncols
            v, rank = exact_nullspace(rows)
            assert rank <= inner
            assert any(x != 0 for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_bareiss_equals_gauss_jordan(rows):
    v, rank = exact_nullspace(rows)
    assert (v, rank) == gauss_jordan_nullspace(rows)
    assert v is None or all(type(c) is Fraction for c in v)


@settings(max_examples=200, deadline=None)
@given(_matrices(square=True), st.data())
def test_exact_solve_gives_fractions_or_none(a, data):
    b = data.draw(st.lists(_ENTRIES, min_size=len(a), max_size=len(a)))
    x = exact_solve(a, b)
    if gauss_jordan_nullspace(a)[1] < len(a):
        assert x is None
    else:
        assert all(type(c) is Fraction for c in x)
        assert [sum(Fraction(p) * q for p, q in zip(row, x)) for row in a] == [Fraction(c) for c in b]


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_exact_solve_of_any_shape_gives_the_unique_solution_or_none(a, data):
    b = data.draw(st.lists(_ENTRIES, min_size=len(a), max_size=len(a)))
    x = exact_solve(a, b)
    n = len(a[0])
    unique = gauss_jordan_nullspace(a)[1] == n == gauss_jordan_nullspace([[*row, c] for row, c in zip(a, b)])[1]
    assert (x is not None) == unique
    if x is not None:
        assert [sum(Fraction(p) * q for p, q in zip(row, x)) for row in a] == [Fraction(c) for c in b]


def test_integer_systems_solve_to_fractions():
    # zero right-hand sides and unit matrices leave nothing to divide in the back-substitution
    assert exact_solve([[2]], [0]) == [0]
    for a, b in (([[2]], [0]), ([[1, 0], [0, 1]], [0, 3]), ([[0, 1], [1, 0]], [4, 0]), ([[2, 1], [1, 1]], [1, 1])):
        assert all(type(c) is Fraction for c in exact_solve(a, b))
    assert exact_nullspace([[0, 0, 0]]) == ([1, 0, 0], 0)
    assert all(type(c) is Fraction for c in exact_nullspace([[0, 0, 0]])[0])


class TestExactSolve:
    def test_square_systems_solved_or_singular(self):
        rng = random.Random(14)
        solved = 0
        for _ in range(40):
            k = rng.randint(1, 6)
            # mostly zeros, like a simplex basis: slack columns are unit vectors
            a = [[_rational(rng) if rng.random() < 0.4 else Fraction(0) for _ in range(k)] for _ in range(k)]
            b = [_rational(rng) for _ in range(k)]
            x = exact_solve(a, b)
            if exact_nullspace(a)[1] < k:
                assert x is None
            else:
                solved += 1
                assert [sum(p * q for p, q in zip(row, x)) for row in a] == b
        assert solved >= 10
        assert exact_solve([], []) == []

    def test_singular_with_right_side_in_or_out_of_range(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert exact_solve(a, [Fraction(1), Fraction(2)]) is None
        assert exact_solve(a, [Fraction(1), Fraction(3)]) is None


class TestAffineNormal:
    def test_reference_exact_plane_through_independent_points(self):
        rng = random.Random(13)
        for d in (2, 3, 4):
            points = [[_rational(rng) for _ in range(d)] for _ in range(d)]
            u, a = reference_exact_plane(points)
            assert next(c for c in u if c != 0) == 1
            assert all(sum(c * x for c, x in zip(u, p)) == a for p in points)

    def test_plane_differences_eliminate_as_by_gauss_jordan(self):
        # the d - 1 differences from the first point, as an exact plane takes them: huge ints and rationals
        rng = random.Random(15)
        for _ in range(40):
            d = rng.randint(2, 4)
            points = [[rng.choice([rng.randint(-3, 3), _rational(rng), rng.randint(-10**30, 10**30)])
                       for _ in range(d)] for _ in range(d)]
            diffs = [[Fraction(c) - Fraction(b) for c, b in zip(p, points[0])] for p in points[1:]]
            assert exact_nullspace(diffs) == gauss_jordan_nullspace(diffs)
            plane = reference_exact_plane(points)
            if plane is not None:
                u, a = plane
                assert all(type(c) is Fraction for c in (*u, a))
                assert all(sum(c * Fraction(x) for c, x in zip(u, p)) == a for p in points)

    def test_rejects_a_point_count_other_than_the_dimension(self):
        with pytest.raises(ValueError, match="need exactly 2 points in dimension 2, got 1"):
            affine_normal([(1, 2)])
        with pytest.raises(ValueError, match="need exactly 1 points in dimension 1, got 2"):
            affine_normal([(1,), (2,)])

    def test_exact_affinely_dependent_points_have_no_plane(self):
        collinear = [(0, 0, 1), (1, 2, 3), (2, 4, 5)]
        repeated = [(1, 2), (1, 2)]
        assert reference_exact_plane(collinear) is None and reference_exact_plane(repeated) is None
        for points in (collinear, repeated):
            assert not integer_normals(np.array([points], dtype=object))[2][0]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_float_normals_of_a_batch_are_the_one_plane_reference_bit_for_bit(d):
    """Each row of `affine_normals` is `affine_normal`'s plane, bit for bit, or not unique where it has none."""
    rng = random.Random(20 + d)
    coordinate = [lambda: rng.uniform(-2, 2), lambda: rng.randint(-4, 4) / 4, lambda: -0.0]
    points = np.array([[[rng.choice(coordinate)() for _ in range(d)] for _ in range(d)] for _ in range(300)])
    points[:40, -1] = points[:40, 0]  # repeated points: no unique plane in d > 1
    if d > 2:
        points[40:80, -1] = 2 * points[40:80, 1] - points[40:80, 0]  # three points on one line
    u, a, unique = affine_normals(points)
    assert u.shape == (300, d) and a.shape == unique.shape == (300,)
    found = 0
    for row, offset, ok, combo in zip(u, a, unique.tolist(), points.tolist()):
        ref = affine_normal(combo)
        assert ok == (ref is not None)
        if ok:
            found += 1
            assert row.tobytes() == np.array(ref[0]).tobytes() and offset.tobytes() == np.float64(ref[1]).tobytes()
            assert all(abs(np.dot(row, p) - offset) < 1e-12 for p in combo)
    assert found > (200 if d > 2 else 250 if d > 1 else 299)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_integer_normals_are_the_exact_planes_over_integers(d):
    """Each row is `reference_exact_plane`'s plane times its normal's first non-zero entry, primitive, or not unique."""
    rng = random.Random(d)
    coordinate = [lambda: rng.randint(-3, 3), lambda: rng.randint(-10**30, 10**30)]
    points = np.array([[[rng.choice(coordinate)() for _ in range(d)] for _ in range(d)] for _ in range(300)],
                      dtype=object)
    points[:40, -1] = points[:40, 0]  # repeated points: no unique plane in d > 1
    U, A, unique = integer_normals(points)
    assert U.shape == (300, d) and A.shape == unique.shape == (300,)
    found = 0
    for row, a, ok, combo in zip(U.tolist(), A.tolist(), unique.tolist(), points.tolist()):
        ref = reference_exact_plane(combo)
        assert ok == (ref is not None)
        if ok:
            found += 1
            lead = next(c for c in row if c)
            assert lead > 0 and math.gcd(*row) == 1 and all(type(c) is int for c in (*row, a))
            assert ref == (tuple(Fraction(c, lead) for c in row), Fraction(a, lead))
    assert found > (250 if d > 1 else 299)
