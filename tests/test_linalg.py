"""Exact Gauss-Jordan null vectors and hyperplanes through points."""

import random
from fractions import Fraction

from minimaxfit._linalg import affine_normal, exact_nullspace, exact_solve


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
    def test_exact_plane_through_independent_points(self):
        rng = random.Random(13)
        for d in (2, 3, 4):
            points = [[_rational(rng) for _ in range(d)] for _ in range(d)]
            u, a = affine_normal(points, exact=True)
            assert next(c for c in u if c != 0) == 1
            assert all(sum(c * x for c, x in zip(u, p)) == a for p in points)

    def test_exact_affinely_dependent_points_give_none(self):
        collinear = [(Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(2), Fraction(3)),
                     (Fraction(2), Fraction(4), Fraction(5))]
        assert affine_normal(collinear, exact=True) is None
        assert affine_normal([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))], exact=True) is None
