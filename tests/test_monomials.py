"""Basis construction, lifting, evaluation, and the weighted shift identity."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxfit import (
    MonomialBasis,
    PolynomialModel,
    build_basis,
    evaluate,
    lift,
    shift_monomial_weights,
)
from minimaxfit.monomials import dot, dot_rows, lift_matrix

from support import reference_lift


class TestBuildBasis:
    def test_univariate_degree_two(self):
        basis = build_basis(1, 2)
        assert list(basis.exponents) == [(0,), (1,), (2,)]
        assert basis.size == 3

    def test_bivariate_degree_two_counts(self):
        basis = build_basis(2, 2)
        assert basis.size == 6

    def test_trivariate_degree_three_count(self):
        assert build_basis(3, 3).size == math.comb(6, 3)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            build_basis(0, 2)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            build_basis(2, -1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_size_is_binomial(self, d, m):
        assert build_basis(d, m).size == math.comb(d + m, d)

    def test_graded_lex_order(self):
        basis = build_basis(2, 2)
        assert list(basis.exponents) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_constant_first_and_prefix_property(self):
        basis = build_basis(3, 4)
        assert basis.exponents[0] == (0, 0, 0)
        lower = build_basis(3, 3)
        assert build_basis(3, 4).exponents[:lower.size] == lower.exponents

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 3), (3, 2)])
    def test_every_monomial_factors_through_lower_degree(self, d, m):
        # every degree-k monomial is a degree-(k-1) monomial times one coordinate
        basis = build_basis(d, m)
        members = set(basis.exponents)
        for e in basis.exponents:
            if sum(e) == 0:
                continue
            factors = []
            for j, ej in enumerate(e):
                if ej > 0:
                    lower = list(e)
                    lower[j] -= 1
                    if tuple(lower) in members:
                        factors.append(j)
            assert factors, f"{e} has no factoring through the basis"


class TestLift:
    def test_univariate_powers(self):
        assert lift((2,), build_basis(1, 2)) == [1, 2, 4]

    def test_all_ones(self):
        assert lift((1, 1), build_basis(2, 2)) == [1, 1, 1, 1, 1, 1]

    def test_zero_coordinate_kills_mixed_monomials(self):
        assert lift((0, 3), build_basis(2, 2)) == [1, 0, 3, 0, 0, 9]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lift((1, 2), build_basis(1, 2))

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
                st.lists(st.fractions(-4, 4), min_size=d, max_size=d),
            )
        )
    )
    def test_multiplicative_over_exponent_addition(self, data):
        e, f, point = data
        e, f = tuple(e), tuple(f)
        combined = tuple(a + b for a, b in zip(e, f))
        v_e, v_f, v_combined = lift(point, MonomialBasis(len(e), sum(combined), (e, f, combined)))
        assert v_combined == v_e * v_f


class TestEvaluate:
    def test_zero_polynomial(self):
        basis = build_basis(2, 2)
        model = PolynomialModel(basis, (0,) * basis.size)
        assert evaluate(model, (0.3, -0.7)) == 0

    def test_constant(self):
        basis = build_basis(1, 1)
        model = PolynomialModel(basis, (0.5, 0))
        assert evaluate(model, (0.7,)) == 0.5

    def test_single_mixed_monomial(self):
        basis = build_basis(2, 2)
        coeffs = [0] * basis.size
        coeffs[basis.exponents.index((1, 1))] = 1
        model = PolynomialModel(basis, tuple(coeffs))
        assert evaluate(model, (2, 3)) == 6

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            PolynomialModel(build_basis(1, 2), (1.0, 2.0))


def _point_sets(d: int):
    """Uniform grid, Chebyshev grid and seeded random points in d dimensions."""
    res = {1: 41, 2: 9, 3: 5}[d]
    uniform = [float(-1 + Fraction(2 * k, res - 1)) for k in range(res)]
    chebyshev = sorted(math.cos(math.pi * k / (res - 1)) for k in range(res))
    rng = random.Random(d)
    scattered = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(40)]
    scattered += [(0.0,) * d, (-0.0,) * d, (-0.0,) + (-2.5,) * (d - 1), (-1.7,) * d]
    return [list(product(uniform, repeat=d)), list(product(chebyshev, repeat=d)), scattered]


def _ordered_dot(coeffs, row):
    """Reference inner product: terms added left to right from int 0."""
    total = 0
    for c, g in zip(coeffs, row):
        total = total + c * g
    return total


class TestLiftMatrix:
    """`lift_matrix` and `lift` repeat `reference_lift`, and `dot_rows` repeats `dot`, bit for bit.

    These fail if the matrix powers come from numpy's ``**`` (its vectorised
    pow differs from Python's in the last bit for some values), if a
    monomial's powers are multiplied out of coordinate order, or if the rows
    are summed by ``matrix @ coeffs`` (BLAS picks its own order).
    """

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_equal_lift_bit_for_bit(self, d):
        for points in _point_sets(d):
            for degree in range(7):
                basis = build_basis(d, degree)
                matrix = lift_matrix(points, basis)
                assert matrix.shape == (len(points), basis.size)
                for point, row in zip(points, matrix.tolist()):
                    expected = reference_lift(point, basis.exponents)
                    assert expected[0] == 1 and type(expected[0]) is int
                    assert [v.hex() for v in row] == [float(v).hex() for v in expected]
                    single = lift(point, basis)
                    assert [type(v) for v in single] == [type(v) for v in expected]
                    assert [float(v).hex() for v in single] == [float(v).hex() for v in expected]

    def test_powers_shared_by_repeated_coordinates_equal_lift_bit_for_bit(self):
        # a float table with d > 1 takes each power once per distinct coordinate and gathers it back to
        # the rows; the distinct values are told apart by their bits, so odd powers of -0.0 stay -0.0
        # where a column also holds 0.0, and a grid's repeated values give every row its own x ** e
        rng = random.Random(5)
        axis = np.linspace(-1, 1, 7).tolist()
        zeros = [(z, y) for z in (0.0, -0.0) for y in (0.5, -1.5, 0.0, -0.0)] + [(-0.0, 2.0), (0.0, -2.0)]
        tables = {
            "2-D grid": list(product(axis, repeat=2)),
            "3-D grid": list(product(axis[:5], repeat=3)),
            "scattered 2-D": [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(60)],
            "signed zeros": zeros,
        }
        for name, points in tables.items():
            d = len(points[0])
            basis = build_basis(d, 5)
            matrix = lift_matrix(np.array(points), basis)
            for point, row in zip(points, matrix.tolist()):
                expected = [float(v).hex() for v in reference_lift(point, basis.exponents)]
                assert [v.hex() for v in row] == expected, (name, point)
        # the signed-zeros table holds both zeros in its first column, and odd powers tell them apart
        basis = build_basis(2, 3)
        cubes = lift_matrix(np.array(zeros), basis)[:, basis.exponents.index((3, 0))]
        assert {math.copysign(1, v) for v in cubes if v == 0} == {1, -1}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 5), st.data())
    def test_object_rows_equal_lift_value_and_type(self, d, degree, data):
        # an object table of Fractions gives lift's own numbers: int 1 in the constant column, Fractions elsewhere
        n = data.draw(st.integers(1, 6))
        coordinate = st.fractions(min_value=-10, max_value=10, max_denominator=10**4)
        points = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=n, max_size=n))
        basis = build_basis(d, degree)
        matrix = lift_matrix(np.array(points, dtype=object), basis)
        assert matrix.dtype == object and matrix.shape == (n, basis.size)
        for point, row in zip(points, matrix.tolist()):
            expected = reference_lift(point, basis.exponents)
            assert row == expected == lift(point, basis)
            assert [type(v) for v in row] == [type(v) for v in expected] == [int] + [Fraction] * (basis.size - 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lift_matrix([(1.0, 2.0)], build_basis(1, 2))

    @pytest.mark.parametrize("kind", [int, float, Fraction])
    def test_residuals_equal_ordered_dot_bit_for_bit(self, kind):
        rng = random.Random(11)
        draw = {int: lambda: rng.randint(-9, 9), float: lambda: rng.uniform(-5, 5),
                Fraction: lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 37))}[kind]
        for d in (1, 2, 3):
            for points in _point_sets(d):
                values = [rng.uniform(-2, 2) for _ in points]
                for degree in (0, 1, 3, 6):
                    basis = build_basis(d, degree)
                    coeffs = [draw() for _ in range(basis.size)]
                    got = np.array(values) - dot_rows(lift_matrix(points, basis), coeffs)
                    reference = [v - _ordered_dot(coeffs, reference_lift(p, basis.exponents))
                                 for p, v in zip(points, values)]
                    assert [float(r).hex() for r in reference] == [r.hex() for r in got.tolist()]
                    assert all(dot(coeffs, lift(p, basis)) == _ordered_dot(coeffs, lift(p, basis))
                               for p in points[:5])


class TestShiftIdentity:
    def test_identical_sides(self):
        left, right = shift_monomial_weights([(1, 1, 3)], [(1, 1, 3)], 2)
        assert (left, right) == (1, 1)

    def test_split_mass_example(self):
        lefts = [(Fraction(1, 2), 1, 0), (Fraction(1, 2), 1, 2)]
        rights = [(1, 1, 1)]
        left, right = shift_monomial_weights(lefts, rights, 5, tol=0)
        assert left == right == -4

    def test_min_delta_zeroes_the_minimizing_term(self):
        lefts = [(Fraction(1, 2), 1, Fraction(1)), (Fraction(1, 2), 1, Fraction(3))]
        rights = [(1, 1, Fraction(2))]
        delta = min([x for _, _, x in lefts] + [y for _, _, y in rights])
        left, right = shift_monomial_weights(lefts, rights, delta, tol=0)
        assert left == right
        # the term of the minimizing point vanishes after the shift
        w, a, x = min(lefts, key=lambda t: t[2])
        assert w * a * (x - delta) == 0

    def test_violated_hypothesis_raises(self):
        with pytest.raises(ValueError):
            shift_monomial_weights([(1, 1, 3)], [(1, 1, 4)], 1)
        with pytest.raises(ValueError):
            shift_monomial_weights([(1, 2, 3)], [(1, 1, 6)], 1)

    @given(st.integers(0, 2**32 - 1))
    def test_exact_systems_balance_for_any_shift(self, seed):
        import random

        from support import lemma_system

        rng = random.Random(seed)
        lefts, rights = lemma_system(rng, rng.randint(1, 4), rng.randint(1, 4))
        delta = Fraction(rng.randint(-60, 60), 12)
        left, right = shift_monomial_weights(lefts, rights, delta, tol=0)
        assert left == right
