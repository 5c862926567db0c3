import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from operad_forge.series import (
    PowerSeries,
    SeriesError,
    cayley_series,
    generator_series,
    verify_functional_equation,
)


def series(*coeffs, order=None):
    return PowerSeries.from_list(coeffs, order)


class TestRingOperations:
    def test_mul(self):
        assert (series(1, 1, order=2) * series(1, -1, order=2)).coeffs == (1, 0, -1)

    def test_compose_hand_expansion(self):
        # x^2 composed with x + x^2, truncated at order 4
        g = series(0, 0, 1, order=4)
        h = series(0, 1, 1, order=4)
        assert g.compose(h).coeffs == (0, 0, 1, 2, 1)

    def test_compose_identity(self):
        g = series(3, 1, 4, 1, 5)
        assert g.compose(PowerSeries.identity(4)) == g

    def test_compose_needs_zero_constant(self):
        with pytest.raises(SeriesError):
            series(0, 1).compose(series(1, 1))

    def test_add_truncates_to_common_order(self):
        assert (series(1, 2, 3) + series(1, 1)).coeffs == (2, 3)

    def test_coefficient_outside_the_stored_range_is_zero(self):
        # a negative index must not read the tuple from its end
        g = PowerSeries((0, 1, 2))
        assert [g.coefficient(n) for n in (-1, -3, 0, 2, 3)] == [0, 0, 0, 2, 0]

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    def test_rejects_index_that_is_not_an_int(self, n):
        with pytest.raises(SeriesError, match="must be an integer"):
            series(0, 1, 2, 3).coefficient(n)


@pytest.mark.parametrize("other", [5, (0, 1), "x", None], ids=["int", "tuple", "str", "None"])
@pytest.mark.parametrize(
    "op",
    [
        PowerSeries.__add__,
        PowerSeries.__sub__,
        PowerSeries.__mul__,
        PowerSeries.compose,
    ],
    ids=["add", "sub", "mul", "compose"],
)
def test_ring_operations_reject_a_non_series(op, other):
    with pytest.raises(SeriesError, match="is not a PowerSeries"):
        op(series(0, 1, 1), other)


class TestConstruction:
    def test_a_list_is_stored_as_a_tuple(self):
        assert PowerSeries([0, 1]) == PowerSeries((0, 1))
        assert hash(PowerSeries([0, 1])) == hash(PowerSeries((0, 1)))

    def test_rejects_a_float_coefficient(self):
        with pytest.raises(SeriesError, match="must be integers"):
            PowerSeries((0, 1, 0.5)).compositional_inverse()

    def test_rejects_string_coefficients(self):
        with pytest.raises(SeriesError, match="must be integers"):
            PowerSeries.from_list("012", 3)

    def test_rejects_coefficients_that_are_not_a_sequence(self):
        with pytest.raises(SeriesError, match="must be a sequence"):
            PowerSeries(5)

    def test_rejects_an_empty_series(self):
        with pytest.raises(SeriesError, match="at least the constant coefficient"):
            PowerSeries(())


class TestCompositionalInverse:
    def test_identity(self):
        assert PowerSeries.identity(5).compositional_inverse() == PowerSeries.identity(5)

    def test_catalan_signs(self):
        h = series(0, 1, 1, order=5)
        inv = h.compositional_inverse()
        assert inv.coeffs == (0, 1, -1, 2, -5, 14)
        assert h.compose(inv) == PowerSeries.identity(5)
        assert inv.compose(h) == PowerSeries.identity(5)

    def test_rejects_bad_leading_terms(self):
        with pytest.raises(SeriesError):
            series(1, 1).compositional_inverse()
        with pytest.raises(SeriesError):
            series(0, 2).compositional_inverse()

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=7, max_size=7))
    @settings(max_examples=40)
    def test_involution(self, tail):
        h = PowerSeries((0, 1, *tail))
        assert h.compositional_inverse().compositional_inverse() == h


class TestGeneratorSeries:
    def test_known_coefficients(self):
        beta = generator_series(9)
        assert beta.coeffs[2:] == (2, 1, 14, 146, 1994, 32853, 630320, 13759430)
        assert beta.coefficient(0) == beta.coefficient(1) == 0

    def test_functional_equation(self):
        alpha = cayley_series(9)
        beta = generator_series(9)
        assert verify_functional_equation(alpha, beta, 9)

    def test_zero_generator_series(self):
        assert verify_functional_equation(
            PowerSeries.identity(6), PowerSeries.zero(6), 6
        )

    def test_perturbed_coefficient_fails(self):
        alpha = cayley_series(9)
        beta = generator_series(9)
        bent = PowerSeries(beta.coeffs[:2] + (beta.coeffs[2] + 1,) + beta.coeffs[3:])
        assert not verify_functional_equation(alpha, bent, 9)

    def test_order_above_either_series_is_rejected(self):
        # zero padding past order 5 would make this correct pair fail
        alpha, beta = cayley_series(5), generator_series(5)
        assert verify_functional_equation(alpha, beta, 5)
        for lhs, rhs in [(alpha, beta), (cayley_series(8), beta), (alpha, generator_series(8))]:
            with pytest.raises(SeriesError):
                verify_functional_equation(lhs, rhs, 8)


class TestAgainstBruteForce:
    def test_matches_indecomposable_counts(self):
        from operad_forge.freeness import count_indecomposables

        beta = generator_series(6)
        for n in range(2, 7):
            assert beta.coefficient(n) == count_indecomposables(n)


def test_polynomial_rendering():
    beta = generator_series(4)
    assert beta.polynomial() == "2x^2 + x^3 + 14x^4"
    assert PowerSeries.zero(3).polynomial() == "0"
    assert series(0, 1, -1).polynomial() == "x - x^2"
