"""Tests for the communication-complexity models and fitting."""

import pytest

from repro.analysis.communication import (
    enhanced_predicted_bits,
    fit_through_origin,
    horizontal_predicted_bits,
    vertical_predicted_bits,
    vertical_work_term,
    ympp_predicted_bits,
)


class TestFormulas:
    def test_horizontal_formula(self):
        # c1*m*l*(n-l) + c2*n0*l*(n-l) with all parameters distinguishable.
        assert horizontal_predicted_bits(n=10, l=4, m=3, c1=8, c2=16,
                                         n0=32) \
            == 8 * 3 * 4 * 6 + 16 * 32 * 4 * 6

    def test_vertical_formula(self):
        assert vertical_predicted_bits(n=10, c2=16, n0=32) == 16 * 32 * 100

    def test_enhanced_same_order_as_horizontal(self):
        for n, l, m in [(10, 5, 2), (20, 7, 4)]:
            assert enhanced_predicted_bits(n, l, m, 8, 16, 32) \
                == horizontal_predicted_bits(n, l, m, 8, 16, 32)

    def test_ympp_linear_in_domain(self):
        assert ympp_predicted_bits(64, c2=16) == 16 * 66
        assert ympp_predicted_bits(128, 16) > 1.9 * ympp_predicted_bits(64, 16)

    def test_work_terms(self):
        assert vertical_work_term(10) == 90


class TestFitting:
    def test_perfect_proportionality(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        fit = fit_through_origin(xs, ys)
        assert fit.coefficient == pytest.approx(10.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(5.0) == pytest.approx(50.0)

    def test_noisy_fit_good_r2(self):
        xs = [float(x) for x in range(1, 20)]
        ys = [7.0 * x + ((-1) ** x) * 0.5 for x in xs]
        fit = fit_through_origin(xs, ys)
        assert fit.coefficient == pytest.approx(7.0, abs=0.1)
        assert fit.r_squared > 0.99

    def test_non_proportional_low_r2(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [50.0, 10.0, 40.0, 5.0, 30.0]  # uncorrelated with xs
        fit = fit_through_origin(xs, ys)
        assert fit.r_squared < 0.9

    def test_constant_data_is_vacuously_perfect(self):
        # Zero variance: R^2 is defined as 1.0 by convention.
        fit = fit_through_origin([1.0, 2.0], [5.0, 5.0])
        assert fit.r_squared == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            fit_through_origin([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="two observations"):
            fit_through_origin([1.0], [1.0])
        with pytest.raises(ValueError, match="zero"):
            fit_through_origin([0.0, 0.0], [1.0, 2.0])
