import cmath
import math

import numpy as np
import pytest

from weyl_canon.errors import IntegrationFailureError
from weyl_canon.quadrature import KRONROD_DEGREE, _kronrod21, integrate


def test_kronrod_rule_is_exact_up_to_its_degree():
    for k in range(KRONROD_DEGREE + 1):
        exact = (0.7 ** (k + 1) - (-1.3) ** (k + 1)) / (k + 1)
        value = _kronrod21(lambda x, k=k: (x - 0.3) ** k, -1.0, 1.0)[0]
        assert value == pytest.approx(exact, rel=1e-14, abs=1e-14), k
    value = _kronrod21(lambda x: x ** (KRONROD_DEGREE + 1), -1.0, 1.0)[0]
    assert abs(value - 2.0 / (KRONROD_DEGREE + 2)) > 1e-13


def test_inverse_square_root_near_zero():
    value, abserr = integrate(lambda x: x ** -0.5, 1e-12, 1.0,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(value - 2.0 * (1.0 - 1e-6)) <= 1e-12
    assert abserr <= 1e-12


def test_interval_limit_raises():
    with pytest.raises(IntegrationFailureError, match="10 intervals"):
        integrate(lambda x: math.sin(200.0 * x), 0.0, 100.0, limit=10)


def test_interval_limit_returns_the_estimate_when_not_strict():
    value, abserr = integrate(lambda x: math.sin(200.0 * x), 0.0, 100.0,
                              limit=10, strict=False)
    assert abs(value - (1.0 - math.cos(2e4)) / 200.0) <= abserr
    assert abserr > 1.49e-8


def test_non_finite_integrand_raises():
    with pytest.raises(IntegrationFailureError, match="not finite"):
        integrate(lambda x: 1.0 / (x - 0.5) if x != 0.5 else math.inf, 0.0, 1.0)


def test_rounding_limited_integral_returns():
    # the integral is 0, so epsabs = 1e-15 is below the rounding level of
    # summing |sin| over 100 periods; bisecting further cannot help
    value, abserr = integrate(math.sin, 0.0, 200.0 * math.pi,
                              epsabs=1e-15, epsrel=0.0, limit=500)
    assert abs(value) <= abserr < 1e-11


def test_one_interval_at_its_rounding_floor_does_not_stop_the_others():
    # (0, 1) is at its rounding floor 50 eps 1e6 = 1.1e-8 at once; the
    # oscillating half must still be bisected until the sum meets epsabs
    def f(x):
        return 1e6 if x < 1.0 else math.sin(1000.0 * x)

    exact = 1e6 + (math.cos(1000.0) - math.cos(2000.0)) / 1000.0
    value, abserr = integrate(f, 0.0, 2.0, epsabs=2.2e-8, epsrel=0.0,
                              limit=500)
    assert abserr <= 2.2e-8
    assert abs(value - exact) <= 1e-9


def test_complex_integrand():
    value, abserr = integrate(lambda x: cmath.exp(1j * x), 0.0, math.pi,
                              epsabs=1e-13, epsrel=1e-12)
    assert abs(value - 2j) <= 1e-12
    assert abserr <= 1e-12


def _matrix_integrand(x):
    return np.array([[math.exp(x), cmath.exp(2j * x)],
                     [x ** 3, 1.0 / (1.0 + x * x)]])


def test_array_integrand_matches_its_components():
    value, abserr = integrate(_matrix_integrand, 0.0, 2.0,
                              epsabs=1e-13, epsrel=1e-12)
    assert value.shape == (2, 2) and abserr <= 1e-12 * np.abs(value).max()
    exact = [[math.exp(2.0) - 1.0, (cmath.exp(4j) - 1.0) / 2j],
             [4.0, math.atan(2.0)]]
    for i in range(2):
        for k in range(2):
            scalar = integrate(lambda x: _matrix_integrand(x)[i, k], 0.0, 2.0,
                               epsabs=1e-13, epsrel=1e-12)[0]
            assert value[i, k] == pytest.approx(scalar, rel=1e-13, abs=1e-13)
            assert value[i, k] == pytest.approx(exact[i][k], rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_array_integrand_with_a_non_finite_component_raises():
    def f(x):
        return np.array([1.0, 1.0 / (x - 0.5) if x != 0.5 else math.inf])

    with pytest.raises(IntegrationFailureError, match="not finite"):
        integrate(f, 0.0, 1.0)


def test_array_integrand_interval_limit_raises():
    with pytest.raises(IntegrationFailureError, match="10 intervals"):
        integrate(lambda x: np.array([1.0, math.sin(200.0 * x)]), 0.0, 100.0,
                  limit=10)
