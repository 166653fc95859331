"""The closed forms of `oracles` against what they replace and against each other.

`derivative_closed_form` is a Poisson series cut at the horizon.  With no limit
it meets `derivative_exact`, at horizon 200 its own limit, at horizon 0 zero,
and at horizon 2 the nested two-period quadrature it replaced, pinned here as a
literal.  `control_limit_exact` is the root of the series' sign factor J when
J is nonincreasing, and None otherwise.
"""

from __future__ import annotations

import pytest

from oracles import C_WAIT, R0, control_limit_exact, derivative_closed_form, derivative_exact

LAM = 0.97
THETAS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
# Central difference (delta 1e-5) of the nested two-period quadrature at theta = 0.5, discount 0.97.
TWO_PERIOD_DERIVATIVE = -3.7958376376323595


def _c(h):
    return C_WAIT


def _r(h):
    return R0 * (1.0 - h)


@pytest.mark.parametrize("theta", THETAS)
def test_series_meets_its_limits(theta):
    d = derivative_closed_form(theta, LAM, 0.0, 1.0, _c, _r, horizon=None)
    assert d == pytest.approx(derivative_exact(theta, LAM), abs=1e-12)
    assert derivative_closed_form(theta, LAM, 0.0, 1.0, _c, _r, horizon=200) == pytest.approx(d, abs=1e-12)
    assert derivative_closed_form(theta, LAM, 0.0, 1.0, _c, _r, horizon=0) == 0.0


def test_series_meets_the_two_period_quadrature():
    d = derivative_closed_form(0.5, LAM, 0.0, 1.0, _c, _r, horizon=2)
    assert d == pytest.approx(TWO_PERIOD_DERIVATIVE, abs=1e-9)


def test_control_limit_in_the_monotone_case():
    # c = 1, r = 5, H_D = 0.9: J = -4 + 4.85 (0.9 - theta) / (1 - theta) falls through 0 at 0.365 / 0.85.
    limit = control_limit_exact(LAM, 0.9, lambda h: 1.0, lambda h: 5.0 + 0.0 * h)
    assert limit == pytest.approx(0.365 / 0.85, abs=1e-12)


def test_control_limit_is_none_when_J_rises():
    # wsc-example: J = 0.5 - 4.12 (1 - theta) increases, so its root 0.8786 is the minimum of V.
    assert control_limit_exact(LAM, 1.0, _c, _r) is None
