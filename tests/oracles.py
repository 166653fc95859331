"""Independent numerical oracles for the uniform-deterioration scenario.

Everything here is computed from first principles with plain numpy quadrature
and closed-form probability, with no imports from the package under test, so
these values can safely pin the estimators and solvers.

Scenario conventions, except for `derivative_closed_form`: state space [0, 1],
next state Uniform[current, 1], waiting reward c constant, transplant reward
r(h) = r0 * (1 - h), start h0 = 0, no interior death region.
"""

from __future__ import annotations

import numpy as np

C_WAIT = 0.5
R0 = 8.0


def simpson(f, a: float, b: float, n: int = 2048) -> float:
    """Composite Simpson with n panels (n even by construction)."""
    x = np.linspace(a, b, 2 * n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (2 * n)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def value_exact(theta: float, lam: float) -> float:
    """Infinite-horizon policy value from h0 = 0.

    From h0 = 0 the crossing period M satisfies M - 1 ~ Poisson(-ln(1-theta))
    (the log-residual 1 - h_k is a product of iid uniforms), which gives
    E[lam^M] = lam * (1-theta)^(1-lam); conditional on crossing, the overshoot
    state is Uniform[theta, 1], so E[r at stop] = (R0/2) * (1-theta).
    """
    y = 1.0 - theta
    e_lam_m = lam * y ** (1.0 - lam)
    return (C_WAIT / (1.0 - lam)) * (1.0 - e_lam_m) + (R0 / 2.0) * lam * y ** (2.0 - lam)


def derivative_exact(theta: float, lam: float) -> float:
    """d/dtheta of `value_exact`."""
    y = 1.0 - theta
    return C_WAIT * lam * y ** (-lam) - (R0 / 2.0) * lam * (2.0 - lam) * y ** (1.0 - lam)


def two_period_value(theta: float, lam: float, panels: int = 1500) -> float:
    """E[v_2(theta)] from h0 = 0 by nested quadrature over the two transitions.

    v_2 accrues the waiting reward at period 0, then either stops at period 1
    (h1 >= theta) or accrues c and resolves period 2 against the second
    transition, which from h1 is uniform on [h1, 1].
    """

    def r(h):
        return R0 * (1.0 - h)

    stop1 = simpson(r, theta, 1.0, panels)  # h1 ~ U[0,1] density 1

    def waited(h1_arr):
        out = np.empty_like(h1_arr)
        for i, h1 in enumerate(h1_arr):
            dens = 1.0 / (1.0 - h1)
            stop2 = simpson(lambda y: r(y) * dens, theta, 1.0, panels)
            wait2 = C_WAIT * dens * (theta - h1)  # constant integrand on [h1, theta)
            out[i] = lam * C_WAIT + lam * lam * (stop2 + wait2)
        return out

    return C_WAIT + lam * stop1 + simpson(waited, 0.0, theta, 400)


def two_period_derivative(theta: float, lam: float, delta: float = 1e-5) -> float:
    """Central difference of the truncated-horizon expected value in theta."""
    return (two_period_value(theta + delta / 2.0, lam) - two_period_value(theta - delta / 2.0, lam)) / delta


def continuation_mean_reward(theta: float) -> float:
    """E[r(h')] for h' ~ Uniform[theta, 1], by quadrature (equals (R0/2)(1-theta))."""
    dens = 1.0 / (1.0 - theta)
    return simpson(lambda y: R0 * (1.0 - y) * dens, theta, 1.0)


def derivative_closed_form(theta, lam, h0, H_D, c, r, knots=()) -> float:
    """dV/dtheta of the infinite-horizon threshold policy for any model the
    config accepts: next state Uniform[h, 1], death region [H_D, 1], start h0,
    rewards c and r given as callables whose kinks are listed in `knots`.

    Before the crossing, the visited states after period 0 form a rate-1
    Poisson process in t = -ln(1 - h), so their expected discounted count per
    unit h is g(h) = lam ((1 - h)/(1 - h0))^(1 - lam) / (1 - h).  A crossing
    from state h lands Uniform[theta, 1], so with
    P(theta) = 1/(1 - h0) + int_h0^theta g(h)/(1 - h) dh and
    R(theta) = int_theta^H_D r dh the value is
    V = c(h0) + int_h0^theta c g dh + lam P R, whose derivative is returned.
    V does not depend on theta when theta <= h0 (immediate transplant) or
    theta >= H_D (no living state transplants).
    """
    if theta <= h0 or theta >= H_D:
        return 0.0

    def g(h):
        return lam * ((1.0 - h) / (1.0 - h0)) ** (1.0 - lam) / (1.0 - h)

    def integral(f, a, b):
        edges = [a, *sorted(k for k in knots if a < k < b), b]
        return sum(simpson(f, p, q) for p, q in zip(edges[:-1], edges[1:]))

    P = 1.0 / (1.0 - h0) + integral(lambda h: g(h) / (1.0 - h), h0, theta)
    R = integral(r, theta, H_D)
    return float(c(theta) * g(theta) + lam * g(theta) / (1.0 - theta) * R - lam * P * r(theta))
