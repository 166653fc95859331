"""Independent numerical oracles for the uniform-deterioration kernel.

Everything here is computed from first principles with plain numpy quadrature
and closed-form probability, with no imports from the package under test, so
these values can safely pin the estimators and solvers.  `derivative_closed_form`
and `control_limit_exact` take any model the config accepts; the rest fix the
shipped scenario: constant c, r(h) = r0 * (1 - h), h0 = 0 and H_D = 1.
"""

from __future__ import annotations

import math

import numpy as np

C_WAIT = 0.5
R0 = 8.0


def simpson(f, a: float, b: float, n: int = 2048) -> float:
    """Composite Simpson with n panels (n even by construction)."""
    x = np.linspace(a, b, 2 * n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (2 * n)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def _integral(f, a: float, b: float, knots) -> float:
    """Simpson over [a, b], split at the kinks of f listed in `knots`."""
    edges = [a, *sorted(k for k in knots if a < k < b), b]
    return sum(simpson(f, p, q) for p, q in zip(edges[:-1], edges[1:]))


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


def continuation_mean_reward(theta: float) -> float:
    """E[r(h')] for h' ~ Uniform[theta, 1], by quadrature (equals (R0/2)(1-theta))."""
    dens = 1.0 / (1.0 - theta)
    return simpson(lambda y: R0 * (1.0 - y) * dens, theta, 1.0)


def derivative_closed_form(theta, lam, h0, H_D, c, r, knots=(), horizon=None) -> float:
    """dV/dtheta of the threshold policy over periods 0 ... horizon (None: no
    limit) for any model the config accepts: next state Uniform[h, 1], death
    region [H_D, 1], start h0, rewards c and r as callables with kinks `knots`.

    In t = ln((1 - h0)/(1 - h)) the visited states are a rate-1 Poisson
    process, so period k visits theta with density T^(k-1)/(k-1)!/(1 - h0),
    T = t(theta).  Raising theta turns such a visit from a transplant into a
    wait, worth c - r plus, when k < N, a step that lands Uniform[theta, 1] and
    transplants: lam R/(1 - theta), R = int_theta^H_D r.  So, with
    S_N = sum_(k=1..N) lam^k T^(k-1)/(k-1)! and S_inf = lam e^(lam T),
    V'_N = [(c - r) S_N + lam S_(N-1) R/(1 - theta)]/(1 - h0) on (h0, H_D), 0 off it.
    """
    if theta <= h0 or theta >= H_D:  # immediate transplant, or no living state transplants
        return 0.0
    T = math.log((1.0 - h0) / (1.0 - theta))
    if horizon is None:
        s_n = s_prev = lam * math.exp(lam * T)
    else:
        terms = [lam]  # lam^k T^(k-1)/(k-1)! by recurrence, as 199! overflows a float
        for k in range(1, horizon):
            terms.append(terms[-1] * lam * T / k)
        s_n, s_prev = sum(terms[:horizon]), sum(terms[:max(horizon - 1, 0)])
    R = _integral(r, theta, H_D, knots)
    return float(((c(theta) - r(theta)) * s_n + lam * s_prev * R / (1.0 - theta)) / (1.0 - h0))


def control_limit_exact(lam, H_D, c, r, knots=()) -> float | None:
    """Optimal control limit in the monotone case, else None.

    Below H_D, V' at N = inf is a positive factor times
    J = c - r + lam R/(1 - theta) (`derivative_closed_form`).  When J is
    nonincreasing on a 1001-point grid of [0, H_D), {J <= 0} is an up-set and
    the one-step look-ahead rule is optimal: the limit is the root of J, or 0
    (J <= 0 throughout) or H = 1 (J > 0 throughout).
    """
    def J(h):
        return float(c(h) - r(h) + lam * _integral(r, h, H_D, knots) / (1.0 - h))

    grid = np.linspace(0.0, H_D, 1001)
    grid[-1] = np.nextafter(H_D, 0.0)
    j = np.array([J(h) for h in grid])
    if np.any(np.diff(j) > 1e-12 * max(1.0, np.abs(j).max())):
        return None
    if j[0] <= 0.0 or j[-1] > 0.0:
        return 0.0 if j[0] <= 0.0 else 1.0
    lo, hi = 0.0, grid[-1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if J(mid) > 0.0 else (lo, mid)
    return float(0.5 * (lo + hi))
