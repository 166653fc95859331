from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import continuation_mean_reward, simpson
from stopgrad.kernel import (
    DomainError,
    TransitionKernel,
    UniformDeteriorationKernel,
    integrate_density,
)
from stopgrad.model import check_ifr


@pytest.fixture(scope="module")
def uk() -> UniformDeteriorationKernel:
    return UniformDeteriorationKernel()


class ImprovingKernel(TransitionKernel):
    """Next state Uniform[0, 1-h]: health improves as h grows (anti-IFR)."""

    H = 1.0

    def density(self, h_next, h_cur):
        hn = np.asarray(h_next, dtype=float)
        hc = np.asarray(h_cur, dtype=float)
        width = np.where(hc < 1.0, 1.0 - hc, 1.0)
        out = np.where((hc < 1.0) & (hn <= 1.0 - hc), 1.0 / width, 0.0)
        return float(out) if np.ndim(h_next) == 0 and np.ndim(h_cur) == 0 else out

    def tail_mass(self, a, h_cur):
        aa = np.asarray(a, dtype=float)
        hc = np.asarray(h_cur, dtype=float)
        width = np.where(hc < 1.0, 1.0 - hc, 1.0)
        out = np.where(hc < 1.0, np.clip((1.0 - hc - aa) / width, 0.0, 1.0), 0.0)
        return float(out) if np.ndim(a) == 0 and np.ndim(h_cur) == 0 else out

    def ppf(self, u, h_cur):
        return (1.0 - np.asarray(h_cur, dtype=float)) * np.asarray(u, dtype=float)

    def density_discontinuities(self, h_cur):
        return (1.0 - h_cur,) if h_cur > 0.0 else ()


class ResetKernel(TransitionKernel):
    """With probability p the next state is Uniform[0, 1], otherwise Uniform[h, 1].

    Health can improve, so a path that waits at theta can fall back below it.
    The density p + (1 - p)/(1 - h) on [h, 1] and p below h jumps only at h;
    from h = 1 the Uniform[h, 1] branch is a point mass (1, 1 - p).  The kernel
    is IFR.
    """

    H = 1.0

    def __init__(self, p: float):
        self.p = p

    def density(self, h_next, h_cur):
        hn, hc = np.asarray(h_next, dtype=float), np.asarray(h_cur, dtype=float)
        moved = np.where(hc < 1.0, (1.0 - self.p) / (1.0 - np.where(hc < 1.0, hc, 0.0)), 0.0)
        out = self.p + np.where(hn >= hc, moved, 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, a, h_cur):
        aa, hc = np.asarray(a, dtype=float), np.asarray(h_cur, dtype=float)
        safe = np.where(hc < 1.0, hc, 0.0)
        moved = np.where(hc < 1.0, np.minimum(1.0, (1.0 - aa) / (1.0 - safe)), 1.0)
        out = self.p * (1.0 - aa) + (1.0 - self.p) * moved
        return float(out) if out.ndim == 0 else out

    def ppf(self, u, h_cur):
        # CDF p x below h and p x + (1 - p)(x - h)/(1 - h) from h on; u > p h inverts the second piece.
        uu, hc = np.asarray(u, dtype=float), np.asarray(h_cur, dtype=float)
        out = np.where(uu <= self.p * hc, uu / self.p, (uu * (1.0 - hc) + (1.0 - self.p) * hc) / (1.0 - self.p * hc))
        return float(out) if out.ndim == 0 else out

    def density_discontinuities(self, h_cur):
        return (float(h_cur),) if h_cur < 1.0 else ()

    def point_masses(self, h_cur):
        return ((1.0, 1.0 - self.p),) if h_cur >= 1.0 else ()


class PowerKernel(TransitionKernel):
    """The next state is h + (1 - h) U^(1/a), with density a (h' - h)^(a - 1) / (1 - h)^a
    on [h, 1] and tail mass 1 - ((x - h)/(1 - h))^a.

    The kernel is IFR and a = 1 is uniform deterioration.  For a != 1 the
    crossing hazard f(theta | h) / P(h' >= theta | h) depends on the state h.
    The density is declared to jump at h, the edge of its support; from h = 1
    the law is a point mass at 1.
    """

    H = 1.0

    def __init__(self, a: float):
        self.a = a

    def density(self, h_next, h_cur):
        hn, hc = np.asarray(h_next, dtype=float), np.asarray(h_cur, dtype=float)
        width = 1.0 - np.where(hc < 1.0, hc, 0.0)
        out = np.where((hc < 1.0) & (hn >= hc), self.a * np.maximum(hn - hc, 0.0) ** (self.a - 1.0) / width ** self.a,
                       0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, a, h_cur):
        aa, hc = np.asarray(a, dtype=float), np.asarray(h_cur, dtype=float)
        width = 1.0 - np.where(hc < 1.0, hc, 0.0)
        out = np.where(hc < 1.0, 1.0 - np.clip((aa - hc) / width, 0.0, 1.0) ** self.a, 1.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, u, h_cur):
        hc = np.asarray(h_cur, dtype=float)
        out = hc + (1.0 - hc) * np.asarray(u, dtype=float) ** (1.0 / self.a)
        return float(out) if out.ndim == 0 else out

    def density_discontinuities(self, h_cur):
        return (float(h_cur),) if h_cur < 1.0 else ()

    def point_masses(self, h_cur):
        return ((1.0, 1.0),) if h_cur >= 1.0 else ()


class TestPowerKernel:
    def test_ppf_inverts_tail_mass(self):
        k = PowerKernel(2.0)
        u = np.linspace(0.0, 1.0, 201)[:-1]
        for h in (0.0, 0.3, 0.7):
            x = k.ppf(u, h)
            np.testing.assert_allclose(k.tail_mass(x, h), 1.0 - u, rtol=0, atol=1e-12)
        assert k.ppf(0.5, 1.0) == 1.0

    def test_density_matches_tail_mass(self):
        k = PowerKernel(2.0)
        for h in (0.0, 0.4):
            for a in (0.1, 0.5, 0.8):
                assert integrate_density(k, h, a, 1.0) == pytest.approx(k.tail_mass(a, h), abs=1e-8)

    def test_hazard_depends_on_the_state(self):
        # f(theta | h) / P(h' >= theta | h) = 2 (theta - h) / ((1 - h)^2 - (theta - h)^2).
        k, theta = PowerKernel(2.0), 0.5
        hz = [k.density(theta, h) / k.tail_mass(theta, h) for h in (0.0, 0.3)]
        assert hz == pytest.approx([4.0 / 3.0, 0.4 / 0.45], rel=1e-12)

    def test_audits_pass(self):
        from stopgrad.model import ConstantReward, LinearReward, StoppingModel, check_assumptions

        report = check_assumptions(StoppingModel(PowerKernel(2.0), ConstantReward(0.5), LinearReward(8.0, 0.0)))
        assert all(r.passed for r in report.values()), report


class TestResetKernel:
    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_ppf_inverts_tail_mass(self, p):
        k = ResetKernel(p)
        u = np.linspace(0.0, 1.0, 201)[:-1]
        for h in (0.0, 0.3, 0.7, 1.0):
            x = k.ppf(u, h)
            assert np.all((0.0 <= x) & (x <= 1.0)) and np.all(np.diff(x) >= 0.0)
            below_atom = x < 1.0  # from h = 1 the draws u >= p all land on the atom at 1
            np.testing.assert_allclose(k.tail_mass(x, h)[below_atom], 1.0 - u[below_atom], rtol=0, atol=1e-12)
        assert k.ppf(0.5 * (1.0 + p), 1.0) == 1.0

    def test_audits_a2_and_a3_pass(self):
        from stopgrad.model import ConstantReward, LinearReward, StoppingModel, check_assumptions

        for H_D in (1.0, 0.7):
            m = StoppingModel(ResetKernel(0.3), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
            report = check_assumptions(m)
            assert report["A2"].passed and report["A3"].passed, report

    def test_density_matches_tail_mass(self):
        k = ResetKernel(0.3)
        for h in (0.0, 0.4):
            for a in (0.1, 0.4, 0.8):
                assert integrate_density(k, h, a, 1.0) == pytest.approx(k.tail_mass(a, h), abs=1e-8)


class TestDensity:
    def test_paper_value(self, uk):
        assert uk.density(0.7, 0.5) == pytest.approx(2.0)

    def test_below_support(self, uk):
        assert uk.density(0.3, 0.5) == 0.0

    def test_from_zero(self, uk):
        assert uk.density(0.9, 0.0) == pytest.approx(1.0)

    def test_absorbing_endpoint_has_no_density(self, uk):
        assert uk.density(1.0, 1.0) == 0.0
        assert uk.point_masses(1.0) == ((1.0, 1.0),)

    def test_domain_errors(self, uk):
        with pytest.raises(DomainError):
            uk.density(1.2, 0.5)
        with pytest.raises(DomainError):
            uk.density(0.5, -0.1)

    def test_broadcasting(self, uk):
        hn = np.array([0.2, 0.6, 0.9])
        out = uk.density(hn, 0.5)
        np.testing.assert_allclose(out, [0.0, 2.0, 2.0])


class TestTailMass:
    def test_derived_value_matches_quadrature(self, uk):
        tm = uk.tail_mass(0.8, 0.5)
        assert tm == pytest.approx(0.4, abs=1e-12)
        quad = integrate_density(uk, 0.5, 0.8, 1.0)
        assert tm == pytest.approx(quad, abs=1e-8)

    def test_total_mass(self, uk):
        for h in (0.0, 0.3, 0.99, 1.0):
            assert uk.tail_mass(0.0, h) == pytest.approx(1.0)

    def test_support_entirely_above(self, uk):
        assert uk.tail_mass(0.5, 0.7) == pytest.approx(1.0)

    def test_normalization_on_grid(self, uk):
        for h in np.linspace(0.0, 1.0, 101)[:-1]:
            assert abs(integrate_density(uk, float(h)) - 1.0) < 1e-8

    def test_consistency_with_quadrature_on_grid(self, uk):
        for h in np.linspace(0.0, 0.95, 20):
            for a in np.linspace(0.0, 1.0, 11):
                quad = integrate_density(uk, float(h), float(a), 1.0)
                assert abs(uk.tail_mass(float(a), float(h)) - quad) < 1e-8

    def test_absorbing_region_keeps_its_mass(self, uk):
        # tail_mass(H_D, h) = 1 for h in the absorbing terminal set (here {1}).
        assert uk.tail_mass(1.0, 1.0) == pytest.approx(1.0)


class TestSampling:
    def test_inverse_cdf_form(self, uk):
        for u in (0.0, 0.25, 0.9):
            assert uk.ppf(u, 0.5) == pytest.approx(0.5 + 0.5 * u)

    def test_absorbing_endpoint(self, uk):
        for u in (0.0, 0.5, 0.999):
            assert uk.ppf(u, 1.0) == 1.0

    def test_empirical_cdf_matches_tail_mass(self, uk):
        n = 100_000
        rng = np.random.default_rng(1234)
        h = 0.5
        draws = np.sort(uk.ppf(rng.random(n), h))
        grid = np.linspace(h, 1.0, 401)
        emp_tail = 1.0 - np.searchsorted(draws, grid, side="left") / n
        true_tail = np.asarray(uk.tail_mass(grid, h))
        assert np.abs(emp_tail - true_tail).max() < 0.01

    def test_tail_frequencies_within_three_binomial_se(self, uk):
        n = 100_000
        rng = np.random.default_rng(77)
        draws = uk.ppf(rng.random(n), 0.0)
        assert abs(draws.mean() - 0.5) < 0.003
        for a in (0.2, 0.5, 0.9):
            p = uk.tail_mass(a, 0.0)
            freq = float((draws >= a).mean())
            se = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * se


class TestIfr:
    def test_uniform_kernel_passes(self, uk):
        report = check_ifr(uk, np.linspace(0.0, 1.0, 101))
        assert report.passed and report.witness is None

    def test_uniform_kernel_passes_on_irregular_grid(self, uk):
        grid = np.unique(np.random.default_rng(8).random(200))
        assert check_ifr(uk, grid).passed

    def test_improving_kernel_fails_with_witness(self):
        report = check_ifr(ImprovingKernel(), np.linspace(0.0, 0.99, 101))
        assert not report.passed
        x0, x1, x2 = report.witness
        k = ImprovingKernel()
        assert x1 < x2
        assert k.tail_mass(x0, x1) > k.tail_mass(x0, x2)

    def test_single_point_grid_is_vacuous(self, uk):
        assert check_ifr(uk, [0.5]).passed

    def test_rejects_unsorted_grid(self, uk):
        with pytest.raises(ValueError):
            check_ifr(uk, [0.5, 0.2])


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    a2=st.floats(0.0, 1.0, allow_nan=False),
    h=st.floats(0.0, 0.999, allow_nan=False),
)
def test_tail_mass_bounds_and_monotonicity(a, a2, h):
    uk = UniformDeteriorationKernel()
    lo, hi = sorted((a, a2))
    t_lo, t_hi = uk.tail_mass(lo, h), uk.tail_mass(hi, h)
    assert 0.0 <= t_hi <= t_lo <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    u=st.floats(0.0, 1.0, allow_nan=False, exclude_max=True),
    u2=st.floats(0.0, 1.0, allow_nan=False, exclude_max=True),
    h=st.floats(0.0, 1.0, allow_nan=False),
)
def test_ppf_stays_in_support_and_is_monotone(u, u2, h):
    uk = UniformDeteriorationKernel()
    lo, hi = sorted((u, u2))
    x_lo, x_hi = uk.ppf(lo, h), uk.ppf(hi, h)
    assert h <= x_lo <= x_hi <= 1.0


def test_continuation_mean_reward_oracle_agrees_with_kernel():
    # E[8(1-h')] for h' ~ Uniform[theta, 1] equals 4(1-theta); quadrature on the
    # kernel density must agree with the independent oracle integration.
    uk = UniformDeteriorationKernel()
    theta = 0.8
    mean_r = simpson(lambda y: 8.0 * (1.0 - y) * np.asarray(uk.density(y, theta)), theta, 1.0)
    assert mean_r == pytest.approx(4.0 * (1.0 - theta), abs=1e-10)


class TestWeightedQuadrature:
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_weight_matches_the_oracle_mean_reward(self, uk, theta):
        got = integrate_density(uk, theta, theta, 1.0, weight=lambda y: 8.0 * (1.0 - y))
        assert got == pytest.approx(continuation_mean_reward(theta), abs=1e-10)

    @pytest.mark.parametrize("theta", [0.2, 0.4])
    def test_death_threshold_reads_the_living_side_limit(self, uk, theta):
        # With H_D = 0.6 the transplant reward is 0 at H_D itself; the inward
        # nudge of the right end reads r(H_D-) = 3.2 instead, so the quadrature
        # meets the exact int_theta^0.6 8(1 - h) / (1 - theta) dh.
        from stopgrad.model import ConstantReward, LinearReward, StoppingModel

        m = StoppingModel(uk, ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        exact = 8.0 * ((0.6 - theta) - (0.6 ** 2 - theta ** 2) / 2.0) / (1.0 - theta)
        got = integrate_density(uk, theta, theta, 0.6, weight=m.transplant_reward)
        assert got == pytest.approx(exact, abs=1e-10)
        assert exact == pytest.approx(simpson(lambda h: 8.0 * (1.0 - h) / (1.0 - theta), theta, 0.6), abs=1e-12)

    def test_no_weight_is_weight_one(self, uk):
        assert integrate_density(uk, 0.3, 0.4, 0.9, weight=np.ones_like) == integrate_density(uk, 0.3, 0.4, 0.9)
