from __future__ import annotations

import numpy as np
import pytest

from conftest import FixedStreams, replay
from oracles import continuation_mean_reward, derivative_closed_form, simpson
from stopgrad.estimators import (
    DegenerateHazardError,
    GradEstimate,
    _first_step,
    _hazard,
    _spa_block,
    fd_estimate,
    ipa_estimate,
    spa_estimate,
)
from stopgrad.kernel import DomainError, TransitionKernel, UniformDeteriorationKernel
from stopgrad.model import ConstantReward, LinearReward, StoppingModel, TabulatedReward
from stopgrad.sim import ReplicationStreams, sample_paths
from test_kernel import ResetKernel
from test_sim import _death_model

LAM = 0.97


class FrozenKernel(TransitionKernel):
    """The state never moves: a point mass at the current state."""

    H = 1.0

    def density(self, h_next, h_cur):
        out = np.zeros(np.broadcast(np.asarray(h_next), np.asarray(h_cur)).shape)
        return float(out) if out.shape == () else out

    def tail_mass(self, a, h_cur):
        return np.where(np.asarray(a) <= np.asarray(h_cur), 1.0, 0.0)

    def ppf(self, u, h_cur):
        hc = np.asarray(h_cur, dtype=float)
        return float(hc) if np.ndim(h_cur) == 0 else hc + 0.0 * np.asarray(u)

    def point_masses(self, h_cur):
        return ((float(h_cur), 1.0),)


class StepKernel(TransitionKernel):
    """The next state is max(h, L): a point mass that lifts every state below L onto L."""

    H = 1.0

    def __init__(self, L: float):
        self.L = L

    def density(self, h_next, h_cur):
        out = np.zeros(np.broadcast(np.asarray(h_next), np.asarray(h_cur)).shape)
        return float(out) if out.shape == () else out

    def tail_mass(self, a, h_cur):
        return np.where(np.maximum(np.asarray(h_cur), self.L) >= np.asarray(a), 1.0, 0.0)

    def ppf(self, u, h_cur):
        out = np.maximum(np.asarray(h_cur, dtype=float), self.L) + 0.0 * np.asarray(u)
        return float(out) if out.ndim == 0 else out

    def point_masses(self, h_cur):
        return ((max(float(h_cur), self.L), 1.0),)


class TestGradEstimate:
    def test_summary_invariants(self):
        vals = np.array([1.0, 3.0, 5.0, 7.0])
        g = GradEstimate.from_values("spa", 0.5, vals)
        assert g.mean == pytest.approx(vals.mean())
        assert g.se == pytest.approx(vals.std(ddof=1) / 2.0)
        assert g.reps == 4 and g.values.size == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vals", [[1e300, -1e300, 1e300], [np.inf, 1.0], [np.nan, 1.0], [np.inf]],
                             ids=["squares-overflow", "inf", "nan", "one-inf"])
    def test_non_finite_summary_raises(self, vals):
        with pytest.raises(ValueError, match="not finite"):
            GradEstimate.from_values("spa", 0.5, np.array(vals))

    def test_one_value_keeps_a_nan_se(self):
        g = GradEstimate.from_values("spa", 0.5, np.array([2.0]))
        assert g.mean == 2.0 and np.isnan(g.se)


def _spa_rows(model, theta, h0, horizon, U):
    """Per-row crossing-event estimates for explicit path draws; a model whose
    continuations never fall below theta reads no auxiliary draw."""
    U = np.atleast_2d(U)
    return _spa_block(model, theta, h0, horizon, 1, FixedStreams(U), *_first_step(model, theta), 0, U.shape[0])


class TestSpaSingleRep:
    def test_no_crossing_contributes_zero(self, wsc_model):
        # One small draw keeps the path below the threshold through the horizon.
        assert _spa_rows(wsc_model, 0.9, 0.0, 1, [0.1])[0] == 0.0

    def test_start_above_threshold_contributes_zero(self, wsc_model):
        # A deterministic initial state above theta has no perturbable crossing.
        assert _spa_rows(wsc_model, 0.9, 0.95, 5, np.full(5, np.nan))[0] == 0.0

    def test_hazard_simplifies_for_uniform_kernel(self, wsc_model):
        for hprev in (0.0, 0.3, 0.49):
            hz = _hazard(wsc_model, 0.5, np.asarray(hprev))
            assert float(hz) == pytest.approx(1.0 / (1.0 - 0.5))

    def test_known_path_value(self, wsc_model):
        # Nominal: 0 -> 0.4 (u=0.4) -> 0.7 (u=0.5, crosses 0.5 at M=2).  The
        # continuation from theta = 0.5 lands on Uniform[0.5, 1] and stops at
        # period 3, worth lambda^3 E[r(h')] = lambda^3 A(0.5) = lambda^3 * 2 in
        # expectation.  Draws after those are never read, and no auxiliary one is.
        theta, lam = 0.5, LAM
        got = _spa_rows(wsc_model, theta, 0.0, 10, [0.4, 0.5] + [np.nan] * 8)[0]
        disc2 = lam * lam
        tail = disc2 * lam * continuation_mean_reward(theta)
        assert continuation_mean_reward(theta) == pytest.approx(2.0, abs=1e-12)
        expect = (1.0 / 0.5) * (disc2 * (0.5 - 4.0) + tail)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_theta_must_be_interior(self, wsc_model):
        for theta in (0.0, 1.0):
            with pytest.raises(DomainError):
                spa_estimate(wsc_model, theta, 0.0, 10, 10, 1, ReplicationStreams(1))

    def test_unit_discount_closed_form(self):
        # With discount 1 the per-replication value is hazard * (c - r + E[r(h')]),
        # the same for every row that crosses before the horizon: -1.5 at
        # theta = 0.8.  No row of 4096 reaches period 100 below theta, so the
        # estimate is that number to rounding.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=1.0)
        theta = 0.8
        tail_mean = continuation_mean_reward(theta)  # independent quadrature: 4(1-theta)
        expect = (1.0 / (1.0 - theta)) * (0.5 - 8.0 * (1.0 - theta) + tail_mean)
        assert expect == pytest.approx(-1.5, abs=1e-9)
        est = spa_estimate(m, theta, 0.0, 100, 4096, 64, ReplicationStreams(424242))
        assert abs(est.mean - expect) <= 1e-9 and est.se <= 1e-12


class TestFirstStep:
    def test_stopping_mean_and_mass_below(self, wsc_model):
        # wsc-example: A = E[8 (1 - h')] = 4 (1 - theta), and h' never falls below theta.
        assert _first_step(wsc_model, 0.3) == pytest.approx((continuation_mean_reward(0.3), 0.0), abs=1e-10)
        # H_D = 0.6: A integrates up to H_D's living side, int_0.4^0.6 8 (1 - h) dh / 0.6 = 4/3.
        assert _first_step(_death_model(), 0.4) == pytest.approx((4.0 / 3.0, 0.0), abs=1e-10)
        assert _first_step(_death_model(), 0.7) == (0.0, 0.0)
        # ResetKernel(0.3) from theta falls below it with probability 0.3 theta.
        assert _first_step(_reset_model(), 0.5)[1] == pytest.approx(0.15, abs=1e-12)

    def test_table_knots_and_point_masses(self):
        # A piecewise-linear r with knots inside [theta, H_D) integrates exactly:
        # (0.2 * 6 + 0.3 * 3 + 0.1 * 1) / 0.7 from theta = 0.3 to H_D = 0.9.
        r = TabulatedReward((0.1, 0.5, 0.8), (9.0, 5.0, 1.0))
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), r, H_D=0.9)
        assert _first_step(m, 0.3) == pytest.approx((2.2 / 0.7, 0.0), abs=1e-10)
        # StepKernel(0.2) from theta = 0.5 stays at theta, a point mass worth r(theta).
        assert _first_step(StoppingModel(StepKernel(0.2), ConstantReward(0.5), LinearReward(8.0, 0.0)), 0.5) == (4.0, 0.0)

    @pytest.mark.parametrize("theta", [0.1, 0.3])
    def test_steep_table_is_integrated_between_its_knots(self, theta):
        # r falls from 10 to 0 over [0.5, 0.500001], far below any quadrature
        # panel: A = int_theta^1 r / (1 - theta), by Simpson on each piece between
        # the knots.
        xs, ys = (0.5, 0.500001), (10.0, 0.0)
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), TabulatedReward(xs, ys))
        edges = (theta, *xs, 1.0)
        exact = sum(simpson(lambda h: np.interp(h, xs, ys) / (1.0 - theta), p, q) for p, q in zip(edges[:-1], edges[1:]))
        assert _first_step(m, theta)[0] == pytest.approx(exact, rel=1e-9)


def _reset_model() -> StoppingModel:
    # Continuations from theta can fall back below it and wait for several periods.
    return StoppingModel(ResetKernel(0.3), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.7)


_SPA_CASES = [(0.5, 1, 40), (0.8, 3, 25), (0.2, 2, 30), (0.8, 2, 3)]


class TestSpaBatch:
    # Test ids name the model except on wsc-example, e.g. "0.5-1-40" and "reset-0.5-1-40".
    @pytest.mark.parametrize("model_name,theta,aux_reps,horizon", [
        pytest.param(m, *c, id="-".join(map(str, c if m == "wsc" else (m, *c))))
        for m in ("wsc", "death", "reset") for c in _SPA_CASES])
    def test_batch_matches_scalar_reference(self, wsc_model, model_name, theta, aux_reps, horizon):
        model = {"wsc": wsc_model, "death": _death_model(), "reset": _reset_model()}[model_name]
        streams, n = ReplicationStreams(314), 400
        U = streams.uniform_rows(ReplicationStreams.PATH, 0, n, horizon)
        stop, p_below = _first_step(model, theta)
        # Auxiliary rows exist only where a continuation can fall below theta: on reset.
        U_aux = streams.uniform_rows(ReplicationStreams.AUX, 0, n, aux_reps * horizon) if p_below > 0.0 else None
        assert (p_below > 0.0) == (model_name == "reset")
        got = _spa_block(model, theta, 0.0, horizon, aux_reps, FixedStreams(U, U_aux), stop, p_below, 0, n)
        np.testing.assert_array_equal(got, self._reference(model, theta, 0.0, horizon, aux_reps, U, U_aux))

    @staticmethod
    def _reference(model, theta, h0, horizon, aux_reps, U, U_aux):
        stop, p_below = _first_step(model, theta)
        out = np.zeros(U.shape[0])
        for i in range(U.shape[0]):
            states = replay(model, theta, h0, horizon, U[i])[0]
            M = len(states) - 1  # the crossing period, when the last state is >= theta
            if states[-1] < theta or M == 0:
                continue
            hprev = states[M - 1]
            hz = model.kernel.density(theta, hprev) / model.kernel.tail_mass(theta, hprev)
            disc_m = 1.0
            for _ in range(M):
                disc_m *= model.discount
            # The continuation leaves theta at period M + 1 and is valued from
            # discount 1 there: A for stopping at once, plus p_below times the
            # mean of the subpaths that start below theta.
            cont = stop if M < horizon else 0.0
            if p_below > 0.0:
                below = 0.0
                for j in range(aux_reps):
                    state, disc, sub = theta, 1.0, 0.0
                    for t in range(horizon - M):
                        u = U_aux[i, j * horizon + t]
                        state = float(model.kernel.ppf(p_below * u, theta) if t == 0 else model.kernel.ppf(u, state))
                        if state >= theta:
                            sub += disc * model.transplant_reward(state)  # 0 when dead
                            break
                        if state >= model.H_D:
                            break
                        sub += disc * model.wait_reward(state)
                        disc *= model.discount
                    below += sub
                cont += p_below / aux_reps * below
            jump = model.wait_reward(theta) - model.transplant_reward(theta)
            out[i] = hz * disc_m * (jump + model.discount * cont)
        return out

    def test_deterministic_and_worker_invariant(self, wsc_model):
        s = ReplicationStreams(2718)
        a = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 1, s, workers=1)
        b = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 1, s, workers=2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_more_auxiliary_subpaths_cut_variance(self):
        # Only subpaths that start below theta are simulated, so the model must
        # let a continuation fall back: on wsc-example aux_reps changes nothing.
        s = ReplicationStreams(555)
        one = spa_estimate(_reset_model(), 0.5, 0.0, 200, 20_000, 1, s)
        many = spa_estimate(_reset_model(), 0.5, 0.0, 200, 20_000, 16, s)
        assert many.se < one.se / 2.0

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_contribution_is_hazard_times_discounted_bracket(self, wsc_model, theta):
        # On wsc-example the continuation never falls below theta, so a row
        # that crosses at 1 <= M < horizon contributes hz lambda^M J(theta), with
        # J = c - r + lambda A and A = E[r(h')] = 4 (1 - theta), and a row that
        # crosses at M = horizon contributes hz lambda^M (c - r).
        horizon, s = 4, ReplicationStreams(808)
        est = spa_estimate(wsc_model, theta, 0.0, horizon, 20_000, 1, s)
        M = sample_paths(wsc_model, theta, 0.0, horizon, 20_000, s).cross_index
        jump = 0.5 - 8.0 * (1.0 - theta)
        J = np.where(M < horizon, jump + LAM * continuation_mean_reward(theta), jump)
        expect = np.where(M >= 1, LAM ** M.astype(float) * J / (1.0 - theta), 0.0)
        assert np.count_nonzero((M >= 1) & (M < horizon)) > 10_000 and np.any(M == horizon)
        np.testing.assert_allclose(est.values, expect, rtol=1e-10, atol=0.0)

    def test_no_auxiliary_draws_on_wsc_example(self, wsc_model, monkeypatch):
        purposes = []
        draw = ReplicationStreams.uniform_rows

        def spy(self, purpose, *args):
            purposes.append(purpose)
            return draw(self, purpose, *args)

        monkeypatch.setattr(ReplicationStreams, "uniform_rows", spy)
        spa_estimate(wsc_model, 0.4, 0.0, 200, 40_000, 10, ReplicationStreams(7))
        assert purposes == [ReplicationStreams.PATH] * 3

    def test_se_scales_with_inverse_root_reps(self, wsc_model):
        s = ReplicationStreams(809)
        small = spa_estimate(wsc_model, 0.5, 0.0, 200, 10_000, 1, s)
        large = spa_estimate(wsc_model, 0.5, 0.0, 200, 40_000, 1, s)
        assert small.se / large.se == pytest.approx(2.0, rel=0.15)

    def test_death_scenario_matches_closed_form(self):
        # H_D = 0.6: paths whose crossing state is already dead still carry the
        # bracket; at theta >= H_D every contribution is exactly zero.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        streams = ReplicationStreams(626)
        for theta in (0.2, 0.4, 0.55, 0.7):
            truth = derivative_closed_form(theta, LAM, 0.0, 0.6, lambda h: 0.5, lambda h: 8.0 * (1.0 - h))
            est = spa_estimate(m, theta, 0.0, 200, 40_000, 1, streams)
            assert abs(est.mean - truth) <= 4.0 * est.se + 1e-9, f"theta={theta}: {est.mean} vs {truth}"
            if theta >= 0.6:
                assert truth == 0.0 and np.all(est.values == 0.0)


class TestFiniteDifferences:
    def test_deterministic_model_gives_exact_zero(self):
        m = StoppingModel(FrozenKernel(), ConstantReward(0.5), ConstantReward(1.0))
        est = fd_estimate(m, 0.5, 0.3, 50, 100, delta=0.2, crn=True, streams=ReplicationStreams(3))
        assert np.all(est.values == 0.0)
        est2 = fd_estimate(m, 0.5, 0.3, 50, 100, delta=0.2, crn=False, streams=ReplicationStreams(3))
        assert np.all(est2.values == 0.0)

    def test_domain_validation(self, wsc_model):
        with pytest.raises(DomainError):
            fd_estimate(wsc_model, 0.05, 0.0, 10, 10, delta=0.2, streams=ReplicationStreams(1))
        with pytest.raises(ValueError):
            fd_estimate(wsc_model, 0.5, 0.0, 10, 10, delta=0.0, streams=ReplicationStreams(1))
        with pytest.raises(ValueError):
            fd_estimate(wsc_model, 0.5, 0.0, 10, 10, delta=float("nan"), streams=ReplicationStreams(1))

    def test_common_draws_cut_variance(self, wsc_model):
        coupled = fd_estimate(wsc_model, 0.5, 0.0, 200, 3000, delta=0.05, crn=True, streams=ReplicationStreams(41))
        independent = fd_estimate(wsc_model, 0.5, 0.0, 200, 3000, delta=0.05, crn=False, streams=ReplicationStreams(41))
        assert independent.se > 2.0 * coupled.se

    def test_metadata(self, wsc_model):
        est = fd_estimate(wsc_model, 0.5, 0.0, 50, 16, delta=0.01, crn=False, streams=ReplicationStreams(1))
        assert est.method == "fd" and est.theta == 0.5 and est.reps == 16


class TestIpa:
    def test_identically_zero(self, wsc_model):
        est = ipa_estimate(wsc_model, 0.5, 1000)
        assert est.mean == 0.0 and est.se == 0.0
        assert np.all(est.values == 0.0)

    def test_single_replication(self, wsc_model):
        est = ipa_estimate(wsc_model, 0.5, 1)
        assert est.mean == 0.0 and est.se == 0.0


def test_degenerate_hazard_raises(wsc_model):
    with pytest.raises(DegenerateHazardError):
        _hazard(wsc_model, 1.0, np.asarray(0.5))
