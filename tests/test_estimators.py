from __future__ import annotations

import numpy as np
import pytest

from conftest import FixedStreams, replay
from oracles import continuation_mean_reward, derivative_closed_form
from stopgrad.estimators import (
    DegenerateHazardError,
    GradEstimate,
    _hazard,
    _spa_block,
    fd_estimate,
    ipa_estimate,
    spa_estimate,
)
from stopgrad.kernel import DomainError, TransitionKernel, UniformDeteriorationKernel
from stopgrad.model import ConstantReward, LinearReward, StoppingModel
from stopgrad.sim import ReplicationStreams
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


def _spa_rows(model, theta, h0, horizon, U, U_aux):
    """Per-row crossing-event estimates for explicit path and auxiliary draws."""
    U, U_aux = np.atleast_2d(U), np.atleast_2d(U_aux)
    return _spa_block(model, theta, h0, horizon, 1, FixedStreams(U, U_aux), 0, U.shape[0])


class TestSpaSingleRep:
    def test_no_crossing_contributes_zero(self, wsc_model):
        # One small draw keeps the path below the threshold through the horizon.
        assert _spa_rows(wsc_model, 0.9, 0.0, 1, [0.1], [np.nan])[0] == 0.0

    def test_start_above_threshold_contributes_zero(self, wsc_model):
        # A deterministic initial state above theta has no perturbable crossing.
        nan = np.full(5, np.nan)
        assert _spa_rows(wsc_model, 0.9, 0.95, 5, nan, nan)[0] == 0.0

    def test_hazard_simplifies_for_uniform_kernel(self, wsc_model):
        for hprev in (0.0, 0.3, 0.49):
            hz = _hazard(wsc_model, 0.5, np.asarray(hprev))
            assert float(hz) == pytest.approx(1.0 / (1.0 - 0.5))

    def test_known_path_value(self, wsc_model):
        # Nominal: 0 -> 0.4 (u=0.4) -> 0.7 (u=0.5, crosses 0.5 at M=2);
        # auxiliary from theta=0.5 with u=0.5 -> 0.75 >= theta, stops at period 3.
        # Draws after those are never read.
        theta, lam = 0.5, LAM
        got = _spa_rows(wsc_model, theta, 0.0, 10, [0.4, 0.5] + [np.nan] * 8, [0.5] + [np.nan] * 9)[0]
        disc2 = lam * lam
        tail = disc2 * lam * 8.0 * (1.0 - 0.75)
        expect = (1.0 / 0.5) * (disc2 * (0.5 - 4.0) + tail)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_theta_must_be_interior(self, wsc_model):
        for theta in (0.0, 1.0):
            with pytest.raises(DomainError):
                spa_estimate(wsc_model, theta, 0.0, 10, 10, 1, ReplicationStreams(1))

    def test_unit_discount_closed_form(self):
        # With discount 1 the per-replication value is hazard * (c - r + r(h'))
        # averaged over auxiliary draws; its mean at theta = 0.8 is -1.5.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=1.0)
        theta = 0.8
        tail_mean = continuation_mean_reward(theta)  # independent quadrature: 4(1-theta)
        expect = (1.0 / (1.0 - theta)) * (0.5 - 8.0 * (1.0 - theta) + tail_mean)
        assert expect == pytest.approx(-1.5, abs=1e-9)
        est = spa_estimate(m, theta, 0.0, 100, 4096, 64, ReplicationStreams(424242))
        assert abs(est.mean - expect) <= 4.0 * est.se


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
        streams = ReplicationStreams(314)
        n = 400
        got = _spa_block(model, theta, 0.0, horizon, aux_reps, streams, 0, n)
        U = streams.uniform_rows(ReplicationStreams.PATH, 0, n, horizon)
        U_aux = streams.uniform_rows(ReplicationStreams.AUX, 0, n, aux_reps * horizon)
        ref = self._reference(model, theta, 0.0, horizon, aux_reps, U, U_aux)
        np.testing.assert_array_equal(got, ref)

    @staticmethod
    def _reference(model, theta, h0, horizon, aux_reps, U, U_aux):
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
            # Continuation j leaves theta at period M + 1 and is valued from
            # discount 1 there; the sum is scaled by lambda^(M+1) / aux_reps.
            tail = 0.0
            for j in range(aux_reps):
                state, disc, cont = theta, 1.0, 0.0
                for t in range(horizon - M):
                    state = float(model.kernel.ppf(U_aux[i, j * horizon + t], state))
                    if state >= theta:
                        cont += disc * model.transplant_reward(state)  # 0 when dead
                        break
                    if state >= model.H_D:
                        break
                    cont += disc * model.wait_reward(state)
                    disc *= model.discount
                tail += cont
            tail *= disc_m * model.discount / aux_reps
            out[i] = hz * (disc_m * (model.wait_reward(theta) - model.transplant_reward(theta)) + tail)
        return out

    def test_deterministic_and_worker_invariant(self, wsc_model):
        s = ReplicationStreams(2718)
        a = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 1, s, workers=1)
        b = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 1, s, workers=2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_more_auxiliary_subpaths_cut_variance(self, wsc_model):
        s = ReplicationStreams(555)
        one = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 1, s)
        many = spa_estimate(wsc_model, 0.5, 0.0, 200, 20_000, 16, s)
        assert many.se < one.se / 2.0

    def test_se_nearly_theta_independent_at_fixed_reps(self, wsc_model):
        s = ReplicationStreams(808)
        ses = [spa_estimate(wsc_model, th, 0.0, 200, 20_000, 1, s).se for th in (0.2, 0.5, 0.8)]
        assert max(ses) / min(ses) < 1.15

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
