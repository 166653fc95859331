from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import control_limit_exact, derivative_closed_form, derivative_exact, value_exact
from stopgrad import dp
from stopgrad.dp import (
    GridDynamics,
    GridValueFunction,
    extract_control_limit,
    make_grid,
    oracle_derivative,
    policy_value,
    policy_value_sweep,
    value_iterate,
)
from stopgrad.kernel import DomainError, TransitionKernel, UniformDeteriorationKernel
from stopgrad.model import ConstantReward, LinearReward, StoppingModel, TabulatedReward
from stopgrad.sim import ReplicationStreams, sample_paths

LAM = 0.97

# Waiting and transplant reward tables, and their knots.
_TABLES = (TabulatedReward((0.2, 0.7), (1.0, 0.5)), TabulatedReward((0.1, 0.5, 0.8), (9.0, 5.0, 1.0)),
           (0.2, 0.7, 0.1, 0.5, 0.8))


class HalfLiftKernel(TransitionKernel):
    """Half the mass moves Uniform[h, 1] and half Uniform[max(h, L), 1], so from
    below L the density jumps at L; from h = 1 the law is a point mass at 1.
    Only what the DP solvers read is defined."""

    H = 1.0

    def __init__(self, L: float):
        self.L = L

    def density(self, h_next, h_cur):
        hn, hc = np.asarray(h_next, dtype=float), np.asarray(h_cur, dtype=float)
        lift = np.maximum(hc, self.L)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 0.5 * (hn >= hc) / (1.0 - hc) + 0.5 * (hn >= lift) / (1.0 - lift)
        return np.where(hc < 1.0, out, 0.0)

    def tail_mass(self, a, h_cur):
        raise NotImplementedError

    def ppf(self, u, h_cur):
        raise NotImplementedError

    def density_discontinuities(self, h_cur):
        return tuple(sorted({float(h_cur), self.L})) if h_cur < 1.0 else ()

    def point_masses(self, h_cur):
        return ((1.0, 1.0),) if h_cur >= 1.0 else ()


@pytest.fixture(scope="module")
def wsc_vi(wsc_model) -> GridValueFunction:
    return value_iterate(wsc_model)


class TestGridDynamics:
    def test_rows_integrate_to_total_living_mass(self, wsc_model):
        nodes = make_grid(wsc_model, 257)
        dyn = GridDynamics(wsc_model, nodes)
        ones = np.ones(nodes.size)
        cont = dyn.continuation(ones)
        np.testing.assert_allclose(cont[dyn.alive], 1.0, atol=1e-9)

    def test_rejects_density_jumps_inside_cells(self):
        # ImprovingKernel's density jumps at 1 - h: the node 1/3 puts a jump at
        # 2/3, strictly inside a grid cell, where the cell weights would be wrong.
        from test_kernel import ImprovingKernel

        m = StoppingModel(ImprovingKernel(), ConstantReward(0.5), ConstantReward(0.0))
        for extra in ((1.0 / 3.0,), (0.123456789,), (1.0 / 3.0, 0.123456789)):
            with pytest.raises(ValueError, match="inside a living grid cell"):
                GridDynamics(m, make_grid(m, 129, extra=extra))

    @pytest.mark.parametrize("H_D", [1.0, 0.6])
    def test_uniform_kernel_moments_match_closed_form(self, H_D):
        # h' ~ Uniform[x, 1] integrated over the living region [0, H_D].
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
        nodes = make_grid(m, 1025)
        dyn = GridDynamics(m, nodes)
        live = dyn.alive & (nodes < 1.0)
        x = nodes[live]
        np.testing.assert_allclose(dyn.continuation(np.ones(nodes.size))[live], (H_D - x) / (1.0 - x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            dyn.continuation(nodes)[live], (H_D**2 - x**2) / (2.0 * (1.0 - x)), rtol=0, atol=1e-12
        )

    def test_mean_with_jumps_on_other_nodes(self):
        # h' ~ Uniform[0, 1 - x]; on the symmetric grid every jump 1 - x is a node.
        from test_kernel import ImprovingKernel

        m = StoppingModel(ImprovingKernel(), ConstantReward(0.5), ConstantReward(0.0))
        nodes = make_grid(m, 129)
        dyn = GridDynamics(m, nodes)
        live = nodes < 1.0
        np.testing.assert_allclose(dyn.continuation(np.ones(nodes.size))[live], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dyn.continuation(nodes)[live], (1.0 - nodes[live]) / 2.0, rtol=0, atol=1e-12)

    def test_one_sided_limits_at_a_jump_node(self, wsc_model):
        # v = 1{h >= theta} jumps at the grid node theta: the node theta holds the
        # right limit 1 and the node just below it the left limit 0, so
        # E[v(h') | x] = P(h' >= theta | x).
        theta = 0.5
        nodes = make_grid(wsc_model, 1025, extra=(np.nextafter(theta, 0.0),))
        assert theta in nodes
        dyn = GridDynamics(wsc_model, nodes)
        v = (nodes >= theta).astype(float)
        x = nodes[nodes < 1.0]
        cont = dyn.continuation(v)[nodes < 1.0]
        np.testing.assert_allclose(cont, np.minimum(1.0, (1.0 - theta) / (1.0 - x)), rtol=0, atol=1e-12)

    def test_weights_do_not_depend_on_block_size(self, monkeypatch):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        nodes = make_grid(m, 129, extra=(1.0 / 3.0,))
        ref = GridDynamics(m, nodes)
        for block in (1, 7, nodes.size):
            monkeypatch.setattr(dp, "_BLOCK_CELLS", block)
            dyn = GridDynamics(m, nodes)
            assert np.array_equal(dyn.W, ref.W)

    def test_grid_requires_death_threshold_node(self, wsc_model):
        with pytest.raises(ValueError):
            GridDynamics(wsc_model, np.array([0.0, 0.4, 1.0 + 1e-9]))


class TestBellman:
    def test_first_backup_is_max_of_rewards(self, wsc_model):
        v1 = value_iterate(wsc_model, max_iter=1, num_nodes=65)
        nodes = v1.nodes
        interior = nodes < 1.0
        np.testing.assert_allclose(
            v1.values[interior], np.maximum(8.0 * (1.0 - nodes[interior]), 0.5), atol=1e-12
        )

    def test_first_backup_from_zero_at_origin(self, wsc_model):
        v1 = value_iterate(wsc_model, max_iter=1, num_nodes=65)
        assert v1.values[0] == pytest.approx(8.0)

    def test_terminal_node_carries_living_side_limit(self, wsc_model):
        # The absorbing endpoint's slot stores the limit of living values, which
        # the quadrature requires; with V = 0 it is max(r(1), c(1)) = 0.5 here.
        v1 = value_iterate(wsc_model, max_iter=1, num_nodes=65)
        assert v1.values[-1] == pytest.approx(0.5)

    def test_interior_death_region_stays_zero(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        v1 = value_iterate(m, max_iter=1, num_nodes=65)
        assert np.all(v1.values[v1.nodes > 0.6] == 0.0)


class TestValueIteration:
    def test_converges_within_contraction_bound(self, wsc_model, wsc_vi):
        v_max = wsc_model.value_bound
        bound = math.ceil(math.log(1e-10 * (1 - LAM) / v_max) / math.log(LAM))
        assert wsc_vi.converged
        assert wsc_vi.iterations <= bound

    def test_iterates_nondecreasing(self, wsc_model):
        prev = value_iterate(wsc_model, max_iter=0, num_nodes=129).values
        for k in range(1, 41):
            v = value_iterate(wsc_model, max_iter=k, num_nodes=129).values
            assert float((prev - v).max()) <= 1e-10
            prev = v

    def test_zero_budget_returns_zero_function_with_flag(self, wsc_model):
        v = value_iterate(wsc_model, max_iter=0)
        assert not v.converged
        assert np.all(v.values == 0.0)

    def test_residuals_contract(self, wsc_vi):
        hist = np.asarray(wsc_vi.residual_history[5:])
        ratios = hist[1:] / hist[:-1]
        assert np.all(ratios <= LAM + 0.02)

    def test_value_bounds_and_monotone_in_state(self, wsc_model, wsc_vi):
        assert np.all(wsc_vi.values >= 0.0)
        assert np.all(wsc_vi.values <= wsc_model.value_bound + 1e-9)
        assert float(np.diff(wsc_vi.values).max()) <= 1e-6

    def test_wsc_value_is_waiting_perpetuity(self, wsc_model, wsc_vi):
        # Never transplanting earns c every period forever (no interior death),
        # beating any transplant reward: V is the constant c / (1 - discount).
        np.testing.assert_allclose(wsc_vi.values, 0.5 / (1 - LAM), rtol=1e-8)

    def test_unit_discount_rejected(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=1.0)
        with pytest.raises(ValueError):
            value_iterate(m)


class TestExtractControlLimit:
    def test_wsc_example_never_transplants(self, wsc_model, wsc_vi):
        res = extract_control_limit(wsc_model, wsc_vi)
        assert res.theta == pytest.approx(1.0)
        assert res.structure_ok

    def test_zero_transplant_reward_gives_h(self, wsc_model):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(0.0))
        v = value_iterate(m, num_nodes=257)
        assert extract_control_limit(m, v).theta == pytest.approx(1.0)

    def test_dominant_transplant_reward_gives_zero(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(300.0))
        v = value_iterate(m, num_nodes=257)
        res = extract_control_limit(m, v)
        assert res.theta == pytest.approx(0.0)
        assert res.structure_ok

    @pytest.mark.parametrize("c, r, H_D", [(1.0, 5.0, 0.9), (0.5, 300.0, 1.0), (0.5, 0.0, 1.0)],
                             ids=["interior", "J-negative", "J-positive"])
    def test_monotone_case_meets_the_exact_control_limit(self, c, r, H_D):
        # J = c - r + lambda R / (1 - theta) is nonincreasing on these models, so
        # the exact limit is its root, or 0 or H when J keeps one sign.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(c), ConstantReward(r), H_D=H_D, discount=LAM)
        exact = control_limit_exact(LAM, H_D, m.reward_wait, m.reward_transplant)
        res = extract_control_limit(m, value_iterate(m))
        assert res.structure_ok
        assert abs(res.theta - exact) <= 1.0 / 1024, f"value iteration {res.theta} vs exact {exact}"

    def test_rejects_a_value_function_of_another_model(self, wsc_vi):
        # The value function carries its model's dynamics; pairing it with other
        # rewards, or giving it no dynamics, raises instead of mixing the two.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(300.0))
        with pytest.raises(ValueError):
            extract_control_limit(m, wsc_vi)
        with pytest.raises(ValueError):
            extract_control_limit(m, GridValueFunction(wsc_vi.nodes, wsc_vi.values))


class TestPolicyValue:
    def test_zero_threshold_is_immediate_transplant(self, wsc_model):
        assert policy_value(wsc_model, 0.0, 0.3, num_nodes=129) == pytest.approx(8.0 * 0.7)

    def test_start_above_threshold(self, wsc_model):
        assert policy_value(wsc_model, 0.5, 0.6, num_nodes=129) == pytest.approx(3.2)

    def test_start_in_death_region_is_worth_zero(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        assert policy_value(m, 0.8, 0.7, num_nodes=129) == 0.0

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_matches_closed_form(self, wsc_model, theta):
        assert policy_value(wsc_model, theta, 0.0) == pytest.approx(value_exact(theta, LAM), abs=5e-6)

    @pytest.mark.parametrize("c, lam", [(0.5, LAM), (0.01, 0.9999)], ids=["wsc", "discount-0.9999"])
    def test_never_transplant_is_waiting_perpetuity(self, c, lam):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(c), LinearReward(8.0, 0.0), discount=lam)
        assert policy_value(m, 1.0, 0.0) == pytest.approx(c / (1 - lam), abs=1e-7)

    def test_monte_carlo_cross_check(self, wsc_model):
        pv = policy_value(wsc_model, 0.5, 0.0)
        v = sample_paths(wsc_model, 0.5, 0.0, 200, 100_000, ReplicationStreams(2024)).value
        assert abs(v.mean() - pv) <= 3.9 * v.std(ddof=1) / math.sqrt(v.size)

    def test_monte_carlo_cross_check_with_death(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        pv = policy_value(m, 0.4, 0.0)
        v = sample_paths(m, 0.4, 0.0, 200, 100_000, ReplicationStreams(2025)).value
        assert abs(v.mean() - pv) <= 3.9 * v.std(ddof=1) / math.sqrt(v.size)

    def test_sweep_shares_grid_and_matches_single_solves(self, wsc_model):
        thetas = [0.2, 0.8, 1.0]
        swept = policy_value_sweep(wsc_model, thetas, 0.0, num_nodes=513)
        for th, res in zip(thetas, swept):
            single = policy_value(wsc_model, th, 0.0, num_nodes=513)
            assert res == pytest.approx(single, abs=2e-6)

    @pytest.mark.parametrize("H_D", [1.0, 0.9])
    def test_point_mass_on_the_threshold_node_reads_the_left_limit(self, H_D):
        # The frozen state waits forever below theta, worth c / (1 - discount), up to
        # h0 just below theta.  The waiting (left) limit at theta lives on the node
        # just below it, which the frozen row there reads through its point mass on
        # itself.
        from test_estimators import FrozenKernel

        m = StoppingModel(FrozenKernel(), ConstantReward(0.5), ConstantReward(1.0), H_D=H_D)
        for h0 in (0.0, 0.3, 0.5 - 1e-9):
            for v in policy_value_sweep(m, (0.5, 0.85), h0, num_nodes=257):
                assert v == pytest.approx(0.5 / (1 - LAM), abs=1e-7)

    @pytest.mark.parametrize("H_D", [1.0, 0.9])
    def test_point_mass_exactly_on_the_threshold_transplants(self, H_D):
        # From below 0.5 the state jumps to exactly 0.5 = theta, where the policy
        # transplants, as the simulator does: one waiting period, then r(0.5).
        from test_estimators import StepKernel

        m = StoppingModel(StepKernel(0.5), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
        exact = 0.5 + LAM * 4.0
        for h0 in (0.0, 0.3, 0.5 - 1e-9):
            assert policy_value(m, 0.5, h0) == pytest.approx(exact, abs=1e-9)
            batch = sample_paths(m, 0.5, h0, 10, 100, ReplicationStreams(7))
            assert batch.value.mean() == pytest.approx(exact, abs=1e-9)

    def test_sweep_validates_its_inputs(self, wsc_model):
        with pytest.raises(DomainError):
            policy_value_sweep(wsc_model, [0.5], 2.0, num_nodes=65)


class TestOracleDerivative:
    @pytest.mark.parametrize("theta, lam", [(0.2, LAM), (0.5, LAM), (0.8, LAM),
                                            (0.2, 0.9999), (0.5, 0.9999), (0.8, 0.9999)],
                             ids=["0.2", "0.5", "0.8", "0.2-discount-0.9999", "0.5-discount-0.9999",
                                  "0.8-discount-0.9999"])
    def test_matches_closed_form(self, theta, lam):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=lam)
        d = oracle_derivative(m, theta, 0.0, num_nodes=1025)
        assert d == pytest.approx(derivative_exact(theta, lam), rel=2e-4)

    def test_pattern_negative_and_ordered(self, wsc_model):
        d2 = oracle_derivative(wsc_model, 0.2, 0.0, num_nodes=1025)
        d5 = oracle_derivative(wsc_model, 0.5, 0.0, num_nodes=1025)
        d8 = oracle_derivative(wsc_model, 0.8, 0.0, num_nodes=1025)
        assert d2 < d5 < d8 < 0.0
        assert d5 == pytest.approx(-3.0, abs=0.15)
        assert abs(d8) < abs(d2)

    def test_matches_central_difference_of_policy_values(self, wsc_model):
        # A reference that shares no derivation with the tangent: a central
        # difference of policy values at theta +/- 5e-4, away from reward knots.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        for model in (wsc_model, m):
            for theta in (0.2, 0.5):
                hi, lo = policy_value_sweep(model, (theta + 5e-4, theta - 5e-4), 0.0)
                assert oracle_derivative(model, theta, 0.0) == pytest.approx((hi - lo) / 1e-3, rel=1e-5)

    @pytest.mark.parametrize("lam, H_D, c, r, knots, theta, h0", [
        # Two reward tables, theta on a knot of the transplant table.
        (0.95, 0.9, *_TABLES, 0.5, 0.0),
        (0.95, 0.9, *_TABLES, 0.8, 0.0),
        # theta = H_D and theta = h0: the value does not move with theta.
        (LAM, 0.6, ConstantReward(0.5), LinearReward(8.0, 0.0), (), 0.6, 0.0),
        (LAM, 1.0, ConstantReward(0.5), LinearReward(8.0, 0.0), (), 0.3, 0.3),
    ], ids=["tables-0.5", "tables-0.8", "theta-at-H_D", "theta-at-h0"])
    def test_matches_closed_form_on_knots_and_boundaries(self, lam, H_D, c, r, knots, theta, h0):
        m = StoppingModel(UniformDeteriorationKernel(), c, r, H_D=H_D, discount=lam)
        truth = derivative_closed_form(theta, lam, h0, H_D, c, r, knots)
        assert abs(oracle_derivative(m, theta, h0) - truth) <= 1e-5 * max(1.0, abs(truth))

    @pytest.mark.parametrize("H_D", [1.0, 0.9])
    def test_point_mass_on_the_threshold_has_no_derivative(self, H_D):
        # Every state below 0.5 jumps to exactly 0.5: moving theta across it
        # switches all of them between waiting and transplanting at once.
        from test_estimators import StepKernel

        m = StoppingModel(StepKernel(0.5), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
        with pytest.raises(DomainError, match="point mass"):
            oracle_derivative(m, 0.5, 0.0)

    def test_density_jump_on_the_threshold_has_no_derivative(self):
        # From below 0.5 the density jumps at 0.5, so the value has a kink at
        # theta = 0.5; elsewhere the tangent matches a central difference.
        m = StoppingModel(HalfLiftKernel(0.5), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.9)
        with pytest.raises(DomainError, match="density jump"):
            oracle_derivative(m, 0.5, 0.0)
        hi, lo = policy_value_sweep(m, (0.3 + 5e-4, 0.3 - 5e-4), 0.0)
        assert oracle_derivative(m, 0.3, 0.0) == pytest.approx((hi - lo) / 1e-3, rel=1e-5)

    def test_domain_validation(self, wsc_model):
        # theta = 0 transplants at once and theta = H never transplants, so
        # neither value moves with theta; outside [0, H] is an error.
        assert oracle_derivative(wsc_model, 0.0, 0.0) == 0.0
        assert oracle_derivative(wsc_model, 1.0, 0.0) == 0.0
        for theta, h0 in ((-0.1, 0.0), (1.1, 0.0), (0.5, 1.5)):
            with pytest.raises(DomainError):
                oracle_derivative(wsc_model, theta, h0)


class TestFiniteHorizon:
    def test_short_horizons_in_closed_form(self, wsc_model):
        # Horizon 0 takes c(h0) and no transition.  At horizon 1 from h0 = 0 the
        # value is c + lambda (int_theta^1 r + theta c).
        assert policy_value_sweep(wsc_model, (0.5,), 0.0, horizon=0) == [0.5]
        assert oracle_derivative(wsc_model, 0.5, 0.0, horizon=0) == 0.0
        v1 = 0.5 + LAM * (8.0 * 0.5 ** 2 / 2 + 0.5 * 0.5)
        assert policy_value_sweep(wsc_model, (0.5,), 0.0, horizon=1)[0] == pytest.approx(v1, abs=1e-9)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 10, 200])
    @pytest.mark.parametrize("lam, H_D, c, r, knots, theta, h0", [
        (LAM, 1.0, ConstantReward(0.5), LinearReward(8.0, 0.0), (), 0.5, 0.0),
        (LAM, 0.6, ConstantReward(0.5), LinearReward(8.0, 0.0), (), 0.4, 0.0),
        (0.95, 0.9, *_TABLES, 0.6, 0.1),
        (1.0, 1.0, ConstantReward(0.5), LinearReward(8.0, 0.0), (), 0.5, 0.0),
    ], ids=["wsc-example", "H_D-0.6", "tables", "discount-1"])
    def test_matches_closed_form(self, lam, H_D, c, r, knots, theta, h0, horizon):
        m = StoppingModel(UniformDeteriorationKernel(), c, r, H_D=H_D, discount=lam)
        truth = derivative_closed_form(theta, lam, h0, H_D, c, r, knots, horizon)
        d = oracle_derivative(m, theta, h0, horizon=horizon)
        assert abs(d - truth) <= 1e-5 * max(1.0, abs(truth)), f"oracle {d} vs {truth}"
        if horizon == 1:  # every visit to theta is in period 1, with density 1 / (1 - h0)
            hand = lam * (c(theta) - r(theta)) / (1.0 - h0)
            assert truth == pytest.approx(hand, abs=1e-12)
            assert d == pytest.approx(hand, abs=1e-9 if h0 == 0.0 else 1e-6)  # h0 = 0.1 is off the grid

    def test_long_horizon_meets_the_infinite_one(self, wsc_model):
        for theta in (0.2, 0.5):
            assert policy_value_sweep(wsc_model, (theta,), 0.0, horizon=1000)[0] == pytest.approx(
                policy_value(wsc_model, theta, 0.0), abs=1e-9)
            assert oracle_derivative(wsc_model, theta, 0.0, horizon=1000) == pytest.approx(
                oracle_derivative(wsc_model, theta, 0.0), abs=1e-9)

    # Test ids name the kernel except on ResetKernel(0.3), e.g. "2" and "power-2".
    @pytest.mark.parametrize("kernel, horizon", [
        pytest.param(k, n, id="-".join(map(str, (n,) if k == "reset" else (k, n))))
        for k in ("reset", "power") for n in (None, 1, 2, 5)])
    def test_tangent_matches_central_difference(self, kernel, horizon):
        # ResetKernel's continuations fall back below theta; PowerKernel(2)'s
        # crossing density depends on the state.
        from test_kernel import PowerKernel, ResetKernel

        k = ResetKernel(0.3) if kernel == "reset" else PowerKernel(2.0)
        m = StoppingModel(k, ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.7)
        hi, lo = policy_value_sweep(m, (0.4 + 5e-4, 0.4 - 5e-4), 0.0, horizon=horizon)
        assert oracle_derivative(m, 0.4, 0.0, horizon=horizon) == pytest.approx((hi - lo) / 1e-3, rel=1e-5)

    def test_monte_carlo_cross_check_at_unit_discount(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=1.0)
        pv = policy_value_sweep(m, (0.5,), 0.0, horizon=3)[0]
        v = sample_paths(m, 0.5, 0.0, 3, 100_000, ReplicationStreams(2026)).value
        assert abs(v.mean() - pv) <= 3.9 * v.std(ddof=1) / math.sqrt(v.size)

    def test_validates_its_horizon(self, wsc_model):
        for fn, arg in ((policy_value_sweep, (0.5,)), (oracle_derivative, 0.5)):
            with pytest.raises(ValueError, match="horizon"):
                fn(wsc_model, arg, 0.0, num_nodes=65, horizon=-1)
        unit = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), discount=1.0)
        with pytest.raises(ValueError, match="discount"):
            oracle_derivative(unit, 0.5, 0.0, num_nodes=65)
