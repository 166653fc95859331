from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgrad.kernel import DomainError, UniformDeteriorationKernel
from stopgrad.model import (
    ConstantReward,
    LinearReward,
    StoppingModel,
    TabulatedReward,
    check_assumptions,
)
from stopgrad.sim import ReplicationStreams, _paths_from_uniforms, sample_paths


class TestStageReward:
    def test_transplant_value(self, wsc_model):
        assert wsc_model.transplant_reward(0.5) == pytest.approx(4.0)

    def test_wait_value(self, wsc_model):
        assert wsc_model.wait_reward(0.3) == pytest.approx(0.5)

    def test_death_region_zero(self, wsc_model):
        assert wsc_model.wait_reward(wsc_model.H_D) == 0.0
        assert wsc_model.transplant_reward(wsc_model.H_D) == 0.0

    def test_death_region_zero_with_interior_threshold(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)
        assert m.wait_reward(0.7) == 0.0
        assert m.transplant_reward(0.7) == 0.0
        assert m.transplant_reward(0.5) == pytest.approx(4.0)
        np.testing.assert_array_equal(m.wait_reward(np.array([0.5, 0.6, 0.7])), [0.5, 0.0, 0.0])

    def test_domain_error(self, wsc_model):
        with pytest.raises(DomainError):
            wsc_model.wait_reward(1.5)
        with pytest.raises(DomainError):
            wsc_model.transplant_reward(-0.1)


def _transplants_now(model, theta, h) -> bool:
    """Whether the threshold policy transplants at state h (a zero-horizon path from h)."""
    return bool(_paths_from_uniforms(model, theta, h, 0, np.empty((1, 0))).stop_index[0] == 0)


class TestPolicy:
    def test_wait_below(self, wsc_model):
        assert not _transplants_now(wsc_model, 0.5, 0.49)

    def test_tie_transplants(self, wsc_model):
        assert _transplants_now(wsc_model, 0.5, 0.5)

    def test_zero_threshold_always_transplants(self, wsc_model):
        for h in (0.0, 0.3, 0.999):
            assert _transplants_now(wsc_model, 0.0, h)

    def test_theta_bounds(self, wsc_model):
        with pytest.raises(DomainError):
            sample_paths(wsc_model, 1.5, 0.0, 10, 10, ReplicationStreams(1))

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.0, 1.0), h=st.floats(0.0, 0.999), h2=st.floats(0.0, 0.999))
    def test_threshold_structure(self, wsc_model, theta, h, h2):
        lo, hi = sorted((h, h2))
        if _transplants_now(wsc_model, theta, lo):
            assert _transplants_now(wsc_model, theta, hi)


class TestModelValidation:
    def test_bad_death_threshold(self):
        with pytest.raises(ValueError):
            StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(1.0), H_D=0.0)
        with pytest.raises(ValueError):
            StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(1.0), H_D=1.5)

    def test_bad_discount(self):
        with pytest.raises(ValueError):
            StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(1.0), discount=0.0)
        with pytest.raises(ValueError):
            StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(1.0), discount=1.01)

    def test_unit_discount_allowed_for_finite_horizon_use(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), ConstantReward(1.0), discount=1.0)
        assert m.value_bound == float("inf")

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            StoppingModel(UniformDeteriorationKernel(), ConstantReward(-1.0), ConstantReward(1.0))

    @pytest.mark.parametrize("slot", ["wait", "transplant"])
    def test_plain_callable_rejected(self, slot):
        rewards = {"wait": ConstantReward(0.5), "transplant": ConstantReward(1.0), slot: lambda h: 0.0 * h}
        with pytest.raises(TypeError):
            StoppingModel(UniformDeteriorationKernel(), rewards["wait"], rewards["transplant"])

    def test_value_bound(self, wsc_model):
        assert wsc_model.value_bound == pytest.approx(8.0 / 0.03)

    def test_value_bound_reads_a_peak_between_grid_points(self):
        peak = TabulatedReward((0.0, 0.30001, 1.0), (1.0, 5.0, 0.0))
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.0), peak)
        assert m.value_bound == 5.0 / (1.0 - m.discount)

    def test_value_bound_ignores_knots_outside_the_state_space(self):
        # The config table's knot -5:100 lies outside [0, 1]; on [0, 1] it peaks at r(0) = 8.
        from stopgrad.config import reward_from_spec

        steep = reward_from_spec("table -5:100 0:8 1:0", 1.0)
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), steep)
        assert m.value_bound == pytest.approx(8.0 / 0.03)
        beyond = TabulatedReward((0.5, 2.0), (1.0, 50.0))  # rises to 1 + 49 / 3 at h = 1
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), beyond)
        assert m.value_bound == pytest.approx((1.0 + 49.0 / 3.0) / 0.03)

    def test_truncation_bound(self, wsc_model):
        assert wsc_model.truncation_bound(200) == pytest.approx(0.97**201 * 8.0 / 0.03)


class TestRewardForms:
    def test_tabulated_interpolates(self):
        r = TabulatedReward((0.0, 0.5, 1.0), (8.0, 4.0, 0.0))
        assert r(0.25) == pytest.approx(6.0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedReward((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            TabulatedReward((0.0, float("nan"), 1.0), (8.0, 4.0, 0.0))

    @pytest.mark.parametrize("make", [
        lambda: TabulatedReward((0.0, 1e-4, 2e-4, 1.0), (1.0, -1.0, 1.0, 1.0)),
        lambda: ConstantReward(-1.0),
        lambda: LinearReward(1.0, -1.0),
        lambda: ConstantReward(float("nan")),
        lambda: ConstantReward(float("inf")),
    ], ids=["table-dip", "constant", "linear-end", "constant-nan", "constant-inf"])
    def test_negative_values_rejected(self, make):
        # The table's values are checked exactly, so a dip between coarse grid points is caught.
        with pytest.raises(ValueError, match="nonnegative"):
            make()


class TestAssumptions:
    def test_wsc_example_all_pass(self, wsc_model):
        report = check_assumptions(wsc_model)
        assert all(r.passed for r in report.values())
        assert not report["A1"].vacuous
        assert report["A4"].vacuous and report["A5"].vacuous

    def test_frozen_kernel_with_interior_death_passes_all(self):
        # A point mass at the current state never moves mass across H_D, so the
        # band (A4) and death-risk (A5) audits hold without being vacuous.
        from test_estimators import FrozenKernel

        m = StoppingModel(FrozenKernel(), ConstantReward(0.5), ConstantReward(1.0), H_D=0.9)
        report = check_assumptions(m)
        assert list(report) == ["A1", "A2", "A3", "A4", "A5"]
        for r in report.values():
            assert r.passed and not r.vacuous, r
            assert type(r.passed) is bool

    def test_increasing_transplant_reward_fails_a1(self):
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(0.0, 8.0))
        rep = check_assumptions(m)
        a1 = rep["A1"]
        assert not a1.passed
        h1, h2 = a1.witness
        assert h1 < h2

    def test_small_discount_fails_a5(self):
        # With an interior death region, a sharply decreasing transplant reward,
        # and discount 0.01, the added death risk cannot cover the reward drop.
        m = StoppingModel(
            UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0),
            H_D=0.9, discount=0.01,
        )
        rep = check_assumptions(m, np.linspace(0.0, 0.89, 90))
        a5 = rep["A5"]
        assert not a5.passed and not a5.vacuous
        assert a5.worst > 0.0

    def test_uniform_kernel_with_interior_death_fails_a4(self):
        # Mass in the band [h0, H_D) shrinks as the state worsens (it skips into
        # the death region), so the band-monotonicity audit must report it.
        m = StoppingModel(
            UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.9,
        )
        rep = check_assumptions(m, np.linspace(0.0, 0.89, 90))
        assert not rep["A4"].passed

    @pytest.mark.parametrize("H_D", [1.0, 0.6])
    def test_one_point_grid(self, H_D):
        # A one-point grid has no adjacent pair to compare: the band audit (A4)
        # passes like the IFR audit (A3) instead of reducing an empty array.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
        report = check_assumptions(m, [0.1])
        assert list(report) == ["A1", "A2", "A3", "A4", "A5"]
        assert report["A3"].passed and report["A4"].passed and report["A5"].passed
        assert report["A4"].vacuous == (H_D == 1.0)
        assert report["A4"].worst == 0.0

    @pytest.mark.parametrize("wait,transplant,H_D", [
        (LinearReward(1.0, 0.2), LinearReward(8.0, 0.0), 0.9),
        (LinearReward(1.0, 0.2), LinearReward(8.0, 0.0), 1.0),
        (LinearReward(0.5, 0.1), TabulatedReward((0.0, 0.5, 1.0), (9.0, 5.0, 1.0)), 0.6),
    ], ids=["linear-0.9", "linear-1", "table-0.6"])
    def test_worst_is_never_negative(self, wait, transplant, H_D):
        # Both rewards strictly decrease on the grid, so there is no violation: worst reads 0.
        report = check_assumptions(StoppingModel(UniformDeteriorationKernel(), wait, transplant, H_D=H_D))
        assert report["A1"].passed and report["A1"].worst == 0.0
        assert all(r.worst >= 0.0 for r in report.values()), report

    def test_report_lookup_raises_for_unknown(self, wsc_model):
        with pytest.raises(KeyError):
            check_assumptions(wsc_model)["A9"]

    def test_grid_must_live_below_death(self, wsc_model):
        with pytest.raises(ValueError):
            check_assumptions(wsc_model, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            check_assumptions(wsc_model, np.array([0.1, np.nan]))
