from __future__ import annotations

import numpy as np
import pytest

from conftest import replay
from stopgrad import sim
from stopgrad.kernel import DomainError, UniformDeteriorationKernel
from stopgrad.model import ConstantReward, LinearReward, StoppingModel
from stopgrad.sim import (
    ReplicationStreams,
    _paths_from_uniforms,
    map_blocks,
    sample_paths,
)

LAM = 0.97


class TestReplicationStreams:
    def test_rows_are_reproducible_and_distinct(self):
        s = ReplicationStreams(123)
        a = s.uniform_rows(0, 0, 50, 17)
        b = s.uniform_rows(0, 0, 50, 17)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_only_block_ranges_are_served(self, wsc_model):
        B = sim._BLOCK_ROWS
        s = ReplicationStreams(123)
        for lo, hi in ((37, 60), (B - 4, B + 6), (0, B + 1)):
            with pytest.raises(ValueError, match="block_ranges"):
                s.uniform_rows(0, lo, hi, 9)
        np.testing.assert_array_equal(s.uniform_rows(0, 2 * B, 2 * B + 22, 9), s.uniform_rows(0, 2 * B, 3 * B, 9)[:22])
        # A short final block draws the first rows of the full block.
        short = sample_paths(wsc_model, 0.5, 0.0, 200, B + 1000, ReplicationStreams(29))
        long = sample_paths(wsc_model, 0.5, 0.0, 200, 2 * B, ReplicationStreams(29))
        for f in ("value", "stop_index", "cross_index", "died", "h_prev", "disc_at_stop"):
            np.testing.assert_array_equal(getattr(short, f), getattr(long, f)[:B + 1000])

    def test_purposes_and_domains_are_independent(self):
        s = ReplicationStreams(123)
        assert not np.array_equal(s.uniform_rows(0, 0, 4, 8), s.uniform_rows(1, 0, 4, 8))
        assert not np.array_equal(s.uniform_rows(0, 0, 4, 8), s.child(1).uniform_rows(0, 0, 4, 8))

    def test_seeds_differ(self):
        assert not np.array_equal(
            ReplicationStreams(1).uniform_rows(0, 0, 4, 8),
            ReplicationStreams(2).uniform_rows(0, 0, 4, 8),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationStreams(-1)
        with pytest.raises(ValueError):
            ReplicationStreams(1).uniform_rows(16, 0, 1, 1)


def _death_model() -> StoppingModel:
    return StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=0.6)


class TestSimulatePath:
    def test_immediate_stop_at_or_above_threshold(self, wsc_model):
        # The tie h0 == theta transplants too; no draw is read.
        for h0 in (0.5, 0.7):
            b = _paths_from_uniforms(wsc_model, 0.5, h0, 50, np.full((1, 50), np.nan))
            assert b.stop_index[0] == b.cross_index[0] == 0
            assert b.value[0] == pytest.approx(8.0 * (1.0 - h0))
            assert not b.died[0]

    def test_never_stopping_accrues_geometric_sum(self, wsc_model):
        # Controlled draws keep the state strictly below 1 in floating point
        # (h_k = 1 - 2^-k), so the path survives the whole horizon.
        n = 40
        b = _paths_from_uniforms(wsc_model, 1.0, 0.0, n, np.full((1, n), 0.5))
        assert b.stop_index[0] == b.cross_index[0] == -1 and not b.died[0]
        assert b.value[0] == pytest.approx(0.5 * (1 - LAM ** (n + 1)) / (1 - LAM))

    def test_bit_reproducible(self, wsc_model):
        a = sample_paths(wsc_model, 0.5, 0.0, 200, 100, ReplicationStreams(99))
        b = sample_paths(wsc_model, 0.5, 0.0, 200, 100, ReplicationStreams(99))
        np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(a.stop_index, b.stop_index)

    def test_h0_domain(self, wsc_model):
        with pytest.raises(DomainError):
            sample_paths(wsc_model, 0.5, 1.0, 10, 10, ReplicationStreams(1))
        with pytest.raises(DomainError):
            sample_paths(wsc_model, 1.5, 0.0, 10, 10, ReplicationStreams(1))

    def test_death_terminates_with_zero_rewards(self):
        # u = 0.9 from h = 0 jumps to 0.9 >= H_D: death before any crossing of 0.95,
        # while the same jump crosses 0.8 into the death region.
        U = np.full((1, 10), 0.9)
        for theta, cross in ((0.95, -1), (0.8, 1)):
            b = _paths_from_uniforms(_death_model(), theta, 0.0, 10, U)
            assert b.died[0] and b.stop_index[0] == -1 and b.cross_index[0] == cross
            assert b.value[0] == pytest.approx(0.5)  # only the period-0 wait reward
            if cross == 1:
                assert b.disc_at_stop[0] == LAM and b.h_prev[0] == 0.0
        # A row with no period neither crosses nor dies, also from a dead start state.
        b = _paths_from_uniforms(_death_model(), 0.5, 0.7, -1, U)
        assert not b.died[0] and b.cross_index[0] == -1 and b.value[0] == 0.0

    def test_value_nondecreasing_in_horizon(self, wsc_model):
        U = ReplicationStreams(31).uniform_rows(0, 0, 200, 40)
        v_short = _paths_from_uniforms(wsc_model, 0.9, 0.0, 3, U[:, :3]).value
        v_long = _paths_from_uniforms(wsc_model, 0.9, 0.0, 40, U).value
        assert np.all(v_short <= v_long + 1e-15)

    def test_stopped_paths_have_threshold_structure(self, wsc_model):
        theta = 0.6
        U = ReplicationStreams(37).uniform_rows(0, 0, 50, 100)
        b = _paths_from_uniforms(wsc_model, theta, 0.0, 100, U)
        for i in range(50):
            # States from the kernel's inverse CDF h' = h + (1 - h) u.
            h = [0.0]
            for u in U[i]:
                h.append(h[-1] + (1.0 - h[-1]) * u)
            M = int(np.argmax(np.asarray(h) >= theta))
            assert b.stop_index[i] == b.cross_index[i] == M
            expected = sum(LAM**k * 0.5 for k in range(M)) + LAM**M * 8.0 * (1.0 - h[M])
            assert b.value[i] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta,H_D", [(0.8, 1.0), (0.4, 0.6)])
    def test_result_ignores_draws_after_stop(self, theta, H_D):
        # Row i reads U[i, k] only for the transitions it takes: draws at and
        # after its last period (its crossing, dead or alive, or the horizon)
        # are never read.
        m = StoppingModel(UniformDeteriorationKernel(), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
        U = ReplicationStreams(38).uniform_rows(0, 0, 500, 30)
        a = _paths_from_uniforms(m, theta, 0.0, 30, U)
        ends = np.where(a.cross_index >= 0, a.cross_index, 30)
        V = U.copy()
        V[np.arange(30)[None, :] >= ends[:, None]] = np.nan
        b = _paths_from_uniforms(m, theta, 0.0, 30, V)
        for f in ("value", "stop_index", "cross_index", "died", "disc_at_stop"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        assert a.died.any() == (H_D < 1.0)

    def test_rows_start_mid_flight(self, wsc_model):
        # Each row has its own start state and horizon; the path from there is
        # the replayed one.  A row with horizon -1 takes no period.
        U = ReplicationStreams(39).uniform_rows(0, 0, 6, 12)
        U[5] = np.nan
        h0 = np.array([0.0, 0.3, 0.45, 0.55, 0.2, np.nan])
        horizon = np.array([12, 7, 0, 3, 12, -1])
        b = _paths_from_uniforms(wsc_model, 0.5, h0, horizon, U)
        for i in range(5):
            _, v, stop, died = replay(wsc_model, 0.5, h0[i], horizon[i], U[i])
            assert b.value[i] == v
            assert (b.stop_index[i] if b.stop_index[i] >= 0 else None) == stop
            assert bool(b.died[i]) == died
            if stop is not None:
                assert b.disc_at_stop[i] == pytest.approx(LAM**stop, rel=1e-12)
        assert b.value[5] == 0.0
        assert b.stop_index[5] == b.cross_index[5] == -1 and not b.died[5]
        assert b.stop_index[2] == -1 and b.stop_index[3] == 0  # horizon 0 waits; h0 >= theta stops at once


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("theta,h0,horizon", [(0.5, 0.0, 40), (0.8, 0.1, 25), (0.05, 0.0, 10)])
    def test_batch_equals_scalar_replay(self, wsc_model, theta, h0, horizon):
        U = ReplicationStreams(11).uniform_rows(0, 0, 300, horizon)
        batch = _paths_from_uniforms(wsc_model, theta, h0, horizon, U)
        for i in range(300):
            _, v, stop, died = replay(wsc_model, theta, h0, horizon, U[i])
            assert batch.value[i] == v
            assert (batch.stop_index[i] if batch.stop_index[i] >= 0 else None) == stop
            assert bool(batch.died[i]) == died

    def test_batch_equals_scalar_replay_with_death(self):
        m = _death_model()
        U = ReplicationStreams(12).uniform_rows(0, 0, 200, 30)
        batch = _paths_from_uniforms(m, 0.4, 0.0, 30, U)
        died = 0
        for i in range(200):
            states, v, _, dead = replay(m, 0.4, 0.0, 30, U[i])
            assert batch.value[i] == v
            assert bool(batch.died[i]) == dead
            if dead:  # every death here first reaches a state >= theta
                assert batch.cross_index[i] == len(states) - 1
            died += dead
        assert died > 0  # scenario actually exercises the death branch


class TestMonotoneCoupling:
    def test_common_draws_preserve_path_prefix(self, wsc_model):
        # Under shared uniforms, raising the threshold never changes the path
        # before the lower threshold's stopping period M: cut at period M, the
        # higher threshold's path leaves the same state at M - 1.
        U = ReplicationStreams(13).uniform_rows(0, 0, 500, 60)
        lo = _paths_from_uniforms(wsc_model, 0.5, 0.0, 60, U)
        hi = _paths_from_uniforms(wsc_model, 0.7, 0.0, 60, U)
        assert np.all(lo.stop_index >= 0)
        assert np.all(hi.stop_index >= lo.stop_index)
        for M in np.unique(lo.stop_index[lo.stop_index > 0]):
            rows = lo.stop_index == M
            cut = _paths_from_uniforms(wsc_model, 0.7, 0.0, int(M), U[rows])
            np.testing.assert_array_equal(cut.h_prev, lo.h_prev[rows])


class TestEstimateValue:
    def test_zero_threshold_is_deterministic(self, wsc_model):
        v = sample_paths(wsc_model, 0.0, 0.3, 50, 100, ReplicationStreams(5)).value
        assert v.mean() == pytest.approx(8.0 * 0.7)
        assert v.std(ddof=1) == pytest.approx(0.0, abs=1e-12)

    def test_distinct_reps_give_distinct_paths(self, wsc_model):
        batch = sample_paths(wsc_model, 0.5, 0.0, 200, 64, ReplicationStreams(17))
        assert np.unique(batch.value).size > 32

    def test_deterministic_and_worker_invariant(self, wsc_model):
        s = ReplicationStreams(21)
        a = sample_paths(wsc_model, 0.5, 0.0, 200, 20_000, s, workers=1)
        b = sample_paths(wsc_model, 0.5, 0.0, 200, 20_000, s, workers=2)
        np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(a.stop_index, b.stop_index)

    def test_values_respect_discounted_bound(self, wsc_model):
        batch = sample_paths(wsc_model, 0.5, 0.0, 200, 20_000, ReplicationStreams(23))
        assert float(batch.value.max()) <= wsc_model.value_bound + 1e-9

    def test_reps_validation(self, wsc_model):
        with pytest.raises(ValueError):
            sample_paths(wsc_model, 0.5, 0.0, 10, 0, ReplicationStreams(1))


def test_pool_is_no_larger_than_the_block_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    ranges = [(0, 3), (3, 5)]
    assert map_blocks(lambda lo, hi: (lo, hi), ranges, workers=64) == ranges
    assert sizes == [2]
    # Nor larger than the core count; with the count unknown the blocks run in this process.
    ranges = [(0, 3), (3, 5), (5, 6), (6, 9)]
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    assert map_blocks(lambda lo, hi: (lo, hi), ranges, workers=64) == ranges
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert map_blocks(lambda lo, hi: (lo, hi), ranges, workers=64) == ranges
    assert sizes == [2, 2]
