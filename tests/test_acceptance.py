"""Acceptance suite for the shipped scenario.

Runs every acceptance criterion at its stated size and tolerance and prints one
line per criterion.  Heavy Monte Carlo artifacts (10^6-replication estimates,
fine-grid oracle derivatives) are computed once in module-scoped fixtures and
shared.  Criteria 1-7 and 9 exercise the library; criterion 8 drives the CLI.

Known expected failure: criterion 4's coarse-difference clause asserts that the
delta = 0.1 finite difference at theta = 0.8 is biased by more than 40% of the
oracle derivative.  On this scenario the policy value is smooth enough in the
threshold that the symmetric-difference bias is ~3%, so the clause cannot hold;
it is asserted faithfully anyway and fails honestly.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import run_cli
from oracles import C_WAIT, R0, derivative_closed_form
from stopgrad import (
    check_assumptions,
    check_ifr,
    extract_control_limit,
    fd_estimate,
    ipa_estimate,
    oracle_derivative,
    policy_value_sweep,
    spa_estimate,
    value_iterate,
)
from stopgrad.cli import optimize_theta
from stopgrad.config import load_config
from stopgrad.sim import ReplicationStreams

THETAS = (0.2, 0.5, 0.8)
H0 = 0.0
HORIZON = 200
N_BIG = 1_000_000
N_MID = 10_000

SEED_SPA = 112001
SEED_FD = 112002
SEED_MID = 112003
SEED_N2 = 112004

_timings: dict[str, float] = {}


def _timed(key: str, fn):
    t0 = time.perf_counter()
    out = fn()
    _timings[key] = _timings.get(key, 0.0) + (time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def oracle_d(wsc_model):
    return {
        th: _timed("oracle", lambda th=th: oracle_derivative(wsc_model, th, H0))
        for th in THETAS
    }


@pytest.fixture(scope="module")
def spa_big(wsc_model):
    s = ReplicationStreams(SEED_SPA)
    return {
        th: _timed("spa", lambda th=th: spa_estimate(wsc_model, th, H0, HORIZON, N_BIG, 1, s))
        for th in THETAS
    }


@pytest.fixture(scope="module")
def fd001_big(wsc_model):
    s = ReplicationStreams(SEED_FD)
    return {
        th: fd_estimate(wsc_model, th, H0, HORIZON, N_BIG, delta=0.01, crn=True, streams=s)
        for th in THETAS
    }


@pytest.fixture(scope="module")
def value_function(wsc_model):
    return value_iterate(wsc_model)


def test_criterion_01_spa_matches_dp_oracle(wsc_model, spa_big, oracle_d):
    for th in THETAS:
        est, d = spa_big[th], oracle_d[th]
        tol = max(3.0 * est.se, 0.02 * abs(d))
        assert abs(est.mean - d) <= tol, f"theta={th}: spa {est.mean:.4f} vs oracle {d:.4f}"
    d = [oracle_d[th] for th in THETAS]
    assert all(x < 0.0 for x in d)
    assert abs(d[0]) > abs(d[1]) > abs(d[2])
    runtime = _timings["spa"] + _timings["oracle"]
    assert runtime < 300.0, f"criterion 1 runtime {runtime:.0f}s exceeds 5 minutes"
    print(f"\n[criterion 1] spa vs oracle at {THETAS}: "
          + ", ".join(f"{spa_big[t].mean:.3f}/{oracle_d[t]:.3f}" for t in THETAS)
          + f"  ({runtime:.0f}s) -> PASS")


def test_criterion_02_spa_consistent_with_fd(spa_big, fd001_big):
    for th in THETAS:
        a, b = spa_big[th], fd001_big[th]
        gap = abs(a.mean - b.mean)
        tol = 3.0 * np.sqrt(a.se**2 + b.se**2)
        assert gap <= tol, f"theta={th}: |{a.mean:.4f} - {b.mean:.4f}| > {tol:.4f}"
    print("[criterion 2] spa vs fd(0.01, crn) consistent at all thetas -> PASS")


def test_criterion_03_variance_ordering(wsc_model):
    s = ReplicationStreams(SEED_MID)
    ratios = []
    for th in THETAS:
        spa = spa_estimate(wsc_model, th, H0, HORIZON, N_MID, 1, s)
        fd = fd_estimate(wsc_model, th, H0, HORIZON, N_MID, delta=0.01, crn=True, streams=s)
        ratios.append(fd.se / spa.se)
        assert spa.se < fd.se / 5.0, f"theta={th}: se_spa {spa.se:.4f} vs se_fd {fd.se:.4f}"
    print(f"[criterion 3] se_fd/se_spa at N=1e4: {', '.join(f'{r:.1f}' for r in ratios)} (all > 5) -> PASS")


def test_criterion_04_fd_bias_variance_tradeoff(wsc_model, oracle_d, fd001_big):
    d = oracle_d[0.8]
    fd_coarse = fd_estimate(wsc_model, 0.8, H0, HORIZON, N_BIG, delta=0.1, crn=True,
                            streams=ReplicationStreams(SEED_FD))
    fine_bias = abs(fd001_big[0.8].mean - d)
    coarse_bias = abs(fd_coarse.mean - d)
    assert fine_bias < 0.1 * abs(d), f"fd(0.01) bias {fine_bias:.4f} vs oracle {d:.4f}"
    assert coarse_bias > fine_bias  # bias grows with the difference width
    print(f"[criterion 4] fd bias at theta=0.8: delta=0.1 -> {coarse_bias/abs(d)*100:.1f}%, "
          f"delta=0.01 -> {fine_bias/abs(d)*100:.2f}% of |oracle|")
    # Coarse-delta clause: > 40% bias.  The scenario's policy value is smooth in
    # the threshold, so this magnitude of symmetric-difference bias does not
    # arise here (see the repo notes); the assertion is kept as stated.
    assert coarse_bias > 0.4 * abs(d), (
        f"fd(0.1) bias is {coarse_bias:.4f} = {coarse_bias/abs(d)*100:.1f}% of |oracle|, not > 40%"
    )


def test_criterion_05_exact_unbiasedness_at_small_horizon(wsc_model):
    t0 = time.perf_counter()
    truth = derivative_closed_form(0.5, wsc_model.discount, 0.0, 1.0, lambda h: C_WAIT, lambda h: R0 * (1.0 - h),
                                   horizon=2)
    est = spa_estimate(wsc_model, 0.5, H0, 2, N_BIG, 1, ReplicationStreams(SEED_N2))
    elapsed = time.perf_counter() - t0
    assert abs(est.mean - truth) <= 3.0 * est.se, f"{est.mean:.5f} vs closed form {truth:.5f}"
    assert elapsed < 60.0
    print(f"[criterion 5] horizon-2 spa {est.mean:.4f} vs closed form {truth:.4f} "
          f"({elapsed:.0f}s) -> PASS")


def test_criterion_06_ipa_degeneracy(wsc_model, oracle_d):
    est = ipa_estimate(wsc_model, 0.5, N_BIG)
    assert est.mean == 0.0 and est.se == 0.0
    assert np.all(est.values == 0.0)
    assert abs(oracle_d[0.5]) > 1.0  # the quantity being estimated is far from zero
    print(f"[criterion 6] ipa = 0 while oracle = {oracle_d[0.5]:.3f} -> PASS")


def test_criterion_07_structural_results(wsc_model, value_function):
    V = value_function
    assert V.converged
    # iterate monotonicity is asserted inside value_iterate; spot-check the tail
    assert min(V.residual_history) >= 0.0
    assert float(np.diff(V.values).max()) <= 1e-6  # nonincreasing in the state
    limit = extract_control_limit(wsc_model, V)
    assert limit.structure_ok
    thetas = np.linspace(0.0, 1.0, 21)
    sweep = policy_value_sweep(wsc_model, thetas, H0)
    best = thetas[int(np.argmax(sweep))]
    cell = max(np.diff(thetas).max(), V.nodes[1] - V.nodes[0])
    assert abs(best - limit.theta) <= cell + 1e-12
    assert check_ifr(wsc_model.kernel, np.linspace(0.0, 1.0, 101)).passed
    assert all(r.passed for r in check_assumptions(wsc_model).values())
    print(f"[criterion 7] theta*={limit.theta:.3f}, sweep argmax {best:.3f}, "
          f"V monotone, assumptions pass -> PASS")


def test_criterion_08_worker_determinism(tmp_path):
    sweep_ini = (
        "[run]\nh0 = 0.0\nhorizon = 200\nreps = 30000\nseed = 31415\nworkers = 1\n"
        "[sweep]\nthetas = 0.3, 0.7\nreps = 100, 2000\nmethods = spa, fd:0.05\n"
        "[optimize]\ntheta0 = 0.9\niterations = 3\nreps_per_step = 500\n"
        "step_size = 0.05\nclip_margin = 0.02\n"
    )
    (tmp_path / "acc.ini").write_text(sweep_ini)
    runs = {
        "gradient.csv": ["gradient", "--method", "spa", "--theta", "0.5"],
        "simulate.csv": ["simulate"],
        "sweep.csv": ["sweep"],
        "optimize_trace.csv": ["optimize"],
        "value_function.csv": ["solve", "--nodes", "257"],
    }
    for artifact, cmd in runs.items():
        outputs = []
        for workers in ("1", "2"):
            sub = tmp_path / f"w{workers}_{artifact}"
            sub.mkdir()
            res = run_cli(["--config", "acc.ini", "--workers", workers, "--out", str(sub), *cmd], tmp_path)
            assert res.returncode == 0, (artifact, res.stderr)
            outputs.append((sub / artifact).read_bytes())
        assert outputs[0] == outputs[1], f"{artifact} differs across worker counts"
    print("[criterion 8] all artifacts byte-identical across --workers 1/2 -> PASS")


def test_criterion_09_optimizer_reaches_control_limit(wsc_model, value_function):
    cfg = load_config("wsc-example")
    assert cfg.optimize.iterations <= 500 and cfg.optimize.reps_per_step == 1000
    theta_star = extract_control_limit(wsc_model, value_function).theta
    trace = optimize_theta(cfg, wsc_model, ReplicationStreams(cfg.run.seed))
    final_theta = trace[-1][1]
    assert abs(final_theta - theta_star) <= 0.05, f"final {final_theta:.3f} vs theta* {theta_star:.3f}"
    print(f"[criterion 9] optimizer {cfg.optimize.iterations} steps: "
          f"theta {cfg.optimize.theta0} -> {final_theta:.3f} (theta* {theta_star:.3f}) -> PASS")
