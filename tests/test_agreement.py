"""Randomized agreement of the estimators and the DP oracle with the closed form.

Every config drawn in the first test passes `validate_config`: uniform
deterioration with any discount, death threshold H_D, start state h0,
constant, linear or tabulated rewards, a threshold inside (h0, H_D) and a
horizon from 1 to 10 or 200.  `oracles.derivative_closed_form`, a Poisson
series cut at the horizon, is the reference; it imports nothing from the
package, and a draw where it is exactly 0 is rejected, since every estimator
reads 0 there.  The next tests take the finite-horizon DP oracle as the
reference, at horizons from 1 up: on `ResetKernel`, where a continuation from
theta can fall back below it and wait, and on `PowerKernel(2)`, whose crossing
hazard depends on the state before the crossing.  The last test checks value
iteration's control limit against `oracles.control_limit_exact` on drawn
configs in the monotone case.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import control_limit_exact, derivative_closed_form
from stopgrad import ReplicationStreams, build_model, fd_estimate, oracle_derivative, spa_estimate
from stopgrad.config import ExperimentConfig, validate_config
from stopgrad.dp import extract_control_limit, value_iterate
from stopgrad.model import ConstantReward, LinearReward, StoppingModel
from test_kernel import PowerKernel, ResetKernel

HORIZON = 200
REPS = 20_000
DELTA = 0.01    # finite-difference width
SEED_SPA = 5301
SEED_FD = 5302


def _reward(kind: str, args) -> tuple[str, tuple[float, ...], tuple[float, ...]]:
    """Config spec of a reward, and the knots (xs, ys) of its piecewise-linear graph."""
    if kind == "constant":
        return f"constant {args[0]}", (0.0, 1.0), (args[0], args[0])
    if kind == "linear-decreasing":
        return f"linear-decreasing {args[0]} {args[1]}", (0.0, 1.0), tuple(args)
    return "table " + " ".join(f"{x}:{y}" for x, y in args), tuple(x for x, _ in args), tuple(y for _, y in args)


_levels = st.integers(0, 40).map(lambda k: k / 4)
_rewards = st.one_of(
    st.tuples(st.just("constant"), st.tuples(_levels)),
    st.tuples(st.just("linear-decreasing"), st.tuples(_levels, _levels)),
    st.tuples(
        st.just("table"),
        st.lists(st.tuples(st.integers(1, 19).map(lambda k: k / 20), _levels),
                 min_size=2, max_size=3, unique_by=lambda p: p[0]).map(lambda ps: tuple(sorted(ps))),
    ),
)

_AUX_DEATH = dict(lam=0.97, H_D=0.6, h0=0.0, wait=("constant", (0.5,)), transplant=("linear-decreasing", (8.0, 0.0)))
_TABLES = dict(lam=0.95, H_D=0.9, h0=0.1, wait=("table", ((0.2, 1.0), (0.7, 0.5))),
               transplant=("table", ((0.1, 9.0), (0.5, 5.0), (0.8, 1.0))))


def _accepted_model(lam: float, H_D: float, h0: float, c_spec: str, r_spec: str) -> StoppingModel:
    cfg = ExperimentConfig()
    cfg.model.discount, cfg.model.H_D = lam, H_D
    cfg.model.reward_wait, cfg.model.reward_transplant = c_spec, r_spec
    cfg.run.h0 = h0
    assert validate_config(cfg) == []
    return build_model(cfg)


def _at(case: dict, theta: float) -> dict:
    """An explicit example at threshold theta, as the fraction of (h0, H_D) that the test draws.
    A fraction outside (0, 1) puts theta outside (h0, H_D), where V' is exactly 0."""
    return dict(case, frac=(theta - case["h0"]) / (case["H_D"] - case["h0"]))


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@example(**_at(_AUX_DEATH, 0.4), horizon=HORIZON)
@example(**_at(_AUX_DEATH, 0.7), horizon=HORIZON)
@example(**_at(_TABLES, 0.6), horizon=HORIZON)
@example(**_at(_TABLES, 0.8), horizon=HORIZON)
@example(**_at(_TABLES, 0.05), horizon=HORIZON)
@example(**_at(_TABLES, 0.95), horizon=HORIZON)
@example(**_at(_TABLES, 0.6), horizon=1)
@example(**_at(_AUX_DEATH, 0.4), horizon=2)
@given(
    lam=st.integers(85, 97).map(lambda k: k / 100),
    H_D=st.one_of(st.just(1.0), st.integers(40, 95).map(lambda k: k / 100)),
    h0=st.one_of(st.just(0.0), st.integers(1, 30).map(lambda k: k / 100)),
    wait=_rewards,
    transplant=_rewards,
    frac=st.integers(10, 90).map(lambda k: k / 100),
    horizon=st.one_of(st.integers(1, 10), st.just(HORIZON)),
)
def test_estimators_agree_with_closed_form(lam, H_D, h0, wait, transplant, frac, horizon):
    theta = round(h0 + frac * (H_D - h0), 4)
    c_spec, c_xs, c_ys = _reward(*wait)
    r_spec, r_xs, r_ys = _reward(*transplant)
    model = _accepted_model(lam, H_D, h0, c_spec, r_spec)

    knots = (*c_xs, *r_xs)
    truth = derivative_closed_form(theta, lam, h0, H_D, lambda h: np.interp(h, c_xs, c_ys),
                                   lambda h: np.interp(h, r_xs, r_ys), knots, horizon)
    if 0.0 < frac < 1.0:  # a drawn case must be able to fail
        assume(truth != 0.0)

    spa = spa_estimate(model, theta, h0, horizon, REPS, 1, ReplicationStreams(SEED_SPA))
    assert abs(spa.mean - truth) <= 4.0 * spa.se + 1e-9, f"spa {spa.mean} +- {spa.se} vs {truth}"

    # FD is a central difference; V' or V'' jumps at these points.
    if min(abs(theta - k) for k in (h0, H_D, *knots)) >= 2.0 * DELTA:
        fd = fd_estimate(model, theta, h0, horizon, REPS, DELTA, crn=True, streams=ReplicationStreams(SEED_FD))
        assert abs(fd.mean - truth) <= 4.0 * fd.se + 1e-9, f"fd {fd.mean} +- {fd.se} vs {truth}"
    oracle = oracle_derivative(model, theta, h0, num_nodes=1025, horizon=horizon)
    assert abs(oracle - truth) <= 1e-5 * max(1.0, abs(truth)), f"oracle {oracle} vs {truth}"


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@example(p=0.3, H_D=1.0, frac=0.5, horizon=HORIZON)
@example(p=0.3, H_D=0.7, frac=0.6, horizon=HORIZON)
@example(p=0.3, H_D=0.7, frac=0.6, horizon=1)
@example(p=0.3, H_D=0.7, frac=0.6, horizon=2)
@example(p=0.5, H_D=1.0, frac=0.5, horizon=3)
@given(
    p=st.integers(4, 10).map(lambda k: k / 20),
    H_D=st.integers(60, 100).map(lambda k: k / 100),
    frac=st.integers(15, 90).map(lambda k: k / 100),
    horizon=st.one_of(st.integers(1, 10), st.just(HORIZON)),
)
def test_estimators_agree_with_oracle_when_continuations_wait(p, H_D, frac, horizon):
    # At horizon 1 every crossing is in the last period; at horizon 2 a
    # continuation that falls below theta is valued in the last period.
    model = StoppingModel(ResetKernel(p), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
    _agree_with_oracle(model, round(frac * H_D, 4), horizon)


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@example(H_D=1.0, frac=0.5, horizon=HORIZON)
@example(H_D=0.8, frac=0.3 / 0.8, horizon=3)
@given(
    H_D=st.integers(60, 100).map(lambda k: k / 100),
    frac=st.integers(15, 90).map(lambda k: k / 100),
    horizon=st.one_of(st.integers(1, 10), st.just(HORIZON)),
)
def test_estimators_agree_with_oracle_when_the_hazard_depends_on_the_state(H_D, frac, horizon):
    # PowerKernel(2)'s crossing hazard at theta varies with the state before the
    # crossing, so a hazard read from any other state is biased here.
    model = StoppingModel(PowerKernel(2.0), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
    _agree_with_oracle(model, round(frac * H_D, 4), horizon)


def _agree_with_oracle(model: StoppingModel, theta: float, horizon: int) -> None:
    """SPA at `aux_reps` 1 and 3 and CRN FD from h0 = 0 within 4 se of the DP oracle at the same horizon.
    theta lies at least 2 * DELTA inside (h0, H_D), where V'' is smooth."""
    truth = oracle_derivative(model, theta, 0.0, num_nodes=1025, horizon=horizon)
    for aux_reps in (1, 3):
        spa = spa_estimate(model, theta, 0.0, horizon, REPS, aux_reps, ReplicationStreams(SEED_SPA))
        assert abs(spa.mean - truth) <= 4.0 * spa.se, f"spa({aux_reps}) {spa.mean} +- {spa.se} vs {truth}"
    fd = fd_estimate(model, theta, 0.0, horizon, REPS, DELTA, crn=True, streams=ReplicationStreams(SEED_FD))
    assert abs(fd.mean - truth) <= 4.0 * fd.se, f"fd {fd.mean} +- {fd.se} vs {truth}"


_decreasing = st.one_of(
    st.tuples(st.just("constant"), st.tuples(_levels)),
    st.tuples(st.just("linear-decreasing"), st.tuples(_levels, _levels).map(lambda ys: tuple(sorted(ys, reverse=True)))),
)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(
    lam=st.integers(85, 97).map(lambda k: k / 100),
    H_D=st.one_of(st.just(1.0), st.integers(40, 95).map(lambda k: k / 100)),
    wait=_decreasing,
    transplant=_decreasing,
)
def test_control_limit_meets_the_monotone_case(lam, H_D, wait, transplant):
    # Where J = c - r + lam R / (1 - theta) is nonincreasing, the one-step
    # look-ahead limit is optimal.  A limit at or above H_D waits on the whole
    # living region, so both limits are read up to H_D: with c = r near H_D, J
    # stays positive below H_D (limit H) while value iteration ties at H_D.
    (c_spec, c_xs, _), (r_spec, r_xs, _) = _reward(*wait), _reward(*transplant)
    model = _accepted_model(lam, H_D, 0.0, c_spec, r_spec)
    exact = control_limit_exact(lam, H_D, model.reward_wait, model.reward_transplant, (*c_xs, *r_xs))
    assume(exact is not None)
    res = extract_control_limit(model, value_iterate(model, num_nodes=257))
    assert res.structure_ok
    assert abs(min(res.theta, H_D) - min(exact, H_D)) <= 1.0 / 256, f"value iteration {res.theta} vs exact {exact}"
