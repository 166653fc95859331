"""Randomized agreement of the estimators and the DP oracle with the closed form.

Every config drawn in the first test passes `validate_config`: uniform
deterioration with any discount, death threshold H_D, start state h0,
constant, linear or tabulated rewards, and a horizon from 1 to 10 or 200.
`oracles.derivative_closed_form`, a Poisson series cut at the horizon, is the
reference; it imports nothing from the package.  The second test moves to
`ResetKernel`, where a continuation from theta can fall back below it and wait,
and takes the finite-horizon DP oracle as the reference, at horizons from 1 up.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import derivative_closed_form
from stopgrad import ReplicationStreams, build_model, fd_estimate, oracle_derivative, spa_estimate
from stopgrad.config import ExperimentConfig, validate_config
from stopgrad.model import ConstantReward, LinearReward, StoppingModel
from test_kernel import ResetKernel

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


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@example(**_AUX_DEATH, theta=0.4, horizon=HORIZON)
@example(**_AUX_DEATH, theta=0.7, horizon=HORIZON)
@example(**_TABLES, theta=0.6, horizon=HORIZON)
@example(**_TABLES, theta=0.8, horizon=HORIZON)
@example(**_TABLES, theta=0.05, horizon=HORIZON)
@example(**_TABLES, theta=0.95, horizon=HORIZON)
@example(**_TABLES, theta=0.6, horizon=1)
@example(**_AUX_DEATH, theta=0.4, horizon=2)
@given(
    lam=st.integers(85, 97).map(lambda k: k / 100),
    H_D=st.one_of(st.just(1.0), st.integers(40, 95).map(lambda k: k / 100)),
    h0=st.one_of(st.just(0.0), st.integers(1, 30).map(lambda k: k / 100)),
    wait=_rewards,
    transplant=_rewards,
    theta=st.integers(2, 90).map(lambda k: k / 100),
    horizon=st.one_of(st.integers(1, 10), st.just(HORIZON)),
)
def test_estimators_agree_with_closed_form(lam, H_D, h0, wait, transplant, theta, horizon):
    cfg = ExperimentConfig()
    c_spec, c_xs, c_ys = _reward(*wait)
    r_spec, r_xs, r_ys = _reward(*transplant)
    cfg.model.discount, cfg.model.H_D = lam, H_D
    cfg.model.reward_wait, cfg.model.reward_transplant = c_spec, r_spec
    cfg.run.h0 = h0
    assert validate_config(cfg) == []
    model = build_model(cfg)

    knots = (*c_xs, *r_xs)
    truth = derivative_closed_form(theta, lam, h0, H_D, lambda h: np.interp(h, c_xs, c_ys),
                                   lambda h: np.interp(h, r_xs, r_ys), knots, horizon)

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
    # theta lies at least 2 * DELTA inside (h0, H_D), where V'' is smooth.  At
    # horizon 1 every crossing is in the last period; at horizon 2 a
    # continuation that falls below theta is valued in the last period.
    theta = round(frac * H_D, 4)
    model = StoppingModel(ResetKernel(p), ConstantReward(0.5), LinearReward(8.0, 0.0), H_D=H_D)
    truth = oracle_derivative(model, theta, 0.0, num_nodes=1025, horizon=horizon)
    for aux_reps in (1, 3):
        spa = spa_estimate(model, theta, 0.0, horizon, REPS, aux_reps, ReplicationStreams(SEED_SPA))
        assert abs(spa.mean - truth) <= 4.0 * spa.se, f"spa({aux_reps}) {spa.mean} +- {spa.se} vs {truth}"
    fd = fd_estimate(model, theta, 0.0, horizon, REPS, DELTA, crn=True, streams=ReplicationStreams(SEED_FD))
    assert abs(fd.mean - truth) <= 4.0 * fd.se, f"fd {fd.mean} +- {fd.se} vs {truth}"
