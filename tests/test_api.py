"""The package's public surface, pinned so that removed APIs cannot come back unnoticed.

Removed on purpose: the scalar twins of the vectorized path and crossing-event
kernels, the per-replication generator, the policy and action types, the
per-action stage reward, the one-draw sampler of the kernel base class and the
standalone Bellman backup.  Their behaviour is covered through the vectorized
kernels, `value_iterate` and the closed form in `oracles`.

Also removed on purpose: the `PolicyValue` record (policy values are plain
floats), the `IfrReport` record
(`check_ifr` returns the A3 `AssumptionResult`), `GridValueFunction.tol`, the
`H` field of `UniformDeteriorationKernel`, and the solver and audit tolerance
knobs: `tol`/`max_iter` of `policy_value`, `policy_value_sweep` and
`oracle_derivative`, and `tol` of `extract_control_limit`, `check_assumptions`
and `check_ifr`.  Each is now a private module constant.

Also removed on purpose: the `AssumptionReport` wrapper (`check_assumptions`
returns a dict of `AssumptionResult` keyed "A1" ... "A5"), `StoppingModel.is_dead`,
the `H` field of `StoppingModel` (`H` is a read-only property returning the
kernel's), the `block_rows` field of `ReplicationStreams` and the public
`DEFAULT_BLOCK_ROWS` (blocks are a fixed 16,384 replications), the `GradEstimate`
fields `horizon`, `delta`, `crn` and `aux_reps`, and the `h0` and `horizon`
parameters of `ipa_estimate`.

Also removed on purpose: `dp.ORACLE_NODES` (`oracle_derivative` uses the one
grid default `DEFAULT_NODES`), the warm start of `policy_value_sweep` (every
threshold starts from the transplant values), and the `v_left` argument of
`GridDynamics.continuation` (the policy sweep carries the jump at the
threshold on a grid node just below it).

Also removed on purpose: the `dtheta` step of `oracle_derivative` (it solves
the derivative of the policy fixed point, with no step in theta) and
`sim.estimate_value` (the mean and standard error of `sample_paths(...).value`).

Also removed on purpose: the sweep budget of policy evaluation, `_POLICY_TOL`
and `_POLICY_MAX_ITER` (policy values and the threshold sensitivity are one
linear solve, which has no tolerance and cannot run out of sweeps).

Also removed on purpose: the private policy evaluators `_policy_fixed_point`
and `_policy_sweeps` and the waiting-node count `_waiting_nodes` of `dp`.
`policy_value_sweep` and `oracle_derivative` share one grid rule
(`_threshold_grid`) and one evaluator (`_evaluate`), which returns the policy
values and the tangent from one solve or one backward induction.

Also removed on purpose: the `ConstantReward` and `LinearReward` classes (they are
now functions that return the equivalent two-knot `TabulatedReward`), plain
callables as rewards (`StoppingModel` raises TypeError for anything but a
`TabulatedReward`), `StoppingModel.wait_sup`/`transplant_sup` (`value_bound`
reads the tables' largest value), and the check of reward callables at 2049
points of `[0, H]` (a table checks its values exactly).
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import stopgrad

# Public functions and classes that each module defines.
MODULES = {
    "stopgrad.sim": {"PathBatch", "ReplicationStreams", "block_ranges", "map_blocks", "sample_paths"},
    "stopgrad.estimators": {"DegenerateHazardError", "GradEstimate", "fd_estimate", "ipa_estimate", "spa_estimate"},
    "stopgrad.model": {"AssumptionResult", "ConstantReward", "LinearReward", "StoppingModel",
                       "TabulatedReward", "check_assumptions", "check_ifr"},
    "stopgrad.dp": {"ControlLimitResult", "ConvergenceError", "GridDynamics", "GridValueFunction",
                    "extract_control_limit", "make_grid", "oracle_derivative", "policy_value", "policy_value_sweep",
                    "value_iterate"},
    "stopgrad.kernel": {"DomainError", "TransitionKernel", "UniformDeteriorationKernel", "integrate_density"},
}

# Public attributes of the classes that lost test-only methods.
CLASSES = {
    "ReplicationStreams": {"ALT", "AUX", "PATH", "child", "domain", "uniform_rows"},
    "TransitionKernel": {"H", "density", "density_discontinuities", "point_masses", "ppf", "tail_mass"},
    "StoppingModel": {"H", "H_D", "discount", "transplant_reward", "truncation_bound", "value_bound", "wait_reward"},
}

# Parameter names of the public functions, so that a deleted knob cannot come back unnoticed.
SIGNATURES = {
    "stopgrad.sim.block_ranges": ("reps",),
    "stopgrad.sim.map_blocks": ("fn", "ranges", "workers"),
    "stopgrad.sim.sample_paths": ("model", "theta", "h0", "horizon", "reps", "streams", "workers"),
    "stopgrad.estimators.fd_estimate": ("model", "theta", "h0", "horizon", "reps", "delta", "crn", "streams",
                                        "workers"),
    "stopgrad.estimators.ipa_estimate": ("model", "theta", "reps"),
    "stopgrad.estimators.spa_estimate": ("model", "theta", "h0", "horizon", "reps", "aux_reps", "streams",
                                         "workers"),
    "stopgrad.dp.extract_control_limit": ("model", "V"),
    "stopgrad.dp.make_grid": ("model", "num_nodes", "extra"),
    "stopgrad.dp.oracle_derivative": ("model", "theta", "h0", "num_nodes", "horizon"),
    "stopgrad.dp.policy_value": ("model", "theta", "h0", "num_nodes"),
    "stopgrad.dp.policy_value_sweep": ("model", "thetas", "h0", "num_nodes", "horizon"),
    "stopgrad.dp.value_iterate": ("model", "tol", "max_iter", "num_nodes"),
    "stopgrad.model.ConstantReward": ("value",),
    "stopgrad.model.LinearReward": ("at_zero", "at_H", "H"),
    "stopgrad.model.check_assumptions": ("model", "grid"),
    "stopgrad.model.check_ifr": ("kernel", "grid"),
}


def test_every_exported_name_imports():
    for name in stopgrad.__all__:
        ns: dict = {}
        exec(f"from stopgrad import {name}", ns)
        assert ns[name] is getattr(stopgrad, name)


def test_package_exports_exactly_its_all():
    public = {n for n, v in vars(stopgrad).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(stopgrad.__all__)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_surface_is_pinned(module):
    mod = importlib.import_module(module)
    defined = {n for n, v in vars(mod).items()
               if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v)) and v.__module__ == module}
    assert defined == MODULES[module]


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_class_surface_is_pinned(cls):
    assert {n for n in vars(getattr(stopgrad, cls)) if not n.startswith("_")} == CLASSES[cls]


def test_function_signatures_are_pinned():
    funcs = {f"{m}.{n}": v for m in ("stopgrad.sim", "stopgrad.estimators", "stopgrad.dp", "stopgrad.model")
             for n, v in vars(importlib.import_module(m)).items()
             if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == m}
    assert {name: tuple(inspect.signature(fn).parameters) for name, fn in funcs.items()} == SIGNATURES


def test_dp_has_one_grid_default_and_a_one_vector_continuation():
    from stopgrad import dp

    assert not hasattr(dp, "ORACLE_NODES")
    assert not hasattr(dp, "_POLICY_TOL") and not hasattr(dp, "_POLICY_MAX_ITER")
    assert inspect.signature(dp.oracle_derivative).parameters["num_nodes"].default == dp.DEFAULT_NODES
    assert tuple(inspect.signature(dp.GridDynamics.continuation).parameters) == ("self", "v")


def test_dp_has_one_threshold_evaluator():
    from stopgrad import dp

    assert not any(hasattr(dp, name) for name in ("_policy_fixed_point", "_policy_sweeps", "_waiting_nodes"))
    assert tuple(inspect.signature(dp._evaluate).parameters) == ("dyn", "theta", "horizon", "f")
