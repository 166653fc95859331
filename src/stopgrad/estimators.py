"""Derivative estimators for the policy value with respect to the control limit.

Three routes to d V(theta) / d theta:

* crossing-event estimator (`spa_*`): conditions on the period M where the path
  first reaches the threshold, weights by the hazard of landing exactly at
  theta, and multiplies the bracket
      lambda^M (c(theta) - r(theta)) + E[continuation from theta].
  The continuation waits at theta and moves once, to h' ~ K(.|theta).  Its
  expectation is conditioned on that step (conditional Monte Carlo):
      lambda^(M+1) [A(theta) + p_below W],
  where A(theta) = E[r(h') 1{theta <= h' < H_D}] is one quadrature per call,
  p_below = P(h' < theta), and W averages `aux_reps` auxiliary subpaths, each
  started below theta by inverse CDF and run under the policy to the horizon.
  A crossing in the last period has no continuation.  For kernels that never
  move below the current state p_below is 0: no auxiliary draw is made, the
  bracket is one number per M, and `aux_reps` changes nothing.  Note the
  bracket's sign: some write-ups state the negated form (r - c) - E[tail]; the
  form used here is the one that matches the derivative of the simulated
  value, which the test suite pins against the dynamic-programming oracle.
* symmetric finite differences (`fd_estimate`), optionally with common random
  numbers across the two evaluation points;
* the pathwise estimator (`ipa_estimate`), identically zero here because a
  threshold perturbation almost surely changes no stage reward; kept as the
  documented degenerate baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .kernel import DomainError, integrate_density
from .model import StoppingModel
from .sim import ReplicationStreams, _check_sim_args, _paths_from_uniforms, block_ranges, map_blocks

__all__ = [
    "DegenerateHazardError",
    "GradEstimate",
    "spa_estimate",
    "fd_estimate",
    "ipa_estimate",
]


class DegenerateHazardError(RuntimeError):
    """The crossing hazard is undefined: zero tail mass above the threshold."""


@dataclass(frozen=True, eq=False)
class GradEstimate:
    """Per-replication derivative estimates with their summary statistics."""

    method: str
    theta: float
    values: np.ndarray = field(repr=False)
    mean: float
    se: float
    reps: int

    @classmethod
    def from_values(cls, method: str, theta: float, values: np.ndarray) -> "GradEstimate":
        values = np.asarray(values, dtype=float)
        return cls(method, float(theta), values, *_mean_se(values), values.size)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (nan for a single value).  Raises
    ValueError when the mean, or the se of more than one value, is not finite,
    as when the values or their squares overflow float64."""
    reps = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        se = float(values.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("nan")
    if not np.isfinite(mean) or (reps > 1 and not np.isfinite(se)):
        raise ValueError(f"the estimate is not finite in float64 (mean {mean:.4g}, se {se:.4g}); "
                         "rescale the rewards")
    return mean, se


def _hazard(model: StoppingModel, theta: float, h_prev: np.ndarray) -> np.ndarray:
    dens = np.asarray(model.kernel.density(theta, h_prev), dtype=float)
    tail = np.asarray(model.kernel.tail_mass(theta, h_prev), dtype=float)
    if np.any(tail <= 0.0):
        raise DegenerateHazardError(
            "tail mass above theta vanished at a crossing state; "
            "this cannot happen on a path whose stopping event fired"
        )
    return dens / tail


def _first_step(model: StoppingModel, theta: float) -> tuple[float, float]:
    """(A, p_below) of the step h' ~ K(.|theta) that a continuation takes from theta:
    A = E[r(h') 1{theta <= h' < H_D}], the transplant reward of stopping at once,
    and p_below = P(h' < theta).

    A integrates the density against r piece by piece between the knots of the
    reward table, whose inward edge nudges read r's living-side limit at H_D
    (r(H_D) itself is 0), and adds the point masses in [theta, H_D).
    """
    kernel = model.kernel
    stop = 0.0
    if theta < model.H_D:
        edges = [theta, *(x for x in model.reward_transplant.xs if theta < x < model.H_D), model.H_D]
        stop = sum(integrate_density(kernel, theta, p, q, weight=model.transplant_reward)
                   for p, q in zip(edges[:-1], edges[1:]))
    stop += sum(mass * model.transplant_reward(loc) for loc, mass in kernel.point_masses(theta) if loc >= theta)
    return float(stop), 1.0 - float(kernel.tail_mass(theta, theta))


def _spa_block(
    model: StoppingModel,
    theta: float,
    h0: float,
    horizon: int,
    aux_reps: int,
    streams: ReplicationStreams,
    stop: float,
    p_below: float,
    lo: int,
    hi: int,
) -> np.ndarray:
    U = streams.uniform_rows(ReplicationStreams.PATH, lo, hi, horizon)
    batch = _paths_from_uniforms(model, theta, h0, horizon, U)
    out = np.zeros(hi - lo)
    # The hazard conditions on h_M >= theta, dead or alive, so every row that
    # crossed at M >= 1 contributes, also one whose crossing state is dead.
    crossed = batch.cross_index >= 1
    if not crossed.any():
        return out
    idx = np.flatnonzero(crossed)
    # The continuation from theta, valued at period M + 1 from discount 1; a
    # crossing in the last period has none.
    cont = np.where(batch.cross_index[idx] < horizon, stop, 0.0)
    if p_below > 0.0:
        U_aux = streams.uniform_rows(ReplicationStreams.AUX, lo, hi, aux_reps * horizon)
        # Subpath j starts below theta at ppf(p_below * U_aux[:, j * horizon]) and
        # follows the policy on the next horizon - 1 columns through the horizon.
        # Every row of the block is passed, the others with no period to run, so
        # that the draw columns go in as views rather than copies.
        remaining = np.where(crossed, horizon - batch.cross_index - 1, -1)
        below = np.zeros(hi - lo)
        for j in range(aux_reps):
            col = j * horizon
            h1 = model.kernel.ppf(p_below * U_aux[:, col], theta)
            below += _paths_from_uniforms(model, theta, h1, remaining, U_aux[:, col + 1 : col + horizon]).value
        cont += p_below / aux_reps * below[idx]
    hz = _hazard(model, theta, batch.h_prev[idx])
    jump = model.wait_reward(theta) - model.transplant_reward(theta)
    out[idx] = hz * batch.disc_at_stop[idx] * (jump + model.discount * cont)
    return out


def spa_estimate(
    model: StoppingModel,
    theta: float,
    h0: float,
    horizon: int,
    reps: int,
    aux_reps: int,
    streams: ReplicationStreams,
    workers: int = 1,
) -> GradEstimate:
    """Crossing-event derivative estimate over independent replication streams."""
    if not (0.0 < theta < model.H):
        raise DomainError("theta must lie strictly inside (0, H)")
    if aux_reps < 1:
        raise ValueError("aux_reps must be >= 1")
    _check_sim_args(model, theta, h0, horizon)
    if reps < 2:
        raise ValueError("gradient estimation needs reps >= 2")
    fn = partial(_spa_block, model, theta, h0, horizon, aux_reps, streams, *_first_step(model, theta))
    values = np.concatenate(map_blocks(fn, block_ranges(reps), workers))
    return GradEstimate.from_values("spa", theta, values)


def _fd_block(
    model: StoppingModel,
    theta: float,
    h0: float,
    horizon: int,
    delta: float,
    crn: bool,
    streams: ReplicationStreams,
    lo: int,
    hi: int,
) -> np.ndarray:
    U_plus = streams.uniform_rows(ReplicationStreams.PATH, lo, hi, horizon)
    U_minus = U_plus if crn else streams.uniform_rows(ReplicationStreams.ALT, lo, hi, horizon)
    v_plus = _paths_from_uniforms(model, theta + delta / 2.0, h0, horizon, U_plus).value
    v_minus = _paths_from_uniforms(model, theta - delta / 2.0, h0, horizon, U_minus).value
    return (v_plus - v_minus) / delta


def fd_estimate(
    model: StoppingModel,
    theta: float,
    h0: float,
    horizon: int,
    reps: int,
    delta: float,
    crn: bool = True,
    *,
    streams: ReplicationStreams,
    workers: int = 1,
) -> GradEstimate:
    """Symmetric finite difference (v(theta + delta/2) - v(theta - delta/2)) / delta.

    With `crn` both evaluation points replay the same uniform substream, which
    couples the paths until they first disagree about stopping.
    """
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    if theta - delta / 2.0 < 0.0 or theta + delta / 2.0 > model.H:
        raise DomainError("theta +/- delta/2 must stay inside [0, H]")
    _check_sim_args(model, theta, h0, horizon)
    if reps < 2:
        raise ValueError("gradient estimation needs reps >= 2")
    fn = partial(_fd_block, model, theta, h0, horizon, delta, crn, streams)
    values = np.concatenate(map_blocks(fn, block_ranges(reps), workers))
    return GradEstimate.from_values("fd", theta, values)


def ipa_estimate(model: StoppingModel, theta: float, reps: int) -> GradEstimate:
    """Pathwise derivative estimate: identically zero for this stopping problem.

    Holding the event sequence fixed, a threshold perturbation changes neither
    the visited states nor (almost surely) any stage reward, so the pathwise
    derivative is 0 with probability one, a biased estimate whenever the true
    derivative is not.
    """
    if not (0.0 <= theta <= model.H):
        raise DomainError("theta must lie in [0, H]")
    if reps < 1:
        raise ValueError("reps must be positive")
    # The estimate is constant by construction, so its standard error is zero
    # even for a single replication.
    return GradEstimate("ipa", float(theta), np.zeros(reps), 0.0, 0.0, reps)
