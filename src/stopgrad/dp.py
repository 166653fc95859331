"""Discretized dynamic programming: value iteration, policy values, and the
oracle for the threshold derivative."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernel import DomainError
from .model import StoppingModel

__all__ = [
    "ConvergenceError",
    "GridValueFunction",
    "ControlLimitResult",
    "make_grid",
    "GridDynamics",
    "value_iterate",
    "extract_control_limit",
    "policy_value",
    "policy_value_sweep",
    "oracle_derivative",
]

DEFAULT_NODES = 1025   # 2^10 + 1

_EDGE_NUDGE = 1e-9

# Slack by which transplanting may trail waiting and still count as optimal.
_CONTROL_TOL = 1e-8

# Cells whose density points are evaluated in one kernel call while building
# the weights; keeps the temporaries to a few MB on fine grids.
_BLOCK_CELLS = 16


class ConvergenceError(RuntimeError):
    """A fixed-point solve failed to reach its tolerance within the iteration budget."""


def make_grid(model: StoppingModel, num_nodes: int = DEFAULT_NODES, extra: Sequence[float] = ()) -> np.ndarray:
    """Uniform node grid on [0, H] with H_D and any extra points inserted exactly."""
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    pts = np.concatenate([np.linspace(0.0, model.H, num_nodes), [model.H_D], np.asarray(extra, dtype=float)])
    if np.any(pts < 0.0) or np.any(pts > model.H):
        raise DomainError("grid points must lie in [0, H]")
    return np.unique(pts)


class GridDynamics:
    """Quadrature weights of the waiting-transition operator on a node grid.

    Row i integrates f(.|x_i) against piecewise-linear functions over the living
    region [0, H_D], with one-sided evaluation at declared density jumps, plus
    any point masses, which enter as linear-interpolation weights on the two
    nodes of their cell.  Every declared jump inside the living region must be
    a grid node; the constructor raises ValueError otherwise.  A value function
    that jumps at a point t is carried by two adjacent nodes, one holding the
    left limit just below t and the node t itself holding the right limit, so
    a point mass exactly on t reads the right limit.
    """

    def __init__(self, model: StoppingModel, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be a strictly increasing 1-D grid")
        if nodes[0] != 0.0 or nodes[-1] != model.H:
            raise ValueError("grid must span [0, H]")
        if model.H_D not in nodes:
            raise ValueError("grid must contain the death threshold H_D")
        self.model = model
        self.nodes = nodes
        n = nodes.size
        self.alive = nodes <= model.H_D
        self._n_cells = int(np.searchsorted(nodes, model.H_D))  # cells [x_j, x_{j+1}] with x_{j+1} <= H_D
        # The cell weights sample the density at each cell's nudged ends and its
        # midpoint, which is exact only where the density is smooth inside the cell.
        on_grid = set(nodes.tolist())
        for h in nodes[self.alive].tolist():
            off = [d for d in model.kernel.density_discontinuities(h) if 0.0 < d < model.H_D and d not in on_grid]
            if off:
                raise ValueError(f"the density from state {h!r} jumps at {off[0]!r}, inside a living grid cell; "
                                 "every density jump must fall on a grid node")
        self.W = np.zeros((n, n))
        living = self._n_cells + 1  # the living rows are the prefix x <= H_D
        for j0 in range(0, self._n_cells, _BLOCK_CELLS):
            j1 = min(j0 + _BLOCK_CELLS, self._n_cells)
            wl, wr = self._cell_weights(j0, j1)
            self.W[:living, j0:j1] += wl
            self.W[:living, j0 + 1 : j1 + 1] += wr
        # A point mass at loc in (x_j, x_{j+1}], or at x_0 for j = 0, weighs on the
        # two ends of cell j by linear interpolation.
        atoms = [(i, loc, mass) for i in range(living)
                 for loc, mass in model.kernel.point_masses(float(nodes[i])) if loc <= model.H_D]
        rows, locs, masses = np.array(atoms, dtype=float).reshape(-1, 3).T
        rows = rows.astype(np.intp)
        cells = np.maximum(np.searchsorted(nodes, locs) - 1, 0)
        lo, hi = nodes[cells], nodes[cells + 1]
        t = (locs - lo) / (hi - lo)
        np.add.at(self.W, (rows, cells), masses * (1.0 - t))
        np.add.at(self.W, (rows, cells + 1), masses * t)

    def _cell_weights(self, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights of cells [x_j, x_{j+1}], j0 <= j < j1, onto their two endpoint
        values: arrays of shape (living rows, cells)."""
        x = self.nodes
        p, q = x[j0:j1], x[j0 + 1 : j1 + 1]
        dx = q - p
        pts = np.stack([p + _EDGE_NUDGE * dx, 0.5 * (p + q), q - _EDGE_NUDGE * dx], axis=1)
        living = x[: self._n_cells + 1]
        f = np.asarray(self.model.kernel.density(pts.reshape(1, -1), living[:, None]))
        f = f.reshape(living.size, j1 - j0, 3)
        wl = dx / 6.0 * (f[:, :, 0] + 2.0 * f[:, :, 1])
        wr = dx / 6.0 * (2.0 * f[:, :, 1] + f[:, :, 2])
        return wl, wr

    def continuation(self, v: np.ndarray) -> np.ndarray:
        """E[v(h') | h = x_i] for every node, integrating over the living region."""
        return self.W @ v


@dataclass
class GridValueFunction:
    """Value function on a node grid.

    Values at nodes strictly beyond H_D are zero (death region).  The node at
    H_D itself stores the living-side limit, which is what the quadrature needs;
    for reward functions that vanish continuously at the death boundary this
    limit is itself zero.
    """

    nodes: np.ndarray
    values: np.ndarray
    iterations: int = 0
    residual: float = float("inf")
    converged: bool = False
    residual_history: tuple[float, ...] = field(default_factory=tuple, repr=False)
    dynamics: GridDynamics | None = field(default=None, repr=False, compare=False)

    def value_at(self, h):
        out = np.interp(np.asarray(h, dtype=float), self.nodes, self.values)
        return float(out) if np.ndim(h) == 0 else out


@dataclass(frozen=True)
class ControlLimitResult:
    theta: float
    structure_ok: bool
    violations: tuple[float, ...] = ()


def _raw_rewards(model: StoppingModel, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return model.reward_wait(nodes), model.reward_transplant(nodes)


def value_iterate(
    model: StoppingModel,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    num_nodes: int = DEFAULT_NODES,
) -> GridValueFunction:
    """Iterate backups from V0 = 0 until the sup-norm change drops below tol.

    The iterate sequence is checked to be pointwise nondecreasing; the result
    carries a non-convergence flag if the budget runs out first.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if model.discount >= 1.0:
        raise ValueError("infinite-horizon value iteration requires discount < 1")
    grid = make_grid(model, num_nodes)
    dyn = GridDynamics(model, grid)
    c, r = _raw_rewards(model, grid)
    lam = model.discount
    V = np.zeros(grid.size)
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Vn = np.where(dyn.alive, np.maximum(r, c + lam * dyn.continuation(V)), 0.0)
        drop = float((V - Vn).max())
        if drop > 1e-9:
            raise RuntimeError(f"value iteration lost monotonicity (drop {drop:.3e})")
        residual = float(np.abs(Vn - V).max())
        history.append(residual)
        V = Vn
        if residual < tol:
            converged = True
            break
    residual = history[-1] if history else float("inf")
    return GridValueFunction(grid, V, it, residual, converged, tuple(history), dyn)


def extract_control_limit(model: StoppingModel, V: GridValueFunction) -> ControlLimitResult:
    """Smallest grid node where transplanting is optimal under V, with a check
    that the transplant-optimal node set is an up-set of the grid.  V must come
    from `value_iterate` on the same model, whose dynamics it reuses."""
    dyn = V.dynamics
    if dyn is None or dyn.model != model:
        raise ValueError("V was not solved by value_iterate for this model")
    c, r = _raw_rewards(model, V.nodes)
    cont = dyn.continuation(V.values)
    opt_t = (r >= c + model.discount * cont - _CONTROL_TOL) & dyn.alive
    alive_idx = np.nonzero(dyn.alive)[0]
    flags = opt_t[alive_idx]
    if not flags.any():
        return ControlLimitResult(float(model.H), True)
    first = int(np.argmax(flags))
    theta_star = float(V.nodes[alive_idx[first]])
    holes = alive_idx[first:][~flags[first:]]
    return ControlLimitResult(theta_star, holes.size == 0, tuple(float(V.nodes[k]) for k in holes[:10]))


def _waiting_nodes(dyn: GridDynamics, theta: float) -> int:
    """Number of waiting nodes, which are a prefix of the grid.

    Nodes below theta wait and the rest of the living region takes the
    transplant value; a theta at or beyond H_D waits on the whole living
    region, including the H_D node's living-side limit.
    """
    return int(np.count_nonzero(dyn.alive & ((dyn.nodes < theta) | (theta >= dyn.model.H_D))))


def _policy_fixed_point(dyn: GridDynamics, theta: float, src: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Solve v = where(wait, src + discount * continuation(v), base) on the grid
    by one linear solve over the waiting nodes (`_waiting_nodes`).

    Policy values take src = c and base = r (0 beyond H_D); the threshold
    sensitivity takes the crossing source and base = 0.  Columns of (nodes, k)
    src and base share one factorization.
    """
    lam = dyn.model.discount
    m = _waiting_nodes(dyn, theta)
    A = -lam * dyn.W[:m, :m]  # I - discount * W over the waiting block, with no full-grid temporary
    A.flat[:: m + 1] += 1.0
    return np.concatenate([np.linalg.solve(A, src[:m] + lam * (dyn.W[:m, m:] @ base[m:])), base[m:]])


def _policy_sweeps(dyn: GridDynamics, theta: float, src: np.ndarray, base: np.ndarray, horizon: int) -> np.ndarray:
    """Backward induction: from v = where(wait, src, base), apply `horizon` sweeps of
    v = where(wait, src + discount * continuation(v), base), the finite-horizon
    counterpart of `_policy_fixed_point` for paths that run periods 0 ... horizon."""
    lam = dyn.model.discount
    m = _waiting_nodes(dyn, theta)
    v = np.concatenate([src[:m], base[m:]])
    for _ in range(horizon):
        v[:m] = src[:m] + lam * (dyn.W[:m] @ v)
    return v


def _check_policy_args(model: StoppingModel, thetas: Sequence[float], h0: float, horizon: int | None) -> None:
    if not all(0.0 <= t <= model.H for t in thetas) or not (0.0 <= h0 <= model.H):
        raise DomainError("theta and h0 must lie in [0, H]")
    if horizon is None:
        if model.discount >= 1.0:
            raise ValueError("infinite-horizon policy evaluation requires discount < 1")
    elif horizon < 0:
        raise ValueError("horizon must be nonnegative")


def policy_value(
    model: StoppingModel,
    theta: float,
    h0: float,
    num_nodes: int = DEFAULT_NODES,
) -> float:
    """Expected discounted reward of the threshold policy from h0, solved on a grid.

    The threshold is inserted as a grid node so the wait/transplant boundary is
    honored exactly.

    Known limit: within about 1e-3 of H the value reads low, because the chance
    of crossing from the last cell below theta changes on a scale of H - theta,
    far below the node spacing, which linear interpolation misreads.  On
    wsc-example from h0 = 0 it gives 4.285 against the exact 5.985 at
    theta = 1 - 1e-6.
    """
    return policy_value_sweep(model, (theta,), h0, num_nodes)[0]


def policy_value_sweep(
    model: StoppingModel,
    thetas: Sequence[float],
    h0: float,
    num_nodes: int = DEFAULT_NODES,
    horizon: int | None = None,
) -> list[float]:
    """Policy values over a list of thresholds on one shared grid.

    Each threshold t is a grid node holding the transplant value; for
    0 < t < H_D the node just below t (np.nextafter(t, 0)) is inserted too and
    holds the waiting value, so the jump at t is exact and a point mass on t
    transplants.  With `horizon` None the value is the infinite-horizon one;
    a finite horizon N values paths that run periods 0 ... N, as the simulator
    does, by N backward-induction sweeps, and then the discount may be 1.
    """
    ths = [float(t) for t in thetas]
    _check_policy_args(model, ths, h0, horizon)
    below = [np.nextafter(t, 0.0) for t in ths if 0.0 < t < model.H_D]
    dyn = GridDynamics(model, make_grid(model, num_nodes, extra=ths + below))
    c, r = _raw_rewards(model, dyn.nodes)
    base = np.where(dyn.alive, r, 0.0)
    out: list[float] = []
    for t in ths:
        v = _policy_fixed_point(dyn, t, c, base) if horizon is None else _policy_sweeps(dyn, t, c, base, horizon)
        if h0 >= model.H_D:
            out.append(0.0)
        elif h0 >= t:
            out.append(float(model.transplant_reward(h0)))
        else:
            out.append(float(np.interp(h0, dyn.nodes, v)))
    return out


def oracle_derivative(
    model: StoppingModel,
    theta: float,
    h0: float,
    num_nodes: int = DEFAULT_NODES,
    horizon: int | None = None,
) -> float:
    """Derivative of the policy value in the threshold, by differentiating the
    policy fixed point (Cao's performance-derivative form).

    For states below theta, V' = s solves s = src + discount * E[s(h') 1{h' < theta}]
    with src(x) = discount * f(theta | x) * (v(theta-) - r(theta)): the
    discounted density of crossing exactly at theta times the jump of the policy
    value there.  One grid holds theta and the node just below it, which
    carries v(theta-).  s = (v(theta-) - r(theta)) * u, where u solves the same
    system with source discount * f(theta | x): the policy values and u are one
    solve with two right-hand sides.  A finite `horizon` N differentiates the
    N backward-induction sweeps of `policy_value_sweep` instead: the tangent
    s_n = src_n + discount * E[s_{n-1}(h') 1{h' < theta}], s_0 = 0, takes its
    jump from the previous sweep's waiting value at theta-.  Returns 0 for
    theta <= h0 or theta >= H_D,
    where the value does not depend on theta.  Raises DomainError when a waiting
    node has a point mass exactly on theta (the value jumps in theta) or a
    density jump there (the value has a kink in theta).

    Known limit: within about 1e-3 of H the policy values read low (see
    `policy_value`), and so does the jump at theta.
    """
    theta = float(theta)
    _check_policy_args(model, (theta,), h0, horizon)
    if theta <= h0 or theta >= model.H_D:
        return 0.0
    dyn = GridDynamics(model, make_grid(model, num_nodes, extra=(theta, np.nextafter(theta, 0.0))))
    x = dyn.nodes
    for h in x[x < theta].tolist():
        if theta in model.kernel.density_discontinuities(h) or any(
                loc == theta and mass > 0.0 for loc, mass in model.kernel.point_masses(h)):
            raise DomainError(f"the waiting state {h!r} has a point mass or a density jump exactly on theta "
                              f"{theta!r}, where the policy value has no derivative in theta")
    c, r = _raw_rewards(model, x)
    f = model.discount * np.asarray(model.kernel.density(theta, x), dtype=float)
    k = int(np.searchsorted(x, theta))  # the theta node, and the count of waiting nodes; k - 1 holds the waiting limit
    base = np.where(dyn.alive, r, 0.0)
    if horizon is None:
        v, u = _policy_fixed_point(dyn, theta, np.stack([c, f], axis=1), np.stack([base, np.zeros(x.size)], axis=1)).T
        return float((v[k - 1] - r[k]) * np.interp(h0, x, u))
    # Backward induction over the waiting block with its tangent; s_n reads v_{n-1}(theta-).
    lam, W = model.discount, dyn.W[:k, :k]
    src = c[:k] + lam * (dyn.W[:k, k:] @ base[k:])
    v, s = c[:k], np.zeros(k)
    for _ in range(horizon):
        v, s = src + lam * (W @ v), f[:k] * (v[k - 1] - r[k]) + lam * (W @ s)
    return float(np.interp(h0, x[:k], s))
