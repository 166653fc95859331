"""The stopping-problem instance: rewards, discounting, assumption audits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import TransitionKernel, _check_state, integrate_density

__all__ = [
    "ConstantReward",
    "LinearReward",
    "TabulatedReward",
    "StoppingModel",
    "AssumptionResult",
    "check_assumptions",
    "check_ifr",
]

# Largest |mass - 1| the A2 audit accepts for the density plus point masses.
_NORM_TOL = 1e-8

# Largest violation the A1 and A3-A5 audits accept.
_AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class TabulatedReward:
    """The one reward type: piecewise-linear interpolation of tabulated (health, reward) pairs,
    constant beyond the end knots.  Values must be finite and nonnegative; since the table
    interpolates linearly between them, the check is exact."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("tabulated reward needs at least two (x, y) pairs")
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("tabulated reward abscissae must be finite")
        if np.any(np.diff(self.xs) <= 0.0):
            raise ValueError("tabulated reward abscissae must be strictly increasing")
        if not all(0.0 <= y < np.inf for y in self.ys):
            raise ValueError("reward values must be finite and nonnegative")

    def __call__(self, h):
        out = np.interp(np.asarray(h, dtype=float), self.xs, self.ys)
        return float(out) if np.ndim(h) == 0 else out


def ConstantReward(value: float) -> TabulatedReward:
    """The table that equals `value` everywhere."""
    return TabulatedReward((0.0, 1.0), (value, value))


def LinearReward(at_zero: float, at_H: float, H: float = 1.0) -> TabulatedReward:
    """The table that is linear in the health state: at_zero at h=0, at_H at h=H."""
    return TabulatedReward((0.0, H), (at_zero, at_H))


@dataclass(frozen=True)
class StoppingModel:
    """Immutable MDP instance: bounds, discount, reward tables, and the waiting kernel.

    Both rewards must be `TabulatedReward`s; anything else raises TypeError.
    `H_D` is the death threshold: states in [H_D, H] are absorbing with zero reward
    for either action.  With H_D == H the death region degenerates to the single
    absorbing endpoint.  The discount may equal 1 for finite-horizon simulation;
    the infinite-horizon solvers in `dp` require it to be below 1.
    """

    kernel: TransitionKernel
    reward_wait: TabulatedReward
    reward_transplant: TabulatedReward
    H_D: float = 1.0
    discount: float = 0.97

    def __post_init__(self):
        if not (0.0 < self.H_D <= self.H):
            raise ValueError("H_D must lie in (0, H]")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")
        if not (isinstance(self.reward_wait, TabulatedReward) and isinstance(self.reward_transplant, TabulatedReward)):
            raise TypeError("rewards must be TabulatedReward tables")

    @property
    def H(self) -> float:
        """Upper end of the state space [0, H], the kernel's."""
        return self.kernel.H

    @property
    def value_bound(self) -> float:
        """Upper bound on any discounted value: the largest value of either reward table
        on [0, H] over (1 - discount), infinite at discount 1.  A table is linear between
        its knots and constant beyond them, so its sup on [0, H] is its largest value at
        the knots clipped to [0, H]."""
        g = max(float(np.max(t(np.clip(t.xs, 0.0, self.H)))) for t in (self.reward_wait, self.reward_transplant))
        return float("inf") if self.discount >= 1.0 else g / (1.0 - self.discount)

    def wait_reward(self, h):
        """One-period waiting reward, zero on the death region."""
        hv = _check_state(h, self.H, "health state")
        out = np.where(hv >= self.H_D, 0.0, self.reward_wait(hv))
        return float(out) if np.ndim(h) == 0 else out

    def transplant_reward(self, h):
        """Terminal transplant reward, zero on the death region."""
        hv = _check_state(h, self.H, "health state")
        out = np.where(hv >= self.H_D, 0.0, self.reward_transplant(hv))
        return float(out) if np.ndim(h) == 0 else out

    def truncation_bound(self, horizon: int) -> float:
        """Bound on the value mass discarded by truncating paths after `horizon` periods."""
        return self.discount ** (horizon + 1) * self.value_bound


@dataclass(frozen=True)
class AssumptionResult:
    name: str
    passed: bool
    vacuous: bool = False
    worst: float = 0.0
    witness: tuple | None = None
    note: str = ""


def _verdict(name: str, excess: np.ndarray, witness: Callable[..., tuple],
             note: Callable[..., str] = lambda *idx: "") -> AssumptionResult:
    """The audit rule: `excess` is positive where the condition fails, and the audit passes when
    no entry exceeds _AUDIT_TOL (an empty array passes).  `worst` is the largest entry, 0 when
    none is positive; a failing result carries `witness` and `note` of that entry's index."""
    worst = float(excess.max()) if excess.size else 0.0
    if worst <= _AUDIT_TOL:
        return AssumptionResult(name, True, worst=max(worst, 0.0))
    idx = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return AssumptionResult(name, False, worst=worst, witness=witness(*idx), note=note(*idx))


def _rising_verdict(name: str, g: np.ndarray, tails: np.ndarray) -> AssumptionResult:
    """Audit that every row of `tails` [x0, x] is nondecreasing along the grid x = g; a failing
    result carries the worst violating triple (x0, x1, x2)."""
    return _verdict(name, tails[:, :-1] - tails[:, 1:], lambda i, j: (float(g[i]), float(g[j]), float(g[j + 1])))


def _audit_grid(grid: Sequence[float]) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty 1-D sequence")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return g


def check_ifr(kernel: TransitionKernel, grid: Sequence[float]) -> AssumptionResult:
    """A3: check on a grid that x -> tail_mass(x0, x) is nondecreasing for every grid x0.

    Numerical audit, not a proof: monotonicity is tested pairwise on adjacent
    grid points.  A failing result carries the worst violating triple (x0, x1, x2).
    """
    g = _check_state(_audit_grid(grid), kernel.H, "grid")
    return _rising_verdict("A3", g, np.asarray(kernel.tail_mass(g[:, None], g[None, :])))


def check_assumptions(model: StoppingModel, grid: Sequence[float] | None = None) -> dict[str, AssumptionResult]:
    """Numerical audit of the structural conditions behind the threshold-optimality result.

    Returns the results keyed "A1" ... "A5", in that order.
    A failing entry does not block simulation or gradient estimation; it only
    means the sufficient conditions for an optimal control limit are unverified.
    The grid must lie in the living region [0, H_D).
    """
    if grid is None:
        grid = np.linspace(0.0, model.H_D, 102)[:-1]
    g = _audit_grid(grid)
    if not np.all((0.0 <= g) & (g < model.H_D)):
        raise ValueError("grid must lie in [0, H_D)")

    results = []

    # A1: both reward functions continuous and nonincreasing (nonincreasing audited).
    c, r = model.reward_wait(g), model.reward_transplant(g)
    results.append(_verdict("A1", np.diff(np.stack([c, r])), lambda k, i: (float(g[i]), float(g[i + 1])),
                            lambda k, i: f"{('wait', 'transplant')[k]} reward increases on the grid"))

    # A2: density exists, normalized, and bounded on the audited grid.
    worst_norm = 0.0
    for h in g[:: max(1, g.size // 25)]:
        mass = integrate_density(model.kernel, float(h), 0.0, model.H)
        mass += sum(w for _, w in model.kernel.point_masses(float(h)))
        worst_norm = max(worst_norm, abs(mass - 1.0))
    dens = np.asarray(model.kernel.density(g[None, :], g[:, None]))
    grid_bound = float(dens.max())
    a2_ok = worst_norm <= _NORM_TOL and bool(np.isfinite(grid_bound))
    results.append(AssumptionResult("A2", a2_ok, worst=worst_norm, note=f"grid density bound {grid_bound:.6g}"))

    # A3: increasing failure rate of the kernel.
    tails = np.asarray(model.kernel.tail_mass(g[:, None], g[None, :]))  # [h0, h]
    results.append(_rising_verdict("A3", g, tails))

    if model.H_D >= model.H:
        results += [AssumptionResult(name, True, vacuous=True, note="death interval empty") for name in ("A4", "A5")]
        return {r.name: r for r in results}
    tails_hd = np.asarray(model.kernel.tail_mass(model.H_D, g))

    # A4: mass placed below H_D but above any h0 is monotone in the current state.
    results.append(_rising_verdict("A4", g, tails - tails_hd[None, :]))

    # A5: relative transplant-reward drop is covered by the added death risk.
    i1, i2 = np.triu_indices(g.size, k=1)
    ok_pairs = r[i2] > 0.0
    lhs = np.where(ok_pairs, (r[i1] - r[i2]) / np.where(ok_pairs, r[i2], 1.0), -np.inf)
    rhs = model.discount * (tails_hd[i2] - tails_hd[i1])
    results.append(_verdict("A5", lhs - rhs, lambda k: (float(g[i1[k]]), float(g[i2[k]]))))
    return {r.name: r for r in results}
