"""Patient-health transition kernels: densities, tail masses, inverse CDFs, quadrature."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "TransitionKernel",
    "UniformDeteriorationKernel",
    "integrate_density",
]

# Composite-Simpson panel count used by the quadrature checks (2^10 panels).
DEFAULT_PANELS = 1024

# Relative inward nudge applied at piece endpoints so that quadrature picks up
# one-sided limits at declared density discontinuities.
_EDGE_NUDGE = 1e-12


class DomainError(ValueError):
    """A state argument lies outside the kernel's state space [0, H]."""


def _check_state(x, H: float, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if np.any(a < 0.0) or np.any(a > H) or np.any(np.isnan(a)):
        raise DomainError(f"{name} must lie in [0, {H}]")
    return a


def _scalar_like(out: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


class TransitionKernel(abc.ABC):
    """One-step Markov kernel for the waiting dynamics on the health interval [0, H].

    A kernel is a density part plus optional point masses at absorbing states
    (`point_masses`).  Sampling is inverse-CDF (`ppf`) with exactly one uniform
    draw per transition, which keeps common-random-number coupling exact and
    makes the draw count per path deterministic.

    Kernels are immutable after construction and safe to share across worker
    processes; all randomness enters through the uniforms passed to `ppf`.
    """

    H: float = 1.0

    @abc.abstractmethod
    def density(self, h_next, h_cur):
        """Density f(h_next | h_cur) of the next health state."""

    @abc.abstractmethod
    def tail_mass(self, a, h_cur):
        """P(h_next >= a | h_cur), point masses included."""

    @abc.abstractmethod
    def ppf(self, u, h_cur):
        """Inverse CDF: the state reached from h_cur when the uniform draw is u."""

    def density_discontinuities(self, h_cur: float) -> tuple[float, ...]:
        """Jump locations of h' -> density(h' | h_cur), used to split quadrature panels.

        `dp.GridDynamics` requires every jump of a living row to fall on a grid node.
        """
        return ()

    def point_masses(self, h_cur: float) -> tuple[tuple[float, float], ...]:
        """(location, mass) atoms of the transition law from h_cur."""
        return ()


@dataclass(frozen=True)
class UniformDeteriorationKernel(TransitionKernel):
    """Next health state is Uniform[h, 1]; health never improves.

    The endpoint h = 1 carries no density (the law from 1 is a point mass at 1),
    so density/tail_mass treat it as an absorbing atom.
    """

    def density(self, h_next, h_cur):
        hn = _check_state(h_next, self.H, "h_next")
        hc = _check_state(h_cur, self.H, "h_cur")
        with np.errstate(divide="ignore"):
            val = np.where(hc < 1.0, 1.0 / (1.0 - np.where(hc < 1.0, hc, 0.0)), 0.0)
        out = np.where((hc < 1.0) & (hn >= hc) & (hn <= 1.0), val, 0.0)
        return _scalar_like(out, hn, hc)

    def tail_mass(self, a, h_cur):
        aa = _check_state(a, self.H, "a")
        hc = _check_state(h_cur, self.H, "h_cur")
        safe = np.where(hc < 1.0, hc, 0.0)
        frac = (1.0 - np.maximum(aa, safe)) / (1.0 - safe)
        out = np.where(hc < 1.0, np.clip(frac, 0.0, 1.0), 1.0)
        return _scalar_like(out, aa, hc)

    def ppf(self, u, h_cur):
        uu = np.asarray(u, dtype=float)
        hc = _check_state(h_cur, self.H, "h_cur")
        out = hc + (1.0 - hc) * uu
        return _scalar_like(out, uu, hc)

    def density_discontinuities(self, h_cur: float) -> tuple[float, ...]:
        return (float(h_cur),) if h_cur < 1.0 else ()

    def point_masses(self, h_cur: float) -> tuple[tuple[float, float], ...]:
        return (((1.0, 1.0),) if h_cur >= 1.0 else ())


def _simpson(fn, a: float, b: float, panels: int) -> float:
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(fn(x), dtype=float)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def integrate_density(
    kernel: TransitionKernel,
    h_cur: float,
    a: float = 0.0,
    b: float | None = None,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Quadrature of the density part of kernel(. | h_cur) over [a, b], times
    `weight(h_next)` when a vectorized weight is given.

    The interval is split at the kernel's declared discontinuities and each
    smooth piece is integrated by composite Simpson with endpoints nudged
    inward, so one-sided limits are used at the jumps, of the density and of
    the weight alike.  The weight must be smooth between those jumps and the
    ends.  Point masses are not included.
    """
    if b is None:
        b = kernel.H
    if b <= a:
        return 0.0
    cuts = sorted({d for d in kernel.density_discontinuities(h_cur) if a < d < b})
    edges = [a, *cuts, b]
    total = 0.0
    for p, q in zip(edges[:-1], edges[1:]):
        pad = _EDGE_NUDGE * (q - p)
        total += _simpson(lambda x: kernel.density(x, h_cur) * (1.0 if weight is None else weight(x)),
                          p + pad, q - pad, DEFAULT_PANELS)
    return total
