"""Trajectory simulation under threshold policies.

Replications are driven by `ReplicationStreams`, which hands every replication
id its own reproducible uniform substream.  Batches of replications simulate
vectorized; results are reduced in fixed replication order, so estimates are
bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .kernel import DomainError
from .model import StoppingModel

__all__ = [
    "ReplicationStreams",
    "PathBatch",
    "sample_paths",
]

# Replications per block: each block's draws come from one child generator.
_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class ReplicationStreams:
    """Reproducible per-replication uniform streams.

    Replication ids are grouped into fixed-size blocks; each (domain, purpose,
    block) triple seeds an independent child generator whose row-major uniform
    matrix assigns one row per replication.  (seed, domain, purpose, rep)
    therefore fully determines a replication's draws, independent of worker
    count or scheduling.  `domain` separates larger experiment phases (e.g.
    optimizer iterations) that must not share randomness.
    """

    seed: int
    domain: int = 0

    PATH = 0  # nominal path draws
    AUX = 1   # auxiliary continuation draws
    ALT = 2   # secondary path draws (uncoupled finite differences)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def child(self, domain: int) -> "ReplicationStreams":
        return ReplicationStreams(self.seed, domain)

    def _block_generator(self, purpose: int, block: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.domain, purpose, block))
        return np.random.Generator(np.random.PCG64(ss))

    def uniform_rows(self, purpose: int, rep_lo: int, rep_hi: int, ncols: int) -> np.ndarray:
        """Uniform draw matrix for replications [rep_lo, rep_hi); row i serves rep_lo + i.

        The range must be one of `block_ranges`: it starts a block and stays
        inside it.  Row r of a block is draws [r*ncols, (r+1)*ncols) of the
        block generator, so a short final block reproduces the first rows of a
        full one.
        """
        if not (0 <= purpose < 16):
            raise ValueError("purpose must lie in [0, 16)")
        if rep_lo < 0 or rep_hi < rep_lo or ncols < 0:
            raise ValueError("invalid replication range")
        if rep_lo % _BLOCK_ROWS or rep_hi - rep_lo > _BLOCK_ROWS:
            raise ValueError("the replication range must be one of block_ranges(reps)")
        return self._block_generator(purpose, rep_lo // _BLOCK_ROWS).random((rep_hi - rep_lo, ncols))


@dataclass
class PathBatch:
    """Vectorized per-replication path summaries.

    Periods count from each row's own start.  `stop_index` is the transplant
    period (-1 when none).  `cross_index` is the first period whose state is
    >= theta, also when that state is dead (-1 when none); `disc_at_stop` is
    the discount at that period and `h_prev` the state just before it.
    """

    value: np.ndarray
    stop_index: np.ndarray
    cross_index: np.ndarray
    died: np.ndarray
    h_prev: np.ndarray
    disc_at_stop: np.ndarray


def _check_sim_args(model: StoppingModel, theta: float, h0: float, horizon: int) -> None:
    if not (0.0 <= theta <= model.H):
        raise DomainError("theta must lie in [0, H]")
    if not (0.0 <= h0 < model.H):
        raise DomainError("h0 must lie in [0, H)")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")


def _paths_from_uniforms(model: StoppingModel, theta: float, h0, horizon, U: np.ndarray) -> PathBatch:
    """Simulate one path per row of U under the threshold policy.

    Row i starts in state h0[i] and runs through its period horizon[i]; a
    scalar argument is shared by every row, and a row with a negative horizon
    takes no period.  A state >= theta is a crossing: the path ends with the
    terminal reward (the tie h == theta transplants, which the crossing-event
    estimator relies on), which is 0 when that state is dead.  A dead state
    below theta ends the path with nothing; every other state accrues the
    waiting reward.  Row i consumes U[i, k] for its k-th transition.  Rows
    advance in lockstep, so period k carries the one discount lambda^k.
    """
    rows = U.shape[0]
    h = np.full(rows, h0, dtype=float)
    last = np.broadcast_to(horizon, (rows,))
    value = np.zeros(rows)
    h_prev = np.full(rows, np.nan)
    cross_index = np.full(rows, -1, dtype=np.int64)
    disc_at_stop = np.zeros(rows)
    active = np.flatnonzero(last >= 0)
    disc = 1.0
    k = 0
    while active.size:
        hk = h[active]
        # np.compress selects by mask several times faster than boolean indexing.
        ic = np.compress(hk >= theta, active)
        if ic.size:
            value[ic] += disc * model.transplant_reward(h[ic])
            cross_index[ic] = k
            disc_at_stop[ic] = disc
        stay = np.compress(hk < min(theta, model.H_D), active)
        if stay.size:
            value[stay] += disc * model.wait_reward(h[stay])
        active = np.compress(last[stay] > k, stay)
        if active.size:
            h_prev[active] = h[active]
            h[active] = model.kernel.ppf(U[active, k], h[active])
        disc *= model.discount
        k += 1
    # A row ends in its last state: it died iff that state is dead, and then transplants nothing.
    died = (h >= model.H_D) & (last >= 0)
    stop_index = np.where(died, -1, cross_index)
    return PathBatch(value, stop_index, cross_index, died, h_prev, disc_at_stop)


def block_ranges(reps: int) -> list[tuple[int, int]]:
    return [(lo, min(reps, lo + _BLOCK_ROWS)) for lo in range(0, reps, _BLOCK_ROWS)]


def map_blocks(fn: Callable, ranges: Sequence[tuple[int, int]], workers: int = 1) -> list:
    """Apply fn(lo, hi) over block ranges, in order; at most one process per block and per core."""
    workers = min(workers, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*ranges)))


def _path_block(model: StoppingModel, theta: float, h0: float, horizon: int,
                streams: ReplicationStreams, lo: int, hi: int) -> PathBatch:
    U = streams.uniform_rows(ReplicationStreams.PATH, lo, hi, horizon)
    return _paths_from_uniforms(model, theta, h0, horizon, U)


def sample_paths(
    model: StoppingModel,
    theta: float,
    h0: float,
    horizon: int,
    reps: int,
    streams: ReplicationStreams,
    workers: int = 1,
) -> PathBatch:
    """Simulate `reps` independent replications; results ordered by replication id."""
    _check_sim_args(model, theta, h0, horizon)
    if reps < 1:
        raise ValueError("reps must be positive")
    fn = partial(_path_block, model, theta, h0, horizon, streams)
    parts = map_blocks(fn, block_ranges(reps), workers)
    return PathBatch(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(PathBatch)))

