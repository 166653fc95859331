from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stopgrad import ReplicationStreams, StoppingModel, build_model, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]


def replay(model: StoppingModel, theta: float, h0: float, horizon: int, u) -> tuple[list[float], float, int | None, bool]:
    """One path replayed from its draw row u, one draw per transition, written
    from the model's definition: (visited states, discounted reward, transplant
    period or None, died)."""
    states, v, disc = [float(h0)], 0.0, 1.0
    for k in range(horizon + 1):
        h = states[-1]
        if h >= model.H_D:
            return states, v, None, True
        if h >= theta:
            return states, v + disc * model.transplant_reward(h), k, False
        v += disc * model.wait_reward(h)
        if k < horizon:
            states.append(float(model.kernel.ppf(u[k], h)))
            disc *= model.discount
    return states, v, None, False


class FixedStreams:
    """Stands in for ReplicationStreams, serving fixed path draw rows, and auxiliary
    rows only when some are given: a request for absent rows fails the test."""

    def __init__(self, U, U_aux=None):
        self._rows = {ReplicationStreams.PATH: np.asarray(U, dtype=float)}
        if U_aux is not None:
            self._rows[ReplicationStreams.AUX] = np.asarray(U_aux, dtype=float)

    def uniform_rows(self, purpose, rep_lo, rep_hi, ncols):
        assert purpose in self._rows, f"unexpected draw request for purpose {purpose}"
        return self._rows[purpose][rep_lo:rep_hi, :ncols]


@pytest.fixture(scope="session")
def wsc_model() -> StoppingModel:
    return build_model(load_config("wsc-example"))


def run_cli(args, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "stopgrad", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
