"""The benchmark's workloads: set-up, timed calls, and the checks on their outputs.

Every library call names its `workers` explicitly, because the shipped
config's `workers = 0` means "all cores".  Calls go through the module
attributes (`estimators.spa_estimate`, `dp.oracle_derivative`, `cli.main`, ...)
so that the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from stopgrad import cli, config, dp, estimators, sim
from tracing import cpu_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

# --- references --------------------------------------------------------------
# Closed forms for wsc-example (discount 0.97, h0 = 0, no interior death),
# restated from tests/oracles.py; from the repository root:
#   PYTHONPATH=tests python3 -c "import oracles as o; print(repr(o.derivative_exact(0.5, 0.97)), repr(o.value_exact(0.5, 0.97)), repr(o.derivative_exact(0.4, 0.97)))"
WSC_DERIV_050 = -2.9641175886170754
WSC_VALUE_050 = 2.732780566329987
WSC_DERIV_040 = -3.1395827337489117
# Waiting forever is optimal on wsc-example and is worth c / (1 - discount).
WSC_WAIT_FOREVER = 0.5 / (1.0 - 0.97)
# aux-death.ini (H_D = 0.6) at theta = 0.4, from the DP oracle at its default 4097 nodes:
#   PYTHONPATH=src python3 -c "import stopgrad as sg; m = sg.build_model(sg.load_config('perfbench/aux-death.ini')); print(repr(sg.oracle_derivative(m, theta=0.4, h0=0.0)))"
DEATH_DERIV_040 = -4.786856284771268

DP_TOL = 1e-5
HORIZON = 200
H0 = 0.0


def mc_tolerance(se: float, ref: float) -> float:
    """Acceptance criterion 1's tolerance for a Monte Carlo estimate."""
    return max(3.0 * se, 0.02 * abs(ref))


@dataclass
class Op:
    """One timed call together with its correctness check."""

    name: str
    seconds: float
    cpu_seconds: float
    ok: bool
    detail: str
    se: float | None = None
    artifact_bytes: int = 0


def timed_op(name: str, call: Callable, check: Callable) -> Op:
    """Time `call()` in wall and CPU seconds, then judge it with `check(result) -> (ok, detail, se, bytes)`.

    An exception from either counts as a failed operation.
    """
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        out = call()
        dt, dc = time.perf_counter() - t0, cpu_seconds() - c0
        ok, detail, se, nbytes = check(out)
    except Exception as exc:  # a failing operation is reported, not fatal
        return Op(name, time.perf_counter() - t0, cpu_seconds() - c0, False, f"{type(exc).__name__}: {exc}")
    return Op(name, dt, dc, ok, detail, se, nbytes)


def mc_check(ref: float) -> Callable:
    def check(est):
        tol = mc_tolerance(est.se, ref)
        err = abs(est.mean - ref)
        detail = f"mean {est.mean:+.6f} se {est.se:.3g} ref {ref:+.6f} |err| {err:.3g} tol {tol:.3g}"
        return err <= tol, detail, est.se, 0
    return check


def load_model(source: str):
    cfg = config.load_config(source)
    errors = config.validate_config(cfg)
    if errors:
        raise config.ConfigError(errors)
    return config.build_model(cfg)


@dataclass
class Context:
    model: object
    seed: int
    workers: int = 1
    out: Path | None = None
    env: dict = field(default_factory=dict)


def sub_seed(seed: int, i: int) -> int:
    """Seed of iteration i of a run: distinct per iteration, fixed by the run's seed."""
    return seed * 1000 + i


class EstimatorPair:
    """Library calls: `spa_estimate`, then a CRN `fd_estimate`, on one model."""

    pool_workers = 1

    def __init__(self, source: str, theta: float, ref: float,
                 spa_reps: int, aux_reps: int, fd_reps: int, delta: float = 0.01):
        self.source, self.theta, self.ref = source, theta, ref
        self.spa_reps, self.aux_reps, self.fd_reps, self.delta = spa_reps, aux_reps, fd_reps, delta

    def setup(self, seed: int) -> Context:
        ctx = Context(load_model(self.source), seed)
        for call in self._calls(ctx, sim.ReplicationStreams(seed, domain=1 << 20), 2000, 2000):
            call()  # warm-up
        return ctx

    def _calls(self, ctx: Context, streams, spa_reps: int, fd_reps: int):
        m, th = ctx.model, self.theta
        return (lambda: estimators.spa_estimate(m, th, H0, HORIZON, spa_reps, self.aux_reps, streams, workers=1),
                lambda: estimators.fd_estimate(m, th, H0, HORIZON, fd_reps, self.delta, crn=True,
                                               streams=streams, workers=1))

    def iterate(self, ctx: Context, i: int, in_process: bool = True) -> list[Op]:
        streams = sim.ReplicationStreams(sub_seed(ctx.seed, i))
        spa, fd = self._calls(ctx, streams, self.spa_reps, self.fd_reps)
        return [timed_op("spa", spa, mc_check(self.ref)), timed_op("fd", fd, mc_check(self.ref))]

    def close(self, ctx: Context) -> None:
        pass


class DpOracle:
    """DP only: the oracle derivative, then the `solve` path (value iteration and control limit).

    Both run on 1025-node grids.  A 4097-node oracle takes 17-20 s on a 2-core
    shared virtual machine, one sample per run, and its time moved by 15%
    between runs there; at 1025 nodes it is within 3e-7 of the closed form and
    a run holds several iterations.
    """

    pool_workers = 1
    theta = 0.5
    nodes = 1025

    def setup(self, seed: int) -> Context:
        ctx = Context(load_model("wsc-example"), seed)
        dp.oracle_derivative(ctx.model, self.theta, H0, num_nodes=65)  # warm-up
        return ctx

    def iterate(self, ctx: Context, i: int, in_process: bool = True) -> list[Op]:
        m = ctx.model

        def oracle_check(x):
            err = abs(x - WSC_DERIV_050)
            return err <= DP_TOL, f"oracle {x:+.10f} ref {WSC_DERIV_050:+.10f} |err| {err:.3g}", None, 0

        def solve():
            V = dp.value_iterate(m)
            return V, dp.extract_control_limit(m, V)

        def solve_check(out):
            V, limit = out
            err = abs(V.value_at(H0) - WSC_WAIT_FOREVER)
            ok = V.converged and limit.theta == 1.0 and limit.structure_ok and err <= DP_TOL
            return ok, f"theta* {limit.theta} converged {V.converged} |V(0) - c/(1-lambda)| {err:.3g}", None, 0

        return [timed_op("oracle_derivative",
                         lambda: dp.oracle_derivative(m, theta=self.theta, h0=H0, num_nodes=self.nodes),
                         oracle_check),
                timed_op("solve", solve, solve_check)]

    def close(self, ctx: Context) -> None:
        pass


def _summary(stdout: str, header: str) -> tuple[float, float]:
    """(mean, se) from the CSV-style summary line the CLI prints after `header`."""
    lines = stdout.splitlines()
    row = lines[lines.index(header) + 1].split(",")
    return float(row[-2]), float(row[-1])


def _column_mean(path: Path, header: str, col: int, rows: int) -> float:
    """Mean of one CSV column, read row by row so the check holds little memory."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != header.split(","):
            raise ValueError(f"{path.name}: unexpected header")
        n, total = 0, 0.0
        for row in reader:
            total += float(row[col])
            n += 1
    if n != rows:
        raise ValueError(f"{path.name}: {n} rows, expected {rows}")
    return total / n


class CliRuns:
    """The `stopgrad` CLI: `simulate`, then `gradient --method spa`, at 2.5 x 10^5 replications each."""

    reps = 250_000
    theta = 0.5
    pool_workers = 2

    def setup(self, seed: int) -> Context:
        load_model("wsc-example")  # the scenario the CLI runs must validate
        out = OUT / f"cli-{os.getpid()}"
        out.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        ctx = Context(None, seed, self.pool_workers, out, env)
        code, _ = self._run(ctx, self._argv(ctx, seed, "simulate", "--reps", "1000"), in_process=False)
        if code != 0:
            raise RuntimeError(f"CLI warm-up exited with {code}")
        return ctx

    def _argv(self, ctx: Context, seed: int, *cmd: str) -> list[str]:
        return ["--seed", str(seed), "--workers", str(ctx.workers), "--out", str(ctx.out), *cmd]

    def _run(self, ctx: Context, argv: list[str], in_process: bool) -> tuple[int, str]:
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "stopgrad", *argv], env=ctx.env,
                              capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout

    def _check(self, ctx: Context, artifact: str, csv_header: str, summary: str, col: int, ref: float):
        def check(result):
            code, stdout = result
            if code != 0:
                return False, f"exit code {code}", None, 0
            mean, se = _summary(stdout, summary)
            path = ctx.out / artifact
            csv_mean = _column_mean(path, csv_header, col, self.reps)
            tol = mc_tolerance(se, ref)
            err = abs(mean - ref)
            same = abs(csv_mean - mean) <= 1e-6 * max(1.0, abs(mean))
            detail = (f"mean {mean:+.6f} se {se:.3g} ref {ref:+.6f} |err| {err:.3g} tol {tol:.3g}"
                      f" csv-mean-matches {same}")
            return err <= tol and same, detail, se, path.stat().st_size
        return check

    def iterate(self, ctx: Context, i: int, in_process: bool = False) -> list[Op]:
        s = sub_seed(ctx.seed, i)
        simulate = self._argv(ctx, s, "simulate", "--reps", str(self.reps))
        gradient = self._argv(ctx, s, "gradient", "--method", "spa", "--theta", str(self.theta),
                              "--reps", str(self.reps))
        return [
            timed_op("cli simulate", lambda: self._run(ctx, simulate, in_process),
                     self._check(ctx, "simulate.csv", "rep,v_n,stop_index,died",
                                 "theta,h0,horizon,N,mean,se", 1, WSC_VALUE_050)),
            timed_op("cli gradient", lambda: self._run(ctx, gradient, in_process),
                     self._check(ctx, "gradient.csv", "rep,estimate", "method,theta,N,mean,se", 1,
                                 WSC_DERIV_050)),
        ]

    def close(self, ctx: Context) -> None:
        shutil.rmtree(ctx.out, ignore_errors=True)


WSC = "wsc-example"
DEATH_INI = str(HERE / "aux-death.ini")

# name -> (workload, why).  aux-death is runnable but is not a driver workload:
# its SPA check fails at the seed (the H_D < H bias), and the driver's
# workloads must be ones on which no operation fails.  aux-wsc runs the same
# calls on wsc-example, so the aux_reps x horizon path is still measured.
WORKLOADS = {
    "spa-wsc": (EstimatorPair(WSC, 0.5, WSC_DERIV_050, spa_reps=1_000_000, aux_reps=1, fd_reps=1_000_000),
                "headline SPA/FD pair at 10^6 reps: draw generation and the path kernel do the work"),
    "aux-wsc": (EstimatorPair(WSC, 0.4, WSC_DERIV_040, spa_reps=100_000, aux_reps=10, fd_reps=1_000_000),
                "SPA with 10 auxiliary continuations: the SPA tail and the dense AUX draw matrix dominate"),
    "aux-death": (EstimatorPair(DEATH_INI, 0.4, DEATH_DERIV_040, spa_reps=100_000, aux_reps=10,
                                fd_reps=1_000_000),
                  "aux-wsc's calls with H_D = 0.6; its SPA check fails at the seed (known H_D < H bias)"),
    "dp-oracle": (DpOracle(), "DP only, no RNG: GridDynamics build, policy fixed point and value iteration"),
    "cli-wsc": (CliRuns(), "CLI subprocesses at --workers 2: start-up, process pool and 15 MB of CSV per iteration"),
}
