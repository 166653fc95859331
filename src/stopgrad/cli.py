"""Command-line experiment runner: check / solve / simulate / gradient / sweep / optimize.

Every subcommand writes flat CSV artifacts into the output directory and a
human-readable summary to stdout.  Given the same config and seed, artifacts
are byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dp
from .config import ConfigError, ExperimentConfig, build_model, format_value, load_config, parse_method, validate_config
from .estimators import GradEstimate, _mean_se, fd_estimate, ipa_estimate, spa_estimate
from .model import StoppingModel, check_assumptions
from .sim import ReplicationStreams, sample_paths

__all__ = ["main", "optimize_theta", "run_sweep"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_PARTIAL = 4

# Optimizer iterations draw from their own stream domains so successive steps
# never reuse replication randomness.
_OPTIMIZER_DOMAIN_BASE = 1


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_value(v) for v in row])


def _resolve_theta(cfg: ExperimentConfig, model: StoppingModel) -> float:
    if cfg.policy.theta == "solve":
        V = dp.value_iterate(model)
        if not V.converged:
            raise dp.ConvergenceError(f"policy.theta = solve: value iteration did not converge in {V.iterations} "
                                      f"iterations (residual {V.residual:.3e})")
        res = dp.extract_control_limit(model, V)
        print(f"policy.theta = solve -> using control limit {res.theta:.6g} from value iteration")
        return res.theta
    return float(cfg.policy.theta)


def _gradient_once(cfg: ExperimentConfig, model: StoppingModel, method: str, delta: float | None, theta: float,
                   reps: int, streams: ReplicationStreams, workers: int) -> GradEstimate:
    h0, horizon, est = cfg.run.h0, cfg.run.horizon, cfg.estimator
    if method == "spa":
        return spa_estimate(model, theta, h0, horizon, reps, est.aux_reps, streams, workers)
    if method == "fd":
        return fd_estimate(model, theta, h0, horizon, reps, delta, est.crn, streams=streams, workers=workers)
    return ipa_estimate(model, theta, reps)


# Every subcommand runs as run_<cmd>(cfg, model, out, streams, workers, args) -> exit code.  Its
# settings come from the validated config; it reads from `args` only the flags that have no config field.

def run_check(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
              workers: int, args: argparse.Namespace) -> int:
    if args.grid_points < 1:
        raise ValueError("--grid-points must be at least 1")
    grid = np.linspace(0.0, model.H_D, args.grid_points + 1)[:-1]
    results = check_assumptions(model, grid).values()
    rows = [
        (r.name, r.passed, r.vacuous, r.worst,
         "" if r.witness is None else " ".join(format_value(w) for w in r.witness), r.note)
        for r in results
    ]
    _write_csv(out / "check.csv", ["assumption", "passed", "vacuous", "worst", "witness", "note"], rows)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        extra = " (vacuous)" if r.vacuous else ""
        note = f" - {r.note}" if r.note else ""
        print(f"{r.name}: {status}{extra}{note}")
    print(f"wrote {out / 'check.csv'}")
    return EXIT_OK


def run_solve(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
              workers: int, args: argparse.Namespace) -> int:
    V = dp.value_iterate(model, tol=args.tol, max_iter=args.max_iter, num_nodes=args.nodes)
    _write_csv(out / "value_function.csv", ["h", "value"], zip(V.nodes, V.values))
    limit = dp.extract_control_limit(model, V)
    print(f"value iteration: {V.iterations} iterations, residual {V.residual:.3e}, converged={V.converged}")
    print(f"control limit theta* = {limit.theta:.8g}")
    if not limit.structure_ok:
        print(f"warning: transplant-optimal set is not an up-set; violations near {limit.violations}")
    print(f"wrote {out / 'value_function.csv'}")
    return EXIT_OK if V.converged else EXIT_NONCONVERGENCE


def run_simulate(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
                 workers: int, args: argparse.Namespace) -> int:
    theta = _resolve_theta(cfg, model)
    run = cfg.run
    batch = sample_paths(model, theta, run.h0, run.horizon, run.reps, streams, workers)
    mean, se = _mean_se(batch.value)
    rows = (
        (i, batch.value[i], "" if batch.stop_index[i] < 0 else int(batch.stop_index[i]), bool(batch.died[i]))
        for i in range(run.reps)
    )
    _write_csv(out / "simulate.csv", ["rep", "v_n", "stop_index", "died"], rows)
    stopped = float((batch.stop_index >= 0).mean())
    died = float(batch.died.mean())
    print("theta,h0,horizon,N,mean,se")
    print(f"{theta:.6g},{run.h0:.6g},{run.horizon},{run.reps},{mean:.8g},{se:.4g}")
    print(f"  stopped {100*stopped:.2f}%  died {100*died:.2f}%  "
          f"horizon truncation bound {model.truncation_bound(run.horizon):.3g}")
    print(f"wrote {out / 'simulate.csv'}")
    return EXIT_OK


def run_gradient(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
                 workers: int, args: argparse.Namespace) -> int:
    method = cfg.estimator.method
    est = _gradient_once(cfg, model, method, cfg.estimator.delta, _resolve_theta(cfg, model), cfg.run.reps,
                         streams, workers)
    _write_csv(out / "gradient.csv", ["rep", "estimate"], enumerate(est.values))
    print(f"method,theta,N,mean,se")
    print(f"{est.method},{est.theta:.6g},{est.reps},{est.mean:.8g},{est.se:.4g}")
    if method == "ipa":
        print("note: the pathwise estimator is identically zero for this stopping problem;")
        print("      a threshold perturbation almost surely changes no stage reward, so the")
        print("      estimator misses the discrete transplant-decision change entirely.")
    print(f"wrote {out / 'gradient.csv'}")
    return EXIT_OK


def run_sweep(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
              workers: int, args: argparse.Namespace) -> int:
    """Cross product of sweep thetas x reps x methods, one sweep.csv row per cell; a failed cell exits 4."""
    sw = cfg.sweep
    if not sw.thetas or not sw.reps or not sw.methods:
        raise ConfigError(["sweep requires non-empty thetas, reps, and methods lists"])
    methods = [parse_method(s, cfg.estimator.delta) for s in sw.methods]
    rows = []
    failures = []
    for n in sw.reps:
        for theta in sw.thetas:
            for name, delta in methods:
                t0 = time.perf_counter()
                try:
                    g = _gradient_once(cfg, model, name, delta, theta, n, streams, workers)
                    rows.append((name, theta, n, delta, g.mean, g.se))
                    status = f"mean {g.mean:+.6f} se {g.se:.6f}"
                except Exception as exc:  # keep sweeping; cell marked failed
                    rows.append((name, theta, n, delta, None, None))
                    failures.append((name, theta, n, str(exc)))
                    status = f"FAILED: {exc}"
                dt = time.perf_counter() - t0
                label = name if delta is None else f"{name}(delta={delta:g})"
                print(f"sweep cell N={n} theta={theta:g} {label}: {status}  [{dt:.2f}s]")
    _write_csv(out / "sweep.csv", ["method", "theta", "N", "delta", "mean", "se"], rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells, {len(failures)} failed)")
    return EXIT_PARTIAL if failures else EXIT_OK


def run_optimize(cfg: ExperimentConfig, model: StoppingModel, out: Path, streams: ReplicationStreams,
                 workers: int, args: argparse.Namespace) -> int:
    trace = optimize_theta(cfg, model, streams, workers)
    _write_csv(out / "optimize_trace.csv", ["iteration", "theta", "estimate", "se"], trace)
    final_theta = trace[-1][1]
    print(f"optimize: {cfg.optimize.iterations} iterations, final theta = {final_theta:.6g}")
    print(f"wrote {out / 'optimize_trace.csv'}")
    return EXIT_OK


def optimize_theta(cfg: ExperimentConfig, model: StoppingModel, streams: ReplicationStreams, workers: int = 1):
    """Stochastic gradient ascent on the threshold with step sizes a/(k+1).

    Returns trace rows (k, theta_k, estimate_k, se_k) for each iteration plus a
    final row holding the terminal theta.  The iterate is clipped into the
    living region, [clip_margin, H_D - clip_margin], at the start and after
    every step: V' is exactly 0 at and above H_D, so no step leaves it.
    """
    opt = cfg.optimize
    lo, hi = opt.clip_margin, model.H_D - opt.clip_margin
    theta = min(max(opt.theta0, lo), hi)
    rows = []
    for k in range(opt.iterations):
        est = _gradient_once(cfg, model, "spa", None, theta, opt.reps_per_step,
                             streams.child(_OPTIMIZER_DOMAIN_BASE + k), workers)
        rows.append((k, theta, est.mean, est.se))
        step = opt.step_size / (k + 1.0)
        theta = min(max(theta + step * est.mean, lo), hi)
    rows.append((opt.iterations, theta, None, None))
    return rows


def _build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand; SUPPRESS
    # defaults keep the subparser from clobbering values parsed up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to an INI config, or a built-in scenario name (default: wsc-example)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override run.seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="directory for CSV artifacts (default: current directory)")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="parallel workers (default: config run.workers; 0 = all cores)")

    p = argparse.ArgumentParser(prog="stopgrad", parents=[common],
                                description="Simulate a transplant-timing stopping problem under "
                                            "threshold policies and estimate threshold derivatives.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common], help="audit the structural assumptions numerically")
    c.add_argument("--grid-points", type=int, default=101)

    s = sub.add_parser("solve", parents=[common], help="value iteration, control limit, value-function CSV")
    s.add_argument("--nodes", type=int, default=dp.DEFAULT_NODES)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--max-iter", type=int, default=100000)

    si = sub.add_parser("simulate", parents=[common], help="Monte Carlo paths under the configured policy")
    si.add_argument("--theta", type=float, default=None)
    si.add_argument("--reps", type=int, default=None)
    si.add_argument("--horizon", type=int, default=None)

    g = sub.add_parser("gradient", parents=[common], help="estimate dV/dtheta by spa, fd, or ipa")
    g.add_argument("--method", choices=["spa", "fd", "ipa"], default=None)
    g.add_argument("--theta", type=float, default=None)
    g.add_argument("--reps", type=int, default=None)
    g.add_argument("--delta", type=float, default=None)
    g.add_argument("--crn", dest="crn", action="store_true", default=None)
    g.add_argument("--no-crn", dest="crn", action="store_false")
    g.add_argument("--aux-reps", type=int, default=None,
                   help="spa auxiliary subpaths per replication; they change the estimate only for "
                        "kernels that can move below the current state, which uniform-deterioration cannot")
    g.add_argument("--horizon", type=int, default=None)

    sub.add_parser("sweep", parents=[common],
                   help="cross product of thetas x reps x methods, one CSV row per cell")
    sub.add_parser("optimize", parents=[common], help="stochastic gradient ascent over the threshold")
    return p


# Command-line flags that override the config field of the same name, by section.
_FLAG_SECTIONS = {
    "seed": "run", "workers": "run", "reps": "run", "horizon": "run", "theta": "policy",
    "method": "estimator", "delta": "estimator", "crn": "estimator", "aux_reps": "estimator",
}

_COMMANDS = {"check": run_check, "solve": run_solve, "simulate": run_simulate, "gradient": run_gradient,
             "sweep": run_sweep, "optimize": run_optimize}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", "wsc-example"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    for flag, section in _FLAG_SECTIONS.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(getattr(cfg, section), flag, value)

    errors = validate_config(cfg)
    if errors:
        for msg in errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    # ConfigError and the library's DomainError are both ValueErrors: bad input.  A solver that
    # runs out of iterations exits 3.
    try:
        model = build_model(cfg)
        workers = cfg.run.workers if cfg.run.workers > 0 else (os.cpu_count() or 1)
        streams = ReplicationStreams(cfg.run.seed)
        out = Path(getattr(args, "out", "."))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {str(out)!r} cannot be made a directory: {exc.strerror}") from None
        return _COMMANDS[args.command](cfg, model, out, streams, workers, args)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except dp.ConvergenceError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
