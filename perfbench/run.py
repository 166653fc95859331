"""stopgrad benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload spa-wsc --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from `src/`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off.  With `--trace 1` they are the per-layer ones: untraced and traced
iterations alternate, spans are kept in memory and written to
`.perfbench-out/trace-<workload>-<seed>.json` at the end, and the difference
of the two medians is reported as the tracing overhead.

Timings that gate a change are CPU seconds (user + system, children
included): on a shared virtual machine the wall clock also counts the time the
host gives to other guests, which moved wall times by more than half between
identical calls.  Wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: dp.continuation is a BLAS mat-vec, and an
# idle OpenBLAS worker spins on the other core, which CPU time would count as work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is measured in fresh interpreters, this many times per run; the median is reported.
SETUP_PROBES = 3
END_TO_END = {
    # name: (unit, better)
    "run_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_share": ("share", "higher"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run the workload's set-up and exit (used to time set-up in a fresh process)")
    return p.parse_args(argv)


def machine() -> dict:
    """nproc, CPU model, Python, numpy, BLAS and its thread count."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any child it has waited for (the CLI runs)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, CPU) seconds of a fresh interpreter that imports everything and sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    t0, c0 = time.perf_counter(), tracing.cpu_seconds()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0, tracing.cpu_seconds() - c0


def repeat_for(seconds: float, step):
    """Call step(i) for i = 0, 1, ... until `seconds` have passed, always at least once.

    A further call starts only while it is expected to end no more than half a
    call past `seconds`, judged by the mean duration of the calls so far.
    """
    out, t0 = [], time.perf_counter()
    while True:
        out.append(step(len(out)))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(out) > seconds:
            return out


def tail_percentile(samples: list[float]):
    """Highest of p90 / p99 / p99.9 with at least ten samples beyond it, as (p, value), or None."""
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def fail_share(attempted: int, failed: int) -> float:
    return failed / attempted


def op_s_to_se01(ops, name: str):
    """Median over the ops called `name` of their CPU time scaled to se 0.01, or None."""
    vals = [tracing.s_to_se01(op.cpu_seconds, op.se) for op in ops if op.name == name and op.ok]
    return statistics.median(vals) if vals else None


def iteration_seconds(iterations) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each iteration's timed calls."""
    return ([sum(op.seconds for op in ops) for ops in iterations],
            [sum(op.cpu_seconds for op in ops) for ops in iterations])


def print_ops(label: str, iterations) -> None:
    for i, ops in enumerate(iterations):
        for op in ops:
            print(f"{label} {i} {op.name}: {op.seconds:.4f} s wall {op.cpu_seconds:.4f} s cpu "
                  f"{'ok' if op.ok else 'FAILED'} - {op.detail}")


def timed_run(name, wl, seed, seconds):
    ctx = wl.setup(seed)
    try:
        iterations = repeat_for(seconds, lambda i: wl.iterate(ctx, i))
    finally:
        wl.close(ctx)
    peak = peak_rss_mb()  # before the set-up probes, which are children too
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    print_ops("iteration", iterations)
    wall, cpu = iteration_seconds(iterations)
    ops = [op for it in iterations for op in it]
    failed = sum(not op.ok for op in ops)
    metrics = {
        "run_cpu_s": statistics.median(cpu),
        "setup_s": statistics.median(c for _, c in setups),
        "peak_rss_mb": peak,
        "pass_share": 1.0 - fail_share(len(ops), failed),
    }
    for key, samples in (("run_s", wall), ("run_cpu_s", cpu)):
        tail = tail_percentile(samples)
        print(f"{key}: median of n={len(samples)} iterations"
              + (f", p{tail[0]:g} {tail[1]:.4f} s" if tail else "; no percentile has ten samples beyond it"))
    print(f"setup_s: median CPU seconds of {len(setups)} fresh-interpreter set-ups; (wall, cpu) "
          f"{[(round(w, 4), round(c, 4)) for w, c in setups]}")
    extra = {"run_s": (statistics.median(wall), "s"),
             "fail_share": (fail_share(len(ops), failed), "share"),
             "spa_s_to_se01": (op_s_to_se01(ops, "spa"), "s"),
             "fd_s_to_se01": (op_s_to_se01(ops, "fd"), "s")}
    for key, (value, unit) in extra.items():
        if value is not None:
            print(f"metric {key} = {value:.6g} {unit}")
    return ops, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}


def traced_run(name, wl, seed, seconds):
    setup_tracer = tracing.Tracer()
    tracing.install_layers(setup_tracer)
    with setup_tracer.patched():
        ctx = wl.setup(seed)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)

    def traced_iteration(i):
        with tracer.patched():
            return wl.iterate(ctx, i, in_process=True)

    def pair(i):
        # Both halves of a pair do the same work; the order alternates so that
        # neither side always runs on a cold allocator.
        if i % 2:
            traced = traced_iteration(i)
            return wl.iterate(ctx, i, in_process=True), traced
        plain = wl.iterate(ctx, i, in_process=True)
        return plain, traced_iteration(i)

    workers1 = None
    try:
        pairs = repeat_for(seconds, pair)
        if wl.pool_workers > 1:
            # Pool children keep their spans in their own memory; the layers
            # inside the blocks come from a workers = 1 pass instead.
            workers1 = tracing.Tracer()
            tracing.install_layers(workers1)
            with workers1.patched():
                w1_ops = wl.iterate(dataclasses.replace(ctx, workers=1), 0, in_process=True)
    finally:
        wl.close(ctx)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    print_ops("untraced", plain)
    print_ops("traced", traced)
    ops = [op for it in plain + traced for op in it]
    for op in (op for it in traced for op in it):
        tracer.add("cli.artifact_bytes", op.artifact_bytes)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, len(traced))
    if workers1 is not None:
        print_ops("traced workers=1", [w1_ops])
        ops += w1_ops
        w1 = tracing.layer_metrics(workers1.spans, workers1.counts, 1)
        metrics.update({k: w1[k] for k in tracing.IN_BLOCK_METRICS})
        print(f"note: spans inside the workers={wl.pool_workers} pool children cannot be collected; "
              f"{', '.join(tracing.IN_BLOCK_METRICS)} come from a traced workers=1 pass")
    (plain_wall, plain_cpu), (traced_wall, traced_cpu) = iteration_seconds(plain), iteration_seconds(traced)
    plain_ops = [op for it in plain for op in it]
    metrics.update({
        "config.load_s": tracing.config_seconds(setup_tracer.spans),
        "spa_s_to_se01": op_s_to_se01(plain_ops, "spa") or 0.0,
        "fd_s_to_se01": op_s_to_se01(plain_ops, "fd") or 0.0,
        "trace.overhead_s": statistics.median(traced_cpu) - statistics.median(plain_cpu),
    })
    print(f"tracing overhead over n={len(traced)} pairs: run_cpu_s traced {statistics.median(traced_cpu):.4f} s"
          f" - untraced {statistics.median(plain_cpu):.4f} s; run_s traced {statistics.median(traced_wall):.4f} s"
          f" - untraced {statistics.median(plain_wall):.4f} s")
    from workloads import OUT

    OUT.mkdir(exist_ok=True)
    dump = {"workload": name, "seed": seed, "machine": machine(), "setup": setup_tracer.to_json(),
            "traced": tracer.to_json(), "workers1": workers1.to_json() if workers1 else None}
    path = OUT / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(dump))
    print(f"wrote {path.relative_to(ROOT)} ({len(tracer.spans)} traced spans)")
    return ops, {k: (metrics[k], unit) for k, (unit, _) in tracing.LAYER_METRICS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stopgrad" / "__init__.py").is_file():
        print(f"perfbench: no stopgrad package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload][0]
    if args.setup_only:
        wl.close(wl.setup(args.seed))
        return 0

    print("machine: " + json.dumps(machine()))
    run = traced_run if args.trace else timed_run
    ops, metrics = run(args.workload, wl, args.seed, args.seconds)
    failed = sum(not op.ok for op in ops)
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
