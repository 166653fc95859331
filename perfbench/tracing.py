"""Spans and counters recorded from outside the package, and the per-layer metrics built from them.

The tracer wraps public callables of `stopgrad` by attribute patching while a
traced iteration runs and restores them afterwards; nothing inside `src/` knows
about it.  Spans live in memory as (name, start, end, parent) and are written
out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """In-memory span and counter store with attribute-patching wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, str, Callable | None]] = []

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())

    def wrap(self, owner, attr: str, name: str, on_call: Callable | None = None) -> None:
        """Register `owner.attr` to run inside a span named `name` while patched.

        `on_call(tracer, bound_args, result)` records counters from the call.
        """
        self._patches.append((owner, attr, name, on_call))

    @contextlib.contextmanager
    def patched(self):
        """Install every registered wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, on_call in self._patches:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrapper(orig, name, on_call))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrapper(self, orig: Callable, name: str, on_call: Callable | None) -> Callable:
        sig = inspect.signature(orig) if on_call else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
            if on_call is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer, bound.arguments, out)
            return out

        return wrapper

    def to_json(self) -> dict:
        return {"counts": dict(self.counts), "spans": [list(s) for s in self.spans]}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span], transparent=frozenset()) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    A child whose name is in `transparent` does not count as covering time
    itself; its own children are counted in its place.  That lets a fan-out
    wrapper such as `map_blocks` pass the work inside it through to its parent.
    """
    kids = defaultdict(list)
    for j, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(j)
    out = []
    for i, s in enumerate(spans):
        stack, ivs = list(kids[i]), []
        while stack:
            j = stack.pop()
            if spans[j].name in transparent:
                stack.extend(kids[j])
            else:
                ivs.append((max(spans[j].start, s.start), min(spans[j].end, s.end)))
        out.append((s.end - s.start) - covered(ivs))
    return out


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted in the denominator."""
    return float(num) / float(den) if den else 0.0


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and of every child it has waited for.

    On a shared virtual machine the wall clock also counts time the host gives
    to other guests; CPU time does not, so it is the steadier measure of work.
    """
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def s_to_se01(seconds: float, se: float) -> float:
    """Wall time scaled to a standard error of 0.01: t * (se / 0.01)^2."""
    return seconds * (se / 0.01) ** 2


# --- the patch table -------------------------------------------------------

def _count_draws(tracer: Tracer, a: dict, _out) -> None:
    n = (a["rep_hi"] - a["rep_lo"]) * a["ncols"]
    tracer.add("draws", n)
    if a["purpose"] == a["self"].AUX:
        tracer.add("draws.aux", n)


def _count_consumed(tracer: Tracer, a: dict, _out) -> None:
    tracer.add("draws.consumed", np.size(a["u"]))


def _count_blocks(tracer: Tracer, a: dict, _out) -> None:
    tracer.add("blocks", len(a["ranges"]))


def _count_spa(tracer: Tracer, _a: dict, est) -> None:
    tracer.add("spa.contrib", int(np.count_nonzero(est.values)))
    tracer.add("spa.reps", est.reps)


def _count_vi(tracer: Tracer, _a: dict, V) -> None:
    tracer.add("vi.iterations", V.iterations)


def install_layers(tracer: Tracer) -> None:
    """Register the public callables of every layer, under the names the metrics use.

    Functions are wrapped under the names through which their callers reach
    them: `map_blocks` as `estimators` imports it (so `sample_paths`' own loop
    stays inside `sample_paths`' self time, the path kernel), and the
    `sample_paths` / estimator / `load_config` names that `cli` imports.
    """
    from stopgrad import cli, config, dp, estimators, kernel, model, sim

    K = kernel.UniformDeteriorationKernel
    tracer.wrap(sim.ReplicationStreams, "uniform_rows", "sim.uniform_rows", _count_draws)
    tracer.wrap(K, "ppf", "kernel.ppf", _count_consumed)
    tracer.wrap(K, "density", "kernel.density")
    tracer.wrap(K, "tail_mass", "kernel.tail_mass")
    tracer.wrap(K, "density_discontinuities", "kernel.density_discontinuities")
    tracer.wrap(model.StoppingModel, "wait_reward", "model.reward")
    tracer.wrap(model.StoppingModel, "transplant_reward", "model.reward")
    tracer.wrap(dp.GridDynamics, "__init__", "dp.GridDynamics.build")
    tracer.wrap(dp.GridDynamics, "continuation", "dp.continuation")
    tracer.wrap(estimators, "map_blocks", "sim.map_blocks", _count_blocks)
    for mod in (estimators, cli):
        tracer.wrap(mod, "spa_estimate", "estimators.spa_estimate", _count_spa)
        tracer.wrap(mod, "fd_estimate", "estimators.fd_estimate")
    tracer.wrap(cli, "sample_paths", "sim.sample_paths")
    tracer.wrap(dp, "oracle_derivative", "dp.oracle_derivative")
    tracer.wrap(dp, "value_iterate", "dp.value_iterate", _count_vi)
    tracer.wrap(dp, "extract_control_limit", "dp.extract_control_limit")
    for mod in (config, cli):
        for name in ("load_config", "validate_config", "build_model"):
            tracer.wrap(mod, name, f"config.{name}")
    tracer.wrap(cli, "main", "cli.main")


# --- per-layer metrics -------------------------------------------------------

LAYER_METRICS = {
    # name: (unit, better)
    "sim.uniform_rows.s": ("s", "lower"),
    "sim.uniform_rows.calls": ("count", "lower"),
    "sim.draws_generated": ("count", "lower"),
    "sim.draws_generated.aux": ("count", "lower"),
    "sim.draws_consumed": ("count", "lower"),
    "sim.draw_use": ("ratio", "higher"),
    "sim.sample_paths.self_s": ("s", "lower"),
    "sim.map_blocks.s": ("s", "lower"),
    "sim.map_blocks.blocks": ("count", "lower"),
    "kernel.ppf.s": ("s", "lower"),
    "kernel.ppf.calls": ("count", "lower"),
    "kernel.density.s": ("s", "lower"),
    "kernel.density.calls": ("count", "lower"),
    "kernel.tail_mass.s": ("s", "lower"),
    "kernel.density_discontinuities.calls": ("count", "lower"),
    "model.reward.s": ("s", "lower"),
    "model.reward.calls": ("count", "lower"),
    "estimators.spa_estimate.s": ("s", "lower"),
    "estimators.fd_estimate.s": ("s", "lower"),
    "estimators.self_s": ("s", "lower"),
    "estimators.spa.contrib_share": ("ratio", "higher"),
    "estimators.spa.aux_draws_per_contrib": ("count", "lower"),
    "spa_s_to_se01": ("s", "lower"),
    "fd_s_to_se01": ("s", "lower"),
    "dp.GridDynamics.build_s": ("s", "lower"),
    "dp.GridDynamics.builds": ("count", "lower"),
    "dp.continuation.s": ("s", "lower"),
    "dp.continuation.calls": ("count", "lower"),
    "dp.value_iterate.iterations": ("count", "lower"),
    "dp.self_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "cli.artifact_mb_per_s": ("MB/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics whose spans run inside `map_blocks` blocks.  Pool children at
# workers > 1 keep their spans in their own memory, so these come from a
# workers = 1 pass when the workload runs a pool.
IN_BLOCK_METRICS = (
    "sim.uniform_rows.s", "sim.uniform_rows.calls", "sim.draws_generated", "sim.draws_generated.aux",
    "sim.draws_consumed", "sim.draw_use", "sim.sample_paths.self_s", "kernel.ppf.s", "kernel.ppf.calls",
    "kernel.density.s", "kernel.density.calls", "kernel.tail_mass.s", "model.reward.s", "model.reward.calls",
    "estimators.self_s", "estimators.spa.aux_draws_per_contrib",
)

_ESTIMATOR_SPANS = ("estimators.spa_estimate", "estimators.fd_estimate")
_DP_SPANS = ("dp.oracle_derivative", "dp.value_iterate", "dp.extract_control_limit")
_CONFIG_SPANS = ("config.load_config", "config.validate_config", "config.build_model")


def layer_metrics(spans: list[Span], counts: Counter, iterations: int) -> dict[str, float]:
    """Per-iteration layer metrics from the spans and counts of `iterations` traced iterations.

    Covers every metric that comes from spans and counters; `config.load_s`,
    the s-to-se figures and the tracing overhead are filled in by the caller.
    """
    per = 1.0 / iterations
    total, calls = defaultdict(float), Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    plain = self_times(spans)
    through_blocks = self_times(spans, transparent={"sim.map_blocks"})

    def self_sum(names, selfs):
        return sum(t for s, t in zip(spans, selfs) if s.name in names) * per

    art_bytes = counts["cli.artifact_bytes"] * per
    cli_self = self_sum(("cli.main",), plain)
    return {
        "sim.uniform_rows.s": total["sim.uniform_rows"] * per,
        "sim.uniform_rows.calls": calls["sim.uniform_rows"] * per,
        "sim.draws_generated": counts["draws"] * per,
        "sim.draws_generated.aux": counts["draws.aux"] * per,
        "sim.draws_consumed": counts["draws.consumed"] * per,
        "sim.draw_use": ratio(counts["draws.consumed"], counts["draws"]),
        "sim.sample_paths.self_s": self_sum(("sim.sample_paths",), plain),
        "sim.map_blocks.s": total["sim.map_blocks"] * per,
        "sim.map_blocks.blocks": counts["blocks"] * per,
        "kernel.ppf.s": total["kernel.ppf"] * per,
        "kernel.ppf.calls": calls["kernel.ppf"] * per,
        "kernel.density.s": total["kernel.density"] * per,
        "kernel.density.calls": calls["kernel.density"] * per,
        "kernel.tail_mass.s": total["kernel.tail_mass"] * per,
        "kernel.density_discontinuities.calls": calls["kernel.density_discontinuities"] * per,
        "model.reward.s": total["model.reward"] * per,
        "model.reward.calls": calls["model.reward"] * per,
        "estimators.spa_estimate.s": total["estimators.spa_estimate"] * per,
        "estimators.fd_estimate.s": total["estimators.fd_estimate"] * per,
        "estimators.self_s": self_sum(_ESTIMATOR_SPANS, through_blocks),
        "estimators.spa.contrib_share": ratio(counts["spa.contrib"], counts["spa.reps"]),
        "estimators.spa.aux_draws_per_contrib": ratio(counts["draws.aux"], counts["spa.contrib"]),
        "dp.GridDynamics.build_s": total["dp.GridDynamics.build"] * per,
        "dp.GridDynamics.builds": calls["dp.GridDynamics.build"] * per,
        "dp.continuation.s": total["dp.continuation"] * per,
        "dp.continuation.calls": calls["dp.continuation"] * per,
        "dp.value_iterate.iterations": counts["vi.iterations"] * per,
        "dp.self_s": self_sum(_DP_SPANS, plain),
        "cli.main.s": total["cli.main"] * per,
        "cli.self_s": cli_self,
        "cli.artifact_bytes": art_bytes,
        "cli.artifact_mb_per_s": ratio(art_bytes / 1e6, cli_self),
    }


def config_seconds(spans: list[Span]) -> float:
    """Time spent in the config layer (load, validate, build) across `spans`."""
    return sum(s.end - s.start for s in spans if s.name in _CONFIG_SPANS)
