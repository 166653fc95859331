"""Experiment configuration: INI parsing, validation, serialization, model building."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .kernel import UniformDeteriorationKernel
from .model import ConstantReward, LinearReward, StoppingModel, TabulatedReward

__all__ = [
    "ConfigError",
    "ModelConfig",
    "KernelConfig",
    "PolicyConfig",
    "RunConfig",
    "EstimatorConfig",
    "SweepConfig",
    "OptimizeConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "format_value",
    "to_ini",
    "validate_config",
    "build_model",
    "reward_from_spec",
    "parse_method",
]

BUILTIN_SCENARIOS = ("wsc-example",)
_KERNELS = {"uniform-deterioration": UniformDeteriorationKernel}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [str(errors)]
        super().__init__("; ".join(self.errors))


@dataclass
class ModelConfig:
    H: float = 1.0
    H_D: float = 1.0
    discount: float = 0.97
    reward_wait: str = "constant 0.5"
    reward_transplant: str = "linear-decreasing 8.0 0.0"


@dataclass
class KernelConfig:
    name: str = "uniform-deterioration"


@dataclass
class PolicyConfig:
    theta: float | str = 0.5  # a number, or "solve" to use the value-iteration threshold


@dataclass
class RunConfig:
    h0: float = 0.0
    horizon: int = 200
    reps: int = 10000
    seed: int = 20240
    workers: int = 0  # 0 = use available parallelism


@dataclass
class EstimatorConfig:
    method: str = "spa"
    delta: float = 0.01
    crn: bool = True
    aux_reps: int = 1


@dataclass
class SweepConfig:
    thetas: tuple[float, ...] = (0.2, 0.5, 0.8)
    reps: tuple[int, ...] = (100, 10000, 1000000)
    methods: tuple[str, ...] = ("spa", "fd:0.01", "fd:0.05", "fd:0.1")


@dataclass
class OptimizeConfig:
    theta0: float = 0.9
    iterations: int = 500
    reps_per_step: int = 1000
    step_size: float = 0.05
    clip_margin: float = 0.02


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    run: RunConfig = field(default_factory=RunConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)


def _split(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES  # true/false, yes/no, on/off, 1/0
    if raw.lower() not in states:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return states[raw.lower()]


# Value parsers keyed by the dataclass field annotations above.
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "bool": _parse_bool,
    "float | str": lambda raw: raw if raw == "solve" else float(raw),
    "tuple[float, ...]": lambda raw: tuple(float(tok) for tok in _split(raw)),
    "tuple[int, ...]": lambda raw: tuple(int(tok) for tok in _split(raw)),
    "tuple[str, ...]": lambda raw: tuple(_split(raw)),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into an ExperimentConfig; unknown sections or keys are errors."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (H vs H_D)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc
    cfg = ExperimentConfig()
    sections = {f.name for f in fields(cfg)}
    errors = []
    for section in cp.sections():
        if section not in sections:
            errors.append(f"unknown config section [{section}]")
            continue
        target = getattr(cfg, section)
        known = {f.name: f for f in fields(target)}
        for key, raw in cp.items(section):
            if key not in known:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                setattr(target, key, _PARSERS[known[key].type](raw.strip()))
            except ValueError as exc:
                errors.append(f"[{section}] {key}: {exc}")
    if errors:
        raise ConfigError(errors)
    return cfg


def format_value(v) -> str:
    """A config value or CSV cell as text: None blank, booleans true/false, floats by repr."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, tuple):
        return ", ".join(format_value(x) for x in v)
    return str(v)


def to_ini(cfg: ExperimentConfig) -> str:
    """Serialize in canonical section/key order; parse(to_ini(cfg)) == cfg."""
    out = io.StringIO()
    for section in fields(cfg):
        target = getattr(cfg, section.name)
        out.write(f"[{section.name}]\n")
        for f in fields(target):
            out.write(f"{f.name} = {format_value(getattr(target, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config from a file path or a built-in scenario name."""
    p = Path(path_or_name)
    if p.exists():
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"config {path_or_name!r} cannot be read as UTF-8 text: {exc}"]) from exc
        return parse_config(text)
    if path_or_name in BUILTIN_SCENARIOS:
        text = resources.files("stopgrad").joinpath(f"scenarios/{path_or_name}.ini").read_text()
        return parse_config(text)
    raise ConfigError([f"config {path_or_name!r}: no such file or built-in scenario"])


def parse_method(spec: str, default_delta: float) -> tuple[str, float | None]:
    """Parse a sweep method token: 'spa', 'ipa', 'fd', or 'fd:<delta>'."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name not in ("spa", "fd", "ipa"):
        raise ConfigError([f"unknown estimator method {spec!r}"])
    if name != "fd":
        if arg:
            raise ConfigError([f"method {name!r} takes no argument"])
        return name, None
    return "fd", float(arg) if arg else default_delta


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Range checks; returns a list of error messages (empty when valid)."""
    e: list[str] = []
    m, run, est, opt = cfg.model, cfg.run, cfg.estimator, cfg.optimize
    if not m.H > 0.0:
        e.append("model.H must be positive")
    if not (0.0 < m.H_D <= m.H):
        e.append("model.H_D must lie in (0, H]")
    if not (0.0 < m.discount < 1.0):
        e.append("model.discount must lie in (0, 1)")
    th = cfg.policy.theta
    if th != "solve" and not (isinstance(th, float) and 0.0 <= th <= m.H):
        e.append("policy.theta must lie in [0, H] or be 'solve'")
    if not (0.0 <= run.h0 < m.H):
        e.append("run.h0 must lie in [0, H)")
    if run.horizon < 0:
        e.append("run.horizon must be nonnegative")
    if run.reps < 2:
        e.append("run.reps must be at least 2")
    if run.seed < 0:
        e.append("run.seed must be nonnegative")
    if run.workers < 0:
        e.append("run.workers must be nonnegative")
    if est.method not in ("spa", "fd", "ipa"):
        e.append("estimator.method must be one of spa, fd, ipa")
    if not est.delta > 0.0:
        e.append("estimator.delta must be positive")
    if est.aux_reps < 1:
        e.append("estimator.aux_reps must be at least 1")
    for t in cfg.sweep.thetas:
        if not (0.0 <= t <= m.H):
            e.append(f"sweep.thetas entry {t} outside [0, H]")
            break
    for n in cfg.sweep.reps:
        if n < 2:
            e.append(f"sweep.reps entry {n} below 2")
            break
    for spec in cfg.sweep.methods:
        try:
            name, d = parse_method(spec, est.delta)
            if name == "fd" and not (d > 0.0):
                e.append(f"sweep method {spec!r} needs a positive delta")
        except (ConfigError, ValueError):
            e.append(f"sweep method {spec!r} is not valid")
    if not (0.0 < opt.theta0 < m.H):
        e.append("optimize.theta0 must lie in (0, H)")
    if opt.iterations < 0:
        e.append("optimize.iterations must be nonnegative")
    if opt.reps_per_step < 2:
        e.append("optimize.reps_per_step must be at least 2")
    if not (opt.step_size >= 0.0):
        e.append("optimize.step_size must be nonnegative")
    if not (0.0 < opt.clip_margin < m.H_D / 2.0):
        e.append("optimize.clip_margin must lie in (0, H_D/2)")
    try:
        reward_from_spec(m.reward_wait, m.H)
        reward_from_spec(m.reward_transplant, m.H)
    except (ConfigError, ValueError) as exc:
        e.append(str(exc))
    kernel = _KERNELS.get(cfg.kernel.name)
    if kernel is None:
        e.append(f"unknown kernel {cfg.kernel.name!r}")
    elif m.H != kernel.H:
        e.append(f"{cfg.kernel.name} kernel requires H = {kernel.H:g}")
    return e


def reward_from_spec(spec: str, H: float) -> TabulatedReward:
    """Build a reward table from its config string.

    Forms: `constant <v>`, `linear-decreasing <at_zero> <at_H>`,
    `table <h:v> <h:v> ...` (piecewise-linear interpolation); each is a
    `TabulatedReward`.  A malformed spec, or a value the table rejects
    (negative or non-finite), raises a ConfigError that names the spec.
    """
    toks = spec.split()
    if not toks:
        raise ConfigError([f"empty reward spec"])
    kind, args = toks[0], toks[1:]
    try:
        if kind == "constant":
            if len(args) != 1:
                raise ValueError("constant takes one value")
            return ConstantReward(float(args[0]))
        if kind == "linear-decreasing":
            if len(args) != 2:
                raise ValueError("linear-decreasing takes two values")
            return LinearReward(float(args[0]), float(args[1]), H)
        if kind == "table":
            pairs = []
            for tok in args:
                x, _, y = tok.partition(":")
                pairs.append((float(x), float(y)))
            if len(pairs) < 2:
                raise ValueError("table needs at least two h:v pairs")
            xs, ys = zip(*pairs)
            return TabulatedReward(xs, ys)
    except ValueError as exc:
        raise ConfigError([f"reward spec {spec!r}: {exc}"]) from exc
    raise ConfigError([f"unknown reward kind {kind!r} in {spec!r}"])


def build_model(cfg: ExperimentConfig) -> StoppingModel:
    """Construct the StoppingModel from a validated config."""
    m = cfg.model
    return StoppingModel(
        kernel=_KERNELS[cfg.kernel.name](),
        reward_wait=reward_from_spec(m.reward_wait, m.H),
        reward_transplant=reward_from_spec(m.reward_transplant, m.H),
        H_D=m.H_D,
        discount=m.discount,
    )
