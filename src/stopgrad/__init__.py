"""stopgrad: threshold-policy simulation and derivative estimation for a
continuous-state transplant-timing stopping problem."""

from .config import ExperimentConfig, build_model, load_config
from .dp import (
    GridValueFunction,
    extract_control_limit,
    oracle_derivative,
    policy_value,
    policy_value_sweep,
    value_iterate,
)
from .estimators import GradEstimate, fd_estimate, ipa_estimate, spa_estimate
from .kernel import TransitionKernel, UniformDeteriorationKernel
from .model import StoppingModel, check_assumptions, check_ifr
from .sim import ReplicationStreams, sample_paths

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GradEstimate",
    "GridValueFunction",
    "ReplicationStreams",
    "StoppingModel",
    "TransitionKernel",
    "UniformDeteriorationKernel",
    "build_model",
    "check_assumptions",
    "check_ifr",
    "extract_control_limit",
    "fd_estimate",
    "ipa_estimate",
    "load_config",
    "oracle_derivative",
    "policy_value",
    "policy_value_sweep",
    "sample_paths",
    "spa_estimate",
    "value_iterate",
]
