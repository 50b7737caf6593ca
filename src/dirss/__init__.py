"""Rare-event failure-probability estimation in standard Gaussian space.

The package estimates P(g(Theta) <= 0) for Theta ~ N(0, I_n) by
brute-force Monte Carlo, subset simulation, and directional subset
simulation (subset simulation with one threshold sequence per bin of a
conic partition, which keeps every direction of the space populated
and so handles multi-modal failure domains).
"""

from .errors import ConfigurationError, EvaluationError
from .estimators import (
    BinOutcome,
    LevelRecord,
    RunResult,
    run_dss,
    run_mcs,
    run_ss,
)
from .gaussian import RandomStream
from .harness import (
    REFERENCE_PF,
    ExperimentConfig,
    ReplicationSummary,
    reference_probability,
    replicate,
    run_single,
    summarize,
    validate_config,
)
from .kernels import McmcConfig
from .limitstate import (
    EvalCounter,
    LimitState,
    evaluate_batch,
    get_problem,
    make_beta_points,
    make_constant,
    make_linear,
    make_piecewise_linear,
    register_problem,
)
from .partition import (
    Partition,
    make_angular_sectors_2d,
    make_halfspace,
    make_orthants,
    make_single_bin,
)

__version__ = "0.1.0"

__all__ = [
    "BinOutcome",
    "ConfigurationError",
    "EvalCounter",
    "EvaluationError",
    "ExperimentConfig",
    "LevelRecord",
    "LimitState",
    "McmcConfig",
    "Partition",
    "RandomStream",
    "REFERENCE_PF",
    "ReplicationSummary",
    "RunResult",
    "evaluate_batch",
    "get_problem",
    "make_angular_sectors_2d",
    "make_beta_points",
    "make_constant",
    "make_halfspace",
    "make_linear",
    "make_orthants",
    "make_piecewise_linear",
    "make_single_bin",
    "reference_probability",
    "register_problem",
    "replicate",
    "run_dss",
    "run_mcs",
    "run_single",
    "run_ss",
    "summarize",
    "validate_config",
]
