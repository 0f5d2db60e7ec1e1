"""Stochastic linearized ADMM with static and adaptive mini-batch sizes.

Solves finite-sum composite problems min f(x) + g(y) s.t. Ax - y = 0 with
three stochastic gradient schemes (plain mini-batch, snapshot-anchored, and
recursive), each available with a fixed or an adaptive batch-size rule, plus
an experiment harness that reproduces oracle-complexity comparisons.
"""

__version__ = "0.1.0"

from .datasets import Dataset, SplitPair, dump_libsvm, load_libsvm, parse_libsvm, split_half
from .errors import ConfigError, ParseError, UnsupportedProblemError
from .kernel import AdmmParams, StationarityReport, make_admm_params, stationarity
from .problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    build_difference_matrix,
    build_fused_logistic,
    build_graph_guided,
    objective,
    prox_g,
)
from .solvers import METHODS, Divergence, RunResult, SolverConfig, TraceRecord, run
from .experiment import ExperimentConfig, MethodSpec, RunSummary, load_config, run_experiment

__all__ = [
    "__version__",
    "Dataset",
    "SplitPair",
    "parse_libsvm",
    "load_libsvm",
    "dump_libsvm",
    "split_half",
    "ParseError",
    "ConfigError",
    "UnsupportedProblemError",
    "ConstraintSpec",
    "NonsmoothSpec",
    "ProblemInstance",
    "build_difference_matrix",
    "build_fused_logistic",
    "build_graph_guided",
    "objective",
    "prox_g",
    "AdmmParams",
    "StationarityReport",
    "make_admm_params",
    "stationarity",
    "METHODS",
    "SolverConfig",
    "TraceRecord",
    "RunResult",
    "Divergence",
    "run",
    "ExperimentConfig",
    "MethodSpec",
    "RunSummary",
    "load_config",
    "run_experiment",
]
