"""Experiment harness: a config file in, per-run trace CSVs and a summary out.

The grid is methods x repeats.  One base seed fixes everything: the split,
the variance estimate, and one solver seed per repeat (shared across methods
so static/adaptive pairs see the same randomness).  Given the same config and
seed, every output byte is reproducible except wall-clock fields.  The cells
run one after another in this process.
"""

import dataclasses
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .advisor import estimate_L
from .datasets import d_hint_fault, load_libsvm
from .errors import ConfigError, DivergenceError, SplitError
from .estimators import estimate_sigma2
from .kernel import make_admm_params, stationarity
from .problems import build_fused_logistic, build_graph_guided, objective
from .schedulers import SchedulerParams
from .solvers import METHODS, SolverConfig, TraceRecord, run

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "RunRow",
    "RunSummary",
    "load_config",
    "run_experiment",
    "emit_trace_csv",
    "parse_trace_csv",
]

_TOP_KEYS = (
    "dataset", "problem", "budget", "split", "seed", "repeats", "eval_stride", "sigma2", "methods"
)
_SECTION_KEYS = {
    "dataset": ("path", "d_hint", "normalize"),
    "problem": ("kind", "l1", "l2", "corr_threshold"),
    "budget": ("max_iters", "oracle_budget", "target_epsilon"),
    "split": ("enabled",),
}

# libyaml's parser and emitter when PyYAML was built with them: the same
# documents and bytes as the pure-Python ones, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_CSV_FIELDS = ("iter", "epoch", "batch_size", "oracle_calls", "objective", "stationarity", "time_ms")


@dataclass(frozen=True)
class MethodSpec:
    """One method entry of the experiment grid."""

    name: str
    beta: float
    eta: float
    r: Optional[float] = None
    c_tau: float = 1.0
    c_eps: float = 1.0
    epsilon: float = 1e-3
    tau_init: float = 0.0
    b: int = 1
    T: int = 1
    q: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    problem_kind: str  # "fused_logistic" or "graph_guided"
    l1: float
    methods: tuple
    seed: int = 0
    repeats: int = 5
    d_hint: Optional[int] = None
    normalize: bool = False
    split: bool = True
    l2: float = 0.0
    corr_threshold: float = 0.7
    max_iters: int = 100
    oracle_budget: Optional[int] = None
    target_epsilon: Optional[float] = None
    eval_stride: Optional[int] = None
    sigma2: Optional[float] = None


@dataclass
class RunRow:
    """Outcome of one (method, repeat) cell."""

    method: str
    repeat: int
    seed: int
    iterations: int
    solver_calls: int
    eval_calls: int
    final_objective: float
    final_stationarity: float
    batch_cap_hits: int
    diverged: bool
    wall_ms: float
    trace_path: str


@dataclass
class RunSummary:
    version: str
    sigma2: float
    L: float
    varsigma: float
    opnorm: float
    n_train: int
    n_test: int
    rows: list
    aggregates: dict

    def write_yaml(self, path) -> None:
        """Write the summary as YAML in field order, with the rows under ``runs``."""
        payload = {("runs" if k == "rows" else k): v for k, v in dataclasses.asdict(self).items()}
        with open(path, "w") as fh:
            yaml.dump(payload, fh, Dumper=_YAML_DUMPER, sort_keys=False)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.17g}"


def emit_trace_csv(trace, path) -> None:
    """Write a trace with a fixed header and 17-significant-digit floats.

    A test_objective column is appended only when some row carries one, so
    the same config always produces the same set of columns.
    """
    with_test = any(rec.test_objective is not None for rec in trace)
    fields = _CSV_FIELDS + (("test_objective",) if with_test else ())
    lines = [",".join(fields)]
    for rec in trace:
        lines.append(",".join(_fmt(getattr(rec, f)) for f in fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _float_or_none(cell):
    return float(cell) if cell else None


def parse_trace_csv(path):
    """Read back a trace CSV written by ``emit_trace_csv``; empty cells become None."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    if list(header[: len(_CSV_FIELDS)]) != list(_CSV_FIELDS):
        raise ValueError(f"unexpected trace header in {path}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = dict(zip(header, parts))
        out.append(
            TraceRecord(
                iter=int(row["iter"]),
                epoch=int(row["epoch"]),
                batch_size=int(row["batch_size"]),
                oracle_calls=int(row["oracle_calls"]),
                objective=_float_or_none(row["objective"]),
                stationarity=_float_or_none(row["stationarity"]),
                time_ms=float(row["time_ms"]),
                test_objective=_float_or_none(row.get("test_objective")),
            )
        )
    return out


def _need(mapping, key, path):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"missing required config key {path}.{key}")
    return mapping[key]


def _section(doc, key):
    val = doc.get(key, {})
    if val is None:
        val = {}
    if not isinstance(val, dict):
        raise ConfigError(f"config section {key!r} must be a mapping")
    _reject_unknown(val, _SECTION_KEYS[key], key)
    return val


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown, key=str)}")


def _int(value, key):
    """An integer config value (None passes through); never truncates."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _float(value, key):
    """A real config value (None passes through); a boolean is not read as 0 or 1.

    Strings go through float(): PyYAML reads 1e-3 (no dot) as the string '1e-3'.
    A value that float() cannot read is a config error that names the key.
    """
    if value is None:
        return None
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    # older configs say workers: 1, so that value still loads
    workers = _int(doc.pop("workers", 1), "workers")
    if workers != 1:
        raise ConfigError(f"workers must be 1, got {workers!r}: the grid runs in one process")
    _reject_unknown(doc, _TOP_KEYS, "config")

    ds = _section(doc, "dataset")
    prob = _section(doc, "problem")
    budget = _section(doc, "budget")
    split = _section(doc, "split")

    kind = _need(prob, "kind", "problem")
    if kind not in ("fused_logistic", "graph_guided"):
        raise ConfigError(f"unknown problem.kind {kind!r}")

    raw_methods = doc.get("methods")
    if not raw_methods or not isinstance(raw_methods, list):
        raise ConfigError("config must list at least one method under 'methods'")
    allowed = {f.name for f in dataclasses.fields(MethodSpec)}
    methods = []
    for i, entry in enumerate(raw_methods):
        if not isinstance(entry, dict):
            raise ConfigError(f"methods[{i}] must be a mapping")
        _reject_unknown(entry, allowed, f"methods[{i}]")
        name = _need(entry, "name", f"methods[{i}]")
        if name not in METHODS:
            raise ConfigError(f"methods[{i}].name {name!r} not one of {METHODS}")
        try:
            methods.append(
                MethodSpec(
                    name=name,
                    beta=_float(_need(entry, "beta", f"methods[{i}]"), "beta"),
                    eta=_float(_need(entry, "eta", f"methods[{i}]"), "eta"),
                    r=_float(entry.get("r"), "r"),
                    c_tau=_float(entry.get("c_tau", 1.0), "c_tau"),
                    c_eps=_float(entry.get("c_eps", 1.0), "c_eps"),
                    epsilon=_float(entry.get("epsilon", 1e-3), "epsilon"),
                    tau_init=_float(entry.get("tau_init", 0.0), "tau_init"),
                    b=_int(entry.get("b", 1), "b"),
                    T=_int(entry.get("T", 1), "T"),
                    q=_int(entry.get("q", 1), "q"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"methods[{i}]: {exc}") from exc

    try:
        return ExperimentConfig(
            dataset_path=str(_need(ds, "path", "dataset")),
            d_hint=_int(ds.get("d_hint"), "dataset.d_hint"),
            normalize=_bool(ds.get("normalize", False), "dataset.normalize"),
            split=_bool(split.get("enabled", True), "split.enabled"),
            problem_kind=kind,
            l1=_float(_need(prob, "l1", "problem"), "problem.l1"),
            l2=_float(prob.get("l2", 0.0), "problem.l2"),
            corr_threshold=_float(prob.get("corr_threshold", 0.7), "problem.corr_threshold"),
            methods=tuple(methods),
            seed=_int(doc.get("seed", 0), "seed"),
            repeats=_int(doc.get("repeats", 5), "repeats"),
            max_iters=_int(_need(budget, "max_iters", "budget"), "budget.max_iters"),
            oracle_budget=_int(budget.get("oracle_budget"), "budget.oracle_budget"),
            target_epsilon=_float(budget.get("target_epsilon"), "budget.target_epsilon"),
            eval_stride=_int(doc.get("eval_stride"), "eval_stride"),
            sigma2=_float(doc.get("sigma2"), "sigma2"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _validate(cfg: ExperimentConfig):
    fault = d_hint_fault(cfg.d_hint)
    if fault:
        raise ConfigError(f"dataset.d_hint {fault}")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if cfg.max_iters < 0:
        raise ConfigError("budget.max_iters must be nonnegative")
    if cfg.oracle_budget is not None and cfg.oracle_budget < 1:
        raise ConfigError("budget.oracle_budget must be positive when set")
    if cfg.target_epsilon is not None and not cfg.target_epsilon > 0.0:
        raise ConfigError("budget.target_epsilon must be positive when set")
    if cfg.eval_stride is not None and cfg.eval_stride < 1:
        raise ConfigError("eval_stride must be at least 1 when set")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.sigma2 is not None and not 0.0 <= cfg.sigma2 < math.inf:
        raise ConfigError(f"sigma2 must be nonnegative and finite when set, got {cfg.sigma2}")
    for key, value in (("problem.l1", cfg.l1), ("problem.l2", cfg.l2)):
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"{key} must be nonnegative and finite, got {value}")
    # checked whatever the kind, as l2 is, though only graph_guided reads it
    if not 0.0 < cfg.corr_threshold <= 1.0:
        raise ConfigError(f"problem.corr_threshold must lie in (0, 1], got {cfg.corr_threshold}")


def _derive_seed(base: int, *tags) -> int:
    return int(np.random.SeedSequence((base,) + tags).generate_state(1, dtype=np.uint64)[0])


def _build_problem(cfg: ExperimentConfig, ds):
    if cfg.problem_kind == "fused_logistic":
        return build_fused_logistic(ds, cfg.l1)
    return build_graph_guided(ds, cfg.l1, cfg.l2, cfg.corr_threshold)


def _run_cell(problem, test_problem, solver_cfg: SolverConfig, rep: int, trace_path: str):
    """Execute one grid cell and write its trace; returns a RunRow."""
    test_fn = None
    if test_problem is not None:
        test_fn = lambda x: objective(test_problem, x)  # noqa: E731
    t0 = time.perf_counter()
    diverged = False
    try:
        result = run(problem, solver_cfg, test_objective=test_fn)
        trace, state = result.trace, result.state
    except DivergenceError as exc:
        trace, state = exc.trace, None
        diverged = True
    wall_ms = (time.perf_counter() - t0) * 1e3
    emit_trace_csv(trace, trace_path)
    if diverged:
        final_obj = float("nan")
        final_stat = float("nan")
        solver_calls = trace[-1].oracle_calls if trace else 0
        eval_calls = 0
        iterations = len(trace)
    else:
        if trace:  # the stopping row is always an evaluation row
            final_obj, final_stat = trace[-1].objective, trace[-1].stationarity
        else:  # max_iters: 0
            report = stationarity(problem, state)
            state.tally.eval_calls += problem.n
            final_obj, final_stat = report.objective, report.total
        solver_calls = state.tally.solver_calls
        eval_calls = state.tally.eval_calls
        iterations = state.k
    cap_hits = sum(1 for rec in trace if rec.batch_size >= problem.n)
    return RunRow(
        method=solver_cfg.method,
        repeat=rep,
        seed=solver_cfg.seed,
        iterations=iterations,
        solver_calls=solver_calls,
        eval_calls=eval_calls,
        final_objective=final_obj,
        final_stationarity=final_stat,
        batch_cap_hits=cap_hits,
        diverged=diverged,
        wall_ms=wall_ms,
        trace_path=trace_path,
    )


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunSummary:
    """Run the methods x repeats grid and write traces plus summary.yaml."""
    _validate(cfg)
    os.makedirs(out_dir, exist_ok=True)

    # one dense matrix from the parse on: filled in split order, scaled in
    # place, and handed out as row views
    split_seed = _derive_seed(cfg.seed, 0) if cfg.split else None
    try:
        data = load_libsvm(
            cfg.dataset_path, d_hint=cfg.d_hint, normalize=cfg.normalize, split_seed=split_seed
        )
    except SplitError as exc:  # a file of no rows is a ParseError
        raise ConfigError(
            f"split.enabled needs at least 2 data rows, but {cfg.dataset_path} has 1"
        ) from exc
    train, test = (data.train, data.test) if cfg.split else (data, None)
    problem = _build_problem(cfg, train)
    test_problem = None
    if test is not None:
        test_problem = dataclasses.replace(problem, dataset=test)

    if cfg.sigma2 is not None:
        sigma2 = cfg.sigma2
    else:
        rng = np.random.default_rng(_derive_seed(cfg.seed, 2))
        x0 = np.zeros(train.d)
        sigma2 = estimate_sigma2(problem, x0, min(problem.n, 1024), rng)
    L = estimate_L(problem)
    varsigma, opnorm = problem.constraint.spectrum

    # build each method's solver config once, surfacing bad method parameters
    # as config errors before any cell runs
    solver_cfgs = []
    for i, method in enumerate(cfg.methods):
        try:
            params = make_admm_params(problem.constraint, method.beta, method.eta, r=method.r)
            sched = SchedulerParams(
                c_tau=method.c_tau,
                c_eps=method.c_eps,
                epsilon=method.epsilon,
                sigma2=sigma2,
                n=problem.n,
                tau_init=method.tau_init,
            )
            solver_cfgs.append(
                SolverConfig(
                    method=method.name,
                    admm=params,
                    sched=sched,
                    max_iters=cfg.max_iters,
                    b=method.b,
                    T=method.T,
                    q=method.q,
                    oracle_budget=cfg.oracle_budget,
                    target_epsilon=cfg.target_epsilon,
                    eval_stride=cfg.eval_stride,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"methods[{i}] ({method.name}): {exc}") from exc

    rows = []
    for solver_cfg in solver_cfgs:
        for rep in range(cfg.repeats):
            seeded = dataclasses.replace(solver_cfg, seed=_derive_seed(cfg.seed, 1, rep))
            trace_path = os.path.join(out_dir, f"trace_{solver_cfg.method}_rep{rep}.csv")
            rows.append(_run_cell(problem, test_problem, seeded, rep, trace_path))

    aggregates = {}
    for method in cfg.methods:
        done = [r for r in rows if r.method == method.name and not r.diverged]
        if done:
            aggregates[method.name] = {
                "runs": len(done),
                "diverged": cfg.repeats - len(done),
                "final_objective_mean": float(np.mean([r.final_objective for r in done])),
                "final_objective_std": float(np.std([r.final_objective for r in done])),
                "final_stationarity_mean": float(np.mean([r.final_stationarity for r in done])),
                "solver_calls_mean": float(np.mean([r.solver_calls for r in done])),
            }
        else:
            aggregates[method.name] = {"runs": 0, "diverged": cfg.repeats}

    summary = RunSummary(
        version=__version__,
        sigma2=float(sigma2),
        L=float(L),
        varsigma=float(varsigma),
        opnorm=float(opnorm),
        n_train=train.n,
        n_test=0 if test is None else test.n,
        rows=rows,
        aggregates=aggregates,
    )
    summary.write_yaml(os.path.join(out_dir, "summary.yaml"))
    return summary
