"""Experiment harness: a config file in, per-run trace CSVs and a summary out.

The grid is methods x repeats.  One base seed fixes everything: the split,
the variance estimate, and one solver seed per repeat (shared across methods
so static/adaptive pairs see the same randomness).  Given the same config and
seed, every output byte is reproducible except wall-clock fields.
"""

import concurrent.futures
import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .advisor import estimate_L, spectral_bounds
from .datasets import load_libsvm
from .errors import ConfigError, DivergenceError, ParseError
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
    workers: int = 1
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
            yaml.safe_dump(payload, fh, sort_keys=False)


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
    return val


def _int(value, key):
    """An integer config value (None passes through); never truncates."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")

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
        unknown = set(entry) - allowed
        if unknown:
            raise ConfigError(f"methods[{i}] has unknown keys {sorted(unknown)}")
        name = _need(entry, "name", f"methods[{i}]")
        if name not in METHODS:
            raise ConfigError(f"methods[{i}].name {name!r} not one of {METHODS}")
        try:
            methods.append(
                MethodSpec(
                    name=name,
                    beta=float(_need(entry, "beta", f"methods[{i}]")),
                    eta=float(_need(entry, "eta", f"methods[{i}]")),
                    r=None if entry.get("r") is None else float(entry["r"]),
                    c_tau=float(entry.get("c_tau", 1.0)),
                    c_eps=float(entry.get("c_eps", 1.0)),
                    epsilon=float(entry.get("epsilon", 1e-3)),
                    tau_init=float(entry.get("tau_init", 0.0)),
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
            l1=float(_need(prob, "l1", "problem")),
            l2=float(prob.get("l2", 0.0)),
            corr_threshold=float(prob.get("corr_threshold", 0.7)),
            methods=tuple(methods),
            seed=_int(doc.get("seed", 0), "seed"),
            repeats=_int(doc.get("repeats", 5), "repeats"),
            workers=_int(doc.get("workers", 1), "workers"),
            max_iters=_int(_need(budget, "max_iters", "budget"), "budget.max_iters"),
            oracle_budget=_int(budget.get("oracle_budget"), "budget.oracle_budget"),
            target_epsilon=(
                None if budget.get("target_epsilon") is None else float(budget["target_epsilon"])
            ),
            eval_stride=_int(doc.get("eval_stride"), "eval_stride"),
            sigma2=None if doc.get("sigma2") is None else float(doc["sigma2"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _validate(cfg: ExperimentConfig):
    if cfg.d_hint is not None and cfg.d_hint < 1:
        raise ConfigError(f"dataset.d_hint must be at least 1, got {cfg.d_hint}")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.max_iters < 0:
        raise ConfigError("budget.max_iters must be nonnegative")
    if not cfg.l1 >= 0.0:
        raise ConfigError("problem.l1 must be nonnegative")
    if not cfg.l2 >= 0.0:
        raise ConfigError("problem.l2 must be nonnegative")


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
    except ParseError:
        raise
    except ValueError as exc:  # the split's row count; a file of no rows is a ParseError
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
    varsigma, opnorm = spectral_bounds(problem.constraint)

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

    cells = []
    for solver_cfg in solver_cfgs:
        for rep in range(cfg.repeats):
            seeded = dataclasses.replace(solver_cfg, seed=_derive_seed(cfg.seed, 1, rep))
            trace_path = os.path.join(out_dir, f"trace_{solver_cfg.method}_rep{rep}.csv")
            cells.append((problem, test_problem, seeded, rep, trace_path))

    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_run_cell_star, cells))
    else:
        rows = [_run_cell(*cell) for cell in cells]

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


def _run_cell_star(cell):
    return _run_cell(*cell)
