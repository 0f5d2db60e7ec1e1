"""Experiment harness: a config file in, per-run trace CSVs and a summary out.

The grid is methods x repeats.  One base seed fixes everything: the split,
the variance estimate, and one solver seed per repeat (shared across methods
so static/adaptive pairs see the same randomness).  Given the same config and
seed, every output byte is reproducible except wall-clock fields.  The cells
run one after another in this process.  ``describe_run`` sets up the same
grid, runs nothing, and reports it beside the analysis's conditions.
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
from .advisor import advise, estimate_L, feasibility_at
from .datasets import d_hint_fault, load_libsvm
from .errors import ConfigError, DivergenceError, SplitError
from .estimators import OracleTally, estimate_sigma2
from .kernel import make_admm_params, stationarity
from .problems import build_fused_logistic, build_graph_guided, objective
from .schedulers import SchedulerParams, adaptive_batch
from .solvers import METHODS, SolverConfig, TraceRecord, run

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "RunRow",
    "RunSummary",
    "load_config",
    "run_experiment",
    "describe_run",
    "emit_trace_csv",
    "parse_trace_csv",
]

# the file key of each ExperimentConfig field but methods: section -> {key: field},
# with "" for the top level
_CONFIG_KEYS = {
    "": {"seed": "seed", "repeats": "repeats", "eval_stride": "eval_stride", "sigma2": "sigma2"},
    "dataset": {"path": "dataset_path", "d_hint": "d_hint", "normalize": "normalize"},
    "problem": {"kind": "problem_kind", "l1": "l1", "l2": "l2", "corr_threshold": "corr_threshold"},
    "budget": {
        "max_iters": "max_iters",
        "oracle_budget": "oracle_budget",
        "target_epsilon": "target_epsilon",
    },
    "split": {"enabled": "split"},
}

# libyaml's parser and emitter when PyYAML was built with them: the same
# documents and bytes as the pure-Python ones, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class _ConfigLoader(_YAML_LOADER):
    """The config loader: a key given twice in one mapping is a config error.

    PyYAML keeps a repeated key's last value.  The composed nodes are checked
    before they are constructed, so a key that a merge (``<<``) brings in may
    still be overridden, as YAML allows.  The repeat that comes first in the
    file is the one reported.
    """

    def construct_document(self, node):
        todo, seen, repeats = [(node, "")], set(), []
        while todo:
            item, where = todo.pop()
            if isinstance(item, yaml.ScalarNode) or id(item) in seen:
                continue
            seen.add(id(item))  # an alias is checked once, under its first path
            if isinstance(item, yaml.SequenceNode):
                todo.extend((entry, f"{where}[{i}]") for i, entry in enumerate(item.value))
                continue
            first = {}
            for key, value in item.value:
                if key.tag == "tag:yaml.org,2002:merge" or not isinstance(key, yaml.ScalarNode):
                    todo.append((value, where))
                    continue
                path = f"{where}.{key.value}" if where else key.value
                was = first.setdefault((key.tag, key.value), key)
                if was is not key:
                    repeats.append((key.start_mark.line + 1, was.start_mark.line + 1, path))
                todo.append((value, path))
        if repeats:
            line, was, path = min(repeats)
            raise ConfigError(f"config key {path} is given twice, on lines {was} and {line}")
        return super().construct_document(node)


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
    max_iters: int
    seed: int = 0
    repeats: int = 5
    d_hint: Optional[int] = None
    normalize: bool = False
    split: bool = True
    l2: float = 0.0
    corr_threshold: float = 0.7
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


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown, key=str)}")


def _int(value, key):
    """An integer config value; never truncates."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _float(value, key):
    """A real config value; a boolean is not read as 0 or 1.

    Strings go through float(): PyYAML reads 1e-3 (no dot) as the string '1e-3'.
    A value that float() cannot read is a config error that names the key.
    """
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


# the reader of each config field type; a null never reaches one
_READERS = {int: _int, Optional[int]: _int, float: _float, Optional[float]: _float, bool: _bool}
_READERS[str] = lambda value, key: str(value)


def _read(field, value, path, key):
    """Read config ``value`` by its dataclass ``field``'s type and default.

    A null counts as an absent key: it takes the field's default, or is the
    missing required key ``path`` when the field has none.  A value of the
    wrong type is a config error that names ``key``.
    """
    if value is None:
        if field.default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {path}")
        return field.default
    return _READERS[field.type](value, key)


def _method(entry, where):
    """One methods entry, read field by field as a MethodSpec."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    fields = dataclasses.fields(MethodSpec)
    _reject_unknown(entry, [f.name for f in fields], where)
    values = {}
    for f in fields:
        values[f.name] = _read(f, entry.get(f.name), f"{where}.{f.name}", f"{where}: {f.name}")
    if values["name"] not in METHODS:
        raise ConfigError(f"{where}.name {values['name']!r} not one of {METHODS}")
    return MethodSpec(**values)


def load_config(path) -> ExperimentConfig:
    """Parse a YAML experiment config, reading each key by its dataclass field."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    # older configs say workers: 1, so that value still loads
    workers = doc.pop("workers", None)
    if workers is not None and _int(workers, "workers") != 1:
        raise ConfigError(f"workers must be 1, got {workers!r}: the grid runs in one process")
    _reject_unknown(doc, [*_CONFIG_KEYS[""], *_CONFIG_KEYS, "methods"], "config")

    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for section, keys in _CONFIG_KEYS.items():
        mapping = doc
        if section:
            mapping = doc.get(section)
            if mapping is None:
                mapping = {}
            if not isinstance(mapping, dict):
                raise ConfigError(f"config section {section!r} must be a mapping")
            _reject_unknown(mapping, keys, section)
        for key, name in keys.items():
            where = f"{section}.{key}" if section else key
            values[name] = _read(fields[name], mapping.get(key), where, where)
    if values["problem_kind"] not in ("fused_logistic", "graph_guided"):
        raise ConfigError(f"unknown problem.kind {values['problem_kind']!r}")

    raw_methods = doc.get("methods")
    if not raw_methods or not isinstance(raw_methods, list):
        raise ConfigError("config must list at least one method under 'methods'")
    methods = tuple(_method(entry, f"methods[{i}]") for i, entry in enumerate(raw_methods))
    # each cell writes trace_<name>_rep<k>.csv, so a repeated name would
    # overwrite the first entry's traces
    names = [m.name for m in methods]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"methods[{i}].name {name!r} repeats methods[{names.index(name)}]")
    return ExperimentConfig(methods=methods, **values)


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
    try:
        result = run(problem, solver_cfg, test_objective=test_fn)
        trace, tally, diverged = result.trace, result.state.tally, False
    except DivergenceError as exc:  # its tally holds what the run was charged
        trace, tally, diverged = exc.trace, exc.tally or OracleTally(), True
    wall_ms = (time.perf_counter() - t0) * 1e3
    emit_trace_csv(trace, trace_path)
    if diverged:
        final_obj = final_stat = float("nan")
    elif trace:  # the stopping row is always an evaluation row
        final_obj, final_stat = trace[-1].objective, trace[-1].stationarity
    else:  # max_iters: 0
        report = stationarity(problem, result.state)
        tally.eval_calls += problem.n
        final_obj, final_stat = report.objective, report.total
    # anchors at the static cap: every sadmm row (epoch 0) is an anchor, and
    # a variance-reduced method's anchor opens a window, a new epoch
    cap = adaptive_batch(solver_cfg.sched, 0.0)
    cap_hits = sum(
        rec.batch_size == cap and (rec.epoch == 0 or rec.epoch != prev)
        for rec, prev in zip(trace, [None] + [rec.epoch for rec in trace])
    )
    return RunRow(
        method=solver_cfg.method,
        repeat=rep,
        seed=solver_cfg.seed,
        iterations=len(trace),
        solver_calls=tally.solver_calls,
        eval_calls=tally.eval_calls,
        final_objective=final_obj,
        final_stationarity=final_stat,
        batch_cap_hits=cap_hits,
        diverged=diverged,
        wall_ms=wall_ms,
        trace_path=trace_path,
    )


def _set_up(cfg: ExperimentConfig):
    """Load, build and measure what a validated config's grid runs on: the
    train problem, the held-out one (None without a split), sigma2, L and one
    unseeded SolverConfig per method.  ``run_experiment`` and ``describe_run``
    both set up here, so they see the same problem."""
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
    return problem, test_problem, sigma2, L, solver_cfgs


def describe_run(cfg: ExperimentConfig) -> dict:
    """``advise``'s report on the problem ``run_experiment`` would set up for
    cfg, and per method what its SolverConfig makes of it: r, eta/r, the
    static batch cap against n, the mean squared step above which an adaptive
    method's progress term undercuts that cap, and the analysis's sufficient
    conditions at the method's own beta, eta, r and c_tau."""
    _validate(cfg)
    problem, _, sigma2, L, solver_cfgs = _set_up(cfg)
    varsigma, opnorm = problem.constraint.spectrum
    report = dataclasses.asdict(advise(problem, sigma2=sigma2))
    # the (beta, eta, c_tau) fields are per method here
    pair_keys = ("beta", "eta", "c_tau", "feasibility")
    methods = []
    for solver_cfg in solver_cfgs:
        admm, sp = solver_cfg.admm, solver_cfg.sched
        # a static method's progress term never binds
        adaptive = solver_cfg.method.endswith("_adaptive")
        feas = feasibility_at(admm, sp.c_tau, L, varsigma, opnorm)
        entry = {
            "name": solver_cfg.method,
            "beta": admm.beta,
            "eta": admm.eta,
            "r": admm.r,
            "eta_over_r": admm.eta / admm.r,
            "sigma2": sp.sigma2,
            "c_eps_sigma2_over_epsilon": sp.c_eps * sp.sigma2 / sp.epsilon,
            "static_cap": adaptive_batch(sp, 0.0),
            "n": sp.n,
            "progress_binds_above": sp.c_tau * sp.epsilon / sp.c_eps if adaptive else None,
            "sufficient_conditions": dataclasses.asdict(feas),
        }
        methods.append(entry)
    return {"problem": {k: v for k, v in report.items() if k not in pair_keys}, "methods": methods}


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunSummary:
    """Run the methods x repeats grid and write traces plus summary.yaml."""
    _validate(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    problem, test_problem, sigma2, L, solver_cfgs = _set_up(cfg)
    varsigma, opnorm = problem.constraint.spectrum

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
        n_train=problem.n,
        n_test=0 if test_problem is None else test_problem.n,
        rows=rows,
        aggregates=aggregates,
    )
    summary.write_yaml(os.path.join(out_dir, "summary.yaml"))
    return summary
