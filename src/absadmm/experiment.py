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
from .advisor import _report, estimate_L, feasibility_at
from .datasets import d_hint_fault, load_libsvm
from .errors import ConfigError, SplitError
from .estimators import estimate_sigma2
from .kernel import make_admm_params, stationarity
from .problems import build_fused_logistic, build_graph_guided, objective
from .schedulers import SchedulerParams, adaptive_batch, progress_binds_above
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
    """One method entry of the experiment grid; construction reads each field
    by its type, from a file's entry or a script, so ``beta="x"`` raises a
    ConfigError that names ``beta``."""

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

    def __post_init__(self):
        _type_fields(self, {})


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, built from a file, by ``dataclasses.replace`` or in a script:
    construction reads each field by its type, then raises a ConfigError naming
    the config key of the first broken rule."""

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

    def __post_init__(self):
        _type_fields(self, _FILE_KEYS)
        if self.problem_kind not in ("fused_logistic", "graph_guided"):
            raise ConfigError(f"unknown problem.kind {self.problem_kind!r}")
        if not self.methods:
            raise ConfigError("config must list at least one method under 'methods'")
        first = {}
        for i, method in enumerate(self.methods):
            if not isinstance(method, MethodSpec):
                raise ConfigError(f"methods[{i}] must be a MethodSpec, got {method!r}")
            name = method.name
            if name not in METHODS:
                raise ConfigError(f"methods[{i}].name {name!r} not one of {METHODS}")
            # each cell writes trace_<name>_rep<k>.csv: a repeated name overwrites traces
            if first.setdefault(name, i) < i:
                raise ConfigError(f"methods[{i}].name {name!r} repeats methods[{first[name]}]")
        fault = d_hint_fault(self.d_hint)
        if fault:
            raise ConfigError(f"dataset.d_hint {fault}")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.max_iters < 0:
            raise ConfigError("budget.max_iters must be nonnegative")
        if self.oracle_budget is not None and self.oracle_budget < 1:
            raise ConfigError("budget.oracle_budget must be positive when set")
        if self.target_epsilon is not None and not self.target_epsilon > 0.0:
            raise ConfigError("budget.target_epsilon must be positive when set")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ConfigError("eval_stride must be at least 1 when set")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sigma2 is not None and not 0.0 <= self.sigma2 < math.inf:
            raise ConfigError(f"sigma2 must be nonnegative and finite when set, got {self.sigma2}")
        for key, value in (("problem.l1", self.l1), ("problem.l2", self.l2)):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be nonnegative and finite, got {value}")
        # checked whatever the kind, as l2 is, though only graph_guided reads it
        if not 0.0 < self.corr_threshold <= 1.0:
            raise ConfigError(
                f"problem.corr_threshold must lie in (0, 1], got {self.corr_threshold}"
            )


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
    stop: str  # "target", "oracle_budget", "max_iters" or "diverged"
    wall_ms: float
    eval_ms: float  # of wall_ms, the time inside evaluations
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
    initial_objective: float
    initial_stationarity: float
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


def _str(value, key):
    """A text config value: a string, or a number read as its text, as in ``path: 2024``."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{key} must be text, got {value!r}")
    return str(value)


# the reader of each config field type; from a file a null never reaches one,
# from Python one reaches a field whose default is not None
_READERS = {
    int: _int, Optional[int]: _int, float: _float, Optional[float]: _float, bool: _bool, str: _str
}

# the file key of each ExperimentConfig field but methods
_FILE_KEYS = {
    name: f"{section}.{key}" if section else key
    for section, keys in _CONFIG_KEYS.items()
    for key, name in keys.items()
}


def _type_fields(obj, keys):
    """Read each field of the frozen dataclass ``obj`` in place by its type,
    naming ``keys[name]`` (else the field's name) in a fault; a None stays
    where the field's default is None."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in _READERS and not (value is None and f.default is None):
            object.__setattr__(obj, f.name, _READERS[f.type](value, keys.get(f.name, f.name)))


def _given(mapping, keys, cls, where):
    """The values the file's ``mapping`` at ``where`` ("" for the top level)
    gives for ``keys`` ({file key: field of ``cls``}), by field and as read:
    ``cls`` types them.  Any other key is unknown, a null counts as an absent
    key, and an absent key whose field has no default is missing."""
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ConfigError(f"{where or 'config'} has unknown keys {sorted(unknown, key=str)}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for key, name in keys.items():
        if mapping.get(key) is not None:
            values[name] = mapping[key]
        elif defaults[name] is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {f'{where}.{key}' if where else key}")
    return values


def _method(entry, where):
    """One methods entry as a MethodSpec, whose faults are named by ``where``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    names = [f.name for f in dataclasses.fields(MethodSpec)]
    values = _given(entry, dict(zip(names, names)), MethodSpec, where)
    try:
        return MethodSpec(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read a YAML experiment config's layout; the MethodSpecs and the
    ExperimentConfig it builds from the given values type and check them."""
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
    entries = doc.pop("methods", None)
    sections = {section: doc.pop(section, None) for section in _CONFIG_KEYS if section}
    values = _given(doc, _CONFIG_KEYS[""], ExperimentConfig, "")
    for section, mapping in sections.items():
        if not isinstance(mapping, (dict, type(None))):
            raise ConfigError(f"config section {section!r} must be a mapping")
        values.update(_given(mapping or {}, _CONFIG_KEYS[section], ExperimentConfig, section))
    # absent or null is no methods, which the config rejects
    if not isinstance(entries, (list, type(None))):
        raise ConfigError(f"methods must be a list of method entries, got {entries!r}")
    methods = tuple(_method(entry, f"methods[{i}]") for i, entry in enumerate(entries or ()))
    return ExperimentConfig(methods=methods, **values)


def _derive_seed(base: int, *tags) -> int:
    return int(np.random.SeedSequence((base,) + tags).generate_state(1, dtype=np.uint64)[0])


def _build_problem(cfg: ExperimentConfig, ds):
    if cfg.problem_kind == "fused_logistic":
        return build_fused_logistic(ds, cfg.l1)
    return build_graph_guided(ds, cfg.l1, cfg.l2, cfg.corr_threshold)


def _run_cell(problem, test_problem, solver_cfg: SolverConfig, rep: int, trace_path: str):
    """Execute one grid cell and write its trace; returns a RunRow."""
    test_fn = None if test_problem is None else (lambda x: objective(test_problem, x))
    t0 = time.perf_counter()
    result = run(problem, solver_cfg, test_objective=test_fn)
    wall_ms = (time.perf_counter() - t0) * 1e3
    trace, final = result.trace, result.final  # a diverged run has no final report
    emit_trace_csv(trace, trace_path)
    return RunRow(
        method=solver_cfg.method,
        repeat=rep,
        seed=solver_cfg.seed,
        iterations=len(trace),
        solver_calls=result.solver_calls,
        eval_calls=result.eval_calls,
        final_objective=math.nan if final is None else final.objective,
        final_stationarity=math.nan if final is None else final.total,
        batch_cap_hits=result.cap_hits,
        diverged=result.stop == "diverged",
        stop=result.stop,
        wall_ms=wall_ms,
        eval_ms=result.eval_ms,
        trace_path=trace_path,
    )


def _set_up(cfg: ExperimentConfig):
    """Load, build and measure what cfg's grid runs on: the train problem, the
    held-out one (None without a split), sigma2, L, one unseeded SolverConfig
    per method, whose parameters are checked here (cfg checked its own rules when
    built), and the StationarityReport at x_0 = y_0 = lam_0 = 0, where every run
    starts, charged to no cell.  ``run_experiment`` and ``describe_run`` both set
    up here."""
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
    test_problem = None if test is None else dataclasses.replace(problem, dataset=test)

    if cfg.sigma2 is not None:
        sigma2 = cfg.sigma2
    else:
        rng = np.random.default_rng(_derive_seed(cfg.seed, 2))
        x0 = np.zeros(train.d)
        with np.errstate(over="ignore", invalid="ignore"):
            sigma2 = estimate_sigma2(problem, x0, min(problem.n, 1024), rng)
        # the estimate is no method's fault: name what the user can change
        if not math.isfinite(sigma2):
            raise ConfigError(
                f"sigma2 estimated from the training data is not finite ({sigma2}); "
                "set sigma2, or scale the features with dataset.normalize: true"
            )
    L = estimate_L(problem)
    zeros = np.zeros(problem.constraint.m)
    # an overflow here reads as initial_stationarity: .inf
    with np.errstate(over="ignore", invalid="ignore"):
        initial = stationarity(problem, np.zeros(problem.constraint.d1), zeros, zeros, zeros)

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
    return problem, test_problem, sigma2, L, solver_cfgs, initial


def describe_run(cfg: ExperimentConfig) -> dict:
    """``advise``'s report on the problem ``run_experiment`` would set up for
    cfg, and per method what its SolverConfig makes of it: r, eta/r, the
    static batch cap against n, the mean squared step above which an adaptive
    method's progress term c_tau*sigma2/tau falls below min(c_eps*sigma2/epsilon,
    n), and the analysis's sufficient conditions at the method's own beta, eta, r
    and c_tau; then the objective and stationarity at x_0, where every run
    starts.  cfg checked its own rules when built, as for ``run_experiment``."""
    problem, _, sigma2, L, solver_cfgs, initial = _set_up(cfg)
    varsigma, opnorm = problem.constraint.spectrum
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
            "progress_binds_above": progress_binds_above(sp) if adaptive else None,
            "sufficient_conditions": dataclasses.asdict(feas),
        }
        methods.append(entry)
    return {
        "problem": dataclasses.asdict(_report(problem, L, sigma2)),
        "methods": methods,
        "initial": {"objective": initial.objective, "stationarity": initial.total},
    }


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunSummary:
    """Run the methods x repeats grid and write traces plus summary.yaml."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    problem, test_problem, sigma2, L, solver_cfgs, initial = _set_up(cfg)
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
        initial_objective=initial.objective,
        initial_stationarity=initial.total,
        rows=rows,
        aggregates=aggregates,
    )
    summary.write_yaml(os.path.join(out_dir, "summary.yaml"))
    return summary
