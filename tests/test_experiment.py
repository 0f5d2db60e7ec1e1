import dataclasses
import gzip
import math
import pathlib
import re

import numpy as np
import pytest
import yaml

import absadmm.experiment as experiment
import absadmm.solvers as solvers
from absadmm.cli import main
from absadmm.errors import ConfigError, DivergenceError
from absadmm.datasets import Dataset, dump_libsvm
from absadmm.experiment import (
    ExperimentConfig,
    MethodSpec,
    emit_trace_csv,
    load_config,
    parse_trace_csv,
    run_experiment,
)
from absadmm.solvers import METHODS, TraceRecord


@pytest.fixture
def data_file(tmp_path, make_dataset):
    path = tmp_path / "toy.txt"
    path.write_text(dump_libsvm(make_dataset(24, 4, seed=17)))
    return str(path)


def _config_doc(data_path, **overrides):
    doc = {
        "dataset": {"path": data_path},
        "problem": {"kind": "fused_logistic", "l1": 0.05},
        "budget": {"max_iters": 8},
        "split": {"enabled": True},
        "methods": [
            {"name": "sadmm", "beta": 1.0, "eta": 0.5},
            {
                "name": "svrg_admm_adaptive",
                "beta": 1.0,
                "eta": 0.5,
                "b": 3,
                "T": 2,
                "c_eps": 2.0,
                "epsilon": 0.01,
                "tau_init": 1.0,
            },
        ],
        "seed": 3,
        "repeats": 2,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_file(tmp_path, data_file):
    def write(**overrides):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(_config_doc(data_file, **overrides)))
        return str(path)

    return write


def test_load_config_happy(config_file):
    cfg = load_config(config_file())
    assert cfg.problem_kind == "fused_logistic"
    assert cfg.l1 == 0.05
    assert cfg.repeats == 2 and cfg.seed == 3
    assert cfg.max_iters == 8 and cfg.oracle_budget is None
    assert cfg.corr_threshold == 0.7  # default
    assert len(cfg.methods) == 2
    assert cfg.methods[0] == MethodSpec(name="sadmm", beta=1.0, eta=0.5)
    assert cfg.methods[1].T == 2 and cfg.methods[1].tau_init == 1.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.yaml"))


def test_load_config_bad_yaml(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("methods: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot parse config {path}: ")


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda d: d.pop("methods"), "at least one method"),
        (lambda d: d.update(methods=[]), "at least one method"),
        (lambda d: d.update(methods="sadmm"), "at least one method"),
        (lambda d: d["methods"][0].pop("name"), "missing required config key"),
        (lambda d: d["methods"][0].update(name="sgd"), "not one of"),
        (lambda d: d["methods"][0].update(step_size=0.1), "unknown keys"),
        (lambda d: d["methods"][0].update(beta="big"), r"methods\[0\]"),
        (lambda d: d["problem"].pop("kind"), "problem.kind"),
        (lambda d: d["problem"].update(kind="lasso"), "unknown problem.kind"),
        (lambda d: d["budget"].pop("max_iters"), "budget.max_iters"),
        (lambda d: d["dataset"].pop("path"), "dataset.path"),
        (lambda d: d.update(problem=[1, 2]), "must be a mapping"),
    ],
)
def test_load_config_rejects(tmp_path, data_file, mutate, msg):
    doc = _config_doc(data_file)
    mutate(doc)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=msg):
        load_config(str(path))


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda d: d["dataset"].update(normalize="false"), "dataset.normalize"),
        (lambda d: d["dataset"].update(normalize=1), "dataset.normalize"),
        (lambda d: d["split"].update(enabled="no"), "split.enabled"),
        (lambda d: d.update(repeats=2.7), "repeats"),
        (lambda d: d.update(repeats=True), "repeats"),
        (lambda d: d.update(workers=2), "workers"),
        (lambda d: d["budget"].update(max_iters=8.5), "budget.max_iters"),
        (lambda d: d["budget"].update(oracle_budget=100.5), "budget.oracle_budget"),
        (lambda d: d.update(eval_stride=2.5), "eval_stride"),
        (lambda d: d["dataset"].update(d_hint="4"), "dataset.d_hint"),
        (lambda d: d["methods"][0].update(b=2.5), r"methods\[0\]: b"),
        (lambda d: d["methods"][1].update(T=1.5), r"methods\[1\]: T"),
        (lambda d: d["methods"][1].update(q=3.3), r"methods\[1\]: q"),
        (lambda d: d.update(repeat=3), r"config has unknown keys \['repeat'\]"),
        (lambda d: d["dataset"].update(normlize=True), r"dataset has unknown keys \['normlize'\]"),
        (lambda d: d["problem"].update(l3=0.1), r"problem has unknown keys \['l3'\]"),
        (
            lambda d: d["budget"].update(target_epsilom=0.1),
            r"budget has unknown keys \['target_epsilom'\]",
        ),
        (lambda d: d["split"].update(enable=False), r"split has unknown keys \['enable'\]"),
        (lambda d: d["problem"].update(l1=True), "problem.l1 must be a number, got True"),
        (
            lambda d: d["budget"].update(target_epsilon=True),
            "budget.target_epsilon must be a number, got True",
        ),
        (lambda d: d["methods"][0].update(r=False), r"methods\[0\]: r must be a number, got False"),
        (lambda d: d.update(sigma2=False), "sigma2 must be a number, got False"),
        (lambda d: d["problem"].update(l1="abc"), "problem.l1 must be a number, got 'abc'"),
        (
            lambda d: d["methods"][0].update(eta="big"),
            r"methods\[0\]: eta must be a number, got 'big'",
        ),
    ],
)
def test_load_config_rejects_mistyped_values(tmp_path, data_file, capsys, mutate, msg):
    doc = _config_doc(data_file)
    mutate(doc)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=msg):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_load_config_accepts_integral_floats(config_file):
    cfg = load_config(config_file(repeats=2.0, budget={"max_iters": 8.0, "oracle_budget": 1.0e5}))
    assert cfg.repeats == 2 and type(cfg.repeats) is int
    assert cfg.max_iters == 8 and cfg.oracle_budget == 100000


def test_load_config_reads_exponent_strings_as_numbers(tmp_path, data_file):
    # PyYAML reads 1e-3 (no dot) as the string '1e-3', not as a float
    text = yaml.safe_dump(_config_doc(data_file)).replace("epsilon: 0.01", "epsilon: 1e-3")
    assert "epsilon: 1e-3\n" in text
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    assert load_config(str(path)).methods[1].epsilon == 0.001


def test_load_config_root_not_mapping(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(str(path))


def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def _set_null(doc, where):
    """Set the key at path ``where`` (section, method index, key) of ``doc`` to null."""
    *parents, key = where
    for part in parents:
        doc = doc[part]
    doc[key] = None


# a null counts as an absent key: each of these loads its field's default;
# methods[1] is svrg_admm_adaptive, whose entry sets b, T, c_eps, epsilon and
# tau_init away from their defaults
_NULL_DEFAULTED = [
    (("seed",), "seed"),
    (("repeats",), "repeats"),
    (("eval_stride",), "eval_stride"),
    (("sigma2",), "sigma2"),
    (("dataset", "d_hint"), "d_hint"),
    (("dataset", "normalize"), "normalize"),
    (("problem", "l2"), "l2"),
    (("problem", "corr_threshold"), "corr_threshold"),
    (("budget", "oracle_budget"), "oracle_budget"),
    (("budget", "target_epsilon"), "target_epsilon"),
    (("split", "enabled"), "split"),
    (("split",), "split"),
] + [
    (("methods", 1, key), key)
    for key in ("r", "c_tau", "c_eps", "epsilon", "tau_init", "b", "T", "q")
]

# ... and each of these is a missing required key, named as in the message
_NULL_REQUIRED = [
    (("dataset", "path"), "dataset.path"),
    (("dataset",), "dataset.path"),
    (("problem", "kind"), "problem.kind"),
    (("problem", "l1"), "problem.l1"),
    (("problem",), "problem.kind"),
    (("budget", "max_iters"), "budget.max_iters"),
    (("budget",), "budget.max_iters"),
    (("methods", 0, "name"), "methods[0].name"),
    (("methods", 1, "beta"), "methods[1].beta"),
    (("methods", 0, "eta"), "methods[0].eta"),
]


def _null_id(where):
    return ".".join(str(part) for part in where)


@pytest.mark.parametrize(
    "where, name", _NULL_DEFAULTED, ids=[_null_id(case[0]) for case in _NULL_DEFAULTED]
)
def test_null_loads_the_field_default(tmp_path, data_file, capsys, where, name):
    doc = _config_doc(data_file)
    _set_null(doc, where)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(str(path))
    if where[0] == "methods":
        assert getattr(cfg.methods[1], name) == _field_default(MethodSpec, name)
    else:
        assert getattr(cfg, name) == _field_default(ExperimentConfig, name)
    # ... and so does the run it configures
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_null_workers_loads(config_file):
    assert load_config(config_file(workers=None)).methods


@pytest.mark.parametrize(
    "where, key", _NULL_REQUIRED, ids=[_null_id(case[0]) for case in _NULL_REQUIRED]
)
def test_null_required_key_is_missing(tmp_path, data_file, capsys, where, key):
    doc = _config_doc(data_file)
    _set_null(doc, where)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=rf"^missing required config key {re.escape(key)}$"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: missing required config key {key}\n"


def test_duplicate_method_names_are_rejected(tmp_path, data_file, capsys):
    # both entries would write trace_sadmm_rep<k>.csv, the second over the first
    doc = _config_doc(data_file)
    doc["methods"].append({"name": "sadmm", "beta": 2.0, "eta": 0.25})
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    want = r"methods\[2\]\.name 'sadmm' repeats methods\[0\]"
    with pytest.raises(ConfigError, match=want):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert re.match(f"config error: {want}", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


_REPEATED_KEYS = {
    # PyYAML keeps the last value of a repeated key: seed 2, max_iters 3, eta 5.0
    "top_level": ("seed: 1\nseed: 2\n", "", "", "seed", 4, 5),
    "section": ("", "  max_iters: 3\n", "", "budget.max_iters", 5, 6),
    "method_entry": ("", "", ", eta: 5.0", "methods[0].eta", 8, 8),
}


@pytest.mark.parametrize("case", sorted(_REPEATED_KEYS))
@pytest.mark.parametrize("command", ["run", "advise"])
def test_repeated_config_key_is_rejected(tmp_path, data_file, capsys, case, command):
    top, section, entry, key, was, line = _REPEATED_KEYS[case]
    text = (
        f"dataset: {{path: {data_file}}}\n"
        "problem: {kind: fused_logistic, l1: 0.05}\n"
        "repeats: 1\n"
        f"{top}"
        "budget:\n"
        "  max_iters: 4\n"
        f"{section}"
        "split: {enabled: true}\n"
        "methods:\n"
        f"  - {{name: sadmm, beta: 1.0, eta: 0.5{entry}}}\n"
    )
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    want = f"config key {key} is given twice, on lines {was} and {line}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        load_config(str(path))
    args = ["--config", str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == f"config error: {want}\n"
    # without the repeat, the same text loads
    path.write_text(text.replace(top, "").replace(section, "").replace(entry, ""))
    assert load_config(str(path)).methods


def test_merged_config_key_may_be_overridden(tmp_path, data_file):
    path = tmp_path / "exp.yaml"
    path.write_text(
        f"dataset: {{path: {data_file}}}\n"
        "problem: {kind: fused_logistic, l1: 0.05}\n"
        "budget: {max_iters: 4}\n"
        "methods:\n"
        "  - &base {name: sadmm, beta: 1.0, eta: 0.5}\n"
        "  - {<<: *base, name: sadmm_adaptive, eta: 0.25}\n"
    )
    methods = load_config(str(path)).methods
    assert [(m.name, m.beta, m.eta) for m in methods] == [
        ("sadmm", 1.0, 0.5),
        ("sadmm_adaptive", 1.0, 0.25),
    ]


def _readme_schema():
    """The YAML block under "Config schema (YAML):" in README.md."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text.split("Config schema (YAML):", 1)[1]
    return after.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_schema_block_loads(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(_readme_schema())
    cfg = load_config(str(path))
    assert cfg.max_iters == 500
    assert [m.name for m in cfg.methods] == ["sadmm", "sadmm_adaptive", "svrg_admm_adaptive"]
    assert cfg.methods[1].c_eps == 3.0
    assert cfg.methods[2].b == 64 and cfg.methods[2].T == 10
    assert cfg.normalize is True and cfg.oracle_budget is None


def test_run_experiment_artifacts(tmp_path, config_file):
    out = tmp_path / "out"
    summary = run_experiment(load_config(config_file()), str(out))
    names = {f"trace_{m}_rep{r}.csv" for m in ("sadmm", "svrg_admm_adaptive") for r in (0, 1)}
    assert names | {"summary.yaml"} <= {p.name for p in out.iterdir()}
    assert summary.n_train == 12 and summary.n_test == 12
    assert len(summary.rows) == 4
    assert summary.sigma2 > 0.0 and summary.L > 0.0
    for row in summary.rows:
        assert not row.diverged
        assert row.iterations == 8
        assert np.isfinite(row.final_objective) and np.isfinite(row.final_stationarity)
    # summary file parses and mirrors the returned object
    loaded = yaml.safe_load((out / "summary.yaml").read_text())
    assert loaded["n_train"] == 12 and len(loaded["runs"]) == 4
    assert loaded["sigma2"] == pytest.approx(summary.sigma2)
    assert set(loaded["aggregates"]) == {"sadmm", "svrg_admm_adaptive"}
    assert loaded["aggregates"]["sadmm"]["runs"] == 2
    assert list(loaded) == [
        "version", "sigma2", "L", "varsigma", "opnorm", "n_train", "n_test", "runs", "aggregates"
    ]
    assert list(loaded["runs"][0]) == [f.name for f in dataclasses.fields(experiment.RunRow)]


def test_batch_cap_hits_count_anchors_at_the_static_cap(tmp_path, config_file):
    # sigma2 = 0.01 puts the static cap c_eps * sigma2 / epsilon at 10, below
    # the 12 train rows; svrg's inner batches of b = 10 sit at the cap too but
    # are not anchors, so only its 4 window heads count
    path = config_file(
        sigma2=0.01,
        repeats=1,
        methods=[
            {"name": "sadmm", "beta": 1.0, "eta": 0.5},
            {"name": "svrg_admm", "beta": 1.0, "eta": 0.5, "b": 10, "T": 2},
        ],
    )
    summary = run_experiment(load_config(path), str(tmp_path / "o"))
    sadmm, svrg = summary.rows
    assert summary.n_train == 12
    assert sadmm.iterations == 8 and sadmm.batch_cap_hits == 8
    assert svrg.iterations == 8 and svrg.batch_cap_hits == 4


def test_summary_yaml_bytes_are_those_of_safe_dump(tmp_path, config_file):
    """Whichever emitter PyYAML has, summary.yaml reads as ``yaml.safe_dump`` writes it."""
    out = tmp_path / "out"
    summary = run_experiment(load_config(config_file()), str(out))
    payload = {("runs" if k == "rows" else k): v for k, v in dataclasses.asdict(summary).items()}
    want = yaml.safe_dump(payload, sort_keys=False)
    assert (out / "summary.yaml").read_text() == want


def test_trace_has_test_objective_only_with_split(tmp_path, config_file):
    out_a = tmp_path / "a"
    run_experiment(load_config(config_file()), str(out_a))
    header = (out_a / "trace_sadmm_rep0.csv").read_text().splitlines()[0]
    assert header.endswith(",test_objective")

    out_b = tmp_path / "b"
    summary = run_experiment(load_config(config_file(split={"enabled": False})), str(out_b))
    assert summary.n_train == 24 and summary.n_test == 0
    header = (out_b / "trace_sadmm_rep0.csv").read_text().splitlines()[0]
    assert header == "iter,epoch,batch_size,oracle_calls,objective,stationarity,time_ms"


def test_trace_roundtrip_bytes(tmp_path, config_file):
    out = tmp_path / "out"
    run_experiment(load_config(config_file()), str(out))
    src = out / "trace_svrg_admm_adaptive_rep0.csv"
    back = parse_trace_csv(str(src))
    assert all(isinstance(rec, TraceRecord) for rec in back)
    dst = tmp_path / "again.csv"
    emit_trace_csv(back, str(dst))
    assert dst.read_bytes() == src.read_bytes()


def test_trace_roundtrip_empty_cells(tmp_path):
    trace = [
        TraceRecord(
            iter=1, epoch=1, batch_size=5, oracle_calls=5,
            objective=None, stationarity=None, time_ms=0.25,
        ),
        TraceRecord(
            iter=2, epoch=1, batch_size=3, oracle_calls=11,
            objective=0.6931471805599453, stationarity=1e-3, time_ms=0.5, test_objective=0.7,
        ),
    ]
    path = tmp_path / "t.csv"
    emit_trace_csv(trace, str(path))
    assert path.read_text().splitlines()[1] == "1,1,5,5,,,0.25,"
    assert parse_trace_csv(str(path)) == trace


def test_summary_reads_the_stopping_row(tmp_path, config_file):
    # no stride row falls inside the run, so only the budget stop evaluates
    cfg = load_config(config_file(budget={"max_iters": 50, "oracle_budget": 40}, eval_stride=100))
    summary = run_experiment(cfg, str(tmp_path / "out"))
    for row in summary.rows:
        trace = parse_trace_csv(row.trace_path)
        last = trace[-1]
        assert row.iterations == last.iter < 50
        assert last.oracle_calls >= 40 and last.stationarity is not None
        assert (row.final_objective, row.final_stationarity) == (last.objective, last.stationarity)
        assert row.eval_calls == summary.n_train


def test_zero_iterations_still_report_final_values(tmp_path, config_file):
    summary = run_experiment(load_config(config_file(budget={"max_iters": 0})), str(tmp_path / "o"))
    for row in summary.rows:
        assert row.iterations == 0 and row.solver_calls == 0
        assert row.eval_calls == summary.n_train
        assert np.isfinite(row.final_objective) and np.isfinite(row.final_stationarity)
        assert parse_trace_csv(row.trace_path) == []


def test_parse_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        parse_trace_csv(str(path))


def _rows_excluding_time(path):
    return [
        dataclasses.replace(rec, time_ms=0.0) for rec in parse_trace_csv(str(path))
    ]


def test_rerun_is_deterministic(tmp_path, config_file):
    cfg = load_config(config_file())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    sa = run_experiment(cfg, str(out_a))
    sb = run_experiment(cfg, str(out_b))
    assert sa.sigma2 == sb.sigma2
    for fa in sorted(out_a.glob("trace_*.csv")):
        assert _rows_excluding_time(fa) == _rows_excluding_time(out_b / fa.name)
    for ra, rb in zip(sa.rows, sb.rows):
        assert (ra.method, ra.repeat, ra.seed) == (rb.method, rb.repeat, rb.seed)
        assert ra.final_objective == rb.final_objective
        assert ra.solver_calls == rb.solver_calls


def test_seed_changes_stochastic_runs(tmp_path, config_file):
    # pin sigma2 low so batches stay below n and the draws matter
    path = config_file(sigma2=0.01, budget={"max_iters": 8})
    base = load_config(path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    sa = run_experiment(base, str(out_a))
    sb = run_experiment(dataclasses.replace(base, seed=4), str(out_b))
    diffs = [
        ra.final_objective != rb.final_objective
        for ra, rb in zip(sa.rows, sb.rows)
    ]
    assert any(diffs)


def test_bad_method_params_fail_before_running(tmp_path, config_file):
    path = config_file(
        methods=[{"name": "sadmm", "beta": -1.0, "eta": 0.5}]
    )
    with pytest.raises(ConfigError, match=r"methods\[0\] \(sadmm\)"):
        run_experiment(load_config(path), str(tmp_path / "out"))
    assert not (tmp_path / "out" / "summary.yaml").exists()


def test_admm_params_built_once_per_method(tmp_path, config_file, monkeypatch):
    built = []
    real = experiment.make_admm_params

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "make_admm_params", counting)
    summary = run_experiment(load_config(config_file()), str(tmp_path / "out"))
    assert len(summary.rows) == 4  # two methods x two repeats
    assert len(built) == 2


def test_later_bad_method_fails_before_any_cell(tmp_path, config_file, monkeypatch):
    ran = []
    monkeypatch.setattr(experiment, "run", lambda *a, **k: ran.append(a))
    path = config_file(
        methods=[
            {"name": "sadmm", "beta": 1.0, "eta": 0.5},
            {"name": "spider_admm", "beta": 1.0, "eta": 0.5, "q": 0},
        ]
    )
    with pytest.raises(ConfigError, match=r"methods\[1\] \(spider_admm\)"):
        run_experiment(load_config(path), str(tmp_path / "out"))
    assert ran == []


def test_undersized_r_detected_early(tmp_path, config_file):
    path = config_file(methods=[{"name": "sadmm", "beta": 1.0, "eta": 0.5, "r": 0.2}])
    with pytest.raises(ConfigError, match="below"):
        run_experiment(load_config(path), str(tmp_path / "out"))


def test_all_diverged_reported(tmp_path, config_file, monkeypatch):
    def explode(problem, cfg, test_objective=None, step_monitor=None):
        raise DivergenceError("non-finite iterate at iteration 1", trace=[])

    monkeypatch.setattr(experiment, "run", explode)
    out = tmp_path / "out"
    summary = run_experiment(load_config(config_file()), str(out))
    assert all(r.diverged for r in summary.rows)
    assert all(np.isnan(r.final_objective) for r in summary.rows)
    assert summary.aggregates["sadmm"] == {"runs": 0, "diverged": 2}
    # empty traces still leave well-formed files behind
    assert parse_trace_csv(str(out / "trace_sadmm_rep0.csv")) == []


def _diverge_at_row(monkeypatch, module, name, k, spoil):
    """Patch ``module.name`` so that its k-th call returns ``spoil(result)``."""
    real, calls = getattr(module, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return spoil(out) if len(calls) == k else out

    monkeypatch.setattr(module, name, patched)


@pytest.mark.parametrize("block", ["x", "stationarity"])
def test_diverged_cell_counts_its_evaluations(tmp_path, make_dataset, monkeypatch, block):
    # 100 train rows, an evaluation every 5th row; row 30 goes non-finite, so
    # rows 5, ..., 25 were evaluated, and a stationarity failure on row 30 was
    # charged for its evaluation too
    data = tmp_path / "toy.txt"
    data.write_text(dump_libsvm(make_dataset(100, 4, seed=5)))
    doc = _config_doc(
        str(data),
        split={"enabled": False},
        budget={"max_iters": 50},
        eval_stride=5,
        repeats=1,
        methods=[{"name": "sadmm", "beta": 1.0, "eta": 0.5}],
    )
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    if block == "x":
        _diverge_at_row(monkeypatch, solvers, "x_step", 30, lambda x: np.full_like(x, np.nan))
        charged_evaluations = 5
    else:
        nan_objective = lambda rep: dataclasses.replace(rep, objective=math.nan)  # noqa: E731
        _diverge_at_row(monkeypatch, solvers, "stationarity", 6, nan_objective)
        charged_evaluations = 6
    summary = run_experiment(load_config(str(path)), str(tmp_path / "out"))
    (row,) = summary.rows
    trace = parse_trace_csv(row.trace_path)
    assert row.diverged and row.iterations == len(trace) == 29
    assert sum(rec.objective is not None for rec in trace) == 5
    assert row.eval_calls == 100 * charged_evaluations
    # the ledger also holds the solver calls of the row that broke down
    assert row.solver_calls == 30 * trace[0].batch_size


def test_cli_list_methods(capsys):
    assert main(["--list-methods"]) == 0
    assert capsys.readouterr().out.splitlines() == list(METHODS)


def test_cli_no_command(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_cli_run_happy(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file(), "--out", str(out)]) == 0
    assert "4/4 runs finished" in capsys.readouterr().out
    assert (out / "summary.yaml").exists()


@pytest.mark.parametrize("workers,code", [(1, 0), (2, 2)])
def test_cli_run_workers_only_one(tmp_path, config_file, capsys, workers, code):
    # the grid runs in one process: workers: 1 still loads, any other value is an error
    path = config_file(workers=workers)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert ("config error" in capsys.readouterr().err) == (code == 2)


def test_cli_run_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "below_file"])
def test_cli_run_out_that_cannot_be_created_is_config_error(tmp_path, config_file, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "o"
    assert main(["run", "--config", config_file(), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert blocker.read_text() == "not a directory\n"


def test_cli_run_missing_dataset(tmp_path, capsys):
    doc = _config_doc(str(tmp_path / "absent.txt"))
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, line",
    [
        (b"1 1:0.5\n-1 1:nan\n", 2),
        (b"1 1:inf\n-1 2:1\n", 1),
        (b"1 1:1\n\n-1 2:1e400\n", 3),
        (b"1 1:1\n-1 1:\xff\n", 2),
    ],
    ids=["nan", "inf", "overflow", "non_utf8_byte"],
)
def test_cli_run_bad_values_are_data_errors(tmp_path, capsys, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(_config_doc(str(path))))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert f"data error: line {line}: " in capsys.readouterr().err


def _damaged_gzip(path, damage):
    """A gzip file cut in half, or one whose first deflate block has the reserved type."""
    text = "".join(f"{1 if i % 2 else -1} 1:{i}.5 3:-{i}\n" for i in range(200))
    blob = bytearray(gzip.compress(text.encode(), mtime=0))
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    else:
        blob[10] |= 0x06  # BTYPE 11 right after the 10-byte header
    path.write_bytes(bytes(blob))
    return str(path)


@pytest.mark.parametrize("command", ["run", "advise"])
@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
def test_cli_damaged_gzip_is_data_error(tmp_path, capsys, damage, command):
    path = _damaged_gzip(tmp_path / "data.txt.gz", damage)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(_config_doc(path)))
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: truncated or corrupt gzip data")
    assert "Traceback" not in err


def test_cli_run_split_of_one_row_is_config_error(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 1:0.5 2:-1\n")
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(_config_doc(str(path))))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: split.enabled needs at least 2 data rows" in err
    assert err.rstrip().endswith("has 1")
    assert list(out.iterdir()) == []  # no cell ran


@pytest.mark.parametrize("d_hint", [0, -3])
def test_cli_run_d_hint_below_one_is_config_error(tmp_path, data_file, capsys, d_hint):
    doc = _config_doc(data_file)
    doc["dataset"]["d_hint"] = d_hint
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: dataset.d_hint must be at least 1, got {d_hint}")
    assert not out.exists()


@pytest.mark.parametrize("d_hint", [2**31, 10**21])
def test_cli_run_d_hint_above_the_largest_index_is_config_error(tmp_path, capsys, d_hint):
    """The error names ``dataset.d_hint``, not the split's row count."""
    path = tmp_path / "four.txt"
    path.write_text("1 1:0.5\n-1 2:1\n1 1:-1 2:2\n-1 1:3\n")
    doc = _config_doc(str(path))
    doc["dataset"]["d_hint"] = d_hint
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: dataset.d_hint must be at most the largest supported index 2147483647, "
        f"got {d_hint}"
    )
    assert not out.exists()


_ADVISE_FAULTS = [
    ("d_hint-0", lambda d: d["dataset"].update(d_hint=0), "dataset.d_hint must be at least 1, got 0"),
    ("d_hint--3", lambda d: d["dataset"].update(d_hint=-3), "dataset.d_hint must be at least 1, got -3"),
    (
        "d_hint-2**31",
        lambda d: d["dataset"].update(d_hint=2**31),
        "dataset.d_hint must be at most the largest supported index 2147483647, got 2147483648",
    ),
    (
        "d_hint-10**21",
        lambda d: d["dataset"].update(d_hint=10**21),
        "dataset.d_hint must be at most the largest supported index 2147483647, "
        "got 1000000000000000000000",
    ),
    ("l1", lambda d: d["problem"].update(l1=-1.0), "problem.l1 must be nonnegative and finite"),
    (
        "l2",
        lambda d: d["problem"].update(kind="graph_guided", l2=-1.0),
        "problem.l2 must be nonnegative and finite",
    ),
    (
        "corr_threshold",
        lambda d: d["problem"].update(kind="graph_guided", corr_threshold=2.0),
        "problem.corr_threshold must lie in (0, 1], got 2.0",
    ),
    (
        "c_tau",
        lambda d: d["methods"][0].update(c_tau=0.0),
        "methods[0] (sadmm): c_tau must be positive and finite",
    ),
    (
        "beta",
        lambda d: d["methods"][0].update(beta=-1.0),
        "methods[0] (sadmm): beta must be positive and finite",
    ),
]


@pytest.mark.parametrize(
    "mutate, want", [case[1:] for case in _ADVISE_FAULTS], ids=[case[0] for case in _ADVISE_FAULTS]
)
def test_cli_advise_rejects_what_run_rejects(tmp_path, data_file, capsys, mutate, want):
    # both commands read the config and set up the problem the same way, so
    # a fault is the same config error, with the same message, from either
    doc = _config_doc(data_file)
    mutate(doc)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    run_err = capsys.readouterr().err
    assert main(["advise", "--config", str(path)]) == 2
    assert capsys.readouterr().err == run_err
    assert run_err.startswith(f"config error: {want}")


def test_cli_run_bad_params_is_config_error(tmp_path, config_file, capsys):
    path = config_file(methods=[{"name": "sadmm", "beta": 1.0, "eta": -0.5}])
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, constant", [("sadmm", "c_eps"), ("sadmm_adaptive", "c_tau")])
def test_cli_run_non_finite_scheduler_constant_is_config_error(
    tmp_path, config_file, capsys, name, constant
):
    # with sigma2 = 0 an infinite constant used to reach the batch size as
    # 0 * inf = NaN and crash the run
    method = {"name": name, "beta": 1.0, "eta": 0.5, constant: float("inf")}
    path = config_file(sigma2=0.0, methods=[method])
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{constant} must be positive and finite" in err


_BAD_REALS = [
    ("beta", lambda d: d["methods"][0].update(beta=math.inf), [], "methods[0] (svrg_admm): beta"),
    ("eta", lambda d: d["methods"][0].update(eta=math.inf), [], "methods[0] (svrg_admm): eta"),
    ("r", lambda d: d["methods"][0].update(r=math.inf), [], "methods[0] (svrg_admm): r"),
    ("l1", lambda d: d["problem"].update(l1=math.inf), [], "problem.l1"),
    ("l2", lambda d: d["problem"].update(l2=math.inf), [], "problem.l2"),
    ("sigma2", lambda d: d.update(sigma2=math.inf), [], "sigma2"),
    (
        "corr_threshold-fused",
        lambda d: d["problem"].update(corr_threshold=1.5),
        [],
        "problem.corr_threshold",
    ),
    (
        "corr_threshold-graph",
        lambda d: d["problem"].update(kind="graph_guided", corr_threshold=0.0),
        [],
        "problem.corr_threshold",
    ),
    ("seed", lambda d: d.update(seed=-1), [], "seed"),
    ("seed-override", lambda d: None, ["--seed-override", "-1"], "seed"),
]


@pytest.mark.parametrize(
    "mutate, argv, want", [case[1:] for case in _BAD_REALS], ids=[case[0] for case in _BAD_REALS]
)
def test_cli_run_bad_real_is_config_error_naming_the_key(
    tmp_path, data_file, capsys, mutate, argv, want
):
    # each is a config error that names its key before any cell runs, not a
    # traceback, a diverged grid or a run of zero-length steps
    doc = _config_doc(data_file, methods=[{"name": "svrg_admm", "beta": 1.0, "eta": 0.5}])
    mutate(doc)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "o"), *argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {want} ")


def test_cli_run_all_diverged_exit_code(tmp_path, config_file, monkeypatch):
    def explode(problem, cfg, test_objective=None, step_monitor=None):
        raise DivergenceError("non-finite iterate at iteration 1", trace=[])

    monkeypatch.setattr(experiment, "run", explode)
    assert main(["run", "--config", config_file(), "--out", str(tmp_path / "o")]) == 4


def test_cli_seed_override(tmp_path, config_file):
    path = config_file(sigma2=0.01)
    out_a, out_b, out_c = (str(tmp_path / x) for x in "abc")
    main(["run", "--config", path, "--out", out_a, "--seed-override", "11"])
    main(["run", "--config", path, "--out", out_b, "--seed-override", "11"])
    main(["run", "--config", path, "--out", out_c, "--seed-override", "12"])
    a = _rows_excluding_time(tmp_path / "a" / "trace_sadmm_rep0.csv")
    assert a == _rows_excluding_time(tmp_path / "b" / "trace_sadmm_rep0.csv")
    assert a != _rows_excluding_time(tmp_path / "c" / "trace_sadmm_rep0.csv")


def test_cli_advise(config_file, capsys):
    path = config_file(
        methods=[
            {"name": "sadmm", "beta": 50.0, "eta": 0.02, "r": 10.0},
            {"name": "svrg_admm_adaptive", "beta": 1.0, "eta": 0.5, "c_tau": 3.0, "c_eps": 2.0},
        ],
        sigma2=0.005,
    )
    assert main(["advise", "--config", path]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    problem = report["problem"]
    assert problem["n"] == 12 and problem["d"] == 4  # the train half of 24 rows
    assert problem["sigma2"] == 0.005
    assert problem["svrg"]["kind"] == "svrg" and problem["spider"]["kind"] == "spider"
    assert "feasibility" not in problem
    sadmm, svrg = report["methods"]
    assert [sadmm["name"], svrg["name"]] == ["sadmm", "svrg_admm_adaptive"]
    # the config's r, not the default one
    assert sadmm["r"] == 10.0 and sadmm["eta_over_r"] == 0.02 / 10.0
    # c_eps * sigma2 / epsilon = 5 at the default epsilon 1e-3, below n = 12
    assert sadmm["static_cap"] == 5 and sadmm["n"] == 12
    assert sadmm["progress_binds_above"] is None
    assert svrg["static_cap"] == 10
    assert svrg["progress_binds_above"] == pytest.approx(3.0 * 1e-3 / 2.0, rel=1e-15)
    assert isinstance(sadmm["sufficient_conditions"]["feasible"], bool)


def test_cli_advise_missing_dataset(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(_config_doc(str(tmp_path / "gone.txt"))))
    assert main(["advise", "--config", str(cfg)]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_advise_describes_the_run_it_sits_beside(tmp_path, capsys):
    # non-binary features, so normalize changes the problem, and a split, so
    # the run trains on half the rows: advise must see that same problem
    rng = np.random.default_rng(5)
    path = tmp_path / "data.txt"
    feats = rng.standard_normal((40, 5)) * [1.0, 3.0, 10.0, 0.5, 7.0]
    labels = np.where(feats[:, 0] + rng.standard_normal(40) > 0.0, 1.0, -1.0)
    path.write_text(dump_libsvm(Dataset(feats, labels)))
    doc = _config_doc(str(path), methods=[{"name": "sadmm", "beta": 1.0, "eta": 0.5}])
    doc["dataset"]["normalize"] = True
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert main(["advise", "--config", str(cfg)]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    problem = report["problem"]
    assert problem["n"] == summary["n_train"] == 20
    for key in ("sigma2", "L", "varsigma", "opnorm"):
        assert problem[key] == summary[key], key
    assert report["methods"][0]["sigma2"] == summary["sigma2"]


def test_experiment_config_validation(tmp_path, data_file):
    cfg = ExperimentConfig(
        dataset_path=data_file,
        problem_kind="fused_logistic",
        l1=0.05,
        methods=(MethodSpec(name="sadmm", beta=1.0, eta=0.5),),
        repeats=0,
        max_iters=5,
    )
    with pytest.raises(ConfigError, match="repeats"):
        run_experiment(cfg, str(tmp_path / "o"))
    # budget and top-level faults name their key, not the first method
    cfg = dataclasses.replace(cfg, repeats=1)
    cases = [
        (dict(target_epsilon=0.0), "budget.target_epsilon"),
        (dict(oracle_budget=0), "budget.oracle_budget"),
        (dict(eval_stride=0), "eval_stride"),
        (dict(sigma2=-1.0), "sigma2"),
        (dict(sigma2=float("nan")), "sigma2"),
    ]
    for fields, key in cases:
        with pytest.raises(ConfigError) as exc_info:
            run_experiment(dataclasses.replace(cfg, **fields), str(tmp_path / "o"))
        message = str(exc_info.value)
        assert message.startswith(f"{key} must be"), message
        assert "methods[" not in message
