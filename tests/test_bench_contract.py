"""The interface that bench/ relies on, checked without editing anything there.

The benchmark wraps names listed in ``bench/experiment_proc.WRAPS``, sizes
the constraint from its array fields, and replays one cell through
``bench/reference.check_cell``, whose own formulas read the dense ``A``.
"""

import importlib
import os
import sys

import pytest

from absadmm.cli import main
from absadmm.datasets import dump_libsvm

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    names = ("common", "tracer", "experiment_proc", "reference")
    yield {name: importlib.import_module(name) for name in names}
    for name in names:
        sys.modules.pop(name, None)


def test_wrapped_modules_import(bench):
    modules = {module for module, _, _, _ in bench["experiment_proc"].WRAPS}
    assert "absadmm.linalg" in modules
    for module in sorted(modules):
        importlib.import_module(module)


# Wrapped names that no longer exist.  The tracer skips a missing name and
# only lists it under ``absent``, so its layer figures read 0 and no bench run
# fails; a change that removes or renames a wrapped binding must add it here.
ABSENT_WRAPS = {
    "absadmm.experiment.spectral_bounds",
    "absadmm.experiment.split_half",
    "absadmm.kernel.power_opnorm",
    "absadmm.linalg.power_opnorm",
    "absadmm.solvers.abs_sadmm_batch",
    "absadmm.solvers.abs_vr_batch",
    "absadmm.solvers.minibatch_grad",
    "absadmm.solvers.objective",
    "absadmm.solvers.spider_grad",
    "absadmm.solvers.static_batch",
    "absadmm.solvers.svrg_grad",
}


def test_absent_wraps_are_pinned(bench):
    missing = {
        f"{module}.{attr}"
        for module, attr, _, _ in bench["experiment_proc"].WRAPS
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert missing == ABSENT_WRAPS


def test_cli_trace_passes_reference_check(tmp_path, make_dataset, bench):
    data = tmp_path / "data.libsvm"
    data.write_text(dump_libsvm(make_dataset(60, 6, seed=23)))
    config = tmp_path / "exp.yaml"
    config.write_text(
        f"""
dataset: {{path: {data}}}
problem: {{kind: graph_guided, l1: 0.01, l2: 0.001, corr_threshold: 0.1}}
budget: {{max_iters: 12}}
split: {{enabled: true}}
seed: 5
repeats: 1
eval_stride: 4
methods:
  - {{name: sadmm, beta: 1.0, eta: 0.5, b: 4}}
  - {{name: spider_admm_adaptive, beta: 1.0, eta: 0.5, b: 3, q: 3, tau_init: 0.1}}
"""
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rows = bench["common"].read_trace(str(out / "trace_spider_admm_adaptive_rep0.csv"))
    ref = bench["reference"].check_cell(str(config), rows)
    assert ref["library_matches_cli"]
    assert ref["ok"], ref
    assert ref["metric_min_eig"] >= 1.0 - 1e-12

    pipe = bench["reference"].build_pipeline(str(config))
    size = bench["experiment_proc"]._constraint_size((), {}, pipe.problem)
    cs = pipe.problem.constraint
    assert cs.m > cs.d1  # the threshold leaves edge rows above the identity
    assert size == {"m": cs.m, "bytes": cs.rows.nbytes + cs.cols.nbytes + cs.vals.nbytes}
