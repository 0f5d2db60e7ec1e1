"""Run one `absadmm run` in this process and write what was measured as JSON.

    python3 bench/experiment_proc.py --config exp.yaml --out OUT --result R.json --trace 0|1

Untraced, the only hook is a timestamp on the first call into
``absadmm.experiment.run`` (the end of set-up).  Traced, every layer boundary
in ``WRAPS`` records spans, and the per-layer aggregates go into the result.
Each call runs in a fresh process, so peak memory is that of one run.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

from common import BenchSetupError, import_absadmm
from tracer import FirstCallStamp, Tracer


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _grad_rows(args, kwargs, out):
    return {"rows": len(args[2]), "d": len(args[1])}


def _constraint_size(args, kwargs, out):
    cs = out.constraint
    arrays = [v for v in vars(cs).values() if hasattr(v, "nbytes")]
    return {"m": cs.m, "bytes": sum(a.nbytes for a in arrays)}


def _sample_mode(args, kwargs, out):
    return {"mode": args[2]}


def _decision(args, kwargs, out):
    sp = args[0]
    cap = max(1, math.ceil(min(sp.c_eps * sp.sigma2 / sp.epsilon, sp.n)))
    return {"batch": int(out), "cap": cap}


def _run_iters(args, kwargs, out):
    return {"iters": len(out.trace)}


# (module whose namespace holds the binding, name, span, annotation)
WRAPS = [
    ("absadmm.experiment", "load_libsvm", "datasets.load", _file_bytes),
    ("absadmm.experiment", "split_half", "datasets.split", None),
    ("absadmm.experiment", "build_fused_logistic", "problems.build", _constraint_size),
    ("absadmm.experiment", "build_graph_guided", "problems.build", _constraint_size),
    ("absadmm.experiment", "estimate_sigma2", "estimators.estimate_sigma2", None),
    ("absadmm.experiment", "estimate_L", "advisor.estimate_L", None),
    ("absadmm.experiment", "spectral_bounds", "advisor.spectral_bounds", None),
    ("absadmm.experiment", "make_admm_params", "kernel.make_admm_params", None),
    ("absadmm.experiment", "_run_cell", "experiment.cell", None),
    ("absadmm.experiment", "run", "solvers.run", _run_iters),
    ("absadmm.experiment", "emit_trace_csv", "experiment.trace_write", _written_bytes),
    ("absadmm.experiment", "stationarity", "kernel.stationarity", None),
    ("absadmm.experiment", "objective", "problems.objective", None),
    ("absadmm.kernel", "power_opnorm", "linalg.power_opnorm", None),
    ("absadmm.linalg", "power_opnorm", "linalg.power_opnorm", None),
    ("absadmm.solvers", "y_step", "kernel.y_step", None),
    ("absadmm.solvers", "x_step", "kernel.x_step", None),
    ("absadmm.solvers", "dual_step", "kernel.dual_step", None),
    ("absadmm.solvers", "stationarity", "kernel.stationarity", None),
    ("absadmm.solvers", "objective", "problems.objective", None),
    ("absadmm.solvers", "sample_indices", "estimators.sample", _sample_mode),
    ("absadmm.solvers", "minibatch_grad", "estimators.grad", None),
    ("absadmm.solvers", "svrg_grad", "estimators.grad", None),
    ("absadmm.solvers", "spider_grad", "estimators.grad", None),
    ("absadmm.solvers", "static_batch", "schedulers.decide", _decision),
    ("absadmm.solvers", "abs_sadmm_batch", "schedulers.decide", _decision),
    ("absadmm.solvers", "abs_vr_batch", "schedulers.decide", _decision),
    ("absadmm.estimators", "batch_mean_grad", "problems.grad", _grad_rows),
    ("absadmm.problems", "batch_mean_grad", "problems.grad", _grad_rows),
]


def layer_metrics(spans, summary):
    """Per-layer figures of one traced run, from its spans and summary.yaml."""
    by_name, children = {}, {}
    for rec in spans:
        by_name.setdefault(rec[0], []).append(rec)
        children.setdefault(rec[2], []).append(rec)

    def dur(rec):
        return rec[4] - rec[3]

    def total(name):
        return sum(dur(r) for r in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def extra_sum(name, key):
        return sum(r[5][key] for r in by_name.get(name, ()))

    def median_us(recs):
        return statistics.median(dur(r) for r in recs) * 1e6 if recs else 0.0

    def own(rec):
        return dur(rec) - sum(dur(c) for c in children.get(rec[1], ()))

    runs = by_name.get("solvers.run", [])
    cells = by_name.get("experiment.cell", [])
    run_s = total("solvers.run")
    iters = extra_sum("solvers.run", "iters")
    diag = sum(
        dur(c)
        for r in runs
        for c in children.get(r[1], ())
        if c[0] in ("kernel.stationarity", "problems.objective")
    )
    est_grad_ids = {r[1] for r in by_name.get("estimators.grad", ())}
    est_rows = sum(r[5]["rows"] for r in by_name.get("problems.grad", ()) if r[2] in est_grad_ids)
    samples = by_name.get("estimators.sample", [])
    decisions = by_name.get("schedulers.decide", [])
    builds = by_name.get("problems.build", [])
    load_s = total("datasets.load")
    rows = summary.get("runs", [])
    return {
        "datasets.load_s": load_s,
        "datasets.load_mb_per_s": extra_sum("datasets.load", "bytes") / 1e6 / load_s if load_s else 0.0,
        "datasets.split_s": total("datasets.split"),
        "problems.build_s": total("problems.build"),
        "problems.constraint_m": builds[-1][5]["m"] if builds else 0,
        "problems.constraint_bytes": builds[-1][5]["bytes"] if builds else 0,
        "problems.objective_calls": count("problems.objective"),
        "problems.objective_s": total("problems.objective"),
        "problems.grad_rows": extra_sum("problems.grad", "rows"),
        "problems.grad_bytes_gathered": sum(
            r[5]["rows"] * r[5]["d"] * 8 for r in by_name.get("problems.grad", ())
        ),
        "linalg.power_opnorm_calls": count("linalg.power_opnorm"),
        "linalg.power_opnorm_s": total("linalg.power_opnorm"),
        "advisor.estimate_L_s": total("advisor.estimate_L"),
        "advisor.spectral_bounds_s": total("advisor.spectral_bounds"),
        "kernel.make_admm_params_calls": count("kernel.make_admm_params"),
        "kernel.make_admm_params_s": total("kernel.make_admm_params"),
        "kernel.y_step_us": median_us(by_name.get("kernel.y_step", [])),
        "kernel.x_step_us": median_us(by_name.get("kernel.x_step", [])),
        "kernel.dual_step_us": median_us(by_name.get("kernel.dual_step", [])),
        "kernel.stationarity_calls": count("kernel.stationarity"),
        "kernel.stationarity_s": total("kernel.stationarity"),
        "estimators.estimate_sigma2_s": total("estimators.estimate_sigma2"),
        "estimators.sample_wo_us": median_us(
            [r for r in samples if r[5]["mode"] == "without_replacement"]
        ),
        "estimators.sample_w_us": median_us(
            [r for r in samples if r[5]["mode"] == "with_replacement"]
        ),
        "estimators.grad_s": total("estimators.grad"),
        "estimators.grad_us_per_row": total("estimators.grad") / est_rows * 1e6 if est_rows else 0.0,
        "estimators.solver_calls": sum(r["solver_calls"] for r in rows),
        "estimators.eval_calls": sum(r["eval_calls"] for r in rows),
        "schedulers.decisions": len(decisions),
        "schedulers.mean_batch": (
            statistics.fmean(r[5]["batch"] for r in decisions) if decisions else 0.0
        ),
        "schedulers.cap_share": (
            sum(r[5]["batch"] >= r[5]["cap"] for r in decisions) / len(decisions)
            if decisions
            else 0.0
        ),
        "solvers.run_s": run_s,
        "solvers.self_us_per_iter": sum(own(r) for r in runs) / iters * 1e6 if iters else 0.0,
        "solvers.diag_share": diag / run_s if run_s else 0.0,
        "experiment.cell_overhead_s": sum(
            dur(c) - sum(dur(k) for k in children.get(c[1], ()) if k[0] == "solvers.run")
            for c in cells
        ),
        "experiment.trace_write_s": total("experiment.trace_write"),
        "experiment.trace_bytes": extra_sum("experiment.trace_write", "bytes"),
        "experiment.grid_s": (
            max(c[4] for c in cells) - min(c[3] for c in cells) if cells else 0.0
        ),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        import_absadmm()
    except BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import yaml
    from absadmm import cli

    os.makedirs(args.out, exist_ok=True)
    tracer = stamp = None
    if args.trace:
        tracer = Tracer(args.out)
        for module, attr, span, annotate in WRAPS:
            tracer.wrap(module, attr, span, annotate)
    else:
        stamp = FirstCallStamp()
        stamp.hook("absadmm.experiment", "run")

    t0 = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--out", args.out])
    t1 = time.perf_counter()

    result = {"exit_code": code, "experiment_s": t1 - t0}
    if stamp is not None:
        result["setup_s"] = stamp.value - t0 if stamp.value else None
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mib"] = (self_kib + child_kib) / 1024.0
    if tracer is not None:
        summary_path = os.path.join(args.out, "summary.yaml")
        summary = {}
        if os.path.exists(summary_path):
            with open(summary_path) as fh:
                summary = yaml.safe_load(fh)
        result["layers"] = layer_metrics(tracer.collect(), summary)
        result["absent"] = tracer.absent
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
