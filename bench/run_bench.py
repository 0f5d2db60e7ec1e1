"""Benchmark of `absadmm run`, end to end and layer by layer.

One workload, one seed, measured for a fixed time:

    python3 bench/run_bench.py --workload tall_fused --seed 1 --seconds 45 --trace 0

Every workload untraced and traced, plus the solver-stream sensitivity, with
a results file written to bench/results/BENCH_<tag>.json:

    python3 bench/run_bench.py --all --seed 1 --seconds 45 --tag seed

See bench/README.md for what each metric means and which layer it belongs to.
The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import yaml  # noqa: E402

import reference  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    BenchSetupError,
    environment,
    first_target_row,
    import_absadmm,
    read_trace,
    trace_digest_text,
)
from workloads import METHOD_KNOBS, WORKLOADS, materialize  # noqa: E402

RUN_SECONDS = 45
MIN_UNTRACED = 3
CHILD_TIMEOUT_S = 120
METHODS = tuple(METHOD_KNOBS)

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("experiment_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("iter_us", "us", "lower", 0.25),
    ("oracle_to_target", "count", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
]

PER_LAYER = [
    ("datasets.load_s", "s", "lower"),
    ("datasets.load_mb_per_s", "MB/s", "higher"),
    ("datasets.split_s", "s", "lower"),
    ("problems.build_s", "s", "lower"),
    ("problems.constraint_m", "count", "lower"),
    ("problems.constraint_bytes", "bytes", "lower"),
    ("problems.objective_calls", "count", "lower"),
    ("problems.objective_s", "s", "lower"),
    ("problems.grad_rows", "count", "lower"),
    ("problems.grad_bytes_gathered", "bytes", "lower"),
    ("linalg.power_opnorm_calls", "count", "lower"),
    ("linalg.power_opnorm_s", "s", "lower"),
    ("advisor.estimate_L_s", "s", "lower"),
    ("advisor.spectral_bounds_s", "s", "lower"),
    ("kernel.make_admm_params_calls", "count", "lower"),
    ("kernel.make_admm_params_s", "s", "lower"),
    ("kernel.y_step_us", "us", "lower"),
    ("kernel.x_step_us", "us", "lower"),
    ("kernel.dual_step_us", "us", "lower"),
    ("kernel.stationarity_calls", "count", "lower"),
    ("kernel.stationarity_s", "s", "lower"),
    ("kernel.metric_min_eig", "ratio", "higher"),
    ("estimators.estimate_sigma2_s", "s", "lower"),
    ("estimators.sample_wo_us", "us", "lower"),
    ("estimators.sample_w_us", "us", "lower"),
    ("estimators.grad_s", "s", "lower"),
    ("estimators.grad_us_per_row", "us", "lower"),
    ("estimators.solver_calls", "count", "lower"),
    ("estimators.eval_calls", "count", "lower"),
    ("schedulers.decisions", "count", "lower"),
    ("schedulers.mean_batch", "count", "lower"),
    ("schedulers.cap_share", "ratio", "lower"),
    ("solvers.run_s", "s", "lower"),
    ("solvers.self_us_per_iter", "us", "lower"),
    ("solvers.diag_share", "ratio", "lower"),
    *[(f"solvers.oracle_to_target.{m}", "count", "lower") for m in METHODS],
    *[(f"solvers.time_to_target_s.{m}", "s", "lower") for m in METHODS],
    ("experiment.cell_overhead_s", "s", "lower"),
    ("experiment.trace_write_s", "s", "lower"),
    ("experiment.trace_bytes", "bytes", "lower"),
    ("experiment.grid_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]

METRIC_MIN_EIG_FLOOR = 1.0 - 1e-12


def run_experiment(cfg_path, out_dir, trace):
    """One `absadmm run` in a fresh process; returns its result dict or None."""
    result_path = out_dir + ".json"
    cmd = [
        sys.executable,
        os.path.join(HERE, "experiment_proc.py"),
        "--config",
        cfg_path,
        "--out",
        out_dir,
        "--result",
        result_path,
        "--trace",
        str(trace),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"experiment timed out after {CHILD_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    with open(result_path) as fh:
        return json.load(fh)


def check_outputs(out_dir, cfg_doc, result, digests):
    """Output checks per cell; returns a list of cell dicts with figures and failures."""
    target = cfg_doc["budget"]["target_epsilon"]
    cells = []
    summary_path = os.path.join(out_dir, "summary.yaml")
    summary_rows = {}
    if result is not None and os.path.exists(summary_path):
        with open(summary_path) as fh:
            for row in yaml.safe_load(fh)["runs"]:
                summary_rows[(row["method"], row["repeat"])] = row
    for m in cfg_doc["methods"]:
        for rep in range(cfg_doc["repeats"]):
            cell = {"method": m["name"], "repeat": rep, "failures": []}
            cells.append(cell)
            fail = cell["failures"].append
            if result is None or result["exit_code"] != 0:
                fail("cli exit code not 0")
                continue
            row = summary_rows.get((m["name"], rep))
            path = os.path.join(out_dir, f"trace_{m['name']}_rep{rep}.csv")
            if row is None or not os.path.exists(path):
                fail("missing summary row or trace")
                continue
            rows = read_trace(path)
            if row["diverged"] or not rows:
                fail("diverged")
                continue
            last = rows[-1]
            if row["iterations"] != len(rows):
                fail("summary iterations != trace rows")
            if row["solver_calls"] != last["oracle_calls"]:
                fail("summary solver_calls != last oracle_calls")
            if row["final_stationarity"] != last["stationarity"]:
                fail("summary final_stationarity != last stationarity")
            calls = [r["oracle_calls"] for r in rows]
            if any(b < a for a, b in zip(calls, calls[1:])):
                fail("oracle_calls decreases")
            hit = first_target_row(rows, target)
            if hit is None:
                fail("target not reached")
            else:
                cell["oracle_to_target"] = hit["oracle_calls"]
                cell["time_to_target_s"] = hit["time_ms"] / 1e3
            cell["iter_us"] = row["wall_ms"] / row["iterations"] * 1e3
            digest = hashlib.sha256(trace_digest_text(path).encode()).hexdigest()
            if digests.setdefault((m["name"], rep), digest) != digest:
                fail("trace differs from the first run at this seed")
            cell["rows"] = rows
    return cells


def experiment_figures(result, cells):
    good = [c for c in cells if not c["failures"]]
    return {
        "experiment_s": result["experiment_s"] if result else None,
        "setup_s": result.get("setup_s") if result else None,
        "peak_rss_mib": result["peak_rss_mib"] if result else None,
        "time_to_target_s": sum(c["time_to_target_s"] for c in good),
        "oracle_to_target": sum(c["oracle_to_target"] for c in good),
        "iter_us": statistics.median(c["iter_us"] for c in good) if good else None,
        "per_method": {
            m: (
                sum(c["oracle_to_target"] for c in good if c["method"] == m),
                sum(c["time_to_target_s"] for c in good if c["method"] == m),
            )
            for m in METHODS
        },
    }


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (report, json_line_dict)."""
    wl = WORKLOADS[name]
    work = os.path.join(ROOT, ".bench_work", f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        cfg_path = materialize(wl, seed, work)
        with open(cfg_path) as fh:
            cfg_doc = yaml.safe_load(fh)
        digests, untraced, traced, all_cells = {}, [], [], []
        ref_rows = None
        start = time.perf_counter()
        k = 0
        while True:
            elapsed = time.perf_counter() - start
            if trace:
                done = elapsed >= seconds and traced and untraced
                mode = 1 if len(traced) < len(untraced) else 0
            else:
                done = elapsed >= seconds and len(untraced) >= MIN_UNTRACED
                mode = 0
            if done:
                break
            out = os.path.join(work, f"exp{k}")
            k += 1
            result = run_experiment(cfg_path, out, mode)
            cells = check_outputs(out, cfg_doc, result, digests)
            all_cells.extend(cells)
            figures = experiment_figures(result, cells)
            if mode == 0 and result is not None and figures["setup_s"] is None:
                cells[0]["failures"].append("set-up hook never fired")
            (traced if mode else untraced).append((result, figures))
            ref_cell = next(c for c in cells
                            if c["method"] == cfg_doc["methods"][-1]["name"] and c["repeat"] == 0)
            if ref_rows is None and not ref_cell["failures"]:
                ref_rows = ref_cell["rows"]
            for c in cells:
                c.pop("rows", None)
            shutil.rmtree(out, ignore_errors=True)

        ref = None
        if ref_rows is not None:
            ref = reference.check_cell(cfg_path, ref_rows)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for c in all_cells if c["failures"])
    attempted = len(all_cells)
    correct = failed == 0 and ref is not None and ref["ok"]
    figs = [f for _, f in untraced]
    e2e = {key: median_of(f[key] for f in figs) for key, *_ in END_TO_END}
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "experiments": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": e2e,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": sorted({f for c in all_cells for f in c["failures"]}),
        "reference": ref,
        "environment": environment(),
    }
    if trace:
        layers = {}
        layer_runs = [r["layers"] for r, _ in traced if r is not None]
        for key, *_ in PER_LAYER:
            if layer_runs and key in layer_runs[0]:
                layers[key] = median_of(lr[key] for lr in layer_runs)
        for m in METHODS:
            layers[f"solvers.oracle_to_target.{m}"] = median_of(
                f["per_method"][m][0] for f in figs
            )
            layers[f"solvers.time_to_target_s.{m}"] = median_of(
                f["per_method"][m][1] for f in figs
            )
        layers["kernel.metric_min_eig"] = ref["metric_min_eig"] if ref else None
        traced_s = median_of(f["experiment_s"] for _, f in traced)
        layers["trace_overhead_frac"] = (
            traced_s / e2e["experiment_s"] - 1.0 if traced_s and e2e["experiment_s"] else None
        )
        report["per_layer"] = layers
        report["absent"] = sorted({a for r, _ in traced if r for a in r["absent"]})

    chosen = PER_LAYER if trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    values = report["per_layer"] if trace else e2e
    metrics = {}
    for key, unit, _ in chosen:
        if values.get(key) is None:
            correct = False
            continue
        metrics[key] = {"value": values[key], "unit": unit}
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return report, line


def print_report(report):
    env = report["environment"]
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"experiments={report['experiments']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    units = {n: u for n, u, *_ in END_TO_END}
    for key, value in report["end_to_end"].items():
        print(f"  {key:<44} {_fmt(value)} {units[key]}")
    print(f"  {'failed_frac':<44} {report['failed_frac']:.4g} ratio")
    for failure in report["failures"]:
        print(f"  output check failed: {failure}")
    ref = report["reference"]
    if ref is None:
        print("  reference check: not run (no clean cell)")
    else:
        print(
            f"  reference check ({ref['method']}): {'ok' if ref['ok'] else 'FAILED'}; "
            f"library trace == cli trace: {ref['library_matches_cli']}; "
            f"objective rel err {ref['objective_rel_err']:.3g}, "
            f"stationarity rel err {ref['stationarity_rel_err']:.3g}"
        )
        eig = ref["metric_min_eig"]
        verdict = "ok" if eig >= METRIC_MIN_EIG_FLOOR else "FAILED (G is not >= I)"
        print(f"  metric check lambda_min(G) = {eig!r} >= 1 - 1e-12: {verdict}")
    if report["trace"]:
        for key, unit, _ in PER_LAYER:
            print(f"  {key:<44} {_fmt(report['per_layer'].get(key))} {unit}")
        for name in report["absent"]:
            print(f"  layer absent (name not found): {name}")


def _fmt(value):
    return "n/a" if value is None else f"{value:.10g}"


def stream_sensitivity(name, seed, bases=5):
    """oracle_to_target and time_to_target_s over solver seeds, data held fixed."""
    work = os.path.join(ROOT, ".bench_work", f"{name}-stream-s{seed}-{os.getpid()}")
    try:
        pipe = reference.build_pipeline(materialize(WORKLOADS[name], seed, work))
        target = pipe.cfg.target_epsilon
        totals = []
        for k in range(bases):
            base = seed if k == 0 else 1000 + 7919 * k + seed
            oracle = wall_s = 0.0
            for method in pipe.cfg.methods:
                for rep in range(pipe.cfg.repeats):
                    result, _ = reference.run_cell(pipe, method, reference.derive_seed(base, 1, rep))
                    hit = next(
                        r for r in result.trace
                        if r.stationarity is not None and r.stationarity <= target
                    )
                    oracle += hit.oracle_calls
                    wall_s += hit.time_ms / 1e3
            totals.append({"solver_seed_base": base, "oracle_to_target": oracle,
                           "time_to_target_s": wall_s})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {"runs": totals}
    for key in ("oracle_to_target", "time_to_target_s"):
        vals = [t[key] for t in totals]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[key] = {"median": med, "iqr_share": (q3 - q1) / med,
                    "range_share": (max(vals) - min(vals)) / med}
    return out


def benchmark_spec():
    return {
        "command": ["python3", "bench/run_bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": wl.name, "why": wl.why} for wl in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_all(seed, seconds, tag):
    results = {"environment": environment(), "seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            report, line = run_workload(name, seed, seconds, trace)
            print_report(report)
            entry["untraced" if trace == 0 else "traced"] = {"report": report, "result": line}
        entry["stream_sensitivity"] = stream_sensitivity(name, seed)
        print(f"  stream sensitivity over solver seeds: "
              + json.dumps({k: v for k, v in entry["stream_sensitivity"].items() if k != "runs"}))
        results["workloads"][name] = entry
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{tag}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path} and BENCHMARK.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--tag", default="local", help="results file suffix for --all")
    args = ap.parse_args(argv)
    try:
        import_absadmm()
    except BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds, args.tag)
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    report, line = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
