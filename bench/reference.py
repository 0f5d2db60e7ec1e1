"""Library re-run of one grid cell, checked against the benchmark's own formulas.

The experiment pipeline (load, scale, split, build, sigma^2) is replayed through
the public library API with the seed derivation the experiment harness
documents: one base seed, SeedSequence((seed, *tags)) per purpose.
"""

import dataclasses

import numpy as np


def derive_seed(base, *tags):
    return int(np.random.SeedSequence((base,) + tags).generate_state(1, dtype=np.uint64)[0])


@dataclasses.dataclass
class Pipeline:
    cfg: object
    problem: object
    test_problem: object
    sigma2: float


def build_pipeline(cfg_path):
    from absadmm.datasets import load_libsvm, scale_max_abs, split_half
    from absadmm.estimators import estimate_sigma2
    from absadmm.experiment import load_config
    from absadmm.problems import build_fused_logistic, build_graph_guided

    cfg = load_config(cfg_path)
    ds = load_libsvm(cfg.dataset_path, d_hint=cfg.d_hint)
    if cfg.normalize:
        ds = scale_max_abs(ds)
    pair = split_half(ds, derive_seed(cfg.seed, 0))
    if cfg.problem_kind == "fused_logistic":
        problem = build_fused_logistic(pair.train, cfg.l1)
    else:
        problem = build_graph_guided(pair.train, cfg.l1, cfg.l2, cfg.corr_threshold)
    test_problem = dataclasses.replace(problem, dataset=pair.test)
    sigma2 = cfg.sigma2
    if sigma2 is None:
        rng = np.random.default_rng(derive_seed(cfg.seed, 2))
        sigma2 = estimate_sigma2(problem, np.zeros(problem.dataset.d), min(problem.n, 1024), rng)
    return Pipeline(cfg, problem, test_problem, sigma2)


def run_cell(pipe, method, solver_seed, monitor=None):
    """One (method, seed) cell as the harness runs it; returns (result, r)."""
    from absadmm.kernel import make_admm_params
    from absadmm.problems import objective
    from absadmm.schedulers import SchedulerParams
    from absadmm.solvers import SolverConfig, run

    cfg, p = pipe.cfg, pipe.problem
    params = make_admm_params(p.constraint, method.beta, method.eta, r=method.r)
    sched = SchedulerParams(
        c_tau=method.c_tau,
        c_eps=method.c_eps,
        epsilon=method.epsilon,
        sigma2=pipe.sigma2,
        n=p.n,
        tau_init=method.tau_init,
    )
    solver_cfg = SolverConfig(
        method=method.name,
        admm=params,
        sched=sched,
        max_iters=cfg.max_iters,
        b=method.b,
        T=method.T,
        q=method.q,
        seed=solver_seed,
        oracle_budget=cfg.oracle_budget,
        target_epsilon=cfg.target_epsilon,
        eval_stride=cfg.eval_stride,
    )
    test = pipe.test_problem
    result = run(p, solver_cfg, test_objective=lambda x: objective(test, x), step_monitor=monitor)
    return result, params


def own_objective(p, x):
    """f(x) + l1 * ||A x||_1 with f the mean loss plus ridge, in plain numpy."""
    z = p.dataset.labels * (p.dataset.features @ x)
    if p.loss == "logistic":
        f = np.mean(np.logaddexp(0.0, -z))
    else:
        f = np.mean(1.0 / (1.0 + np.exp(z)))
    f += 0.5 * p.ridge * (x @ x)
    return f + p.g.weight * np.abs(p.constraint.A @ x).sum()


def own_stationarity(p, x, y, lam):
    """||grad f - A^T lam||^2 + dist(-lam, subdiff g(y))^2 + ||Ax - y||^2."""
    X, labels, A, w = p.dataset.features, p.dataset.labels, p.constraint.A, p.g.weight
    z = labels * (X @ x)
    if p.loss == "logistic":
        slope = -1.0 / (1.0 + np.exp(z))
    else:
        slope = -np.exp(z) / (1.0 + np.exp(z)) ** 2
    grad = X.T @ (slope * labels) / X.shape[0] + p.ridge * x
    gt = grad - A.T @ lam
    u = -lam
    dist = np.where(y != 0.0, u - w * np.sign(y), np.maximum(np.abs(u) - w, 0.0))
    res = A @ x - y
    return gt @ gt + dist @ dist + res @ res


def metric_min_eig(p, params):
    """Smallest eigenvalue of G = r I - beta eta A^T A, by a dense eigensolve."""
    A = p.constraint.A
    G = params.r * np.eye(A.shape[1]) - params.beta * params.eta * (A.T @ A)
    return float(np.linalg.eigvalsh(G)[0])


def check_cell(cfg_path, cli_rows, rel_tol=1e-9):
    """Replay the grid's last method, rep 0, and compare with the CLI trace rows."""
    pipe = build_pipeline(cfg_path)
    method = pipe.cfg.methods[-1]
    final = {}

    def monitor(info):
        final.update(x=info.x_new, y=info.y_new, lam=info.lam_new)

    result, params = run_cell(pipe, method, derive_seed(pipe.cfg.seed, 1, 0), monitor)
    lib_rows = [
        (r.iter, r.epoch, r.batch_size, r.oracle_calls, r.objective, r.stationarity)
        for r in result.trace
    ]
    cli = [
        (
            int(r["iter"]),
            int(r["epoch"]),
            int(r["batch_size"]),
            int(r["oracle_calls"]),
            r["objective"],
            r["stationarity"],
        )
        for r in cli_rows
    ]
    last = cli_rows[-1]
    p = pipe.problem
    obj = float(own_objective(p, final["x"]))
    stat = float(own_stationarity(p, final["x"], final["y"], final["lam"]))
    obj_err = abs(obj - last["objective"]) / max(abs(last["objective"]), 1e-300)
    stat_err = abs(stat - last["stationarity"]) / max(abs(last["stationarity"]), 1e-300)
    return {
        "method": method.name,
        "library_matches_cli": lib_rows == cli,
        "objective_rel_err": obj_err,
        "stationarity_rel_err": stat_err,
        "ok": lib_rows == cli and obj_err <= rel_tol and stat_err <= rel_tol,
        "metric_min_eig": metric_min_eig(p, params),
    }
