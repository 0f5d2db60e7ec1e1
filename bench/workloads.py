"""Seeded synthetic workloads: a LIBSVM data file and an `absadmm run` config.

Every workload is made from its seed alone, so the same seed gives the same
bytes on disk.  The workload seed is also the experiment's config seed.
"""

import os
from dataclasses import dataclass

import numpy as np
import yaml

# One (beta, eta) per workload family; batch knobs per method.  The adaptive
# rules share c_eps/epsilon with their static twins, so both face one cap.
METHOD_KNOBS = {
    "sadmm": {},
    "sadmm_adaptive": {"c_tau": 1.0},
    "svrg_admm": {"T": 10},
    "svrg_admm_adaptive": {"T": 10, "c_tau": 1.0},
    "spider_admm": {"q": 10},
    "spider_admm_adaptive": {"q": 10, "c_tau": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_data: object  # callable(shape_rng, draw_rng) -> (features, labels, value_format)
    problem: dict
    budget: dict
    methods: dict  # shared method keys: beta, eta, b, c_eps, epsilon, tau_init
    normalize: bool


def _sigmoid_labels(rng, scores):
    prob = 1.0 / (1.0 + np.exp(-scores))
    return np.where(rng.random(scores.shape[0]) < prob, 1.0, -1.0)


# Each generator takes two streams: `shape` fixes the model (group sizes,
# true weights) and is the same for every seed, `draw` samples the rows from
# the workload seed.  Seeds then change the sample, not the problem, so the
# run-to-run spread of the figures stays small.


def _a9a_like(shape, draw):
    """32,561 x 123 one-hot rows: 14 categorical groups, ~11% density."""
    n, d = 32561, 123
    sizes = [9, 16, 7, 15, 6, 5, 2, 14, 10, 5, 4, 12, 14, 4]
    feats = np.zeros((n, d))
    start = 0
    for size in sizes:
        weights = shape.dirichlet(np.full(size, 0.7))
        cols = start + draw.choice(size, size=n, p=weights)
        feats[np.arange(n), cols] = 1.0
        start += size
    # fused ground truth: piecewise constant along the column order
    w = np.repeat(shape.normal(0.0, 2.0, 12), -(-d // 12))[:d]
    scores = feats @ w
    return feats, _sigmoid_labels(draw, scores - np.median(scores)), "%d"


def _grouped_wide(shape, draw):
    """3,000 x 400 dense features correlated in groups of 2 to 16."""
    n, d = 3000, 400
    sizes = []
    while sum(sizes) < d:
        sizes.append(int(shape.integers(2, 17)))
    sizes[-1] -= sum(sizes) - d
    w = shape.normal(0.0, 0.3, len(sizes))
    latent = draw.normal(size=(n, len(sizes)))
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    # within-group correlation 1 / (1 + 0.45^2) ~ 0.83, clear of the 0.7 threshold
    feats = latent[:, group_of] + 0.45 * draw.normal(size=(n, d))
    return feats, _sigmoid_labels(draw, latent @ w), "%.4g"


_FUSED = {"kind": "fused_logistic", "l1": 1.0e-3}
_SHARED = {"b": 32, "c_eps": 1.0, "epsilon": 0.01, "tau_init": 0.1}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="tall_fused",
            why="a9a-shaped 32561x123 one-hot rows, fused logistic: sampling, "
            "gathers, per-row objective and power iteration dominate; the 123x123 kernel idles",
            make_data=_a9a_like,
            problem=_FUSED,
            budget={"max_iters": 2000, "target_epsilon": 0.015},
            methods={"beta": 1.0, "eta": 0.3, **_SHARED},
            normalize=True,
        ),
        Workload(
            name="wide_graph",
            why="3000x400 dense grouped features, graph-guided sigmoid: a dense m x m B "
            "(m~2.2k) makes kernel products, constraint memory and spectral set-up dominate",
            make_data=_grouped_wide,
            problem={"kind": "graph_guided", "l1": 1.0e-3, "l2": 1.0e-3, "corr_threshold": 0.7},
            budget={"max_iters": 2000, "target_epsilon": 0.005},
            methods={"beta": 0.3, "eta": 1.0, **_SHARED, "b": 16},
            normalize=False,
        ),
    )
}


def write_libsvm(path, feats, labels, value_format) -> None:
    """LIBSVM text with only nonzero entries, written in row blocks."""
    with open(path, "w") as fh:
        for lo in range(0, feats.shape[0], 2048):
            block = feats[lo : lo + 2048]
            lines = []
            for row, lab in zip(block, labels[lo : lo + 2048]):
                nz = np.flatnonzero(row)
                pairs = " ".join(f"{j + 1}:{value_format % row[j]}" for j in nz)
                lines.append(("+1 " if lab > 0 else "-1 ") + pairs)
            fh.write("\n".join(lines) + "\n")


def config_doc(wl: Workload, data_path: str, seed: int) -> dict:
    methods = [{"name": name, **wl.methods, **knobs} for name, knobs in METHOD_KNOBS.items()]
    return {
        "dataset": {"path": data_path, "normalize": wl.normalize},
        "problem": dict(wl.problem),
        "budget": dict(wl.budget),
        "split": {"enabled": True},
        "seed": seed,
        "repeats": 1,
        "workers": 1,
        "methods": methods,
    }


def materialize(wl: Workload, seed: int, work_dir: str):
    """Write the workload's data file and config; return the config path."""
    os.makedirs(work_dir, exist_ok=True)
    tag = _tag(wl.name)
    shape, draw = np.random.default_rng([0, tag]), np.random.default_rng([1, seed, tag])
    feats, labels, fmt = wl.make_data(shape, draw)
    data_path = os.path.join(work_dir, "train.libsvm")
    write_libsvm(data_path, feats, labels, fmt)
    cfg_path = os.path.join(work_dir, "exp.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(config_doc(wl, os.path.abspath(data_path), seed), fh, sort_keys=False)
    return cfg_path


def _tag(name: str) -> int:
    return int.from_bytes(name.encode(), "little") % (2**32)
