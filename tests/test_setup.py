"""Experiment set-up holds one dense matrix from the parse to the solver.

The rows are filled in split order and scaled in place, and train and test
are row views of that one buffer.  The results must be bitwise those of the
library pipeline ``split_half(scale_max_abs(load_libsvm(path)), seed)``.
"""

import gzip
import tracemalloc

import numpy as np
import pytest
import yaml
from libsvm_reference import parse_libsvm as reference_parse

import absadmm.datasets as datasets
import absadmm.experiment as experiment
from absadmm.datasets import Dataset, dump_libsvm, load_libsvm, scale_max_abs, split_half


def _write_data(path, n, d, gz=False):
    """Signed values, about 40% zeros and an all-zero column 2, as LIBSVM text."""
    rng = np.random.default_rng(n)
    feats = rng.standard_normal((n, d)) * 3.0
    feats[rng.random((n, d)) < 0.4] = 0.0
    feats[:, 1] = 0.0
    feats[0, -1] = -5.0  # the file's largest index is d
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    text = dump_libsvm(Dataset(feats, labels))
    if gz:
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    else:
        path.write_text(text)
    return str(path)


def _set_up(tmp_path, monkeypatch, data_path, d_hint, normalize, split):
    """Run a zero-iteration experiment; return the (train, test) datasets it used."""
    seen = {}
    build, run_cell = experiment._build_problem, experiment._run_cell

    def build_spy(cfg, ds):
        seen["train"] = ds
        return build(cfg, ds)

    def cell_spy(problem, test_problem, *rest):
        seen["test"] = None if test_problem is None else test_problem.dataset
        return run_cell(problem, test_problem, *rest)

    monkeypatch.setattr(experiment, "_build_problem", build_spy)
    monkeypatch.setattr(experiment, "_run_cell", cell_spy)
    doc = {
        "dataset": {"path": data_path, "d_hint": d_hint, "normalize": normalize},
        "problem": {"kind": "fused_logistic", "l1": 0.05},
        "budget": {"max_iters": 0},
        "split": {"enabled": split},
        "methods": [{"name": "sadmm", "beta": 1.0, "eta": 0.5}],
        "seed": 5,
        "repeats": 1,
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    experiment.run_experiment(experiment.load_config(cfg_path), tmp_path / "out")
    return seen["train"], seen["test"]


def _same(got, want):
    return (
        got.features.shape == want.features.shape
        and got.features.tobytes() == want.features.tobytes()
        and got.labels.tobytes() == want.labels.tobytes()
    )


# (n, d, d_hint, gz, block bytes): odd and even n, the smallest split, a
# d_hint past the largest index, a gzip file, and a file of many blocks
_CASES = {
    "odd": (9, 5, None, False, None),
    "even": (10, 5, None, False, None),
    "two_rows": (2, 4, None, False, None),
    "d_hint": (7, 4, 9, False, None),
    "gz": (8, 5, None, True, None),
    "blocks": (41, 6, None, False, 96),
}


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_split_set_up_matches_library_pipeline(tmp_path, monkeypatch, case, normalize):
    n, d, d_hint, gz, block = _CASES[case]
    path = _write_data(tmp_path / ("data.txt.gz" if gz else "data.txt"), n, d, gz)
    if block is not None:
        monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
        assert (tmp_path / "data.txt").stat().st_size > 10 * block

    train, test = _set_up(tmp_path, monkeypatch, path, d_hint, normalize, split=True)

    ds = load_libsvm(path, d_hint=d_hint)
    if normalize:
        ds = scale_max_abs(ds)
    want = split_half(ds, experiment._derive_seed(5, 0))
    assert _same(train, want.train) and _same(test, want.test)
    assert train.n == (n + 1) // 2 and test.n == n // 2
    for half in (train, test):
        assert not half.features.flags.writeable and half.features.flags.c_contiguous
        assert not half.labels.flags.writeable
    # the two halves are adjacent row views of one n x d buffer
    buffer = train.features.base
    assert buffer is not None and buffer.shape == (n, d_hint or d)
    assert np.shares_memory(buffer, test.features)


def test_many_block_load_matches_library_pipeline(tmp_path, monkeypatch):
    """Blocks filled and columns scaled on the pool give the library pipeline's bytes."""
    rng = np.random.default_rng(4)
    n, d_hint, block = 80, 9, 64
    lines = []
    for i in range(n):
        pairs = [f"1:{-rng.uniform(0.5, 3.0)!r}"]  # largest |x| of column 1 is negative
        if i == 7:
            pairs[0] = "1:-4"
        pairs.append(f"2:{rng.uniform(-1.0, 1.0)!r}")
        # column 3 is all zeros, written as explicit zeros of either sign
        pairs.append("3:-0" if i % 2 else "3:0.0")
        if i % 3 == 0:
            pairs.append("4:-0")  # an explicit -0 in a column with nonzeros
        elif i % 3 == 1:
            pairs.append(f"4:{rng.standard_normal()!r}")
        pairs.append(f"6:{rng.integers(-9, 10)}")  # the largest index, below d_hint
        lines.append(("+1 " if i % 2 else "-1 ") + " ".join(pairs) + "\n")
    path = tmp_path / "data.txt"
    path.write_text("".join(lines))
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
    assert path.stat().st_size > 10 * block

    plain = load_libsvm(path, d_hint=d_hint)
    assert _same(plain, reference_parse("".join(lines), d_hint=d_hint))
    assert plain.d == d_hint and np.signbit(plain.features[:, 2]).any()
    scaled = scale_max_abs(plain)
    assert _same(load_libsvm(path, d_hint=d_hint, normalize=True), scaled)
    for seed in (0, 5, 11):
        for normalize, source in ((False, plain), (True, scaled)):
            got = load_libsvm(path, d_hint=d_hint, normalize=normalize, split_seed=seed)
            want = split_half(source, seed)
            assert _same(got.train, want.train) and _same(got.test, want.test)


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
def test_unsplit_set_up_keeps_file_order(tmp_path, monkeypatch, normalize):
    path = _write_data(tmp_path / "data.txt", 9, 5)
    train, test = _set_up(tmp_path, monkeypatch, path, None, normalize, split=False)
    want = load_libsvm(path)
    if normalize:
        want = scale_max_abs(want)
    assert test is None
    assert _same(train, want)
    assert not train.features.flags.writeable


def test_set_up_peak_memory_is_one_dense_copy(tmp_path, monkeypatch):
    """From the parse through the variance estimate, set-up holds one n x d matrix.

    The bound is the dense matrix, the parser's 12 bytes per stored entry
    (int32 column, float64 value), 64 bytes per row for the labels, the pair
    counts and the split permutation, and 64 block sizes for the temporaries
    of one block.  Scaling a copy or gathering the halves while the parsed
    matrix lives needs about twice the dense matrix.
    """
    n, d, block = 20000, 100, 1 << 14
    rng = np.random.default_rng(11)
    path = tmp_path / "sparse.txt"
    stored = 0
    with open(path, "w") as fh:
        for lo in range(0, n, 1000):
            rows = rng.random((1000, d)) < 0.1
            rows[:, 0] = True  # column 1 is always present
            vals = rng.integers(1, 100, size=(1000, d))
            stored += int(rows.sum())
            fh.writelines(
                ("+1 " if i % 2 else "-1 ")
                + " ".join(f"{j + 1}:{vals[i, j]}" for j in np.flatnonzero(rows[i]))
                + "\n"
                for i in range(1000)
            )
    assert path.stat().st_size > 20 * block
    doc = {
        "dataset": {"path": str(path), "normalize": True},
        "problem": {"kind": "fused_logistic", "l1": 0.05},
        "budget": {"max_iters": 0},
        "methods": [{"name": "sadmm", "beta": 1.0, "eta": 0.5}],
        "repeats": 1,
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    cfg = experiment.load_config(cfg_path)
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = experiment.run_experiment(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert summary.n_train + summary.n_test == n
    dense = n * d * 8
    bound = dense + 12 * stored + 64 * n + 64 * block
    assert peak < bound, f"set-up peak {peak} B over {bound} B (dense matrix {dense} B)"


def test_scale_max_abs_is_division_by_column_abs_max():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((6, 4))
    feats[:, 0] = -np.abs(feats[:, 0])  # a column whose largest |x| is negative
    feats[:, 2] = 0.0
    feats[3, 2] = -0.0
    ds = Dataset(feats, np.ones(6))
    scale = np.abs(feats).max(axis=0)
    scale[scale == 0.0] = 1.0
    assert scale_max_abs(ds).features.tobytes() == (feats / scale).tobytes()
    assert ds.features.tobytes() == feats.tobytes()  # the input is not scaled
