import gzip

import numpy as np
import pytest

from absadmm.datasets import (
    Dataset,
    dump_libsvm,
    load_libsvm,
    parse_libsvm,
    scale_max_abs,
    split_half,
)
from absadmm.errors import ParseError


def test_parse_basic():
    text = "1 1:0.5 3:-2\n-1 2:1\n0 1:1\n"
    ds = parse_libsvm(text)
    assert ds.n == 3 and ds.d == 3
    expected = np.array([[0.5, 0.0, -2.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(ds.features, expected)
    # nonpositive labels map to -1, positive to +1
    assert np.array_equal(ds.labels, [1.0, -1.0, -1.0])


def test_parse_label_canonicalization():
    ds = parse_libsvm("2 1:1\n-3 1:1\n0.5 1:1\n")
    assert np.array_equal(ds.labels, [1.0, -1.0, 1.0])


def test_parse_accepts_bytes_and_blank_lines():
    ds = parse_libsvm(b"1 1:2\n\n-1 2:3\n")
    assert ds.n == 2 and ds.d == 2


def test_parse_d_hint_pads_and_bounds():
    ds = parse_libsvm("1 1:1\n", d_hint=5)
    assert ds.d == 5
    with pytest.raises(ParseError, match="exceeds d_hint"):
        parse_libsvm("1 7:1\n", d_hint=5)


@pytest.mark.parametrize("d_hint", [0, -3])
def test_d_hint_below_one_is_a_value_error(tmp_path, d_hint):
    path = tmp_path / "toy.txt"
    path.write_text("1 1:1\n")
    for parse, source in ((parse_libsvm, "1 1:1\n"), (load_libsvm, path)):
        with pytest.raises(ValueError, match=f"d_hint must be at least 1, got {d_hint}") as exc:
            parse(source, d_hint=d_hint)
        assert not isinstance(exc.value, ParseError)


@pytest.mark.parametrize("d_hint", [2**31, 10**21])
def test_d_hint_above_the_largest_index_is_a_value_error(tmp_path, d_hint):
    path = tmp_path / "toy.txt"
    path.write_text("1 1:1\n")
    want = f"d_hint must be at most the largest supported index 2147483647, got {d_hint}"
    for parse, source in ((parse_libsvm, "1 1:1\n"), (load_libsvm, path)):
        with pytest.raises(ValueError, match=want) as exc:
            parse(source, d_hint=d_hint)
        assert not isinstance(exc.value, ParseError)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2.*duplicate"):
        parse_libsvm("1 1:1\n-1 2:1 2:3\n")
    with pytest.raises(ParseError, match="line 1.*not increasing"):
        parse_libsvm("1 3:1 2:1\n")
    with pytest.raises(ParseError, match="line 1.*malformed"):
        parse_libsvm("1 1:x\n")
    with pytest.raises(ParseError, match="line 1.*malformed"):
        parse_libsvm("1 foo\n")
    with pytest.raises(ParseError, match="bad label"):
        parse_libsvm("abc 1:1\n")
    with pytest.raises(ParseError, match="not 1-based"):
        parse_libsvm("1 0:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("")


def test_roundtrip_exact():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((6, 5))
    feats[rng.random((6, 5)) < 0.4] = 0.0
    feats[0, 0] = 1e-17  # tiny magnitudes must survive the round trip
    labels = np.where(rng.random(6) < 0.5, -1.0, 1.0)
    ds = Dataset(feats, labels)
    back = parse_libsvm(dump_libsvm(ds), d_hint=5)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_roundtrip_keeps_negative_zeros_and_empty_last_columns():
    feats = np.array([[-0.0, 1.0, 0.0, 0.0], [2.0, -0.0, 0.0, 0.0], [0.0, 0.0, -0.0, 0.0]])
    ds = Dataset(feats, np.array([1.0, -1.0, 1.0]))
    back = parse_libsvm(dump_libsvm(ds), d_hint=ds.d)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_gzip(tmp_path):
    path = tmp_path / "toy.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1 1:1 2:2\n-1 2:1\n")
    ds = load_libsvm(path)
    assert ds.n == 2 and ds.d == 2
    assert ds.features[0, 1] == 2.0


def test_dataset_invariants():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        Dataset(np.array([[1.0]]), np.array([0.5]))
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.ones((2, 2)), np.array([1.0]))
    ds = Dataset(np.ones((1, 1)), np.array([1.0]))
    assert not ds.features.flags.writeable
    assert not ds.labels.flags.writeable


def test_split_half_sizes_and_partition(make_dataset):
    ds = make_dataset(7, 3, seed=0)
    pair = split_half(ds, seed=42)
    assert pair.train.n == 4 and pair.test.n == 3
    # the two halves together are exactly the original rows
    all_rows = np.vstack([pair.train.features, pair.test.features])
    key = np.lexsort(all_rows.T)
    orig_key = np.lexsort(ds.features.T)
    assert np.array_equal(all_rows[key], ds.features[orig_key])


def test_split_half_deterministic(make_dataset):
    ds = make_dataset(30, 4, seed=1)
    a = split_half(ds, seed=5)
    b = split_half(ds, seed=5)
    c = split_half(ds, seed=6)
    assert np.array_equal(a.train.features, b.train.features)
    assert not np.array_equal(a.train.features, c.train.features)


def test_split_requires_two_rows():
    ds = Dataset(np.ones((1, 1)), np.array([1.0]))
    with pytest.raises(ValueError):
        split_half(ds, seed=0)


def test_scale_max_abs_zero_column():
    ds = Dataset(np.array([[2.0, 0.0], [-4.0, 0.0]]), np.array([1.0, -1.0]))
    scaled = scale_max_abs(ds)
    assert np.array_equal(scaled.features, [[0.5, 0.0], [-1.0, 0.0]])
