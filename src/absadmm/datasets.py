"""Dense LIBSVM-format data loading, label canonicalization, and train/test splitting."""

import gzip
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "Dataset",
    "SplitPair",
    "parse_libsvm",
    "load_libsvm",
    "dump_libsvm",
    "split_half",
    "scale_max_abs",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense feature matrix with binary labels in {-1, +1}.

    features : (n, d) float64 array
    labels   : (n,) float64 array, entries exactly -1.0 or +1.0

    Equality and hashing are by identity, as for the other array holders.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a nonempty 2-d array, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.abs(labs) == 1.0):
            raise ValueError("labels must be exactly -1 or +1")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitPair:
    """A train/test pair produced by ``split_half``."""

    train: Dataset
    test: Dataset


def parse_libsvm(text, d_hint=None) -> Dataset:
    """Parse LIBSVM-format text into a dense ``Dataset``.

    Each line is ``label idx:value ...`` with 1-based, strictly increasing
    indices.  Labels are canonicalized: nonpositive maps to -1, positive to +1.
    The feature count is the largest index observed, or ``d_hint`` when given
    (an index beyond ``d_hint`` is a parse error).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    labels = []
    rows = []  # per line: (indices array, values array), 0-based
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            y = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label token {tokens[0]!r}") from None
        idxs = []
        vals = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed pair {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed pair {tok!r}") from None
            if idx < 1:
                raise ParseError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx == prev:
                raise ParseError(f"line {lineno}: duplicate feature index {idx}")
            if idx < prev:
                raise ParseError(f"line {lineno}: feature indices not increasing at {idx}")
            if d_hint is not None and idx > d_hint:
                raise ParseError(
                    f"line {lineno}: feature index {idx} exceeds d_hint={d_hint}"
                )
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        labels.append(-1.0 if y <= 0 else 1.0)
        rows.append((idxs, vals))
        if idxs:
            max_idx = max(max_idx, idxs[-1] + 1)
    if not rows:
        raise ParseError("no data lines found")
    d = d_hint if d_hint is not None else max_idx
    if d < 1:
        raise ParseError("no feature indices found and no d_hint given")
    feats = np.zeros((len(rows), d))
    for i, (idxs, vals) in enumerate(rows):
        feats[i, idxs] = vals
    return Dataset(feats, np.asarray(labels))


def load_libsvm(path, d_hint=None) -> Dataset:
    """Load a LIBSVM file; ``.gz`` paths are transparently decompressed."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        return parse_libsvm(fh.read(), d_hint=d_hint)


def dump_libsvm(ds: Dataset) -> str:
    """Serialize a ``Dataset`` to LIBSVM text; reparsing reproduces it exactly."""
    lines = []
    for i in range(ds.n):
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        row = ds.features[i]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def split_half(ds: Dataset, seed) -> SplitPair:
    """Split into disjoint halves by a seeded permutation; train gets ceil(n/2)."""
    if ds.n < 2:
        raise ValueError("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_train = (ds.n + 1) // 2
    tr, te = perm[:n_train], perm[n_train:]
    return SplitPair(
        train=Dataset(ds.features[tr], ds.labels[tr]),
        test=Dataset(ds.features[te], ds.labels[te]),
    )


def scale_max_abs(ds: Dataset) -> Dataset:
    """Scale each feature column by its max absolute value; zero columns stay zero."""
    scale = np.abs(ds.features).max(axis=0)
    scale[scale == 0.0] = 1.0
    return Dataset(ds.features / scale, ds.labels)
