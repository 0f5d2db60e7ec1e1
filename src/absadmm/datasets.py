"""Dense LIBSVM-format data loading, label canonicalization, and train/test splitting."""

import gzip
import io
import zlib
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


# Text is parsed in blocks of whole lines of about this many bytes, so that
# the temporaries of a parse, some 10 to 30 bytes per byte of text, are bounded
# by the block and not by the file.  Blocks from 128 KiB to 1 MiB parse the
# bench files at about the same speed; smaller ones need less memory.
_BLOCK_BYTES = 1 << 18

# Columns are stored as int32 until the dense matrix is filled.
_MAX_INDEX = 2**31 - 1

# Byte classes; every class up to _CR separates tokens.
_SPACE, _LF, _CR, _DIGIT, _SIGN, _DOT, _EXP, _COLON, _OTHER = range(9)


def _byte_table(classes, default):
    table = bytearray([default]) * 256
    for chars, cls in classes:
        for ch in chars:
            table[ch] = cls
    return bytes(table)


_CLASS_OF = _byte_table(
    [
        (b" \t\x0b\x0c", _SPACE),
        (b"\n", _LF),
        (b"\r", _CR),
        (b"0123456789", _DIGIT),
        (b"+-", _SIGN),
        (b".", _DOT),
        (b"eE", _EXP),
        (b":", _COLON),
    ],
    _OTHER,
)
# Turns each pair's colon into a separator.
_COLON_TO_SPACE = bytes(range(256)).replace(b":", b" ")

# Per-token error codes, in the order the checks of one token run.
(
    _OK,
    _BAD_LABEL,
    _MALFORMED,
    _NOT_ONE_BASED,
    _DUPLICATE,
    _DECREASING,
    _EXCEEDS_HINT,
    _TOO_LARGE,
    _NON_FINITE,
) = range(9)


def _faults(seq, before, after):
    """Flag the non-digit bytes that break the number grammar.

    ``seq`` holds the classes of the block's non-digit bytes in order, and
    ``before``/``after`` the class of the byte just before/after each one
    (``_DIGIT`` when that byte is a digit).  Labels are ``FLOAT`` and pairs
    ``DIGITS:FLOAT``, with
    ``FLOAT = [+-]? (DIGITS [.] DIGITS? | . DIGITS | DIGITS) ([eE] [+-]? DIGITS)?``.
    A flagged byte is one that no valid token holds where it stands: a byte
    outside the alphabet, a colon not followed by a number, a sign that opens
    neither a number nor an exponent, a dot with no digit beside it, an
    exponent without a mantissa or digits, or a second dot or exponent in one
    number.  How many colons a token holds and whether an index is all digits
    are checked per token by the caller.
    """
    opener = (before <= _CR) | (before == _COLON)
    bad = seq == _OTHER
    bad |= (seq == _COLON) & (after != _DIGIT) & (after != _SIGN) & (after != _DOT)
    sign = ((before == _EXP) & (after == _DIGIT)) | (opener & ((after == _DIGIT) | (after == _DOT)))
    bad |= (seq == _SIGN) & ~sign
    bad |= (seq == _DOT) & (before != _DIGIT) & (after != _DIGIT)
    exp = ((before == _DIGIT) | (before == _DOT)) & ((after == _DIGIT) | (after == _SIGN))
    bad |= (seq == _EXP) & ~exp
    # Neighbours in ``seq`` with no separator between them are in one number,
    # which reads [sign] [dot] [exponent [sign]] without its digits: a dot or
    # exponent may follow neither a dot nor an exponent, with or without a sign.
    late = (seq == _DOT) | (seq == _EXP)
    after_exp = seq[:-1] == _EXP
    bad[1:] |= late[1:] & (after_exp | (seq[:-1] == _DOT) & (seq[1:] == _DOT))
    bad[2:] |= late[2:] & after_exp[:-1] & (seq[1:-1] == _SIGN)
    return bad


def _parse_block(buf, line0, d_hint):
    """Parse one block of whole lines that follows ``line0`` lines.

    Returns ``(labels, pairs per row, 0-based columns, values, line breaks)``.
    Raises ``ParseError`` naming the first offending line of the block.
    """
    # Byte classes, padded with two separators on each side; byte p of the
    # block is cls[p + 2].
    pad = bytes([_SPACE, _SPACE])
    cls = np.frombuffer(pad + buf.translate(_CLASS_OF) + pad, dtype=np.uint8)
    # Every non-digit byte in order, with the classes of its two neighbours.
    where = np.flatnonzero(cls != _DIGIT)
    seq = cls[where]
    gap = np.diff(where) > 1
    digit = np.uint8(_DIGIT)
    before = np.full(seq.size, _SPACE, dtype=np.uint8)
    before[1:] = np.where(gap, digit, seq[:-1])
    after = np.full(seq.size, _SPACE, dtype=np.uint8)
    after[:-1] = np.where(gap, digit, seq[1:])

    sep = seq <= _CR
    starts = where[sep & (after > _CR)] + 1
    ends = where[sep & (before > _CR)]
    # a CR ends a line unless an LF follows it
    breaks = where[(seq == _LF) | ((seq == _CR) & (after != _LF))]
    if starts.size == 0:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int32), empty, breaks.size

    line = np.searchsorted(breaks, starts)
    is_label = np.empty(starts.size, dtype=bool)
    is_label[0] = True
    is_label[1:] = line[1:] != line[:-1]
    labels_at = np.flatnonzero(is_label)
    pairs_at = np.flatnonzero(~is_label)

    bad = np.zeros(starts.size, dtype=bool)
    faults = _faults(seq, before, after)
    if faults.any():
        bad[np.searchsorted(starts, where[faults], side="right") - 1] = True
    # Each pair holds one colon and each label none exactly when there are as
    # many colons as pairs and the k-th colon lies inside the k-th pair.
    colons = where[seq == _COLON]
    first = starts[pairs_at]
    if not (
        colons.size == pairs_at.size
        and np.all(colons >= first)
        and np.all(colons < ends[pairs_at])
    ):
        held = np.searchsorted(colons, starts)
        count = np.searchsorted(colons, ends) - held
        bad |= count != ~is_label
        # a pair without exactly one colon is read as an empty index
        colons = np.where(count[pairs_at] == 1, np.append(colons, 0)[held[pairs_at]], first)

    # Read each index left to right and blank its digits, so that the number
    # scan below sees one number per token.  Past its end an index re-reads
    # its last digit (an empty one, the separator before it).  Indices
    # saturate above _MAX_INDEX; messages re-read the exact value.
    text = np.frombuffer(b"  " + buf.translate(_COLON_TO_SPACE) + b"  ", dtype=np.uint8).copy()
    last = colons - 1
    bad_pair = colons == first
    idx = np.zeros(pairs_at.size, dtype=np.int64)
    for j in range(int((colons - first).max(initial=0))):
        at = np.minimum(first + j, last)
        bad_pair |= cls[at] != _DIGIT
        more = np.minimum(idx * 10 + text[at] - ord("0"), _MAX_INDEX + 1)
        idx = np.where(first + j <= last, more, idx)
        text[at] = ord(" ")
    bad[pairs_at[bad_pair]] = True

    good = ~bad
    for s, e in zip(starts[bad], ends[bad]):
        text[s:e] = ord(" ")
    n_good = int(good.sum())
    nums = np.fromstring(text.tobytes(), sep=" ") if n_good else np.empty(0)
    if nums.size != n_good:
        raise RuntimeError("LIBSVM block: number count disagrees with the token scan")
    if n_good < starts.size:
        number = np.zeros(starts.size)
        number[good] = nums
        nums = number
    y = nums[labels_at]
    val = nums[pairs_at]

    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    prev[is_label[pairs_at - 1]] = 0
    checks = [idx < 1, idx == prev, idx < prev]
    codes = [_NOT_ONE_BASED, _DUPLICATE, _DECREASING]
    if d_hint is not None:
        checks.append(idx > d_hint)
        codes.append(_EXCEEDS_HINT)
    checks += [idx > _MAX_INDEX, ~np.isfinite(val)]
    codes += [_TOO_LARGE, _NON_FINITE]
    code = np.zeros(starts.size, dtype=np.int8)
    code[pairs_at] = np.select(checks, codes, _OK)
    code[labels_at[~np.isfinite(y)]] = _BAD_LABEL
    code[bad] = np.where(is_label[bad], _BAD_LABEL, _MALFORMED)
    failed = np.flatnonzero(code)
    if failed.size:
        k = failed[0]
        token = buf[starts[k] - 2 : ends[k] - 2]
        raise ParseError(_message(code[k], line0 + line[k] + 1, token, d_hint))

    row_pairs = np.diff(np.append(labels_at, starts.size)) - 1
    labels = np.where(y > 0, 1.0, -1.0)
    return labels, row_pairs, (idx - 1).astype(np.int32), val, breaks.size


def _message(code, lineno, token, d_hint):
    shown = token.decode("utf-8", "replace")
    if code == _BAD_LABEL:
        return f"line {lineno}: bad label token {shown!r}"
    if code == _MALFORMED:
        return f"line {lineno}: malformed pair {shown!r}"
    if code == _NON_FINITE:
        return f"line {lineno}: non-finite value in pair {shown!r}"
    idx = int(token.partition(b":")[0])
    return f"line {lineno}: " + {
        _NOT_ONE_BASED: f"feature index {idx} is not 1-based",
        _DUPLICATE: f"duplicate feature index {idx}",
        _DECREASING: f"feature indices not increasing at {idx}",
        _EXCEEDS_HINT: f"feature index {idx} exceeds d_hint={d_hint}",
        _TOO_LARGE: f"feature index {idx} exceeds the largest supported index {_MAX_INDEX}",
    }[code]


def _line_blocks(stream):
    """Yield a binary stream in blocks of whole lines, about ``_BLOCK_BYTES`` each.

    A block ends just after a line break.  A CR that ends a read is held back,
    since an LF may follow it in the next read.
    """
    pending = []  # pieces of the block being built, the last one unfinished
    while True:
        chunk = stream.read(_BLOCK_BYTES)
        if not chunk:
            break
        view = memoryview(chunk)
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut == 0:
            pending.append(view)
            continue
        pending.append(view[:cut])
        yield b"".join(pending)
        pending = [view[cut:]]
    tail = b"".join(pending)
    if tail:
        yield tail


def _parse_stream(stream, d_hint, normalize=False, split_seed=None):
    """Parse into one dense buffer; see ``load_libsvm`` for the keywords."""
    blocks = []
    lines = 0
    for buf in _line_blocks(stream):
        *parsed, breaks = _parse_block(buf, lines, d_hint)
        blocks.append(parsed)
        lines += breaks
    n = sum(labels.size for labels, _, _, _ in blocks)
    if n == 0:
        raise ParseError("no data lines found")
    if d_hint is not None:
        d = d_hint
    else:
        d = max((int(cols.max()) + 1 for _, _, cols, _ in blocks if cols.size), default=0)
    if d < 1:
        raise ParseError("no feature indices found and no d_hint given")
    labels = np.concatenate([block[0] for block in blocks])
    row_of = np.arange(n)  # the buffer row of each file row
    if split_seed is not None:
        perm, n_train = _split_order(n, split_seed)
        row_of[perm] = np.arange(n)
        labels = labels[perm]
    feats = np.zeros((n, d))
    row0 = 0
    for k, (block_labels, row_pairs, cols, vals) in enumerate(blocks):
        blocks[k] = None  # each block's triplets go as soon as they are written
        rows = np.repeat(row_of[row0 : row0 + block_labels.size], row_pairs)
        feats[rows, cols] = vals
        row0 += block_labels.size
    if normalize:
        _scale_columns_in_place(feats)
    if split_seed is not None:
        return _halves(feats, labels, n_train)
    return Dataset(feats, labels)


def parse_libsvm(text, d_hint=None) -> Dataset:
    """Parse LIBSVM-format text (``str`` or bytes) into a dense ``Dataset``.

    Each line is ``label idx:value ...`` with 1-based, strictly increasing
    ASCII decimal indices and finite values (see the README's "Data format").
    Labels are canonicalized: nonpositive maps to -1, positive to +1.
    The feature count is the largest index observed, or ``d_hint`` when given
    (an index beyond ``d_hint`` is a parse error).  Every violation raises
    ``ParseError`` naming the first offending line.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    return _parse_stream(io.BytesIO(text), d_hint)


def load_libsvm(path, d_hint=None, *, normalize=False, split_seed=None):
    """Load a LIBSVM file as bytes; ``.gz`` paths are transparently decompressed.

    Returns the ``Dataset`` that ``parse_libsvm`` gives for the file's text.
    The keywords give the results of ``scale_max_abs`` and ``split_half``
    bitwise, while holding one dense matrix: with ``normalize`` the columns
    are scaled in place, and with a ``split_seed`` the rows are filled in split
    order and a ``SplitPair`` of row views is returned.  A split of one row
    raises ``ValueError`` as ``split_half`` does.  A truncated or corrupt
    ``.gz`` file is a ``ParseError`` naming the file.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return _parse_stream(fh, d_hint, normalize, split_seed)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"{path}: truncated or corrupt gzip data ({exc})") from exc


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


def _split_order(n, seed):
    """The split rule: a seeded permutation of n rows, of which train takes the first ceil(n/2)."""
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    return np.random.default_rng(seed).permutation(n), (n + 1) // 2


def _halves(feats, labels, n_train) -> SplitPair:
    """Train and test as views of the rows before and from ``n_train``."""
    return SplitPair(
        train=Dataset(feats[:n_train], labels[:n_train]),
        test=Dataset(feats[n_train:], labels[n_train:]),
    )


def split_half(ds: Dataset, seed) -> SplitPair:
    """Split into disjoint halves by a seeded permutation; train gets ceil(n/2).

    Both halves are views of one gathered copy of the permuted rows.
    """
    perm, n_train = _split_order(ds.n, seed)
    return _halves(ds.features[perm], ds.labels[perm], n_train)


def _scale_columns_in_place(feats):
    """Divide each column by its max absolute value; zero columns stay zero.

    The max of |x| is max(max x, -min x), so no n x d temporary is made.
    """
    scale = np.maximum(feats.max(axis=0), -feats.min(axis=0))
    scale[scale == 0.0] = 1.0
    feats /= scale


def scale_max_abs(ds: Dataset) -> Dataset:
    """Scale each feature column by its max absolute value; zero columns stay zero."""
    feats = ds.features.copy()
    _scale_columns_in_place(feats)
    return Dataset(feats, ds.labels)
