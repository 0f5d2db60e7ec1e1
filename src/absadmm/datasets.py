"""Dense LIBSVM-format data loading, label canonicalization, and train/test splitting."""

import gzip
import io
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParseError, SplitError

__all__ = [
    "Dataset",
    "SplitPair",
    "parse_libsvm",
    "load_libsvm",
    "dump_libsvm",
    "split_half",
    "d_hint_fault",
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
        _hold(self, self.features, self.labels, check_finite=True)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _hold(ds, features, labels, check_finite):
    """Check the arrays of a ``Dataset`` and store them in ``ds``, read-only.

    Without ``check_finite`` the O(n*d) finiteness pass is skipped; see
    ``_finite_dataset``.
    """
    feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    labs = np.ascontiguousarray(np.asarray(labels, dtype=np.float64))
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise ValueError(f"features must be a nonempty 2-d array, got shape {feats.shape}")
    if labs.shape != (feats.shape[0],):
        raise ValueError(
            f"labels shape {labs.shape} does not match {feats.shape[0]} rows"
        )
    if check_finite and not np.all(np.isfinite(feats)):
        raise ValueError("features contain non-finite entries")
    if not np.all(np.abs(labs) == 1.0):
        raise ValueError("labels must be exactly -1 or +1")
    feats.flags.writeable = False
    labs.flags.writeable = False
    object.__setattr__(ds, "features", feats)
    object.__setattr__(ds, "labels", labs)


def _finite_dataset(features, labels) -> Dataset:
    """A ``Dataset`` of features known to be finite, without the O(n*d) pass that checks it.

    The loader's features are finite, since the parser rejects every
    non-finite number and max-abs scaling keeps finite values in [-1, 1], and
    so are the rows of a ``Dataset``.  The shape and label checks still run.
    """
    ds = object.__new__(Dataset)
    _hold(ds, features, labels, check_finite=False)
    return ds


@dataclass(frozen=True)
class SplitPair:
    """A train/test pair produced by ``split_half``."""

    train: Dataset
    test: Dataset


# Text is parsed in blocks of whole lines of about this many bytes, so that
# the temporaries of a parse, some 15 to 30 bytes per byte of text, are bounded
# by the blocks in flight and not by the file.  Loading the bench files in
# fresh processes on two CPUs (20 alternating pairs per file and size),
# 128 KiB blocks were 9 to 21% slower than 256 KiB ones on the a9a-shaped
# 2.4 MB file and 10 to 24% on the dense 13 MB one, losing 15 and 17 pairs,
# for about 2 MiB less peak memory.  512 KiB blocks won 10 and 15 pairs for
# 3 to 7 MiB more.
_BLOCK_BYTES = 1 << 18

# Blocks are parsed on this many threads, with one job more than the workers
# in flight so that none idles while the calling thread waits on the earliest
# block and reads the next one; numpy releases the interpreter lock in most of
# its array operations.  The same threads then write the blocks' rows into
# the dense matrix.  The column maxima for ``normalize`` are taken on the
# calling thread: ``np.maximum.at`` holds the lock, and on the pool the warm
# maxima of the bench files took 3.5 to 3.9 ms (2.4 MB) and 10 ms (13 MB)
# against 2.9 to 3.0 and 7.3 to 7.6 ms on one thread.  Parsing on two workers cut
# fresh-process loads of the bench files on two CPUs by 14% (2.4 MB) and 28%
# (13 MB); filling and scaling the dense matrix on them as well cut a further
# 10 to 11% and 7 to 9%.  Pinned to one CPU, the workers take turns: pooled
# parsing took 12 to 14% longer than parsing on the calling thread, and the
# pooled fill and scale moved the loads by -2% to +1%.
_WORKERS = 2

# Columns are stored as int32 until the dense matrix is filled.
_MAX_INDEX = 2**31 - 1

# Each block is padded with separators, enough that the word of eight bytes
# that ends at any of its numbers lies inside the padded block.
_PAD = b" " * 8

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

# Word constants are np.uint64 throughout: before numpy 2, uint64 mixed with
# int64 gives float64.
_U8 = np.uint64(8)
_ZEROS = np.uint64(0x3030303030303030)  # b"00000000"
# _KEEP[n] keeps the high n bytes of a word, the last n of its text.
_KEEP = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], dtype=np.uint64)
# Removing the byte at offset k (0 to 7) of a word moves the bytes below it
# up one: word & _ABOVE[k + 1] | (word & _BELOW[k + 1]) << 8.  The first and
# last entries leave a word as it is.
_BELOW = np.array([0] + [2 ** (8 * k) - 1 for k in range(8)] + [0], dtype=np.uint64)
_ABOVE = np.array(
    [2**64 - 1] + [2**64 - 2 ** (8 * k + 8) for k in range(8)] + [2**64 - 1], dtype=np.uint64
)
_LOW_BYTES = np.uint64(0x00FF00FF00FF00FF)
_LOW_HALF = np.uint64(0xFFFF)
# Adding 0x4F to a digit or a dot sets its top bit exactly for '1' to '9'.
_NONZERO_BIAS = np.uint64(0x4F4F4F4F4F4F4F4F)
_TOP_BITS = np.uint64(0x8080808080808080)
# _MUL[e + 22] / _DIV[e + 22] is 10**e for |e| <= 22 as a product or a
# quotient of exact doubles; with a mantissa below 2**53, each of the two
# operations is exact or the one correctly rounded step (Clinger 1990).
# _MUL[e + 67] / _DIV[e + 67] is -10**e the same way: rounding is symmetric in
# the sign, so a negative number is the negated value bitwise, -0 included.
_POW10 = np.array([float(10 ** max(e, 0)) for e in range(-22, 23)])
_MUL = np.concatenate([_POW10, -_POW10])
_DIV = np.tile(_POW10[::-1], 2)


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


def _digits(words, end, length):
    """The values of the ``length`` (0 to 8) digits before each ``end``, one per byte.

    ``words[q]`` is the little-endian word of the bytes from ``q``, so the
    first digit is in the low byte of its word; the bytes before the digits
    are 0.
    """
    return (words[end - 8] ^ _ZEROS) & _KEEP[length]


def _value(word):
    """The number whose eight decimal digits are the bytes of ``word``, the first in the low byte.

    Three multiply-shift steps combine the digits in pairs, fours and eights
    (Lemire 2021); no lane exceeds its width, so the result is exact.
    """
    w = word * np.uint64(10) + (word >> _U8)
    w = (w & _LOW_BYTES) * np.uint64(100) + ((w >> np.uint64(16)) & _LOW_BYTES)
    return (w & _LOW_HALF) * np.uint64(10000) + ((w >> np.uint64(32)) & _LOW_HALF)


def _index(digits):
    """The index that the ASCII ``digits`` spell, saturated at _MAX_INDEX + 1."""
    digits = digits.lstrip(b"0")  # ``int`` refuses more than 4,300 digits, zeros included
    return min(int(digits or b"0"), _MAX_INDEX + 1) if len(digits) <= 10 else _MAX_INDEX + 1


def _indices(words, padded, first, colons, bad):
    """Read each index, the digits from ``first`` up to its colon.

    An index of up to eight digits is one word, and a longer one is
    ``_index`` of its digits.  A malformed pair (``bad``) is read as one word
    whatever its length, since its value is never used.
    """
    size = colons - first
    idx = _value(_digits(words, colons, np.minimum(size, 8))).astype(np.int64)
    long = np.flatnonzero((size > 8) & ~bad)
    idx[long] = [_index(padded[a:b]) for a, b in zip(first[long].tolist(), colons[long].tolist())]
    return idx


def _floats(padded, heads, ends):
    """Python's ``float`` of each ``padded[a:b]``, ``a`` from ``heads`` and ``b`` from ``ends``."""
    return [float(padded[a:b]) for a, b in zip(heads.tolist(), ends.tolist())]


def _numbers(words, padded, byte, where, seq, head, nxt, end):
    """Convert the numbers that start at ``head`` and end at ``end``, bitwise as ``float``.

    ``nxt`` is the index in ``where``/``seq`` of each number's first non-digit
    byte at or after ``head``; the numbers are valid under the grammar.  When
    the mantissa (dot included) has at most eight bytes after its leading
    zeros and at most 16 in all, and the decimal exponent is within 22, the
    value is one exact product or quotient.  Every other number is ``float`` of
    its token (``_floats``); the grammar keeps out ``nan``, ``1_0`` and spaces.
    """
    signed = seq[nxt] == _SIGN
    j = nxt + signed
    dot = seq[j] == _DOT
    dot_at = where[j]
    j += dot
    stop = where[j]  # the mantissa ends at the exponent mark or the separator
    size = stop - head - signed
    # the mantissa's last eight bytes, without the dot if they hold it
    word = _digits(words, stop, np.minimum(size, 8))
    drop = np.clip(dot_at - stop + 9, 0, 9)
    word = (word & _ABOVE[drop]) | ((word & _BELOW[drop]) << _U8)
    del drop
    exp10 = dot_at - stop + dot  # minus the digits after the dot
    del dot_at, dot
    fast = size <= 16
    with_exp = np.flatnonzero(seq[j] == _EXP)
    if with_exp.size:
        k = j[with_exp] + 1
        exp_signed = seq[k] == _SIGN
        mark = stop[with_exp]
        exp_end = where[k + exp_signed]
        exp_size = exp_end - (mark + 1 + exp_signed)
        value = _value(_digits(words, exp_end, np.minimum(exp_size, 8))).astype(np.int64)
        exp10[with_exp] += np.where(byte[mark + 1] == ord("-"), -value, value)
        fast[with_exp[exp_size > 8]] = False
    del j
    fast &= np.abs(exp10) <= 22
    # A mantissa of 9 to 16 bytes is fast when the bytes before its last eight
    # are zeros or its dot.
    long = np.flatnonzero(fast & (size > 8))
    if long.size:
        prefix = words[stop[long] - 16] & _KEEP[size[long] - 8]
        fast[long] = ((prefix + _NONZERO_BIAS) & _TOP_BITS) == 0
    del stop, size
    exp10 += 22
    at = np.clip(exp10, 0, 44, out=exp10)
    del exp10
    at += 45 * (byte[head] == ord("-"))
    nums = _value(word).astype(np.float64)
    del word
    nums *= _MUL[at]
    nums /= _DIV[at]

    slow = np.flatnonzero(~fast)
    if slow.size:
        nums[slow] = _floats(padded, head[slow], end[slow])
    return nums


def _convert(words, padded, byte, where, seq, head, nxt, end, integers):
    """The valid numbers from ``head`` to ``end``, bitwise as ``float``; see ``_numbers``.

    When ``integers`` says the block holds no dot and no exponent mark, and no
    number has more than eight digits, each number is its one word of digits,
    negated after a '-'.  That is ``_numbers``' fast path at decimal exponent 0,
    where it multiplies and divides by 1.0 (by -1.0 after a '-'), so "-0"
    still reads as -0.0.
    """
    if integers:
        size = end - head - (seq[nxt] == _SIGN)
        if np.all(size <= 8):
            nums = _value(_digits(words, end, size)).astype(np.float64)
            return np.negative(nums, out=nums, where=byte[head] == ord("-"))
    return _numbers(words, padded, byte, where, seq, head, nxt, end)


class _BadToken(Exception):
    """The first offending token of a block: its code, its 1-based line in the block, its bytes."""


def _parse_block(buf, d_hint):
    """Parse one block of whole lines.

    Returns ``(labels, pairs per row, 0-based columns, values, line breaks)``.
    Raises ``_BadToken`` for the first offending token of the block.
    """
    # The block padded on each side; byte p of the block is byte p + pad.
    padded = _PAD + buf + _PAD
    pad = len(_PAD)
    byte = np.frombuffer(padded, dtype=np.uint8)
    cls = np.frombuffer(padded.translate(_CLASS_OF), dtype=np.uint8)
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
    opens = np.flatnonzero(sep & (after > _CR))  # the separator before each token
    starts = where[opens] + 1
    ends = where[np.flatnonzero(sep & (before > _CR))]
    # a CR ends a line unless an LF follows it
    breaks = where[np.flatnonzero((seq == _LF) | ((seq == _CR) & (after != _LF)))]
    faults = where[np.flatnonzero(_faults(seq, before, after))]
    del gap, before, after, sep
    if starts.size == 0:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int32), empty, breaks.size

    # the first token of the block and the first after each line break are labels
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[0] = True
    is_label[np.searchsorted(starts, breaks)] = True
    is_label = is_label[:-1]
    labels_at = np.flatnonzero(is_label)
    pairs_at = np.flatnonzero(~is_label)

    bad = np.zeros(starts.size, dtype=bool)
    bad[np.searchsorted(starts, faults, side="right") - 1] = True
    # Each pair holds one colon and each label none exactly when there are as
    # many colons as pairs and the k-th colon lies inside the k-th pair.
    colon_at = np.flatnonzero(seq == _COLON)
    colons = where[colon_at]
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
        colon_at = np.searchsorted(where, colons)
    # An index is all digits when its colon is the first non-digit of the pair.
    bad[pairs_at[(colon_at != opens[pairs_at] + 1) | (colons == first)]] = True

    words = np.ndarray(byte.size - 7, dtype="<u8", buffer=padded, strides=(1,))
    idx = _indices(words, padded, first, colons, bad[pairs_at])
    del first

    # Each number starts at its token or just after its colon, and ``nxt``
    # indexes its first non-digit byte.
    head = starts.copy()
    head[pairs_at] = colons + 1
    nxt = opens + 1
    nxt[pairs_at] = colon_at + 1
    del opens, colons, colon_at
    # Without a dot or an exponent mark, every valid number is an integer.
    integers = b"." not in buf and b"e" not in buf and b"E" not in buf
    any_bad = bad.any()
    if any_bad:
        good = ~bad
        nums = np.zeros(starts.size)
        nums[good] = _convert(
            words, padded, byte, where, seq, head[good], nxt[good], ends[good], integers
        )
    else:
        nums = _convert(words, padded, byte, where, seq, head, nxt, ends, integers)
    del head, nxt
    y = nums[labels_at]
    val = nums[pairs_at]

    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    prev[is_label[pairs_at - 1]] = 0
    # The block is checked as a whole; only a block that fails is diagnosed
    # token by token, for its first offending token.
    limit = _MAX_INDEX if d_hint is None else d_hint
    if (
        any_bad
        or not np.all(idx > prev)
        or idx.max(initial=0) > limit
        or not np.all(np.isfinite(nums))
    ):
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
        k = np.flatnonzero(code)[0]
        token = buf[starts[k] - pad : ends[k] - pad]
        raise _BadToken(code[k], int(np.searchsorted(breaks, starts[k])) + 1, token)

    row_pairs = np.diff(np.append(labels_at, starts.size)) - 1
    labels = np.where(y > 0, 1.0, -1.0)
    return labels, row_pairs, (idx - 1).astype(np.int32), val, breaks.size


# A message shows at most this many bytes of a token, or digits of an index,
# so that one bad token of megabytes does not become a line of megabytes.
_SHOWN_BYTES = 32


def _more(text, unit):
    """What follows the shown head of ``text``: ``…`` and its length, if cut."""
    return f"… ({len(text)} {unit})" if len(text) > _SHOWN_BYTES else ""


def _message(code, lineno, token, d_hint):
    shown = repr(token[:_SHOWN_BYTES].decode("utf-8", "replace")) + _more(token, "bytes")
    if code == _BAD_LABEL:
        return f"line {lineno}: bad label token {shown}"
    if code == _MALFORMED:
        return f"line {lineno}: malformed pair {shown}"
    if code == _NON_FINITE:
        return f"line {lineno}: non-finite value in pair {shown}"
    digits = token.partition(b":")[0].lstrip(b"0") or b"0"
    idx = digits[:_SHOWN_BYTES].decode() + _more(digits, "digits")
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


def d_hint_fault(d_hint):
    """Why ``d_hint`` cannot be a feature count, or None when it can.

    A feature count is at least 1 and at most the largest index the parser
    accepts, 2**31 - 1; None, no hint, passes.
    """
    if d_hint is None:
        return None
    if d_hint < 1:
        return f"must be at least 1, got {d_hint}"
    if d_hint > _MAX_INDEX:
        return f"must be at most the largest supported index {_MAX_INDEX}, got {d_hint}"
    return None


def _parse_stream(stream, d_hint, normalize=False, split_seed=None):
    """Parse into one dense buffer; see ``load_libsvm`` for the keywords.

    The stream is loaded on a pool of ``_WORKERS`` threads: its blocks are
    parsed ``_WORKERS + 1`` at a time and collected in file order, so the
    first bad line of the file is the one reported, and then the same pool
    fills the dense matrix.
    """
    fault = d_hint_fault(d_hint)
    if fault:
        raise ValueError(f"d_hint {fault}")
    blocks = []
    lines = 0

    def collect(job):
        nonlocal lines
        try:
            *parsed, breaks = job.result()
        except _BadToken as bad:
            code, line, token = bad.args
            raise ParseError(_message(code, lines + line, token, d_hint)) from None
        blocks.append(parsed)
        lines += breaks

    with ThreadPoolExecutor(_WORKERS) as pool:
        # one job more than the workers, so that a worker that finishes while
        # the calling thread waits on an earlier block finds the next one
        jobs = deque()
        for buf in _line_blocks(stream):
            if len(jobs) > _WORKERS:
                collect(jobs.popleft())
            jobs.append(pool.submit(_parse_block, buf, d_hint))
        while jobs:
            collect(jobs.popleft())
        return _assemble(blocks, d_hint, normalize, split_seed, pool)


def _assemble(blocks, d_hint, normalize, split_seed, pool):
    """The ``Dataset`` (or, with a ``split_seed``, the ``SplitPair``) of the parsed blocks.

    The jobs of ``pool`` write the blocks.  Each block's triplets go when its
    rows are written.
    """
    n = sum(labels.size for labels, _, _, _ in blocks)
    if n == 0:
        raise ParseError("no data lines found")
    if d_hint is not None:
        d = d_hint
    else:
        d = max((int(cols.max()) + 1 for _, _, cols, _ in blocks if cols.size), default=0)
    if d < 1:
        raise ParseError("no feature indices found and no d_hint given")
    row0 = np.cumsum([0] + [labels.size for labels, _, _, _ in blocks[:-1]])
    labels = np.concatenate([block[0] for block in blocks])
    row_of = np.arange(n)  # the buffer row of each file row
    if split_seed is not None:
        perm, n_train = _split_order(n, split_seed)
        row_of[perm] = np.arange(n)
        labels = labels[perm]
    scale = None
    if normalize:
        # the scales of ``scale_max_abs``: a maximum is exact, and a column
        # with no nonzero entry, of either sign, keeps its entries.  This
        # thread takes them, since ``np.maximum.at`` holds the interpreter lock.
        scale = np.zeros(d)
        for _, _, cols, vals in blocks:
            np.maximum.at(scale, cols, np.abs(vals))
        scale[scale == 0.0] = 1.0
    feats = np.zeros((n, d))

    def handed_over():
        for k in range(len(blocks)):
            block, blocks[k] = blocks[k], None
            yield block

    for _ in pool.map(partial(_fill_rows, feats.reshape(-1), d, row_of, scale), handed_over(), row0):
        pass
    if split_seed is not None:
        return _halves(feats, labels, n_train)
    return _finite_dataset(feats, labels)


def _fill_rows(flat, d, row_of, scale, block, first):
    """Write a parsed block, whose first row is file row ``first``, into the flat n x d buffer.

    With a ``scale``, each value is divided by its column's.  The blocks' rows
    are disjoint, so blocks are written at once without a lock.
    """
    _, row_pairs, cols, vals = block
    where = np.repeat(row_of[first : first + row_pairs.size] * d, row_pairs)
    where += cols
    flat[where] = vals if scale is None else vals / scale.take(cols)


def parse_libsvm(text, d_hint=None) -> Dataset:
    """Parse LIBSVM-format text (``str`` or bytes) into a dense ``Dataset``.

    Each line is ``label idx:value ...`` with 1-based, strictly increasing
    ASCII decimal indices and finite values (see the README's "Data format").
    Labels are canonicalized: nonpositive maps to -1, positive to +1.
    The feature count is the largest index observed, or ``d_hint`` when given
    (an index beyond ``d_hint`` is a parse error; a ``d_hint`` below 1 or
    above 2**31 - 1, the largest supported index, raises ``ValueError``).
    Every violation raises ``ParseError`` naming the first offending line.
    Numbers convert bitwise as Python's ``float`` does.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    return _parse_stream(io.BytesIO(text), d_hint)


def load_libsvm(path, d_hint=None, *, normalize=False, split_seed=None):
    """Load a LIBSVM file as bytes; ``.gz`` paths are transparently decompressed.

    Returns the ``Dataset`` that ``parse_libsvm`` gives for the file's text.
    The keywords give the results of ``scale_max_abs`` and ``split_half``
    bitwise, while holding one dense matrix: with ``normalize`` each parsed
    value is divided by its column's max |value| as it is written, and with a
    ``split_seed`` the rows are filled in split order and a ``SplitPair`` of
    row views is returned.  A split of one row
    raises ``SplitError``, a ``ValueError``, as ``split_half`` does.  A
    truncated or corrupt ``.gz`` file is a ``ParseError`` naming the file.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return _parse_stream(fh, d_hint, normalize, split_seed)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"{path}: truncated or corrupt gzip data ({exc})") from exc


def dump_libsvm(ds: Dataset) -> str:
    """LIBSVM text of ``ds`` that ``parse_libsvm(text, d_hint=ds.d)`` reproduces bitwise."""
    lines = []
    for i in range(ds.n):
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        row = ds.features[i]
        for j in np.flatnonzero((row != 0) | np.signbit(row)):  # -0.0 included
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _split_order(n, seed):
    """The split rule: a seeded permutation of n rows, of which train takes the first ceil(n/2)."""
    if n < 2:
        raise SplitError("need at least 2 samples to split")
    return np.random.default_rng(seed).permutation(n), (n + 1) // 2


def _halves(feats, labels, n_train) -> SplitPair:
    """Train and test as views of the rows before and from ``n_train``; ``feats`` is finite."""
    return SplitPair(
        train=_finite_dataset(feats[:n_train], labels[:n_train]),
        test=_finite_dataset(feats[n_train:], labels[n_train:]),
    )


def split_half(ds: Dataset, seed) -> SplitPair:
    """Split into disjoint halves by a seeded permutation; train gets ceil(n/2).

    Both halves are views of one gathered copy of the permuted rows.
    """
    perm, n_train = _split_order(ds.n, seed)
    return _halves(ds.features[perm], ds.labels[perm], n_train)


def scale_max_abs(ds: Dataset) -> Dataset:
    """Scale each feature column by its max absolute value; zero columns stay zero."""
    scale = np.abs(ds.features).max(axis=0)
    scale[scale == 0.0] = 1.0
    return Dataset(ds.features / scale, ds.labels)
