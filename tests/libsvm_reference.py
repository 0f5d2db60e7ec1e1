"""The token-at-a-time LIBSVM parser that ``absadmm.datasets.parse_libsvm``
replaced, kept verbatim as the reference for the differential tests.

It splits decoded text with ``str.splitlines``/``str.split`` and converts
each token with ``float``/``int``.  On the ASCII inputs the tests generate,
the vectorized parser must return bitwise-equal arrays and raise the same
``ParseError`` messages.
"""

import numpy as np

from absadmm.datasets import Dataset
from absadmm.errors import ParseError


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
