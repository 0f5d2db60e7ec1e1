"""The block parser against the token-at-a-time reference, its grammar and its memory."""

import gzip
import io
import itertools
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from libsvm_reference import parse_libsvm as reference_parse

import absadmm.datasets as datasets
from absadmm.datasets import Dataset, dump_libsvm, load_libsvm, parse_libsvm
from absadmm.errors import ParseError


def _outcome(parse, data, d_hint=None):
    """The parsed arrays as bytes, or the ParseError message."""
    try:
        ds = parse(data, d_hint=d_hint)
    except ParseError as exc:
        return str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


def _parse_in_blocks(data, block_bytes, d_hint=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_BLOCK_BYTES", block_bytes)
        return _outcome(parse_libsvm, data, d_hint)


# -- differential tests against the reference parser ---------------------------------

_VALUES = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -2.0, 0.5, 3.25, 1e-05, -7e22, 5e-324, 1.5e300, -0.0]),
    st.integers(-1000, 1000).map(float),
)
_LABELS = {1.0: ["+1", "1", "2.5", "1e0", ".5"], -1.0: ["-1", "0", "-3", "-0.5E1", "-.0"]}
_GAPS = [" ", "\t", "  ", " \t ", "\t\t"]
_BREAKS = ["\n", "\r\n", "\r"]


@st.composite
def _layouts(draw):
    """A dataset and its LIBSVM lines as token lists, from ``dump_libsvm``."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    ds = Dataset(np.array(rows), np.array(labels))
    lines = []
    for line, label in zip(dump_libsvm(ds).splitlines(), labels):
        tokens = line.split(" ")
        tokens[0] = draw(st.sampled_from(_LABELS[label]))
        lines.append(tokens)
    return ds, lines


def _render(draw, lines):
    """Join token lists with varied whitespace, blank lines and line breaks."""
    out = []
    for tokens in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(_BREAKS)))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        body = tokens[0] + "".join(draw(st.sampled_from(_GAPS)) + tok for tok in tokens[1:])
        trail = draw(st.sampled_from(["", "", " ", "\t "]))
        out.append(lead + body + trail + draw(st.sampled_from(_BREAKS)))
    if draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode()


@given(data=st.data(), block_bytes=st.integers(16, 256))
@settings(max_examples=80, deadline=None)
def test_valid_text_matches_reference_bitwise(data, block_bytes):
    ds, lines = data.draw(_layouts())
    text = _render(data.draw, lines)
    d_hint = data.draw(st.sampled_from([None, ds.d, ds.d + 2]))
    want = _outcome(reference_parse, text, d_hint)
    assert _parse_in_blocks(text, block_bytes, d_hint) == want
    if d_hint == ds.d:
        assert want[1:] == (ds.features.tobytes(), ds.labels.tobytes())
    elif isinstance(want, str):
        assert want == "no feature indices found and no d_hint given"


def _corrupt(draw, lines, d):
    """Corrupt one token of one line; the reference must then reject the text."""
    lines = [list(tokens) for tokens in lines]
    tokens = draw(st.sampled_from(lines))
    pairs = tokens[1:]
    at = draw(st.integers(1, len(tokens)))
    kind = draw(
        st.sampled_from(
            ["label", "no_colon", "two_colons", "empty_value", "duplicate", "decreasing", "above"]
        )
    )
    if kind == "label":
        tokens[0] = draw(st.sampled_from(["abc", "1x", "--1", "1:1", ".", "1e", "+"]))
    elif kind == "no_colon":
        tokens.insert(at, draw(st.sampled_from(["7", "2.5", "x"])))
    elif kind == "two_colons":
        tokens.insert(at, "1:2:3")
    elif kind == "empty_value":
        tokens.insert(at, "0:")
    elif kind == "duplicate" and pairs:
        k = draw(st.integers(1, len(pairs)))
        tokens.insert(k + 1, tokens[k].split(":")[0] + ":1")
    elif kind == "decreasing" and any(int(p.split(":")[0]) > 1 for p in pairs):
        k = draw(st.sampled_from([k for k in range(1, len(tokens)) if int(tokens[k].split(":")[0]) > 1]))
        tokens.insert(k + 1, f"{int(tokens[k].split(':')[0]) - 1}:1")
    elif kind in ("duplicate", "decreasing"):
        tokens += ["2:1", "2:1"] if kind == "duplicate" else ["2:1", "1:1"]
    else:
        tokens.append(f"{d + 1}:1")
    return lines, kind


@given(data=st.data(), block_bytes=st.integers(16, 256))
@settings(max_examples=120, deadline=None)
def test_corrupt_token_gives_the_reference_error(data, block_bytes):
    ds, lines = data.draw(_layouts())
    lines, kind = _corrupt(data.draw, lines, ds.d)
    text = _render(data.draw, lines)
    d_hint = ds.d if kind == "above" else data.draw(st.sampled_from([None, ds.d]))
    want = _outcome(reference_parse, text, d_hint)
    assert isinstance(want, str) and want.startswith("line ")
    assert _parse_in_blocks(text, block_bytes, d_hint) == want


_MIXED = b"1 1:0.5\r\n\r\n-1\t2:1.5e-3  3:-2\r0 1:4\n\n+1 3:7 \r\n \r-2 2:.5"


@pytest.mark.parametrize("tail", [b"", b" 1:2", b" 4:1 4:2"], ids=["valid", "decreasing", "duplicate"])
def test_every_block_cut_matches_reference(tail):
    text = _MIXED + tail
    want = _outcome(reference_parse, text)
    for block_bytes in range(1, len(text) + 2):
        assert _parse_in_blocks(text, block_bytes) == want, block_bytes


# -- the grammar ---------------------------------------------------------------------

_FLOAT = rb"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_LONGER = [b"1.e+5", b"1e+5e", b"1e+5.", b"-.5e-3", b"1e5.5", b"1.2.3", b"+1:2", b"12:1.5E+07"]


def test_token_grammar_exhaustive():
    """Every token of up to four bytes over a small alphabet, as label and as pair,
    is accepted exactly when it matches the documented grammar, and accepted
    numbers equal ``float`` bitwise."""
    tokens = [b"".join(t) for n in range(1, 5) for t in itertools.product(
        [b"0", b"1", b"-", b"+", b".", b"e", b":", b"x"], repeat=n)]
    for tok in tokens + _LONGER:
        if re.fullmatch(_FLOAT, tok):
            ds = parse_libsvm(tok + b" 1:1")
            assert ds.labels[0] == (1.0 if float(tok) > 0 else -1.0), tok
        else:
            with pytest.raises(ParseError, match=re.escape(f"line 1: bad label token {tok.decode()!r}")):
                parse_libsvm(tok + b" 1:1")
        pair = re.fullmatch(rb"(\d+):(" + _FLOAT + rb")", tok)
        if pair and 1 <= int(pair[1]) <= 20:
            ds = parse_libsvm(b"1 " + tok, d_hint=20)
            got = ds.features[0, int(pair[1]) - 1]
            assert got.tobytes() == np.float64(float(pair[2])).tobytes(), tok
        else:
            with pytest.raises(ParseError, match="line 1: "):
                parse_libsvm(b"1 " + tok, d_hint=20)


# -- exact conversion ----------------------------------------------------------------


def _assert_read_as_float(tokens, block_bytes=datasets._BLOCK_BYTES):
    """Each token, as a line's label and as its value of feature 1, reads as ``float`` does."""
    text = "".join(f"{tok} 1:{tok}\n" for tok in tokens).encode()
    want = np.array([float(tok) for tok in tokens])
    labels = np.where(want > 0, 1.0, -1.0)
    assert _parse_in_blocks(text, block_bytes, d_hint=1) == (
        (want.size, 1), want.tobytes(), labels.tobytes()
    ), tokens


@st.composite
def _written(draw):
    """A double as %.{p}g, %.{p}f or %.{p}e writes it, with an optional '+',
    leading zeros, an upper-case 'E' and a zero-padded or unsigned exponent."""
    x = draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-25, 25)),
            st.integers(-(10**12), 10**12).map(float),
        )
    )
    text = f"%.{draw(st.integers(0, 17))}{draw(st.sampled_from('gfe'))}" % x
    if text.startswith("-"):
        sign, text = "-", text[1:]
    else:
        sign = draw(st.sampled_from(["", "+"]))
    mantissa, mark, exponent = text.partition("e")
    mantissa = "0" * draw(st.sampled_from([0, 0, 1, 3, 9])) + mantissa
    if mark:
        exp_sign, digits = exponent[0], exponent[1:]
        if exp_sign == "+" and draw(st.booleans()):
            exp_sign = ""
        mark = draw(st.sampled_from("eE"))
        exponent = exp_sign + "0" * draw(st.integers(0, 6)) + digits
    token = sign + mantissa + mark + exponent
    assume(math.isfinite(float(token)))  # "%.0e" may round up past the largest double
    return token


@given(tokens=st.lists(_written(), min_size=1, max_size=30), block_bytes=st.integers(16, 256))
@settings(max_examples=200, deadline=None)
def test_written_numbers_read_bitwise_as_float(tokens, block_bytes):
    _assert_read_as_float(tokens, block_bytes)


_BOUNDARY = [
    # one word of digits, and one byte more
    "99999999", "999999999", "12345678", "1234567.", ".1234567", "1234567.8",
    # zeros and signs
    "-0", "-0.0e0", "+0", "0.", "-.0", "00000000000000000000",
    # exponents at and past the exact range
    "+.5E+022", "1e22", "1e23", "1e-22", "1e-23", "123e-24", "99999999e22", "9.9999999e22",
    "1e00005", "1e+000000022", "1e-0000000005", "1e-100000005",
    # leading zeros: a mantissa of up to 16 bytes whose first ones are zeros or the dot
    "0.0001234", "-0.0001234", "000000001.5", "0000000000000001", "00000000000000001",
    "0.000000000000001", "0000000.00000001",
    # the extremes of the double range and values that must round
    "5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "9007199254740993", "0.1", "0.3", "123456789012345678901234567890",
]


def test_boundary_numbers_read_bitwise_as_float_in_every_block_size():
    for block_bytes in [datasets._BLOCK_BYTES, *range(16, 257)]:
        _assert_read_as_float(_BOUNDARY, block_bytes)


@st.composite
def _integer(draw):
    """An integer token: an optional sign, then 1 to 8 digits or 9 to 12, leading zeros allowed."""
    size = draw(st.one_of(st.integers(1, 8), st.integers(9, 12)))
    digits = draw(st.text("0123456789", min_size=size, max_size=size))
    return draw(st.sampled_from(["", "+", "-"])) + digits


_INTEGERS = st.one_of(_integer(), st.sampled_from(["-0", "+0", "0", "-00000000", "99999999", "-000000001"]))


@given(tokens=st.lists(_INTEGERS, min_size=1, max_size=30), block_bytes=st.integers(16, 256))
@settings(max_examples=150, deadline=None)
def test_integer_blocks_read_bitwise_as_float(tokens, block_bytes):
    """Blocks without a dot or an exponent mark, whose numbers have at most
    eight digits, take the one-word integer path and never reach ``_numbers``;
    with a longer number, the block takes ``_numbers``.  Either way each value
    is ``float`` of its token, bitwise, and the reference parser agrees."""
    calls = []
    numbers = datasets._numbers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_numbers", lambda *a: calls.append(a) or numbers(*a))
        _assert_read_as_float(tokens, block_bytes)
    assert bool(calls) == any(len(tok.lstrip("+-")) > 8 for tok in tokens)
    text = "".join(f"{tok} 1:{tok}\n" for tok in tokens).encode()
    assert _parse_in_blocks(text, block_bytes, d_hint=1) == _outcome(reference_parse, text, 1)


# an integer-only text of 40 lines, with -0 values, whose 31st line is
# replaced by each bad line
_INTEGER_LINES = [f"{'+1' if k % 3 else '-1'} {1 + k % 4}:1 6:{k % 7} 9:-{k}\n".encode() for k in range(40)]


@pytest.mark.parametrize(
    "bad, d_hint, message",
    [
        (b"+1 2:1 2:3\n", None, "line 31: duplicate feature index 2"),
        (b"+1 3:1 2:3\n", None, "line 31: feature indices not increasing at 2"),
        (b"-1 0:1 2:3\n", None, "line 31: feature index 0 is not 1-based"),
        (b"+1 2:1 10:3\n", 9, "line 31: feature index 10 exceeds d_hint=9"),
        (b"+1 2147483648:1\n", None, "line 31: feature index 2147483648 exceeds the largest supported index 2147483647"),
        (b"+1 2:1 3:1x\n", None, "line 31: malformed pair '3:1x'"),
        (b"+1 2:1 3:\xff\n", None, "line 31: malformed pair '3:\ufffd'"),
        (b"-1x 2:1\n", None, "line 31: bad label token '-1x'"),
    ],
    ids=["duplicate", "decreasing", "zero", "above_hint", "too_large", "bad_byte", "bad_utf8", "label"],
)
@pytest.mark.parametrize("block_bytes", [16, 48, 100, datasets._BLOCK_BYTES])
def test_faults_in_integer_blocks_name_their_line(bad, d_hint, message, block_bytes):
    lines = list(_INTEGER_LINES)
    lines[30] = bad
    text = b"".join(lines)
    assert _parse_in_blocks(text, block_bytes, d_hint) == message
    # the reference decodes UTF-8 and has no largest index
    if b"\xff" not in bad and b"2147483648" not in bad:
        assert _outcome(reference_parse, text, d_hint) == message


def test_four_significant_digits_never_reach_the_float_fallback(tmp_path, monkeypatch):
    """Values written with %.4g, the format of the wide bench file, take the
    one-word path: plain, with zeros after the dot, and with exponents.
    Full-precision values do reach ``_floats``."""
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((400, 6)) * 10.0 ** rng.integers(-15, 16, size=(400, 6))
    feats[rng.random(feats.shape) < 0.2] = 0.0
    labels = np.where(rng.random(400) < 0.5, 1.0, -1.0)
    path = tmp_path / "four.libsvm"

    def write(fmt):
        lines = []
        for label, row in zip(labels, feats):
            pairs = " ".join(f"{j + 1}:{fmt % v}" for j, v in enumerate(row) if v != 0.0)
            lines.append(f"{label:+.0f} {pairs}\n")
        path.write_text("".join(lines))
        return np.array([[float(fmt % v) for v in row] for row in feats])

    calls = []
    floats = datasets._floats
    monkeypatch.setattr(datasets, "_floats", lambda *a: calls.append(a) or floats(*a))
    want = write("%.4g")
    text = path.read_text()
    assert re.search(r":-?0\.000[1-9]\d{3} ", text) and "e-" in text and "e+" in text
    assert load_libsvm(path).features.tobytes() == want.tobytes()
    assert calls == []
    want = write("%.17g")
    assert load_libsvm(path).features.tobytes() == want.tobytes()
    assert calls


@pytest.mark.parametrize(
    "text, message",
    [
        (b"1 1:1\n-1 2:nan\n", "line 2: malformed pair '2:nan'"),
        (b"1 1:inf\n", "line 1: malformed pair '1:inf'"),
        (b"1 1:1e400\n", "line 1: non-finite value in pair '1:1e400'"),
        (b"1 2:1 1:-1e999\n", "line 1: feature indices not increasing at 1"),
        (b"nan 1:1\n", "line 1: bad label token 'nan'"),
        (b"-1e999 1:1\n", "line 1: bad label token '-1e999'"),
        (b"1 1:1\n\n-1 1:\xff\n", "line 3: malformed pair '1:�'"),
        (b"\xff 1:1\n", "line 1: bad label token '�'"),
        ("1 １:1\n".encode(), "line 1: malformed pair '１:1'"),
        (b"1 +2:1\n", "line 1: malformed pair '+2:1'"),
        (b"1 1_0:1\n", "line 1: malformed pair '1_0:1'"),
        (b"1 1:1_0\n", "line 1: malformed pair '1:1_0'"),
        (b"1 2147483648:1\n", "line 1: feature index 2147483648 exceeds the largest supported index 2147483647"),
        (b"1 99999999999999999999999:1\n", "line 1: feature index 99999999999999999999999 exceeds"),
        (b"1 00:1\n", "line 1: feature index 0 is not 1-based"),
        # an index of eight digits is one word, one of nine is read digit by digit
        (b"1 99999999:1 0099999999:1\n", "line 1: duplicate feature index 99999999"),
        (b"1 100000000:1 99999999:1\n", "line 1: feature indices not increasing at 99999999"),
    ],
)
def test_values_and_bytes_outside_the_grammar(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_libsvm(text)


def test_leading_zeros_and_long_indices_read_exactly():
    ds = parse_libsvm(b"1 0001:2 000000000000000000000000003:4\n")
    assert ds.d == 3 and ds.features.tolist() == [[2.0, 0.0, 4.0]]


def test_zero_padded_indices_of_9_to_30_digits_read_exactly():
    for width in range(9, 31):
        ds = parse_libsvm(f"1 {1:0{width}d}:2 {3:0{width}d}:4\n".encode(), d_hint=3)
        assert ds.features.tolist() == [[2.0, 0.0, 4.0]], width
        # the messages show the exact values either side of the largest index
        for idx, d_hint, message in [
            (2**31 - 1, 3, f"feature index {2**31 - 1} exceeds d_hint=3"),
            (2**31, None, f"feature index {2**31} exceeds the largest supported index {2**31 - 1}"),
        ]:
            with pytest.raises(ParseError, match=re.escape(f"line 1: {message}")):
                parse_libsvm(f"1 {idx:0{width}d}:1\n".encode(), d_hint=d_hint)


def test_a_200000_digit_index_parses_in_well_under_a_second():
    text = b"1 1:1 " + b"0" * 200_000 + b"2:3\n"
    start = time.perf_counter()
    ds = parse_libsvm(text)
    assert time.perf_counter() - start < 0.5
    assert ds.features.tolist() == [[1.0, 3.0]]


_PADDED = b"0" * 5000


@pytest.mark.parametrize(
    "text, message",
    [
        (b"1 4:1 " + _PADDED + b"3:1\n", "line 1: feature indices not increasing at 3"),
        (b"1 " + _PADDED + b"3:1 " + _PADDED + b"3:2\n", "line 1: duplicate feature index 3"),
        (
            b"1 1" + _PADDED + b":1\n",
            f"line 1: feature index 1{_PADDED[:31].decode()}… (5001 digits) exceeds the largest "
            "supported index 2147483647",
        ),
    ],
    ids=["decreasing", "duplicate", "too_large"],
)
def test_indices_of_over_4300_digits_are_parse_errors(text, message):
    """``int`` refuses strings of more than 4,300 digits; such an index is
    still read, and named in its message without its leading zeros and cut
    to its first 32 digits."""
    with pytest.raises(ParseError) as exc:
        parse_libsvm(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, start, length",
    [
        (b"1 2:1\n1 1:" + b"5" * 1_000_000 + b"x\n", "line 2: malformed pair '1:555", "1000003 bytes"),
        (b"1 2:1\n-" + b"1" * 1_000_000 + b"x 1:1\n", "line 2: bad label token '-111", "1000002 bytes"),
        (b"1 1" + b"0" * 100_000 + b":1\n", "line 1: feature index 1000", "100001 digits"),
    ],
    ids=["malformed", "bad_label", "too_large"],
)
def test_messages_cut_long_tokens(text, start, length):
    with pytest.raises(ParseError) as exc:
        parse_libsvm(text)
    message = str(exc.value)
    assert message.startswith(start)
    assert f"… ({length})" in message
    assert len(message) < 200


def test_long_mantissas_and_exponents_read_bitwise_as_float():
    rng = np.random.default_rng(8)
    tokens = ["1" + "0" * 400 + "e-400", "-" + "0" * 500 + "1.5", "0." + "0" * 300 + "17e300"]
    tokens += ["1e" + "0" * 400 + "5", "-2.5E-" + "0" * 50 + "300", "9" * 30 + "e-" + "0" * 20 + "29"]
    for _ in range(40):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(17, 400))))
        dot = int(rng.integers(0, len(digits)))
        exp = int(rng.integers(-330, 300)) - dot
        zeros = "0" * int(rng.integers(0, 30))
        tokens.append(f"{digits[:dot]}.{digits[dot:]}e{'-' if exp < 0 else '+'}{zeros}{abs(exp)}")
    tokens = [tok for tok in tokens if math.isfinite(float(tok))]
    for block_bytes in [datasets._BLOCK_BYTES, 64, 200]:
        _assert_read_as_float(tokens, block_bytes)


def test_line_breaks_are_those_of_bytes_splitlines():
    text = b"1 1:1\r-1 2:1\r\n\r\n1 1:2\n\x0b1\x0c1:3\t\n"
    ds = parse_libsvm(text)
    assert ds.features.tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0]]
    # blank lines count: the fifth line of this text is the bad one
    with pytest.raises(ParseError, match="line 5: "):
        parse_libsvm(text.replace(b"1:3", b"1:x"))


def test_gzip_is_read_as_bytes(tmp_path):
    path = tmp_path / "toy.txt.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(b"1 1:1 2:2\r\n-1 2:1\r\n")
    assert _outcome(load_libsvm, path) == _outcome(parse_libsvm, b"1 1:1 2:2\n-1 2:1\n")


# -- blocks parsed on worker threads --------------------------------------------------

_LINE = b"+1 1:0.5 2:-1\n"


def _blocks_of(text):
    """The line numbers after which each block of ``text`` starts."""
    starts, lines = [], 0
    for buf in datasets._line_blocks(io.BytesIO(text)):
        starts.append(lines)
        lines += buf.count(b"\n")
    return starts


def test_earlier_of_two_bad_blocks_is_reported(monkeypatch):
    """The block with the earlier bad line finishes last and is still the one reported."""
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 128)
    lines = [_LINE] * 200
    starts = _blocks_of(b"".join(lines))
    assert len(starts) > 10
    # two lines of the same length as the others, in adjacent blocks
    lines[starts[5] + 1] = b"+1 1:xxx 2:-1\n"
    lines[starts[6] + 1] = b"-1 2:0.5 1:-1\n"
    text = b"".join(lines)
    assert _blocks_of(text) == starts

    parse_block = datasets._parse_block

    def slow_earlier(buf, d_hint):
        if b"1:xxx" in buf:
            time.sleep(0.1)  # sleeping releases the lock: the later block fails first
        return parse_block(buf, d_hint)

    monkeypatch.setattr(datasets, "_parse_block", slow_earlier)
    want = _outcome(reference_parse, text)
    assert want == f"line {starts[5] + 2}: malformed pair '1:xxx'"
    assert _outcome(parse_libsvm, text) == want


@pytest.mark.parametrize(
    "bad",
    [b"+1 1:x\n", b"-1 2:1 2:1\n", b"1 3:1\n", b"x\n"],
    ids=["malformed", "duplicate", "above", "label"],
)
def test_bad_line_in_a_later_block_names_its_line_in_the_file(monkeypatch, bad):
    lines = [_LINE] * 300
    lines[250] = bad
    text = b"\n" + b"".join(lines)  # a blank first line: data line k is line k + 1
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 64)
    assert np.searchsorted(_blocks_of(text), 251) > 20
    want = _outcome(reference_parse, text, d_hint=2)
    assert want.startswith("line 252: ")
    assert _outcome(parse_libsvm, text, d_hint=2) == want


def test_no_worker_outlives_a_load(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 64)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes(_LINE * 500)
    bad.write_bytes(_LINE * 250 + b"+1 1:x\n" + _LINE * 250)
    before = threading.active_count()
    assert load_libsvm(good).n == 500
    assert threading.active_count() == before
    with pytest.raises(ParseError, match="line 251: malformed pair"):
        load_libsvm(bad)
    assert threading.active_count() == before

    # a fill job that raises takes the load down, and its pool with it
    def broken_fill(*args):
        raise RuntimeError("fill failed")

    monkeypatch.setattr(datasets, "_fill_rows", broken_fill)
    with pytest.raises(RuntimeError, match="fill failed"):
        load_libsvm(good, normalize=True, split_seed=3)
    assert threading.active_count() == before



def test_every_block_parses_and_fills_on_the_pool(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    submitted = []
    real = ThreadPoolExecutor.submit

    def submit(self, *args, **kwargs):
        submitted.append(args[0])
        return real(self, *args, **kwargs)

    def jobs_of(func):
        return [job for job in submitted if getattr(job, "func", job) is func]

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    # one block is parsed, filled and scaled on the pool
    path = tmp_path / "data.txt"
    path.write_bytes(_LINE * 3)
    assert load_libsvm(path, normalize=True, split_seed=3).train.n == 2
    assert len(jobs_of(datasets._parse_block)) == len(jobs_of(datasets._fill_rows)) == 1
    with pytest.raises(ParseError, match="line 2: malformed pair"):
        parse_libsvm(b"+1 1:0.5\n+1 1:x\n")
    # so are two blocks or more, one job per block
    submitted.clear()
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 64)
    path.write_bytes(_LINE * 200)
    assert load_libsvm(path, normalize=True, split_seed=3).train.n == 100
    blocks = len(_blocks_of(_LINE * 200))
    assert len(jobs_of(datasets._parse_block)) == len(jobs_of(datasets._fill_rows)) == blocks > 10


# -- memory ------------------------------------------------------------------------------


def test_parse_peak_memory_is_bounded(tmp_path):
    """A dense file of many blocks parses within its own size, three dense
    matrices and the temporaries of one block (some 10 to 30 bytes per byte).
    The token-at-a-time parser peaks at four times this file's size, above
    the bound."""
    block = 1 << 16
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((2000, 60))
    path = tmp_path / "dense.libsvm"
    with open(path, "w") as fh:
        for row in feats:
            fh.write("+1 " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist())) + "\n")
    file_bytes = path.stat().st_size
    assert file_bytes > 20 * block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            ds = load_libsvm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ds.features.tobytes() == feats.tobytes()
    assert peak < file_bytes + 3 * ds.features.nbytes + 40 * block
