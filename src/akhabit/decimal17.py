"""Exact ``%.17g`` text of float64 arrays, a block at a time.

``encode_rows`` returns the bytes that joining ``'%.17g' % v`` over each
row with commas, one line per row, produces.  Python's own conversion
goes through bignum dtoa at about a microsecond per value; here the
rounding is done in vector form and only the values it cannot certify
are formatted one by one.

For a value x with decimal exponent E (10^E <= |x| < 10^(E+1)) the 17
significant digits are the integer N nearest to y = |x| * 10^(16-E).
E comes from the binary exponent of x and one compare against a power
of ten.  10^(16-E) is tabulated as an unevaluated sum hi + lo of two
doubles, and |x| * hi is formed exactly as a Dekker product (Dekker,
Numer. Math. 18, 1971), so y is known to about 1e-14 in units of its
last digit.  A value is certified when y lies more than ``TIE_MARGIN``
from a rounding tie and N has 17 digits and is not 10^16 (which proves
the estimate of E).  Zeros have their own exact path.  Everything else
is formatted by ``'%.17g' % v``: non-finite values, magnitudes outside
[``LOW``, ``HIGH``) (where the Dekker split could overflow or lose bits
to underflow), near-ties, and misestimated exponents.  The binary
exponents outside that range look up a zero scale, so the arithmetic
runs on every value unmasked, with its overflow warnings silenced, and
leaves those values uncertified.

The digits come from 4-digit lookups into a fixed-width byte field per
value, and the layout is the same for every value of one decimal
exponent: the integer digits stay where they are, the fraction digits
move one place right (a copy of the field shifted by one byte) to make
room for the point, and the sign, leading '0.000', point, exponent
suffix and separator are a looked-up template.  A field is four
``uint64`` words, and every lookup is a ``take`` of whole words.  The
text of a value is the run of its sign and mantissa without trailing
zeros, then the run of its suffix and separator, which the template
puts right after a mantissa of 17 digits, so the two are one run unless
zeros were dropped.  One boolean compress of all fields gives the text.
A value holds about 90 bytes of transient memory while its block is
encoded.
"""

from __future__ import annotations

import functools

import numpy as np

#: magnitudes the vector path formats, whole binades; the rest fall back to '%.17g' % v
LOW, HIGH = 2.0**-930, 2.0**930
#: distance from a rounding tie (in units of the 17th digit) below which a
#: value is formatted by '%.17g' % v; the vector rounding error is ~1e-14
TIE_MARGIN = 1e-9

# One value's field, WIDTH bytes:
#   1..6     the sign, and the lead '0.000' of 1e-4 <= |x| < 1, right before the digits
#   7..24    the mantissa: digit m at 7 + m, or at 8 + m after the point
#   24..30   right after 17 digits: the exponent suffix, 'e-05' or 'e+123',
#            if any, then the separator, ',' or '\n'
# A text is two runs of its field, the sign and the mantissa without its
# trailing zeros, then the suffix and separator: one run when no zero is
# dropped.
WIDTH = 32
_WORDS = WIDTH // 8
_DIGITS = 7
#: the second run of a text, [first, stop): none, for a fallback text kept
#: whole in the first run, or after 17 digits without and with a point, of
#: the separator alone or of the two lengths of suffix and separator
_TAILS = ((0, 0),) + tuple(
    (_DIGITS + n, _DIGITS + n + len(text)) for n, text in ((17, ","), (18, ","), (18, "e-05,"), (18, "e+123,"))
)
_FIXED = (-4, 16)  # exponents '%.17g' writes without an exponent suffix
_BIAS = 1023  # of the binary exponent field
_SPAN = 930  # binary exponents b of the vector path, -_SPAN <= b < _SPAN
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting factor
_TZ = 21  # trailing zeros of the five digit groups: 0..20


def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi = 10^k rounded, lo = 10^k - hi rounded.

    float(int) and int / int round correctly.
    """
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    num, den = (hi := 1 / 10**-k).as_integer_ratio()
    return hi, (den - num * 10**-k) / (den * 10**-k)


def _keep_code(start, end, tail):
    """Row of the keep table for the bytes [start, end) and the run ``_TAILS[tail]``."""
    return (start * (WIDTH + 1) + end) * len(_TAILS) + tail


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only table that owns its memory (copied if it is a view)."""
    a = np.require(a, requirements=["C", "O"])
    a.flags.writeable = False
    return a


@functools.cache
def _tables():
    """Lookup tables, built on first use and read-only.

    A value is keyed by its decimal exponent E: key = E - E_min + 2.  The
    key is looked up from the biased binary exponent e of |x| as the key
    of floor(log10 2^(e - _BIAS)), plus one when |x| reaches the next
    power of ten.  Keys 0 and 1 are the binary exponents outside the
    vector range: a zero scale, and the layout of E = 0 that zeros print in.
    """
    b = np.arange(2048) - _BIAS
    vec = (b >= -_SPAN) & (b < _SPAN)
    E0 = (b * 78913) >> 18  # floor(b log10 2), exact for |b| < 1100
    E_min, E_max = int(E0[vec].min()), int(E0[vec].max()) + 1
    E = np.concatenate([[0, 0], np.arange(E_min, E_max + 1)])
    # 10^k for the compare's 10^(E0+1) and the scale 10^(16-E)
    k0 = min(E_min + 1, 16 - E_max)
    pow10 = np.array([_pow10(k) for k in range(k0, max(E_max, 16 - E_min) + 1)])
    base = np.where(vec, E0 - E_min + 2, 0)
    ten = np.where(vec, pow10[np.where(vec, E0, 0) + 1 - k0, 0], np.inf)
    hi, lo = np.where((np.arange(len(E)) >= 2)[:, None], pow10[16 - E - k0], 0.0).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)

    # per layout, by the exponent X the mantissa is written at: the masks
    # of the bytes taken from the digits and from their shifted copy, the
    # literal bytes (sign, lead, point), where a positive value's text
    # starts (a negative one's sign is the byte before), the integer
    # digits, and the mantissa end less the digits kept
    layouts = range(_FIXED[0], _FIXED[1] + 1)
    head, tail, literals = (np.zeros((len(layouts), WIDTH), dtype=np.uint8) for _ in range(3))
    starts, int_digits, end_base = [], [], []
    for k, X in enumerate(layouts):
        if X >= 0:
            head[k, _DIGITS : _DIGITS + X + 1] = 0xFF
            tail[k, _DIGITS + X + 2 : _DIGITS + 18] = 0xFF
            literals[k, _DIGITS + X + 1] = ord(".")
            lead = _DIGITS
            int_digits.append(X + 1)
            end_base.append(_DIGITS + 1)
        else:
            head[k, _DIGITS : _DIGITS + 17] = 0xFF
            lead = _DIGITS + X - 1
            literals[k, lead:_DIGITS] = np.frombuffer(b"0." + b"0" * (-X - 1), dtype=np.uint8)
            int_digits.append(0)
            end_base.append(_DIGITS)
        literals[k, lead - 1] = ord("-")
        starts.append(lead)
    # per key: the layout; the mantissa's end by its trailing zeros, past
    # the point only when a fraction digit is kept; and, after the end of
    # 17 digits, the exponent suffix and the separator
    fixed = (E >= _FIXED[0]) & (E <= _FIXED[1])
    layout = np.where(fixed, E, 0) - _FIXED[0]
    literals = literals[layout]
    tz = np.arange(_TZ)
    digits_in = np.array(int_digits)[layout, None]
    kept = np.maximum(17 - tz, digits_in)
    end = kept + np.array(end_base)[layout, None] - (kept == digits_in)
    tails, newline = [], np.zeros(len(E), dtype=np.uint64)
    for k, (e, first) in enumerate(zip(E, end[:, 0])):
        text = (b"" if fixed[k] else f"e{e:+03d}".encode()) + b","
        literals[k, first : first + len(text)] = np.frombuffer(text, dtype=np.uint8)
        tails.append(_TAILS.index((first, first + len(text))))
        # the last column's '\n' for the ',', as a change to the last word
        newline[k] = (ord(",") ^ ord("\n")) << 8 * (first + len(text) - 1 - 8 * (_WORDS - 1))
    # code[key, tz]: the keep row of a positive value with tz trailing zeros
    code = _keep_code(np.array(starts)[layout, None], end, np.array(tails)[:, None])
    del kept, end

    # the 4-digit groups as the bytes they are written as, and their trailing zeros
    i = np.arange(10000, dtype=np.uint32)
    low = sum((i // 10**t % 10 + ord("0")) << (8 * (3 - t)) for t in range(4)).astype(np.uint64)
    trailing = sum(i % 10**t == 0 for t in range(1, 5)).astype(np.int8)
    del i

    # keep[_keep_code(start, end, tail), place]: the runs [start, end) and _TAILS[tail]
    pos = np.arange(WIDTH)
    start, stop, run = (a[..., None] for a in np.ix_(range(8), range(WIDTH + 1), range(len(_TAILS))))
    first, last = np.moveaxis(np.array(_TAILS)[run], -1, 0)
    keep = ((pos >= start) & (pos < stop)) | ((pos >= first) & (pos < last))

    def words(a):
        return a.reshape(-1, WIDTH).astype(np.uint8).view(np.uint64)

    tables = {
        "base": base,
        "ten": ten,
        "hi": hi,
        "hi_hi": hi_hi,
        "hi_lo": hi - hi_hi,
        "lo": lo,
        "lead": (np.arange(10, dtype=np.uint64) + ord("0")) << 56,  # the first digit, byte 7
        "low": low,
        "high": low << 32,
        "trailing": trailing,
        "code": code,
        "head": words(head[layout]).T,
        "tail": words(tail[layout]).T,
        "literals": words(literals),
        "newline": newline,
        "keep": words(keep),
    }
    return {name: _frozen(a) for name, a in tables.items()}


def _round17(x: np.ndarray, tab: dict):
    """Keys, 17-digit integers N (arbitrary where not certified) and the certified mask."""
    ax = np.abs(x)
    e = ax.view(np.int64) >> 52
    key = tab["base"].take(e)
    key += ax >= tab["ten"].take(e)
    del e
    # y = ax * 10^(16 - E) = p + r, p = fl(ax * hi) and r its exact error plus ax * lo
    ah = ax * _SPLIT
    al = ah - ax
    np.subtract(ah, al, out=ah)
    np.subtract(ax, ah, out=al)
    p = tab["hi"].take(key)
    p *= ax
    hh = tab["hi_hi"].take(key)
    r = ah * hh
    r -= p
    hl = tab["hi_lo"].take(key)
    ah *= hl
    r += ah
    hh *= al
    r += hh
    hl *= al
    r += hl
    tab["lo"].take(key, out=hl, mode="clip")
    hl *= ax
    r += hl
    del ah, al, hh, hl
    rr = np.rint(r)
    N = p.astype(np.int64)
    del p
    N += rr.astype(np.int64)
    r -= rr
    np.abs(r, out=r)
    ok = r < 0.5 - TIE_MARGIN
    ok &= N > 10**16
    ok &= N < 10**17
    ok |= x == 0.0
    return key, N, ok


def _more_zeros(tz, more, groups, trailing):
    """Add the groups' trailing zeros to tz at ``more``, for as long as the groups are all zeros."""
    for group in groups:
        if not more.size:
            break
        part = trailing.take(group[more], mode="clip")
        tz[more] += part
        more = more[part == 4]
    return more


def _digits(N: np.ndarray, tab: dict):
    """The fields with N's 17 digits at their places, and the digits' trailing zeros.

    N < 10^17 is split into base 10^4: its first digit, then four groups
    of four digits, each looked up as the word of bytes it is written as.
    The lookups clip their index, so a value that was not certified gets
    some digits rather than an error.  N's own memory is reused.  The
    buffer has 8 bytes in front of the fields, so that a copy of the
    fields one byte later can be viewed.
    """
    low, high, trailing = tab["low"], tab["high"], tab["trailing"]
    buf = np.empty(len(N) * WIDTH + 8, dtype=np.uint8)
    words = buf[8:].view(np.uint64).reshape(-1, _WORDS)
    # the last eight digits, then the first nine; trailing zeros from the last
    top = N // 100_000_000
    rest = np.subtract(N, top * 100_000_000, out=N)
    g3 = rest // 10_000
    g4 = np.subtract(rest, g3 * 10_000, out=rest)
    words[:, 2] = low.take(g3, mode="clip")
    words[:, 2] |= high.take(g4, mode="clip")
    tz = trailing.take(g4, mode="clip")
    more = _more_zeros(tz, np.flatnonzero(tz == 4), [g3], trailing)
    del g3
    q = top // 10_000
    g2 = np.subtract(top, q * 10_000, out=top)
    lead = np.floor_divide(q, 10_000, out=g4)  # g4 is counted already
    g1 = np.subtract(q, lead * 10_000, out=q)
    words[:, 1] = low.take(g1, mode="clip")
    words[:, 1] |= high.take(g2, mode="clip")
    tab["lead"].take(lead, out=words[:, 0], mode="clip")
    _more_zeros(tz, more, [g2, g1, lead], trailing)
    return buf, tz


def _fields(buf: np.ndarray, key: np.ndarray, cols: int, tab: dict) -> np.ndarray:
    """Each value's field, in place of its digits: point, sign, lead, suffix and separator added.

    Word 0 holds the first digit alone and needs no mask.  Word k of the
    shifted copy reads the top byte of digit word k - 1, so the masked
    words are done from the last one down, one column at a time.
    """
    digits = buf[8:].view(np.uint64).reshape(-1, _WORDS)
    shifted = buf[7:-1].view(np.uint64).reshape(-1, _WORDS)
    for k in range(_WORDS - 1, 0, -1):
        word = tab["tail"][k].take(key)
        word &= shifted[:, k]
        if k < _WORDS - 1:
            head = tab["head"][k].take(key)
            head &= digits[:, k]
            word |= head
        digits[:, k] = word
    del word, head
    digits |= tab["literals"].take(key, axis=0)
    # the last column's separator is '\n', the template's ','
    digits.reshape(-1, cols, _WORDS)[:, -1, -1] ^= tab["newline"].take(key.reshape(-1, cols)[:, -1])
    return digits


def encode_rows(block: np.ndarray) -> np.ndarray:
    """The '%.17g' text of a (rows, cols) float64 block, rows as CSV lines, as uint8.

    Each array is dropped once it is used: the peak memory of a block is
    what bounds ``simulate.CSV_CHUNK``.
    """
    tab = _tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    # magnitudes outside [LOW, HIGH) may overflow in the Dekker product; they are not certified
    with np.errstate(over="ignore", invalid="ignore"):
        key, N, ok = _round17(x, tab)
    fallback = np.flatnonzero(~ok)
    del ok
    buf, tz = _digits(N, tab)
    del N
    cols = block.shape[1]
    fields = _fields(buf, key, cols, tab)
    # the keep row; the sign moves the start one place left
    key *= _TZ
    key += tz
    del tz
    code = tab["code"].take(key)
    del key
    code -= np.signbit(x) * _keep_code(1, 0, 0)
    text = fields.view(np.uint8)
    for i in fallback:
        value = ("%.17g" % x[i]).encode() + (b"\n" if i % cols == cols - 1 else b",")
        text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
        code[i] = _keep_code(0, len(value), 0)
    keep = tab["keep"].take(code, axis=0)
    del code
    return text[keep.view(np.bool_)]
