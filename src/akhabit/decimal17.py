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
[``LOW``, ``HIGH``] (where the Dekker split could overflow or lose bits
to underflow), near-ties, and misestimated exponents.

The digits come from 4-digit lookups into a fixed-width byte field per
value, and the layout is the same for every value of one decimal
exponent: the integer digits stay where they are, the fraction digits
move one place right (a copy of the field shifted by one byte) to make
room for the point, and the sign, leading '0.000', point and exponent
suffix are a looked-up template.  The bytes to keep (the sign, the
mantissa without trailing zeros, the suffix) are two runs per field,
and one boolean compress of all fields gives the text.
"""

from __future__ import annotations

import functools

import numpy as np

#: magnitudes the vector path formats; the rest fall back to '%.17g' % v
LOW, HIGH = 1e-280, 1e280
#: distance from a rounding tie (in units of the 17th digit) below which a
#: value is formatted by '%.17g' % v; the vector rounding error is ~1e-14
TIE_MARGIN = 1e-9

# One value's field, WIDTH bytes:
#   1..6     the sign, and the lead '0.000' of 1e-4 <= |x| < 1, right before the digits
#   7..24    the mantissa: digit m at 7 + m, or at 8 + m after the point
#   26..30   the exponent suffix, right-aligned: 'e-05' or 'e+123'
#   31       the separator, ',' or '\n'
WIDTH = 32
_DIGITS, _SUFFIX, _SEP = 7, 26, 31
_FIXED = (-4, 16)  # exponents '%.17g' writes without an exponent suffix
_B_SPAN = 940  # binary exponents tabulated, |b| <= _B_SPAN; [LOW, HIGH] needs 931
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting factor


def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi = 10^k rounded, lo = 10^k - hi rounded.

    float(int) and int / int round correctly.
    """
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    num, den = (hi := 1 / 10**-k).as_integer_ratio()
    return hi, (den - num * 10**-k) / (den * 10**-k)


def _keep_code(start, end, suffix):
    """Row of the keep table for the bytes [start, end) and [suffix, WIDTH)."""
    return (start * (WIDTH + 1) + end) * (WIDTH - _SUFFIX) + suffix - _SUFFIX


@functools.cache
def _tables():
    """Lookup tables, built on first use.

    Values are keyed by their binary exponent b and then by the exponent
    key j = 2 * (b + _B_SPAN) + bump, for the decimal exponent
    E = floor(log10 2^(b-1)) + bump.
    """
    b = np.arange(-_B_SPAN, _B_SPAN + 1)
    # floor((b - 1) log10 2), exact for |b| < 1100
    E0 = ((b - 1) * 78913) >> 18
    E = np.stack([E0, E0 + 1], axis=1).ravel()
    # 10^k for the compare's 10^(E0+1) and the scale 10^(16-E)
    k0 = int(E0[0]) + 1
    pow10 = np.array([_pow10(k) for k in range(k0, 17 - int(E[0]))])
    ten = pow10[E0 + 1 - k0, 0]
    hi, lo = pow10[16 - E - k0].T
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
    # per exponent key: the layout, and the suffix joined to its literals
    fixed = (E >= _FIXED[0]) & (E <= _FIXED[1])
    layout = np.where(fixed, E, 0) - _FIXED[0]
    suffix = "".join(f"{f'e{e:+03d}':\0>5}" for e in range(E[0], E[-1] + 1))
    literals = literals[layout]
    literals[:, _SUFFIX:_SEP] = np.frombuffer(suffix.encode(), np.uint8).reshape(-1, 5)[E - E[0]]
    literals[fixed, _SUFFIX:_SEP] = 0
    suffix_start = np.where(fixed, _SEP, _SEP - np.where(abs(E) < 100, 4, 5))

    # the 4-digit groups as words, and their trailing zeros
    i = np.arange(10000, dtype=np.int16)
    words = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    trailing = sum(i % 10**t == 0 for t in range(1, 5))

    # keep[_keep_code(start, end, suffix), place]
    pos = np.arange(WIDTH)
    start, end, suf = (a[..., None] for a in np.ix_(range(8), range(WIDTH + 1), range(_SUFFIX, WIDTH)))
    keep = ((pos >= start) & (pos < end)) | (pos >= suf)

    return {
        "ten": ten,
        "hi": hi,
        "hi_hi": hi_hi,
        "hi_lo": hi - hi_hi,
        "lo": lo,
        "words": words.astype(np.uint8).view(np.uint32).ravel(),
        "trailing": trailing.astype(np.int16),
        "layout": layout,
        "head": head.view(f"V{WIDTH}").ravel(),
        "tail": tail.view(f"V{WIDTH}").ravel(),
        "literals": literals.view(f"V{WIDTH}").ravel(),
        "code": _keep_code(np.array(starts)[layout], 0, suffix_start),
        "int_digits": np.array(int_digits, dtype=np.int16)[layout],
        "end_base": np.array(end_base, dtype=np.int16)[layout],
        "keep": keep.reshape(-1, WIDTH).view(np.uint8).view(f"V{WIDTH}").ravel(),
    }


def _round17(x: np.ndarray, tab: dict):
    """Exponent keys, 17-digit integers N (0 where not certified) and the certified mask."""
    ax = np.abs(x)
    vec = (ax >= LOW) & (ax <= HIGH)
    ax = np.where(vec, ax, 1.0)
    _, b = np.frexp(ax)
    b += _B_SPAN
    j = 2 * b + (ax >= tab["ten"][b])
    # y = ax * 10^(16 - E) = p + r, p = fl(ax * hi) and r its exact error plus ax * lo
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    hi, hh, hl = tab["hi"][j], tab["hi_hi"][j], tab["hi_lo"][j]
    p = ax * hi
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + ax * tab["lo"][j]
    rr = np.rint(r)
    N = p.astype(np.int64) + rr.astype(np.int64)
    ok = vec & (np.abs(r - rr) < 0.5 - TIE_MARGIN) & (N > 10**16) & (N < 10**17)
    N[~ok] = 0
    return j, N, ok | (x == 0.0)


def _groups(N: np.ndarray) -> np.ndarray:
    """N < 10^17 in base 10^4: its first digit, then four groups of four digits."""
    # N = top * 10^8 + rest; the float quotient, lowered by 64/10^8, is at
    # most one below N // 10^8
    top = np.floor((N.astype(np.float64) - 64.0) / 1e8).astype(np.int64)
    rest = N - top * 100_000_000
    over = rest >= 100_000_000
    top += over
    rest -= over * 100_000_000
    g = np.empty((len(N), 5), dtype=np.intp)
    hf = top.astype(np.float64)
    q = np.floor(hf / 1e4)
    g[:, 2] = hf - q * 1e4
    lead = np.floor(q / 1e4)
    g[:, 1] = q - lead * 1e4
    g[:, 0] = lead
    lf = rest.astype(np.float64)
    q = np.floor(lf / 1e4)
    g[:, 3] = q
    g[:, 4] = lf - q * 1e4
    return g


def _fields(j: np.ndarray, g: np.ndarray, cols: int, tab: dict) -> np.ndarray:
    """Each value's field: digits, the point, sign, lead and suffix, and the separator."""
    n = len(j)
    # the digits at their places, and a copy of all fields one byte later
    buf = np.empty(n * WIDTH + 4, dtype=np.uint8)
    digits = buf[4:].reshape(n, WIDTH)
    shifted = buf[3:-1].reshape(n, WIDTH)
    digits.view(np.uint32)[:, 1:6] = tab["words"][g]  # the first digit's word is 000d
    layout = tab["layout"][j]
    fields = digits & tab["head"][layout].view(np.uint8).reshape(n, WIDTH)
    fields |= shifted & tab["tail"][layout].view(np.uint8).reshape(n, WIDTH)
    fields |= tab["literals"][j].view(np.uint8).reshape(n, WIDTH)
    fields.reshape(-1, cols, WIDTH)[:, :, _SEP] = np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)
    return fields


def _keep_codes(x: np.ndarray, j: np.ndarray, g: np.ndarray, tab: dict) -> np.ndarray:
    """Each value's row of the keep table."""
    # trailing zeros of the 17 digits; a zero last group is rare
    tz = tab["trailing"][g[:, 4]]
    more = np.flatnonzero(tz == 4)
    for col in (3, 2, 1, 0):
        part = tab["trailing"][g[more, col]]
        tz[more] += part
        more = more[part == 4]
    # the digits kept, and the mantissa's end: past the point when a
    # fraction digit is kept; the sign moves the start one place left
    int_digits = tab["int_digits"][j]
    kept = np.maximum(17 - tz, int_digits)
    end = kept + tab["end_base"][j] - (kept == int_digits)
    return tab["code"][j] + _keep_code(0, end, _SUFFIX) - np.signbit(x) * _keep_code(1, 0, _SUFFIX)


def encode_rows(block: np.ndarray) -> np.ndarray:
    """The '%.17g' text of a (rows, cols) float64 block, rows as CSV lines, as uint8."""
    n = block.size
    tab = _tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    j, N, ok = _round17(x, tab)
    g = _groups(N)
    fields = _fields(j, g, block.shape[1], tab)
    code = _keep_codes(x, j, g, tab)
    for i in np.flatnonzero(~ok):
        text = ("%.17g" % x[i]).encode()
        fields[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        code[i] = _keep_code(0, len(text), _SEP)
    return fields[tab["keep"][code].view(np.bool_).reshape(n, WIDTH)]
