"""write_csv against Python's own '%.17g', byte for byte.

The writer formats in vector form and falls back to '%.17g' % v only
for values it cannot certify, so these cases aim at both sides of every
line it draws: zeros and subnormals, the edges of the vector range,
powers of ten and their neighbours, exact rounding ties, the points
where '%g' switches notation, and chunk boundaries.
"""

import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akhabit import decimal17, simulate
from akhabit.simulate import CSV_CHUNK, write_csv


def expected(header, columns):
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return (header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)).encode()


def written(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, header, columns)
        return path.read_bytes()


def assert_exact(values, cols=1):
    values = np.asarray(values, dtype=np.float64).ravel()
    values = values[: len(values) // cols * cols].reshape(-1, cols)
    columns = tuple(values.T)
    header = ",".join(f"c{i}" for i in range(cols))
    got, want = written(header, columns), expected(header, columns)
    if got != want:
        for a, b in zip(got.splitlines(), want.splitlines()):
            assert a == b
    assert got == want


def nudged(x, ulps):
    """x moved by -ulps..ulps units in the last place."""
    x = np.asarray(x, dtype=np.float64)
    out = [x]
    up = down = x
    with np.errstate(over="ignore"):  # the largest double steps to inf
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 4))
def test_arbitrary_bit_patterns(bits, cols):
    # every float64: NaN payloads of both signs, infinities, subnormals
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_exact(np.resize(values, max(cols, len(values))), cols)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_hypothesis_floats(values):
    assert_exact(values)


def test_zeros_and_subnormals():
    tiny = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310]
    assert_exact([0.0, -0.0] + tiny + [-v for v in tiny], cols=2)


def test_edges_of_the_vector_range():
    edges = [decimal17.LOW, decimal17.HIGH, 1e-281, 1e281, 1.7976931348623157e308]
    assert_exact(nudged(edges + [-v for v in edges], 3))


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    assert_exact(nudged(np.concatenate([powers, -powers]), 3), cols=3)


def test_exact_ties_round_half_even():
    # x = q / 2^(s+1), q odd: |x| 10^s = q 5^s / 2 ends in an exact .5, and
    # when it lies in [10^16, 10^17) that .5 is the 17-digit rounding's tie
    rng = np.random.default_rng(7)
    ties = []
    for s in range(2, 25):
        lo, hi = -(-2 * 10**16 // 5**s), 2 * 10**17 // 5**s
        for q in rng.integers(lo, hi, 40).tolist() + [lo, hi - 1]:
            q |= 1
            if lo <= q < hi:
                ties.append(q / 2 ** (s + 1))
    ties = np.array(ties)
    assert 2.0**-25 in ties  # 2.98023223876953125e-08: '%.17g' keeps ...312
    assert_exact(np.concatenate([ties, -ties, nudged(ties, 1)]), cols=4)


def test_near_ties_at_large_exponents():
    # x = m 2^(k+t) with m 2^k = (5^t +- 1) / 2 mod 5^t: y = x / 10^t lies
    # 1 / (2 5^t) from a tie, within the vector path's margin for t >= 13
    near = []
    for t in range(13, 23):
        M = 5**t
        for k in range(60):
            for R in ((M - 1) // 2, (M + 1) // 2):
                m = R * pow(2**k, -1, M) % M
                m += -(-(2**52 - m) // M) * M
                if m < 2**53 and len(str(m * 2**k // M)) == 17:
                    near.append(math.ldexp(m, k + t))
    assert len(near) > 50
    assert_exact(near + [-v for v in near], cols=2)


def test_notation_switch_points():
    # '%g' writes 1e-5 with an exponent, 1e-4 without, 1e16 without and
    # 1e17 with; the 17-digit rounding decides which side a value is on
    switch = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05, 99999999999999999.0]
    assert_exact(nudged(switch + [-v for v in switch], 4), cols=2)


@pytest.mark.parametrize("cols", [1, 8])
def test_chunk_boundaries(cols):
    per_chunk = max(1, CSV_CHUNK // cols)
    rng = np.random.default_rng(cols)
    for rows in sorted({0, 1, per_chunk - 1, per_chunk, per_chunk + 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1}):
        values = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(-20, 20, rows * cols)
        values[::7] = 0.0
        assert_exact(values, cols)


def test_peak_allocation_is_bounded_by_the_chunk(tmp_path):
    # 800k values: formatting all at once would take hundreds of MB
    rng = np.random.default_rng(1)
    columns = tuple(rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 8, 100_000) for _ in range(8))
    write_csv(tmp_path / "warm.csv", "a,b,c,d,e,f,g,h", tuple(c[:10] for c in columns))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", "a,b,c,d,e,f,g,h", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == 100_001


def as_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every float64 by its bits, and Hypothesis' own floats with their edges
ANY_FLOAT = st.one_of(st.floats(width=64), st.integers(0, 2**64 - 1).map(as_float))


def written_in_chunks(chunk, header, columns):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "CSV_CHUNK", chunk)
        return written(header, columns)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.lists(ANY_FLOAT, min_size=1, max_size=64))
def test_output_does_not_depend_on_the_chunk(cols, rows, values):
    columns = tuple(np.resize(np.array(values), (cols, rows)))
    header = ",".join(f"c{i}" for i in range(cols))
    want = written_in_chunks(CSV_CHUNK, header, columns)
    for chunk in (1, 7, 4 * CSV_CHUNK):
        assert written_in_chunks(chunk, header, columns) == want, chunk


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 40), st.lists(ANY_FLOAT, min_size=1, max_size=64))
def test_stacked_blocks_encode_as_the_outputs_joined(cols, rows_a, rows_b, values):
    block = np.resize(np.array(values), (rows_a + rows_b, cols))
    whole = decimal17.encode_rows(block).tobytes()
    assert whole == decimal17.encode_rows(block[:rows_a]).tobytes() + decimal17.encode_rows(block[rows_a:]).tobytes()


def test_tables_are_read_only():
    # the tables are cached for the process: a stray write would change
    # every later CSV
    tables = decimal17._tables()
    assert tables
    for name, table in tables.items():
        assert table.base is None, name
        with pytest.raises(ValueError):
            table.flat[0] = table.flat[0]


@pytest.mark.parametrize("cols", [1, 3])
def test_peak_allocation_is_bounded_by_the_chunk_at_few_columns(tmp_path, cols):
    # three columns is the shape of feasibility.csv
    rng = np.random.default_rng(cols)
    columns = tuple(rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 8, 100_000) for _ in range(cols))
    header = ",".join("abc"[:cols])
    write_csv(tmp_path / "warm.csv", header, tuple(c[:10] for c in columns))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == 100_001
