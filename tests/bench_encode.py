"""Time ``decimal17.encode_rows`` on the chunks of one ``closed_loop`` pass.

    PYTHONPATH=src python tests/bench_encode.py [--repeats R] [--against PATH]

Runs ``run_pipeline`` without the oracle on both shipped scenarios at
n = 200, 400 and 800, as perfbench's ``closed_loop`` workload does, and
records the columns each ``write_csv`` call of ``write_outputs`` is given
(``feasibility.csv`` and ``trajectory.csv``).  It cuts them into the
blocks that ``write_csv`` encodes, with ``simulate.CSV_CHUNK``, checks
the bytes of every block against ``'%.17g'`` and then prints four numbers:

- ``pass_ms``: the median process time of encoding the whole chunk set;
- ``ns_per_value``: that median over the number of values;
- ``row_us``: the median cost of a 1-row chunk of 8 columns;
- ``peak_kb``: the ``tracemalloc`` peak of encoding the largest chunk.

``--against PATH`` names another source tree (the directory holding
``akhabit/``).  Its ``decimal17.py`` is loaded beside this tree's and
cuts the same columns with that tree's own ``CSV_CHUNK``; repeats
alternate between the two encoders, so that both see the same host
load, and the ratio of the medians is printed last.

The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import yaml

import akhabit.cli as cli
from akhabit import decimal17, simulate

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("baseline", "low_curvature")
GRID_N = (200, 400, 800)


def closed_loop_columns() -> list[tuple]:
    """The column tuples that one closed_loop pass hands to write_csv, in order."""
    calls = []
    real = simulate.write_csv
    simulate.write_csv = lambda path, header, columns: calls.append(tuple(np.asarray(c) for c in columns))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in SCENARIOS:
                data = yaml.safe_load((ROOT / "scenarios" / f"{name}.yaml").read_text())
                for n in GRID_N:
                    data["numerics"]["n"] = n
                    path = Path(tmp) / f"{name}_n{n}.yaml"
                    path.write_text(yaml.safe_dump(data))
                    report = cli.run_pipeline(cli.load_scenario(path), run_oracle=False)
                    cli.write_outputs(report, Path(tmp) / path.stem, check_only=False, plot_data=False)
    finally:
        simulate.write_csv = real
    return calls


def chunks(calls, chunk: int) -> list[np.ndarray]:
    """The blocks write_csv encodes for these calls at this CSV_CHUNK."""
    blocks = []
    for columns in calls:
        step = max(1, chunk // len(columns))
        for lo in range(0, len(columns[0]), step):
            blocks.append(np.column_stack([col[lo : lo + step] for col in columns]))
    return blocks


def check(encode, blocks) -> None:
    for block in blocks:
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()
        if encode(block).tobytes() != want:
            raise SystemExit(f"encode_rows differs from '%.17g' on a {block.shape} block")


def pass_time(encode, blocks) -> float:
    t0 = time.process_time()
    for block in blocks:
        encode(block)
    return time.process_time() - t0


def row_cost(encode, repeats: int = 7, calls: int = 500) -> float:
    row = np.array([[0.5, -1.25e-7, 3.0, 123456.789, 1e-300, 2.0 / 3.0, -0.0, 7e22]])
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        for _ in range(calls):
            encode(row)
        times.append((time.process_time() - t0) / calls)
    return statistics.median(times)


def peak_bytes(encode, blocks) -> int:
    block = max(blocks, key=lambda b: b.size)
    encode(block)
    tracemalloc.start()
    try:
        encode(block)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def other_tree(src: Path):
    """The encoder and CSV_CHUNK of another source tree."""
    spec = importlib.util.spec_from_file_location("other_decimal17", src / "akhabit" / "decimal17.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tree = ast.parse((src / "akhabit" / "simulate.py").read_text())
    chunk = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CSV_CHUNK" for t in node.targets)
    )
    return module.encode_rows, chunk


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--against", type=Path, help="another source tree to alternate with")
    args = ap.parse_args()

    calls = closed_loop_columns()
    sides = {"this": (decimal17.encode_rows, simulate.CSV_CHUNK)}
    if args.against:
        sides["against"] = other_tree(args.against)
    sets = {}
    for name, (encode, chunk) in sides.items():
        sets[name] = chunks(calls, chunk)
        check(encode, sets[name])
        pass_time(encode, sets[name])  # warm the tables and the allocator

    times = {name: [] for name in sides}
    order = list(sides)
    for r in range(args.repeats):
        for name in order if r % 2 == 0 else order[::-1]:
            times[name].append(pass_time(sides[name][0], sets[name]))

    for name, (encode, chunk) in sides.items():
        values = sum(b.size for b in sets[name])
        median = statistics.median(times[name])
        print(
            f"{name}: CSV_CHUNK {chunk}, {len(sets[name])} chunks, {values} values; "
            f"pass_ms {median * 1e3:.2f}  ns_per_value {median / values * 1e9:.1f}  "
            f"row_us {row_cost(encode) * 1e6:.1f}  peak_kb {peak_bytes(encode, sets[name]) / 1e3:.1f}"
        )
    if args.against:
        print(f"speed-up (against / this): {statistics.median(times['against']) / statistics.median(times['this']):.3f}")


if __name__ == "__main__":
    main()
