"""Time the oracle's parts on both shipped scenarios.

    PYTHONPATH=src python tests/bench_oracle.py [--repeats R] [--rounds N] [--against PATH]

For ``baseline`` and ``low_curvature`` it builds the oracle's problem as
``cli._oracle_section`` does (the closed loop on the scenario's oracle
grid, scored once before the timed calls) and prints the min and median
process time, in ms, of

- ``perturbation``: ``perturbation_test`` with the scenario's trials and seed;
- ``ascent``: ``projected_ascent`` from the section's start, with its ``ascent_iters``;
- ``pipeline``: ``run_pipeline`` with the oracle.

Each round is one child process of ``--repeats`` calls of each.  The
child also hashes the ``oracle`` section of each scenario's
``report.json`` form.

``--against PATH`` names another source tree (the directory holding
``akhabit/``).  Rounds alternate between the two trees, starting with
either in turn, so that both see the same host load; the script checks
that both trees' oracle sections hash the same and prints the ratio of
the medians, against / this, per part.

The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("baseline", "low_curvature")
PARTS = ("perturbation", "ascent", "pipeline")


def timed(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def child(repeats: int) -> dict:
    """Times and oracle-section hashes of this interpreter's akhabit."""
    import akhabit.cli as cli
    from akhabit import dde, oracle, simulate

    times, hashes = {}, {}
    for name in SCENARIOS:
        scn = cli.load_scenario(ROOT / "scenarios" / f"{name}.yaml")
        num = scn.numerics
        T = scn.oracle_horizon
        prob = oracle.DiscreteProblem(scn.params, scn.initial, T, num.oracle_m)
        traj = simulate.simulate_integral_form(scn.params, prob.init, T)
        start = dde.minimal_consumption(scn.params, prob.init.history, T).values + 0.5 * max(traj.Lambda, 0.1)

        def perturbation():
            oracle.evaluate_objective(prob, traj.c)  # the section scores the base first
            oracle.perturbation_test(prob, traj.c, trials=num.trials, seed=num.seed, tol=num.tol("perturbation"))

        calls = {
            "perturbation": perturbation,
            "ascent": lambda: oracle.projected_ascent(prob, start, iters=num.ascent_iters),
            "pipeline": lambda: cli.run_pipeline(scn),
        }
        for part, fn in calls.items():
            fn()  # warm up
            times[f"{name}/{part}"] = [timed(fn) for _ in range(repeats)]
        section = cli._json_ready(cli.run_pipeline(scn).oracle)
        hashes[name] = hashlib.sha256(json.dumps(section, sort_keys=True).encode()).hexdigest()
    return {"times": times, "hashes": hashes}


def run_child(src: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--repeats", str(repeats)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5, help="calls of each part per child process")
    ap.add_argument("--rounds", type=int, default=4, help="child processes per tree")
    ap.add_argument("--against", type=Path, help="another source tree to alternate with")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.repeats)))
        return

    trees = {"this": ROOT / "src"}
    if args.against:
        trees["against"] = args.against.resolve()
    times = {name: {} for name in trees}
    hashes = {}
    order = list(trees)
    for r in range(args.rounds):
        for name in order if r % 2 == 0 else order[::-1]:
            result = run_child(trees[name], args.repeats)
            for key, values in result["times"].items():
                times[name].setdefault(key, []).extend(values)
            if hashes.setdefault(name, result["hashes"]) != result["hashes"]:
                raise SystemExit(f"{name}: the oracle sections differ between rounds")

    for name in trees:
        print(f"{name} ({trees[name]}):")
        for key, values in times[name].items():
            print(f"  {key:<28} min {min(values) * 1e3:8.2f}  median {statistics.median(values) * 1e3:8.2f} ms")
    if args.against:
        same = hashes["this"] == hashes["against"]
        print(f"oracle sections hash the same: {same}")
        for key in times["this"]:
            ratio = statistics.median(times["against"][key]) / statistics.median(times["this"][key])
            print(f"  {key:<28} against / this {ratio:.3f}")
        if not same:
            raise SystemExit("the two trees' oracle sections differ")


if __name__ == "__main__":
    main()
