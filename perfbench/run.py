"""Benchmark of the akhabit verifier: one workload per invocation.

    python3 perfbench/run.py --workload oracle|closed_loop|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The harness starts fresh
workload processes (``workload.py``) with ``PYTHONPATH=src`` and imports
nothing of the package itself.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics of a traced run.  Every request's outcome is checked against
``reference.json``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "closed_loop", "sweep")
SETUP_SAMPLES = 7  # fresh processes timed to READY; one of them runs the workload
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_workload(args, out: Path, setup_only: bool, deadline: float):
    """Start one workload process; return (process, seconds to READY, kill timer)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        timer.cancel()
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process failed during set-up (exit {proc.poll()})")
    return proc, setup, timer


def finish(proc, timer) -> str:
    try:
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    return rest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "akhabit" / "cli.py").is_file():
        return fail(f"no package sources under {ROOT / 'src'}; run from a source checkout")
    for name in ("baseline", "low_curvature"):
        if not (ROOT / "scenarios" / f"{name}.yaml").is_file():
            return fail(f"missing scenarios/{name}.yaml")

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        # set-up samples before and after the workload process, so that
        # they span the run rather than one moment of the host's load
        samples = 1 if args.trace else SETUP_SAMPLES
        for i in range(samples):
            workload_process = i == samples // 2
            proc, setup, timer = start_workload(args, work / f"p{i}", not workload_process, deadline)
            setups.append(setup)
            output = finish(proc, timer)
            if workload_process:
                lines = output.strip().splitlines()
    except (RuntimeError, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if not lines or not lines[-1].startswith("WORKLOAD "):
        return fail("workload process printed no result")
    result = json.loads(lines[-1][len("WORKLOAD "):])

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["pass_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    correct = failed == 0 and all(check["passed"] for check in result["checks"].values())

    meta = dict(result["meta"], workload=args.workload, seed=args.seed, setup_samples_s=setups)
    print("META " + json.dumps(meta))
    for name, check in result["checks"].items():
        print(f"CHECK {name} {'pass' if check['passed'] else 'FAIL'} " + json.dumps(check))
    for name, base in result["bases"].items():
        print(f"BASE {name} " + json.dumps(base))
    for failure in result["failures"]:
        print("FAILED " + json.dumps(failure))
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} requests)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
