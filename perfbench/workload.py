"""Workload process of the akhabit benchmark; ``run.py`` starts it.

One process runs one workload.  It imports the package, writes the
workload's scenario files and prints ``READY`` (the end of set-up), then
drives ``akhabit.cli.run`` / ``akhabit.cli.sweep`` in passes over the
workload's requests, gates every outcome against ``reference.json`` and
prints one ``WORKLOAD {json}`` line.

    python3 perfbench/workload.py --workload oracle --seed 1 --seconds 20 --trace 0 --out DIR
    python3 perfbench/workload.py --setup-only --workload oracle --seed 1 --out DIR
    python3 perfbench/workload.py --record   # rewrite reference.json at this commit

``PYTHONPATH`` must reach the package sources (``run.py`` sets it).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import akhabit.cli as cli
import numpy as np
import yaml
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SCENARIOS = ("baseline", "low_curvature")
CLOSED_LOOP_N = (200, 400, 800)
SWEEPS = {
    # 16 log-spaced capitals straddle the threshold k0* ~ 0.1716 of baseline.yaml
    "k0": [0.05 * (40.0 / 0.05) ** (i / 15) for i in range(16)],
    "eps": [i / 16 for i in range(1, 17)],
}
REL_TOL = 1e-12
COVERAGE_LIMIT = 0.05
MIN_PASSES = 2

# report.json fields pinned to the reference; search-path and residual
# fields are gated only through the run's own checks
PRIMARY = (
    ("spectral", "lambda0"),
    ("spectral", "p0"),
    ("closed_loop", "Lambda"),
    ("hjb", "G"),
    ("hjb", "v"),
    ("closed_loop", "k_T"),
    ("closed_loop", "c_T"),
    ("closed_loop", "h_T"),
    ("feasibility", "discounted_cost"),
    ("oracle", "J_closed_loop"),
)
SWEEP_PRIMARY = ("lambda0", "Lambda", "Gamma", "verdict", "status")


@dataclass(frozen=True)
class Request:
    key: str  # reference entry
    scenario: str  # file name inside the scenario directory
    no_oracle: bool = True
    seed: int | None = None
    param: str | None = None  # set for a sweep
    values: tuple = ()


def requests_for(workload: str, seed: int) -> list[Request]:
    """The workload's requests; the seed fixes their order (and the oracle's seed)."""
    rng = random.Random(seed)
    if workload == "oracle":
        reqs = [Request(f"oracle/{s}", f"{s}.yaml", no_oracle=False, seed=seed) for s in SCENARIOS]
    elif workload == "closed_loop":
        reqs = [Request(f"closed_loop/{s}/n{n}", f"{s}_n{n}.yaml") for s in SCENARIOS for n in CLOSED_LOOP_N]
    elif workload == "sweep":
        reqs = []
        for param, values in SWEEPS.items():
            values = list(values)
            rng.shuffle(values)
            reqs.append(Request(f"sweep/{param}", "baseline.yaml", param=param, values=tuple(values)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def write_scenarios(workload: str, directory: Path) -> None:
    """Generate the scenario files a workload reads from the shipped ones."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in SCENARIOS:
        with open(ROOT / "scenarios" / f"{name}.yaml") as fh:
            data = yaml.safe_load(fh)
        if workload == "closed_loop":
            for n in CLOSED_LOOP_N:
                data["numerics"]["n"] = n
                (directory / f"{name}_n{n}.yaml").write_text(yaml.safe_dump(data))
        else:
            (directory / f"{name}.yaml").write_text(yaml.safe_dump(data))


# -- requests and the correctness gate ------------------------------------------


def execute(req: Request, scenario_dir: Path, out: Path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if req.param is None:
            code = cli.run(str(scenario_dir / req.scenario), str(out), seed=req.seed, no_oracle=req.no_oracle)
        else:
            code = cli.sweep(str(scenario_dir / req.scenario), req.param, list(req.values), str(out))
    return code, buf.getvalue()


def _verdict(stdout: str) -> str | None:
    """Status and code of the final RESULT line, without any free-text message."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        return None
    return " ".join(lines[-1].split()[1:3]).rstrip(":")


def _number(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def outcome(req: Request, code: int, stdout: str, out: Path) -> dict:
    """What the reference pins for one request, read from its outputs."""
    result = {"exit": code, "verdict": _verdict(stdout)}
    if req.param is None:
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError):
            return result
        result["primary"] = {f"{sec}.{key}": report.get(sec, {}).get(key) for sec, key in PRIMARY}
        result["passed_checks"] = sorted(c["name"] for c in report.get("checks", []) if c["passed"])
        result["ascent_iterations"] = report.get("oracle", {}).get("ascent_iterations", 0)
        return result
    try:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return result
    result["rows"] = {
        row[req.param]: {
            k: (_number(row[k]) if k in ("lambda0", "Lambda", "Gamma") else row[k]) for k in SWEEP_PRIMARY
        }
        for row in rows
    }
    return result


def _same(a, b) -> bool:
    if a == b:
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return False


def failures(req: Request, ref: dict, got: dict) -> int:
    """Requests (sweep rows) of ``req`` whose outcome fails the gate."""
    if req.param is not None:
        rows = ref["rows"]
        if got["exit"] != ref["exit"] or got["verdict"] != ref["verdict"] or "rows" not in got:
            return len(rows)
        bad = 0
        for value, want in rows.items():
            have = got["rows"].get(value)
            if have is None or not all(_same(want[k], have[k]) for k in SWEEP_PRIMARY):
                bad += 1
        return bad + len(set(got["rows"]) - set(rows))
    if got["verdict"] is None or got["exit"] != ref["exit"] or got["verdict"] != ref["verdict"]:
        return 1
    if "primary" not in got:
        return 1
    if not all(_same(want, got["primary"].get(name)) for name, want in ref["primary"].items()):
        return 1
    return 0 if set(ref["passed_checks"]) <= set(got["passed_checks"]) else 1


# -- passes ----------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    ascent_iterations: int
    failures: list


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(reqs, reference, scenario_dir: Path, out_root: Path) -> Pass:
    shutil.rmtree(out_root, ignore_errors=True)
    outs = [out_root / f"r{i}" for i in range(len(reqs))]
    results = []
    c0 = _cpu_seconds()
    w0 = time.perf_counter()
    for req, out in zip(reqs, outs):
        results.append(execute(req, scenario_dir, out))
    wall = time.perf_counter() - w0
    cpu = _cpu_seconds() - c0
    attempted = failed = iterations = 0
    bad = []
    for req, out, (code, stdout) in zip(reqs, outs, results):
        got = outcome(req, code, stdout, out)
        n_bad = failures(req, reference[req.key], got)
        attempted += len(req.values) if req.param is not None else 1
        failed += n_bad
        iterations += got.get("ascent_iterations", 0)
        if n_bad:
            bad.append({"key": req.key, "failed": n_bad, "got": got})
    return Pass(wall, cpu, attempted, failed, iterations, bad)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    x = np.linspace(0.0, 1.0, 201)
    w = np.exp(-x)
    t0 = time.perf_counter()
    for _ in range(100000):
        float(w @ x)
    return time.perf_counter() - t0


# -- the traced run ----------------------------------------------------------------


def _nodes_of_path(arguments, result) -> int:
    return len(result.t)


def _nodes_of_values(arguments, result) -> int:
    return len(result.values)


def _bytes_written(arguments, result) -> int:
    return sum(p.stat().st_size for p in Path(arguments["out_dir"]).iterdir() if p.is_file())


# (span name, module, attribute, counter); every binding of the function in
# the package is wrapped, so window_integral is traced inside dde and simulate
TRACED = [
    ("cli.load_scenario", "akhabit.cli", "load_scenario", None),
    ("cli.run_pipeline", "akhabit.cli", "run_pipeline", None),
    ("cli.write_outputs", "akhabit.cli", "write_outputs", ("cli.write_outputs.bytes", _bytes_written)),
    ("spectral.spectral_report", "akhabit.spectral", "spectral_report", None),
    ("spectral.real_root", "akhabit.spectral", "real_root", None),
    ("spectral.dominance_certificate", "akhabit.spectral", "dominance_certificate", None),
    ("dde.check_feasibility", "akhabit.dde", "check_feasibility", None),
    ("dde.minimal_consumption", "akhabit.dde", "minimal_consumption",
     ("dde.minimal_consumption.nodes", _nodes_of_values)),
    ("hjb.G_value", "akhabit.hjb", "G_value", None),
    ("quadrature.window_integral", "akhabit.quadrature", "window_integral", None),
    ("simulate.simulate_integral_form", "akhabit.simulate", "simulate_integral_form",
     ("simulate.nodes", _nodes_of_path)),
    ("simulate.simulate_lambda_form", "akhabit.simulate", "simulate_lambda_form",
     ("simulate.nodes", _nodes_of_path)),
    ("simulate.invariant_monitor", "akhabit.simulate", "invariant_monitor", None),
    ("oracle.DiscreteProblem", "akhabit.oracle", "DiscreteProblem", None),
    ("oracle.evaluate_objective", "akhabit.oracle", "evaluate_objective", None),
    ("oracle.perturbation_test", "akhabit.oracle", "perturbation_test", None),
    ("oracle.projected_ascent", "akhabit.oracle", "projected_ascent", None),
    ("oracle.project_feasible", "akhabit.oracle", "project_feasible", None),
    ("oracle.fd_gradient", "akhabit.oracle", "fd_gradient", None),
]
COUNTERS = list(dict.fromkeys(count[0] for *_, count in TRACED if count))


def layer_metrics(summary, p: Pass) -> dict:
    """Per-layer values of one traced pass: name -> (value, unit)."""
    out = {}
    for name, *_ in TRACED:
        s = summary.stats(name)
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.self_s"] = (s.self_s, "s")
        out[f"{name}.busy_s"] = (s.busy_s, "s")
        out[f"{name}.wait_s"] = (s.wait_s, "s")
    for name in COUNTERS:
        out[name] = (summary.counters.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    projections = summary.edge_calls("oracle.projected_ascent", "oracle.project_feasible")
    out["oracle.ascent.iterations"] = (p.ascent_iterations, "count")
    out["oracle.ascent.projections"] = (projections, "count")
    out["oracle.ascent.accept_ratio"] = (p.ascent_iterations / projections if projections else 0.0, "ratio")
    # work in run_pipeline's own frames as a share of the request's wall
    # time; its GIL waiting in the sweep pool is reported as its wait_s
    pipeline = summary.stats("cli.run_pipeline")
    share = pipeline.busy_s / pipeline.total_s if pipeline.total_s else 0.0
    out["cli.run_pipeline.unattributed_share"] = (share, "ratio")
    return out


def traced_run(reqs, reference, scenario_dir, out_root) -> dict:
    untraced = run_pass(reqs, reference, scenario_dir, out_root / "untraced")
    passes = []
    for i in range(2):
        with Tracer("akhabit", TRACED) as tracer:
            p = run_pass(reqs, reference, scenario_dir, out_root / f"traced{i}")
        summary = tracer.summary()
        passes.append((p, summary, layer_metrics(summary, p)))
    (p1, s1, m1), (p2, s2, m2) = passes

    checks = {}
    counts = [k for k, (_, unit) in m1.items() if unit in ("count", "bytes") or k.startswith("oracle.ascent.")]
    changed = [k for k in counts if m1[k][0] != m2[k][0]]
    checks["exact_repeats"] = {"passed": not changed, "changed": {k: [m1[k][0], m2[k][0]] for k in changed}}
    shares = [m["cli.run_pipeline.unattributed_share"][0] for m in (m1, m2)]
    pipelines = [s.stats("cli.run_pipeline") for s in (s1, s2)]
    checks["coverage"] = {
        "passed": max(shares) <= COVERAGE_LIMIT,
        "limit": COVERAGE_LIMIT,
        "shares": shares,
        "busy_s": [p.busy_s for p in pipelines],
        "span_s": [p.total_s for p in pipelines],
    }

    metrics = {}
    for key, (v1, unit) in m1.items():
        v2 = m2[key][0]
        metrics[key] = (v1 if key in counts else (v1 + v2) / 2, unit)
    metrics["trace.overhead_s"] = ((p1.wall_s + p2.wall_s) / 2 - untraced.wall_s, "s")
    return {
        "passes": [untraced, p1, p2],
        "metrics": metrics,
        "checks": checks,
        "bases": {
            "oracle.ascent.accept_ratio": {
                "iterations": m1["oracle.ascent.iterations"][0],
                "projections": m1["oracle.ascent.projections"][0],
            },
            "trace.overhead_s": {"traced_wall_s": [p1.wall_s, p2.wall_s], "untraced_wall_s": untraced.wall_s},
        },
    }


# -- entry points ------------------------------------------------------------------


def timed_run(reqs, reference, scenario_dir, out_root, seconds: float) -> dict:
    """Passes over the requests while the next one fits in ``seconds``; at least MIN_PASSES."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(reqs, reference, scenario_dir, out_root / "timed"))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {
        "passes": passes,
        "metrics": {
            # the mean, not the median: on a shared host the speed switches
            # between levels for seconds at a time, and the median of a
            # two-level mixture jumps between them from run to run
            "wall_s": (statistics.mean(p.wall_s for p in passes), "s"),
            "cpu_s": (statistics.mean(p.cpu_s for p in passes), "s"),
            "peak_rss_mb": (peak, "MB"),
        },
        "checks": {},
        "bases": {},
    }


def record() -> None:
    """Write reference.json from one pass of every workload at this commit."""
    reference = {}
    work = ROOT / ".perfbench_out" / "record"
    for workload in ("oracle", "closed_loop", "sweep"):
        scenario_dir = work / workload / "scenarios"
        write_scenarios(workload, scenario_dir)
        for i, req in enumerate(requests_for(workload, seed=42)):
            out = work / workload / f"r{i}"
            code, stdout = execute(req, scenario_dir, out)
            got = outcome(req, code, stdout, out)
            got.pop("ascent_iterations", None)
            reference[req.key] = got
            print(req.key, got["exit"], got["verdict"], file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record()
        return 0

    reqs = requests_for(args.workload, args.seed)
    scenario_dir = args.out / "scenarios"
    write_scenarios(args.workload, scenario_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads(REFERENCE.read_text())
    calibration = [calibrate()]
    if args.trace:
        result = traced_run(reqs, reference, scenario_dir, args.out)
    else:
        result = timed_run(reqs, reference, scenario_dir, args.out, args.seconds)
    calibration.append(calibrate())
    passes = result.pop("passes")
    result.update(
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        failures=[f for p in passes for f in p.failures],
        meta={
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "calibration_s": calibration,
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_cpu_s": [p.cpu_s for p in passes],
            "requests": [r.key for r in reqs],
        },
    )
    print("WORKLOAD " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
