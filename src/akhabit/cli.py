"""Command-line driver: scenario files in, CSV/JSON verification reports out.

``akhabit run scenario.yaml -o out/`` loads a scenario, validates the
parameter regime, solves the kernel spectrum, checks feasibility of the
initial data, simulates the closed loop by both integrators, evaluates
every path invariant, optionally runs the brute-force optimality oracle,
and writes a trajectory CSV plus structured text and JSON reports.  Exit
code 0 means every enabled check passed, 1 a check failed, 2 the scenario
was rejected (regime, feasibility, or degenerate boundary data), 3 an I/O
or parse problem; the last stdout line is always ``RESULT <status> <code>``.

``akhabit sweep scenario.yaml --param tau --values 0.5,1,2`` repeats the
pipeline per value (one after another, oracle off) and writes a one-row-
per-value summary CSV.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import dde, oracle, simulate
from .errors import (
    AkHabitError,
    ConstraintError,
    DomainError,
    OptimalityViolation,
    ScenarioError,
)
from .hjb import StateSample, state_values, value_function
from .model import DEFAULT_GRID, HistoryGrid, InitialState, ModelParams, validate
from .spectral import spectral_report

DEFAULT_TOLERANCES = {
    "spectral_residual": 1e-12,
    "g_drift": 1e-4,
    "lambda_law": 1e-4,
    "cross_method": 1e-4,
    "external": 1e-6,
    "budget": 1e-6,
    "min_consumption": 1e-6,
    "value_match": 1e-3,
    "perturbation": 1e-6,
    "ascent": 1e-4,
}

SWEEP_PARAMS = ("eps", "eta", "tau", "gamma", "rho", "k0")


# -- scenario files -----------------------------------------------------------


@dataclass(frozen=True)
class Numerics:
    n: int = DEFAULT_GRID
    horizon: float | None = None  # default 8*tau, resolved after parsing
    margin: float = 0.1
    oracle: bool = True
    oracle_horizon: float | None = None  # default 10*tau
    oracle_m: int = 2000
    trials: int = 100
    ascent_iters: int = 400
    seed: int = 42
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    initial: InitialState
    numerics: Numerics

    @property
    def horizon(self) -> float:
        if self.numerics.horizon is None:
            return 8.0 * self.params.tau
        return self.numerics.horizon

    @property
    def oracle_horizon(self) -> float:
        if self.numerics.oracle_horizon is None:
            return 10.0 * self.params.tau
        return self.numerics.oracle_horizon

    def check_consistency(self) -> None:
        """Raise ScenarioError unless the grids fit the memory length.

        The simulation horizon must cover one memory length tau, and when
        the oracle is on its step must divide tau over a horizon beyond it.
        Every grid the run integrates the minimal plan on must keep its
        implicit weight eps*dt/2 below 1, or ``dde.minimal_consumption``
        has no step to take.
        """
        if not self.horizon >= self.params.tau:
            raise ScenarioError(
                f"horizon {self.horizon:g} must be at least one memory length tau = {self.params.tau:g}"
            )
        grids = [self.numerics.n]
        if self.numerics.oracle:
            try:
                grids.append(
                    oracle.grid_cells(self.params.tau, self.oracle_horizon, self.numerics.oracle_m)
                )
            except DomainError as exc:
                raise ScenarioError(
                    f"oracle grid (oracle_horizon {self.oracle_horizon:g}, oracle_m "
                    f"{self.numerics.oracle_m}): {exc}"
                ) from exc
        for n in grids:
            # the same arithmetic as dde.minimal_consumption's step check
            weight = self.params.eps * (self.params.tau / n) / 2.0
            if weight >= 1.0:
                raise ScenarioError(
                    f"grid of {n} cells per tau is too coarse for the minimal plan: "
                    f"eps*tau/(2n) = {weight:.3g} >= 1"
                )


_ALLOWED_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "abs": np.abs}


def _eval_history_expr(expr: str, u: np.ndarray) -> np.ndarray:
    """Evaluate a restricted arithmetic expression of u (exp/sin/cos/sqrt allowed)."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "u":
            return u
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            a, b = ev(node.left), ev(node.right)
            ops = {
                ast.Add: np.add,
                ast.Sub: np.subtract,
                ast.Mult: np.multiply,
                ast.Div: np.divide,
                ast.Pow: np.power,
            }
            return ops[type(node.op)](a, b)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = ev(node.operand)
            return v if isinstance(node.op, ast.UAdd) else -v
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_CALLS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _ALLOWED_CALLS[node.func.id](ev(node.args[0]))
        raise ScenarioError(f"unsupported construct in history expr: {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"cannot parse history expr {expr!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(ev(tree), dtype=float), u.shape).copy()


def _build_history(entry, tau: float, n: int) -> HistoryGrid:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ScenarioError(
            "initial.history must be a one-key mapping: constant, samples, or expr"
        )
    (kind, value), = entry.items()
    if kind == "constant":
        return HistoryGrid.constant(float(value), tau, n)
    if kind == "samples":
        return HistoryGrid(tau, np.asarray(value, dtype=float)).resample(n)
    if kind == "expr":
        u = -tau + np.arange(n + 1) * (tau / n)
        return HistoryGrid(tau, _eval_history_expr(str(value), u))
    raise ScenarioError(f"unknown history kind {kind!r}")


def _whole_number(key: str, value) -> int:
    """An integer numerics entry; a bool, string or fractional number is an error."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ScenarioError(f"numerics.{key} must be a whole number, got {value!r}")
    return int(value)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (raises ScenarioError on any defect)."""
    try:
        with open(path) as fh:
            # libyaml's loader when PyYAML was built with it
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}", code="io:read") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping with params/initial/numerics")
    try:
        pblock = dict(raw["params"])
        iblock = dict(raw["initial"])
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"scenario missing block: {exc}") from exc
    nblock = dict(raw.get("numerics") or {})

    try:
        params = ModelParams(
            eps=float(pblock.pop("eps")),
            eta=float(pblock.pop("eta")),
            tau=float(pblock.pop("tau")),
            A=float(pblock.pop("A")),
            delta=float(pblock.pop("delta")),
            rho=float(pblock.pop("rho")),
            gamma=float(pblock.pop("gamma")),
        )
    except KeyError as exc:
        raise ScenarioError(f"params block missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"params block: {exc}") from exc
    if pblock:
        raise ScenarioError(f"unknown keys in params block: {sorted(pblock)}")

    tolerances = dict(nblock.pop("tolerances", {}) or {})
    unknown_tols = set(tolerances) - set(DEFAULT_TOLERANCES)
    if unknown_tols:
        raise ScenarioError(f"unknown tolerance names: {sorted(unknown_tols)}")
    known = {f.name for f in Numerics.__dataclass_fields__.values()} - {"tolerances"}
    unknown = set(nblock) - known
    if unknown:
        raise ScenarioError(f"unknown keys in numerics block: {sorted(unknown)}")
    for key in ("n", "oracle_m", "trials", "ascent_iters", "seed"):
        if key in nblock:
            nblock[key] = _whole_number(key, nblock[key])
    if "oracle" in nblock and not isinstance(nblock["oracle"], bool):
        raise ScenarioError(f"numerics.oracle must be true or false, got {nblock['oracle']!r}")
    try:
        for key in ("horizon", "oracle_horizon", "margin"):
            if key in nblock and nblock[key] is not None:
                nblock[key] = float(nblock[key])
        tolerances = {name: float(value) for name, value in tolerances.items()}
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"numerics block: {exc}") from exc
    bad_tols = {name: value for name, value in tolerances.items() if not value >= 0.0}
    if bad_tols:
        raise ScenarioError(f"tolerances must be >= 0 and not NaN, got {bad_tols}")
    numerics = Numerics(**nblock, tolerances=tolerances)
    if numerics.n < 2 or numerics.oracle_m < 2 or numerics.trials < 0:
        raise ScenarioError("numerics entries must be positive")
    if numerics.ascent_iters < 1:
        raise ScenarioError(f"numerics.ascent_iters must be >= 1, got {numerics.ascent_iters}")
    if not (math.isfinite(numerics.margin) and numerics.margin > 0.0):
        raise ScenarioError(f"numerics.margin must be finite and > 0, got {numerics.margin!r}")
    for key in ("horizon", "oracle_horizon"):
        value = getattr(numerics, key)
        if value is not None and not math.isfinite(value):
            raise ScenarioError(f"numerics.{key} must be finite, got {value!r}")
    if numerics.seed < 0:
        raise ScenarioError(f"numerics.seed must be >= 0, got {numerics.seed}")

    try:
        k0 = float(iblock.pop("k0"))
        history = _build_history(iblock.pop("history"), params.tau, int(numerics.n))
    except KeyError as exc:
        raise ScenarioError(f"initial block missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"initial block: {exc}") from exc
    if iblock:
        raise ScenarioError(f"unknown keys in initial block: {sorted(iblock)}")
    initial = InitialState(k0=k0, history=history)
    scn = Scenario(params=params, initial=initial, numerics=numerics)
    scn.check_consistency()
    return scn


# -- pipeline -----------------------------------------------------------------


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    """Everything one pipeline run produced, JSON-serializable via to_dict."""

    status: str  # ok | fail | reject | error
    code: str  # "" when ok, else the greppable reason
    spectral: dict = field(default_factory=dict)
    feasibility: dict = field(default_factory=dict)
    hjb: dict = field(default_factory=dict)
    closed_loop: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    # for the CSV writers only; not part of report.json
    feasibility_data: dde.FeasibilityReport | None = field(default=None, init=False, repr=False)
    trajectory: simulate.Trajectory | None = field(default=None, init=False, repr=False)
    monitor: simulate.MonitorReport | None = field(default=None, init=False, repr=False)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        d["checks"] = [asdict(c) for c in self.checks]
        return d


def _bounded(num: Numerics, **values: float) -> list[Check]:
    """Checks that pass when each value is at most its named tolerance."""
    checks = []
    for name, value in values.items():
        tol = num.tol(name)
        checks.append(Check(name, value, tol, value <= tol))
    return checks


def _spectral_section(scn: Scenario) -> dict:
    rep = spectral_report(scn.params, scn.initial.history, margin=scn.numerics.margin)
    return {
        "lambda0": rep.lambda0,
        "regime": rep.regime.value,
        "p0": rep.p0,
        "dominance_margin": rep.dominance_margin,
        "residual": rep.residual,
        "winding": rep.certificate.winding,
        "winding_expected": rep.certificate.expected,
        "dominance_verified": rep.certificate.verified,
    }


def _feasibility_section(rep: dde.FeasibilityReport, k0: float) -> dict:
    return {
        "feasible": rep.feasible,
        "discounted_cost": rep.discounted_cost,
        "tail_bound": rep.tail_bound,
        "slack": rep.slack,
        "k0": k0,
        "lambda0": rep.lambda0,
    }


@dataclass(frozen=True)
class KernelResults:
    """A run's results that depend only on the habit kernel and the history.

    The spectral section and the minimal plan c_m are functions of
    (eps, eta, tau), the history, the grid, the horizon and the margin,
    not of k0, A, delta, rho or gamma, so runs that differ only in those
    can share them.
    """

    spectral: dict
    cm: dde.SampledPath


def run_pipeline(
    scn: Scenario,
    run_oracle: bool = True,
    seed: int | None = None,
    kernel: KernelResults | None = None,
) -> RunReport:
    """The full verification pipeline on an in-memory scenario.

    Returns a RunReport; never raises for model-level rejections (they
    become status "reject"), only for internal failures.  ``kernel`` holds
    the spectral section and c_m of an earlier run of a scenario that
    differs from this one at most in k0, A, delta, rho and gamma; without
    it the run computes them.
    """
    report = RunReport(status="ok", code="")
    checks = report.checks
    num = scn.numerics
    seed = num.seed if seed is None else seed

    try:
        der = validate(scn.params)
    except AkHabitError as exc:
        report.status, report.code = "reject", exc.code
        report.closed_loop = {"error": str(exc)}
        return report

    report.spectral = dict(kernel.spectral) if kernel else _spectral_section(scn)
    checks.extend(_bounded(num, spectral_residual=abs(report.spectral["residual"])))
    checks.append(
        Check(
            "dominance",
            float(report.spectral["winding"]),
            float(report.spectral["winding_expected"]),
            report.spectral["dominance_verified"],
        )
    )

    feas = dde.check_feasibility(
        scn.params,
        scn.initial,
        T=scn.horizon,
        n=num.n,
        lambda0=report.spectral["lambda0"],
        cm=kernel.cm if kernel else None,
    )
    report.feasibility = _feasibility_section(feas, scn.initial.k0)
    report.feasibility_data = feas
    if not feas.feasible:
        report.status, report.code = "reject", "infeasible:capital"
        return report

    # the integral form computes Lambda on the run grid, so it runs first
    # and Lambda is not computed twice; the integrators' warnings are
    # silenced (the checks below judge the paths), and a failure of either
    # is held back and reported in the order of the checks, after Lambda
    # and the hjb section
    failure = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            traj = simulate.simulate_integral_form(scn.params, scn.initial, scn.horizon, n=num.n)
            Lam = traj.Lambda
        except AkHabitError as exc:
            failure = exc
            Lam = simulate.lambda_constant(scn.params, scn.initial.resample(num.n))
        lambda_ok = not (Lam <= 0.0 or abs(Lam) <= 1e-10 * (1.0 + scn.initial.k0))
        if lambda_ok and failure is None:
            try:
                traj_l = simulate.simulate_lambda_form(scn.params, scn.initial, scn.horizon, n=num.n)
            except ConstraintError as exc:
                failure = exc
    if not lambda_ok:
        report.status, report.code = "reject", "lambda:nonpositive"
        report.closed_loop = {
            "Lambda": Lam,
            "k0_threshold": simulate.initial_capital_threshold(
                scn.params, scn.initial.history.resample(num.n)
            ),
        }
        return report

    # a single state evaluation is cheap, so give the dual-quadrature
    # cross-check inside G_value a fine window regardless of the run grid
    state0 = StateSample(scn.initial.k0, scn.initial.history.resample(max(num.n, 1000)))
    report.hjb = state_values(state0, scn.params)

    if failure is not None:
        if not isinstance(failure, ConstraintError):
            raise failure
        report.status, report.code = "reject", failure.code
        report.closed_loop = {"error": str(failure)}
        return report

    report.closed_loop = {
        "Lambda": traj.Lambda,
        "Gamma": traj.Gamma,
        "alpha": der.alpha,
        "kappa0": der.kappa0,
        "k_T": float(traj.k[-1]),
        "c_T": float(traj.c[-1]),
        "h_T": float(traj.h[-1]),
        "G_0": float(traj.G[0]),
        "horizon": float(traj.t[-1]),
        "n": num.n,
    }

    mon = simulate.invariant_monitor(traj, scn.params, scn.initial, cm=feas.cm)
    mon_l = simulate.invariant_monitor(traj_l, scn.params, scn.initial, cm=feas.cm)
    cross = max(
        (abs(a - b).max() / abs(a).max()).item()
        for a, b in ((traj.k, traj_l.k), (traj.c, traj_l.c), (traj.h, traj_l.h))
    )
    ext = traj.external_residual.max().item()
    cm_scale = max(1.0, traj.c.max().item())
    report.invariants = {
        "g_drift_integral": mon.g_drift_max,
        "g_drift_lambda": mon_l.g_drift_max,
        "lambda_gap": mon.lambda_gap_max,
        "cross_method": cross,
        "external_residual": ext,
        "budget_integral": mon.budget_residual,
        "budget_lambda": mon_l.budget_residual,
        "cm_margin_min": mon.cm_margin_min,
    }
    checks.extend(
        _bounded(
            num,
            g_drift=max(mon.g_drift_max, mon_l.g_drift_max),
            lambda_law=mon.lambda_gap_max,
            cross_method=cross,
            external=ext,
            budget=max(mon.budget_residual, mon_l.budget_residual),
        )
    )
    cm_floor = -num.tol("min_consumption") * cm_scale
    checks.append(Check("min_consumption", mon.cm_margin_min, cm_floor, mon.cm_margin_min >= cm_floor))

    if run_oracle and num.oracle:
        report.oracle = _oracle_section(scn, checks, seed)
    else:
        report.oracle = {"skipped": "disabled by flag or scenario"}

    if not all(c.passed for c in checks):
        report.status = "fail"
        report.code = "check:" + next(c.name for c in checks if not c.passed)
    report.trajectory, report.monitor = traj, mon
    return report


def _oracle_section(scn: Scenario, checks: list, seed: int) -> dict:
    num = scn.numerics
    T = scn.oracle_horizon
    m = num.oracle_m
    n_sim = int(round(m * scn.params.tau / T))
    prob = oracle.DiscreteProblem(scn.params, scn.initial, T, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate.simulate_integral_form(scn.params, scn.initial, T, n=n_sim)
    J_cl = oracle.evaluate_objective(prob, traj.c)
    v0 = value_function(
        StateSample(scn.initial.k0, scn.initial.history.resample(max(n_sim, 1000))), scn.params
    )
    match = abs(J_cl - v0) / abs(v0)
    checks.extend(_bounded(num, value_match=match))

    section = {"J_closed_loop": J_cl, "v_predicted": v0, "value_match": match,
               "T": T, "m": m, "seed": seed}
    try:
        rep = oracle.perturbation_test(
            prob, traj.c, trials=num.trials, seed=seed, tol=num.tol("perturbation")
        )
        section["max_perturbation_gain"] = rep.max_gain
        section["perturbation_trials"] = rep.trials
        checks.append(Check("perturbation", rep.max_gain, rep.tolerance, True))
    except OptimalityViolation as exc:
        section["perturbation_error"] = str(exc)
        checks.append(Check("perturbation", math.inf, num.tol("perturbation"), False))

    cm = dde.minimal_consumption(scn.params, scn.initial.history.resample(n_sim), T)
    start = cm.values + 0.5 * max(traj.Lambda, 0.1)
    res = oracle.projected_ascent(prob, start, iters=num.ascent_iters)
    gap = abs(res.J - J_cl) / abs(J_cl)
    section["ascent_J"] = res.J
    section["ascent_iterations"] = res.iterations
    section["ascent_projections"] = res.projections
    section["ascent_backtracks"] = res.backtracks
    section["ascent_gap"] = gap
    checks.extend(_bounded(num, ascent=gap))
    return section


# -- output writers -----------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json_sanitize(obj):
    """Strict-JSON form: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def _format_block(title: str, entries: dict) -> str:
    lines = [f"[{title}]"]
    for key, value in entries.items():
        if isinstance(value, float):
            lines.append(f"  {key:<24} {value:.12g}")
        else:
            lines.append(f"  {key:<24} {value}")
    return "\n".join(lines)


def write_outputs(report: RunReport, out_dir: Path, check_only: bool, plot_data: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    feas, traj = report.feasibility_data, report.trajectory

    if feas is not None:
        simulate.write_csv(out_dir / "feasibility.csv", "t,cm,kM", (feas.cm.t, feas.cm.values, feas.kM.values))
    if traj is not None and not check_only:
        traj.write_csv(out_dir / "trajectory.csv")
    if traj is not None and plot_data:
        simulate.write_csv(out_dir / "plot_path.csv", "t,k,c,h", (traj.t, traj.k, traj.c, traj.h))
        simulate.write_csv(out_dir / "plot_gdrift.csv", "t,g_drift", (traj.t, report.monitor.g_drift))
        simulate.write_csv(
            out_dir / "plot_residuals.csv",
            "t,lambda_check,external_residual",
            (traj.t, traj.lambda_check, traj.external_residual),
        )

    with open(out_dir / "report.json", "w") as fh:
        json.dump(
            _json_sanitize(report.to_dict()),
            fh,
            indent=2,
            sort_keys=True,
            allow_nan=False,
            default=_json_default,
        )
        fh.write("\n")

    blocks = [f"status: {report.status}" + (f" ({report.code})" if report.code else "")]
    for name in ("spectral", "feasibility", "hjb", "closed_loop", "invariants", "oracle"):
        section = getattr(report, name)
        if section:
            blocks.append(_format_block(name, section))
    if report.checks:
        lines = ["[checks]"]
        for c in report.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<18} {verdict}  value={c.value:.6g} tol={c.tolerance:.6g}")
        blocks.append("\n".join(lines))
    (out_dir / "report.txt").write_text("\n\n".join(blocks) + "\n")


# -- entry points -------------------------------------------------------------


def run(
    scenario_path,
    out_dir,
    check_only: bool = False,
    plot_data: bool = False,
    seed: int | None = None,
    no_oracle: bool = False,
) -> int:
    """Run the pipeline for one scenario file; returns the process exit code."""
    try:
        if seed is not None and seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {seed}", code="parse:seed")
        scn = load_scenario(scenario_path)
    except ScenarioError as exc:
        print(f"RESULT error {exc.code}: {exc}")
        return 3
    except AkHabitError as exc:
        # parameter-level rejection surfaced while building the scenario
        print(f"RESULT reject {exc.code}: {exc}")
        return 2
    try:
        report = run_pipeline(scn, run_oracle=not no_oracle, seed=seed)
    except AkHabitError as exc:
        print(f"RESULT error {exc.code}: {exc}")
        return 1
    try:
        write_outputs(report, Path(out_dir), check_only, plot_data)
    except OSError as exc:
        print(f"RESULT error io:write: {exc}")
        return 3
    for check in report.checks:
        state = "pass" if check.passed else "FAIL"
        print(f"CHECK {check.name} {state} value={check.value:.6g} tol={check.tolerance:.6g}")
    if report.status == "ok":
        print("RESULT ok")
        return 0
    print(f"RESULT {report.status} {report.code}")
    return 2 if report.status == "reject" else 1


def _sweep_row(scn: Scenario, name: str, value: float, shared: dict):
    """One summary row; ``shared`` maps (eps, eta, tau) to the sweep's KernelResults.

    Within one sweep only the swept parameter changes (and with tau the
    history's memory length), so rows with the same (eps, eta, tau) have
    the same kernel, history, grid, horizon and margin.
    """
    params, initial = scn.params, scn.initial
    if name == "k0":
        initial = InitialState(k0=value, history=initial.history)
    else:
        fields = {k: getattr(params, k) for k in ("eps", "eta", "tau", "A", "delta", "rho", "gamma")}
        fields[name] = value
        params = ModelParams(**fields)
        if name == "tau":
            initial = InitialState(
                k0=initial.k0,
                history=HistoryGrid(value, initial.history.values),
            )
    # a sweep never runs the oracle, so the row is not held to its grid
    row_scn = Scenario(params=params, initial=initial, numerics=replace(scn.numerics, oracle=False))
    row_scn.check_consistency()
    key = (params.eps, params.eta, params.tau)
    report = run_pipeline(row_scn, run_oracle=False, kernel=shared.get(key))
    if key not in shared and report.feasibility_data is not None:
        shared[key] = KernelResults(report.spectral, report.feasibility_data.cm)
    lam0 = report.spectral.get("lambda0", math.nan)
    Lam = report.closed_loop.get("Lambda", math.nan)
    Gam = report.closed_loop.get("Gamma", math.nan)
    drift = report.invariants.get("g_drift_integral", math.nan)
    if report.feasibility:
        verdict = "feasible" if report.feasibility["feasible"] else "infeasible"
    else:
        verdict = report.code  # rejected before the feasibility stage
    status = "ok" if report.status == "ok" else f"{report.status}:{report.code}"
    return value, lam0, Lam, Gam, drift, verdict, status


def sweep(scenario_path, param: str, values, out_dir) -> int:
    """Run the pipeline once per parameter value; emit a summary CSV."""
    try:
        if param not in SWEEP_PARAMS:
            raise ScenarioError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
        if not values:
            raise ScenarioError("sweep needs a non-empty value list")
        scn = load_scenario(scenario_path)
    except ScenarioError as exc:
        print(f"RESULT error {exc.code}: {exc}")
        return 3

    rows = []
    shared = {}
    for v in values:
        try:
            rows.append(_sweep_row(scn, param, v, shared))
        except AkHabitError as exc:
            rows.append((v, math.nan, math.nan, math.nan, math.nan, exc.code, "error"))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write(f"{param},lambda0,Lambda,Gamma,max_drift,verdict,status\n")
        for value, lam0, Lam, Gam, drift, verdict, status in rows:
            fh.write(
                f"{value:.17g},{lam0:.17g},{Lam:.17g},{Gam:.17g},{drift:.17g},{verdict},{status}\n"
            )
    bad = [row for row in rows if row[6] != "ok"]
    for row in rows:
        print(f"SWEEP {param}={row[0]:g} verdict={row[5]} status={row[6]}")
    if bad:
        print(f"RESULT fail sweep:{len(bad)}-of-{len(rows)}-rows")
        return 1
    print("RESULT ok")
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="akhabit",
        description="Verify and simulate the habit-formation AK growth model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline for one scenario")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("-o", "--out", default="out", help="output directory")
    p_run.add_argument("--check-only", action="store_true", help="skip the trajectory CSV")
    p_run.add_argument("--plot-data", action="store_true", help="emit per-figure CSVs")
    p_run.add_argument("--seed", type=int, default=None, help="oracle perturbation seed")
    p_run.add_argument("--no-oracle", action="store_true", help="skip the optimality oracle")

    p_sweep = sub.add_parser("sweep", help="run the pipeline across parameter values")
    p_sweep.add_argument("scenario", help="scenario YAML file")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("-o", "--out", default="out", help="output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        code = run(
            args.scenario,
            args.out,
            check_only=args.check_only,
            plot_data=args.plot_data,
            seed=args.seed,
            no_oracle=args.no_oracle,
        )
    else:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            print(f"RESULT error parse:values: {exc}")
            sys.exit(3)
        code = sweep(args.scenario, args.param, values, args.out)
    sys.exit(code)


if __name__ == "__main__":
    main()
