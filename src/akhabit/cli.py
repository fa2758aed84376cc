"""Command-line driver: scenario files in, CSV/JSON verification reports out.

``akhabit run scenario.yaml -o out/`` loads a scenario, validates the
parameter regime, solves the kernel spectrum, checks feasibility of the
initial data, simulates the closed loop by both integrators, evaluates
every path invariant, optionally runs the brute-force optimality oracle,
and writes a trajectory CSV plus structured text and JSON reports.

``akhabit sweep scenario.yaml --param tau --values 0.5,1,2`` repeats the
pipeline per value (one after another, oracle off) and writes a one-row-
per-value summary CSV.

Every input ends in one exit code and a last stdout line ``RESULT ...``:
0 every enabled check passed; 1 a check failed, a pipeline stage failed
(``RESULT error <code>``), or an exception without a code of its own
(``RESULT error internal:<Type>``, traceback on stderr); 2 the scenario
was rejected (parameter domain or regime, feasibility, degenerate
boundary data); 3 an I/O or parse problem.  Each ``numerics`` field
declares its type and domain (``Numerics``), and the loader holds every
entry to them.  A sweep row that raises becomes an ``error`` row, and the
sweep goes on.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import dde, oracle, simulate
from .errors import AkHabitError, ConstraintError, DomainError, InfeasibleControlError, InfeasibleError
from .errors import OptimalityViolation, ScenarioError, StepError
from .hjb import StateSample, state_values
from .model import DEFAULT_GRID, LOG_MAX, HistoryGrid, InitialState, ModelParams, validate
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

#: most oracle nodes, perturbation trials and ascent iterations a scenario may ask for
MAX_COUNT = 100_000

#: most grid nodes n * horizon / tau a run (or a sweep row) may integrate; a
#: path node costs about 210 bytes, so this is about 1 GB
MAX_NODES = 5_000_000


# -- scenario files -----------------------------------------------------------


def _whole(value) -> int:
    """An int or a whole float; not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ValueError("must be a whole number")
    return int(value)


def _real(value) -> float:
    """Anything float() reads, but not a bool."""
    if isinstance(value, bool):
        raise ValueError("must be a number, not true or false")
    return float(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _checked(name: str, value, read, domain=None):
    """``value`` read as its type by ``read``, then held to ``domain``, a (description, test) pair."""
    try:
        got = read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name} = {value!r}: {exc}") from None
    if domain is not None and not domain[1](got):
        raise ScenarioError(f"{name} = {got!r}: must be {domain[0]}")
    return got


def _mapping(name: str, block, keys, complete: bool = False) -> dict:
    """``block`` as a mapping of ``keys`` only, all of them if ``complete``; else null is empty."""
    if block is None and not complete:
        return {}
    if not isinstance(block, dict):
        raise ScenarioError(f"{name} must be a mapping, got {block!r}")
    unknown = sorted(map(str, set(block) - set(keys)))
    if unknown:
        raise ScenarioError(f"unknown keys in {name}: {unknown}")
    missing = [key for key in keys if complete and key not in block]
    if missing:
        raise ScenarioError(f"{name} is missing {missing}")
    return block


def _tolerances(value) -> dict:
    """Named tolerances, each a number >= 0."""
    table = _mapping("numerics.tolerances", value, DEFAULT_TOLERANCES)
    return {k: _checked(f"numerics.tolerances.{k}", v, _real, _within(0)) for k, v in table.items()}


def _setting(default, read, domain=None):
    """A Numerics field: its default, its type (a reader) and its domain."""
    return field(default=default, metadata={"read": read, "domain": domain})


def _within(lo, hi=math.inf):
    return (f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"), lambda v: lo <= v <= hi


@dataclass(frozen=True)
class Numerics:
    """Grid and oracle settings.  A null horizon is the default 8 tau (10 tau for the oracle)."""

    n: int = _setting(DEFAULT_GRID, _whole, _within(2, MAX_NODES))
    horizon: float | None = _setting(None, _real, ("finite", math.isfinite))
    margin: float = _setting(0.1, _real, ("finite and > 0", lambda v: math.isfinite(v) and v > 0.0))
    oracle: bool = _setting(True, _flag)
    oracle_horizon: float | None = _setting(None, _real, ("finite", math.isfinite))
    oracle_m: int = _setting(2000, _whole, _within(2, MAX_COUNT))
    trials: int = _setting(100, _whole, _within(0, MAX_COUNT))
    ascent_iters: int = _setting(400, _whole, _within(1, MAX_COUNT))
    seed: int = _setting(42, _whole, _within(0))
    tolerances: dict = field(default_factory=dict, metadata={"read": _tolerances, "domain": None})

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    initial: InitialState
    numerics: Numerics

    @property
    def horizon(self) -> float:
        T = self.numerics.horizon
        return dde.DEFAULT_HORIZON * self.params.tau if T is None else T

    @property
    def oracle_horizon(self) -> float:
        T = self.numerics.oracle_horizon
        return 10.0 * self.params.tau if T is None else T

    def check_consistency(self) -> None:
        """Raise ScenarioError unless the grids fit the memory length.

        Every grid the run integrates the minimal plan on (the run grid,
        and the oracle's when it is on) must pass ``dde.implicit_weight``:
        a horizon of at least one memory length tau and a step with a
        weight below 1.  The oracle's step must divide tau over a horizon
        beyond it.  Over every horizon T the run simulates, e^(r T) must be
        a finite double (``parse:overflow`` otherwise).  The run grid may
        hold at most MAX_NODES nodes, n * horizon / tau.
        """
        p, num = self.params, self.numerics
        grids = [(num.n, self.horizon)]
        if num.oracle:
            T = self.oracle_horizon
            try:
                grids.append((oracle.grid_cells(p.tau, T, num.oracle_m), T))
            except DomainError as exc:
                raise ScenarioError(
                    f"oracle grid (oracle_horizon {T:g}, oracle_m {num.oracle_m}): {exc}"
                ) from exc
        for n, T in grids:
            try:
                dde.implicit_weight(p, p.tau / n, T)
            except (ValueError, StepError) as exc:
                raise ScenarioError(f"grid of {n} cells per tau over horizon {T:g}: {exc}") from exc
        for _, T in grids:
            # capital returns grow by e^(r T) over a horizon, the paths by at most that
            if p.r * T > LOG_MAX:
                raise ScenarioError(f"e^(r T) overflows a double: r = {p.r:g}, T = {T:g}", code="parse:overflow")
        nodes = num.n * self.horizon / p.tau
        if nodes > MAX_NODES:
            raise ScenarioError(f"n * horizon / tau = {nodes:.3g} grid nodes, more than {MAX_NODES}")


_ALLOWED_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "abs": np.abs}
_BINARY_OPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide, ast.Pow: np.power
}


def _eval_history_expr(expr: str, u: np.ndarray) -> np.ndarray:
    """Evaluate a restricted arithmetic expression of u (exp/sin/cos/sqrt/abs allowed)."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "u":
            return u
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](ev(node.left), ev(node.right))
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
        with np.errstate(all="ignore"):  # a value that is not finite is refused by HistoryGrid
            values = np.asarray(ev(tree), dtype=float)
    except SyntaxError as exc:
        raise ScenarioError(f"cannot parse history expr {expr!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:  # nesting beyond the parser's or ev's stack
        raise ScenarioError(f"history expr is too deep or too large to evaluate: {type(exc).__name__}") from None
    return np.broadcast_to(values, u.shape).copy()


def _build_history(entry, tau: float, n: int) -> HistoryGrid:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ScenarioError(
            "initial.history must be a one-key mapping: constant, samples, or expr"
        )
    (kind, value), = entry.items()
    if kind == "constant":
        return HistoryGrid.constant(_checked("initial.history.constant", value, _real), tau, n)
    if kind == "samples":
        return HistoryGrid(tau, np.asarray(value, dtype=float)).resample(n)
    if kind == "expr":
        return HistoryGrid.from_callable(lambda u: _eval_history_expr(str(value), u), tau, n)
    raise ScenarioError(f"unknown history kind {kind!r}")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (raises ScenarioError on any defect).

    ``params`` holds every ModelParams field as a number, and ``numerics``
    any Numerics fields, each of its declared type and within its declared
    domain.  Parameters outside ModelParams' own domain raise its DomainError.
    """
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

    names = [f.name for f in fields(ModelParams)]
    pblock = _mapping("params", raw.get("params"), names, complete=True)
    params = ModelParams(**{key: _checked(f"params.{key}", pblock[key], _real) for key in names})
    settings = fields(Numerics)
    nblock = _mapping("numerics", raw.get("numerics"), [f.name for f in settings])
    # null is the default where the default is null (the horizons)
    numerics = Numerics(**{
        f.name: _checked(f"numerics.{f.name}", nblock[f.name], **f.metadata)
        for f in settings
        if f.name in nblock and not (nblock[f.name] is None and f.default is None)
    })
    iblock = _mapping("initial", raw.get("initial"), ["k0", "history"], complete=True)
    k0 = _checked("initial.k0", iblock["k0"], _real)
    try:
        history = _build_history(iblock["history"], params.tau, numerics.n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"initial.history: {exc}") from exc
    scn = Scenario(params=params, initial=InitialState(k0=k0, history=history), numerics=numerics)
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


def run_pipeline(scn: Scenario, run_oracle: bool = True, kernel: KernelResults | None = None) -> RunReport:
    """The full verification pipeline on an in-memory scenario.

    Returns a RunReport; never raises for model-level rejections (they
    become status "reject"), only for internal failures.  ``kernel`` holds
    the spectral section and c_m of an earlier run of a scenario that
    differs from this one at most in k0, A, delta, rho and gamma; without
    it the run computes them.  Warnings are silenced: the checks judge
    the paths.
    """
    report = RunReport(status="ok", code="")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rejection = _stages(report, scn, run_oracle and scn.numerics.oracle, kernel)
    if rejection is not None:
        report.status = "reject"
        report.code, report.closed_loop = rejection
        return report
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        report.status, report.code = "fail", "check:" + failed[0]
    return report


def _stages(report: RunReport, scn: Scenario, run_oracle: bool, kernel) -> tuple[str, dict] | None:
    """Fill ``report`` in one straight line: spectral, feasibility, Lambda gate, hjb,
    both integrators, path monitors, oracle; a rejection returns (code, closed_loop)."""
    checks = report.checks
    num = scn.numerics
    try:
        der = validate(scn.params)
    except AkHabitError as exc:
        return exc.code, {"error": str(exc)}

    report.spectral = spec = dict(kernel.spectral) if kernel else _spectral_section(scn)
    checks.extend(_bounded(num, spectral_residual=abs(spec["residual"])))
    dominance = (float(spec["winding"]), float(spec["winding_expected"]), spec["dominance_verified"])
    checks.append(Check("dominance", *dominance))

    init = scn.initial.resample(num.n)
    cm = kernel.cm if kernel else None
    feas = dde.check_feasibility(scn.params, init, scn.horizon, lambda0=spec["lambda0"], cm=cm)
    report.feasibility = _feasibility_section(feas, scn.initial.k0)
    report.feasibility_data = feas
    if not feas.feasible:
        return InfeasibleError.code, {}

    Lam = simulate.lambda_constant(scn.params, init)
    if Lam <= 0.0 or simulate.lambda_on_boundary(Lam, scn.initial.k0):
        threshold = simulate.initial_capital_threshold(scn.params, init.history)
        return "lambda:nonpositive", {"Lambda": Lam, "k0_threshold": threshold}

    # the run's one v(x0), which the oracle also reads; a single state is cheap,
    # so G_value's dual-quadrature cross-check gets a fine window whatever the grid
    state0 = StateSample(scn.initial.k0, scn.initial.history.resample(max(num.n, 1000)))
    report.hjb = state_values(state0, scn.params)

    try:
        traj = simulate.simulate_integral_form(scn.params, init, scn.horizon)
        traj_l = simulate.simulate_lambda_form(scn.params, init, scn.horizon)
    except ConstraintError as exc:
        return exc.code, {"error": str(exc)}

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
    mon_l = simulate.invariant_monitor(traj_l, scn.params, scn.initial, cm=feas.cm, reference=traj)
    ext = traj.external_residual.max().item()
    cm_scale = max(1.0, traj.c.max().item())
    report.invariants = {
        "g_drift_integral": mon.g_drift_max,
        "g_drift_lambda": mon_l.g_drift_max,
        "lambda_gap": mon.lambda_gap_max,
        "cross_method": mon_l.cross_method,
        "external_residual": ext,
        "budget_integral": mon.budget_residual,
        "budget_lambda": mon_l.budget_residual,
        "cm_margin_min": mon.cm_margin_min,
    }
    checks.extend(_bounded(
        num,
        g_drift=max(mon.g_drift_max, mon_l.g_drift_max),
        lambda_law=mon.lambda_gap_max,
        cross_method=mon_l.cross_method,
        external=ext,
        budget=max(mon.budget_residual, mon_l.budget_residual),
    ))
    cm_floor = -num.tol("min_consumption") * cm_scale
    checks.append(Check("min_consumption", mon.cm_margin_min, cm_floor, mon.cm_margin_min >= cm_floor))

    if run_oracle:
        report.oracle = _oracle_section(scn, checks, report.hjb["v"])
    else:
        report.oracle = {"skipped": "disabled by flag or scenario"}

    report.trajectory, report.monitor = traj, mon
    return None


def _oracle_section(scn: Scenario, checks: list, v_predicted: float) -> dict:
    num = scn.numerics
    T = scn.oracle_horizon
    m = num.oracle_m
    head = {"v_predicted": v_predicted, "T": T, "m": m, "seed": num.seed}

    def unjudged(section, stage, why, owned=("value_match", "perturbation", "ascent")):
        """A case the oracle cannot judge: ``<stage>_error`` says why, and the checks the stage owns fail at inf."""
        section[f"{stage}_error"] = str(why)
        checks.extend(Check(c, math.inf, num.tol(c), False) for c in owned)
        return section

    if not (math.isfinite(v_predicted) and v_predicted != 0.0):  # no gap relative to it is defined
        return unjudged({}, "value", f"v = {v_predicted} is not a finite nonzero double") | head
    prob = oracle.DiscreteProblem(scn.params, scn.initial, T, m)
    try:
        traj = simulate.simulate_integral_form(scn.params, prob.init, T)
    except ConstraintError as exc:  # the closed loop breaks the constraints of the oracle's grid
        return unjudged({}, "closed_loop", exc) | head
    J_cl = oracle.evaluate_objective(prob, traj.c)
    match = abs(J_cl - v_predicted) / abs(v_predicted)
    checks.extend(_bounded(num, value_match=match))

    section = {"J_closed_loop": J_cl, "v_predicted": v_predicted, "value_match": match,
               "T": T, "m": m, "seed": num.seed}
    try:
        rep = oracle.perturbation_test(
            prob, traj.c, trials=num.trials, seed=num.seed, tol=num.tol("perturbation")
        )
        section["max_perturbation_gain"] = rep.max_gain
        section["perturbation_trials"] = rep.trials
        checks.append(Check("perturbation", rep.max_gain, rep.tolerance, True))
    except (OptimalityViolation, InfeasibleControlError) as exc:
        unjudged(section, "perturbation", exc, ("perturbation",))

    cm = dde.minimal_consumption(scn.params, prob.init.history, T)
    start = cm.values + 0.5 * max(traj.Lambda, 0.1)
    try:
        res = oracle.projected_ascent(prob, start, iters=num.ascent_iters)
    except InfeasibleControlError as exc:
        return unjudged(section, "ascent", exc, ("ascent",))
    gap = abs(res.J - J_cl) / abs(J_cl) if math.isfinite(J_cl) and J_cl != 0.0 else math.inf
    section["ascent_J"] = res.J
    section["ascent_iterations"] = res.iterations
    section["ascent_projections"] = res.projections
    section["ascent_backtracks"] = res.backtracks
    section["ascent_gap"] = gap
    checks.extend(_bounded(num, ascent=gap))
    return section


# -- output writers -----------------------------------------------------------


def _json_ready(obj):
    """Strict-JSON form: numpy values become Python values, then non-finite floats strings."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
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
        residuals = (traj.t, traj.lambda_check, traj.external_residual)
        simulate.write_csv(out_dir / "plot_residuals.csv", "t,lambda_check,external_residual", residuals)

    with open(out_dir / "report.json", "w") as fh:
        json.dump(_json_ready(report.to_dict()), fh, indent=2, sort_keys=True, allow_nan=False)
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


def _result(text: str, code: int) -> int:
    """Print the final stdout line, ``RESULT <text>`` on one line; return the exit code."""
    print("RESULT " + " ".join(text.splitlines()))
    return code


def _not_loaded(exc: AkHabitError) -> int:
    """A scenario that did not load: a defect of the file, or parameters outside their domain."""
    if isinstance(exc, ScenarioError):
        return _result(f"error {exc.code}: {exc}", 3)
    return _result(f"reject {exc.code}: {exc}", 2)


def _internal(exc: Exception) -> str:
    """The code of an exception that has none of its own, a defect; its traceback goes to stderr."""
    traceback.print_exception(exc)
    return f"internal:{type(exc).__name__}"


def run(scenario_path, out_dir, check_only: bool = False, plot_data: bool = False,
        seed: int | None = None, no_oracle: bool = False) -> int:
    """Run the pipeline for one scenario file; returns the process exit code."""
    scn = None
    try:
        if seed is not None and seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {seed}", code="parse:seed")
        scn = load_scenario(scenario_path)
        if seed is not None:
            scn = replace(scn, numerics=replace(scn.numerics, seed=seed))
        report = run_pipeline(scn, run_oracle=not no_oracle)
        write_outputs(report, Path(out_dir), check_only, plot_data)
    except AkHabitError as exc:
        if scn is None:
            return _not_loaded(exc)
        return _result(f"error {exc.code}: {exc}", 1)
    except OSError as exc:  # the scenario is read by load_scenario, so only the writer's
        return _result(f"error io:write: {exc}", 3)
    except Exception as exc:
        return _result(f"error {_internal(exc)}", 1)
    for check in report.checks:
        state = "pass" if check.passed else "FAIL"
        print(f"CHECK {check.name} {state} value={check.value:.6g} tol={check.tolerance:.6g}")
    if report.status == "ok":
        return _result("ok", 0)
    return _result(f"{report.status} {report.code}", 2 if report.status == "reject" else 1)


def _sweep_row(scn: Scenario, name: str, value: float, shared: dict):
    """One summary row; ``shared`` maps (eps, eta, tau) to the sweep's KernelResults.

    Within one sweep only the swept parameter changes (and with tau the
    history's memory length), so rows with the same (eps, eta, tau) have
    the same kernel, history, grid, horizon and margin.
    """
    params, initial = scn.params, scn.initial
    if name == "k0":
        initial = replace(initial, k0=value)
    else:
        params = replace(params, **{name: value})
        if name == "tau":
            initial = replace(initial, history=HistoryGrid(value, initial.history.values))
    # a sweep never runs the oracle, so the row is not held to its grid
    row_scn = Scenario(params=params, initial=initial, numerics=replace(scn.numerics, oracle=False))
    row_scn.check_consistency()
    key = (params.eps, params.eta, params.tau)
    report = run_pipeline(row_scn, kernel=shared.get(key))
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
    """Run the pipeline once per parameter value; emit a summary CSV.

    A row that raises is an ``error`` row with the exception's code as
    its verdict, and the sweep goes on.
    """
    try:
        if param not in SWEEP_PARAMS:
            raise ScenarioError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
        if not values:
            raise ScenarioError("sweep needs a non-empty value list")
        scn = load_scenario(scenario_path)
    except AkHabitError as exc:
        return _not_loaded(exc)
    except Exception as exc:
        return _result(f"error {_internal(exc)}", 1)

    rows = []
    shared = {}
    for v in values:
        try:
            rows.append(_sweep_row(scn, param, v, shared))
        except Exception as exc:
            code = exc.code if isinstance(exc, AkHabitError) else _internal(exc)
            rows.append((v, math.nan, math.nan, math.nan, math.nan, code, "error"))

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="") as fh:
            fh.write(f"{param},lambda0,Lambda,Gamma,max_drift,verdict,status\n")
            for value, lam0, Lam, Gam, drift, verdict, status in rows:
                fh.write(
                    f"{value:.17g},{lam0:.17g},{Lam:.17g},{Gam:.17g},{drift:.17g},{verdict},{status}\n"
                )
    except OSError as exc:
        return _result(f"error io:write: {exc}", 3)
    bad = [row for row in rows if row[6] != "ok"]
    for row in rows:
        print(f"SWEEP {param}={row[0]:g} verdict={row[5]} status={row[6]}")
    if bad:
        return _result(f"fail sweep:{len(bad)}-of-{len(rows)}-rows", 1)
    return _result("ok", 0)


class _Parser(argparse.ArgumentParser):
    """A usage error ends like every other input: usage on stderr, a RESULT line, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_result(f"error parse:args: {message}", 3))


def main(argv=None) -> None:
    parser = _Parser(prog="akhabit", description="Verify and simulate the habit-formation AK growth model")
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
        code = run(args.scenario, args.out, args.check_only, args.plot_data, args.seed, args.no_oracle)
    else:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            sys.exit(_result(f"error parse:values: {exc}", 3))
        code = sweep(args.scenario, args.param, values, args.out)
    sys.exit(code)


if __name__ == "__main__":
    # runs in a child process: tests/test_cli.py::TestConsoleEntry::test_module_invocation
    main()
