import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from akhabit.cli import load_scenario, run, run_pipeline, sweep
from akhabit.errors import ScenarioError

REPO = Path(__file__).resolve().parent.parent

BASE = {
    "params": {
        "eps": 0.5,
        "eta": 1.0,
        "tau": 1.0,
        "A": 0.3,
        "delta": 0.05,
        "rho": 0.04,
        "gamma": 2.0,
    },
    "initial": {"k0": 10.0, "history": {"constant": 1.0}},
    "numerics": {"n": 200, "horizon": 8.0},
}


def write_scenario(tmp_path, name="scn.yaml", **overrides):
    doc = json.loads(json.dumps(BASE))  # deep copy
    for block, entries in overrides.items():
        doc.setdefault(block, {}).update(entries)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestScenarioLoading:
    def test_baseline_file_parses(self):
        scn = load_scenario(REPO / "scenarios" / "baseline.yaml")
        assert scn.params.eps == 0.5
        assert scn.initial.k0 == 10.0
        assert scn.numerics.n == 200
        assert scn.horizon == 8.0
        assert scn.oracle_horizon == 10.0

    def test_samples_history(self, tmp_path):
        path = write_scenario(
            tmp_path, initial={"history": {"samples": [0.5, 1.0, 1.5, 1.0, 0.5]}}
        )
        scn = load_scenario(path)
        assert scn.initial.history.n == scn.numerics.n
        assert scn.initial.history.interp(-1.0) == pytest.approx(0.5)

    def test_expr_history(self, tmp_path):
        path = write_scenario(tmp_path, initial={"history": {"expr": "1 + 0.5*exp(0.3*u)"}})
        scn = load_scenario(path)
        u = -0.4
        assert scn.initial.history.interp(u) == pytest.approx(
            1 + 0.5 * np.exp(0.3 * u), abs=1e-5
        )

    def test_expr_rejects_unsafe_constructs(self, tmp_path):
        path = write_scenario(tmp_path, initial={"history": {"expr": "__import__('os')"}})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE))
        del doc["params"]["rho"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, params={"bogus": 1.0})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_tolerance_rejected(self, tmp_path):
        path = write_scenario(tmp_path, numerics={"tolerances": {"nope": 1.0}})
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestRun:
    def test_baseline_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("RESULT ok")
        for name in ("trajectory.csv", "feasibility.csv", "report.json", "report.txt"):
            assert (tmp_path / "out" / name).exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["spectral"]["regime"] == "negative-roots"
        assert all(c["passed"] for c in report["checks"])

    def test_check_only_skips_trajectory(self, tmp_path):
        path = write_scenario(tmp_path)
        code = run(path, tmp_path / "out", check_only=True, no_oracle=True)
        assert code == 0
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_plot_data_files(self, tmp_path):
        path = write_scenario(tmp_path)
        code = run(path, tmp_path / "out", plot_data=True, no_oracle=True)
        assert code == 0
        for name in ("plot_path.csv", "plot_gdrift.csv", "plot_residuals.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert len(lines) > 100

    def test_minimal_plan_integrated_once_per_run(self, tmp_path, monkeypatch):
        # the feasibility check's c_m is shared with both path monitors
        import akhabit.dde as dde

        calls = []
        original = dde.minimal_consumption

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dde, "minimal_consumption", counting)
        report = run_pipeline(load_scenario(write_scenario(tmp_path)), run_oracle=False)
        assert report.status == "ok"
        assert report.invariants["cm_margin_min"] >= 0.0
        assert len(calls) == 1

    def test_deterministic_outputs(self, tmp_path):
        path = write_scenario(tmp_path)
        run(path, tmp_path / "a", no_oracle=True)
        run(path, tmp_path / "b", no_oracle=True)
        for name in ("trajectory.csv", "feasibility.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_growth_regime_rejection(self, tmp_path, capsys):
        path = write_scenario(tmp_path, params={"eps": 1.2})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 2
        assert "RESULT reject regime:growth" in out

    def test_finite_value_rejection(self, tmp_path, capsys):
        path = write_scenario(tmp_path, params={"gamma": 0.5, "rho": 0.1})
        code = run(path, tmp_path / "out", no_oracle=True)
        assert code == 2
        assert "regime:finite-value" in capsys.readouterr().out

    def test_infeasible_capital_rejection(self, tmp_path, capsys):
        path = write_scenario(tmp_path, initial={"k0": 0.05})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 2
        assert "RESULT reject infeasible:capital" in out
        # the minimal-plan paths are still written for inspection
        assert (tmp_path / "out" / "feasibility.csv").exists()

    def test_log_utility_rejection(self, tmp_path, capsys):
        path = write_scenario(tmp_path, params={"gamma": 1.0})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 2
        assert "RESULT reject domain:gamma" in out

    def test_boundary_capital_rejection(self, tmp_path, capsys):
        # the feasibility cost and the excess-positivity threshold are the
        # same number mathematically (the boundary path is the minimal
        # plan), so either gate may fire first at the boundary
        path = write_scenario(tmp_path, initial={"k0": 0.1716})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 2
        assert "infeasible:capital" in out or "lambda:nonpositive" in out

    def test_missing_file_is_exit_3(self, tmp_path, capsys):
        code = run(tmp_path / "nope.yaml", tmp_path / "out")
        assert code == 3
        assert "RESULT error" in capsys.readouterr().out

    def test_unparseable_file_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("params: [not, a, mapping")
        assert run(path, tmp_path / "out") == 3

    @pytest.mark.parametrize(
        "oracle_numerics", [{"oracle_m": 1999}, {"oracle_horizon": 1.0, "oracle_m": 200}]
    )
    def test_bad_oracle_grid_is_exit_3(self, tmp_path, capsys, oracle_numerics):
        # a step that does not divide tau, or a horizon within one memory
        # length, is refused before any of the pipeline runs
        path = write_scenario(tmp_path, numerics=oracle_numerics)
        code = run(path, tmp_path / "out")
        out = capsys.readouterr().out
        assert code == 3
        assert out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")
        assert not (tmp_path / "out").exists()
        # the grid is not checked when the scenario turns the oracle off
        load_scenario(write_scenario(tmp_path, numerics={**oracle_numerics, "oracle": False}))

    def test_horizon_below_tau_is_exit_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, numerics={"horizon": 0.5})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 3
        assert out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")

    @pytest.mark.parametrize(
        "block,entry",
        [("numerics", {"n": "abc"}), ("params", {"eps": "abc"}), ("initial", {"k0": "abc"})],
        ids=["n", "eps", "k0"],
    )
    def test_non_numeric_scalar_is_exit_3(self, tmp_path, capsys, block, entry):
        path = write_scenario(tmp_path, **{block: entry})
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 3
        assert out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")
        assert not (tmp_path / "out").exists()

    def test_grid_too_coarse_for_minimal_plan_is_exit_3(self, tmp_path, capsys):
        # eps*tau/(2n) = 2.25: the minimal plan's implicit step has no
        # solution, which is refused at load time, before the spectral stage
        path = write_scenario(
            tmp_path, params={"eps": 0.9, "tau": 10.0}, numerics={"n": 2, "horizon": 80.0}
        )
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 3
        assert out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")
        assert not (tmp_path / "out").exists()
        # the bound is strict: eps*tau/(2n) = 1 exactly is refused, 0.8 loads
        def at(n):
            return write_scenario(
                tmp_path, params={"eps": 1.0, "tau": 8.0}, numerics={"n": n, "horizon": 64.0}
            )

        with pytest.raises(ScenarioError):
            load_scenario(at(4))
        assert load_scenario(at(5)).numerics.n == 5
        # with the oracle on, its grid (4 cells per tau here) is held to it too
        coarse_oracle = {"n": 200, "horizon": 64.0, "oracle_m": 40}
        params = {"eps": 1.0, "tau": 8.0}
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, params=params, numerics=coarse_oracle))
        load_scenario(
            write_scenario(tmp_path, params=params, numerics={**coarse_oracle, "oracle": False})
        )

    def test_failed_check_is_exit_1(self, tmp_path, capsys):
        # an absurdly tight drift tolerance forces a check failure
        path = write_scenario(
            tmp_path, numerics={"tolerances": {"g_drift": 1e-16}}
        )
        code = run(path, tmp_path / "out", no_oracle=True)
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT fail check:g_drift" in out

    def test_run_with_oracle_small(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            numerics={"oracle_m": 600, "oracle_horizon": 6.0, "trials": 20, "ascent_iters": 400},
        )
        code = run(path, tmp_path / "out", seed=42)
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["oracle"]["value_match"] < 1e-3
        assert report["oracle"]["ascent_gap"] < 1e-4
        assert "CHECK value_match pass" in out
        section = report["oracle"]
        assert 0 < section["ascent_projections"] <= 1.5 * section["ascent_iterations"]
        assert 0 <= section["ascent_backtracks"] < section["ascent_projections"]


class TestSweep:
    def test_tau_sweep_root_monotone(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = sweep(path, "tau", [0.5, 1.0, 2.0, 5.0], tmp_path / "out")
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,lambda0,Lambda,Gamma,max_drift,verdict,status"
        roots = [float(line.split(",")[1]) for line in lines[1:]]
        assert roots == sorted(roots)
        assert all(r < -0.5 for r in roots)  # climbing toward eps - eta

    def test_k0_sweep_verdict_flips_once(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        values = [0.05, 0.1, 0.15, 0.16, 0.18, 0.5, 1.0, 10.0]
        sweep(path, "k0", values, tmp_path / "out")
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        verdicts = [line.split(",")[5] for line in lines]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1
        assert verdicts[0] == "infeasible"
        assert verdicts[-1] == "feasible"

    def test_empty_values_is_exit_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert sweep(path, "tau", [], tmp_path / "out") == 3

    def test_tau_above_horizon_is_an_error_row(self, tmp_path, capsys):
        # the scenario's horizon is 8, so tau = 10 leaves no whole memory
        # window; that row is refused and the other rows still run
        path = write_scenario(tmp_path)
        code = sweep(path, "tau", [0.5, 10.0], tmp_path / "out")
        out = capsys.readouterr().out
        assert code == 1
        assert out.strip().splitlines()[-1] == "RESULT fail sweep:1-of-2-rows"
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert lines[0].split(",")[-1] == "ok"
        row = lines[1].split(",")
        assert float(row[0]) == 10.0
        assert row[-2:] == ["parse:scenario", "error"]

    def test_bad_param_is_exit_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert sweep(path, "A", [0.1], tmp_path / "out") == 3


class TestPipelineRobustness:
    def test_random_corners_verify_at_adequate_resolution(self):
        # stiff kernels (large (eta+r)*tau) need finer grids; at n=800 every
        # sampled corner certifies cleanly
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_valid_params
        from akhabit import HistoryGrid, InitialState, initial_capital_threshold
        from akhabit.cli import Numerics, Scenario, run_pipeline

        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(12):
            p = random_valid_params(rng)
            kind = rng.integers(0, 3)
            if kind == 0:
                hist = HistoryGrid.constant(rng.uniform(0.2, 2.0), p.tau, 200)
            elif kind == 1:
                grid = -p.tau + np.arange(201) * (p.tau / 200)
                hist = HistoryGrid(p.tau, np.maximum(1.0 + 0.5 * np.sin(3 * grid), 0.05))
            else:
                hist = HistoryGrid(p.tau, rng.uniform(0.3, 1.5, 201))
            k0 = initial_capital_threshold(p, hist) * rng.uniform(3.0, 30.0)
            scn = Scenario(
                params=p, initial=InitialState(k0, hist), numerics=Numerics(n=800)
            )
            report = run_pipeline(scn, run_oracle=False)
            assert report.status == "ok", (report.code, p)
            checked += 1
        assert checked == 12


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = write_scenario(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "akhabit.cli", "run", str(path), "-o",
             str(tmp_path / "out"), "--no-oracle", "--check-only"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("RESULT ok")

    def test_bad_values_flag(self, tmp_path):
        path = write_scenario(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "akhabit.cli", "sweep", str(path), "--param", "tau",
             "--values", "a,b", "-o", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3


class TestLambdaGate:
    """The Lambda gate after a feasible verdict, and its order against the
    hjb section and a failed integral-form solve.

    The feasibility and Lambda thresholds are the same number in exact
    arithmetic, so the feasibility verdict is forced here to reach the gate.
    """

    @pytest.fixture
    def feasible(self, monkeypatch):
        from dataclasses import replace

        import akhabit.dde as dde

        check = dde.check_feasibility
        monkeypatch.setattr(dde, "check_feasibility", lambda *a, **k: replace(check(*a, **k), feasible=True))

    def scenario(self, tmp_path, k0):
        return load_scenario(write_scenario(tmp_path, initial={"k0": k0}))

    def test_nonpositive_lambda_rejects_before_hjb(self, tmp_path, feasible):
        from akhabit.simulate import initial_capital_threshold, lambda_constant

        scn = self.scenario(tmp_path, 0.1)
        report = run_pipeline(scn, run_oracle=False)
        assert (report.status, report.code) == ("reject", "lambda:nonpositive")
        assert report.closed_loop == {
            "Lambda": lambda_constant(scn.params, scn.initial),
            "k0_threshold": initial_capital_threshold(scn.params, scn.initial.history),
        }
        assert report.closed_loop["Lambda"] < 0.0
        assert report.hjb == {}

    def test_degenerate_lambda_rejects(self, tmp_path, feasible):
        from akhabit.simulate import initial_capital_threshold, lambda_constant

        probe = self.scenario(tmp_path, 1.0)
        k0 = float(initial_capital_threshold(probe.params, probe.initial.history)) * (1.0 + 1e-12)
        scn = self.scenario(tmp_path, k0)
        Lam = lambda_constant(scn.params, scn.initial)
        assert 0.0 < Lam <= 1e-10
        report = run_pipeline(scn, run_oracle=False)
        assert (report.status, report.code) == ("reject", "lambda:nonpositive")
        assert report.closed_loop["Lambda"] == Lam

    @pytest.mark.parametrize("k0", [0.1, 10.0], ids=["lambda-negative", "lambda-positive"])
    def test_failed_integral_form_reported_after_lambda_and_hjb(self, tmp_path, feasible, monkeypatch, k0):
        import akhabit.simulate as simulate
        from akhabit.errors import CoarseGridError, ConstraintError

        scn = self.scenario(tmp_path, k0)

        def fails(error):
            def solve(*args, **kwargs):
                raise error

            return solve

        monkeypatch.setattr(simulate, "simulate_integral_form", fails(CoarseGridError("coarse")))
        if k0 < 1.0:
            report = run_pipeline(scn, run_oracle=False)
            assert report.code == "lambda:nonpositive"
        else:
            with pytest.raises(CoarseGridError):
                run_pipeline(scn, run_oracle=False)

        monkeypatch.setattr(simulate, "simulate_integral_form", fails(ConstraintError("late", t=3.0)))
        report = run_pipeline(scn, run_oracle=False)
        if k0 < 1.0:
            assert report.code == "lambda:nonpositive"
        else:
            assert (report.status, report.code) == ("reject", "simulate:constraint")
            assert report.closed_loop == {"error": "late"}
            assert set(report.hjb) == {"G", "v", "c_feedback", "hjb_residual"}


class TestNumericsValidation:
    """Every bad margin or seed ends in RESULT error and exit 3, from run and sweep."""

    @pytest.mark.parametrize(
        "numerics", [{"margin": -1}, {"margin": float("nan")}, {"margin": 0.0}, {"seed": -1}],
        ids=["margin-negative", "margin-nan", "margin-zero", "seed-negative"],
    )
    def test_bad_numerics_is_exit_3(self, tmp_path, capsys, numerics):
        path = write_scenario(tmp_path, numerics=numerics)
        assert run(path, tmp_path / "out") == 3
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")
        assert not (tmp_path / "out").exists()
        assert sweep(path, "k0", [1.0], tmp_path / "sweep") == 3
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("RESULT error parse:scenario")

    def test_negative_seed_flag_is_exit_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert run(path, tmp_path / "out", seed=-1) == 3
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("RESULT error parse:seed")
        assert not (tmp_path / "out").exists()


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestSharedKernel:
    """Sweep rows that keep (eps, eta, tau) share one spectrum and one c_m."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import akhabit.cli as cli
        import akhabit.dde as dde
        import akhabit.spectral as spectral

        calls = []
        _count_calls(monkeypatch, cli, "spectral_report", calls)
        _count_calls(monkeypatch, spectral, "dominance_certificate", calls)
        _count_calls(monkeypatch, dde, "minimal_consumption", calls)
        # real_root is bound in both modules that call it
        _count_calls(monkeypatch, spectral, "real_root", calls)
        monkeypatch.setattr(dde, "real_root", spectral.real_root)
        return calls

    @pytest.mark.parametrize(
        "param,values,per_layer",
        [("k0", [0.1, 0.2, 0.5, 1.0, 5.0, 10.0], 1), ("eps", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7], 6)],
    )
    def test_sweep_call_counts(self, tmp_path, capsys, calls, param, values, per_layer):
        sweep(write_scenario(tmp_path), param, values, tmp_path / "out")
        for name in ("spectral_report", "dominance_certificate", "minimal_consumption", "real_root"):
            assert calls.count(name) == per_layer, name

    def test_run_pipeline_bisects_once(self, tmp_path, calls):
        report = run_pipeline(load_scenario(write_scenario(tmp_path)), run_oracle=False)
        assert report.status == "ok"
        assert calls.count("real_root") == 1

    @pytest.mark.parametrize(
        "param,values",
        [
            ("k0", [0.05, 0.2, 0.5, 10.0, 0.2]),
            ("gamma", [0.5, 0.9, 2.0, 4.0]),
            ("rho", [0.01, 0.04, 0.5]),
            ("eps", [0.25, 0.5, 1.0, 1.5, 0.5]),
            ("tau", [0.5, 1.0, 2.0, 1.0]),
        ],
    )
    def test_sweep_csv_matches_independent_rows(self, tmp_path, capsys, monkeypatch, param, values):
        import akhabit.cli as cli

        path = write_scenario(tmp_path)
        sweep(path, param, values, tmp_path / "shared")
        row = cli._sweep_row
        monkeypatch.setattr(cli, "_sweep_row", lambda scn, name, value, shared: row(scn, name, value, {}))
        sweep(path, param, values, tmp_path / "independent")
        shared = (tmp_path / "shared" / "sweep.csv").read_bytes()
        assert shared == (tmp_path / "independent" / "sweep.csv").read_bytes()
        assert len(shared.splitlines()) == len(values) + 1
