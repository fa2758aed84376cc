"""A path's start is computed once per integrator call, from one run-grid state per run."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import akhabit.hjb as hjb
from akhabit import HistoryGrid, InitialState
from akhabit.cli import load_scenario, run_pipeline
from akhabit.hjb import aggregate
from akhabit.model import habit_of_history
from akhabit.simulate import _start, lambda_constant, simulate_integral_form

REPO = Path(__file__).resolve().parent.parent


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` through every binding of it in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "akhabit" or name.startswith("akhabit."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
def test_start_is_the_one_formula_bitwise(name):
    scn = load_scenario(REPO / "scenarios" / f"{name}.yaml")
    init = scn.initial.resample(scn.numerics.n)
    der, hist, G0, Lam, degenerate, t, k, c, h, c_tol, k_tol = _start(scn.params, init, None, scn.horizon)
    assert hist is init.history
    assert G0 == aggregate(init.k0, hist, scn.params)
    assert Lam == lambda_constant(scn.params, init)
    assert (k[0], h[0]) == (init.k0, habit_of_history(hist, scn.params))
    assert simulate_integral_form(scn.params, init, scn.horizon).G[0] == G0


@pytest.mark.parametrize("oracle,habits,resamples", [(False, 5, 2), (True, 7, 3)], ids=["no-oracle", "oracle"])
def test_run_evaluates_the_start_once_per_integrator(monkeypatch, oracle, habits, resamples):
    scn = load_scenario(REPO / "scenarios" / "baseline.yaml")
    calls = {fn.__name__: count_calls(monkeypatch, fn) for fn in (habit_of_history, aggregate, lambda_constant)}
    resample = HistoryGrid.resample
    calls["resample"] = []
    monkeypatch.setattr(HistoryGrid, "resample", lambda self, n: calls["resample"].append(n) or resample(self, n))
    assert run_pipeline(scn, run_oracle=oracle).status == "ok"
    counts = {name: len(seen) for name, seen in calls.items()}
    assert counts == {"habit_of_history": habits, "aggregate": 1, "lambda_constant": 1, "resample": resamples}


def test_aggregate_keeps_the_windows_of_a_history(monkeypatch, params, history):
    # the k0 rows of a sweep share the history and the parameters, so the
    # Lambda gate computes the window functionals once for all of them
    windows = count_calls(monkeypatch, hjb._window_functionals)
    fresh = HistoryGrid(history.tau, history.values)
    lams = [lambda_constant(params, InitialState(k0, fresh)) for k0 in (5.0, 10.0, 20.0)]
    assert len(windows) == 1
    for k0, Lam in zip((5.0, 10.0, 20.0), lams):
        assert Lam == lambda_constant(params, InitialState(k0, HistoryGrid(history.tau, history.values)))


def test_k0_rows_share_the_window_of_the_hjb_grid(monkeypatch):
    # the hjb section evaluates v(x0) on the history resampled to 1000 nodes,
    # which the history keeps, so runs that change only k0 share its (h, W)
    scn = load_scenario(REPO / "scenarios" / "baseline.yaml")
    windows = count_calls(monkeypatch, hjb._window_functionals)
    for k0 in (5.0, 10.0, 20.0):
        row = replace(scn, initial=replace(scn.initial, k0=k0))
        assert run_pipeline(row, run_oracle=False).status == "ok"
    assert sum(history.n == 1000 for history, _ in windows) == 1
