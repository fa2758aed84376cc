"""Branches no other test reaches: rare error exits, the certificate's
boundary nudge, the monitor's absolute drift, the ascent's stalled line
search, and the package's own ``python -m akhabit`` entry point.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest

import akhabit.oracle as oracle
from akhabit import DiscreteProblem, HistoryGrid, InitialState, ModelParams, StateSample
from akhabit.cli import run
from akhabit.dde import minimal_consumption
from akhabit.errors import AkHabitError
from akhabit.simulate import initial_capital_threshold, invariant_monitor, simulate_integral_form
from akhabit.spectral import dominance_certificate, real_root, regime

from test_outcomes import outcome, scenario


def code_of(excinfo):
    return excinfo.value.code


def test_tiny_memory_fails_the_root_bracket(tmp_path):
    path = scenario(tmp_path, params={"tau": 1.0e-40}, numerics={"horizon": None})
    code, last = outcome(run, path, tmp_path / "out")
    assert code == 1 and last.startswith("RESULT error spectral:bracket: no sign change")


def test_removable_point_on_the_box_edge_is_nudged_inside(params):
    # re_hi = lambda0 + margin lands on -eta: the box widens by 1e-9 and counts it
    margin = -params.eta - real_root(params)
    assert 1.25 < margin < 1.26
    cert = dominance_certificate(params, margin=margin)
    assert (cert.verified, cert.winding, cert.expected) == (True, 2, 2)


def test_regime_tag_disagreeing_with_lambda0(params):
    with pytest.raises(AkHabitError) as excinfo:
        regime(params, lambda0=5.0)
    assert code_of(excinfo) == "spectral:inconsistent"


def test_negative_capital_state(history):
    with pytest.raises(AkHabitError) as excinfo:
        StateSample(-1.0, history)
    assert code_of(excinfo) == "domain:k"


def test_oracle_grid_of_one_memory_length():
    # T exceeds tau by one ulp, so T/2 divides tau into m = 2 cells: no step beyond tau
    with pytest.raises(AkHabitError, match="horizon must exceed one memory length") as excinfo:
        oracle.grid_cells(1.0, 1.0 + 2**-52, 2)
    assert code_of(excinfo) == "domain:grid"


def test_objective_of_controls_of_the_wrong_length(params, init):
    prob = DiscreteProblem(params, init, T=3.0, m=75)
    with pytest.raises(ValueError, match="controls must have shape"):
        oracle.objective_breakdown(prob, np.ones(3))


def test_integral_form_on_a_grid_too_coarse_for_its_step():
    p = ModelParams(eps=5.0, eta=5.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
    init = InitialState(50.0, HistoryGrid.constant(1.0, 1.0, 2))
    with pytest.raises(AkHabitError) as excinfo:
        simulate_integral_form(p, init, 4.0)
    assert code_of(excinfo) == "simulate:coarse-grid"


def test_monitor_of_a_degenerate_path_reads_absolute_drift(params):
    history = HistoryGrid.constant(1.0, params.tau, 50)
    init = InitialState(initial_capital_threshold(params, history) * (1.0 - 3e-9), history)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the boundary-data warning
        traj = simulate_integral_form(params, init, 8.0)
    assert traj.degenerate and -1e-9 < traj.G[0] < 0.0
    mon = invariant_monitor(traj, params, init)
    assert np.array_equal(mon.g_drift, np.abs(traj.G - traj.G[0] * np.exp(traj.Gamma * traj.t)))


def test_ascent_stops_when_the_line_search_never_accepts(monkeypatch, params):
    hist = HistoryGrid.constant(1.0, tau=1.0, n=25)
    prob = DiscreteProblem(params, InitialState(10.0, hist), T=3.0, m=75)
    start = minimal_consumption(params, prob.init.history, 3.0).values + 0.5
    real = oracle.evaluate_objective
    seen = []

    def start_only(problem, controls):
        seen.append(None)
        return real(problem, controls) if len(seen) == 1 else -np.inf

    monkeypatch.setattr(oracle, "evaluate_objective", start_only)
    res = oracle.projected_ascent(prob, start, iters=5)
    assert (res.iterations, res.backtracks, res.projections) == (1, 40, 41)
    assert res.J == real(prob, res.controls)


def test_package_entry_point(tmp_path):
    # the README's entry point; it runs only in a child process
    path = scenario(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "akhabit", "run", str(path), "-o", str(tmp_path / "out"), "--no-oracle",
         "--check-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("RESULT ok")
