"""The pipeline's stage order and the path monitor's cross-method comparison.

``_stages`` runs in one straight line: the Lambda gate and the hjb section
come before either integrator, and the comparison of the two integrators'
paths is made by ``simulate.invariant_monitor`` given the other path as
``reference``.
"""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import akhabit.cli as cli
import akhabit.dde as dde
import akhabit.simulate as simulate
from akhabit.cli import load_scenario, run_pipeline

from test_cli import write_scenario

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def feasible(monkeypatch):
    # the feasibility and Lambda thresholds are the same number in exact
    # arithmetic, so the verdict is forced to reach the gate
    check = dde.check_feasibility
    monkeypatch.setattr(dde, "check_feasibility", lambda *a, **k: replace(check(*a, **k), feasible=True))


def record(monkeypatch, module, name, events, label):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        events.append(label)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def wrap_integrators(monkeypatch, events):
    record(monkeypatch, simulate, "simulate_integral_form", events, "integral")
    record(monkeypatch, simulate, "simulate_lambda_form", events, "lambda")


def test_nonpositive_lambda_rejects_without_integrating(tmp_path, feasible, monkeypatch):
    events = []
    wrap_integrators(monkeypatch, events)
    report = run_pipeline(load_scenario(write_scenario(tmp_path, initial={"k0": 0.1})), run_oracle=False)
    assert (report.status, report.code) == ("reject", "lambda:nonpositive")
    assert events == []


def test_gate_and_hjb_come_before_both_integrators(tmp_path, monkeypatch):
    events = []
    wrap_integrators(monkeypatch, events)
    record(monkeypatch, simulate, "lambda_constant", events, "Lambda")
    record(monkeypatch, cli, "state_values", events, "hjb")
    report = run_pipeline(load_scenario(write_scenario(tmp_path)), run_oracle=False)
    assert report.status == "ok"
    assert list(dict.fromkeys(events)) == ["Lambda", "hjb", "integral", "lambda"]
    assert (events.count("integral"), events.count("lambda")) == (1, 1)


def inline_cross_method(traj, traj_l):
    """The comparison as run_pipeline computed it before the monitor took it over."""
    return max(
        (abs(a - b).max() / abs(a).max()).item()
        for a, b in ((traj.k, traj_l.k), (traj.c, traj_l.c), (traj.h, traj_l.h))
    )


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
def test_monitor_cross_method_is_the_inline_expression(name, n):
    scn = load_scenario(REPO / "scenarios" / f"{name}.yaml")
    params, init, T = scn.params, scn.initial, scn.horizon
    cm = dde.check_feasibility(params, init, T, n).cm
    traj = simulate.simulate_integral_form(params, init, T, n=n)
    traj_l = simulate.simulate_lambda_form(params, init, T, n=n)

    compared = simulate.invariant_monitor(traj_l, params, init, cm=cm, reference=traj)
    alone = simulate.invariant_monitor(traj_l, params, init, cm=cm)
    assert compared.cross_method == inline_cross_method(traj, traj_l)
    assert alone.cross_method is None
    for f in fields(alone):
        if f.name != "cross_method":
            assert np.array_equal(getattr(compared, f.name), getattr(alone, f.name)), f.name


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
def test_run_pipeline_writes_no_csv_text(monkeypatch, name):
    # the CSV encoder belongs to write_outputs, outside run_pipeline (and
    # outside the run_pipeline span that perfbench traces)
    def refuse(*args, **kwargs):
        raise AssertionError("run_pipeline wrote CSV text")

    monkeypatch.setattr(simulate, "encode_rows", refuse)
    monkeypatch.setattr(simulate, "write_csv", refuse)
    report = run_pipeline(load_scenario(REPO / "scenarios" / f"{name}.yaml"), run_oracle=False)
    assert (report.status, report.code) == ("ok", "")
    assert report.trajectory is not None
