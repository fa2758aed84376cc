"""A control that breaks the oracle grid's constraints is a failed oracle check, not a crash."""

import json

import numpy as np
import pytest

from akhabit import DiscreteProblem, InfeasibleControlError, projected_ascent
from akhabit.cli import run
from akhabit.oracle import fd_gradient, gradient
from test_error_contract import outcome, scenario

# the closed-loop control has J = -inf on the oracle's 40-cell grid
CLOSED_LOOP_INFEASIBLE = {
    "params": {"eps": 0.188, "eta": 0.4, "tau": 2.97, "A": 0.871, "delta": 0.177, "rho": 0.407, "gamma": 3.05},
    "initial": {"k0": 45.4, "history": {"constant": 0.678}},
    "numerics": {"n": 248, "horizon": None, "oracle": True, "oracle_m": 400},
}
# the ascent's start c_m + Lambda/2 stays infeasible after the projection
ASCENT_START_INFEASIBLE = {
    "params": {"eps": 0.5, "eta": 0.5, "tau": 2.38, "A": 0.456, "delta": 0.267, "rho": 0.281, "gamma": 0.5},
    "initial": {"k0": 0.264, "history": {"constant": 0.1}},
    "numerics": {"horizon": None, "oracle": True, "oracle_m": 400},
}


@pytest.mark.parametrize(
    "blocks,check,error",
    [
        (CLOSED_LOOP_INFEASIBLE, "perturbation", "perturbation_error"),
        (ASCENT_START_INFEASIBLE, "ascent", "ascent_error"),
    ],
    ids=["closed-loop", "ascent-start"],
)
def test_infeasible_oracle_control_is_a_failed_check(tmp_path, blocks, check, error):
    code, last, err = outcome(run, scenario(tmp_path, **blocks), tmp_path / "out")
    assert (code, last) == (1, "RESULT fail check:g_drift"), err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "needs a feasible" in report["oracle"][error]
    assert [c["passed"] for c in report["checks"] if c["name"] == check] == [False]


def test_oracle_api_raises_a_value_error(params, init):
    prob = DiscreteProblem(params, init, T=3.0, m=75)
    zero = np.zeros(prob.m + 1)
    for call in (gradient, fd_gradient, projected_ascent):
        with pytest.raises(InfeasibleControlError) as info:
            call(prob, zero)
        assert isinstance(info.value, ValueError)


def test_infeasible_closed_loop_has_an_infinite_ascent_gap(tmp_path, capsys):
    # J_cl = -inf, so the relative gap |J - J_cl| / |J_cl| is inf / inf; the run reports inf
    assert run(scenario(tmp_path, **CLOSED_LOOP_INFEASIBLE), tmp_path / "out") == 1
    assert "CHECK ascent FAIL value=inf " in capsys.readouterr().out
    section = json.loads((tmp_path / "out" / "report.json").read_text())["oracle"]
    assert (section["J_closed_loop"], section["ascent_gap"]) == ("-inf", "inf")
