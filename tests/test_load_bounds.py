"""Load-time bounds: the work a scenario can ask for, the grid rule, and README's list of them.

Every bound is a constant of ``cli``; a scenario beyond one is exit 3
(``parse:scenario``) before any solver runs.
"""

import dataclasses
import re
import time
from pathlib import Path

import numpy as np
import pytest

from akhabit import CoarseGridError, ConstraintError, HistoryGrid, InitialState, ModelParams
from akhabit.cli import MAX_COUNT, MAX_NODES, Numerics, Scenario, load_scenario, run, sweep
from akhabit.simulate import initial_capital_threshold, simulate_integral_form
from test_error_contract import outcome, run_and_sweep, scenario

README = Path(__file__).resolve().parent.parent / "README.md"


# -- the work a scenario can ask for ---------------------------------------------


@pytest.mark.parametrize(
    "numerics",
    [
        {"trials": 1.0e20, "oracle": True, "oracle_m": 200},
        {"trials": MAX_COUNT + 1},
        {"ascent_iters": MAX_COUNT + 1},
        {"oracle_m": MAX_COUNT + 1},
        {"n": MAX_NODES + 1},
        # n * horizon / tau = 5.005e6 nodes, with e^(r T) still a finite double
        {"n": 5000, "horizon": 1001.0},
    ],
    ids=["trials-1e20", "trials", "ascent_iters", "oracle_m", "n", "nodes"],
)
def test_work_beyond_the_bounds_is_exit_3(tmp_path, numerics):
    path = scenario(tmp_path, numerics=numerics)
    start = time.perf_counter()
    results = run_and_sweep(tmp_path, path)
    assert time.perf_counter() - start < 1.0
    for code, last, _ in results:
        assert code == 3
        assert last.startswith("RESULT error parse:scenario")


def test_work_at_the_bounds_loads(tmp_path):
    numerics = {"trials": MAX_COUNT, "ascent_iters": MAX_COUNT, "oracle_m": MAX_COUNT}
    scn = load_scenario(scenario(tmp_path, numerics=dict(numerics, n=5000, horizon=1000.0)))
    assert scn.numerics.n * scn.horizon / scn.params.tau == MAX_NODES
    assert all(getattr(scn.numerics, name) == value for name, value in numerics.items())


def test_short_memory_sweep_row_stays_accepted(tmp_path):
    # the 1.6-million-node row of a tau sweep of the baseline at 1e-3
    scn = load_scenario(scenario(tmp_path))
    tau = 1e-3
    row = Scenario(
        params=dataclasses.replace(scn.params, tau=tau),
        initial=dataclasses.replace(scn.initial, history=HistoryGrid(tau, scn.initial.history.values)),
        numerics=scn.numerics,
    )
    row.check_consistency()
    assert row.numerics.n * row.horizon / tau == pytest.approx(1.6e6)


def test_sweep_row_beyond_the_node_bound_is_an_error_row(tmp_path):
    code, last, _ = outcome(sweep, scenario(tmp_path), "tau", [1e-4, 1.0], tmp_path / "sweep")
    assert (code, last) == (1, "RESULT fail sweep:1-of-2-rows")
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",parse:scenario,error")
    assert rows[2].endswith(",ok")


# -- the grid rule covers the integral form's step ----------------------------


def test_load_time_grid_rule_prevents_coarse_grid_error():
    """At eps*tau/(2n) just below 1 the integral form always takes its step.

    Inside the regime alpha > 0 and kappa0 - q = 1 - eps/(r+eta), and the
    step's capital coefficient is at most -dt/2, so the integral form's
    implicit weight is at most eps*dt/2 - alpha*dt/2 < eps*tau/(2n).
    """
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 41))
        eta = rng.uniform(0.5, 20.0)
        eps = eta * (1.0 if rng.uniform() < 0.2 else rng.uniform(0.1, 1.0))
        tau = 2 * n * (1.0 - 10 ** rng.uniform(-12, -2)) / eps
        r = rng.uniform(0.01, 0.5) / tau
        gamma = rng.choice([rng.uniform(0.2, 0.95), rng.uniform(1.05, 6.0)])
        rho = max(0.0, r * (1.0 - gamma)) + rng.uniform(0.01, 0.5)
        params = ModelParams(eps=eps, eta=eta, tau=tau, A=r + 0.05, delta=0.05, rho=rho, gamma=gamma)
        history = HistoryGrid.constant(1.0, tau, n)
        k0 = 2.0 * max(initial_capital_threshold(params, history), 0.0) + 1.0
        numerics = Numerics(n=n, horizon=2 * tau, oracle=False)
        Scenario(params, InitialState(k0, history), numerics).check_consistency()
        assert eps * tau / (2 * n) < 1.0
        try:
            simulate_integral_form(params, InitialState(k0, history), 2 * tau, n=n)
        except CoarseGridError as exc:
            pytest.fail(f"{params}, n = {n}: {exc}")
        except ConstraintError as exc:
            # a path this coarse may break c >= h, but only after its first step
            assert exc.t > 0.0


def test_oracle_grid_under_two_cells_per_tau_is_exit_3(tmp_path):
    # oracle step T/m = tau: the oracle's history on [-tau, 0] would hold 2 samples
    path = scenario(tmp_path, numerics={"oracle": True, "oracle_horizon": 2.0, "oracle_m": 2})
    results = (*run_and_sweep(tmp_path, path), outcome(run, path, tmp_path / "no-oracle", no_oracle=True))
    for code, last, _ in results:
        assert code == 3
        assert last.startswith("RESULT error parse:scenario")


# -- README against the schema ------------------------------------------------------


def _exit_code_list() -> list[str]:
    """The items of README's exit-3 list, each on one line."""
    text = README.read_text()
    section = text[text.index("Exit codes:") : text.index("### Scenario files")]
    items = re.split(r"\n- ", section)[1:]
    return [" ".join(item.split()) for item in items]


def test_readme_lists_every_numerics_field_and_bound():
    items = _exit_code_list()
    for f in dataclasses.fields(Numerics):
        mentioned = [item for item in items if f"`{f.name}`" in item]
        assert mentioned, f"README's exit-code list does not name `{f.name}`"
        domain = f.metadata["domain"]
        if domain is not None:
            assert any(domain[0] in item for item in mentioned), (
                f"README's exit-code list does not give `{f.name}` its domain {domain[0]!r}"
            )
    assert any(f"{MAX_NODES} grid nodes" in item for item in items)

