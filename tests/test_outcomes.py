"""Outcomes the README documents, each executed end to end from ``run``, ``sweep`` or ``main``.

The regressions: a closed loop that breaks the constraints of the
oracle's own grid, and error messages that once carried numpy scalar
reprs.  The rest pin documented outcomes that no other test executes.
"""

import contextlib
import io
import json
from dataclasses import replace

import pytest
import yaml

import akhabit.cli as cli
import akhabit.simulate as simulate
from akhabit.cli import main, run, sweep
from akhabit.errors import InconsistencyError
from akhabit.model import validate

BASE = {
    "params": {"eps": 0.5, "eta": 1.0, "tau": 1.0, "A": 0.3, "delta": 0.05, "rho": 0.04, "gamma": 2.0},
    "initial": {"k0": 10.0, "history": {"constant": 1.0}},
    "numerics": {"n": 200, "horizon": 8.0, "oracle": False},
}


def scenario(tmp_path, doc=None, **blocks):
    """A scenario file: ``doc`` as given, or BASE with each block updated by ``blocks``."""
    if doc is None:
        doc = json.loads(json.dumps(BASE))  # deep copy
        for block, entries in blocks.items():
            doc[block].update(entries)
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def outcome(call, *args, **kwargs):
    """Exit code (a SystemExit's too) and last stdout line of one entry-point call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = call(*args, **kwargs)
        except SystemExit as exc:
            code = exc.code
    lines = out.getvalue().splitlines()
    return code, lines[-1] if lines else ""


def run_and_sweep(tmp_path, path):
    return outcome(run, path, tmp_path / "out"), outcome(sweep, path, "k0", [10.0, 20.0], tmp_path / "sweep")


# -- regressions --------------------------------------------------------------


def test_closed_loop_off_the_oracle_grid_fails_the_oracle_checks(tmp_path):
    # the closed loop breaks c >= h at t = 5.43 on the oracle's grid: the run
    # records it and fails its oracle checks instead of ending in an error
    path = scenario(tmp_path, {
        "params": {
            "eps": 11.570313507004574, "eta": 12.233001210303968, "tau": 0.6465793357964996,
            "A": 0.16361440833737412, "delta": 0.0017601795795072206, "rho": 1.0000000219900923e-06,
            "gamma": 17.50585900151837,
        },
        "initial": {"k0": 0.00046580291875977174, "history": {"constant": 0.0}},
        "numerics": {"n": 200, "oracle": True, "oracle_m": 100, "trials": 3, "ascent_iters": 5},
    })
    assert outcome(run, path, tmp_path / "out") == (1, "RESULT fail check:g_drift")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle"]["closed_loop_error"].startswith("constraint violated at t=5.43127")
    oracle_checks = {c["name"]: c for c in report["checks"] if c["name"] in ("value_match", "perturbation", "ascent")}
    assert list(oracle_checks) == ["value_match", "perturbation", "ascent"]
    assert all(c["value"] == "inf" and not c["passed"] for c in oracle_checks.values())


def test_result_messages_print_plain_floats(tmp_path):
    path = scenario(tmp_path, {
        "params": {
            "eps": 0.04364161007398183, "eta": 0.04364161007398183, "tau": 5.274444302582603,
            "A": 2.000087282150008, "delta": 0.0002012973270942704, "rho": 1.784281727717029,
            "gamma": 0.10780827761150653,
        },
        "initial": {"k0": 0.06742566471524133, "history": {"samples": [
            1.4882768350458504, 0.13756565116656227, 0.039472028238076606, 0.757579715606812, 2.224933799980603,
        ]}},
        "numerics": {"n": 200, "horizon": 10.864672722841865, "oracle": False},
    })
    code, last = outcome(run, path, tmp_path / "out")
    assert code == 1
    assert last.startswith("RESULT error hjb:mismatch: G quadrature forms disagree: direct=0.00246")
    assert "np.float64" not in last


# -- documented outcomes --------------------------------------------------------


def test_history_expr_with_unary_minus_runs(tmp_path):
    path = scenario(tmp_path, initial={"history": {"expr": "-u + 1"}})
    assert run_and_sweep(tmp_path, path) == ((0, "RESULT ok"), (0, "RESULT ok"))


@pytest.mark.parametrize(
    "blocks",
    [
        {"initial": {"history": {"expr": "("}}},
        {"initial": {"history": {"spline": [1.0, 2.0, 3.0]}}},
        {"initial": {"history": {"samples": "abc"}}},
    ],
    ids=["expr-unparsable", "unknown-kind", "samples-text"],
)
def test_bad_history_is_parse_scenario(tmp_path, blocks):
    for code, last in run_and_sweep(tmp_path, scenario(tmp_path, **blocks)):
        assert code == 3
        assert last.startswith("RESULT error parse:scenario")


def test_scenario_that_is_a_list_is_parse_scenario(tmp_path):
    path = scenario(tmp_path, [BASE])
    for code, last in run_and_sweep(tmp_path, path):
        assert code == 3
        assert last.startswith("RESULT error parse:scenario: scenario must be a mapping")


def test_two_history_samples_reject_domain_history(tmp_path):
    path = scenario(tmp_path, initial={"history": {"samples": [1.0, 2.0]}})
    for code, last in run_and_sweep(tmp_path, path):
        assert code == 2
        assert last.startswith("RESULT reject domain:history")


def test_sweep_load_without_a_code_is_internal(tmp_path, monkeypatch):
    def load(path):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "load_scenario", load)
    assert outcome(sweep, scenario(tmp_path), "k0", [10.0], tmp_path / "sweep") == (
        1, "RESULT error internal:RuntimeError"
    )


def test_main_in_process_exits_0(tmp_path):
    path = str(scenario(tmp_path))
    assert outcome(main, ["run", path, "-o", str(tmp_path / "out"), "--no-oracle"]) == (0, "RESULT ok")
    sweep_args = ["sweep", path, "--param", "k0", "--values", "5,10", "-o", str(tmp_path / "sweep")]
    assert outcome(main, sweep_args) == (0, "RESULT ok")
    assert (tmp_path / "sweep" / "sweep.csv").read_text().count("\n") == 3


def test_sweep_values_not_a_number_is_parse_values(tmp_path):
    args = ["sweep", str(scenario(tmp_path)), "--param", "k0", "--values", "1,x", "-o", str(tmp_path / "sweep")]
    code, last = outcome(main, args)
    assert code == 3
    assert last.startswith("RESULT error parse:values")


def test_lambda_message_prints_plain_floats(monkeypatch, params, init):
    # a planted 1% error in alpha makes the two products of Lambda disagree
    der = validate(params)
    monkeypatch.setattr(simulate, "validate", lambda p: replace(der, alpha=1.01 * der.alpha))
    with pytest.raises(InconsistencyError, match=r"\(r - Gamma\)\*G=\d") as err:
        simulate.lambda_constant(params, init)
    assert "np.float64" not in str(err.value)
