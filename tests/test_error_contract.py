"""The error contract of ``run`` and ``sweep``: every input ends in an exit code of 0-3
and a last stdout line ``RESULT ...``.

A property test generates scenario files over params, numerics,
tolerances and history kinds, with null, NaN, +-inf, 1e+-300, wrong types
and extra keys among the values; regression tests pin the inputs that
once ended in a bare traceback.
"""

import contextlib
import io
import json
import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import akhabit.simulate as simulate
from akhabit.cli import load_scenario, main, run, run_pipeline, sweep
from akhabit.spectral import phi, real_root

BASE = {
    "params": {"eps": 0.5, "eta": 1.0, "tau": 1.0, "A": 0.3, "delta": 0.05, "rho": 0.04, "gamma": 2.0},
    "initial": {"k0": 10.0, "history": {"constant": 1.0}},
    "numerics": {"n": 200, "horizon": 8.0, "oracle": False},
}


def scenario(tmp_path, **blocks):
    doc = json.loads(json.dumps(BASE))  # deep copy
    for block, entries in blocks.items():
        doc[block].update(entries)
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def outcome(call, *args, **kwargs):
    """Exit code, last stdout line and stderr of one entry-point call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(*args, **kwargs)
    lines = out.getvalue().splitlines()
    return code, lines[-1] if lines else "", err.getvalue()


def run_and_sweep(tmp_path, path):
    return (
        outcome(run, path, tmp_path / "out"),
        outcome(sweep, path, "k0", [1.0, 10.0], tmp_path / "sweep"),
    )


# -- regressions ----------------------------------------------------------------


@pytest.mark.parametrize(
    "blocks,run_result,sweep_result",
    [
        ({"numerics": {"margin": None}}, (3, "RESULT error parse:scenario"), (3, "RESULT error parse:scenario")),
        ({"params": {"eps": True}}, (3, "RESULT error parse:scenario"), (3, "RESULT error parse:scenario")),
        ({"initial": {"k0": False}}, (3, "RESULT error parse:scenario"), (3, "RESULT error parse:scenario")),
        ({"numerics": {"tolerances": {"g_drift": True}}}, (3, "RESULT error parse:scenario"),
         (3, "RESULT error parse:scenario")),
        # e^(r T) over the horizon 8 is beyond a double
        ({"params": {"A": 1e300}}, (3, "RESULT error parse:overflow"), (3, "RESULT error parse:overflow")),
        # the value scale alpha^(-gamma) = 4^1000 is beyond a double
        ({"params": {"gamma": 1000.0}}, (2, "RESULT reject regime:overflow"), (1, "RESULT fail sweep:2-of-2-rows")),
        # ModelParams' own domain, from sweep as from run
        ({"params": {"gamma": 1.0}}, (2, "RESULT reject domain:gamma"), (2, "RESULT reject domain:gamma")),
    ],
    ids=["margin-null", "eps-bool", "k0-bool", "tolerance-bool", "A-1e300", "gamma-1000", "gamma-1"],
)
def test_hole_ends_in_its_result_line(tmp_path, blocks, run_result, sweep_result):
    for (code, last, _), (want_code, want_prefix) in zip(
        run_and_sweep(tmp_path, scenario(tmp_path, **blocks)), (run_result, sweep_result)
    ):
        assert code == want_code
        assert last.startswith(want_prefix)
    if run_result[0] == 3:
        assert not (tmp_path / "out").exists()


def _doc(**blocks):
    doc = json.loads(json.dumps(BASE))  # deep copy
    doc.update(blocks)
    return yaml.safe_dump(doc, sort_keys=False)


@pytest.mark.parametrize(
    "text",
    [
        _doc(numerics=5),
        _doc(params={**BASE["params"], 1: 2.0, "x": 3.0}),  # unknown keys of two types
        "params: [not, a, mapping\n",  # the parser's message spans lines
    ],
    ids=["numerics-not-a-mapping", "mixed-type-keys", "unparseable"],
)
def test_malformed_file_is_exit_3_on_one_line(tmp_path, text):
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    for code, last, _ in run_and_sweep(tmp_path, path):
        assert code == 3
        assert last.startswith("RESULT error parse:scenario")


def test_unwritable_output_is_exit_3(tmp_path):
    # the output directory is a file: from sweep as from run
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = scenario(tmp_path)
    for call, args in ((run, (path, blocker)), (sweep, (path, "k0", [10.0], blocker))):
        code, last, _ = outcome(call, *args)
        assert (code, last.split(":")[0]) == (3, "RESULT error io")


@pytest.mark.parametrize("key,default", [("horizon", 8.0), ("oracle_horizon", 10.0)])
def test_null_horizon_is_the_default(tmp_path, key, default):
    oracle = {"oracle": True, "oracle_m": 200, "trials": 2, "ascent_iters": 5}
    null = scenario(tmp_path, numerics={key: None, **oracle})
    doc = json.loads(json.dumps(BASE))
    doc["numerics"].update(oracle)
    doc["numerics"].pop(key, None)
    absent = tmp_path / "absent.yaml"
    absent.write_text(yaml.safe_dump(doc))
    scn = load_scenario(null)
    assert getattr(scn, key) == default * scn.params.tau
    assert scn == load_scenario(absent)
    # a five-step ascent fails its check; both runs fail it alike
    results = [outcome(run, path, tmp_path / out)[:2] for path, out in ((null, "null"), (absent, "absent"))]
    assert results[0] == results[1] == (1, "RESULT fail check:ascent")
    assert (tmp_path / "null" / "report.json").read_bytes() == (tmp_path / "absent" / "report.json").read_bytes()
    assert outcome(sweep, null, "k0", [1.0, 10.0], tmp_path / "sweep")[:2] == (0, "RESULT ok")


def test_tiny_habit_intensity_solves_in_log_space(tmp_path):
    # eps = 1e-300 puts lambda0 near -698, where exp(-(lambda + eta) tau)
    # overflows a double; the root solves, and the complex roots crowd
    # within the 0.1 margin of lambda0, so the dominance check fails
    path = scenario(tmp_path, params={"eps": 1e-300})
    (run_code, run_last, _), (sweep_code, sweep_last, _) = run_and_sweep(tmp_path, path)
    assert (run_code, run_last) == (1, "RESULT fail check:dominance")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert -700.0 < report["spectral"]["lambda0"] < -690.0
    assert abs(report["spectral"]["residual"]) < 1e-12
    assert (sweep_code, sweep_last) == (1, "RESULT fail sweep:2-of-2-rows")
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["fail:check:dominance"] * 2


def test_phi_beyond_the_exp_range_matches_decimal_arithmetic():
    from decimal import Decimal, localcontext

    from akhabit import ModelParams

    params = ModelParams(eps=1e-300, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
    for lam in (-711.0, -720.5, -750.0):
        with localcontext() as ctx:
            ctx.prec = 40
            x = Decimal(lam) + Decimal(params.eta)
            y = x * Decimal(params.tau)
            want = float(1 - Decimal(params.eps) * (1 - (-y).exp()) / x)
        assert abs(phi(lam, params) - want) <= 1e-13 * abs(want)
    assert phi(-1e6, params) == -math.inf
    lam0 = real_root(params)
    assert abs(phi(lam0, params)) < 1e-12


def test_exception_without_a_code_is_internal(tmp_path, monkeypatch):
    # any other exception is a defect: RESULT error internal:<Type>, exit 1,
    # its traceback on stderr; run_pipeline itself still raises it
    solve = simulate.simulate_lambda_form

    def fails_at_k0_1(params, init, *args, **kwargs):
        if init.k0 == 1.0:
            raise ZeroDivisionError("planted")
        return solve(params, init, *args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_lambda_form", fails_at_k0_1)
    path = scenario(tmp_path, initial={"k0": 1.0})
    with pytest.raises(ZeroDivisionError):
        run_pipeline(load_scenario(path), run_oracle=False)
    code, last, err = outcome(run, path, tmp_path / "out")
    assert (code, last) == (1, "RESULT error internal:ZeroDivisionError")
    assert "Traceback" in err and "ZeroDivisionError: planted" in err
    # a sweep goes on past the row that raised
    code, last, err = outcome(sweep, path, "k0", [1.0, 10.0], tmp_path / "sweep")
    assert (code, last) == (1, "RESULT fail sweep:1-of-2-rows")
    assert "ZeroDivisionError: planted" in err
    rows = [row.split(",") for row in (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
    assert rows[0][-2:] == ["internal:ZeroDivisionError", "error"]
    assert rows[1][-2:] == ["feasible", "ok"]


# -- the property -----------------------------------------------------------------

ODD = [None, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0, -1, True, False, "x", [1.0]]
# odd values that keep n <= 400, the oracle's loops short and the window
# within 20 memory lengths
ODD_WHOLE = [None, math.nan, math.inf, 0, 1, -1, 2.5, True, "x", [1]]
ODD_HORIZON = [None, math.nan, math.inf, -math.inf, 0, -1, 1e-300, True, "x"]
ODD_HISTORY = ODD + [
    {"kind": 1.0},
    {"samples": [1.0]},
    {"samples": [1.0, -1.0, 1.0]},
    {"samples": [1.0, None, "x"]},
    {"constant": None},
    {"constant": 1.0, "expr": "u"},
    {"expr": "1/u"},
    {"expr": "exp(1000*u)"},
    {"expr": "("},
    {"expr": "__import__('os')"},
]
ODD_FOR = {
    "tau": [v for v in ODD if v != 1e-300],
    "n": ODD_WHOLE,
    "oracle_m": ODD_WHOLE,
    "trials": ODD_WHOLE,
    "ascent_iters": ODD_WHOLE,
    "seed": ODD_WHOLE,
    "horizon": ODD_HORIZON,
    "oracle_horizon": ODD_HORIZON,
    "history": ODD_HISTORY,
}
KEYS = {
    "scenario": ["params", "initial", "numerics"],
    "params": ["eps", "eta", "tau", "A", "delta", "rho", "gamma"],
    "initial": ["k0", "history"],
    "numerics": ["n", "horizon", "margin", "oracle", "oracle_horizon", "seed", "tolerances"],
    "tolerances": ["g_drift", "budget", "ascent", "spectral_residual"],
}


@st.composite
def valid_scenarios(draw):
    tau, eta = draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 2.0))
    history = st.sampled_from(
        [
            {"constant": 1.0},
            {"constant": 0.1},
            {"samples": [0.5, 1.0, 1.5, 1.0, 0.5]},
            {"expr": "1 + 0.25*sin(4*u)"},
            {"expr": "2 - u/(1 + abs(u))"},
        ]
    )
    return {
        "params": {
            "eps": eta * draw(st.floats(0.05, 1.1)),  # eps <= eta mostly: the regime
            "eta": eta,
            "tau": tau,
            "A": draw(st.floats(0.05, 1.0)),
            "delta": draw(st.floats(0.01, 0.3)),
            "rho": draw(st.floats(0.01, 1.0)),
            "gamma": draw(st.floats(0.2, 5.0)),
        },
        "initial": {"k0": draw(st.floats(0.05, 50.0)), "history": draw(history)},
        "numerics": {
            "n": draw(st.integers(2, 400)),
            "horizon": draw(st.none() | st.floats(1.0, 20.0).map(lambda x: x * tau)),
            "margin": draw(st.floats(0.01, 1.0)),
            "seed": 42,
            "tolerances": draw(st.sampled_from([{}, {"g_drift": 1e-3, "budget": 0.0}, {"ascent": 1.0}])),
            # the oracle at m <= 400 with a short search, whether it is on or off
            "oracle": draw(st.sampled_from([False, False, True])),
            "oracle_m": draw(st.sampled_from([200, 400])),
            "trials": draw(st.integers(0, 5)),
            "ascent_iters": draw(st.integers(1, 10)),
        },
    }


@st.composite
def scenarios(draw):
    """A valid scenario with up to three entries made odd, dropped or added."""
    doc = draw(valid_scenarios())
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(sorted(KEYS)))
        numerics = doc.get("numerics")
        tolerances = numerics.get("tolerances") if isinstance(numerics, dict) else None
        target = {"scenario": doc, "tolerances": tolerances}.get(where, doc.get(where))
        if not isinstance(target, dict):
            continue
        key = draw(st.sampled_from(KEYS[where] + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(st.sampled_from(ODD_FOR.get(key, ODD)))
    return doc


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    doc=scenarios(),
    # not tau: a small tau would stretch the window past 20 memory lengths
    param=st.sampled_from(["k0", "eps", "eta", "gamma", "rho"]),
    values=st.lists(st.floats(0.01, 2.0) | st.sampled_from([math.nan, math.inf, 1e300, 1e-300, 0.0]), min_size=1, max_size=2),
)
def test_every_input_ends_in_a_result_line(tmp_path, doc, param, values):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    for code, last, _ in (
        outcome(run, path, tmp_path / "out"),
        outcome(sweep, path, param, values, tmp_path / "sweep"),
    ):
        assert code in (0, 1, 2, 3)
        assert last.startswith("RESULT ")


# -- nesting and usage ------------------------------------------------------------

DEEP_EXPRS = {
    "sum-1000": "+".join(["u"] * 1000),
    "minus-5000": "-" * 5000 + "u",
    "power-3000": "**".join(["u"] * 3001),
}


@pytest.mark.parametrize("expr", DEEP_EXPRS.values(), ids=DEEP_EXPRS)
def test_deeply_nested_history_expr_is_exit_3(tmp_path, expr):
    # the parser or the evaluator runs out of stack: a defect of the file, not of the package
    path = scenario(tmp_path, initial={"history": {"expr": expr}})
    for code, last, err in run_and_sweep(tmp_path, path):
        assert code == 3, err
        assert last.startswith("RESULT error parse:scenario: history expr is too deep or too large"), last


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["run"],
        ["sweep", "scn.yaml", "--param", "foo", "--values", "1"],
        ["run", "scn.yaml", "--seed", "x"],
        ["bogus"],
    ],
    ids=["no-command", "no-scenario", "sweep-param", "seed-type", "unknown-command"],
)
def test_usage_error_is_exit_3_with_a_result_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 3
    assert out.splitlines()[-1].startswith("RESULT error parse:args: ")
    assert err.startswith("usage: akhabit")


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["sweep", "-h"]])
def test_help_is_exit_0_without_a_result_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "RESULT" not in capsys.readouterr().out
