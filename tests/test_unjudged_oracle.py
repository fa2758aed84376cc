"""Oracle checks that cannot be judged fail with value inf and say why; no report holds a nan.

The regression: at large curvature the closed-form value nu*G^(1-gamma)
underflows to -0.0, so the relative gaps to it were 0/0 = nan, and the
perturbation test, whose tolerance scales with |J| = 0, passed at
tolerance 0.
"""

import json

from akhabit import oracle
from akhabit.cli import run
from test_error_contract import outcome, scenario

ORACLE_CHECKS = ("value_match", "perturbation", "ascent")
SMALL_ORACLE = {"oracle": True, "oracle_m": 200, "trials": 3, "ascent_iters": 5}


def oracle_checks(report):
    return {c["name"]: c for c in report["checks"] if c["name"] in ORACLE_CHECKS}


def test_an_underflowed_value_fails_every_oracle_check_without_running_the_oracle(tmp_path, monkeypatch):
    def not_run(*args, **kwargs):
        raise AssertionError("the oracle ran on a value it cannot judge against")

    monkeypatch.setattr(oracle, "DiscreteProblem", not_run)
    path = scenario(tmp_path, params={"gamma": 50}, initial={"k0": 1.0e10}, numerics=SMALL_ORACLE)
    code, last, err = outcome(run, path, tmp_path / "out")
    assert (code, last) == (1, "RESULT fail check:value_match"), err
    text = (tmp_path / "out" / "report.json").read_text()
    assert '"nan"' not in text  # _json_ready writes a nan as the string "nan"
    report = json.loads(text)
    assert report["hjb"]["v"] == 0.0
    section = report["oracle"]
    assert section["value_error"] == "v = -0.0 is not a finite nonzero double"
    assert list(section) == ["T", "m", "seed", "v_predicted", "value_error"]  # sorted keys
    checks = oracle_checks(report)
    assert list(checks) == list(ORACLE_CHECKS)
    assert all(c["value"] == "inf" and not c["passed"] for c in checks.values())


def test_a_zero_closed_loop_score_gives_an_infinite_ascent_gap(tmp_path, monkeypatch):
    # the closed loop's own score, the first objective a run evaluates, is forced to 0
    real = oracle.evaluate_objective
    scored = []

    def zero_first(prob, controls):
        scored.append(1)
        return 0.0 if len(scored) == 1 else real(prob, controls)

    monkeypatch.setattr(oracle, "evaluate_objective", zero_first)
    code, last, err = outcome(run, scenario(tmp_path, numerics=SMALL_ORACLE), tmp_path / "out")
    assert (code, last) == (1, "RESULT fail check:value_match"), err
    text = (tmp_path / "out" / "report.json").read_text()
    assert '"nan"' not in text  # _json_ready writes a nan as the string "nan"
    section = json.loads(text)["oracle"]
    assert (section["J_closed_loop"], section["value_match"], section["ascent_gap"]) == (0.0, 1.0, "inf")
    assert oracle_checks(json.loads(text))["ascent"]["passed"] is False
