"""Degree-one homogeneity of the closed loop, pinned bitwise on both integrators.

AK technology, subtractive habits and CES utility make the problem
homogeneous of degree one in (k0, history): scale both by s and the
optimal path scales by s.  With s = 2^j every product and sum the
solvers form scales exactly, so the paths, Lambda and the minimal plan
c_m must come out as s times the originals in every bit.  A term that
does not scale, such as an additive slack leaking into c, breaks it.
"""

from pathlib import Path

import numpy as np
import pytest

from akhabit.cli import load_scenario
from akhabit.dde import minimal_consumption
from akhabit.model import HistoryGrid, InitialState
from akhabit.simulate import lambda_constant, simulate_integral_form, simulate_lambda_form

REPO = Path(__file__).resolve().parent.parent


def outputs(scn, init):
    """Every output the property covers, by name, for one initial state."""
    T = scn.horizon
    integral = simulate_integral_form(scn.params, init, T)
    lam = simulate_lambda_form(scn.params, init, T)
    out = {f"{form}.{col}": getattr(path, col) for form, path in (("integral", integral), ("lambda", lam))
           for col in ("k", "c", "h", "G")}
    out["lambda_constant"] = np.array([lambda_constant(scn.params, init)])
    out["c_m"] = minimal_consumption(scn.params, init.history, T).values
    return out


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("n", [200, 800])
def test_scaling_k0_and_the_history_by_a_power_of_two_scales_every_output_bitwise(name, n):
    scn = load_scenario(REPO / "scenarios" / f"{name}.yaml")
    base = scn.initial.resample(n)
    reference = outputs(scn, base)
    for j in (-3, 2):
        s = 2.0**j
        scaled = InitialState(s * base.k0, HistoryGrid(base.history.tau, s * base.history.values))
        got = outputs(scn, scaled)
        for key, ref in reference.items():
            assert np.array_equal(got[key], s * ref), (key, j)

