"""The 4-stage step's linear maps, pinned by behaviour.

``test_recurrences.py::test_rk4_maps_are_bitwise_the_vector_step`` pins
how the maps are built, bitwise against the step applied to unit
vectors; this module pins what they do.  ``simulate._rk4_maps(r, a, dt)``
returns (P, F0, Fm, F1) with
y(t + dt) = P y + F0 f(t) + Fm f(t + dt/2) + F1 f(t + dt) for one
classical 4-stage step of (k, h)' = (r k - h, a h) + f.  The maps are
applied to random states and forcings and compared with that step taken
on Python floats, for a = 0 (the integral form's capital step) and
a < 0 (the lambda form's habit rate eps - eta).  The gap is measured
against the sum of the four terms' magnitudes, |P| |y| + |F0| |f0| +
|Fm| |fm| + |F1| |f1|.  Over 20,000 draws with r in [1e-4, 10], |a| in
[1e-4, 100] and dt in [1e-5, 1] it read 4.6e-16 at a = 0 and 1.0e-15 at
a < 0; TOL is four times that.  A step whose midpoint stages weigh 1
instead of 2 is off by 1.4e-7 or more.
"""

import numpy as np
import pytest

from akhabit.simulate import _rk4_maps

DRAWS = 1000
TOL = 4e-15


def step(r, a, dt, y, f0, fm, f1, mid=2.0):
    """One 4-stage step of (k, h)' = (r k - h, a h) + f, on Python floats; ``mid`` weighs stages 2 and 3."""

    def rate(u, f):
        return [r * u[0] - u[1] + f[0], a * u[1] + f[1]]

    s1 = rate(y, f0)
    s2 = rate([u + 0.5 * dt * s for u, s in zip(y, s1)], fm)
    s3 = rate([u + 0.5 * dt * s for u, s in zip(y, s2)], fm)
    s4 = rate([u + dt * s for u, s in zip(y, s3)], f1)
    return np.array([u + dt * (d1 + mid * d2 + mid * d3 + d4) / 6.0 for u, d1, d2, d3, d4 in zip(y, s1, s2, s3, s4)])


def gaps(a_sign, mid=2.0):
    """Per draw, the maps' gap from ``step`` over the terms' magnitudes."""
    rng = np.random.default_rng(20261022 + a_sign)
    out = []
    for _ in range(DRAWS):
        r = 10 ** rng.uniform(-4, 1)
        a = a_sign * 10 ** rng.uniform(-4, 2)
        dt = 10 ** rng.uniform(-5, 0)
        parts = rng.uniform(-1, 1, (4, 2)).tolist()  # y, f0, fm, f1
        maps = _rk4_maps(r, a, dt)
        got = sum(M @ v for M, v in zip(maps, parts))
        scale = sum(np.abs(M) @ np.abs(v) for M, v in zip(maps, parts))
        out.append(np.max(np.abs(got - step(r, a, dt, *parts, mid=mid)) / scale))
    return np.array(out)


@pytest.mark.parametrize("a_sign", [0, -1], ids=["a=0", "a<0"])
def test_maps_take_one_4_stage_step(a_sign):
    assert gaps(a_sign).max() <= TOL


@pytest.mark.parametrize("a_sign", [0, -1], ids=["a=0", "a<0"])
def test_a_midpoint_weight_of_one_is_told_apart(a_sign):
    assert gaps(a_sign, mid=1.0).min() > 1e4 * TOL

