import math

import numpy as np
import pytest

from akhabit.quadrature import linear_scan, window_integral, window_integrals
from reference import sliding_window_integrals


class TestWindowIntegrals:
    @pytest.mark.parametrize("which", ["habit", "discounted"])
    @pytest.mark.parametrize("blocks", [1, 8])
    def test_matches_per_node_quadrature(self, params, which, blocks):
        # a history ending at 1.3 followed by a path starting at 0.7: the
        # concatenation jumps at t = 0, and 8 memory blocks reach nodes
        # j < n, j = n and j > n
        beta = params.eta if which == "habit" else -params.r
        n = 50
        dt = params.tau / n
        rng = np.random.default_rng(7)
        hist = 1.0 + 0.3 * rng.random(n + 1)
        hist[-1] = 1.3
        comp = 0.7 + np.cumsum(0.01 * rng.random(blocks * n + 1))
        comp[0] = 0.7
        got = window_integrals(hist, comp, beta, dt)
        want = np.array([window_integral(hist, comp, j, beta, dt) for j in range(len(comp))])
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestSlidingWindowIntegrals:
    @pytest.mark.parametrize(
        "beta,rate",
        [(1.0, -0.5), (40.0, -38.0), (-0.25, 0.1), (-0.25, -2.0), (-4.0, 0.0)],
        ids=["habit", "habit-fast-decay", "discounted-growth", "discounted-decay", "steep-discount"],
    )
    @pytest.mark.parametrize("n", [2, 7, 200])
    def test_matches_per_node_quadrature(self, params, beta, rate, n):
        # the path is filled node by node as a recurrence fills it: each
        # value is read before its node is written, so the newest node is
        # still 0.  The error is bounded against the window's sum of
        # absolute trapezoid terms, the scale of its rounding.  Each memory
        # block starts from a fresh correlation, and its running sum only
        # adds terms that carry their own window weight, so the bound needs
        # no growth factor: not for a path decaying almost as fast as the
        # habit weights (eta = 40, c ~ e^(-38 t), as c_m does), nor for a
        # steep discount (beta = -4)
        dt = params.tau / n
        rng = np.random.default_rng(n)
        hist = 1.0 + 0.3 * rng.random(n + 1)
        hist[-1] = 1.6  # the path jumps at t = 0
        steps = int(5.3 * n)  # several re-anchor blocks, the last one partial
        target = 0.7 * np.exp(rate * dt * np.arange(steps + 1)) * (1.0 + 0.1 * rng.random(steps + 1))
        comp = np.zeros(steps + 1)
        comp[0] = target[0]
        tol = 1e-13
        j = 0
        for j, got in enumerate(sliding_window_integrals(hist, comp, beta, dt), start=1):
            want = window_integral(hist, comp, j, beta, dt)
            scale = window_integral(np.abs(hist), np.abs(comp), j, beta, dt)
            assert abs(got - want) <= tol * scale, (j, got, want)
            comp[j] = target[j]
        assert j == steps


class TestBlockKernel:
    @pytest.mark.parametrize("beta", [1.0, -0.25], ids=["habit", "discounted"])
    @pytest.mark.parametrize("n", [2, 7, 200])
    def test_never_reads_the_yielded_node_or_later(self, params, beta, n):
        # comp[j:] holds nan before each next(), so any read at or past the
        # node being yielded would poison the value; the run passes the
        # block edges j = n, n + 1 and 2n and ends in a partial block
        dt = params.tau / n
        rng = np.random.default_rng(n)
        hist = 1.0 + 0.3 * rng.random(n + 1)
        hist[-1] = 1.6  # the path jumps at t = 0
        steps = 5 * n + max(1, n // 3)
        assert steps % n != 0
        target = 0.7 + 0.1 * rng.random(steps + 1)
        comp = np.full(steps + 1, np.nan)
        comp[0] = target[0]
        nodes = np.arange(steps + 1)
        windows = sliding_window_integrals(hist, comp, beta, dt)
        for j in range(1, steps + 1):
            comp[j:] = np.nan
            got = next(windows)
            want = window_integral(hist, np.where(nodes < j, comp, 0.0), j, beta, dt)
            assert math.isfinite(got), j
            assert abs(got - want) <= 1e-13 * abs(want), (j, got, want)
            comp[j] = target[j]
        with pytest.raises(StopIteration):
            next(windows)


class TestLinearScan:
    @pytest.mark.parametrize("log_p", [0.0, 1e-3, -1e-3, -0.3, 3.0, -5.0, -30.0, -800.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 200])
    def test_matches_the_sequential_recurrence(self, log_p, m):
        # |log p| * m runs from 0 to 1.6e5, so the blocks range from one
        # uncut scan to sub-blocks of a single step (and an empty block);
        # the error is bounded against the sum of the absolute terms of y_i
        rng = np.random.default_rng(m)
        b = rng.normal(size=m)
        y0 = 0.7
        p = math.exp(log_p)
        want, scale = [], []
        y, s = y0, abs(y0)
        for bi in b:
            y, s = p * y + bi, p * s + abs(bi)
            want.append(y)
            scale.append(s)
        got = linear_scan(log_p, b, y0)
        assert got.shape == (m,)
        assert np.all(np.abs(got - want) <= 1e-13 * np.array(scale)), (got, want)
