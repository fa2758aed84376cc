import numpy as np
import pytest

from akhabit.quadrature import window_integral, window_integrals


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
