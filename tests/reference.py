"""References that only the tests call, kept out of the package a run imports.

pytest does not collect this module (its name does not start with
``test_``); the test modules import from it, as they do from
``conftest`` and ``record_golden``.  Each reference below is stated one
node or one tuple at a time, so a test can compare the package's
vectorized path against it.
"""

import math

import numpy as np

from akhabit.model import InitialState
from akhabit.oracle import fd_gradient
from akhabit.quadrature import block_windows, window_kernel
from akhabit.simulate import _start

#: the oracle's one finite-difference reference, under the name that
#: ``test_oracle.py`` compares against
fd_gradient_naive = fd_gradient


def sliding_window_integrals(hist: np.ndarray, comp: np.ndarray, beta: float, dt: float):
    """Yield ``window_integral(hist, comp, j, beta, dt)`` for j = 1..len(comp)-1
    with comp[j] read as 0, while the caller fills comp in between.

    Each value is taken after comp[:j] is final and before comp[j] is
    written (the caller's unknown at node j enters through the endpoint
    weight dt/2, which it adds itself); nothing at or past node j is read.
    The solvers run the same ``block_windows`` and in-block running sum
    inline; this generator states the contract one node at a time.
    """
    n = len(hist) - 1
    steps = len(comp) - 1
    decay = math.exp(-beta * dt)
    kernel = window_kernel(beta, dt, n)
    for lo in range(0, steps, n):
        known = block_windows(hist, comp, lo, min(n, steps - lo), kernel).tolist()
        inner = 0.0
        for j, value in enumerate(known, lo + 1):
            yield value + inner
            inner = decay * (inner + dt * comp.item(j))


def _prepare(params, init, n):
    """(der, resampled init, history, Lambda, degenerate) of ``_start``."""
    der, hist, _, Lam, degenerate, *_ = _start(params, init, n, init.history.tau)
    return der, InitialState(init.k0, hist), hist, Lam, degenerate
