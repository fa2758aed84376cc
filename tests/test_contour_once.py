"""``count_zeros`` evaluates its contour once, usable or not.

An unusable sample (zero, or not finite) cannot be mended by more
samples: the 2n-point side grid holds the n-point grid bit for bit, so
each sample at n is taken again at 2n.  ``count_zeros`` therefore
raises at the first unusable contour, and a usable one is counted from
its single evaluation.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from akhabit import ModelParams, count_zeros, real_root, spectral
from akhabit.cli import load_scenario
from akhabit.errors import ContourError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def evaluations(monkeypatch):
    """The number of ``_contour_values`` calls since the test began."""
    calls = []
    contour_values = spectral._contour_values

    def counted(*args):
        calls.append(len(args[4]))  # the samples per side
        return contour_values(*args)

    monkeypatch.setattr(spectral, "_contour_values", counted)
    return calls


def test_overflowing_box_raises_after_one_evaluation(evaluations):
    # exp(-(re_lo + eta) tau) is past e^709 on the left side
    p = ModelParams(eps=0.05, eta=1.0, tau=50.0, A=0.3, delta=0.05, rho=0.5, gamma=2.0)
    lam0 = real_root(p)
    with np.errstate(all="ignore"), pytest.raises(ContourError) as err:
        count_zeros(p, lam0 - 15.0, lam0 + 15.0, 4 * math.pi / p.tau)
    assert evaluations == [4096]
    message = str(err.value)
    assert "zero or not finite" in message
    assert f"box [{lam0 - 15.0:.4g},{lam0 + 15.0:.4g}]" in message
    assert "4096 samples per side" in message


def test_zero_corner_raises_after_one_evaluation(params, evaluations, monkeypatch):
    monkeypatch.setattr(spectral, "_kernel_numerator", lambda lam, p: np.zeros_like(lam))
    with pytest.raises(ContourError) as err:
        count_zeros(params, -1.0, 1.0, 1.0, points=16)
    assert evaluations == [16]
    assert "zero or not finite" in str(err.value)
    assert "box [-1,1] x +-1i, 16 samples per side" in str(err.value)


def test_usable_box_is_counted_from_one_evaluation(evaluations):
    p = load_scenario(SCENARIOS / "baseline.yaml").params
    lam0 = real_root(p)
    assert count_zeros(p, lam0 - 0.1, lam0 + 0.1, 4 * math.pi / p.tau) == 1
    assert evaluations == [4096]
