import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from akhabit import (
    HistoryGrid,
    ModelParams,
    RootRegime,
    count_zeros,
    dominance_certificate,
    leading_coefficient,
    minimal_consumption,
    phi,
    phi_prime,
    real_root,
    regime,
    spectral_report,
)
from akhabit import spectral
from akhabit.errors import ContourError
from conftest import random_valid_params


def mk(eps, eta, tau):
    """Spectral routines only read (eps, eta, tau); the rest is filler."""
    return ModelParams(eps=eps, eta=eta, tau=tau, A=0.3, delta=0.05, rho=0.5, gamma=2.0)


class TestPhi:
    def test_value_at_eps_minus_eta(self):
        # phi(eps - eta) = exp(-eps*tau)
        p = mk(0.5, 1.0, 1.0)
        assert phi(-0.5, p) == pytest.approx(math.exp(-0.5), rel=1e-14)
        p2 = mk(1.7, 0.4, 2.3)
        assert phi(p2.eps - p2.eta, p2) == pytest.approx(math.exp(-1.7 * 2.3), rel=1e-13)

    def test_removable_singularity(self):
        # at lam = -eta the value is 1 - eps*tau
        p = mk(1.0, 1.0, 1.0)
        assert phi(-1.0, p) == pytest.approx(0.0, abs=1e-14)
        p2 = mk(0.4, 0.9, 1.5)
        assert phi(-0.9, p2) == pytest.approx(1.0 - 0.4 * 1.5, rel=1e-13)

    def test_zero_root_fixture(self, zero_root_params):
        assert phi(0.0, zero_root_params) == pytest.approx(0.0, abs=1e-14)

    def test_series_and_direct_branches_agree(self):
        # evaluate just outside each switch (direct branch) against the
        # 6-term series evaluated by hand
        p = mk(0.7, 1.0, 1.0)
        y = 2e-4  # |lam + eta| * tau, twice the switch threshold
        lam = -p.eta + y / p.tau
        s = 1 - y / 2 + y**2 / 6 - y**3 / 24 + y**4 / 120 - y**5 / 720
        assert phi(lam, p) == pytest.approx(1.0 - p.eps * p.tau * s, abs=1e-10)
        y = 2e-2  # the derivative's switch sits wider (second-order cancellation)
        lam = -p.eta + y / p.tau
        sp = 0.5 - y / 3 + y**2 / 8 - y**3 / 30 + y**4 / 144 - y**5 / 840
        assert phi_prime(lam, p) == pytest.approx(p.eps * p.tau**2 * sp, abs=1e-10)

    @given(
        lam1=st.floats(-8.0, 4.0),
        lam2=st.floats(-8.0, 4.0),
        eps=st.floats(0.05, 3.0),
        eta=st.floats(0.05, 3.0),
        tau=st.floats(0.1, 4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_strictly_increasing(self, lam1, lam2, eps, eta, tau):
        p = mk(eps, eta, tau)
        lo, hi = sorted((lam1, lam2))
        if hi - lo > 1e-9:
            assert phi(lo, p) < phi(hi, p)

    @given(
        lam=st.floats(-6.0, 4.0),
        eps=st.floats(0.05, 3.0),
        eta=st.floats(0.05, 3.0),
        tau=st.floats(0.1, 4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_phi_prime_positive(self, lam, eps, eta, tau):
        assert phi_prime(lam, mk(eps, eta, tau)) > 0.0


class TestPhiPrime:
    def test_limit_at_minus_eta(self):
        p = mk(0.8, 1.2, 1.5)
        assert phi_prime(-1.2, p) == pytest.approx(0.8 * 1.5**2 / 2.0, rel=1e-12)

    def test_central_difference(self):
        # |phi'(lam) - (phi(lam+h) - phi(lam-h)) / 2h| = O(h^2)
        p = mk(0.5, 1.0, 1.0)
        for lam in (-2.5, -0.7, 0.3, 1.1):
            errs = []
            for h in (1e-4, 1e-5):
                fd = (phi(lam + h, p) - phi(lam - h, p)) / (2 * h)
                errs.append(abs(fd - phi_prime(lam, p)))
            assert errs[0] < 1e-7
            assert errs[1] < max(1e-2 * errs[0], 1e-11)


class TestRealRoot:
    def test_zero_root_fixture(self, zero_root_params):
        assert abs(real_root(zero_root_params)) < 1e-12

    def test_baseline_against_brentq(self, params):
        lam0 = real_root(params)
        assert abs(phi(lam0, params)) < 1e-12
        assert lam0 < params.eps - params.eta
        oracle = brentq(lambda x: phi(x, params), -10.0, params.eps - params.eta, xtol=1e-15)
        assert lam0 == pytest.approx(oracle, abs=1e-11)

    def test_long_memory_limit(self):
        # tau large: the root climbs toward eps - eta from below
        p = mk(0.5, 1.0, 50.0)
        lam0 = real_root(p)
        assert lam0 < -0.5
        assert -0.5 - lam0 < 1e-3

    def test_random_sweep_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_valid_params(rng)
            lam0 = real_root(p)
            assert abs(phi(lam0, p)) < 1e-12
            assert lam0 < p.eps - p.eta


class TestRegime:
    def test_zero_root(self, zero_root_params):
        assert regime(zero_root_params) is RootRegime.ZeroRoot

    def test_negative_roots_baseline(self, params):
        # phi(0) = 1 - 0.5*(1 - e^{-1}) ~ 0.684 > 0
        assert phi(0.0, params) == pytest.approx(0.6839397, rel=1e-6)
        assert regime(params) is RootRegime.NegativeRoots

    def test_positive_root_fixture(self, unstable_params):
        # 1 - 9*(1 - e^{-1}) < 0, outside the model regime on purpose
        assert phi(0.0, unstable_params) < 0.0
        assert regime(unstable_params) is RootRegime.PositiveRoot
        assert real_root(unstable_params) > 0.0

    def test_tag_matches_root_sign_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            eps = rng.uniform(0.05, 3.0)
            eta = rng.uniform(0.05, 3.0)
            tau = rng.uniform(0.1, 4.0)
            p = mk(eps, eta, tau)
            tag = regime(p)
            lam0 = real_root(p)
            if tag is RootRegime.PositiveRoot:
                assert lam0 > -1e-9
            elif tag is RootRegime.NegativeRoots:
                assert lam0 < 1e-9
            else:
                assert abs(lam0) < 1e-9


class TestLeadingCoefficient:
    def test_zero_history(self, params):
        assert leading_coefficient(params, HistoryGrid.zero(1.0, 100)) == 0.0

    def test_positive_history_gives_positive_p0(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_valid_params(rng)
            hist = HistoryGrid(p.tau, rng.uniform(0.1, 2.0, size=101))
            assert leading_coefficient(p, hist) > 0.0

    def test_constant_history_against_quadrature(self, params):
        # residue formula with the history integrals done by adaptive quadrature
        hist = HistoryGrid.constant(1.0, tau=1.0, n=2000)
        lam0 = real_root(params)
        x = lam0 + params.eta
        fhat = params.eps * quad(
            lambda u: math.exp(params.eta * u) * (1.0 - math.exp(-x * (u + 1.0))) / x,
            -1.0,
            0.0,
        )[0]
        expected = fhat / phi_prime(lam0, params)
        assert leading_coefficient(params, hist) == pytest.approx(expected, rel=1e-6)

    def test_zero_root_constant_level(self, zero_root_params):
        # the renewal equation has the exact solution c = 1 there, so the
        # dominant-mode coefficient must be 1
        hist = HistoryGrid.constant(1.0, tau=zero_root_params.tau, n=800)
        assert leading_coefficient(zero_root_params, hist) == pytest.approx(1.0, abs=5e-6)

    def test_matches_observed_level(self, params):
        hist = HistoryGrid.constant(1.0, tau=1.0, n=400)
        lam0 = real_root(params)
        p0 = leading_coefficient(params, hist)
        cm = minimal_consumption(params, hist, T=8.0)
        level = cm.values[-1] * math.exp(-lam0 * cm.t[-1])
        assert p0 == pytest.approx(level, rel=1e-4)


class TestDominance:
    def test_straddling_rectangle(self, params):
        cert = dominance_certificate(params, margin=0.1)
        assert cert.verified
        assert cert.winding == 1 == cert.expected

    def test_rectangle_right_of_root(self, params):
        lam0 = real_root(params)
        assert count_zeros(params, lam0 + 0.05, lam0 + 0.5, 4 * math.pi / params.tau) == 0

    def test_thin_straddling_rectangle(self, params):
        lam0 = real_root(params)
        assert count_zeros(params, lam0 - 1e-4, lam0 + 1e-4, 1e-3) == 1

    def test_kernel_factor_zero_counted(self, params):
        # a(lam) = (lam+eta) phi(lam) has a non-characteristic zero at -eta;
        # a box around lambda0 wide enough to swallow it must expect 2
        p = mk(0.5, 1.0, 2.0)  # eps*tau = 1: lambda0 = -eta exactly
        cert = dominance_certificate(p, margin=0.1)
        assert cert.expected == 2
        assert cert.verified

    def test_complex_roots_found_independently(self, params):
        # locate the first conjugate-pair roots by 2D Newton on the kernel
        # numerator and confirm both the dominance claim and the counter
        from scipy.optimize import fsolve

        lam0 = real_root(params)

        def a_complex(lam):
            z = lam + params.eta
            return z - params.eps * (1.0 - np.exp(-z * params.tau))

        def system(v):
            val = a_complex(v[0] + 1j * v[1])
            return [val.real, val.imag]

        roots = []
        for k_pair in (1, 2, 3):
            guess = [
                lam0 - math.log(2 * math.pi * k_pair / (params.eps * params.tau)),
                (2 * k_pair + 0.5) * math.pi / params.tau,
            ]
            sol, _info, ok, _msg = fsolve(system, guess, full_output=True)
            root = complex(sol[0], sol[1])
            assert ok == 1 and abs(a_complex(root)) < 1e-9
            assert root.real < lam0  # every complex root sits left of lambda0
            roots.append(root)

        # a box holding lambda0 and all located pairs counts them all
        re_lo = min(r.real for r in roots) - 0.5
        im_hi = max(r.imag for r in roots) + 1.0
        w = count_zeros(params, re_lo, lam0 + 0.1, im_hi, points=8192)
        assert w == 2 * len(roots) + 1

    def test_report_fields(self, params, history):
        rep = spectral_report(params, history, margin=0.1)
        assert rep.regime is RootRegime.NegativeRoots
        assert abs(rep.residual) < 1e-12
        assert rep.dominance_margin == 0.1
        assert rep.p0 > 0.0

    def test_zero_on_every_contour_is_contour_error(self, params, monkeypatch):
        monkeypatch.setattr(spectral, "_kernel_numerator", lambda lam, p: np.zeros_like(lam))
        with pytest.raises(ContourError):
            count_zeros(params, -1.0, 1.0, 1.0, points=16)

    def test_margin_must_be_positive(self, params):
        with pytest.raises(ValueError):
            dominance_certificate(params, margin=0.0)


def _count_zeros_complex(params, re_lo, re_hi, im_half, points=4096):
    """count_zeros before the factored contour: one complex exponential per
    sample and the angles of the ratios of consecutive values."""
    winding = math.nan
    for attempt in range(4):
        n = points * 2**attempt
        side = np.linspace(0.0, 1.0, n, endpoint=False)
        bottom = re_lo + (re_hi - re_lo) * side - 1j * im_half
        right = re_hi + 1j * (-im_half + 2 * im_half * side)
        top = re_hi - (re_hi - re_lo) * side + 1j * im_half
        left = re_lo + 1j * (im_half - 2 * im_half * side)
        contour = np.concatenate([bottom, right, top, left])
        z = contour + params.eta
        values = z - params.eps * (1.0 - np.exp(-z * params.tau))
        if np.any(values == 0.0):
            continue
        ratios = np.roll(values, -1) / values
        winding = float(np.angle(ratios).sum() / (2.0 * math.pi))
        if abs(winding - round(winding)) < 1e-3:
            return int(round(winding))
    raise ContourError(f"winding number {winding:.6f} not integral after refinement")


def _outcome(count, *args, **kwargs):
    try:
        return count(*args, **kwargs)
    except ContourError:
        return "ContourError"


class TestFactoredContour:
    """The side-by-side real evaluation of the contour against the complex one."""

    def test_matches_complex_count_on_random_boxes(self):
        rng = np.random.default_rng(2024)
        counts = set()
        with np.errstate(all="ignore"):
            for _ in range(2000):
                eta = 10 ** rng.uniform(-2, 2)
                p = mk(eta * 10 ** rng.uniform(-2, 0), eta, 10 ** rng.uniform(-2, 1.5))
                lam0 = real_root(p)
                margin = 10 ** rng.uniform(-3, 1)
                Q = 4 * math.pi / p.tau if rng.uniform() < 0.5 else 10 ** rng.uniform(-3, 2)
                box = (lam0 - margin, lam0 + margin, Q)
                want = _outcome(_count_zeros_complex, p, *box)
                assert _outcome(count_zeros, p, *box) == want, (p, box)
                counts.add(want)
        # boxes holding complex roots, not just lambda0, were drawn
        assert {1, 2, 3} <= counts

    def test_minus_eta_in_box(self):
        # eps*tau = 1 puts lambda0 at -eta; eps*tau near 1 keeps it close by
        for eps, tau in ((0.5, 2.0), (0.5, 1.9), (0.7, 1.5)):
            p = mk(eps, 1.0, tau)
            lam0 = real_root(p)
            for margin in (0.05, 0.1, 0.5):
                box = (lam0 - margin, lam0 + margin, 4 * math.pi / tau)
                expected = 2 if box[0] < -p.eta < box[1] else 1
                assert count_zeros(p, *box) == _count_zeros_complex(p, *box) == expected

    def test_thin_boxes(self, params):
        lam0 = real_root(params)
        for half_width, Q in ((1e-6, 1e-6), (1e-4, 1e-3), (1e-3, 50.0), (5.0, 1e-5)):
            box = (lam0 - half_width, lam0 + half_width, Q)
            expected = 2 if box[0] < -params.eta < box[1] else 1
            assert count_zeros(params, *box) == _count_zeros_complex(params, *box) == expected

    def test_complex_root_box_at_8192_points(self, params):
        lam0 = real_root(params)
        box = (lam0 - 6.0, lam0 + 0.1, 25.0)
        want = _count_zeros_complex(params, *box, points=8192)
        assert want > 1
        assert count_zeros(params, *box, points=8192) == want

    def test_rescaled_samples_match(self):
        # exp(-(re_lo + eta) tau) near e^500: the phase products would
        # overflow unless each sample is rescaled first
        p = mk(0.05, 1.0, 50.0)
        lam0 = real_root(p)
        for margin in (9.0, 10.0, 12.0):
            box = (lam0 - margin, lam0 + margin, 4 * math.pi / p.tau)
            assert -(box[0] + p.eta) * p.tau > 400.0
            assert count_zeros(p, *box) == _count_zeros_complex(p, *box) == 4
        # beyond e^709 the samples overflow: refused, not a traceback
        with np.errstate(all="ignore"), pytest.raises(ContourError):
            count_zeros(p, lam0 - 15.0, lam0 + 15.0, 4 * math.pi / p.tau)

    def test_sides_match_kernel_numerator(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta = 10 ** rng.uniform(-2, 2)
            p = mk(eta * 10 ** rng.uniform(-2, 0), eta, 10 ** rng.uniform(-2, 1.5))
            lam0 = real_root(p)
            margin = 10 ** rng.uniform(-3, 1)
            re_lo, re_hi, Q = lam0 - margin, lam0 + margin, 10 ** rng.uniform(-2, 2)
            n = 256
            side = np.linspace(0.0, 1.0, n, endpoint=False)
            buf = np.empty((5, 4 * n + 1))
            spectral._contour_values(p, re_lo, re_hi, Q, side, buf)
            contour = np.concatenate([
                re_lo + (re_hi - re_lo) * side - 1j * Q,
                re_hi + 1j * (-Q + 2 * Q * side),
                re_hi - (re_hi - re_lo) * side + 1j * Q,
                re_lo + 1j * (Q - 2 * Q * side),
            ])
            want = spectral._kernel_numerator(contour, p)
            z = contour + p.eta
            scale = np.abs(z.real) + np.abs(z.imag) + p.eps * (1.0 + np.exp(-z.real * p.tau))
            tol = 8 * np.finfo(float).eps * scale
            assert np.all(np.abs(buf[0, :-1] - want.real) <= tol)
            assert np.all(np.abs(buf[1, :-1] - want.imag) <= tol)
            # the last sample closes the contour
            assert (buf[0, -1], buf[1, -1]) == (buf[0, 0], buf[1, 0])

    def test_zero_at_every_sample_is_contour_error(self, params, monkeypatch):
        def zeros(params, re_lo, re_hi, im_half, side, out):
            out[:2] = 0.0

        monkeypatch.setattr(spectral, "_contour_values", zeros)
        with pytest.raises(ContourError):
            count_zeros(params, -1.0, 1.0, 1.0, points=16)

    def test_spectral_report_bisects_once(self, params, history, monkeypatch):
        calls = []
        original = spectral.real_root

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "real_root", counting)
        rep = spectral_report(params, history, margin=0.1)
        assert len(calls) == 1
        assert rep.lambda0 == original(params)
        assert rep.p0 == leading_coefficient(params, history)
        assert rep.certificate == dominance_certificate(params, margin=0.1)
