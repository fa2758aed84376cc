"""The series/direct switches of the kernel's closed forms, and the real root where phi rounds.

``phi`` and ``_em1_over`` switch from the power series of
E(y) = (1 - exp(-y))/y to the direct quotient at |y| = SERIES_SWITCH, and
``phi_prime`` switches at |y| = PRIME_SERIES_SWITCH.  Just inside and just
outside each switch, y = +-switch * (1 -+ 1e-9), both branches must agree
with the function itself, computed here in 50-digit decimal arithmetic.
The largest errors measured are 3.3e-13 (phi, relative to 1 + eps*tau,
the size of its two terms), 1.7e-12 (phi_prime, relative) and 4.7e-13
(``_em1_over``, relative): the direct branch's cancellation at the switch.
A series coefficient off by one part in 2^20 moves E by 9.5e-7.
"""

from decimal import Decimal, localcontext

import pytest

from akhabit import ModelParams, phi, phi_prime, real_root
from akhabit.spectral import PRIME_SERIES_SWITCH, ROOT_TOL, SERIES_SWITCH, _em1_over

TOL = 1e-11

KERNELS = [(0.5, 1.0, 1.0), (0.1, 0.05, 10.0), (2.0, 1.5, 0.3), (0.9, 0.3, 1.0)]

# inside the series branch, then outside it, on both sides of y = 0
FACTORS = [s * f for s in (1.0, -1.0) for f in (1.0 - 1e-9, 1.0 + 1e-9)]


def mk(eps, eta, tau):
    """Spectral routines only read (eps, eta, tau); the rest is filler."""
    return ModelParams(eps=eps, eta=eta, tau=tau, A=0.3, delta=0.05, rho=0.5, gamma=2.0)


def _em1_exact(y: Decimal) -> Decimal:
    return (1 - (-y).exp()) / y


def _at(y, p):
    """The float lam at which (lam + eta) * tau = y, with its exact x = lam + eta and x * tau."""
    lam = y / p.tau - p.eta
    x = Decimal(lam) + Decimal(p.eta)
    return lam, x, x * Decimal(p.tau)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("factor", FACTORS)
def test_phi_branches_agree_at_the_switch(kernel, factor):
    p = mk(*kernel)
    with localcontext() as ctx:
        ctx.prec = 50
        lam, _, y = _at(factor * SERIES_SWITCH, p)
        exact = 1 - Decimal(p.eps) * Decimal(p.tau) * _em1_exact(y)
        err = abs(Decimal(phi(lam, p)) - exact) / (1 + Decimal(p.eps) * Decimal(p.tau))
    assert err <= TOL


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("factor", FACTORS)
def test_phi_prime_branches_agree_at_the_switch(kernel, factor):
    p = mk(*kernel)
    with localcontext() as ctx:
        ctx.prec = 50
        lam, x, y = _at(factor * PRIME_SERIES_SWITCH, p)
        exact = Decimal(p.eps) * (1 - (-y).exp() * (1 + y)) / (x * x)
        err = abs(Decimal(phi_prime(lam, p)) - exact) / exact
    assert err <= TOL


@pytest.mark.parametrize("factor", FACTORS)
def test_em1_over_branches_agree_at_the_switch(factor):
    y = factor * SERIES_SWITCH
    with localcontext() as ctx:
        ctx.prec = 50
        exact = _em1_exact(Decimal(y))
        err = abs(Decimal(float(_em1_over(y))) - exact) / exact
    assert err <= TOL


@pytest.mark.parametrize("kernel", [(1.0, 1.0, 60.0), (0.5, 0.5, 100.0)])
def test_real_root_where_phi_at_the_right_end_rounds_to_zero(kernel):
    # phi(eps - eta) = exp(-eps*tau) underflows below ulp(1), so the bracket's
    # right end reads 0.0; the root must still come out strictly left of it
    p = mk(*kernel)
    right = p.eps - p.eta
    assert phi(right, p) == 0.0
    lam0 = real_root(p)
    assert lam0 < right
    assert abs(phi(lam0, p)) <= ROOT_TOL
