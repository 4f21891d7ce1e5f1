"""Late-time asymptotic expansions and the Lambda(t) coefficient map.

Repeated integration by parts of the amplitude integrals at the lower
limit eta = -beta produces, with D = beta**2 + 1/4 and x = i/tau,

    I(tau) ~ x exp(i beta tau)/D * sum_k ci_k x**k,
    J(tau) ~ x exp(i beta tau)/D * sum_k cj_k x**k,
    J/I    ~ sum_k cr_k x**k,

with five coefficients retained per series.  The brace coefficients
ci_k, cj_k come out of the boundary derivatives of 1/(eta**2 + 1/4) and
eta/(eta**2 + 1/4); the ratio coefficients follow by long division.

A note on the ratio's third and fourth coefficients: the widely quoted
closed forms (1+24b-28b**2-96b**3+64b**4)/(4 D**3) and
(6-21b+48b**2-64b**3-288b**4+464b**5)/(4 D**4) are incorrect except at
beta = 1; regenerating the division gives (1-8b**2)/D**2 and
b(44b**2-15)/D**3.  This module evaluates the regenerated values;
the quoted forms remain available as ratio_coefficients_legacy so the
discrepancy stays visible and tested rather than silently patched.

These are asymptotic, not convergent, series: past the optimal
truncation index the terms grow again.  Evaluations where the last
retained term exceeds the previous one emit AsymptoticRangeWarning
instead of failing, since that regime is sometimes probed on purpose.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError
from .model import BreitWignerModel, check_beta, check_real, check_tau

_TWO_PI = 2.0 * math.pi


class AsymptoticRangeWarning(UserWarning):
    """Last retained term grew: outside the series' reliable region."""


@dataclass(frozen=True)
class LambdaCoefficients:
    """Coefficients of Lambda(t) = lambda_bare + big_d2/t**2 + big_d4/t**4.

    Invariant: big_dk = (8 pi G / c**2) * dk, the same conversion that
    maps the bare energy density onto lambda_bare.
    """

    lambda_bare: float
    d2: float
    d4: float
    big_d2: float
    big_d4: float


def _check_order(order: int, top: int, name: str = "order") -> None:
    if not (isinstance(order, int) and 1 <= order <= top):
        raise DomainError("{} must be an integer in 1..{}, got {!r}".format(
            name, top, order))


def i_brace_coefficients(beta: float) -> tuple:
    """Five brace coefficients of the I expansion, in powers of i/tau."""
    d = beta * beta + 0.25
    b2 = beta * beta / d
    return (
        -1.0,
        2.0 * beta / d,
        (2.0 / d) * (1.0 - 4.0 * b2),
        (24.0 * beta / (d * d)) * (2.0 * b2 - 1.0),
        (24.0 / (d * d)) * (-16.0 * b2 * b2 + 12.0 * b2 - 1.0),
    )


def j_brace_coefficients(beta: float) -> tuple:
    """Five brace coefficients of the J expansion, in powers of i/tau."""
    d = beta * beta + 0.25
    b2 = beta * beta / d
    return (
        beta,
        1.0 - 2.0 * b2,
        (2.0 * beta / d) * (4.0 * b2 - 3.0),
        (6.0 / d) * (-8.0 * b2 * b2 + 8.0 * b2 - 1.0),
        (24.0 * beta / (d * d)) * (16.0 * b2 * b2 - 20.0 * b2 + 5.0),
    )


def ratio_coefficients(beta: float) -> tuple:
    """Five coefficients of J/I in powers of i/tau (regenerated values)."""
    d = beta * beta + 0.25
    return (
        -beta,
        -1.0,
        2.0 * beta / d,
        (1.0 - 8.0 * beta * beta) / (d * d),
        beta * (44.0 * beta * beta - 15.0) / (d * d * d),
    )


def ratio_coefficients_legacy(beta: float) -> tuple:
    """The widely quoted closed forms for the J/I coefficients.

    Coefficients 0..2 agree with :func:`ratio_coefficients`; 3 and 4
    differ everywhere except beta = 1 and are kept only so the
    discrepancy can be demonstrated.  Do not evaluate series with
    these.
    """
    d = beta * beta + 0.25
    poly3 = 1.0 + 24.0 * beta - 28.0 * beta ** 2 - 96.0 * beta ** 3 + 64.0 * beta ** 4
    poly4 = (6.0 - 21.0 * beta + 48.0 * beta ** 2 - 64.0 * beta ** 3
             - 288.0 * beta ** 4 + 464.0 * beta ** 5)
    return (
        -beta,
        -1.0,
        2.0 * beta / d,
        poly3 / (4.0 * d ** 3),
        poly4 / (4.0 * d ** 4),
    )


def _series(coefficients, beta: float, tau: float, order: int, top: int,
            label: str) -> complex:
    # The one series core: validate the arguments, then Horner-evaluate
    # the first `order` of coefficients(beta) at x = i/tau.  Warns, at
    # the public function's caller (stacklevel 3), when the last retained
    # term exceeds the one before it.
    check_beta(beta)
    check_tau(tau)
    _check_order(order, top)
    coeffs = coefficients(beta)[:order]
    x = 1j / tau
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    if order >= 2:
        scale = abs(x)
        last = abs(coeffs[-1]) * scale ** (order - 1)
        prev = abs(coeffs[-2]) * scale ** (order - 2)
        if last > prev:
            warnings.warn(
                "{} series at tau = {:g}: last retained term ({:.3e}) exceeds "
                "the previous one ({:.3e}); outside the reliable region".format(
                    label, tau, last, prev
                ),
                AsymptoticRangeWarning,
                stacklevel=3,
            )
    return acc


def i_series(beta: float, tau: float, order: int) -> complex:
    """Late-time I(tau) truncated to ``order`` terms (1..5)."""
    brace = _series(i_brace_coefficients, beta, tau, order, 5, "I_SERIES")
    return 1j / tau * cmath.exp(1j * beta * tau) / (beta * beta + 0.25) * brace


def j_series(beta: float, tau: float, order: int) -> complex:
    """Late-time J(tau) truncated to ``order`` terms (1..5)."""
    brace = _series(j_brace_coefficients, beta, tau, order, 5, "J_SERIES")
    return 1j / tau * cmath.exp(1j * beta * tau) / (beta * beta + 0.25) * brace


def ratio_series(beta: float, tau: float, order: int) -> complex:
    """Late-time J/I truncated to ``order`` terms (1..5).

    Order 1 is the constant -beta; each further term adds one power of
    i/tau with the regenerated coefficients.
    """
    return _series(ratio_coefficients, beta, tau, order, 5, "RATIO")


def amplitude_late(model: BreitWignerModel, tau: float, order: int) -> complex:
    """Late-time survival amplitude truncated to ``order`` terms (1..4).

    Same phase convention as the exact amplitude; the exp(i beta tau)
    factor of the I expansion cancels against the amplitude's
    exp(-i beta tau) exactly, leaving (N/(2 pi D)) * (i/tau) times the
    truncated brace.  |a_lt|**2 falls off as 1/tau**2 at leading order.
    """
    beta = model.beta
    brace = _series(i_brace_coefficients, beta, tau, order, 4, "AMPLITUDE")
    d = beta * beta + 0.25
    return model.normalization() / (_TWO_PI * d) * (1j / tau) * brace


def energy_late(model: BreitWignerModel, tau: float) -> float:
    """Late-time instantaneous energy, physical units.

    Only even powers of i/tau in the ratio series are real, and the
    constant -beta cancels the beta of E = Emin + gamma0 (beta +
    Re[J/I]) exactly, so the late-time energy relaxes to Emin like
    1/tau**2 from below.
    """
    beta = model.beta
    check_beta(beta)
    check_tau(tau)
    c = ratio_coefficients(beta)
    correction = -c[2] / tau ** 2 + c[4] / tau ** 4
    return model.emin + model.gamma0 * correction


def decay_rate_late(model: BreitWignerModel, tau: float) -> float:
    """Late-time instantaneous decay rate, physical units.

    Odd powers of i/tau in the ratio series are imaginary; with
    gamma = -2 gamma0 Im[J/I] they give 2 gamma0/tau at leading order,
    independent of beta, plus a 1/tau**3 correction.
    """
    beta = model.beta
    check_beta(beta)
    check_tau(tau)
    c = ratio_coefficients(beta)
    return model.gamma0 * (-2.0 * c[1] / tau + 2.0 * c[3] / tau ** 3)


def _lambda_factor(rho_bare: float, d2: float, d4: float,
                   g_newton: float, light_speed: float) -> float:
    # the one check of the Lambda(t) inputs; returns 8 pi G / c**2,
    # divided by c twice so that no finite c overflows c**2 on the way
    for name, value in (("rho_bare", rho_bare), ("d2", d2), ("d4", d4)):
        check_real(name, value)
    check_real("G", g_newton, positive=True)
    check_real("c", light_speed, positive=True)
    factor = 8.0 * math.pi * g_newton / light_speed / light_speed
    if not math.isfinite(factor):
        raise DomainError(
            "8 pi G / c**2 overflows for G = {!r}, c = {!r}".format(
                g_newton, light_speed))
    return factor


def lambda_of_t(rho_bare: float, d2: float, d4: float, t: float,
                g_newton: float = 1.0, light_speed: float = 1.0) -> float:
    """Running cosmological-constant value Lambda(t).

    Maps a decaying energy density rho(t) = rho_bare + d2/t**2 + d4/t**4
    onto Lambda(t) = (8 pi G / c**2) rho(t).  The coefficients d2, d4
    are free inputs here; nothing in this package pins them to the
    energy expansion beyond proportionality.  Every input must be
    finite, t, G and c positive, and 8 pi G / c**2 finite.
    """
    check_real("t", t, positive=True)
    factor = _lambda_factor(rho_bare, d2, d4, g_newton, light_speed)
    return factor * (rho_bare + d2 / t ** 2 + d4 / t ** 4)


def lambda_coefficients(rho_bare: float, d2: float, d4: float,
                        g_newton: float = 1.0,
                        light_speed: float = 1.0) -> LambdaCoefficients:
    """Bundle the Lambda(t) coefficient map without evaluating it."""
    factor = _lambda_factor(rho_bare, d2, d4, g_newton, light_speed)
    return LambdaCoefficients(
        lambda_bare=factor * rho_bare,
        d2=d2,
        d4=d4,
        big_d2=factor * d2,
        big_d4=factor * d4,
    )
