"""Closed-form survival amplitude and effective Hamiltonian.

For a truncated Breit-Wigner state the survival amplitude reduces to two
complex integrals over the dimensionless energy eta = (E - Emin)/gamma0,

    I(tau) = integral of exp(-i eta tau) / (eta**2 + 1/4)   over (-beta, inf),
    J(tau) = integral of eta exp(-i eta tau) / (eta**2 + 1/4) over (-beta, inf),

both expressible through the exponential integral E1 at the conjugate
pole positions

    z+ = tau/2 - i beta tau,      z- = -tau/2 - i beta tau.

Everything here is organized around the scaled G(z) = exp(z) E1(z) so
that the exponentially small and the power-law contributions are formed
separately and summed last:

    I(tau) = 2 pi exp(-tau/2) + i exp(i beta tau) (G(z-) - G(z+)),
    J(tau) = -i pi exp(-tau/2) + (1/2) exp(i beta tau) (G(z+) + G(z-)).

The first term underflows harmlessly to zero near tau ~ 1400 while the
second keeps full relative accuracy, so the late-time power law is
computed far beyond the exponential underflow point.

Phase convention: the amplitude returned here is (N/2pi) exp(-i beta
tau) I(tau); the remaining global phase exp(-i Emin t / hbar) is
dropped.  Only |a|**2, E(t), gamma(t) and kappa(t) are physical
observables, so the phase origin is documented rather than load-bearing.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import NearZeroAmplitude
from .model import BreitWignerModel, check_beta, check_tau
from .special import exp_integral_e1_scaled

_TWO_PI = 2.0 * math.pi

# Below this the ratio J/I is numerically meaningless: the amplitude
# modulus is ~ 1e-280 / 2 pi, deep under any physical interpretation.
_NEAR_ZERO = 1e-280

# Probability conservation slack: |a|**2 may poke above 1 by roundoff
# or by the oracle's tolerance, never by more.
P_SLACK = 1e-9


def checked_probability(p: float, tau: float) -> float:
    """Return ``p`` unchanged if it lies in [0, 1 + P_SLACK].

    Raises
    ------
    ArithmeticError
        For a NaN or a value outside that range, which no roundoff can
        explain.
    """
    if not 0.0 <= p <= 1.0 + P_SLACK:
        raise ArithmeticError(
            "survival probability {!r} out of [0, 1 + 1e-9] at tau = {!r}; "
            "this indicates an internal defect".format(p, tau)
        )
    return p


def energy_and_rate(beta: float, r: complex) -> tuple[float, float]:
    """(E - Emin)/gamma0 and gamma/gamma0 from the ratio r = J/I.

    E = E0 + gamma0 Re r and gamma = -2 gamma0 Im r; every path to the
    two observables goes through this map.
    """
    return beta + r.real, -2.0 * r.imag


@dataclass(frozen=True)
class AmplitudeValue:
    """Survival amplitude at one dimensionless time.

    Invariant: ``abs(value)**2 <= 1 + P_SLACK`` (probability
    conservation, up to roundoff).
    """

    value: complex
    tau: float

    @property
    def probability(self) -> float:
        """|value|**2, with roundoff above 1 clipped to 1.

        Raises
        ------
        ArithmeticError
            From :func:`checked_probability`, if |value|**2 is NaN or
            exceeds 1 + P_SLACK.
        """
        return min(checked_probability(abs(self.value) ** 2, self.tau), 1.0)


@dataclass(frozen=True)
class EffectiveHamiltonianValue:
    """Instantaneous energy and decay rate at one dimensionless time.

    ``energy`` is (E(t) - Emin)/gamma0, i.e. measured from the spectrum
    edge in units of the width; ``rate`` is gamma(t)/gamma0.  Together
    they reproduce the complex effective Hamiltonian through
    h = E - (i/2) gamma, exposed as the ``h`` property (same units and
    origin as ``energy``).
    """

    energy: float
    rate: float
    tau: float

    @property
    def h(self) -> complex:
        return complex(self.energy, -0.5 * self.rate)


def _g_pair(beta: float, tau: float) -> tuple[complex, complex]:
    # G at the two pole images; z+ sits in the fourth quadrant, z- in
    # the third, both a fixed angle arctan(2 beta) away from the cut.
    g_plus = exp_integral_e1_scaled(complex(0.5 * tau, -beta * tau))
    g_minus = exp_integral_e1_scaled(complex(-0.5 * tau, -beta * tau))
    return g_plus, g_minus


# A scan row evaluates survival_probability and then
# effective_hamiltonian at one point; the memo lets both share one G pair
# while each keeps its own call (and benchmark span).
@functools.lru_cache(maxsize=1)
def _pieces(beta: float, tau: float) -> tuple[complex, complex, complex, complex]:
    # (i_pole, i_tail, j_pole, j_tail) from one G pair: the canonical
    # pole parts 2 pi e^{-tau/2} and -i pi e^{-tau/2}, and the power
    # tails; I = i_pole + i_tail and J = j_pole + j_tail.
    g_plus, g_minus = _g_pair(beta, tau)
    phase = cmath.exp(1j * beta * tau)
    decay = math.exp(-0.5 * tau)
    return (_TWO_PI * decay, 1j * phase * (g_minus - g_plus),
            -1j * math.pi * decay, 0.5 * phase * (g_plus + g_minus))


def i_beta_at_zero(beta: float) -> float:
    """Limit of i_beta as tau -> 0+, namely pi + 2 arctan(2 beta).

    Exposed separately because i_beta itself cannot be evaluated at
    tau = 0 (E1 diverges there; the divergences cancel only in the
    limit).
    """
    check_beta(beta)
    return math.pi + 2.0 * math.atan(2.0 * beta)


def i_beta(beta: float, tau: float) -> complex:
    """Amplitude integral I(tau) for a given beta.

    Parameters
    ----------
    beta : float
        Resonance position above the spectrum edge in widths, > 0.
    tau : float
        Dimensionless time, > 0.  The tau -> 0+ limit is available as
        :func:`i_beta_at_zero`.

    Returns
    -------
    complex
        I(tau); N/(2 pi) times this, dephased, is the amplitude.
    """
    check_beta(beta)
    check_tau(tau, hint=" (the tau -> 0 limit is i_beta_at_zero)")
    if tau < 1e-300:
        # the components of tau/2 - i*beta*tau denormalize here and the
        # two E1 arguments collapse onto each other; the true deviation
        # from the limit is O(tau*ln tau), far below one ulp of it
        return complex(i_beta_at_zero(beta), 0.0)
    i_pole, i_tail, _, _ = _pieces(beta, tau)
    return i_pole + i_tail


def j_beta(beta: float, tau: float) -> complex:
    """Energy-weighted integral J(tau) = i dI/dtau.

    Diverges logarithmically as tau -> 0+ (the integrand falls off only
    like 1/eta), hence tau > 0 strictly.
    """
    check_beta(beta)
    check_tau(tau, hint=" (J diverges logarithmically at tau = 0)")
    _, _, j_pole, j_tail = _pieces(beta, tau)
    return j_pole + j_tail


def chi(beta: float, tau: float) -> complex:
    """Non-exponentiality witness exp(tau) E1(z+) - E1(z-).

    The amplitude is exactly canonical (pure exponential decay) at a
    given tau only where this vanishes; its non-constancy on every
    interval is what rules out a finite exponential window.  Grows like
    exp(tau/2)/tau at late times, so a genuine OverflowError occurs past
    tau ~ 1400.
    """
    check_beta(beta)
    check_tau(tau)
    g_plus, g_minus = _g_pair(beta, tau)
    return math.exp(0.5 * tau) * cmath.exp(1j * beta * tau) * (g_plus - g_minus)


def chi_derivative(beta: float, tau: float) -> complex:
    """d chi / d tau = exp(tau) E1(z+), nonzero except at isolated tau."""
    check_beta(beta)
    check_tau(tau)
    g_plus, _ = _g_pair(beta, tau)
    return math.exp(0.5 * tau) * cmath.exp(1j * beta * tau) * g_plus


def amplitude(model: BreitWignerModel, tau: float) -> AmplitudeValue:
    """Survival amplitude a(tau) of the truncated Breit-Wigner state.

    Parameters
    ----------
    model : BreitWignerModel
        Physical parameters; only beta and the normalization enter.
    tau : float
        Dimensionless time, >= 0.

    Returns
    -------
    AmplitudeValue
        a(tau) with ``a(0) = 1`` exactly (the defining normalization;
        the E1 divergences at tau = 0 cancel analytically, so the point
        is special-cased rather than evaluated as a limit).
    """
    if tau == 0:
        return AmplitudeValue(complex(1.0, 0.0), 0.0)
    return AmplitudeValue(_amplitude(model, tau), float(tau))


def _amplitude(model: BreitWignerModel, tau: float) -> complex:
    # the value of amplitude(), without the record around it
    if tau == 0:
        return complex(1.0, 0.0)
    return (model.normalization() / _TWO_PI) \
        * cmath.exp(-1j * model.beta * tau) * i_beta(model.beta, tau)


def survival_probability(model: BreitWignerModel, tau: float) -> float:
    """Decay law P(tau) = |a(tau)|**2, roundoff above 1 clipped to 1.

    The same float as ``amplitude(model, tau).probability``, with the
    same check.
    """
    return min(checked_probability(abs(_amplitude(model, tau)) ** 2, tau), 1.0)


def effective_hamiltonian(model: BreitWignerModel,
                          tau: float) -> EffectiveHamiltonianValue:
    """Instantaneous effective Hamiltonian h(tau), split into (E, gamma).

    Forms h = E0 + gamma0 J/I from the scaled closed forms, so it works
    arbitrarily late (underflow-safe).

    Parameters
    ----------
    model : BreitWignerModel
    tau : float
        Dimensionless time, > 0.  At t = 0 the Breit-Wigner mean energy
        diverges logarithmically, so the API refuses the point instead
        of returning a large number.

    Returns
    -------
    EffectiveHamiltonianValue
        energy = (E(tau) - Emin)/gamma0 and rate = gamma(tau)/gamma0.

    Raises
    ------
    DomainError
        For tau <= 0.
    NearZeroAmplitude
        When |I| < 1e-280 and the ratio would be garbage.
    """
    beta = model.beta
    check_beta(beta)
    check_tau(tau, hint=" (the mean energy diverges at t = 0)")
    i_pole, i_tail, j_pole, j_tail = _pieces(beta, tau)
    i_val = i_pole + i_tail
    if abs(i_val) < _NEAR_ZERO:
        raise NearZeroAmplitude(
            "|I({})| = {:.3e} is below 1e-280; the ratio J/I is unreliable "
            "this deep into underflow".format(tau, abs(i_val))
        )
    energy, rate = energy_and_rate(beta, (j_pole + j_tail) / i_val)
    return EffectiveHamiltonianValue(energy=energy, rate=rate, tau=float(tau))


def effective_hamiltonian_brace(model: BreitWignerModel,
                                tau: float) -> EffectiveHamiltonianValue:
    """The same h(tau) as :func:`effective_hamiltonian`, by another algebra.

    Evaluates J/I from the unscaled brace combination exp(tau) E1(z+)
    +/- E1(z-), so it overflows past tau ~ 1419.  It is a reference
    that catches algebra or implementation errors in the scaled path,
    not a production path.
    """
    beta = model.beta
    check_beta(beta)
    check_tau(tau, hint=" (the mean energy diverges at t = 0)")
    g_plus, g_minus = _g_pair(beta, tau)
    grow = math.exp(0.5 * tau) * cmath.exp(1j * beta * tau)
    s_plus = grow * g_plus
    s_minus = grow * g_minus
    coef = 1j / _TWO_PI
    numer = 1.0 + coef * (s_plus + s_minus)
    denom = 1.0 - coef * (s_plus - s_minus)
    if abs(denom) < _NEAR_ZERO:
        raise NearZeroAmplitude(
            "brace denominator vanished at tau = {}".format(tau)
        )
    energy, rate = energy_and_rate(beta, -0.5j * (numer / denom))
    return EffectiveHamiltonianValue(energy=energy, rate=rate, tau=float(tau))


def kappa(model: BreitWignerModel, tau: float) -> float:
    """Normalized instantaneous energy (E(tau) - Emin)/(E0 - Emin).

    Equals ``energy / beta`` of :func:`effective_hamiltonian`, bit for
    bit the ``kappa`` column of a scan; starts near 1 in the canonical
    era and tends to 0 (energy relaxes to the spectrum edge) as
    tau -> inf.
    """
    return effective_hamiltonian(model, tau).energy / model.beta
