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
computed far beyond the exponential underflow point.  One G pair per
point serves I, J, the amplitude and the effective Hamiltonian; no
other combination of E1 values is formed.

Phase convention: the amplitude returned here is (N/2pi) exp(-i beta
tau) I(tau); the remaining global phase exp(-i Emin t / hbar) is
dropped.  Only |a|**2, E(t), gamma(t) and kappa(t) are physical
observables, so the phase origin is documented rather than load-bearing.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .errors import NearZeroAmplitude
from .model import (_TAU_FLOOR, _TWO_PI, BreitWignerModel, _phase, check_real,
                    check_tau, i_beta_at_zero)
from ._kernels_py import EULER_GAMMA, exp_integral_e1_scaled

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


def _probability(value: complex, tau: float) -> float:
    # |a|**2 with roundoff above 1 clipped to 1, the one probability rule;
    # a value in [0, 1] needs neither the check nor the clip
    p = abs(value) ** 2
    return p if p <= 1.0 else min(checked_probability(p, tau), 1.0)


class AmplitudeValue(namedtuple("AmplitudeValue", "value tau")):
    """Survival amplitude at one dimensionless time, an immutable named tuple.

    Invariant: ``abs(value)**2 <= 1 + P_SLACK`` (probability
    conservation, up to roundoff).
    """

    __slots__ = ()

    @property
    def probability(self) -> float:
        """|value|**2, with roundoff above 1 clipped to 1.

        Raises
        ------
        ArithmeticError
            From :func:`checked_probability`, if |value|**2 is NaN or
            exceeds 1 + P_SLACK.
        """
        return _probability(self.value, self.tau)


# builds a named tuple from the tuple of its fields, without calling the
# named tuple's Python-level __new__
_new = tuple.__new__


class EffectiveHamiltonianValue(namedtuple("EffectiveHamiltonianValue",
                                            "energy rate tau")):
    """Instantaneous energy and decay rate at one dimensionless time.

    An immutable named tuple.  ``energy`` is (E(t) - Emin)/gamma0, i.e.
    measured from the spectrum edge in units of the width; ``rate`` is
    gamma(t)/gamma0.  Together they reproduce the complex effective
    Hamiltonian through h = E - (i/2) gamma, exposed as the ``h``
    property (same units and origin as ``energy``).
    """

    __slots__ = ()

    @property
    def h(self) -> complex:
        return complex(self.energy, -0.5 * self.rate)


# A scan row evaluates survival_probability and then
# effective_hamiltonian at one point; the memo lets both share one G pair
# while each keeps its own call (and benchmark span).
@functools.lru_cache(maxsize=1)
def _pieces(beta: float,
            tau: float) -> tuple[complex, complex, complex, complex, complex]:
    # (phase, i_pole, i_tail, j_pole, j_tail) from one G pair: the phase
    # e^{i beta tau}, the canonical pole parts 2 pi e^{-tau/2} and
    # -i pi e^{-tau/2}, and the power tails; I = i_pole + i_tail and
    # J = j_pole + j_tail.
    phase = _phase(beta, tau)
    # hypot(beta, 1/2) >= 1/2, so only tau < 2e-17 can pass the test
    if tau < 2e-17 and tau * math.hypot(beta, 0.5) < 1e-17:
        # |z+-| < 1e-17, where G(z) = -gamma - log z to O(z) relative;
        # log z+- = log tau + log(+-1/2 - i beta) keeps the bits that
        # forming z+- loses below tau ~ 1e-308
        g_zero = -EULER_GAMMA - math.log(tau)
        g_plus = g_zero - cmath.log(complex(0.5, -beta))
        g_minus = g_zero - cmath.log(complex(-0.5, -beta))
    else:
        # G at the two pole images; z+ sits in the fourth quadrant, z- in
        # the third, both a fixed angle arctan(2 beta) away from the cut
        g_plus = exp_integral_e1_scaled(complex(0.5 * tau, -beta * tau))
        g_minus = exp_integral_e1_scaled(complex(-0.5 * tau, -beta * tau))
    decay = math.exp(-0.5 * tau)
    return (phase, _TWO_PI * decay, 1j * phase * (g_minus - g_plus),
            -1j * math.pi * decay, 0.5 * phase * (g_plus + g_minus))


def _i_and_phase(beta: float, tau: float) -> tuple[complex, complex]:
    # (I, e^{i beta tau}) for a validated beta and tau >= 0
    if tau < _TAU_FLOOR:
        # I(0), where the two E1 terms diverge and cancel; the deviation
        # from it, at most tau (2 ln(1/tau) + 4), is below one ulp here
        return complex(i_beta_at_zero(beta), 0.0), _phase(beta, tau)
    phase, i_pole, i_tail, _, _ = _pieces(beta, tau)
    return i_pole + i_tail, phase


def i_beta(beta: float, tau: float) -> complex:
    """Amplitude integral I(tau) for a given beta.

    Parameters
    ----------
    beta : float
        Resonance position above the spectrum edge in widths, > 0.
    tau : float
        Dimensionless time, >= 0.  I(0) = pi + 2 arctan(2 beta) = 2 pi/N.

    Returns
    -------
    complex
        I(tau); N/(2 pi) times this, dephased, is the amplitude.
    """
    check_real("beta", beta, positive=True)
    check_tau(tau, zero_ok=True)
    return _i_and_phase(beta, tau)[0]


def j_beta(beta: float, tau: float) -> complex:
    """Energy-weighted integral J(tau) = i dI/dtau.

    Diverges logarithmically as tau -> 0+ (the integrand falls off only
    like 1/eta), hence tau > 0 strictly.
    """
    check_real("beta", beta, positive=True)
    check_tau(tau, hint=" (J diverges logarithmically at tau = 0)")
    _, _, _, j_pole, j_tail = _pieces(beta, tau)
    return j_pole + j_tail


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
    # a(tau) for tau != 0; the model has validated beta
    check_tau(tau, zero_ok=True)
    i_val, phase = _i_and_phase(model.beta, tau)
    return (model.normalization() / _TWO_PI) * phase.conjugate() * i_val


def survival_probability(model: BreitWignerModel, tau: float) -> float:
    """Decay law P(tau) = ``amplitude(model, tau).probability``.

    |a(tau)|**2 with roundoff above 1 clipped to 1, formed without an
    AmplitudeValue.
    """
    if tau == 0:
        return 1.0
    return _probability(_amplitude(model, tau), float(tau))


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
    check_tau(tau, hint=" (the mean energy diverges at t = 0)")
    _, i_pole, i_tail, j_pole, j_tail = _pieces(beta, tau)
    i_val = i_pole + i_tail
    if abs(i_val) < _NEAR_ZERO:
        raise NearZeroAmplitude(
            "|I({})| = {:.3e} is below 1e-280; the ratio J/I is unreliable "
            "this deep into underflow".format(tau, abs(i_val))
        )
    energy, rate = energy_and_rate(beta, (j_pole + j_tail) / i_val)
    return _new(EffectiveHamiltonianValue, (energy, rate, float(tau)))


def kappa(model: BreitWignerModel, tau: float) -> float:
    """Normalized instantaneous energy (E(tau) - Emin)/(E0 - Emin).

    Equals ``energy / beta`` of :func:`effective_hamiltonian`, bit for
    bit the ``kappa`` column of a scan; starts near 1 in the canonical
    era and tends to 0 (energy relaxes to the spectrum edge) as
    tau -> inf.
    """
    return effective_hamiltonian(model, tau).energy / model.beta
