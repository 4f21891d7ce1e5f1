"""Truncated Breit-Wigner model parameters and unit conversions.

The physical inputs are the resonance energy E0, the width gamma0 and
the spectrum lower bound Emin.  Everything downstream works in the
dimensionless pair

    beta = (E0 - Emin) / gamma0,      tau = gamma0 * t / hbar,

so this module is the only place physical units appear: construction,
the tau <-> t maps, and the density itself.  It also owns the domain of
the dimensionless pair: :func:`check_beta` and :func:`check_tau` are the
one validator of each for the whole package, and :func:`check_real` is
the one check of every other real-valued parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def check_beta(beta: float) -> None:
    """Raise DomainError unless ``beta`` is a finite positive real."""
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise DomainError("beta must be a finite positive real, got {!r}".format(beta))


def check_real(name: str, value: float, positive: bool = False) -> None:
    """Raise DomainError unless ``value`` is a finite real (and > 0 if ``positive``)."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and (value > 0 or not positive)):
        raise DomainError("{} must be a finite {}real, got {!r}".format(
            name, "positive " if positive else "", value))


def check_tau(tau: float, hint: str = "", zero_ok: bool = False) -> None:
    """Raise DomainError unless ``tau`` is a finite real > 0 (>= 0 if ``zero_ok``).

    ``hint`` is appended to the message, typically to say why the
    caller refuses tau = 0.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)
            and (tau > 0 or (zero_ok and tau == 0))):
        raise DomainError("tau must be a finite {} real, got {!r}{}".format(
            "non-negative" if zero_ok else "positive", tau, hint))


@dataclass(frozen=True)
class BreitWignerModel:
    """Parameters of a truncated Breit-Wigner energy density.

    The density is a Lorentzian of width ``gamma0`` centered at ``e0``,
    set to zero below ``emin`` and renormalized to unit integral:

        w(E) = (N / 2 pi) * gamma0 / ((E - e0)**2 + gamma0**2 / 4),  E >= emin.

    Parameters
    ----------
    e0 : float
        Resonance energy (energy units).
    gamma0 : float
        Resonance width, > 0 (energy units).
    emin : float
        Lower edge of the energy spectrum, < e0.
    hbar : float, optional
        Planck constant in the chosen unit system; 1 by default so that
        tau counts lifetimes directly.
    """

    e0: float
    gamma0: float
    emin: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("e0", "gamma0", "emin", "hbar"):
            check_real(name, getattr(self, name))
        if self.gamma0 <= 0:
            raise DomainError("gamma0 must be > 0, got {!r}".format(self.gamma0))
        if self.hbar <= 0:
            raise DomainError("hbar must be > 0, got {!r}".format(self.hbar))
        if self.e0 <= self.emin:
            raise DomainError(
                "e0 must exceed emin (got e0 = {!r}, emin = {!r}); "
                "the resonance must sit above the spectrum edge".format(
                    self.e0, self.emin
                )
            )

    @classmethod
    def from_beta(cls, beta: float, gamma0: float = 1.0, emin: float = 0.0,
                  hbar: float = 1.0) -> "BreitWignerModel":
        """Build a model with a prescribed dimensionless ``beta``.

        Convenience for scans: e0 is placed at ``emin + beta * gamma0``.
        """
        check_beta(beta)
        return cls(e0=emin + beta * gamma0, gamma0=gamma0, emin=emin, hbar=hbar)

    @property
    def beta(self) -> float:
        """Resonance position above the edge, in units of the width."""
        return (self.e0 - self.emin) / self.gamma0

    @property
    def lifetime(self) -> float:
        """Canonical lifetime hbar / gamma0 (time units)."""
        return self.hbar / self.gamma0

    def tau_of_t(self, t: float) -> float:
        """Dimensionless time gamma0 * t / hbar for finite physical t >= 0."""
        tau = self.gamma0 * t / self.hbar
        check_tau(tau, hint=" (from t = {!r})".format(t), zero_ok=True)
        return tau

    def t_of_tau(self, tau: float) -> float:
        """Physical time for finite dimensionless ``tau`` >= 0; inverse of tau_of_t."""
        check_tau(tau, zero_ok=True)
        return self.hbar * tau / self.gamma0

    def normalization(self) -> float:
        """Normalization constant N = 2 pi / (pi + 2 arctan(2 beta)).

        Makes the truncated density integrate to one.  N > 1 for every
        finite beta (truncation removes tail mass) and tends to 1 as
        beta grows.
        """
        return 2.0 * math.pi / (math.pi + 2.0 * math.atan(2.0 * self.beta))

    def density(self, e: float) -> float:
        """Energy density w(e); zero below the spectrum edge."""
        if e < self.emin:
            return 0.0
        lor = self.gamma0 / ((e - self.e0) ** 2 + 0.25 * self.gamma0 ** 2)
        return self.normalization() / (2.0 * math.pi) * lor
