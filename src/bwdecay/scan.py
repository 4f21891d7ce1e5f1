"""Time-grid evaluation producing uniform rows for the CLI and tests.

A scan walks a tau grid and records, per point, the survival
probability and the effective-Hamiltonian observables, through one of
three computational routes: the closed-form path ("exact"), the
late-time series ("asymptotic"), or the integration oracle
("quadrature").  Rows are plain records; rendering belongs to the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import amplitude_late, ratio_series
from .errors import DomainError
from .model import BreitWignerModel
from .quadrature import (QuadratureSettings, amplitude_by_quadrature,
                         i_by_quadrature, j_by_quadrature)
from .survival import P_SLACK, effective_hamiltonian, survival_probability

METHODS = ("exact", "asymptotic", "quadrature")

# The late-time amplitude series carries fewer coefficients than the
# ratio series; a scan's `terms` applies to each series up to its own
# available depth.
_MAX_AMPLITUDE_TERMS = 4


@dataclass(frozen=True)
class ScanRow:
    """One grid record.

    ``kappa``, ``gamma_ratio``, ``re_h``, ``im_h`` are None where the
    effective Hamiltonian is undefined (tau = 0); ``re_h`` is
    (E - Emin)/gamma0, ``im_h`` is Im h/gamma0 = -gamma_ratio/2.
    """

    tau: float
    p: float
    kappa: float | None
    gamma_ratio: float | None
    re_h: float | None
    im_h: float | None
    method: str


def time_grid(tau_min: float, tau_max: float, points: int, kind: str = "log") -> list:
    """Monotone tau grid, linear or logarithmic.

    The endpoints are produced exactly (no accumulated stepping error),
    so repeated calls with the same arguments give identical grids.
    """
    if points < 2:
        raise DomainError("points must be >= 2, got {!r}".format(points))
    if not (math.isfinite(tau_min) and math.isfinite(tau_max)):
        raise DomainError("grid endpoints must be finite")
    if tau_max <= tau_min:
        raise DomainError(
            "tau_max must exceed tau_min, got [{!r}, {!r}]".format(tau_min, tau_max)
        )
    if kind == "linear":
        if tau_min < 0:
            raise DomainError("tau_min must be >= 0, got {!r}".format(tau_min))
        step = (tau_max - tau_min) / (points - 1)
        grid = [tau_min + i * step for i in range(points)]
    elif kind == "log":
        if tau_min <= 0:
            raise DomainError(
                "log grids need tau_min > 0, got {!r}".format(tau_min)
            )
        ratio = tau_max / tau_min
        grid = [tau_min * ratio ** (i / (points - 1)) for i in range(points)]
    else:
        raise DomainError("grid kind must be 'linear' or 'log', got {!r}".format(kind))
    grid[0] = tau_min
    grid[-1] = tau_max
    return grid


def _checked_p(p: float, tau: float, method: str) -> float:
    if not 0.0 <= p <= 1.0 + P_SLACK:
        raise ArithmeticError(
            "survival probability {!r} out of [0, 1 + 1e-9] at tau = {!r} "
            "({} method); this indicates an internal defect".format(p, tau, method)
        )
    return p


def _exact_row(model: BreitWignerModel, tau: float) -> ScanRow:
    p = _checked_p(survival_probability(model, tau), tau, "exact")
    if tau == 0:
        return ScanRow(tau=0.0, p=p, kappa=None, gamma_ratio=None,
                       re_h=None, im_h=None, method="exact")
    h = effective_hamiltonian(model, tau)
    return ScanRow(
        tau=float(tau),
        p=p,
        kappa=h.energy / model.beta,
        gamma_ratio=h.rate,
        re_h=h.energy,
        im_h=-0.5 * h.rate,
        method="exact",
    )


def _asymptotic_row(model: BreitWignerModel, tau: float, terms: int) -> ScanRow:
    # No p-range enforcement here: below its validity region the series
    # blows up like 1/tau**2 by design, and scanning into that region
    # is allowed (the range warning fires instead).
    if tau <= 0:
        raise DomainError("asymptotic rows need tau > 0, got {!r}".format(tau))
    amp = amplitude_late(model, tau, min(terms, _MAX_AMPLITUDE_TERMS))
    r = ratio_series(model.beta, tau, terms)
    energy = model.beta + r.real
    rate = -2.0 * r.imag
    return ScanRow(
        tau=float(tau),
        p=abs(amp) ** 2,
        kappa=energy / model.beta,
        gamma_ratio=rate,
        re_h=energy,
        im_h=-0.5 * rate,
        method="asymptotic",
    )


def _quadrature_row(model: BreitWignerModel, tau: float,
                    settings: QuadratureSettings | None) -> ScanRow:
    p = _checked_p(abs(amplitude_by_quadrature(model, tau, settings)) ** 2,
                   tau, "quadrature")
    if tau == 0:
        return ScanRow(tau=0.0, p=p, kappa=None, gamma_ratio=None,
                       re_h=None, im_h=None, method="quadrature")
    r = j_by_quadrature(model.beta, tau, settings) \
        / i_by_quadrature(model.beta, tau, settings)
    energy = model.beta + r.real
    rate = -2.0 * r.imag
    return ScanRow(
        tau=float(tau),
        p=p,
        kappa=energy / model.beta,
        gamma_ratio=rate,
        re_h=energy,
        im_h=-0.5 * rate,
        method="quadrature",
    )


def scan_rows(model: BreitWignerModel, taus, method: str = "exact",
              terms: int = 5,
              settings: QuadratureSettings | None = None) -> list:
    """Evaluate every grid point with the chosen method, in grid order.

    Parameters
    ----------
    model : BreitWignerModel
    taus : iterable of float
        Dimensionless times; tau = 0 is representable only by the exact
        and quadrature routes (and yields None Hamiltonian fields).
    method : {"exact", "asymptotic", "quadrature"}
    terms : int, optional
        Series truncation for the asymptotic method (1..5; the
        amplitude series caps at its own depth of 4).
    settings : QuadratureSettings, optional
        Oracle tolerances for the quadrature method.
    """
    if method not in METHODS:
        raise DomainError("method must be one of {}, got {!r}".format(METHODS, method))
    if not (isinstance(terms, int) and 1 <= terms <= 5):
        raise DomainError("terms must be an integer in 1..5, got {!r}".format(terms))
    rows = []
    for tau in taus:
        if method == "exact":
            rows.append(_exact_row(model, tau))
        elif method == "asymptotic":
            rows.append(_asymptotic_row(model, tau, terms))
        else:
            rows.append(_quadrature_row(model, tau, settings))
    return rows
