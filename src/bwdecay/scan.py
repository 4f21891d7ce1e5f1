"""Time-grid evaluation producing uniform rows for the CLI and tests.

A scan walks a tau grid and records, per point, the survival
probability and the effective-Hamiltonian observables, through one of
three computational paths: the closed forms ("exact"), the late-time
series ("asymptotic"), or the integration oracle ("quadrature").  The
exact and quadrature paths end in the same (E, gamma) map and
probability check of ``survival``; the asymptotic path takes E from the
real terms of the J/I series and gamma from -2 Im of its sum.  Rows are
plain records; rendering belongs to the CLI.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .asymptotics import (AMPLITUDE_TERMS, SERIES_TERMS, amplitude_late,
                          energy_series, ratio_series)
from .errors import DomainError
from .model import BreitWignerModel, check_int, check_tau
from .quadrature import amplitude_by_quadrature, i_by_quadrature, j_by_quadrature
from .survival import (checked_probability, effective_hamiltonian,
                       energy_and_rate, survival_probability)

METHODS = ("exact", "asymptotic", "quadrature")


ScanRow = namedtuple("ScanRow", "tau p kappa gamma_ratio re_h im_h method")
ScanRow.__doc__ = """One grid record, an immutable named tuple.

The fields, in order: ``tau``, ``p``, ``kappa``, ``gamma_ratio``,
``re_h``, ``im_h`` (floats) and ``method`` (the route's name).
``kappa``, ``gamma_ratio``, ``re_h``, ``im_h`` are None where the
effective Hamiltonian is undefined (tau = 0); ``re_h`` is
(E - Emin)/gamma0, ``im_h`` is Im h/gamma0 = -gamma_ratio/2.
``ScanRow._fields`` names the columns and ``row._asdict()`` maps them
to the values.
"""


def time_grid(tau_min: float, tau_max: float, points: int, kind: str = "log") -> list:
    """Strictly increasing tau grid, linear or logarithmic.

    The endpoints are produced exactly (no accumulated stepping error),
    so repeated calls with the same arguments give identical grids.  A
    grid whose points would repeat in double precision raises
    DomainError.
    """
    check_int("points", points, 2)
    if kind not in ("linear", "log"):
        raise DomainError("grid kind must be 'linear' or 'log', got {!r}".format(kind))
    check_tau(tau_min, hint=" (tau_min of a {} grid)".format(kind),
              zero_ok=kind == "linear")
    check_tau(tau_max, hint=" (tau_max)")
    if tau_max <= tau_min:
        raise DomainError(
            "tau_max must exceed tau_min, got [{!r}, {!r}]".format(tau_min, tau_max)
        )
    if kind == "linear":
        step = (tau_max - tau_min) / (points - 1)
        grid = [tau_min + i * step for i in range(points)]
    else:
        ratio = tau_max / tau_min
        if ratio == math.inf:
            # the ratio overflows, though both ends are finite: step in logs
            lo = math.log(tau_min)
            span = math.log(tau_max) - lo
            grid = [math.exp(lo + i / (points - 1) * span) for i in range(points)]
        else:
            grid = [tau_min * ratio ** (i / (points - 1)) for i in range(points)]
    grid[0] = tau_min
    grid[-1] = tau_max
    # too many points for the span in doubles (say near the subnormals, or
    # 100 points on [1, 1 + 1e-15]) round to repeats; a scan would print them
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(
            "a {} grid of {} points on [{!r}, {!r}] repeats points in double "
            "precision; use fewer points or a wider range".format(
                kind, points, tau_min, tau_max)
        )
    return grid


def _row(model: BreitWignerModel, tau: float, p: float, energy: float | None,
         rate: float | None, method: str) -> ScanRow:
    # energy and rate are None at tau = 0, where h is undefined; the
    # fields go by position, which builds the tuple twice as fast
    if energy is None:
        return ScanRow(0.0, p, None, None, None, None, method)
    return ScanRow(float(tau), p, energy / model.beta, rate, energy, -0.5 * rate,
                   method)


def _asymptotic_row(model: BreitWignerModel, tau: float, terms: int) -> ScanRow:
    # No p-range enforcement here: below its validity region the series
    # blows up like 1/tau**2 by design, and scanning into that region
    # is allowed (the range warning fires instead).  amplitude_late
    # refuses tau <= 0.  The energy is not beta + Re r, in which the
    # series' constant -beta cancels, but the sum of its real terms.
    amp = amplitude_late(model, tau, min(terms, AMPLITUDE_TERMS))
    r = ratio_series(model.beta, tau, terms)
    return _row(model, tau, abs(amp) ** 2, energy_series(model.beta, tau, terms),
                -2.0 * r.imag, "asymptotic")


def _quadrature_row(model: BreitWignerModel, tau: float) -> ScanRow:
    amp = amplitude_by_quadrature(model, tau)
    p = checked_probability(abs(amp) ** 2, tau)
    if tau == 0:
        return _row(model, tau, p, None, None, "quadrature")
    r = j_by_quadrature(model.beta, tau) / i_by_quadrature(model.beta, tau)
    return _row(model, tau, p, *energy_and_rate(model.beta, r), "quadrature")


def scan_rows(model: BreitWignerModel, taus, method: str = "exact",
              terms: int = SERIES_TERMS) -> list:
    """Evaluate every grid point with the chosen method, in grid order.

    Parameters
    ----------
    model : BreitWignerModel
    taus : iterable of float
        Dimensionless times; tau = 0 is representable only by the exact
        and quadrature methods (and yields None Hamiltonian fields).
    method : {"exact", "asymptotic", "quadrature"}
    terms : int, optional
        Series truncation for the asymptotic method (1..5; the
        amplitude series caps at its own depth of 4).  The quadrature
        method runs at the oracle's default tolerances.
    """
    if method not in METHODS:
        raise DomainError("method must be one of {}, got {!r}".format(METHODS, method))
    check_int("terms", terms, 1, SERIES_TERMS)
    if method == "asymptotic":
        return [_asymptotic_row(model, tau, terms) for tau in taus]
    if method == "quadrature":
        return [_quadrature_row(model, tau) for tau in taus]
    # each exact point calls the two survival functions through this
    # module's globals, which perfbench wraps as spans
    rows = []
    for tau in taus:
        p = survival_probability(model, tau)
        energy, rate, _ = (None,) * 3 if tau == 0 else effective_hamiltonian(model, tau)
        rows.append(_row(model, tau, p, energy, rate, "exact"))
    return rows
