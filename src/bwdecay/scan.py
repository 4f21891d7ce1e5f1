"""Scan rows: the observables evaluated at each point of a tau grid.

A scan walks a tau grid (``model.time_grid``, re-exported here) and
evaluates, per point, the survival probability and the
effective-Hamiltonian observables, through one of three computational
paths: the closed forms ("exact"), the late-time series ("asymptotic"),
or the integration oracle ("quadrature").  The exact and quadrature
paths end in the same (E, gamma) map and probability check of
``survival``; the asymptotic path takes E from the real terms of the
J/I series and gamma from -2 Im of its sum.  Rows are plain records;
rendering belongs to the CLI.
"""

from __future__ import annotations

from collections import namedtuple

from .asymptotics import (AMPLITUDE_TERMS, SERIES_TERMS, _energy_series,
                          amplitude_late, ratio_series)
from .errors import DomainError
from .model import BreitWignerModel, check_int, time_grid
from .quadrature import amplitude_by_quadrature, i_by_quadrature, j_by_quadrature
from .survival import (checked_probability, effective_hamiltonian,
                       energy_and_rate, survival_probability)

# time_grid lives in model, and scan re-exports it
__all__ = ["METHODS", "ScanRow", "scan_rows", "time_grid"]

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


# builds a named tuple from the tuple of its fields, without calling the
# named tuple's Python-level __new__
_new = tuple.__new__


def _row(model: BreitWignerModel, tau: float, p: float, energy: float | None,
         rate: float | None, method: str) -> ScanRow:
    # energy and rate are None at tau = 0, where h is undefined
    if energy is None:
        return _new(ScanRow, (0.0, p, None, None, None, None, method))
    return _new(ScanRow, (float(tau), p, energy / model.beta, rate, energy,
                          -0.5 * rate, method))


def _asymptotic_row(model: BreitWignerModel, tau: float, terms: int) -> ScanRow:
    # No p-range enforcement here: below its validity region the series
    # blows up like 1/tau**2 by design, and scanning into that region
    # is allowed (the range warning fires instead).  amplitude_late
    # refuses tau <= 0.  The energy is not beta + Re r, in which the
    # series' constant -beta cancels, but the sum of its real terms,
    # from the core of energy_series: ratio_series has checked its
    # arguments.
    amp = amplitude_late(model, tau, min(terms, AMPLITUDE_TERMS))
    r = ratio_series(model.beta, tau, terms)
    return _row(model, tau, abs(amp) ** 2, _energy_series(model.beta, tau, terms),
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

    Returns a list with one row per point.  A ``time_grid`` holds no
    points, but the list holds every row, so the CLI passes a long grid
    a slice at a time and keeps one slice of rows in memory.

    Parameters
    ----------
    model : BreitWignerModel
    taus : iterable of float
        Dimensionless times, such as a ``time_grid`` or a slice of one;
        tau = 0 is representable only by the exact and quadrature
        methods (and yields None Hamiltonian fields).
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
