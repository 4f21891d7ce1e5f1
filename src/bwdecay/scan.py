"""Scan rows: the observables evaluated at each point of a tau grid.

A scan walks a tau grid (``model.time_grid``, re-exported here) and
evaluates, per point, the survival probability and the
effective-Hamiltonian observables, through one of three computational
paths: the closed forms ("exact"), the late-time series ("asymptotic"),
or the integration oracle ("quadrature").  The exact and quadrature
paths end in the same (E, gamma) map and probability check of
``survival``; the asymptotic path takes E from the real terms of the
J/I series and gamma from -2 Im of its sum.  Rows are plain records
(``ScanRow``, which lives in ``model`` with ``METHODS``); rendering
belongs to the CLI.

Importing scan loads the late-time series but neither route module:
the exact route's functions (from ``survival``) and the oracle's (from
``quadrature``) resolve on first use, through a module ``__getattr__``,
so an asymptotic scan loads neither route and an exact scan not the
oracle.
"""

from __future__ import annotations

import sys

from .asymptotics import (AMPLITUDE_TERMS, SERIES_TERMS, _energy_series,
                          amplitude_late, ratio_series)
from .errors import DomainError
from .model import METHODS, BreitWignerModel, ScanRow, check_int, time_grid

# METHODS, ScanRow and time_grid live in model, and scan re-exports them
__all__ = ["METHODS", "ScanRow", "scan_rows", "time_grid"]


def __getattr__(name):
    # PEP 562: a route's functions resolve on first use, so that a scan
    # loads only the route it runs.  Only the name asked for is stored,
    # so a global that perfbench has replaced is never overwritten.
    if name == "survival_probability":
        from .survival import survival_probability as value
    elif name == "effective_hamiltonian":
        from .survival import effective_hamiltonian as value
    elif name == "checked_probability":
        from .survival import checked_probability as value
    elif name == "energy_and_rate":
        from .survival import energy_and_rate as value
    elif name == "amplitude_by_quadrature":
        from .quadrature import amplitude_by_quadrature as value
    elif name == "i_by_quadrature":
        from .quadrature import i_by_quadrature as value
    elif name == "j_by_quadrature":
        from .quadrature import j_by_quadrature as value
    else:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    globals()[name] = value
    return value


# the module object, through which scan_rows reads the route functions:
# a name found in the module's globals, else resolved by __getattr__
_module = sys.modules[__name__]


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
    # the route functions are read once per call through the module, in
    # whose globals perfbench replaces them by spans
    rows = []
    if method == "quadrature":
        amplitude = _module.amplitude_by_quadrature
        i_quad, j_quad = _module.i_by_quadrature, _module.j_by_quadrature
        checked, energy_rate = _module.checked_probability, _module.energy_and_rate
        for tau in taus:
            p = checked(abs(amplitude(model, tau)) ** 2, tau)
            if tau == 0:
                rows.append(_row(model, tau, p, None, None, "quadrature"))
                continue
            r = j_quad(model.beta, tau) / i_quad(model.beta, tau)
            rows.append(_row(model, tau, p, *energy_rate(model.beta, r), "quadrature"))
        return rows
    probability = _module.survival_probability
    hamiltonian = _module.effective_hamiltonian
    for tau in taus:
        p = probability(model, tau)
        energy, rate, _ = (None,) * 3 if tau == 0 else hamiltonian(model, tau)
        rows.append(_row(model, tau, p, energy, rate, "exact"))
    return rows
