"""Time-grid evaluation producing uniform rows for the CLI and tests.

A scan walks a tau grid and records, per point, the survival
probability and the effective-Hamiltonian observables, through one of
three computational paths: the closed forms ("exact"), the late-time
series ("asymptotic"), or the integration oracle ("quadrature").  Every
path ends in the same (E, gamma) map and probability check of
``survival``.  Rows are plain records; rendering belongs to the CLI.
"""

from __future__ import annotations

from collections import namedtuple

from .asymptotics import _check_order, amplitude_late, ratio_series
from .errors import DomainError
from .model import BreitWignerModel, check_tau
from .quadrature import (QuadratureSettings, amplitude_by_quadrature,
                         i_by_quadrature, j_by_quadrature)
from .survival import (checked_probability, effective_hamiltonian,
                       energy_and_rate, survival_probability)

METHODS = ("exact", "asymptotic", "quadrature")

# The late-time amplitude series carries fewer coefficients than the
# ratio series; a scan's `terms` applies to each series up to its own
# available depth.
_MAX_AMPLITUDE_TERMS = 4


# A named tuple, not a frozen dataclass: a row is built per grid point,
# and the tuple takes a quarter of the time to build.
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
    """Monotone tau grid, linear or logarithmic.

    The endpoints are produced exactly (no accumulated stepping error),
    so repeated calls with the same arguments give identical grids.
    """
    if not isinstance(points, int):
        raise DomainError("points must be an integer, got {!r}".format(points))
    if points < 2:
        raise DomainError("points must be >= 2, got {!r}".format(points))
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
        grid = [tau_min * ratio ** (i / (points - 1)) for i in range(points)]
    grid[0] = tau_min
    grid[-1] = tau_max
    return grid


def _row(model: BreitWignerModel, tau: float, p: float, energy: float | None,
         rate: float | None, method: str) -> ScanRow:
    # energy and rate are None at tau = 0, where h is undefined; the
    # fields go by position, which builds the tuple twice as fast
    if energy is None:
        return ScanRow(0.0, p, None, None, None, None, method)
    return ScanRow(float(tau), p, energy / model.beta, rate, energy, -0.5 * rate,
                   method)


def _exact_row(model: BreitWignerModel, tau: float) -> ScanRow:
    p = survival_probability(model, tau)
    if tau == 0:
        return _row(model, tau, p, None, None, "exact")
    h = effective_hamiltonian(model, tau)
    return _row(model, tau, p, h.energy, h.rate, "exact")


def _asymptotic_row(model: BreitWignerModel, tau: float, terms: int) -> ScanRow:
    # No p-range enforcement here: below its validity region the series
    # blows up like 1/tau**2 by design, and scanning into that region
    # is allowed (the range warning fires instead).  amplitude_late
    # refuses tau <= 0.
    amp = amplitude_late(model, tau, min(terms, _MAX_AMPLITUDE_TERMS))
    r = ratio_series(model.beta, tau, terms)
    return _row(model, tau, abs(amp) ** 2, *energy_and_rate(model.beta, r),
                "asymptotic")


def _quadrature_row(model: BreitWignerModel, tau: float,
                    settings: QuadratureSettings | None) -> ScanRow:
    amp = amplitude_by_quadrature(model, tau, settings)
    p = checked_probability(abs(amp) ** 2, tau)
    if tau == 0:
        return _row(model, tau, p, None, None, "quadrature")
    r = j_by_quadrature(model.beta, tau, settings) \
        / i_by_quadrature(model.beta, tau, settings)
    return _row(model, tau, p, *energy_and_rate(model.beta, r), "quadrature")


def scan_rows(model: BreitWignerModel, taus, method: str = "exact",
              terms: int = 5,
              settings: QuadratureSettings | None = None) -> list:
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
        amplitude series caps at its own depth of 4).
    settings : QuadratureSettings, optional
        Oracle tolerances for the quadrature method.
    """
    if method not in METHODS:
        raise DomainError("method must be one of {}, got {!r}".format(METHODS, method))
    _check_order(terms, 5, "terms")
    rows = []
    for tau in taus:
        if method == "exact":
            rows.append(_exact_row(model, tau))
        elif method == "asymptotic":
            rows.append(_asymptotic_row(model, tau, terms))
        else:
            rows.append(_quadrature_row(model, tau, settings))
    return rows
