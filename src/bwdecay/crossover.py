"""Cross-over time between exponential and power-law decay eras.

The survival probability follows N**2 exp(-tau) for a long while, then
hands over to the 1/tau**2 power law of the late-time expansion.  The
cross-over time tau_T is where the two contributions are equal:

    F(tau) = ln|a_c(tau)|**2 - ln|a_lt(tau)|**2 = 0,

with a_c(tau) = A exp(-tau/2) in modulus and a_lt the truncated
late-time amplitude.  A and the truncation order are genuinely free
parameters of this definition, surfaced as arguments; the defaults
A = N and order = 1 reproduce the fixed-point characterization

    exp(tau) = (2 pi (beta**2 + 1/4))**2 tau**2

exactly (both sides divided by N**2).
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

from .asymptotics import AsymptoticRangeWarning, _check_order, amplitude_late
from .errors import BracketError, DomainError, ToleranceNotMet
from .model import BreitWignerModel

_BRACKET_LO = 1.0
_BRACKET_HI = 1.0e4
_SCAN_POINTS = 481
_MAX_ITER = 200


@dataclass(frozen=True)
class CrossoverResult:
    """Solved cross-over time and solver provenance.

    tau_t is dimensionless; t_physical = hbar * tau_t / gamma0 in the
    model's units.  bracket is the grid interval the root was isolated
    in, residual the value of the log-difference F at tau_t.
    """

    tau_t: float
    bracket: tuple
    residual: float
    order: int
    iterations: int
    t_physical: float


SurvivorCount = namedtuple("SurvivorCount", ["expected", "resolvable"])


def _log_deficit(model: BreitWignerModel, tau: float, order: int,
                 a_const: float) -> float:
    # F(tau); the solver probes tau down to 1 where the series is
    # formally out of range, which is intended here, hence the muffle.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        late = abs(amplitude_late(model, tau, order))
    if late == 0.0:
        return math.inf
    return 2.0 * math.log(a_const) - tau - 2.0 * math.log(late)


def crossover_time(model: BreitWignerModel, order: int = 1,
                   tol: float = 1e-10,
                   amplitude_const: float | None = None) -> CrossoverResult:
    """Largest root of the exponential/power-law equality condition.

    Parameters
    ----------
    model : BreitWignerModel
    order : int, optional
        Truncation order of the late-time amplitude, 1..4.  Order 1
        matches the classic tau = 2 ln(2 pi (beta**2+1/4)) + 2 ln tau
        estimate.
    tol : float, optional
        Acceptance bound on |F(tau_T)|.
    amplitude_const : float, optional
        Canonical-era amplitude prefactor A; defaults to the model
        normalization N, which is what the exact amplitude actually
        carries through the canonical era.

    Returns
    -------
    CrossoverResult

    Raises
    ------
    BracketError
        If F has no sign change on [1, 1e4] (does not happen for
        beta >= 0.5).
    ToleranceNotMet
        If 200 bisection steps leave |F| above ``tol``.
    """
    _check_order(order, 4)
    if not (isinstance(tol, (int, float)) and tol > 0):
        raise DomainError("tol must be positive, got {!r}".format(tol))
    a_const = model.normalization() if amplitude_const is None else amplitude_const
    if not (isinstance(a_const, (int, float)) and math.isfinite(a_const) and a_const > 0):
        raise DomainError(
            "amplitude_const must be a finite positive real, got {!r}".format(a_const)
        )

    def f(tau: float) -> float:
        return _log_deficit(model, tau, order, a_const)

    # Right-to-left scan of a log grid isolates the *largest* sign
    # change first, which is the advertised root convention.
    n = _SCAN_POINTS
    ratio = _BRACKET_HI / _BRACKET_LO
    grid = [_BRACKET_LO * ratio ** (i / (n - 1)) for i in range(n)]
    f_hi = f(grid[-1])
    lo = hi = None
    f_lo = None
    for i in range(n - 2, -1, -1):
        f_cur = f(grid[i])
        if f_cur > 0.0 and f_hi <= 0.0:
            lo, hi, f_lo = grid[i], grid[i + 1], f_cur
            break
        f_hi = f_cur
    if lo is None:
        raise BracketError(
            "no exponential/power-law sign change on [{:g}, {:g}] "
            "(order {}, A = {:.6g})".format(_BRACKET_LO, _BRACKET_HI, order, a_const)
        )

    bracket = (lo, hi)
    a, b = lo, hi
    root = 0.5 * (a + b)
    residual = f(root)
    iterations = 1
    while abs(residual) > tol and iterations < _MAX_ITER:
        if residual > 0.0:
            a = root
        else:
            b = root
        root = 0.5 * (a + b)
        residual = f(root)
        iterations += 1
    if abs(residual) > tol:
        raise ToleranceNotMet(
            "crossover residual {:.3e} after {} bisection steps".format(
                residual, iterations
            ),
            achieved=abs(residual),
        )
    return CrossoverResult(
        tau_t=root,
        bracket=bracket,
        residual=residual,
        order=order,
        iterations=iterations,
        t_physical=model.t_of_tau(root),
    )


def survivor_count(p_at_t: float, n_created: float,
                   threshold: float = 1.0) -> SurvivorCount:
    """Expected number of survivors among n_created at survival odds p.

    Returns expected = p * n_created together with a ``resolvable``
    flag, true when the expectation exceeds ``threshold``: an ensemble
    only exhibits the late-time tail if some members are actually left
    to show it.  "Much greater than one" has no canonical numeric
    reading, so the threshold is a parameter with a deliberately modest
    default.
    """
    if not (isinstance(p_at_t, (int, float)) and math.isfinite(p_at_t)
            and 0.0 <= p_at_t <= 1.0):
        raise DomainError("p_at_t must lie in [0, 1], got {!r}".format(p_at_t))
    if not (isinstance(n_created, (int, float)) and math.isfinite(n_created)
            and n_created > 0):
        raise DomainError(
            "n_created must be a finite positive real, got {!r}".format(n_created)
        )
    if not (isinstance(threshold, (int, float)) and threshold > 0):
        raise DomainError("threshold must be positive, got {!r}".format(threshold))
    expected = p_at_t * n_created
    return SurvivorCount(expected=expected, resolvable=expected > threshold)
