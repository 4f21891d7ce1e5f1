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

import bisect
import functools
import math
import warnings
from collections import namedtuple

from .asymptotics import (AMPLITUDE_TERMS, AsymptoticRangeWarning, amplitude_late,
                          i_brace_coefficients)
from .errors import BracketError, ToleranceNotMet
from .model import BreitWignerModel, check_int, check_real

_BRACKET_LO = 1.0
_BRACKET_HI = 1.0e4
_SCAN_POINTS = 481
_MAX_ITER = 200
# acceptance bound on |F(tau_T)|
_TOL = 1e-10


class CrossoverResult(namedtuple(
        "CrossoverResult", "tau_t bracket residual order iterations t_physical")):
    """Solved cross-over time and solver provenance, an immutable named tuple.

    tau_t is dimensionless; t_physical = hbar * tau_t / gamma0 in the
    model's units.  bracket is the grid interval the root was isolated
    in, residual the value of the log-difference F at tau_t.
    """

    __slots__ = ()


@functools.cache
def _bracket_grid() -> tuple:
    # the log grid every solve isolates its bracket on, built by the first;
    # scan.time_grid's expression, without loading scan and its routes
    ratio = _BRACKET_HI / _BRACKET_LO
    return tuple(_BRACKET_LO * ratio ** (i / (_SCAN_POINTS - 1))
                 for i in range(_SCAN_POINTS))


def _decreasing_from(beta: float, order: int, grid) -> int:
    """First index of the suffix of ``grid`` on which F provably falls.

    With u = 1/tau, |a_lt| = N/(2 pi D) * u * |B(u)| where
    B(u) = sum_{k<order} c_k (iu)**k, c = i_brace_coefficients(beta)
    and c_0 = -1, so

        F(tau) = const - tau + 2 ln tau - 2 ln|B(1/tau)|,
        F'(tau) = -1 + 2u + 2u**2 Re(B'(u)/B(u)).

    |B(u)| >= L(u) = 1 - sum_{k>=1} |c_k| u**k and
    |B'(u)| <= M(u) = sum_{k>=1} k |c_k| u**(k-1), so wherever L > 0,
    F' <= -1 + 2u + 2u**2 M/L, and 2uL + 2u**2 M <= L/2 gives
    F' <= -1/2.  As tau grows, u and M fall and L rises, so the test
    holds on a suffix of the grid, found here by bisection without an
    F evaluation.  Along that suffix neighbouring points are at least
    (1e4**(1/480) - 1) tau >= 0.019 apart, so F falls by at least
    0.0097 per step, far above its rounding: the computed F is strictly
    decreasing there and changes sign at most once.
    """
    tail = [abs(c) for c in i_brace_coefficients(beta)[1:order]]

    def certified(tau):
        u = 1.0 / tau
        low = 1.0 - sum(c * u ** (k + 1) for k, c in enumerate(tail))
        slope = sum((k + 1) * c * u ** k for k, c in enumerate(tail))
        return low > 0.0 and 2.0 * u * low + 2.0 * u * u * slope <= 0.5 * low

    return bisect.bisect_left(grid, True, 0, len(grid) - 1, key=certified)


def crossover_time(model: BreitWignerModel, order: int = 1,
                   amplitude_const: float | None = None) -> CrossoverResult:
    """Largest root of the exponential/power-law equality condition.

    Parameters
    ----------
    model : BreitWignerModel
    order : int, optional
        Truncation order of the late-time amplitude, 1..4.  Order 1
        matches the classic tau = 2 ln(2 pi (beta**2+1/4)) + 2 ln tau
        estimate.
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
        If 200 bisection steps leave |F| above 1e-10.
    """
    check_int("order", order, 1, AMPLITUDE_TERMS)
    a_const = model.normalization() if amplitude_const is None else amplitude_const
    check_real("amplitude_const", a_const, positive=True)

    def f(tau: float) -> float:
        late = abs(amplitude_late(model, tau, order))
        if late == 0.0:
            return math.inf
        return 2.0 * math.log(a_const) - tau - 2.0 * math.log(late)

    # The solver probes tau down to 1, where the series is formally out
    # of range; that is intended here, hence the muffle around the solve.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        # The advertised root is the *largest* sign change.  On the
        # suffix grid[m:] F falls strictly, so one bisection over its
        # indices finds the sign change there, if any; below it a
        # right-to-left walk isolates the largest one first.
        grid = _bracket_grid()
        last = len(grid) - 1
        m = _decreasing_from(model.beta, order, grid)
        f_last = f(grid[last])
        f_hi = f_last if m == last else f(grid[m])
        lo = hi = None
        if f_hi > 0.0 >= f_last:
            i = bisect.bisect_left(grid, True, m + 1, last,
                                   key=lambda tau: not f(tau) > 0.0)
            lo, hi = grid[i - 1], grid[i]
        else:
            for i in range(m - 1, -1, -1):
                f_cur = f(grid[i])
                if f_cur > 0.0 and f_hi <= 0.0:
                    lo, hi = grid[i], grid[i + 1]
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
        while abs(residual) > _TOL and iterations < _MAX_ITER:
            if residual > 0.0:
                a = root
            else:
                b = root
            root = 0.5 * (a + b)
            residual = f(root)
            iterations += 1
    if abs(residual) > _TOL:
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
