"""Kernels for the exponential integral E1 off the branch cut.

The validated public surface over them is ``bwdecay.special``.  Callers
are expected to have validated their arguments (nonzero, off the
negative real axis); the kernels themselves only know how to iterate and
when to give up.
"""

from __future__ import annotations

import cmath

from .errors import ConvergenceError

EULER_GAMMA = 0.57721566490153286

# Crossover radius between the power series and the continued fraction.
# The series needs ~60 terms at |z| = 4 and starts losing digits to
# cancellation beyond that; the contracted fraction converges in well
# under 250 iterations outside the disk except close to the cut.
SERIES_RADIUS = 4.0

_SERIES_BUDGET = 200
_CF_BUDGET = 500
_EPS = 1e-16
_TINY = 1e-300

# _EPS is below the spacing of doubles just under 1 (2**-53), so a step
# counts as converged only if it rounds to exactly 1.0.  At large |z|
# it can settle a few ulps short of 1.0 and stay there; a fraction
# whose last step is that close has converged to working precision.
_CF_LAST_STEP = 4.0 * 2.0 ** -53


def e1_series(z: complex) -> complex:
    """Power-series evaluation of E1(z).

    Uses E1(z) = -gamma - log(z) + sum_{k>=1} (-1)**(k+1) z**k / (k k!),
    principal branch of the logarithm.  Intended for ``|z| <= SERIES_RADIUS``;
    nothing enforces that here, but accuracy degrades outside it.

    Raises
    ------
    ConvergenceError
        If the term-to-total ratio has not dropped below 1e-16 after
        200 terms.
    """
    total = -EULER_GAMMA - cmath.log(z)
    term = 1.0 + 0.0j  # carries z**k / k!
    for k in range(1, _SERIES_BUDGET + 1):
        term *= z / k
        delta = term / k if k % 2 else -term / k
        total += delta
        if abs(delta) <= _EPS * abs(total):
            return total
    raise ConvergenceError(
        "E1 power series did not converge at z = {!r} within {} terms".format(
            z, _SERIES_BUDGET
        )
    )


def e1_cf_scaled(z: complex) -> complex:
    """Continued-fraction evaluation of exp(z)*E1(z).

    Evaluates the even contraction of the classical Stieltjes fraction,

        exp(z) E1(z) = 1/(z+1- 1**2/(z+3- 2**2/(z+5- ...))),

    with the modified Lentz forward scheme.  The contraction roughly
    halves the iteration count of the plain fraction and, unlike the
    plain form, still converges within budget for moderate ``|z|`` at
    arguments approaching the negative real axis.

    Raises
    ------
    ConvergenceError
        If 500 iterations do not reach a 1e-16 step and the last step
        is more than 4 * 2**-53 away from 1.  This is the
        expected outcome very close to the branch cut, where the
        fraction genuinely stalls; callers treat it as "value not
        available here", not as a bug.
    """
    b = z + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    f = d
    for k in range(1, _CF_BUDGET + 1):
        a = -float(k * k)
        b += 2.0
        d = b + a * d
        if d == 0.0:
            d = complex(_TINY)
        c = b + a / c
        if c == 0.0:
            c = complex(_TINY)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            return f
    if abs(delta - 1.0) <= _CF_LAST_STEP:
        return f
    raise ConvergenceError(
        "continued fraction for exp(z)*E1(z) stalled at z = {!r} "
        "after {} iterations".format(z, _CF_BUDGET)
    )


def e1_scaled(z: complex) -> complex:
    """exp(z)*E1(z): the series inside SERIES_RADIUS, the fraction outside."""
    if abs(z) <= SERIES_RADIUS:
        return cmath.exp(z) * e1_series(z)
    return e1_cf_scaled(z)
