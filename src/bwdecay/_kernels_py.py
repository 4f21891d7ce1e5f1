"""Kernels for the exponential integral E1 off the branch cut.

The validated public surface over them is ``bwdecay.special``.  Callers
are expected to have validated their arguments (nonzero, off the
negative real axis).  Two kernels cover the plane: the power series
(DLMF 6.6.2), a Horner polynomial of fixed length near the origin, and
the continued fraction (DLMF 6.9) everywhere else, which iterates and
gives up near the cut.  :func:`e1_scaled` is the one choice between them.
"""

from __future__ import annotations

import cmath

from .errors import ConvergenceError

EULER_GAMMA = 0.57721566490153286

# The power series runs where it is accurate: |z| <= SERIES_RADIUS and
# |z| + Re z <= SERIES_SPREAD.  Its terms z**k/(k k!) sum in modulus to
# about e**|z|/|z|, against |E1(z)| ~ e**-Re(z)/|z|, so rounding in the
# sum is amplified by about e**(|z| + Re z): at most e**4 here.  Every
# other argument goes to the continued fraction, which converges in well
# under 250 steps there, except close to the negative real axis.
SERIES_RADIUS = 4.0
SERIES_SPREAD = 4.0

# e1_series is tabulated out to twice the radius, so that the seam can
# be tested from both sides.
_SERIES_TABLE_RADIUS = 2.0 * SERIES_RADIUS

_CF_BUDGET = 500
_EPS = 1e-16
_TINY = 1e-300

# _EPS is below the spacing of doubles just under 1 (2**-53), so a step
# counts as converged only if it rounds to exactly 1.0.  At large |z|
# it can settle a few ulps short of 1.0 and stay there; a fraction
# whose last step is that close has converged to working precision.
_CF_LAST_STEP = 4.0 * 2.0 ** -53

# the partial numerators -k**2 of the fraction, one per step
_CF_NUMERATORS = tuple(-float(k * k) for k in range(1, _CF_BUDGET + 1))


def _series_table(radius: float) -> tuple:
    # Entry q - 1 serves (q - 1)/4 < |z| <= q/4.  It holds the Horner
    # coefficients (-1)**(k+1)/(k k!) for k = n, ..., 1, where n is the
    # fewest terms whose first omitted one, r**(n+1)/((n+1)(n+1)!) at
    # r = q/4, is at most 2**-56 e**-r/(r + 2).  That floor lies under
    # |E1| on the whole disk |z| <= r (E1(r) > e**-r/(r + 2), DLMF 6.8),
    # so truncation costs under 2**-55 relative (the omitted terms fall
    # off at least geometrically): 12 terms for |z| <= 1/4, 33 for
    # |z| <= 4.
    table, coeffs, fact = [], [], 1.0     # fact = n! for n = len(coeffs)
    for q in range(1, int(4.0 * radius) + 1):
        r = 0.25 * q
        floor = 2.0 ** -56 * cmath.exp(-r).real / (r + 2.0)
        n = len(coeffs)
        while r ** (n + 1) / ((n + 1) * (n + 1) * fact) > floor:
            n += 1
            fact *= n
            coeffs.append((1.0 if n % 2 else -1.0) / (n * fact))
        table.append(tuple(reversed(coeffs)))
    return tuple(table)


_SERIES_HORNER = _series_table(_SERIES_TABLE_RADIUS)


def e1_series(z: complex) -> complex:
    """Power-series evaluation of E1(z).

    Uses E1(z) = -gamma - log(z) + sum_{k>=1} (-1)**(k+1) z**k / (k k!),
    principal branch of the logarithm.  The sum is a Horner polynomial in
    z whose length depends only on |z| (12 to 33 terms on |z| <= 4), so
    no term is tested for convergence.  Truncation stays under 2**-55
    relative; rounding grows like e**(|z| + Re z), which is why
    :func:`e1_scaled` sends only arguments with ``|z| + Re z <=
    SERIES_SPREAD`` here.

    Raises
    ------
    ValueError
        For |z| > 8, beyond the tabulated lengths.
    """
    r = abs(z)
    if r > _SERIES_TABLE_RADIUS:
        raise ValueError(
            "the E1 power series is tabulated for |z| <= {}, got z = {!r}".format(
                _SERIES_TABLE_RADIUS, z))
    acc = 0.0
    # the entry for ceil(4 |z|) quarters
    for c in _SERIES_HORNER[int(-(-4.0 * r // 1.0)) - 1]:
        acc = acc * z + c
    return -EULER_GAMMA - cmath.log(z) + acc * z


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
    for a in _CF_NUMERATORS:
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
    """exp(z)*E1(z), the one choice between the two kernels.

    The series where ``|z| <= SERIES_RADIUS`` and ``|z| + Re z <=
    SERIES_SPREAD`` (its cancellation is at most e**4 there), the
    continued fraction everywhere else.
    """
    r = abs(z)
    if r <= SERIES_RADIUS and r + z.real <= SERIES_SPREAD:
        return cmath.exp(z) * e1_series(z)
    return e1_cf_scaled(z)
