"""The scaled exponential integral G(z) = exp(z)*E1(z), principal branch.

G is all the package needs from special-function land: it stays finite
where exp(-z) or E1 alone would overflow, and E1 itself is exp(-z)*G(z)
wherever that product is representable.  :func:`exp_integral_e1_scaled`
is the one entry point: it checks its argument, then picks one of three
kernels, each of a length that follows from z before its loop starts.
The asymptotic sum (DLMF 6.12(i)) takes ``|z| >= ASYMPTOTIC_RADIUS``,
the power series (DLMF 6.6.2) ``|z| + Re z <= SERIES_SPREAD``, and the
continued fraction (DLMF 6.9), evaluated backward, everywhere else.
The kernels themselves expect a checked argument: nonzero, finite and
off the negative real axis.  G satisfies Schwarz reflection,
G(conj z) = conj G(z), because every constant in the kernels is real.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286

# The power series runs where |z| + Re z <= SERIES_SPREAD.  Its terms
# z**k/(k k!) sum in modulus to about e**|z|/|z|, against |E1(z)| ~
# e**-Re(z)/|z|, so rounding in the sum is amplified by about
# e**(|z| + Re z): at most e**4 here.  From ASYMPTOTIC_RADIUS on the
# asymptotic sum takes every argument, and the continued fraction the
# rest, where (Re sqrt z)**2 = (|z| + Re z)/2 > 2 bounds its depth.
SERIES_SPREAD = 4.0
ASYMPTOTIC_RADIUS = 50.0


def _series_table(radius: float) -> tuple:
    # Entry q - 1 serves (q - 1)/4 < |z| <= q/4.  It holds the Horner
    # coefficients (-1)**(k+1)/(k k!) for k = n, ..., 1, where n is the
    # fewest terms whose first omitted one, r**(n+1)/((n+1)(n+1)!) at
    # r = q/4, is at most 2**-56 times a floor under |E1| there:
    # e**-r/(r + 2) on the whole disk |z| <= r <= 4 (E1(r) > e**-r/(r + 2),
    # DLMF 6.8), and e**(s - 4)/(s + 2) at s = r - 1/4 >= 4 where
    # |z| + Re z <= 4, the only place the entry point sends such |z|.  The
    # omitted terms fall off faster than by half each, so truncation
    # costs under 2**-55 relative: 12 terms for |z| <= 1/4, 33 for
    # |z| <= 4 and 124 for |z| <= 50.
    lengths, coeffs, fact = [], [], 1.0   # fact = n! for n = len(coeffs)
    for q in range(1, int(4.0 * radius) + 1):
        r = 0.25 * q
        if r <= SERIES_SPREAD:
            floor = 2.0 ** -56 * math.exp(-r) / (r + 2.0)
        else:
            floor = 2.0 ** -56 * math.exp(r - 0.25 - SERIES_SPREAD) / (r + 1.75)
        n = len(coeffs)
        while r ** (n + 1) / ((n + 1) * (n + 1) * fact) > floor:
            n += 1
            fact *= n
            coeffs.append((1.0 if n % 2 else -1.0) / (n * fact))
        lengths.append(n)
    horner = tuple(reversed(coeffs))
    return tuple(horner[-n:] for n in lengths)


_SERIES_HORNER = _series_table(ASYMPTOTIC_RADIUS)


def _asymptotic_terms() -> tuple:
    # Entry e serves 2**(e-1) <= |z| < 2**e, the last one every larger
    # |z|: the fewest terms n whose first omitted one, n!/|z|**n relative
    # to the first, is at most 2**-60 at the smallest |z| served.  The
    # margin under 2**-53 covers the remainder's growth near the cut.
    counts = []
    for e in range(33):
        rho = max(2.0 ** (e - 1), ASYMPTOTIC_RADIUS)
        n, term = 1, 1.0 / rho
        while term > 2.0 ** -60:
            n += 1
            term *= n / rho
        counts.append(n)
    return tuple(counts)


_ASYMPTOTIC_TERMS = _asymptotic_terms()


def e1_series(z: complex) -> complex:
    """Power-series evaluation of E1(z).

    Uses E1(z) = -gamma - log(z) + sum_{k>=1} (-1)**(k+1) z**k / (k k!),
    principal branch of the logarithm.  The sum is a Horner polynomial in
    z whose length depends only on |z| (12 to 33 terms on |z| <= 4, up to
    124 on |z| <= 50), so no term is tested for convergence.  Truncation
    stays under 2**-55 relative where :func:`exp_integral_e1_scaled`
    sends z; rounding grows like e**(|z| + Re z), which is why it sends
    only arguments with ``|z| + Re z <= SERIES_SPREAD`` here.

    Raises
    ------
    ValueError
        For |z| > 50, beyond the tabulated lengths.
    """
    r = abs(z)
    if r > ASYMPTOTIC_RADIUS:
        raise ValueError(
            "the E1 power series is tabulated for |z| <= {}, got z = {!r}".format(
                ASYMPTOTIC_RADIUS, z))
    acc = 0.0
    # the entry for ceil(4 |z|) quarters
    for c in _SERIES_HORNER[int(-(-4.0 * r // 1.0)) - 1]:
        acc = acc * z + c
    return -EULER_GAMMA - cmath.log(z) + acc * z


def e1_cf_scaled(z: complex) -> complex:
    """Continued-fraction evaluation of exp(z)*E1(z).

    Evaluates the even contraction of the classical Stieltjes fraction,

        exp(z) E1(z) = 1/(z+1- 1**2/(z+3- 2**2/(z+5- ...))),

    backward from a fixed depth n (DLMF 3.10(iii)): t = k**2/(z + 2k + 1 - t)
    for k = n, ..., 1, then 1/(z + 1 - t).  Its truncation error falls
    like exp(-4 sqrt(n) Re sqrt(z)), so n = ceil(90/(Re sqrt z)**2) + 11,
    at most 56 where :func:`exp_integral_e1_scaled` sends z.  No step is
    tested for convergence.
    """
    t = 0.0
    for k in range(math.ceil(180.0 / (abs(z) + z.real)) + 11, 0, -1):
        t = k * k / (z + (2 * k + 1) - t)
    return 1.0 / (z + 1.0 - t)


def e1_asymptotic_scaled(z: complex) -> complex:
    """Asymptotic sum for exp(z)*E1(z) at large |z|.

    Sums ``(-1)**k k!/z**(k+1)`` for k = 0, ..., n - 1 as a Horner
    polynomial in 1/z (DLMF 6.12(i)), for |ph z| < pi.  The count n
    depends only on the binary exponent of |z|: 28 terms on 50 <= |z| <
    64, 2 from |z| = 2**31 on.
    """
    w = 1.0 / z
    s = 1.0
    for k in range(_ASYMPTOTIC_TERMS[min(math.frexp(abs(z))[1], 32)] - 1, 0, -1):
        s = 1.0 - k * w * s
    return w * s


def exp_integral_e1_scaled(z) -> complex:
    """Scaled exponential integral G(z) = exp(z)*E1(z).

    Parameters
    ----------
    z : int, float or complex
        Argument; must be nonzero, finite and off the negative real axis.
        A negative real part with imaginary part -0.0 stands for the
        lower lip of the cut, as in ``cmath.log``, and gets the limit
        from below; +0.0, as every int and float has, is refused.

    Returns
    -------
    complex
        G(z), where E1(z) is the integral of exp(-u)/u over the ray from
        z to +infinity; relative error <= 1e-12 at every argument off the
        cut, however close to it.  Finite for arbitrarily large |Re z|
        (G(z) ~ 1/z as |z| grows), which is what makes products like
        exp(tau)*E1(z(tau)) computable at large tau.

    Raises
    ------
    DomainError
        If ``z`` is not an int, float or complex, or is zero, non-finite,
        or on the branch cut with imaginary part +0.0.
    """
    if z.__class__ is complex:  # what the package's own calls pass
        w = z
    elif isinstance(z, (int, float, complex)):
        w = complex(z)
    else:  # complex() would parse a string
        raise DomainError(
            "E1 argument must be an int, float or complex, got {!r}".format(z))
    # one test passes every finite, nonzero argument off the real axis,
    # which is all the package's own calls pass; abs raises OverflowError
    # only for a finite w too large for it, which the checks would pass
    r = abs(w)
    if not (0.0 < r < math.inf and w.imag):
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise DomainError("E1 argument must be finite, got {!r}".format(w))
        if w == 0:
            raise DomainError("E1 diverges logarithmically at z = 0")
        # -0.0 selects the lower lip of the cut, as in cmath.log
        if w.imag == 0.0 and w.real < 0.0 and math.copysign(1.0, w.imag) > 0.0:
            raise DomainError(
                "z = {!r} lies on the branch cut of E1 (negative real axis)".format(w)
            )
    # each kernel is read as a module global here, so a patched one runs
    if r >= ASYMPTOTIC_RADIUS:
        return e1_asymptotic_scaled(w)
    if r + w.real <= SERIES_SPREAD:
        return cmath.exp(w) * e1_series(w)
    return e1_cf_scaled(w)
