"""Scaled complex exponential integral G(z) = exp(z)*E1(z), principal branch.

Public, validated surface over the kernels in ``_kernels_py``.  G is all
the rest of the package needs from special-function land: it stays
finite where exp(-z) or E1 alone would overflow, and E1 itself is
exp(-z)*G(z) wherever that product is representable.

G satisfies Schwarz reflection, G(conj z) = conj G(z), because every
constant in the underlying kernels is real.
"""

from __future__ import annotations

import math

from . import _kernels_py as kernels
from .errors import DomainError


def _checked(z) -> complex:
    if z.__class__ is complex:  # what the package's own calls pass
        w = z
    elif isinstance(z, (int, float, complex)):
        w = complex(z)
    else:  # complex() would parse a string
        raise DomainError(
            "E1 argument must be an int, float or complex, got {!r}".format(z))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError("E1 argument must be finite, got {!r}".format(w))
    if w == 0:
        raise DomainError("E1 diverges logarithmically at z = 0")
    # -0.0 selects the lower lip of the cut, as in cmath.log
    if w.imag == 0.0 and w.real < 0.0 and math.copysign(1.0, w.imag) > 0.0:
        raise DomainError(
            "z = {!r} lies on the branch cut of E1 (negative real axis)".format(w)
        )
    return w


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
    return kernels.e1_scaled(_checked(z))
