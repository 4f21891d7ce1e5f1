"""Complex exponential integral E1 on the principal branch.

Public, validated surface over the kernels in ``_kernels_py``.
Everything the rest of the package needs from special-function land is
here: the overflow-safe scaled G(z) = exp(z)*E1(z), and E1 itself as
exp(-z)*G(z).

Both functions satisfy Schwarz reflection, E1(conj z) = conj E1(z),
because every constant in the underlying kernels is real.
"""

from __future__ import annotations

import cmath
import math

from . import _kernels_py as kernels
from .errors import DomainError

EULER_GAMMA = kernels.EULER_GAMMA

# exp(-z) exceeds double range once Re z < -709.78; stay clear of it.
_UNSCALED_LIMIT = -700.0


def _checked(z) -> complex:
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError("E1 argument must be finite, got {!r}".format(w))
    if w == 0:
        raise DomainError("E1 diverges logarithmically at z = 0")
    if w.imag == 0.0 and w.real < 0.0:
        raise DomainError(
            "z = {!r} lies on the branch cut of E1 (negative real axis)".format(w)
        )
    return w


def exp_integral_e1(z) -> complex:
    """Exponential integral E1(z), principal branch.

    Parameters
    ----------
    z : complex
        Argument; must be nonzero and off the negative real axis.

    Returns
    -------
    complex
        E1(z) = integral of exp(-u)/u over the ray from z to +infinity,
        relative error <= 1e-12 at every argument off the cut, however
        close to it.

    Raises
    ------
    DomainError
        If ``z`` is zero, non-finite, or on the branch cut.
    OverflowError
        If Re z < -700, where the exp(-z) factor exceeds double range;
        use :func:`exp_integral_e1_scaled` there.
    """
    w = _checked(z)
    if w.real < _UNSCALED_LIMIT:
        raise OverflowError(
            "exp(-z)*[exp(z) E1(z)] overflows double range at z = {!r}; "
            "call exp_integral_e1_scaled instead".format(w)
        )
    return cmath.exp(-w) * kernels.e1_scaled(w)


def exp_integral_e1_scaled(z) -> complex:
    """Scaled exponential integral G(z) = exp(z)*E1(z).

    Finite for arbitrarily large |Re z| (G(z) ~ 1/z as |z| grows), which
    is what makes products like exp(tau)*E1(z(tau)) computable at large
    tau.  Same domain and error behavior as :func:`exp_integral_e1`,
    minus the overflow case.
    """
    return kernels.e1_scaled(_checked(z))
