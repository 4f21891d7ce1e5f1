"""Adaptive-quadrature oracle for the defining amplitude integrals.

Evaluates

    I(tau) = integral of f_I(eta) exp(-i eta tau) d eta,  f_I = 1/(eta**2 + 1/4),
    J(tau) = integral of f_J(eta) exp(-i eta tau) d eta,  f_J = eta/(eta**2 + 1/4),

over (-beta, inf) directly, sharing no code with the closed-form E1
path.  The two paths are compared in tests; if they agree, either both
are right or both are wrong in the same way, which independent
algorithms make unlikely.

Strategy: the finite range (-beta, eta_max) goes to an adaptive rule
specialized for oscillatory weights (Clenshaw-Curtis moments per panel,
so panel widths are tied to the oscillation scale internally); the
(eta_max, inf) tail, where the integrand decays only like 1/eta**2 (I)
or 1/eta (J), is replaced by its two leading integration-by-parts
boundary terms, with the third-term magnitude kept as the tail error
estimate.  The returned value must satisfy

    err_estimate <= rel_tol*|value| + abs_tol

or ToleranceNotMet is raised carrying the achieved estimate.

scipy is needed by this oracle only, and it is imported on the first
call of :func:`quad`, so importing this module (and with it the
package and the CLI) costs nothing until a quadrature is evaluated.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import DomainError, ToleranceNotMet
from .model import BreitWignerModel, check_beta, check_real, check_tau

_TWO_PI = 2.0 * math.pi

# Minimum number of radians of phase across the truncated tail.  The
# integration-by-parts tail form is asymptotic in 1/(omega*eta_max);
# below this the finite range is extended instead.
_MIN_TAIL_PHASE = 40.0


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and truncation controls for the oracle.

    rel_tol, abs_tol bound the total (quadrature + tail) error of a
    returned value; eta_max is where the analytic tail takes over;
    max_subdivisions caps the adaptive bisection of the finite range.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    eta_max: float = 1e4
    max_subdivisions: int = 10_000

    def __post_init__(self):
        check_real("rel_tol", self.rel_tol, positive=True)
        check_real("abs_tol", self.abs_tol, positive=True)
        check_real("eta_max", self.eta_max)
        if not self.eta_max > 1:
            raise DomainError("eta_max must exceed 1, got {!r}".format(self.eta_max))
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be an integer >= 1, got {!r}".format(
                self.max_subdivisions))


_DEFAULT_SETTINGS = QuadratureSettings()


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _budget(value: complex, settings: QuadratureSettings) -> float:
    # the error contract: what an estimate for `value` may not exceed
    return settings.rel_tol * abs(value) + settings.abs_tol


def _quad_options(settings: QuadratureSettings) -> dict:
    # a quarter of the error budget per real quadrature, so that two of
    # them plus the analytic tail stay inside the contract
    return dict(
        limit=settings.max_subdivisions,
        epsabs=0.25 * settings.abs_tol,
        epsrel=0.25 * settings.rel_tol,
        full_output=1,
    )


def _f_i(eta: float) -> float:
    return 1.0 / (eta * eta + 0.25)


def _f_i_prime(eta: float) -> float:
    u = eta * eta + 0.25
    return -2.0 * eta / (u * u)


def _f_i_second(eta: float) -> float:
    u = eta * eta + 0.25
    return (6.0 * eta * eta - 0.5) / (u * u * u)


def _f_j(eta: float) -> float:
    return eta / (eta * eta + 0.25)


def _f_j_prime(eta: float) -> float:
    u = eta * eta + 0.25
    return (0.25 - eta * eta) / (u * u)


def _f_j_second(eta: float) -> float:
    u = eta * eta + 0.25
    return 2.0 * eta * (eta * eta - 0.75) / (u * u * u)


def _oscillatory_piece(f, a: float, b: float, omega: float,
                       settings: QuadratureSettings) -> tuple[complex, float]:
    # integral of f(eta)*exp(-i*omega*eta) over (a, b) as two weighted
    # real quadratures
    kwargs = _quad_options(settings)
    res_cos = quad(f, a, b, weight="cos", wvar=omega, **kwargs)
    res_sin = quad(f, a, b, weight="sin", wvar=omega, **kwargs)
    value = complex(res_cos[0], -res_sin[0])
    # each estimate bounds its own component, so the modulus of the
    # complex error is bounded by the root sum of squares, not the sum
    err = math.hypot(res_cos[1], res_sin[1])
    return value, err


def _fourier_with_tail(f, f_prime, f_second, a: float, omega: float,
                       settings: QuadratureSettings) -> tuple[complex, float]:
    # Full integral over (a, inf) for omega != 0: adaptive rule up to
    # `upper`, then two integration-by-parts boundary terms
    #   exp(-i*omega*upper) * [f/(i*omega) + f'/(i*omega)**2]
    # for the remainder; |f''(upper)|/|omega|**3 estimates what is left.
    # At small |omega| that estimate can dominate the budget, so the
    # truncation point grows (a few informed jumps, capped) until the
    # analytic remainder fits; the caller still enforces the contract.
    upper = settings.eta_max
    if abs(omega) * upper < _MIN_TAIL_PHASE:
        upper = _MIN_TAIL_PHASE / abs(omega)
    if upper < a + settings.eta_max:
        # keep the finite-range part nonempty when the range starts high
        upper = a + settings.eta_max
    i_omega = 1j * omega
    for attempt in range(4):
        # a single panel spanning both the resonance peak and a long
        # extended range loses accuracy, so split at eta_max
        if a <= 0.0 and upper > 2.0 * settings.eta_max:
            body, err = _oscillatory_piece(f, a, settings.eta_max, omega,
                                           settings)
            far, far_err = _oscillatory_piece(f, settings.eta_max, upper,
                                              omega, settings)
            body += far
            err += far_err
        else:
            body, err = _oscillatory_piece(f, a, upper, omega, settings)
        boundary = cmath.exp(-i_omega * upper) * (
            f(upper) / i_omega + f_prime(upper) / (i_omega * i_omega)
        )
        tail_err = abs(f_second(upper)) / abs(omega) ** 3
        value = body + boundary
        budget = _budget(value, settings)
        # done, beyond help, or failing through the quadrature (not the
        # tail), where a longer range cannot improve matters
        if (err + tail_err <= budget or attempt == 3 or upper >= 1e9
                or tail_err <= 0.5 * budget):
            return value, err + tail_err
        # the remainder falls off at least like upper**-3 for these
        # integrands; jump to where that form meets a quarter budget
        factor = (tail_err / (0.25 * budget)) ** (1.0 / 3.0)
        upper = min(upper * max(factor, 2.0), 1e9)
    return value, err + tail_err


def _enforce(value: complex, err: float, settings: QuadratureSettings,
             what: str) -> complex:
    bound = _budget(value, settings)
    if err > bound:
        raise ToleranceNotMet(
            "{} error estimate {:.3e} exceeds the contracted bound {:.3e}".format(
                what, err, bound
            ),
            achieved=err,
        )
    return value


# (f, f', f'', residue factor, odd?) of each kernel: the integrand and
# the two derivatives its analytic tail needs, and the full-line
# transform (the residue at eta = -i/2) over exp(-|omega|/2), from
# which the cancellation escape subtracts the lower wing
_KERNEL_I = (_f_i, _f_i_prime, _f_i_second, _TWO_PI, False)
_KERNEL_J = (_f_j, _f_j_prime, _f_j_second, -1j * math.pi, True)


def _half_line(kernel, beta: float, omega: float,
               settings: QuadratureSettings) -> tuple[complex, float]:
    # integral over (-beta, inf) for omega != 0 (omega > 0 for the odd
    # kernel, whose full-line transform flips sign with omega)
    f, f_prime, f_second, full_line, odd = kernel
    value, err = _fourier_with_tail(f, f_prime, f_second, -beta, omega, settings)
    if err > _budget(value, settings):
        # At large beta*|omega| the result is exponentially smaller than
        # the integrand's L1 mass and the rule cannot certify past its
        # roundoff floor.  Split off the full-line transform (elementary
        # residue at eta = -i/2) and integrate only the wing below the
        # lower limit, whose scale matches what survives; the odd
        # kernel's wing enters with the opposite sign, f_J(-eta) = -f_J(eta).
        pole = full_line * math.exp(-0.5 * abs(omega))
        wing, wing_err = _fourier_with_tail(f, f_prime, f_second, beta, -omega,
                                            settings)
        if wing_err < err:
            value, err = (pole + wing if odd else pole - wing), wing_err
    return value, err


# A quadrature scan row asks for I twice at one point, through the
# amplitude and through J/I; the memo lets both share one integration
# while each keeps its own call (and benchmark span).  Settings is a
# frozen dataclass, so it is part of the key.
@functools.lru_cache(maxsize=1)
def _i_signed(beta: float, omega: float,
              settings: QuadratureSettings) -> tuple[complex, float]:
    # I with an arbitrary-sign frequency; omega = +tau is the physical
    # case, the opposite sign exists so conjugation symmetry can be
    # verified by an honest reevaluation rather than by construction.
    if omega == 0.0:
        res = quad(_f_i, -beta, settings.eta_max, **_quad_options(settings))
        # exact antiderivative of f_I is 2*arctan(2*eta); the tail
        # correction is therefore exact, contributing no error.
        tail = math.pi - 2.0 * math.atan(2.0 * settings.eta_max)
        return complex(res[0] + tail, 0.0), res[1]
    return _half_line(_KERNEL_I, beta, omega, settings)


def i_by_quadrature(beta: float, tau: float,
                    settings: QuadratureSettings | None = None) -> complex:
    """Amplitude integral I(tau) by direct numerical integration.

    Parameters
    ----------
    beta : float
        Lower limit parameter, > 0.
    tau : float
        Dimensionless time, >= 0 (the integral converges absolutely, so
        tau = 0 is fine here, unlike the closed-form path).
    settings : QuadratureSettings, optional

    Raises
    ------
    ToleranceNotMet
        If the combined quadrature and tail error estimate does not
        meet rel_tol*|I| + abs_tol.
    """
    check_beta(beta)
    check_tau(tau, zero_ok=True)
    s = settings or _DEFAULT_SETTINGS
    value, err = _i_signed(beta, float(tau), s)
    return _enforce(value, err, s, "I({}) quadrature".format(tau))


def j_by_quadrature(beta: float, tau: float,
                    settings: QuadratureSettings | None = None) -> complex:
    """Energy-weighted integral J(tau) by direct numerical integration.

    Requires tau > 0 strictly: the integrand falls off only like
    1/eta, so at tau = 0 the integral diverges logarithmically and for
    tau > 0 it converges only conditionally, through the oscillation.
    """
    check_beta(beta)
    check_tau(tau, hint=" (J diverges logarithmically at tau = 0)")
    s = settings or _DEFAULT_SETTINGS
    tau = float(tau)
    value, err = _half_line(_KERNEL_J, beta, tau, s)
    return _enforce(value, err, s, "J({}) quadrature".format(tau))


def amplitude_by_quadrature(model: BreitWignerModel, tau: float,
                            settings: QuadratureSettings | None = None) -> complex:
    """Survival amplitude through the oracle path, same phase convention
    as the closed-form amplitude: (N/2pi) exp(-i beta tau) I(tau).

    No special-casing at tau = 0; the normalization a(0) = 1 must come
    out of the quadrature itself (to within tolerance), which is part
    of what makes this an independent check.
    """
    n = model.normalization()
    i_val = i_by_quadrature(model.beta, tau, settings)
    return n / _TWO_PI * cmath.exp(-1j * model.beta * tau) * i_val
