"""Quadrature oracle for the defining amplitude integrals.

Evaluates

    I(tau) = integral of f_I(eta) exp(-i eta tau) d eta,  f_I = 1/(eta**2 + 1/4),
    J(tau) = integral of f_J(eta) exp(-i eta tau) d eta,  f_J = eta/(eta**2 + 1/4),

over (-beta, inf) by numerical integration, sharing no code with the
closed-form E1 path.  The two paths are compared in tests; if they
agree, either both are right or both are wrong in the same way, which
independent algorithms make unlikely.

Strategy: for tau > 0 the contour is rotated down onto the ray
eta = -beta - i s, s >= 0.  It sweeps over the pole at eta = -i/2,
whose residue gives the exponential parts, and leaves

    I = 2 pi e^{-tau/2} - i e^{i beta tau} integral of e^{-s tau} f_I(-beta - i s) ds,
    J = -i pi e^{-tau/2} - i e^{i beta tau} integral of e^{-s tau} f_J(-beta - i s) ds

over s in (0, inf).  On the ray the integrands do not oscillate and
carry a positive weight, and the two share their nodes.  A negative
frequency rotates the contour up, past the pole at +i/2; at tau = 0 I
alone is integrated along the same ray, with no weight.

The rule substitutes t = s tau, then t = u/(1 - u), and splits u in
[0, 1] at the image of the pole, t = tau/2.  It is a globally adaptive
Gauss-Kronrod 7/15 rule (R. Piessens et al., QUADPACK, Springer 1983)
applied to I and J on the same panels: it bisects the panel with the
largest error relative to its budget, until each of I and J carries a
certificate

    err = (sum of |K15 - G7| over the panels) + roundoff floor
       <= rel_tol*|value| + abs_tol,

or ``max_subdivisions`` panels exist.  Each public function raises
ToleranceNotMet when its own certificate misses, carrying the achieved
estimate.  The module is pure Python and needs no third-party package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, ToleranceNotMet
from .model import BreitWignerModel, _phase, check_beta, check_real, check_tau

_TWO_PI = 2.0 * math.pi

# QUADPACK's roundoff floor: 50 eps of the magnitude summed
_ROUNDOFF = 50.0 * 2.0 ** -52

# A panel narrower than this share of its right end is not split; its
# nodes would round onto the endpoints.
_MIN_WIDTH = 1e-13

# The split at the pole image t = tau/2 is capped where e^{-t} underflows.
_MAX_BREAK = 745.0

# (node, Kronrod weight, Gauss weight) of the 7/15 pair on [-1, 1]
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0)
_NODES = tuple((s * x, wk, wg) for x, wk, wg in zip(_XGK, _WGK, _WG)
               for s in (1.0, -1.0)) + (
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),)


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and the panel cap of the oracle.

    rel_tol, abs_tol bound the certified error of a returned value;
    max_subdivisions caps the number of panels of the adaptive rule
    (the split at the pole image makes two to start with).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 10_000

    def __post_init__(self):
        check_real("rel_tol", self.rel_tol, positive=True)
        check_real("abs_tol", self.abs_tol, positive=True)
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be an integer >= 1, got {!r}".format(
                self.max_subdivisions))


_DEFAULT_SETTINGS = QuadratureSettings()


def _panel(a: float, b: float, beta: float, k: complex, rate: float) -> tuple:
    # Gauss-Kronrod 7/15 of both ray integrands over u in [a, b]:
    # (K15, |K15 - G7|, K15 of the modulus) for I, then the same for J.
    # The pole factors 1/(eta -+ i/2) never form eta**2, so a huge beta
    # underflows to 0 instead of overflowing to NaN.
    exp = math.exp
    h = 0.5 * (b - a)
    c = a + h
    e = 1.0 - c
    ki = gi = kj = gj = 0j
    ai = aj = 0.0
    for x, wk, wg in _NODES:
        hx = h * x
        v = 1.0 / (e - hx)  # 1/(1 - u), without cancellation near u = 1
        t = (c + hx) * v
        w = exp(-rate * t) * v * v
        eta = k * t - beta
        p = 1.0 / (eta - 0.5j)
        q = 1.0 / (eta + 0.5j)
        fi = w * (p * q)
        fj = w * (p + q)  # twice the J integrand
        ki += wk * fi
        gi += wg * fi
        ai += wk * abs(fi)
        kj += wk * fj
        gj += wg * fj
        aj += wk * abs(fj)
    hj = 0.5 * h
    return ki * h, abs(ki - gi) * h, ai * h, kj * hj, abs(kj - gj) * hj, aj * hj


def quad(beta: float, omega: float, settings: QuadratureSettings) -> tuple:
    """I and J at frequency ``omega`` by the adaptive rule on the ray.

    Returns ((I, err_I), (J, err_J)), each error the certificate of the
    module docstring.  At omega = 0, where J diverges, only I drives the
    refinement and the J pair is None.  Certificates are reported, not
    enforced.
    """
    sign = -1.0 if omega < 0 else 1.0
    scale = abs(omega) or 1.0
    rate = 1.0 if omega else 0.0
    # eta = -beta - i sign t/scale on the ray; the ray integral enters
    # I and J times rot, of modulus 1/scale
    k = -1j * sign / scale
    rot = k * _phase(beta, omega)
    decay = math.exp(-0.5 * abs(omega))
    pole_i, pole_j = _TWO_PI * decay, -1j * sign * math.pi * decay
    pole_floor_i, pole_floor_j = _ROUNDOFF * abs(pole_i), _ROUNDOFF * abs(pole_j)
    rel, tol = settings.rel_tol, settings.abs_tol
    t_break = min(0.5 * scale, _MAX_BREAK)
    u_break = t_break / (1.0 + t_break)
    # columns: panel ends, then the six sums of _panel, one list each
    ends = [(0.0, u_break), (u_break, 1.0)]
    cols = [list(pair) for pair in zip(_panel(0.0, u_break, beta, k, rate),
                                        _panel(u_break, 1.0, beta, k, rate))]
    errs_i, errs_j = cols[1], cols[4]
    while True:
        ri, ei, ai, rj, ej, aj = map(sum, cols)
        value_i, value_j = pole_i + rot * ri, pole_j + rot * rj
        floor_i = (_ROUNDOFF * ai) / scale + pole_floor_i
        floor_j = (_ROUNDOFF * aj) / scale + pole_floor_j
        err_i, err_j = ei / scale + floor_i, ej / scale + floor_j
        budget_i = rel * abs(value_i) + tol
        budget_j = rel * abs(value_j) + tol if omega else math.inf
        # an integral still uncertified weighs its panels' errors against
        # its budget; a NaN counts as certified here, so that it stops
        # the loop at once and fails the contract at the caller
        wi = 1.0 / budget_i if err_i > budget_i else 0.0
        wj = 1.0 / budget_j if err_j > budget_j else 0.0
        if (not (wi or wj) or len(ends) >= settings.max_subdivisions
                or floor_i > budget_i or floor_j > budget_j):
            break  # certified, out of panels, or below the roundoff floor
        top_i, top_j = max(errs_i), max(errs_j)
        worst = errs_i.index(top_i) if top_i * wi >= top_j * wj else errs_j.index(top_j)
        a, b = ends[worst]
        if b - a < _MIN_WIDTH * b:
            break
        mid = 0.5 * (a + b)
        ends[worst:worst + 1] = (a, mid), (mid, b)
        for col, left, right in zip(cols, _panel(a, mid, beta, k, rate),
                                    _panel(mid, b, beta, k, rate)):
            col[worst:worst + 1] = left, right
    return (value_i, err_i), ((value_j, err_j) if omega else None)


def _enforce(value: complex, err: float, settings: QuadratureSettings,
             what: str, tau: float) -> complex:
    bound = settings.rel_tol * abs(value) + settings.abs_tol
    # written so that a NaN value or estimate fails the contract too
    if not err <= bound:
        raise ToleranceNotMet(
            "{}({}) quadrature error estimate {:.3e} exceeds the contracted "
            "bound {:.3e}".format(what, tau, err, bound),
            achieved=err,
        )
    return value


# A quadrature scan row asks for I twice and for J once at one point,
# through the amplitude and through J/I; the memo lets all three share
# one integration while each keeps its own call (and benchmark span).
# Settings is a frozen dataclass, so it is part of the key.
@functools.lru_cache(maxsize=1)
def _integrals(beta: float, omega: float, settings: QuadratureSettings) -> tuple:
    return quad(beta, omega, settings)


def _i_signed(beta: float, omega: float,
              settings: QuadratureSettings) -> tuple[complex, float]:
    # I with an arbitrary-sign frequency; omega = +tau is the physical
    # case, the opposite sign exists so conjugation symmetry can be
    # verified by an honest reevaluation rather than by construction.
    return _integrals(beta, omega, settings)[0]


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
        If the certified error of I does not meet rel_tol*|I| + abs_tol.
    """
    check_beta(beta)
    check_tau(tau, zero_ok=True)
    s = settings or _DEFAULT_SETTINGS
    value, err = _i_signed(beta, float(tau), s)
    return _enforce(value, err, s, "I", tau)


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
    value, err = _integrals(beta, tau, s)[1]
    return _enforce(value, err, s, "J", tau)


def amplitude_by_quadrature(model: BreitWignerModel, tau: float,
                            settings: QuadratureSettings | None = None) -> complex:
    """Survival amplitude through the oracle path, same phase convention
    as the closed-form amplitude: (N/2pi) exp(-i beta tau) I(tau).

    No special-casing at tau = 0; the normalization a(0) = 1 must come
    out of the quadrature itself (to within tolerance), which is part
    of what makes this an independent check.
    """
    n = model.normalization()
    # i_by_quadrature first: it validates beta and tau, which _phase expects
    i_val = i_by_quadrature(model.beta, tau, settings)
    return n / _TWO_PI * _phase(model.beta, tau).conjugate() * i_val
