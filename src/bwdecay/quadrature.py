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
carry a positive weight, and the two share their nodes.  At tau = 0 I
alone is integrated along the same ray, with no weight.  Only tau >= 0
is integrated: I(-tau) = conj(I(tau)) holds for the integral, and no
caller asks for it.

The rule substitutes t = s tau, then t = u/(1 - u), and splits u in
[0, 1] at the image of the pole, t = tau/2.  It starts from panels
graded to the integrand's two features: halved toward the pole image
from both sides, down to its half-width beta*tau*(1 - u)**2 in u, while
the image's weight e^{-tau/2} counts; and halved toward u = 1, for the
decay e^{-t}, where the ray integral counts.  The start holds at most
45 panels.  From there it is a globally adaptive Gauss-Kronrod 7/15
rule (R. Piessens et al., QUADPACK, Springer 1983) applied to I and J
on the same panels: it bisects the panel with the largest error
relative to its budget, until each of I and J carries a certificate

    err = (sum of |K15 - G7| over the panels) + roundoff floor
       <= REL_TOL*|value| + ABS_TOL,

or MAX_PANELS panels exist.  Each public function raises
ToleranceNotMet when its own certificate misses, carrying the achieved
estimate.  The module is pure Python and needs no third-party package.
"""

from __future__ import annotations

import functools
import math

from .errors import ToleranceNotMet
from .model import _TAU_FLOOR, _TWO_PI, BreitWignerModel, _phase, check_real, check_tau

# The oracle's contract: a returned value is within REL_TOL*|value| +
# ABS_TOL by its certificate, found on at most MAX_PANELS panels, the
# graded start's included.
REL_TOL = 1e-10
ABS_TOL = 1e-14
MAX_PANELS = 10_000

# QUADPACK's roundoff floor: 50 eps of the magnitude summed
_ROUNDOFF = 50.0 * 2.0 ** -52

# A panel narrower than this share of its right end is not split; its
# nodes would round onto the endpoints.
_MIN_WIDTH = 1e-13

# The split at the pole image t = tau/2 is capped where e^{-t} underflows.
_MAX_BREAK = 745.0

# The graded start halves toward the pole image at most _HALVINGS times
# from each side, and only while the image's weight e^{-t} exceeds
# ABS_TOL.  It adds _DECAY_POINTS dyadic points toward u = 1 where the
# ray integral needs a relative accuracy finer than _RAY_CUT.  So it
# holds at most 2*20 + 3 + 2 = 45 panels, whatever beta and tau.
_HALVINGS = 20
_POLE_CUT = -math.log(ABS_TOL)
_DECAY_POINTS = 3
_RAY_CUT = 1e-5

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


def _panel(a: float, b: float, beta: float, k: complex, rate: float) -> tuple:
    # Gauss-Kronrod 7/15 of both ray integrands over u in [a, b]:
    # (K15, |K15 - G7|, K15 of the modulus) for I, then the same for J.
    # The pole factors 1/(eta -+ i/2) never form eta**2, so a huge beta
    # underflows to 0 instead of overflowing to NaN.
    exp = math.exp
    neg_rate = -rate
    h = 0.5 * (b - a)
    c = a + h
    e = 1.0 - c
    ki = gi = kj = gj = 0j
    ai = aj = 0.0
    for x, wk, wg in _NODES:
        hx = h * x
        v = 1.0 / (e - hx)  # 1/(1 - u), without cancellation near u = 1
        t = (c + hx) * v
        w = exp(neg_rate * t) * v * v
        eta = k * t - beta
        p = 1.0 / (eta - 0.5j)
        q = 1.0 / (eta + 0.5j)
        fi = w * (p * q)
        fj = w * (p + q)  # twice the J integrand
        ki += wk * fi
        ai += wk * abs(fi)
        kj += wk * fj
        aj += wk * abs(fj)
        if wg:  # eight of the fifteen nodes are Kronrod's alone
            gi += wg * fi
            gj += wg * fj
    hj = 0.5 * h
    return ki * h, abs(ki - gi) * h, ai * h, kj * hj, abs(kj - gj) * hj, aj * hj


def _start(beta: float, omega: float, scale: float) -> list:
    # The first panels, graded to the integrand's two features in u.  Each
    # point bisects a panel made before it, so the rule could reach this
    # partition itself; starting on it saves the evaluations of the
    # coarser panels that bisection would throw away.  At most
    # MAX_PANELS - 2 points join the split at the pole image, so that
    # MAX_PANELS counts every panel.
    t_break = min(0.5 * scale, _MAX_BREAK)
    u_break = t_break / (1.0 + t_break)
    left, right, decay = [], [], []
    if t_break < _POLE_CUT:
        # the pole factor 1/(eta -+ i/2) peaks at u_break, over a
        # half-width beta*scale in t and w in u: halve toward it from both
        # sides down to about w, or _HALVINGS times where w underflows
        w = beta * scale * (1.0 - u_break) ** 2
        a, b = 0.0, 1.0
        while u_break - a > w and len(left) < _HALVINGS:
            a = 0.5 * (a + u_break)
            left.append(a)
        while b - u_break > w and len(right) < _HALVINGS:
            b = 0.5 * (u_break + b)
            right.append(b)
    # the weight e^{-t} falls off over t = 1, 3, 7, ...: halve the last
    # panel toward u = 1 where the ray integral must be resolved finely.
    # At large beta the ray integral of J, of size 1/(beta*scale), sits
    # under a budget the pole term sets, and needs only _RAY_CUT relative
    # accuracy or coarser; a panel or two resolve it there.
    if omega and beta * scale * (REL_TOL * math.pi * math.exp(-0.5 * scale)
                                 + ABS_TOL) < _RAY_CUT:
        a = right[0] if right else u_break
        for _ in range(_DECAY_POINTS):
            a = 0.5 * (a + 1.0)
            decay.append(a)
    points = sorted([0.0, u_break, 1.0, *(left + right + decay)[:max(0, MAX_PANELS - 2)]])
    return list(zip(points, points[1:]))


def quad(beta: float, omega: float) -> tuple:
    """I and J at frequency ``omega`` >= 0 by the adaptive rule on the ray.

    Returns ((I, err_I), (J, err_J)), each error the certificate of the
    module docstring.  At omega = 0, where J diverges, only I drives the
    refinement and the J pair is None.  Certificates are reported, not
    enforced.
    """
    scale = omega or 1.0
    rate = 1.0 if omega else 0.0
    # eta = -beta - i t/scale on the ray; the ray integral enters I and J
    # times rot, of modulus 1/scale
    k = -1j / scale
    rot = k * _phase(beta, omega)
    decay = math.exp(-0.5 * omega)
    pole_i, pole_j = _TWO_PI * decay, -1j * math.pi * decay
    pole_floor_i, pole_floor_j = _ROUNDOFF * abs(pole_i), _ROUNDOFF * abs(pole_j)
    rel, tol = REL_TOL, ABS_TOL
    # columns: panel ends, then the six sums of _panel, one list each
    ends = _start(beta, omega, scale)
    cols = [[], [], [], [], [], []]
    for a, b in ends:
        for col, value in zip(cols, _panel(a, b, beta, k, rate)):
            col.append(value)
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
        if (not (wi or wj) or len(ends) >= MAX_PANELS
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


def _enforce(value: complex, err: float, what: str, tau: float) -> complex:
    bound = REL_TOL * abs(value) + ABS_TOL
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
@functools.lru_cache(maxsize=1)
def _integrals(beta: float, omega: float) -> tuple:
    return quad(beta, omega)


def i_by_quadrature(beta: float, tau: float) -> complex:
    """Amplitude integral I(tau) by direct numerical integration.

    Parameters
    ----------
    beta : float
        Lower limit parameter, > 0.
    tau : float
        Dimensionless time, >= 0 (the integral converges absolutely, so
        tau = 0 is fine here, unlike the closed-form path).  Below
        tau = 1e-18 the integral is taken at tau = 0, as the closed form
        takes its limit there.

    Raises
    ------
    ToleranceNotMet
        If the certified error of I exceeds REL_TOL*|I| + ABS_TOL
        (1e-10 relative, 1e-14 absolute) within MAX_PANELS panels.
    """
    check_real("beta", beta, positive=True)
    check_tau(tau, zero_ok=True)
    # below the floor I(tau) is I(0) to within an ulp
    omega = float(tau) if tau >= _TAU_FLOOR else 0.0
    value, err = _integrals(beta, omega)[0]
    return _enforce(value, err, "I", tau)


def j_by_quadrature(beta: float, tau: float) -> complex:
    """Energy-weighted integral J(tau) by direct numerical integration.

    Requires tau > 0 strictly: the integrand falls off only like
    1/eta, so at tau = 0 the integral diverges logarithmically and for
    tau > 0 it converges only conditionally, through the oscillation.
    Raises ToleranceNotMet as :func:`i_by_quadrature` does.
    """
    check_real("beta", beta, positive=True)
    check_tau(tau, hint=" (J diverges logarithmically at tau = 0)")
    tau = float(tau)
    value, err = _integrals(beta, tau)[1]
    return _enforce(value, err, "J", tau)


def amplitude_by_quadrature(model: BreitWignerModel, tau: float) -> complex:
    """Survival amplitude through the oracle path, same phase convention
    as the closed-form amplitude: (N/2pi) exp(-i beta tau) I(tau).

    No special-casing at tau = 0; the normalization a(0) = 1 must come
    out of the quadrature itself (to within tolerance), which is part
    of what makes this an independent check.  Raises ToleranceNotMet
    where :func:`i_by_quadrature` does.
    """
    n = model.normalization()
    # i_by_quadrature first: it validates beta and tau, which _phase expects
    i_val = i_by_quadrature(model.beta, tau)
    return n / _TWO_PI * _phase(model.beta, tau).conjugate() * i_val
