"""Late-time asymptotic expansions of the amplitude, energy and decay rate.

Repeated integration by parts of the amplitude integrals at the lower
limit eta = -beta produces, with D = beta**2 + 1/4 and x = i/tau,

    I(tau) ~ x exp(i beta tau)/D * sum_k ci_k x**k,
    J(tau) ~ x exp(i beta tau)/D * sum_k cj_k x**k,
    J/I    ~ sum_k cr_k x**k,

with five coefficients retained per series.  With f = 1/(eta**2 + 1/4)
and g = eta f, ci_k = (-1)**(k+1) D f^(k)(-beta) and cj_k likewise of g.
Leibniz's rule on (eta**2 + 1/4) f = 1 and (eta**2 + 1/4) g = eta at
eta = -beta gives one recurrence for both tables (s = 0, c_0 = -1 for
ci; s = 1, c_0 = beta for cj), and as ci_0 = -1, long division of the J
series by the I series gives cr:

    c_k  = [k == 1] s - (2 k beta c_{k-1} + k (k-1) c_{k-2}) / D,
    cr_n = sum_{k<n} cr_k ci_{n-k} - cj_n.

D overflows from beta ~ 1.3e154, and ci_4 ~ -120/D**2 nears the
subnormals from 2.5e77, long before the cr_4 ~ 44/beta**3 it enters.
So the tables are run on beta and 1/2 scaled by 2**-e, with 2**e in
(beta, 2 beta] (e = 0 below beta = 1): each step is the unscaled one
exactly scaled, no entry exceeds about 2**k k!, and ldexp removes the
scale (2**(k e) of ci_k, 2**((k-1) e) of cj_k and cr_k), exactly above
the subnormals.  Below beta ~ 2.5e77 the tables are the unscaled ones.

The widely quoted closed forms of the ratio's third and fourth
coefficients, (1+24b-28b**2-96b**3+64b**4)/(4 D**3) and
(6-21b+48b**2-64b**3-288b**4+464b**5)/(4 D**4), are wrong except at
beta = 1; the division gives (1-8b**2)/D**2 and b(44b**2-15)/D**3.
The tests keep the quoted forms as data so the discrepancy stays tested.

These are asymptotic, not convergent, series: past the optimal
truncation index the terms grow again.  Evaluations where the last
retained term exceeds the previous one emit AsymptoticRangeWarning
instead of failing, since that regime is sometimes probed on purpose.
"""

from __future__ import annotations

import functools
import math
import warnings

from .model import _TWO_PI, BreitWignerModel, check_int, check_real, check_tau

# Terms retained: five coefficients per table, all five of the ratio's by
# the ratio and energy series, the first four of the I brace by the
# late-time amplitude.
SERIES_TERMS = 5
AMPLITUDE_TERMS = 4


class AsymptoticRangeWarning(UserWarning):
    """Last retained term grew: outside the series' reliable region."""


@functools.lru_cache(maxsize=1)
def _tables(beta: float) -> tuple:
    # (ci, cj, cr) by the module docstring's recurrence and division, on
    # x = beta 2**-e and h = 2**-e / 2, with b = x/d and r = 1/d.  One
    # entry: a scan or a cross-over solve asks for one beta throughout.
    e = max(math.frexp(beta)[1], 0)
    x, h = math.ldexp(beta, -e), math.ldexp(0.5, -e)
    d = x * x + h * h
    b, r = x / d, 1.0 / d
    ci, cj, cr = [-1.0], [x], [-x]
    for k in range(1, SERIES_TERMS):
        # at k = 1 the weight of c_{k-2} is 0, whatever c[-1] holds
        for c, s in ((ci, 0.0), (cj, 1.0 if k == 1 else 0.0)):
            c.append(s - 2 * k * b * c[k - 1] - k * (k - 1) * r * c[k - 2])
        cr.append(sum(cr[n] * ci[k - n] for n in range(k)) - cj[k])
    return (tuple(math.ldexp(c, -k * e) for k, c in enumerate(ci)),
            tuple(math.ldexp(c, (1 - k) * e) for k, c in enumerate(cj)),
            tuple(math.ldexp(c, (1 - k) * e) for k, c in enumerate(cr)))


def i_brace_coefficients(beta: float) -> tuple:
    """Five brace coefficients of the I expansion, in powers of i/tau."""
    return _tables(beta)[0]


def j_brace_coefficients(beta: float) -> tuple:
    """Five brace coefficients of the J expansion, in powers of i/tau."""
    return _tables(beta)[1]


def ratio_coefficients(beta: float) -> tuple:
    """Five coefficients of J/I in powers of i/tau (regenerated values)."""
    return _tables(beta)[2]


def _series(coefficients, beta: float, tau: float, order: int, top: int,
            label: str) -> complex:
    # The one series core: validate the arguments, then Horner-evaluate
    # the first `order` of coefficients(beta) at x = i/tau.  Warns, at
    # the public function's caller (stacklevel 3), when the last retained
    # term exceeds the one before it.
    check_real("beta", beta, positive=True)
    check_tau(tau)
    check_int("order", order, 1, top)
    coeffs = coefficients(beta)[:order]
    x = 1j / tau
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    if order >= 2:
        scale = abs(x)
        last = abs(coeffs[-1]) * scale ** (order - 1)
        prev = abs(coeffs[-2]) * scale ** (order - 2)
        if last > prev:
            warnings.warn(
                "{} series at tau = {:g}: last retained term ({:.3e}) exceeds "
                "the previous one ({:.3e}); outside the reliable region".format(
                    label, tau, last, prev
                ),
                AsymptoticRangeWarning,
                stacklevel=3,
            )
    return acc


def ratio_series(beta: float, tau: float, order: int) -> complex:
    """Late-time J/I truncated to ``order`` terms (1..5).

    Order 1 is the constant -beta; each further term adds one power of
    i/tau with the regenerated coefficients.
    """
    return _series(ratio_coefficients, beta, tau, order, SERIES_TERMS, "RATIO")


def energy_series(beta: float, tau: float, order: int) -> float:
    """Late-time (E - Emin)/gamma0 of the J/I series truncated to
    ``order`` terms (1..5).

    In E = E0 + gamma0 Re[J/I] the series' constant -beta cancels
    E0 - Emin exactly, and only its even powers of i/tau are real; so
    the energy is summed from those alone, free of the cancellation in
    beta + Re[J/I]: 0 for orders 1 and 2, -c_2/tau**2 for 3 and 4, plus
    c_4/tau**4 at 5.  Warns of nothing; ratio_series at the order does.
    """
    check_real("beta", beta, positive=True)
    check_tau(tau)
    check_int("order", order, 1, SERIES_TERMS)
    return _energy_series(beta, tau, order)


def _energy_series(beta: float, tau: float, order: int) -> float:
    # energy_series for checked arguments
    c = _tables(beta)[2]
    energy = -c[2] / tau ** 2 if order >= 3 else 0.0
    if order == SERIES_TERMS:
        energy += c[4] / tau ** 4
    return energy


def amplitude_late(model: BreitWignerModel, tau: float, order: int) -> complex:
    """Late-time survival amplitude truncated to ``order`` terms (1..4).

    Same phase convention as the exact amplitude; the exp(i beta tau)
    factor of the I expansion cancels against the amplitude's
    exp(-i beta tau) exactly, leaving (N/(2 pi D)) * (i/tau) times the
    truncated brace.  |a_lt|**2 falls off as 1/tau**2 at leading order.
    """
    beta = model.beta
    brace = _series(i_brace_coefficients, beta, tau, order, AMPLITUDE_TERMS,
                    "AMPLITUDE")
    # two divisions: 2 pi D overflows before D does
    return model.normalization() / _TWO_PI / (beta * beta + 0.25) * (1j / tau) * brace


def energy_late(model: BreitWignerModel, tau: float) -> float:
    """Late-time instantaneous energy, physical units.

    Emin + gamma0 times :func:`energy_series` at all five terms: the
    energy relaxes to Emin like 1/tau**2 from below.
    """
    return model.emin + model.gamma0 * energy_series(model.beta, tau, SERIES_TERMS)


def decay_rate_late(model: BreitWignerModel, tau: float) -> float:
    """Late-time instantaneous decay rate, physical units: gamma0 times
    -2 Im of :func:`ratio_series` at all five terms, the rate an
    asymptotic scan prints.  It is 2 gamma0/tau at leading order,
    independent of beta, plus a 1/tau**3 correction, and warns where
    ratio_series does."""
    r = _series(ratio_coefficients, model.beta, tau, SERIES_TERMS, SERIES_TERMS, "RATIO")
    return model.gamma0 * (-2.0 * r.imag)
