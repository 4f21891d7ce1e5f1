"""Independent references for the correctness gate, at 30 digits.

* Exact and quadrature rows: the closed form from the ``survival``
  docstring, with ``mpmath.e1`` in place of the package's kernels.
* Asymptotic rows: the truncated late-time series, with the brace and
  ratio coefficients written out from the ``asymptotics`` docstring.
* Crossover: the defining log-difference F(tau), so that a reported
  tau_t can be checked as a root inside its reported bracket.

Nothing here imports bwdecay.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

# The package documents E1 to 1e-12 relative; closed-form and series rows
# are held to that on the scale of ``_column_errors`` (closed-form rows
# also over the cancellation of their sums, see ``exact_row_error``).
EXACT_REL_TOL = 1e-12
# Quadrature oracle defaults (QuadratureSettings): rel_tol, abs_tol.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-14
# crossover_time's default acceptance bound on |F(tau_t)|.
CROSSOVER_TOL = 1e-10
# Double rounding in forming and printing a row, on top of any certificate.
_ROUNDING = mp.mpf(2) ** -50


def _norm(b):
    return 2 * mp.pi / (mp.pi + 2 * mp.atan(2 * b))


def _pieces(beta: float, tau: float):
    """(exp(-tau/2), exp(i beta tau), G(z+), G(z-)) at 30 digits, with
    G(z) = exp(z) E1(z)."""
    b, t = mp.mpf(beta), mp.mpf(tau)
    zp, zm = mp.mpc(t / 2, -b * t), mp.mpc(-t / 2, -b * t)
    return (mp.exp(-t / 2), mp.expjpi(b * t / mp.pi),
            mp.exp(zp) * mp.e1(zp), mp.exp(zm) * mp.e1(zm))


def closed_form(beta: float, tau: float):
    """(p, I, J, cancellation) at ``tau`` > 0 from G(z) = exp(z) E1(z)
    at 30 digits.

    ``cancellation`` is how much the sums for I and J cancel: the largest
    of 1, (sum of the moduli of the terms of I) / |I| and the same for J.
    A row formed from E1 values accurate to eps relative can be off by
    about eps times it, relative to p and to J/I.
    """
    b, t = mp.mpf(beta), mp.mpf(tau)
    zp, zm = mp.mpc(t / 2, -b * t), mp.mpc(-t / 2, -b * t)
    gp, gm = mp.exp(zp) * mp.e1(zp), mp.exp(zm) * mp.e1(zm)
    phase, decay = mp.expjpi(b * t / mp.pi), mp.exp(-t / 2)
    i_val = 2 * mp.pi * decay + 1j * phase * (gm - gp)
    j_val = -1j * mp.pi * decay + phase * (gp + gm) / 2
    p = abs(_norm(b) / (2 * mp.pi) * i_val) ** 2
    cancel = max(1, (2 * mp.pi * decay + abs(gm) + abs(gp)) / abs(i_val),
                 (mp.pi * decay + (abs(gp) + abs(gm)) / 2) / abs(j_val))
    return p, i_val, j_val, cancel


def _column_errors(beta, p, kappa, gamma_ratio, p_ref, r_ref) -> tuple:
    """Errors of a row's printed columns against references p_ref, r_ref = J/I.

    p is compared relative to itself.  kappa = 1 + Re(J/I)/beta and
    gamma_ratio = -2 Im(J/I) are differences of terms of size
    max(1, |Re J/I|/beta) and 2|J/I|; each is compared relative to those
    terms, the accuracy a column formed that way can keep.  (Relative to
    itself, kappa has no digits left in the deep tail, where it falls far
    below 1, and neither has gamma_ratio where it falls far below |J/I|.)
    """
    b = mp.mpf(beta)
    return (abs(mp.mpf(p) - p_ref) / p_ref,
            abs(mp.mpf(kappa) - (1 + r_ref.real / b)) / max(1, abs(r_ref.real) / b),
            abs(mp.mpf(gamma_ratio) + 2 * r_ref.imag) / (2 * abs(r_ref)))


def exact_row_error(beta, tau, p, kappa, gamma_ratio) -> tuple:
    """(error, components) of a closed-form row.

    ``error`` is the largest of the column errors of ``_column_errors``
    over the ``cancellation`` of ``closed_form``: the documented E1
    accuracy, carried through the sums the closed form makes.  Without
    cancellation that factor is 1 and the columns are held to
    EXACT_REL_TOL as they are.  Near the crossover the exponential and
    power-law terms of I can interfere destructively, and p then keeps
    fewer relative digits than E1 does.  ``components`` are the plain
    relative errors of (p, kappa, gamma_ratio), kept for the record.
    """
    p_ref, i_ref, j_ref, cancel = closed_form(beta, tau)
    r_ref = j_ref / i_ref
    b = mp.mpf(beta)
    refs = (p_ref, 1 + r_ref.real / b, -2 * r_ref.imag)
    comps = tuple(float(abs(mp.mpf(x) - ref) / abs(ref)) if ref else float("inf")
                  for x, ref in zip((p, kappa, gamma_ratio), refs))
    errs = _column_errors(beta, p, kappa, gamma_ratio, p_ref, r_ref)
    return float(max(errs) / cancel), comps


def quadrature_row_ok(beta, tau, p, kappa, gamma_ratio) -> bool:
    """Does a quadrature row meet the oracle's own certified tolerance?

    The oracle certifies |I_q - I| <= rel_tol |I| + abs_tol (and likewise
    for J); the bounds below carry that to p and J/I to first order, plus
    the second-order term of |I|**2, and allow the rounding of each column
    on the scale of ``_column_errors``.
    """
    p_ref, i_ref, j_ref, _ = closed_form(beta, tau)
    d_i = QUAD_REL_TOL * abs(i_ref) + QUAD_ABS_TOL
    d_j = QUAD_REL_TOL * abs(j_ref) + QUAD_ABS_TOL
    c2 = (_norm(mp.mpf(beta)) / (2 * mp.pi)) ** 2
    r_ref = j_ref / i_ref
    r_bound = (d_j + abs(r_ref) * d_i) / (abs(i_ref) - d_i)
    b = mp.mpf(beta)
    bounds = (c2 * (2 * abs(i_ref) * d_i + d_i ** 2) / p_ref,
              (r_bound / b) / max(1, abs(r_ref.real) / b),
              (2 * r_bound) / (2 * abs(r_ref)))
    errs = _column_errors(beta, p, kappa, gamma_ratio, p_ref, r_ref)
    return all(e <= bound + _ROUNDING for e, bound in zip(errs, bounds))


def _i_brace(b):
    d = b * b + mp.mpf(1) / 4
    b2 = b * b / d
    return (-1, 2 * b / d, (2 / d) * (1 - 4 * b2),
            (24 * b / (d * d)) * (2 * b2 - 1),
            (24 / (d * d)) * (-16 * b2 * b2 + 12 * b2 - 1))


def _ratio(b):
    d = b * b + mp.mpf(1) / 4
    return (-b, -1, 2 * b / d, (1 - 8 * b * b) / (d * d),
            b * (44 * b * b - 15) / (d * d * d))


def _poly(coeffs, x):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def asymptotic_row_error(beta, tau, terms, p, kappa, gamma_ratio) -> float:
    """Largest column error of an asymptotic row against the series at 30
    digits: the amplitude series to min(terms, 4) terms for p, the J/I
    series to ``terms`` terms for kappa and gamma_ratio."""
    b, t = mp.mpf(beta), mp.mpf(tau)
    x = mp.mpc(0, 1) / t
    d = b * b + mp.mpf(1) / 4
    amp = _norm(b) / (2 * mp.pi * d) * x * _poly(_i_brace(b)[:min(terms, 4)], x)
    r_ref = _poly(_ratio(b)[:terms], x)
    return float(max(_column_errors(beta, p, kappa, gamma_ratio, abs(amp) ** 2, r_ref)))


def crossover_f(beta: float, tau, order: int):
    """F(tau) = 2 ln N - tau - 2 ln|a_lt(tau)| with A = N (the default)."""
    b, t = mp.mpf(beta), mp.mpf(tau)
    x = mp.mpc(0, 1) / t
    d = b * b + mp.mpf(1) / 4
    late = abs(1 / (2 * mp.pi * d) * x * _poly(_i_brace(b)[:order], x))
    return -t - 2 * mp.log(late)


def crossover_ok(beta, order, tau_t, lo, hi) -> bool:
    """tau_t solves F = 0 to the solver's tolerance inside a bracket
    where F changes sign from + to -, and order 1 obeys the fixed point
    exp(tau) = (2 pi D)**2 tau**2."""
    if not (lo <= tau_t <= hi):
        return False
    if not (crossover_f(beta, lo, order) > 0 >= crossover_f(beta, hi, order)):
        return False
    if abs(crossover_f(beta, tau_t, order)) > 2 * CROSSOVER_TOL:
        return False
    if order == 1:
        b, t = mp.mpf(beta), mp.mpf(tau_t)
        d = b * b + mp.mpf(1) / 4
        if abs(t - 2 * mp.log(2 * mp.pi * d * t)) > 2 * CROSSOVER_TOL:
            return False
    return True
