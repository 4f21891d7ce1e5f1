"""No seam in a printed column: the exact route checked across each of
its branch points.

The exact route changes formula where

- the E1 kernel moves to its asymptotic sum, at |z| = 50 (z+ and z-
  share |z| = tau hypot(beta, 1/2));
- it moves from the power series to the continued fraction, at
  |z| + Re z = 4, for z+ and, where that lies below |z| = 50, for z-;
- ``survival._pieces`` takes the small-z limit of the E1 pair, at
  tau hypot(beta, 1/2) = 1e-17;
- ``survival._i_and_phase`` takes I(0) for I, below tau = 1e-18.

For each seam and beta, bisection on the branch's own test finds the two
adjacent doubles where it flips.  The jump of ``p``, ``kappa`` and
``gamma_ratio`` between them must stay within 1e-13 of the column's
scale, or within 4 times the larger step between neighbouring doubles
on either side, whichever is larger.
"""

import functools
import math
import struct

import pytest

from bwdecay._kernels_py import ASYMPTOTIC_RADIUS, SERIES_SPREAD
from bwdecay.model import _TAU_FLOOR, BreitWignerModel
from bwdecay.scan import scan_rows

BETAS = (1e-300, 1e-100, 1e-20, 1e-16, 1e-14, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01,
         0.1, 0.3, 0.5, 2.0, 10.0, 100.0, 1e4, 1e6, 1e10, 1e20, 1e100, 1e300)
COLUMNS = ("p", "kappa", "gamma_ratio")


def _spread(sign):
    # the kernel's series test, |z| + Re z <= SERIES_SPREAD, at z+ or z-
    def series(beta, tau):
        z = complex(sign * 0.5 * tau, -beta * tau)
        return abs(z) + z.real <= SERIES_SPREAD
    return series


# seam -> (the branch's test at (beta, tau), a tau near its flip)
SEAMS = {
    "abs_z_50": (lambda beta, tau: abs(complex(0.5 * tau, -beta * tau))
                 >= ASYMPTOTIC_RADIUS,
                 lambda h: ASYMPTOTIC_RADIUS / h),
    "spread_z_plus": (_spread(1.0), lambda h: SERIES_SPREAD / (h + 0.5)),
    "spread_z_minus": (_spread(-1.0), lambda h: SERIES_SPREAD / (h - 0.5)),
    "small_z": (lambda beta, tau: tau * math.hypot(beta, 0.5) < 1e-17,
                lambda h: 1e-17 / h),
    "i_floor": (lambda beta, tau: tau < _TAU_FLOOR, lambda h: _TAU_FLOOR),
}

# kappa at |z| = 50 for beta <= 1e-8: the asymptotic kernel omits the
# Stokes term i pi e^z just below the negative real axis, which the
# energy feels when beta is tiny
STOKES = {("abs_z_50", beta, "kappa") for beta in BETAS if beta <= 1e-8}


def _flip(seam, beta):
    """The adjacent doubles (lo, hi) around the seam's flip at ``beta``."""
    test, near = SEAMS[seam]
    lo = 0.5 * near(math.hypot(beta, 0.5))
    hi = 4.0 * lo
    assert test(beta, lo) != test(beta, hi)
    side = test(beta, lo)
    while math.nextafter(lo, hi) != hi:
        # the midpoint of the bit patterns, which order positive doubles
        mid = _double((_bits(lo) + _bits(hi)) // 2)
        if test(beta, mid) == side:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(n):
    return struct.unpack("<d", struct.pack("<q", n))[0]


def _exists(seam, beta):
    # z- reaches |z| = 50 before |z-| + Re z- = 4 for beta below about 0.21
    if seam != "spread_z_minus":
        return True
    h = math.hypot(beta, 0.5)
    return h > 0.5 and SERIES_SPREAD / (h - 0.5) * h < ASYMPTOTIC_RADIUS


@functools.cache
def _rows(seam, beta):
    lo, hi = _flip(seam, beta)
    taus = [math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.inf)]
    return scan_rows(BreitWignerModel.from_beta(beta), taus)


CASES = [
    pytest.param(seam, beta, column, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 24")) if (seam, beta, column) in STOKES
    else (seam, beta, column)
    for seam in SEAMS for beta in BETAS if _exists(seam, beta) for column in COLUMNS
]


@pytest.mark.parametrize("seam, beta, column", CASES)
def test_no_jump_across_the_seam(seam, beta, column):
    before, lo, hi, after = (getattr(row, column) for row in _rows(seam, beta))
    jump = abs(hi - lo)
    step = max(abs(lo - before), abs(after - hi))
    scale = max(abs(lo), abs(hi))
    assert jump <= max(1e-13 * scale, 4.0 * step), (
        "jump {:.3g} ({:.3g} relative), steps {:.3g}".format(
            jump, jump / scale, step))
