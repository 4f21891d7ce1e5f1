"""Scaled exponential integral G(z) = exp(z) E1(z): frozen references, an
integral representation oracle, the three kernels and their seams against
50-digit mpmath from |z| = 1e-3 to 1e11, and the documented failure modes.
Where a reference gives E1, G is held to exp(z) E1(z)."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
import scipy.special

from bwdecay import _kernels_py
from bwdecay._kernels_py import exp_integral_e1_scaled
from bwdecay.errors import DomainError


# frozen from mpmath.e1 at 50 significant digits
FROZEN_E1 = [
    (1.0 + 0.0j, 0.21938393439552027 + 0.0j),
    (0.001 + 0.0j, 6.331539364136149 + 0.0j),
    (0.5 + 2.0j, -0.23812693789267187 - 0.025877115590053965j),
]

# frozen e^z * E1(z), the scaled form that survives large |Re z|
FROZEN_SCALED = [
    (10.0 + 0.0j, 0.09156333393978808 + 0.0j),
    (100.0 + 0.0j, 0.009901942286733018 + 0.0j),
]


# Euler's constant, frozen from mpmath.euler
EULER_GAMMA = 0.57721566490153286


def _rel(a, b):
    return abs(a - b) / abs(b)


def _e1(z):
    # E1 = exp(-z) G, where exp(-z) is finite
    return cmath.exp(-z) * exp_integral_e1_scaled(z)


def _mp_e1(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))


def _mp_e1_scaled(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(w) * mpmath.e1(w))


@pytest.mark.parametrize("z,expected", FROZEN_E1)
def test_frozen_values(z, expected):
    assert _rel(exp_integral_e1_scaled(z), cmath.exp(z) * expected) < 1e-13


@pytest.mark.parametrize("z,expected", FROZEN_SCALED)
def test_frozen_scaled_values(z, expected):
    assert _rel(exp_integral_e1_scaled(z), expected) < 1e-13


@pytest.mark.parametrize("z", [2.0 + 0.0j, 1.0 - 3.0j, -2.0 + 5.0j, 0.3 + 0.1j])
def test_scaled_consistent_with_unscaled(z):
    # only meaningful where exp(z) neither overflows nor underflows
    assert _rel(exp_integral_e1_scaled(z), cmath.exp(z) * _mp_e1(z)) < 1e-13


@pytest.mark.parametrize(
    "z",
    [0j, -1.0 + 0.0j, -3.5 + 0.0j, complex("nan"), complex(float("inf"), 0.0),
     complex(0.0, float("nan")), "1", None],
)
def test_rejects_cut_zero_and_nonfinite(z):
    # a string is not parsed as a number, and None is no number either
    with pytest.raises(DomainError):
        exp_integral_e1_scaled(z)


@pytest.mark.parametrize("x", [-0.005, -5.0, -49.0, -60.0, -800.0])
def test_lower_lip_of_the_cut_is_the_limit_from_below(x):
    # -0.0, as z- gets where beta * tau underflows, selects the lower lip
    # as cmath.log does; +0.0 stays refused above
    assert math.copysign(1.0, cmath.log(complex(x, -0.0)).imag) < 0
    v = exp_integral_e1_scaled(complex(x, -0.0))
    assert _rel(v, _mp_e1_scaled(complex(x, -1e-300))) < 1e-14


def test_scaled_stays_finite_deep_in_left_half_plane():
    # e^{-z} alone exceeds the double range there, and so does E1
    v = exp_integral_e1_scaled(complex(-800.0, 1.0))
    assert cmath.isfinite(v)


def test_near_cut_matches_mpmath():
    # hugging the negative real axis past |z| = 4, where the series serves
    z = complex(-5.0, -0.1)
    assert _rel(exp_integral_e1_scaled(z), _mp_e1_scaled(z)) < 1e-14


@pytest.mark.parametrize("z", [
    complex(-500.0, -1e11),
    complex(-5e7, -52983169062837.086),          # z- at beta ~ 5.3e5, tau = 1e8
    complex(19283102.10581736, -3856620421163472.0),  # z+ at beta = 1e8
])
def test_fraction_converges_at_large_modulus(z):
    # the asymptotic sum serves these; the fraction at its fixed depth
    # (12 steps here) agrees, so neither kernel limits |z|
    expected = _mp_e1_scaled(z)
    assert _rel(_kernels_py.e1_cf_scaled(z), expected) < 1e-14
    assert _rel(exp_integral_e1_scaled(z), expected) < 1e-14


@pytest.mark.parametrize("angle", [0.0, 0.8, -0.8, 1.6, -1.6, 2.4])
def test_series_and_fraction_agree_at_the_seam(angle):
    # both kernels are accurate on |z| = 4.05 at these angles, the series
    # to within its e**(|z| + Re z) rounding, so each checks the other
    z = cmath.rect(4.05, angle)
    series = _kernels_py.e1_series(z)
    fraction = cmath.exp(-z) * _kernels_py.e1_cf_scaled(z)
    assert _rel(series, fraction) < 1e-12


@pytest.mark.parametrize("r", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, -2.5, 3.0])
def test_small_argument_logarithmic_form(r, theta):
    # E1(z) = -gamma - ln z + z - ... so the remainder after removing
    # the log is bounded by |z| (coefficient 1) plus smaller terms
    z = r * cmath.exp(1j * theta)
    assert abs(_e1(z) + EULER_GAMMA + cmath.log(z)) <= 2.0 * abs(z)


@pytest.mark.parametrize(
    "z", [2.0 + 0.0j, 3.0 + 4.0j, 1.0 - 2.0j, -3.0 + 5.0j, 8.0 - 1.0j]
)
def test_derivative_matches_exponential_kernel(z):
    # d/dz E1(z) = -exp(-z)/z, checked by central differences
    h = 1e-6 * max(1.0, abs(z))
    fd = (_e1(z + h) - _e1(z - h)) / (2.0 * h)
    assert _rel(fd, -cmath.exp(-z) / z) < 1e-6


def _representation_points():
    # deterministic sweep over all four quadrants, the series and the
    # fraction, with rays 0.1 to 0.3 rad from the cut from |z| = 4.5 on
    pts = []
    for r in (0.3, 1.1, 2.7, 4.5, 8.0, 15.0, 40.0):
        for theta in (-2.4, -1.6, -0.8, 0.0, 0.8, 1.6, 2.4):
            pts.append(r * cmath.exp(1j * theta))
        if r >= 4.5:
            for gap in (0.1, 0.2, 0.3):
                pts += [cmath.rect(r, math.pi - gap), cmath.rect(r, gap - math.pi)]
    return pts


@pytest.mark.parametrize("z", _representation_points())
def test_integral_representation_oracle(z):
    # G(z) = int_0^inf e^{-s}/(z+s) ds, evaluated with the generic
    # adaptive rule, no shared code with the implementation
    value = exp_integral_e1_scaled(z)

    def re_part(s):
        w = z + s
        return math.exp(-s) * w.real / (w.real * w.real + w.imag * w.imag)

    def im_part(s):
        w = z + s
        return -math.exp(-s) * w.imag / (w.real * w.real + w.imag * w.imag)

    kw = dict(epsabs=1e-15, epsrel=1e-12, limit=400)
    re_val = quad(re_part, 0.0, 60.0, **kw)[0]
    im_val = quad(im_part, 0.0, 60.0, **kw)[0]
    oracle = complex(re_val, im_val)
    assert _rel(value, oracle) < 1e-10


@pytest.mark.parametrize("z", _representation_points())
def test_matches_scipy_reference(z):
    # scipy.special.exp1 is an independent implementation (no scaled
    # variant, which is why it cannot replace this module)
    assert _rel(exp_integral_e1_scaled(z), cmath.exp(z) * scipy.special.exp1(z)) < 5e-12


@given(
    re=st.floats(min_value=-10.0, max_value=40.0),
    im=st.floats(min_value=0.3, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_conjugate_reflection(re, im):
    z = complex(re, im)
    upper = exp_integral_e1_scaled(z)
    lower = exp_integral_e1_scaled(z.conjugate())
    assert lower == pytest.approx(upper.conjugate(), rel=5e-14)


# -- the kernels and their seams, against mpmath at 50 digits --------------

def _in_series_region(z):
    r = abs(z)
    return r < _kernels_py.ASYMPTOTIC_RADIUS and r + z.real <= _kernels_py.SERIES_SPREAD


def _small_disk_points():
    # every angle on 18 circles out to |z| = 4.5, and the pole images
    # z+- = +-tau/2 - i beta tau of beta in [1e-3, 1e3] on the same disk
    pts = [cmath.rect(0.25 * i, math.pi * j / 24)
           for i in range(1, 19) for j in range(-23, 25)]
    for beta in (1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 10.0, 1e2, 1e3):
        step = 4.5 / 20 / math.hypot(0.5, beta)
        for i in range(1, 21):
            tau = i * step
            pts += [complex(0.5 * tau, -beta * tau), complex(-0.5 * tau, -beta * tau)]
    return [z for z in pts if not (z.imag == 0.0 and z.real < 0.0)]


def test_small_disk_against_mpmath():
    # the series holds 1e-14 where it runs (cancellation at most e**4),
    # the fraction 5e-14 on the rest of the disk
    worst = {True: 0.0, False: 0.0}
    for z in _small_disk_points():
        err = _rel(exp_integral_e1_scaled(z), _mp_e1_scaled(z))
        series = _in_series_region(z)
        worst[series] = max(worst[series], err)
    assert worst[True] < 1e-14, worst
    assert worst[False] < 5e-14, worst


@pytest.mark.parametrize("q", range(1, len(_kernels_py._SERIES_HORNER) + 1))
def test_term_table_floor_lies_under_e1(q):
    # the term table assumes |E1| >= e**-r/(r + 2) on |z| = r <= 4, and
    # |E1| >= e**(s - 4)/(s + 2) on the arc of |z| = s >= 4 where
    # |z| + Re z <= 4, the least of |E1| on the series' part of the
    # quarter s < |z| <= s + 1/4; on the cut E1 takes its value from above
    r = 0.25 * q
    if r <= 4.0:
        floor = math.exp(-r) / (r + 2.0)
        arc = [cmath.rect(r, math.pi * j / 32) for j in range(-31, 33)]
    else:
        s = r - 0.25
        floor = math.exp(s - 4.0) / (s + 2.0)
        edge = math.acos(4.0 / s - 1.0)
        arc = [cmath.rect(s, edge + (math.pi - edge) * j / 8) for j in range(9)]
    assert min(abs(_mp_e1(z)) for z in arc) >= floor


@pytest.mark.parametrize("angle", [0.0, 0.3, -0.3, 0.7, -0.7, 1.1, -1.1, 1.5, -1.5])
def test_series_and_fraction_agree_where_the_spread_reaches_four(angle):
    # on |z| + Re z = 4 the entry point switches between the kernels
    z = cmath.rect(4.0 / (1.0 + math.cos(angle)), angle)
    series = _kernels_py.e1_series(z)
    fraction = cmath.exp(-z) * _kernels_py.e1_cf_scaled(z)
    assert _rel(series, fraction) < 1e-13
    assert _rel(series, _mp_e1(z)) < 1e-14


def test_series_refuses_beyond_its_table():
    with pytest.raises(ValueError):
        _kernels_py.e1_series(complex(50.5, 0.0))


def _sweep_points():
    # |z| from 1e-3 to 1e11 at 24 angles, four of them 1e-3 or 1e-9 rad
    # from the cut; both sides of the seams |z| = 50 and |z| + Re z = 4; and the
    # pole images z+- = +-tau/2 - i beta tau of beta in [1e-3, 1e8]
    angles = [math.pi * j / 10 for j in range(-9, 11)]
    angles += [math.pi - 1e-3, 1e-3 - math.pi, math.pi - 1e-9, 1e-9 - math.pi]
    pts = [cmath.rect(10.0 ** (n / 4), a) for n in range(-12, 45) for a in angles]
    for r in (49.99, 50.0, 50.01):
        pts += [cmath.rect(r, a) for a in angles]
    for a in [math.pi * j / 20 for j in range(-19, 20)]:
        edge = 4.0 / (1.0 + math.cos(a))
        if edge < 50.0:
            pts += [cmath.rect(edge * f, a) for f in (0.999, 1.0, 1.001)]
    for beta in (1e-3, 1e-2, 0.05, 0.1, 0.22, 0.5, 2.0, 10.0, 100.0, 1e4, 1e6, 1e8):
        for n in range(-8, 33):
            tau = 10.0 ** (n / 4)
            pts += [complex(0.5 * tau, -beta * tau), complex(-0.5 * tau, -beta * tau)]
    return pts


def test_scaled_e1_against_mpmath_over_the_plane():
    # every kernel and both seams hold 1e-14 relative, next to the cut too
    worst = max(((_rel(exp_integral_e1_scaled(z), _mp_e1_scaled(z)), z)
                 for z in _sweep_points()), key=lambda pair: pair[0])
    assert worst[0] < 1e-14, worst
