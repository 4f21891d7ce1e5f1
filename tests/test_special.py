"""Complex exponential integral: frozen references, an integral
representation oracle, and the documented failure modes."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
import scipy.special

from bwdecay import _kernels_py
from bwdecay.errors import ConvergenceError, DomainError
from bwdecay.special import EULER_GAMMA, exp_integral_e1, exp_integral_e1_scaled


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


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("z,expected", FROZEN_E1)
def test_frozen_values(z, expected):
    assert _rel(exp_integral_e1(z), expected) < 1e-13


@pytest.mark.parametrize("z,expected", FROZEN_SCALED)
def test_frozen_scaled_values(z, expected):
    assert _rel(exp_integral_e1_scaled(z), expected) < 1e-13


@pytest.mark.parametrize("z", [2.0 + 0.0j, 1.0 - 3.0j, -2.0 + 5.0j, 0.3 + 0.1j])
def test_scaled_consistent_with_unscaled(z):
    # only meaningful where exp(z) neither overflows nor underflows
    assert _rel(exp_integral_e1_scaled(z), cmath.exp(z) * exp_integral_e1(z)) < 1e-13


@pytest.mark.parametrize(
    "z",
    [0j, -1.0 + 0.0j, -3.5 + 0.0j, complex("nan"), complex(float("inf"), 0.0),
     complex(0.0, float("nan"))],
)
def test_rejects_cut_zero_and_nonfinite(z):
    with pytest.raises(DomainError):
        exp_integral_e1(z)
    with pytest.raises(DomainError):
        exp_integral_e1_scaled(z)


def test_unscaled_overflows_deep_left_half_plane():
    # e^{-z} alone exceeds the double range; the scaled form is the
    # supported route there and must stay finite
    with pytest.raises(OverflowError):
        exp_integral_e1(complex(-800.0, 1.0))
    v = exp_integral_e1_scaled(complex(-800.0, 1.0))
    assert cmath.isfinite(v)


def test_near_cut_convergence_failure_is_loud():
    # arguments hugging the negative real axis at moderate modulus sit
    # outside the continued fraction's budget; the contract is a raise,
    # never a silently wrong number
    with pytest.raises(ConvergenceError):
        exp_integral_e1(complex(-5.0, -0.1))
    with pytest.raises(ConvergenceError):
        exp_integral_e1_scaled(complex(-5.0, -0.1))


@pytest.mark.parametrize("angle", [0.0, 0.8, -0.8, 1.6, -1.6, 2.4])
def test_series_and_fraction_agree_at_the_seam(angle):
    # both representations are accurate in a band around the switch
    # radius, so their mismatch there bounds the worst seam jump
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
    assert abs(exp_integral_e1(z) + EULER_GAMMA + cmath.log(z)) <= 2.0 * abs(z)


@pytest.mark.parametrize(
    "z", [2.0 + 0.0j, 3.0 + 4.0j, 1.0 - 2.0j, -3.0 + 5.0j, 8.0 - 1.0j]
)
def test_derivative_matches_exponential_kernel(z):
    # d/dz E1(z) = -exp(-z)/z, checked by central differences
    h = 1e-6 * max(1.0, abs(z))
    fd = (exp_integral_e1(z + h) - exp_integral_e1(z - h)) / (2.0 * h)
    assert _rel(fd, -cmath.exp(-z) / z) < 1e-6


def _representation_points():
    # deterministic sweep over all four quadrants and both algorithm
    # branches (series inside |z| <= 4, continued fraction outside)
    pts = []
    for r in (0.3, 1.1, 2.7, 4.5, 8.0, 15.0, 40.0):
        for theta in (-2.4, -1.6, -0.8, 0.0, 0.8, 1.6, 2.4):
            z = r * cmath.exp(1j * theta)
            if abs(z) > 4.0 and z.real < 0.0 and abs(z.imag) < 1.0:
                continue  # documented near-cut no-go region
            pts.append(z)
    return pts


@pytest.mark.parametrize("z", _representation_points())
def test_integral_representation_oracle(z):
    # E1(z) = e^{-z} * int_0^inf e^{-s}/(z+s) ds, evaluated with the
    # generic adaptive rule, no shared code with the implementation
    def re_part(s):
        w = z + s
        return math.exp(-s) * w.real / (w.real * w.real + w.imag * w.imag)

    def im_part(s):
        w = z + s
        return -math.exp(-s) * w.imag / (w.real * w.real + w.imag * w.imag)

    kw = dict(epsabs=1e-15, epsrel=1e-12, limit=400)
    re_val = quad(re_part, 0.0, 60.0, **kw)[0]
    im_val = quad(im_part, 0.0, 60.0, **kw)[0]
    oracle = cmath.exp(-z) * complex(re_val, im_val)
    assert _rel(exp_integral_e1(z), oracle) < 1e-10


@pytest.mark.parametrize("z", _representation_points())
def test_matches_scipy_reference(z):
    # scipy.special.exp1 is an independent implementation (no scaled
    # variant, which is why it cannot replace this module)
    assert _rel(exp_integral_e1(z), scipy.special.exp1(z)) < 5e-12


@given(
    re=st.floats(min_value=-10.0, max_value=40.0),
    im=st.floats(min_value=0.3, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_conjugate_reflection(re, im):
    z = complex(re, im)
    try:
        upper = exp_integral_e1(z)
    except ConvergenceError:
        assume(False)
    lower = exp_integral_e1(z.conjugate())
    assert lower == pytest.approx(upper.conjugate(), rel=5e-14)
