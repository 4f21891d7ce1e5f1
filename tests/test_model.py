"""Model container: validation, derived quantities, density shape."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bwdecay.errors import DomainError
from bwdecay.model import BreitWignerModel, check_int

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(e0=1.0, gamma0=0.0, emin=0.0),
        dict(e0=1.0, gamma0=-2.0, emin=0.0),
        dict(e0=0.0, gamma0=1.0, emin=0.0),   # e0 must exceed emin
        dict(e0=-1.0, gamma0=1.0, emin=0.0),
        dict(e0=1.0, gamma0=1.0, emin=0.0, hbar=0.0),
        dict(e0=float("nan"), gamma0=1.0, emin=0.0),
        dict(e0=float("inf"), gamma0=1.0, emin=0.0),
        dict(e0=1.0, gamma0=1e-320, emin=0.0),      # beta overflows
        dict(e0=1e308, gamma0=1.0, emin=-1e308),    # e0 - emin overflows
    ],
)
def test_constructor_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        BreitWignerModel(**kwargs)


@pytest.mark.parametrize(
    "e0,gamma0,emin,beta",
    [(2.0, 1.0, 0.0, 2.0), (1.0, 0.1, 0.0, 10.0), (5.0, 2.0, 1.0, 2.0)],
)
def test_beta_is_peak_offset_in_widths(e0, gamma0, emin, beta):
    m = BreitWignerModel(e0=e0, gamma0=gamma0, emin=emin)
    assert m.beta == pytest.approx(beta, rel=1e-15)


def test_beta_is_computed_once_and_is_not_a_field():
    m = BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1)
    assert m.beta is m.beta
    assert m.beta == (3.0 + 1.1) / 0.7
    twin = BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1)
    assert m == twin and hash(m) == hash(twin)
    assert repr(m) == "BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1, hbar=1.0)"
    assert m._fields == ("e0", "gamma0", "emin", "hbar")


@pytest.mark.parametrize("record,change", [
    (BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1), dict(gamma0=-1.0)),
    (BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1), dict(hbar=0.0)),
    (BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1), dict(emin=5.0)),
    (BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1), dict(e0=math.inf)),
])
def test_replace_validates_like_the_constructor(record, change):
    with pytest.raises(DomainError):
        record._replace(**change)


def test_model_is_immutable_and_round_trips():
    m = BreitWignerModel(e0=3.0, gamma0=0.7, emin=-1.1, hbar=2.0)
    assert m.beta is m.beta
    for name in ("beta", "e0", "x"):
        with pytest.raises(AttributeError):
            setattr(m, name, 1.0)
    assert m.beta == (3.0 + 1.1) / 0.7 and m.e0 == 3.0
    moved = m._replace(e0=5.0)
    assert moved.beta == (5.0 + 1.1) / 0.7 and m.beta == (3.0 + 1.1) / 0.7
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert twin == m and hash(twin) == hash(m) and type(twin) is BreitWignerModel
        assert twin.beta == m.beta
    assert m._asdict() == dict(e0=3.0, gamma0=0.7, emin=-1.1, hbar=2.0)


@pytest.mark.parametrize("value,lo,hi,message", [
    (0, 1, 5, "order must be an integer in 1..5, got 0"),
    (6, 1, 5, "order must be an integer in 1..5, got 6"),
    (2.0, 1, 5, "order must be an integer in 1..5, got 2.0"),
    (1, 2, None, "order must be an integer >= 2, got 1"),
    ("3", 2, None, "order must be an integer >= 2, got '3'"),
])
def test_check_int_refuses(value, lo, hi, message):
    with pytest.raises(DomainError) as info:
        check_int("order", value, lo, hi)
    assert str(info.value) == message


@pytest.mark.parametrize("value,lo,hi",
                         [(1, 1, 5), (5, 1, 5), (True, 1, 5), (10**9, 2, None)])
def test_check_int_accepts(value, lo, hi):
    check_int("order", value, lo, hi)


def test_from_beta_round_trips():
    m = BreitWignerModel.from_beta(7.5, gamma0=0.25, emin=-3.0, hbar=2.0)
    assert m.e0 == pytest.approx(-3.0 + 7.5 * 0.25, rel=1e-15)
    assert m.beta == pytest.approx(7.5, rel=1e-14)
    assert m.lifetime == pytest.approx(2.0 / 0.25, rel=1e-15)
    # where rounding e0 moves beta, it moves it within the 1e-12 contract
    assert BreitWignerModel.from_beta(10.0, gamma0=1e200, emin=4.0).beta == 10.0
    assert BreitWignerModel.from_beta(0.3, gamma0=2.0, emin=1e3).beta == pytest.approx(
        0.3, rel=1e-12)


@pytest.mark.parametrize("beta,units,held", [
    (0.3, dict(emin=1e15), "0.25"),           # the ulp of emin is 0.125
    (1e-20, dict(emin=1.0), "0.0"),           # e0 rounds to emin itself
    (0.3, dict(gamma0=1e-320), "0.299901"),   # e0 is subnormal
])
def test_from_beta_refuses_a_beta_that_e0_cannot_hold(beta, units, held):
    with pytest.raises(DomainError, match="which gives beta = " + held):
        BreitWignerModel.from_beta(beta, **units)


@given(
    t=st.floats(min_value=0.0, max_value=1e12),
    gamma0=st.floats(min_value=1e-6, max_value=1e6),
    hbar=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200)
@example(t=5e-324, gamma0=0.5, hbar=1.0)
@example(t=1e-310, gamma0=1.0, hbar=1.0)
def test_time_conversion_round_trip(t, gamma0, hbar):
    m = BreitWignerModel.from_beta(2.0, gamma0=gamma0, hbar=hbar)
    try:
        tau = m.tau_of_t(t)
    except DomainError as exc:
        # refused only where t is not 0 and the exact tau lies below the
        # least subnormal, so that no double can hold it
        assert "underflows double range" in str(exc)
        assert t != 0
        assert Fraction(gamma0) * Fraction(t) / Fraction(hbar) < Fraction(2) ** -1074
        return
    try:
        back = m.t_of_tau(tau)
    except ArithmeticError as exc:
        # refused only where tau is not 0 and the exact time lies below
        # the least normal double, where a subnormal would lose bits
        assert "underflows double range" in str(exc)
        assert tau != 0
        assert Fraction(hbar) * Fraction(tau) / Fraction(gamma0) < Fraction(2) ** -1022
        return
    assert back == pytest.approx(t, rel=1e-14, abs=1e-300)


def test_time_conversion_rejects_negative():
    m = BreitWignerModel.from_beta(2.0)
    with pytest.raises(DomainError):
        m.tau_of_t(-1.0)
    with pytest.raises(DomainError):
        m.t_of_tau(-0.5)
    # t is checked before it is scaled, so a string or None is a
    # DomainError too, not the TypeError of the product
    for bad in (math.nan, math.inf, "1", None):
        with pytest.raises(DomainError):
            m.tau_of_t(bad)
        with pytest.raises(DomainError):
            m.t_of_tau(bad)


def test_time_conversions_keep_the_product_where_it_is_finite():
    m = BreitWignerModel.from_beta(2.0, gamma0=0.3, hbar=0.6582119569)
    for tau in (0.0, 1e-300, 0.37, 11.44, 1e8, 1e300):
        assert m.t_of_tau(tau) == m.hbar * tau / m.gamma0
    for t in (0.0, 1e-300, 0.37, 11.44, 1e8, 1e300):
        assert m.tau_of_t(t) == m.gamma0 * t / m.hbar


def test_time_conversions_are_within_two_roundings():
    # ROADMAP item 28: each conversion returns a * b / c within 2 ulps of
    # the exact quotient of its doubles (2 units of 2**-1074 where that is
    # subnormal), also where a * b over- or underflows and the quotient
    # fits.  Refusals are checked apart.
    rng = random.Random(28)
    cases = [(1e300, 1e10, 1e10), (1e300, 1e300, 1e10), (1e-200, 1e-300, 1e-200),
             (1e-300, 1e-300, 1e-100), (1e-320, 1e-300, 11.44463405634605),
             (9.098483364816264e-255, 1.6021866631481276e-62, 9.638581248930075e-259)]
    cases += [tuple(10.0 ** rng.uniform(-300, 300) for _ in range(3))
              for _ in range(2000)]
    returned = 0
    for hbar, gamma0, x in cases:
        m = BreitWignerModel.from_beta(2.0, gamma0=gamma0, hbar=hbar)
        h, g, y = Fraction(hbar), Fraction(gamma0), Fraction(x)
        for convert, exact in ((m.t_of_tau, h * y / g), (m.tau_of_t, g * y / h)):
            try:
                value = convert(x)
            except (ArithmeticError, DomainError):
                continue
            returned += 1
            assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact))), (
                convert.__name__, hbar, gamma0, x)
    assert returned > 2500


def test_physical_values_beyond_double_range_are_refused():
    # ROADMAP item 26: each returned inf before
    tiny = BreitWignerModel.from_beta(2.0, gamma0=1e-310)
    with pytest.raises(OverflowError, match="^the lifetime hbar / gamma0 overflows"):
        tiny.lifetime
    with pytest.raises(OverflowError, match=r"^the density w\(2e-310\) overflows"):
        tiny.density(tiny.e0)
    wide = BreitWignerModel.from_beta(2.0, gamma0=1e-300, hbar=1e10)
    with pytest.raises(OverflowError, match="^the time t = hbar [*] tau / gamma0 "
                                            "overflows double range at tau = 11.44"):
        wide.t_of_tau(11.44)
    # a time that is not 0 whose tau underflows to 0 (tau = 0 is exactly
    # the point where the amplitude is 1 and the Hamiltonian undefined)
    for t in (1e-290, -1e-320):
        with pytest.raises(DomainError, match="^t = .* maps to tau = -?0.0 at "
                                              "gamma0 = 1e-300, hbar = 10000000000.0"):
            wide.tau_of_t(t)
    assert wide.tau_of_t(0.0) == 0.0 and wide.tau_of_t(1e20) == 1e-290
    # and values that are not 0 below the least normal double, which a
    # subnormal would hold with lost bits or round to 0
    short = BreitWignerModel.from_beta(2.0, gamma0=10.0, hbar=5e-324)
    with pytest.raises(ArithmeticError, match="^the lifetime hbar / gamma0 underflows"):
        short.lifetime
    with pytest.raises(ArithmeticError, match="^the time t = hbar [*] tau / gamma0 "
                                              "underflows double range at tau = 11.44"):
        short.t_of_tau(11.44)
    assert short.t_of_tau(0.0) == 0.0 and short.t_of_tau(1e300) == 5e-324 * 1e300 / 10.0


def test_normalization_is_computed_once():
    m = BreitWignerModel.from_beta(2.0)
    assert m.normalization() is m.normalization()
    twin = pickle.loads(pickle.dumps(m))
    assert twin.normalization() == m.normalization()
    with pytest.raises(AttributeError):
        m._normalization = 1.0


def test_normalization_frozen_value():
    # 2*pi / (pi + 2*arctan(4)), mpmath cross-checked
    assert BreitWignerModel.from_beta(2.0).normalization() == pytest.approx(
        1.0845741489661562, rel=1e-15
    )


@given(beta=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=300)
def test_normalization_identity(beta):
    n = BreitWignerModel.from_beta(beta).normalization()
    assert n * (math.pi + 2.0 * math.atan(2.0 * beta)) == pytest.approx(
        TWO_PI, rel=1e-14
    )


def test_normalization_limits():
    # wide separation from threshold: the full Lorentzian, N -> 1
    assert BreitWignerModel.from_beta(1e12).normalization() == pytest.approx(
        1.0, abs=1e-12
    )
    # peak sitting on the threshold keeps only half the line, N -> 2
    assert BreitWignerModel.from_beta(1e-8).normalization() == pytest.approx(
        2.0, rel=1e-6
    )


def test_density_vanishes_below_threshold():
    m = BreitWignerModel.from_beta(2.0, gamma0=0.5, emin=-1.0)
    assert m.density(-1.0 - 1e-12) == 0.0
    assert m.density(-5.0) == 0.0
    assert m.density(-1.0 + 1e-12) > 0.0


def test_density_peak_value():
    m = BreitWignerModel.from_beta(2.0, gamma0=0.5, emin=-1.0)
    n = m.normalization()
    assert m.density(m.e0) == pytest.approx(n / TWO_PI * 4.0 / m.gamma0, rel=1e-14)


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, "1.0", None])
def test_density_rejects_a_non_real_energy(e):
    m = BreitWignerModel.from_beta(2.0)
    with pytest.raises(DomainError, match="^e must be a finite real"):
        m.density(e)


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
def test_density_normalizes_to_one(beta):
    m = BreitWignerModel.from_beta(beta, gamma0=0.5, emin=-1.0)
    big = m.e0 + 1e3 * m.gamma0
    total = quad(m.density, m.emin, big, points=[m.e0], limit=500,
                 epsabs=1e-12, epsrel=1e-12)[0]
    # mass beyond the cutoff is bounded by the Lorentzian tail integral
    tail_bound = m.normalization() * m.gamma0 / (TWO_PI * (big - m.e0))
    assert total <= 1.0 + 1e-9
    assert total >= 1.0 - 1.05 * tail_bound
