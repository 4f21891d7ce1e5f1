"""Quadrature oracle: settings contract, agreement with the closed
forms, and the honest failure path."""

import math

import pytest

from bwdecay.errors import DomainError, ToleranceNotMet
from bwdecay.model import BreitWignerModel
from bwdecay.quadrature import (
    QuadratureSettings,
    _i_signed,
    amplitude_by_quadrature,
    i_by_quadrature,
    j_by_quadrature,
)
from bwdecay.survival import amplitude, i_beta, i_beta_at_zero, j_beta
from bwdecay.asymptotics import i_series, j_series


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rel_tol=0.0),
        dict(rel_tol=-1e-10),
        dict(abs_tol=0.0),
        dict(eta_max=1.0),
        dict(eta_max=-5.0),
        dict(max_subdivisions=0),
        dict(eta_max=math.inf),
        dict(eta_max=math.nan),
        dict(rel_tol=math.inf),
        dict(rel_tol=math.nan),
        dict(abs_tol=math.inf),
        dict(max_subdivisions=2.5),
        dict(max_subdivisions=math.nan),
        dict(max_subdivisions="10"),
    ],
)
def test_settings_validation(kwargs):
    with pytest.raises(DomainError):
        QuadratureSettings(**kwargs)


def test_settings_defaults():
    s = QuadratureSettings()
    assert s.rel_tol == 1e-10
    assert s.abs_tol == 1e-14
    assert s.eta_max == 1e4
    assert s.max_subdivisions == 10_000


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0])
def test_static_value_closed_antiderivative(beta):
    # at tau = 0 the integral is pi + 2*arctan(2*beta) exactly
    assert _rel(i_by_quadrature(beta, 0.0), i_beta_at_zero(beta)) < 1e-10


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("tau", [0.5, 5.0, 30.0])
def test_i_matches_closed_form(beta, tau):
    assert _rel(i_by_quadrature(beta, tau), i_beta(beta, tau)) < 1e-8


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("tau", [0.5, 5.0, 30.0])
def test_j_matches_closed_form(beta, tau):
    assert _rel(j_by_quadrature(beta, tau), j_beta(beta, tau)) < 1e-7


def test_matches_truncated_expansions():
    # cross-module: the late-time forms carry only the power tail, so
    # agreement with the full integral is floored by the surviving
    # pole term, 0.58 percent for I at tau = 30; the floor decays out
    # of the way by tau = 40
    i30 = i_by_quadrature(10.0, 30.0)
    pole_floor = 2.0 * math.pi * math.exp(-15.0) / abs(i30)
    assert _rel(i30, i_series(10.0, 30.0, 4)) == pytest.approx(pole_floor, rel=1e-2)
    j30 = j_by_quadrature(10.0, 30.0)
    assert _rel(j30, j_series(10.0, 30.0, 4)) == pytest.approx(
        math.pi * math.exp(-15.0) / abs(j30), rel=1e-2
    )
    assert _rel(i_by_quadrature(10.0, 40.0), i_series(10.0, 40.0, 4)) < 1e-4
    assert _rel(j_by_quadrature(10.0, 40.0), j_series(10.0, 40.0, 4)) < 1e-4


def test_amplitude_normalization_is_emergent():
    # no special-casing at tau = 0: the value 1 has to come out of the
    # numbers, which is exactly what makes this an independent check
    m = BreitWignerModel.from_beta(2.0)
    assert abs(amplitude_by_quadrature(m, 0.0) - 1.0) < 1e-9


@pytest.mark.parametrize("beta,tau", [(2.0, 10.0), (100.0, 40.0)])
def test_amplitude_matches_exact_path(beta, tau):
    m = BreitWignerModel.from_beta(beta)
    q = amplitude_by_quadrature(m, tau)
    e = amplitude(m, tau).value
    assert _rel(q, e) < 1e-6


def test_heavy_cancellation_region_certifies():
    # by tau = 40 at beta = 100 the result is ten orders below the
    # integrand scale; the oracle must still meet its error contract
    q = i_by_quadrature(100.0, 40.0)
    assert _rel(q, i_beta(100.0, 40.0)) < 1e-8


@pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-5])
def test_small_time_extended_range(tau):
    assert _rel(i_by_quadrature(2.0, tau), i_beta(2.0, tau)) < 1e-8


def test_j_short_time_logarithmic_growth():
    j3 = j_by_quadrature(2.0, 1e-3)
    j4 = j_by_quadrature(2.0, 1e-4)
    assert abs(j4) - abs(j3) == pytest.approx(math.log(10.0), rel=0.25)


def test_conjugation_symmetry_by_reevaluation():
    # I(-tau) = conj(I(tau)) holds for the integral; evaluated on both
    # signs independently rather than imposed
    s = QuadratureSettings()
    plus, _ = _i_signed(2.0, 7.3, s)
    minus, _ = _i_signed(2.0, -7.3, s)
    assert abs(minus - plus.conjugate()) < 1e-9


def test_reported_error_covers_truncation_change():
    # doubling the truncation point moves the value by less than the
    # error estimate attached to it
    s1 = QuadratureSettings()
    s2 = QuadratureSettings(eta_max=2e4)
    v1, e1 = _i_signed(2.0, 3.0, s1)
    v2, _ = _i_signed(2.0, 3.0, s2)
    assert abs(v2 - v1) <= e1


def test_refinement_discrepancies_do_not_grow():
    # successive eta_max doublings sit at the roundoff floor, so allow
    # an absolute cushion instead of demanding strict decrease
    values = [
        _i_signed(2.0, 3.0, QuadratureSettings(eta_max=em))[0]
        for em in (1e4, 2e4, 4e4, 8e4)
    ]
    d = [abs(b - a) for a, b in zip(values, values[1:])]
    assert d[1] <= d[0] + 1e-15
    assert d[2] <= d[1] + 1e-15


def test_starved_subdivision_budget_raises():
    s = QuadratureSettings(max_subdivisions=2)
    with pytest.raises(ToleranceNotMet) as exc:
        i_by_quadrature(2.0, 5.0, s)
    assert exc.value.achieved > 0.0


@pytest.mark.parametrize(
    "fn,beta,tau",
    [
        (i_by_quadrature, -1.0, 5.0),
        (i_by_quadrature, 2.0, -0.1),
        (j_by_quadrature, 2.0, 0.0),
        (j_by_quadrature, 2.0, -3.0),
        (j_by_quadrature, 0.0, 1.0),
    ],
)
def test_domain_validation(fn, beta, tau):
    with pytest.raises(DomainError):
        fn(beta, tau)
