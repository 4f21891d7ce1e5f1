"""Quadrature oracle: settings contract, agreement with the closed
forms, and the honest failure path."""

import dataclasses
import math

import mpmath as mp
import pytest

from bwdecay.errors import DomainError, ToleranceNotMet
from bwdecay.model import BreitWignerModel
from bwdecay.quadrature import (
    QuadratureSettings,
    _i_signed,
    amplitude_by_quadrature,
    i_by_quadrature,
    j_by_quadrature,
    quad,
)
from bwdecay.scan import scan_rows
from bwdecay.survival import amplitude, i_beta, i_beta_at_zero, j_beta
from bwdecay.asymptotics import i_series, j_series


def _rel(a, b):
    return abs(a - b) / abs(b)


def _mp_integrals(beta, tau, beta_tau=None):
    """(I, J) at 40 digits from G(z) = exp(z) E1(z) of mpmath.

    The phase exp(i beta tau) is taken at ``beta_tau``, by default the
    exact product; pass the double-rounded product to compare with the
    package's phase convention.
    """
    with mp.workdps(40):
        b, t = mp.mpf(beta), mp.mpf(tau)
        zp, zm = mp.mpc(t / 2, -b * t), mp.mpc(-t / 2, -b * t)
        gp, gm = mp.exp(zp) * mp.e1(zp), mp.exp(zm) * mp.e1(zm)
        phase = mp.expj(b * t if beta_tau is None else mp.mpf(beta_tau))
        decay = mp.exp(-t / 2)
        return (complex(2 * mp.pi * decay + 1j * phase * (gm - gp)),
                complex(-1j * mp.pi * decay + phase * (gp + gm) / 2))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rel_tol=0.0),
        dict(rel_tol=-1e-10),
        dict(abs_tol=0.0),
        dict(abs_tol=-1e-14),
        dict(abs_tol=math.nan),
        dict(max_subdivisions=0),
        dict(max_subdivisions=-3),
        dict(max_subdivisions=None),
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
    assert s.max_subdivisions == 10_000
    # the ray has no truncation point, so no eta_max
    assert [f.name for f in dataclasses.fields(s)] == [
        "rel_tol", "abs_tol", "max_subdivisions"]


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
    # the ray has no truncation point; what truncates the rule is its
    # panel budget.  A value cut short at a few panels carries an error
    # estimate that covers its distance to the converged value.
    (ref, _), _ = quad(2.0, 3.0, QuadratureSettings(rel_tol=1e-14))
    moved = 0
    for n in (2, 3, 4):
        (v, e), _ = quad(2.0, 3.0, QuadratureSettings(max_subdivisions=n))
        assert abs(v - ref) <= e, n
        moved += v != ref
    assert moved == 3


def test_refinement_discrepancies_do_not_grow():
    # successive tolerance tightenings reach the roundoff floor, so allow
    # an absolute cushion instead of demanding strict decrease
    values = [
        _i_signed(2.0, 3.0, QuadratureSettings(rel_tol=r))[0]
        for r in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    ]
    d = [abs(b - a) for a, b in zip(values, values[1:])]
    assert d[0] > 0.0
    for coarse, fine in zip(d, d[1:]):
        assert fine <= coarse + 1e-15


def test_tighter_tolerance_stays_within_certificate():
    # the value at rel_tol = 1e-13 differs from the default value by no
    # more than the default's certificate, for I and J alike
    default, tight = QuadratureSettings(), QuadratureSettings(rel_tol=1e-13)
    moved = 0
    for beta in (0.05, 0.5, 2.0, 10.0, 100.0):
        for tau in (0.0, 1e-3, 0.3, 3.0, 7.9, 30.0, 300.0):
            coarse, fine = quad(beta, tau, default), quad(beta, tau, tight)
            # at tau = 0 only I is integrated
            assert (coarse[1] is None) == (fine[1] is None) == (tau == 0.0)
            for (v1, e1), (v2, _) in zip(coarse[:1 + bool(tau)], fine):
                assert abs(v2 - v1) <= e1, (beta, tau)
                moved += v2 != v1
    # the tighter contract refines most points, so the check has teeth
    assert moved > 40


def test_starved_subdivision_budget_raises():
    s = QuadratureSettings(max_subdivisions=2)
    with pytest.raises(ToleranceNotMet) as exc:
        i_by_quadrature(2.0, 5.0, s)
    assert exc.value.achieved > 0.0


@pytest.mark.parametrize("beta", [2e9, 5e9, 1e10, 1e12, 1e30, 1e100, 1e153,
                                  1e200, 1e300])
def test_large_beta_amplitude_matches_exact_path(beta):
    # the ray integrand is of order 1/beta**2 and never forms eta**2, so
    # past beta ~ 1.3e154, where eta**2 overflows, it underflows to 0
    m = BreitWignerModel.from_beta(beta)
    q = amplitude_by_quadrature(m, 0.5)
    assert abs(q - amplitude(m, 0.5).value) <= 1e-12
    # the power tail is below 1e-18 here, so |a|**2 is N**2 exp(-tau)
    assert abs(q) ** 2 == pytest.approx(m.normalization() ** 2 * math.exp(-0.5),
                                        rel=1e-14)


@pytest.mark.parametrize("beta,tau", [(0.05, 7.9), (0.05, 7.9773739917783955),
                                      (0.05, 30.0), (0.01, 50.0)])
def test_small_beta_hole_against_mpmath(beta, tau):
    # inside the window where the exact route's E1 fraction stalls
    # (ROADMAP item 3), the oracle is the fallback; it holds I and J
    # against an independent 40-digit reference
    i_ref, j_ref = _mp_integrals(beta, tau)
    assert _rel(i_by_quadrature(beta, tau), i_ref) < 1e-12
    assert _rel(j_by_quadrature(beta, tau), j_ref) < 1e-12


def _row_errors(beta, row, i_ref, j_ref):
    # errors of the printed p, kappa and gamma_ratio, each on the scale
    # a column formed from I and J can keep
    n = 2.0 * math.pi / (math.pi + 2.0 * math.atan(2.0 * beta))
    p_ref = (n / (2.0 * math.pi) * abs(i_ref)) ** 2
    r = j_ref / i_ref
    return (abs(row.p - p_ref) / p_ref,
            abs(row.kappa - (1.0 + r.real / beta)) / max(1.0, abs(r.real) / beta),
            abs(row.gamma_ratio + 2.0 * r.imag) / (2.0 * abs(r)))


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.5, 2.0, 10.0, 100.0, 1e4])
def test_oracle_against_mpmath_over_the_domain(beta):
    # 40 log-spaced tau on [1e-5, 1e5].  Against a reference that takes
    # the phase at the same double-rounded beta*tau, the certificate
    # bounds the measured error of I and J at every point.  Against the
    # exact phase, I, J and the printed row hold to 1e-12 wherever
    # beta*tau <= 1e3; beyond, rounding beta*tau to a double moves the
    # phase by up to beta*tau*2**-53 (the rounded-phase points).
    taus = [1e-5 * 1e10 ** (n / 39) for n in range(40)]
    model = BreitWignerModel.from_beta(beta)
    rows = scan_rows(model, taus, method="quadrature")
    settings = QuadratureSettings()
    for tau, row in zip(taus, rows):
        (i_val, i_err), (j_val, j_err) = quad(beta, tau, settings)
        i_ref, j_ref = _mp_integrals(beta, tau, beta * tau)
        assert abs(i_val - i_ref) <= i_err, tau
        assert abs(j_val - j_ref) <= j_err, tau
        if beta * tau <= 1e3:
            i_ref, j_ref = _mp_integrals(beta, tau)
            assert _rel(i_val, i_ref) < 1e-12, tau
            assert _rel(j_val, j_ref) < 1e-12, tau
            assert max(_row_errors(beta, row, i_ref, j_ref)) < 1e-12, tau


def test_nan_fails_the_contract():
    # at a subnormal tau the ray scale 1/tau overflows and the sums turn
    # NaN; the rule stops at once and the contract refuses the value
    with pytest.raises(ToleranceNotMet):
        i_by_quadrature(2.0, 1e-320)


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
