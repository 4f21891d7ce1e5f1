"""Late-time expansions: coefficient tables, convergence behavior,
range warnings, and the density-to-running-constant map."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwdecay.asymptotics import (
    AsymptoticRangeWarning,
    LambdaCoefficients,
    amplitude_late,
    decay_rate_late,
    energy_late,
    i_brace_coefficients,
    i_series,
    j_brace_coefficients,
    j_series,
    lambda_coefficients,
    lambda_of_t,
    ratio_coefficients,
    ratio_coefficients_legacy,
    ratio_series,
)
from bwdecay.crossover import crossover_time
from bwdecay.errors import DomainError
from bwdecay.model import BreitWignerModel
from bwdecay.survival import amplitude, effective_hamiltonian, i_beta, j_beta

EIGHT_PI = 8.0 * math.pi


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_leading_coefficients_are_universal():
    # the first ratio coefficient is -beta and the second is -1 for
    # every beta; higher ones carry the 1/(beta^2+1/4) structure
    for beta in (0.5, 2.0, 10.0):
        c = ratio_coefficients(beta)
        assert c[0] == pytest.approx(-beta, rel=1e-15)
        assert c[1] == pytest.approx(-1.0, rel=1e-15)


def test_brace_coefficient_values():
    d = 2.0 * 2.0 + 0.25
    ci = i_brace_coefficients(2.0)
    assert ci[0] == pytest.approx(-1.0, rel=1e-15)
    assert ci[1] == pytest.approx(2.0 * 2.0 / d, rel=1e-14)
    cj = j_brace_coefficients(2.0)
    assert cj[0] == pytest.approx(2.0, rel=1e-15)
    assert cj[1] == pytest.approx(1.0 - 2.0 * 4.0 / d, rel=1e-14)


def test_printed_forms_agree_only_at_unit_offset():
    # the transcribed third and fourth ratio entries collapse onto the
    # regenerated ones at beta = 1 and nowhere else; both tables stay
    # available so the discrepancy is visible rather than patched over
    reg1 = ratio_coefficients(1.0)
    leg1 = ratio_coefficients_legacy(1.0)
    for k in range(5):
        assert leg1[k] == pytest.approx(reg1[k], rel=1e-12)

    reg2 = ratio_coefficients(2.0)
    leg2 = ratio_coefficients_legacy(2.0)
    mismatched = {
        k for k in range(5) if abs(leg2[k] - reg2[k]) > 1e-6 * abs(reg2[k])
    }
    assert mismatched == {3, 4}


@pytest.mark.parametrize("beta", [2.0, 10.0])
def test_series_match_exact_path(beta):
    tau = 50.0
    assert _rel(i_series(beta, tau, 5), i_beta(beta, tau)) < 1e-5
    assert _rel(j_series(beta, tau, 5), j_beta(beta, tau)) < 1e-5


def test_ratio_series_high_accuracy_far_out():
    beta, tau = 10.0, 200.0
    exact = j_beta(beta, tau) / i_beta(beta, tau)
    assert _rel(ratio_series(beta, tau, 5), exact) < 1e-8


def test_orders_improve_monotonically():
    beta, tau = 10.0, 200.0
    exact = j_beta(beta, tau) / i_beta(beta, tau)
    errs = [abs(ratio_series(beta, tau, k) - exact) for k in range(1, 6)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("beta", [2.0, 10.0])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_truncation_error_scales_with_order(beta, order):
    # the first omitted term carries power tau**-order, so doubling tau
    # shrinks the truncation error by 2**order
    tau = 100.0
    e1 = abs(ratio_series(beta, tau, order) - j_beta(beta, tau) / i_beta(beta, tau))
    e2 = abs(
        ratio_series(beta, 2 * tau, order)
        - j_beta(beta, 2 * tau) / i_beta(beta, 2 * tau)
    )
    expected = 2.0 ** -order
    assert expected / 1.5 < e2 / e1 < expected * 1.5


def test_warns_outside_validity_range():
    with pytest.warns(AsymptoticRangeWarning):
        ratio_series(10.0, 0.1, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: i_series(10.0, 0.1, 5),
        lambda: j_series(10.0, 0.1, 5),
        lambda: ratio_series(10.0, 0.1, 5),
        lambda: amplitude_late(BreitWignerModel.from_beta(10.0), 0.1, 4),
    ],
)
def test_range_warning_points_at_the_caller(call):
    # the warning names the line that called the public function, not
    # a line inside the package
    with pytest.warns(AsymptoticRangeWarning) as caught:
        call()
    assert [w.filename for w in caught] == [__file__]


def test_no_warning_deep_in_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio_series(10.0, 100.0, 5)
        i_series(10.0, 100.0, 5)


def test_leading_amplitude_slope_is_exactly_minus_two():
    # one-term tail is a pure 1/tau amplitude, so log-log slope of the
    # probability is -2 to machine precision
    m = BreitWignerModel.from_beta(10.0)
    t1, t2 = 100.0, 400.0
    p1 = abs(amplitude_late(m, t1, 1)) ** 2
    p2 = abs(amplitude_late(m, t2, 1)) ** 2
    slope = (math.log(p2) - math.log(p1)) / (math.log(t2) - math.log(t1))
    assert slope == pytest.approx(-2.0, abs=1e-12)


def test_amplitude_tail_matches_exact():
    m2 = BreitWignerModel.from_beta(2.0)
    assert abs(amplitude_late(m2, 40.0, 4)) ** 2 == pytest.approx(
        amplitude(m2, 40.0).probability, rel=0.05
    )
    m10 = BreitWignerModel.from_beta(10.0)
    tau = 2.0 * crossover_time(m10).tau_t
    assert abs(amplitude_late(m10, tau, 2)) ** 2 == pytest.approx(
        amplitude(m10, tau).probability, rel=0.10
    )


def test_late_energy_and_rate_match_exact_path():
    m = BreitWignerModel.from_beta(10.0)
    h = effective_hamiltonian(m, 100.0)
    assert energy_late(m, 100.0) == pytest.approx(h.energy, rel=1e-8)
    assert decay_rate_late(m, 100.0) == pytest.approx(h.rate, rel=1e-8)


def test_late_limits():
    m = BreitWignerModel.from_beta(10.0)
    # energy approaches the spectral threshold, rate approaches zero
    assert abs(energy_late(m, 1e6)) < 1e-11
    assert decay_rate_late(m, 1e6) == pytest.approx(2.0 / 1e6, rel=1e-4)


def test_late_energy_leading_identity():
    # kappa * tau^2 * (beta^2 + 1/4) -> -2, evaluated off the series
    m = BreitWignerModel.from_beta(10.0)
    d = 10.0 * 10.0 + 0.25
    tau = 50.0
    scaled = energy_late(m, tau) / 10.0 * tau * tau * d
    assert scaled == pytest.approx(-2.0, abs=1e-3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: i_series(2.0, 50.0, 0),
        lambda: i_series(2.0, 50.0, 6),
        lambda: ratio_series(2.0, 50.0, 6),
        lambda: amplitude_late(BreitWignerModel.from_beta(2.0), 50.0, 5),
        lambda: i_series(2.0, -1.0, 3),
        lambda: energy_late(BreitWignerModel.from_beta(2.0), 0.0),
        lambda: decay_rate_late(BreitWignerModel.from_beta(2.0), -2.0),
    ],
)
def test_order_and_domain_validation(call):
    with pytest.raises(DomainError):
        call()


def test_running_constant_point_values():
    # bare density alone: Lambda = 8 pi G rho / c^2 with unit constants
    assert lambda_of_t(1.0, 0.0, 0.0, 5.0) == pytest.approx(EIGHT_PI, rel=1e-15)
    # a pure 1/t^2 density at t = 2 contributes an extra 1/4
    assert lambda_of_t(0.0, 1.0, 0.0, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_running_constant_prefactor_scaling():
    base = lambda_of_t(1.0, 2.0, 3.0, 1.5)
    assert lambda_of_t(1.0, 2.0, 3.0, 1.5, g_newton=2.0) == pytest.approx(
        2.0 * base, rel=1e-14
    )
    assert lambda_of_t(1.0, 2.0, 3.0, 1.5, light_speed=2.0) == pytest.approx(
        base / 4.0, rel=1e-14
    )


@given(
    rho=st.floats(min_value=-10.0, max_value=10.0),
    d2=st.floats(min_value=-10.0, max_value=10.0),
    d4=st.floats(min_value=-10.0, max_value=10.0),
    t=st.floats(min_value=0.1, max_value=1e6),
)
@settings(max_examples=200)
def test_running_constant_is_affine_in_density(rho, d2, d4, t):
    whole = lambda_of_t(rho, d2, d4, t)
    parts = (
        lambda_of_t(rho, 0.0, 0.0, t)
        + lambda_of_t(0.0, d2, 0.0, t)
        + lambda_of_t(0.0, 0.0, d4, t)
    )
    # the terms can cancel, so scale the bound by their magnitudes
    scale = EIGHT_PI * (abs(rho) + abs(d2) / t ** 2 + abs(d4) / t ** 4)
    assert abs(whole - parts) <= 1e-13 * scale + 1e-300


def test_running_constant_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        lambda_of_t(1.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "slot,bad",
    [(slot, bad) for slot in ("rho_bare", "d2", "d4", "g_newton", "light_speed")
     for bad in (math.nan, math.inf, -math.inf)]
    + [(slot, bad) for slot in ("g_newton", "light_speed") for bad in (0.0, -1.0)],
)
def test_running_constant_rejects_bad_inputs(slot, bad):
    args = dict(rho_bare=1.0, d2=2.0, d4=3.0, g_newton=1.0, light_speed=1.0)
    args[slot] = bad
    with pytest.raises(DomainError):
        lambda_of_t(t=1.5, **args)
    with pytest.raises(DomainError):
        lambda_coefficients(**args)


@pytest.mark.parametrize("g_newton,light_speed",
                         [(1.0, 1e-200), (1e300, 1e-10), (1e200, 1e-60)])
def test_running_constant_refuses_an_infinite_factor(g_newton, light_speed):
    # every input is finite, but 8 pi G / c**2 is not
    args = dict(rho_bare=1.0, d2=2.0, d4=3.0, g_newton=g_newton,
                light_speed=light_speed)
    with pytest.raises(DomainError):
        lambda_of_t(t=1.5, **args)
    with pytest.raises(DomainError):
        lambda_coefficients(**args)


def test_running_constant_takes_a_large_light_speed():
    # c**2 would overflow here; the factor itself is a tiny finite number
    assert lambda_of_t(1.0, 0.0, 0.0, 5.0, light_speed=1e155) == pytest.approx(
        EIGHT_PI * 1e-310, rel=1e-12)
    assert lambda_of_t(1.0, 2.0, 3.0, 1.5, light_speed=1e200) == 0.0
    assert lambda_coefficients(1.0, 2.0, 3.0, light_speed=1e200).lambda_bare == 0.0


def test_coefficient_bundle_invariant():
    bundle = lambda_coefficients(2.0, 3.0, 4.0, g_newton=5.0, light_speed=2.0)
    assert isinstance(bundle, LambdaCoefficients)
    pref = EIGHT_PI * 5.0 / 4.0
    assert bundle.lambda_bare == pytest.approx(pref * 2.0, rel=1e-14)
    assert bundle.big_d2 == pytest.approx(pref * bundle.d2, rel=1e-14)
    assert bundle.big_d4 == pytest.approx(pref * bundle.d4, rel=1e-14)
