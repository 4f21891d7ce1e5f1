"""Exact closed-form path: amplitude and effective Hamiltonian, and the
witness and brace references of tests/conftest.py held to it."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwdecay import survival
from bwdecay.errors import DomainError, NearZeroAmplitude
from bwdecay.model import BreitWignerModel
from bwdecay.quadrature import amplitude_by_quadrature, i_by_quadrature, quad
from bwdecay.scan import scan_rows, time_grid
from bwdecay.survival import (
    AmplitudeValue,
    EffectiveHamiltonianValue,
    amplitude,
    effective_hamiltonian,
    i_beta,
    i_beta_at_zero,
    j_beta,
    kappa,
    survival_probability,
)

from conftest import (
    chi,
    chi_derivative,
    effective_hamiltonian_brace,
    i_series,
    j_series,
    mp_integrals,
)

TWO_PI = 2.0 * math.pi

# pi + 2*arctan(2*beta), the closed antiderivative at tau = 0
I_AT_ZERO = {
    0.5: 4.7123889803846897,
    2.0: 5.7932279809258578,
    10.0: 6.1832685157357012,
    100.0: 6.2731853905116699,
}


@pytest.mark.parametrize("beta,expected", sorted(I_AT_ZERO.items()))
def test_i_at_zero_frozen(beta, expected):
    assert i_beta_at_zero(beta) == pytest.approx(expected, rel=1e-15)


def test_i_continuous_at_zero():
    # the closed form is organized so its tau -> 0 limit matches the
    # separate tau = 0 value the two-term cancellation produces
    assert i_beta(2.0, 1e-6) == pytest.approx(I_AT_ZERO[2.0], rel=1e-5)


def test_i_small_tau_gives_unit_amplitude():
    m = BreitWignerModel.from_beta(2.0)
    n = m.normalization()
    assert n / TWO_PI * i_beta(2.0, 1e-8) == pytest.approx(1.0, rel=1e-7)


def test_i_late_time_magnitude():
    # once the pole term is dead, |I| ~ 1/(tau*(beta^2+1/4))
    beta, tau = 10.0, 30.0
    assert abs(i_beta(beta, tau)) == pytest.approx(
        1.0 / (tau * (beta * beta + 0.25)), rel=0.02
    )


@pytest.mark.parametrize("fn", [i_beta, j_beta, chi, chi_derivative])
def test_domain_validation(fn):
    with pytest.raises(DomainError):
        fn(-1.0, 5.0)
    with pytest.raises(DomainError):
        fn(2.0, float("nan"))


@pytest.mark.parametrize("fn", [j_beta, chi, chi_derivative])
def test_zero_time_rejected_where_divergent(fn):
    with pytest.raises(DomainError):
        fn(2.0, 0.0)


def test_i_rejects_negative_time_only():
    with pytest.raises(DomainError):
        i_beta(2.0, -0.1)


@pytest.mark.parametrize("beta", [0.05, 2.0, 100.0, 1e8])
def test_i_at_zero_is_its_floor_value(beta):
    # I(0) = pi + 2 arctan(2 beta) is an ordinary value of the integral:
    # i_beta takes tau = 0 and returns what it returns below 1e-18
    value = i_beta(beta, 0.0)
    assert value.__class__ is complex
    assert value == i_beta(beta, 1e-300) == complex(i_beta_at_zero(beta), 0.0)


@pytest.mark.parametrize("beta", [0.05, 2.0, 100.0, 400.0, 2e6, 1e7, 1e8, 1e9, 2e9,
                                  1e13, 1e14])
def test_oracle_at_zero_is_the_floor_value(beta):
    # the ray carries 2 arctan(1/(2 beta)) ~ 1/beta of I(0) and turns
    # near 1 - u = 1/beta, beyond the top panel of a coarse start; the
    # oracle's certificate must cover its distance to the closed form
    value = i_beta(beta, 0.0)
    (i_val, err), _ = quad(beta, 0.0)
    assert i_val == i_by_quadrature(beta, 0.0)
    assert abs(i_val - value) <= err
    assert abs(i_val - value) / abs(value) < 1e-10


@pytest.mark.parametrize("call,bad", [
    (lambda: amplitude(BreitWignerModel.from_beta(2.0), -1.0), "-1.0"),
    (lambda: survival_probability(BreitWignerModel.from_beta(2.0), math.nan), "nan"),
    (lambda: i_beta(2.0, -1.0), "-1.0"),
], ids=["amplitude", "survival_probability", "i_beta"])
def test_tau_errors_name_the_accepted_domain(call, bad):
    # the functions of I accept tau = 0, and their message says so
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == "tau must be a finite non-negative real, got " + bad


@pytest.mark.parametrize("beta", [5e-324, 1e-323, 1e-300, 1e-20, 1e-8, 1e-3])
def test_exact_route_matches_mpmath_at_small_beta(beta):
    # below beta * tau ~ 2.5e-324 the imaginary part of z- underflows to
    # -0.0, the lower lip of the E1 cut; the route takes the limit there
    taus = [0.01, 1.0, 30.0]
    model = BreitWignerModel.from_beta(beta)
    for tau, row in zip(taus, scan_rows(model, taus)):
        i_val, j_val = mp_integrals(beta, tau, digits=50)
        ratio = j_val / i_val
        want = (abs(model.normalization() / TWO_PI * i_val) ** 2,
                -2.0 * ratio.imag, beta + ratio.real)
        for got, ref in zip((row.p, row.gamma_ratio, row.re_h), want):
            assert abs(got - ref) <= 1e-12 * abs(ref), (tau, got, ref)


def test_exact_route_matches_mpmath_at_tiny_tau():
    # below tau ~ 1e-308 the parts of z+- = +-tau/2 - i beta tau lose
    # bits, and at tau = 5e-324 both round to 0; where |z+-| < 1e-17 the
    # route takes the small-z limit of G from tau and beta instead
    taus = [5e-324, 1e-323, 1e-321, 1e-315, 1e-310, 1e-308, 1e-300, 1e-250,
            1e-200, 1e-150, 1e-100, 1e-50, 1e-20, 1e-16]
    for beta in (1e-300, 1e-8, 0.3, 2.0, 100.0, 1e8, 1e150):
        model = BreitWignerModel.from_beta(beta)
        for tau in taus:
            i_val, j_val = mp_integrals(beta, tau, beta_tau=beta * tau, digits=60)
            ratio = j_val / i_val
            got = effective_hamiltonian(model, tau)
            want = (beta + ratio.real, -2.0 * ratio.imag)
            for value, ref in zip((got.energy, got.rate), want):
                assert abs(value - ref) <= 1e-12 * abs(ref), (beta, tau, value, ref)
    assert all(map(math.isfinite,
                   effective_hamiltonian(BreitWignerModel.from_beta(0.3), 5e-324)))
    assert cmath.isfinite(j_beta(0.3, 5e-324))


def test_j_is_time_derivative_of_i():
    # J = i * dI/dtau, via 5-point central differences
    beta, tau, h = 2.0, 5.0, 1e-4
    stencil = (
        -i_beta(beta, tau + 2 * h)
        + 8 * i_beta(beta, tau + h)
        - 8 * i_beta(beta, tau - h)
        + i_beta(beta, tau - 2 * h)
    ) / (12 * h)
    fd = 1j * stencil
    jv = j_beta(beta, tau)
    assert abs(fd - jv) / abs(jv) < 1e-6


def test_j_grows_logarithmically_at_short_times():
    growth = abs(j_beta(2.0, 1e-4)) - abs(j_beta(2.0, 1e-3))
    assert growth == pytest.approx(math.log(10.0), rel=0.25)


def test_amplitude_at_zero_is_exactly_one():
    m = BreitWignerModel.from_beta(2.0)
    a = amplitude(m, 0.0)
    assert a.value == (1.0 + 0.0j)
    assert a.probability == 1.0
    assert a.tau == 0.0


def test_amplitude_canonical_era_magnitude():
    # at beta = 2 the power-law admixture already shifts P by ~6 percent
    # five lifetimes in; the pure exponential is a coarse reference only
    m = BreitWignerModel.from_beta(2.0)
    n = m.normalization()
    p = amplitude(m, 5.0).probability
    assert p == pytest.approx(n * n * math.exp(-5.0), rel=0.10)


def test_survival_probability_matches_amplitude():
    m = BreitWignerModel.from_beta(10.0)
    for tau in (0.0, 0.7, 12.0):
        assert survival_probability(m, tau) == amplitude(m, tau).probability


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0])
def test_survival_probability_has_the_bits_of_the_amplitude(beta):
    # survival_probability is amplitude(...).probability; no second path
    # to |a|**2 may come back with other digits
    m = BreitWignerModel.from_beta(beta)
    taus = [0.0, *time_grid(0.01, 40.0, 97, "log"),
            *time_grid(40.0, 1e8, 61, "log")]
    for tau in taus:
        assert survival_probability(m, tau).hex() \
            == amplitude(m, tau).probability.hex(), tau


def test_survival_probability_fails_like_the_amplitude(monkeypatch):
    # at small beta, where z- = -tau/2 - i beta tau runs close to the
    # cut, both return the oracle's value
    m = BreitWignerModel.from_beta(0.05)
    tau = 7.9773739917783955
    a = amplitude(m, tau)
    assert abs(a.value - amplitude_by_quadrature(m, tau)) <= 1e-12 * abs(a.value)
    assert survival_probability(m, tau) == a.probability
    # and an |a|**2 past 1 + P_SLACK is refused by both, not clipped
    m = BreitWignerModel.from_beta(2.0)
    i_and_phase = survival._i_and_phase

    def inflated(beta, tau):
        i_val, phase = i_and_phase(beta, tau)
        return 1.01 * i_val, phase

    monkeypatch.setattr(survival, "_i_and_phase", inflated)
    with pytest.raises(ArithmeticError):
        amplitude(m, 0.01).probability
    with pytest.raises(ArithmeticError):
        survival_probability(m, 0.01)


@given(
    beta=st.floats(min_value=1e-3, max_value=1e5),
    tau=st.floats(min_value=0.0, max_value=1e8),
)
@settings(max_examples=300, deadline=None)
def test_amplitude_stays_in_unit_disc(beta, tau):
    m = BreitWignerModel.from_beta(beta)
    a = amplitude(m, tau)
    assert abs(a.value) <= 1.0 + 1e-9
    assert 0.0 <= a.probability <= 1.0


def test_probability_clips_roundoff_overshoot():
    v = AmplitudeValue(value=complex(1.0 + 3e-10, 0.0), tau=0.1)
    assert v.probability == 1.0


def test_probability_refuses_nan():
    v = AmplitudeValue(value=complex(math.nan, 0.0), tau=1.0)
    with pytest.raises(ArithmeticError):
        v.probability


def test_probability_refuses_overshoot_beyond_roundoff():
    # the conservation bound is checked on the unclipped |a|**2
    v = AmplitudeValue(value=complex(1.0 + 1e-6, 0.0), tau=0.1)
    with pytest.raises(ArithmeticError):
        v.probability


def test_hamiltonian_value_composition():
    h = EffectiveHamiltonianValue(energy=3.0, rate=0.5, tau=2.0)
    assert h.h == complex(3.0, -0.25)


def test_records_are_immutable_named_tuples():
    a = AmplitudeValue(complex(0.6, 0.0), 1.5)
    h = EffectiveHamiltonianValue(3.0, 0.5, 2.0)
    assert AmplitudeValue._fields == ("value", "tau")
    assert h._asdict() == {"energy": 3.0, "rate": 0.5, "tau": 2.0}
    for record, field in ((a, "value"), (h, "energy"), (h, "other")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


# beta * tau = 1e309 has no double value, and neither has exp(i beta tau)
@pytest.mark.parametrize("call", [
    lambda m: amplitude(m, 1e9),
    lambda m: survival_probability(m, 1e9),
    lambda m: effective_hamiltonian(m, 1e9),
    lambda m: effective_hamiltonian_brace(m, 1e9),
    lambda m: chi(m.beta, 1e9),
    lambda m: chi_derivative(m.beta, 1e9),
    lambda m: i_series(m.beta, 1e9, 3),
    lambda m: j_series(m.beta, 1e9, 3),
    lambda m: amplitude_by_quadrature(m, 1e9),
], ids=["amplitude", "survival_probability", "effective_hamiltonian",
        "effective_hamiltonian_brace", "chi", "chi_derivative", "i_series",
        "j_series", "amplitude_by_quadrature"])
def test_overflowing_phase_is_refused_before_any_e1_call(monkeypatch, call):
    calls = []
    monkeypatch.setattr(survival, "exp_integral_e1_scaled", calls.append)
    with pytest.raises(OverflowError, match="beta \\* tau overflows"):
        call(BreitWignerModel.from_beta(1e300))
    assert calls == []


def test_effective_hamiltonian_frozen_point():
    # beta = 10, tau = 5, dimensionless units; the instantaneous rate
    # already deviates from gamma0 by 7 percent here and the frozen
    # values keep that visible
    m = BreitWignerModel.from_beta(10.0)
    h = effective_hamiltonian(m, 5.0)
    assert h.energy == pytest.approx(10.01260364302075, rel=1e-12)
    assert h.rate == pytest.approx(0.9267921678089116, rel=1e-12)


def test_effective_hamiltonian_secondary_frozen_point():
    m = BreitWignerModel.from_beta(2.0)
    h = effective_hamiltonian(m, 5.0)
    assert h.energy == pytest.approx(2.0299356860236886, rel=1e-12)
    assert h.rate == pytest.approx(1.3706959726590897, rel=1e-12)


def test_effective_hamiltonian_is_dimensionless():
    # energy is reported in widths above the threshold and rate in
    # units of gamma0, so rescaling the model must change nothing
    m1 = BreitWignerModel.from_beta(10.0)
    m2 = BreitWignerModel.from_beta(10.0, gamma0=0.5, emin=4.0)
    h1 = effective_hamiltonian(m1, 5.0)
    h2 = effective_hamiltonian(m2, 5.0)
    assert h2.energy == pytest.approx(h1.energy, rel=1e-14)
    assert h2.rate == pytest.approx(h1.rate, rel=1e-14)


def test_late_time_rate_frozen_point():
    m = BreitWignerModel.from_beta(10.0)
    assert effective_hamiltonian(m, 100.0).rate == pytest.approx(
        0.01999984100186625, rel=1e-10
    )


@pytest.mark.parametrize("beta,tau", [(2.0, 5.0), (10.0, 5.0), (100.0, 12.0)])
def test_brace_route_agrees_with_ratio_route(beta, tau):
    m = BreitWignerModel.from_beta(beta)
    ha = effective_hamiltonian(m, tau)
    hb = effective_hamiltonian_brace(m, tau)
    assert hb.h == pytest.approx(ha.h, rel=1e-12)


def test_brace_route_overflows_where_documented():
    # the brace reference multiplies by e^{tau/2} and dies near
    # tau ~ 1419; the production path keeps going
    m = BreitWignerModel.from_beta(10.0)
    with pytest.raises(OverflowError):
        effective_hamiltonian_brace(m, 1500.0)
    assert math.isfinite(effective_hamiltonian(m, 1500.0).rate)


def test_effective_hamiltonian_rejects_nonpositive_time():
    m = BreitWignerModel.from_beta(2.0)
    with pytest.raises(DomainError):
        effective_hamiltonian(m, 0.0)
    with pytest.raises(DomainError):
        effective_hamiltonian(m, -1.0)


def test_near_zero_amplitude_raises():
    # at astronomically late times even the power tail underflows the
    # |I| floor, and the ratio J/I stops being meaningful
    m = BreitWignerModel.from_beta(10.0)
    with pytest.raises(NearZeroAmplitude):
        effective_hamiltonian(m, 1e290)


def test_exact_route_covers_large_beta_tau():
    # 30 x 30 log grid, beta in [1e5, 1e8] by tau in [1e6, 1e8], where
    # |z+-| reaches 1e16
    for i in range(30):
        m = BreitWignerModel.from_beta(1e5 * 10.0 ** (3.0 * i / 29))
        for j in range(30):
            tau = 1e6 * 10.0 ** (2.0 * j / 29)
            assert 0.0 <= survival_probability(m, tau) <= 1.0
            assert math.isfinite(effective_hamiltonian(m, tau).rate)


def test_kappa_tracks_energy_ratio():
    m = BreitWignerModel.from_beta(10.0)
    h = effective_hamiltonian(m, 7.0)
    assert kappa(m, 7.0) == pytest.approx(h.energy / 10.0, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0])
def test_kappa_is_the_scan_column(beta):
    # one (E, gamma) map: kappa() and the printed column agree bit for bit
    m = BreitWignerModel.from_beta(beta)
    for tau in time_grid(0.01, 40.0, 100, "log"):
        assert repr(kappa(m, tau)) == repr(scan_rows(m, [tau])[0].kappa), tau


def test_kappa_late_time_scaling():
    # kappa ~ -2/(tau^2 (beta^2 + 1/4)) once the exponential is gone
    m = BreitWignerModel.from_beta(10.0)
    d = 10.0 * 10.0 + 0.25
    assert kappa(m, 50.0) == pytest.approx(-2.0 / (50.0 ** 2 * d), rel=0.05)
    assert abs(kappa(m, 500.0)) < 1e-7


def test_chi_derivative_matches_finite_difference():
    beta, tau, h = 2.0, 7.0, 1e-5
    fd = (chi(beta, tau + h) - chi(beta, tau - h)) / (2.0 * h)
    dv = chi_derivative(beta, tau)
    assert abs(fd - dv) / abs(dv) < 1e-6


def test_chi_relates_amplitude_to_pole_term():
    # chi measures the ratio of the power-law part to the pole part;
    # reassembling the amplitude from it must reproduce i_beta
    beta, tau = 2.0, 3.0
    rebuilt = cmath.exp(-tau / 2.0) * (TWO_PI - 1j * chi(beta, tau))
    assert rebuilt == pytest.approx(i_beta(beta, tau), rel=1e-12)
