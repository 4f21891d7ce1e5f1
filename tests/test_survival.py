"""Exact closed-form path: amplitude, effective Hamiltonian, witness."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwdecay import survival
from bwdecay.errors import ConvergenceError, DomainError, NearZeroAmplitude
from bwdecay.model import BreitWignerModel
from bwdecay.scan import scan_rows, time_grid
from bwdecay.survival import (
    AmplitudeValue,
    EffectiveHamiltonianValue,
    amplitude,
    chi,
    chi_derivative,
    effective_hamiltonian,
    effective_hamiltonian_brace,
    i_beta,
    i_beta_at_zero,
    j_beta,
    kappa,
    survival_probability,
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
    # survival_probability skips the AmplitudeValue record, not a digit
    m = BreitWignerModel.from_beta(beta)
    taus = ([0.0] + time_grid(0.01, 40.0, 97, "log")
            + time_grid(40.0, 1e8, 61, "log"))
    for tau in taus:
        assert survival_probability(m, tau).hex() \
            == amplitude(m, tau).probability.hex(), tau


def test_survival_probability_fails_like_the_amplitude(monkeypatch):
    # inside the small-beta hole (ROADMAP item 3) both raise
    m = BreitWignerModel.from_beta(0.05)
    tau = 7.9773739917783955
    with pytest.raises(ConvergenceError):
        amplitude(m, tau)
    with pytest.raises(ConvergenceError):
        survival_probability(m, tau)
    # and an |a|**2 past 1 + P_SLACK is refused by both, not clipped
    m = BreitWignerModel.from_beta(2.0)
    i_beta_true = survival.i_beta
    monkeypatch.setattr(survival, "i_beta",
                        lambda beta, tau: 1.01 * i_beta_true(beta, tau))
    with pytest.raises(ArithmeticError):
        amplitude(m, 0.01).probability
    with pytest.raises(ArithmeticError):
        survival_probability(m, 0.01)


@given(
    beta=st.floats(min_value=0.3, max_value=200.0),
    tau=st.floats(min_value=0.0, max_value=300.0),
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
    # 30 x 30 log grid, beta in [1e5, 1e8] by tau in [1e6, 1e8]: the
    # fraction used to stall one ulp short of its stopping test at 188
    # of these points and raise ConvergenceError
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
