"""Cross-over time solver and the survivor-count helper."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwdecay.asymptotics import amplitude_late
from bwdecay.crossover import CrossoverResult, crossover_time, survivor_count
from bwdecay.errors import BracketError, DomainError
from bwdecay.model import BreitWignerModel
from bwdecay.survival import amplitude

# independently iterated fixed points of exp(tau) = (2 pi D)**2 tau**2,
# the order-1 condition with the default prefactor
FIXED_POINTS = {
    0.5: 5.807896783586,
    2.0: 11.444634056247,
    10.0: 18.753890739148,
    100.0: 28.818521448740,
}


@pytest.mark.parametrize("beta,tau_t", sorted(FIXED_POINTS.items()))
def test_matches_fixed_point_iteration(beta, tau_t):
    m = BreitWignerModel.from_beta(beta)
    assert crossover_time(m).tau_t == pytest.approx(tau_t, abs=1e-8)


@pytest.mark.parametrize(
    "beta,rounded", [(2.0, 11.45), (10.0, 18.76), (100.0, 28.82)]
)
def test_reference_values(beta, rounded):
    m = BreitWignerModel.from_beta(beta)
    assert crossover_time(m).tau_t == pytest.approx(rounded, abs=0.1)


def test_monotone_in_beta():
    taus = [
        crossover_time(BreitWignerModel.from_beta(b)).tau_t
        for b in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
    ]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_result_invariants():
    m = BreitWignerModel.from_beta(10.0, gamma0=2.0)
    r = crossover_time(m, order=1, tol=1e-10)
    assert isinstance(r, CrossoverResult)
    assert r.bracket[0] < r.tau_t < r.bracket[1]
    assert abs(r.residual) <= 1e-10
    assert 1 <= r.iterations <= 200
    assert r.order == 1
    # hbar = 1, gamma0 = 2 halves the physical time
    assert r.t_physical == pytest.approx(r.tau_t / 2.0, rel=1e-15)


def test_eras_actually_swap_order_across_the_root():
    # on the exponential side the canonical form dominates, on the far
    # side the one-term tail does; probe both through the public pieces
    m = BreitWignerModel.from_beta(10.0)
    tau_t = crossover_time(m).tau_t
    n = m.normalization()

    def canonical(tau):
        return n * n * math.exp(-tau)

    def tail(tau):
        return abs(amplitude_late(m, tau, 1)) ** 2

    before, after = 0.95 * tau_t, 1.05 * tau_t
    assert canonical(before) > tail(before)
    assert canonical(after) < tail(after)


def test_higher_order_shifts_root_slightly():
    m = BreitWignerModel.from_beta(10.0)
    t1 = crossover_time(m, order=1).tau_t
    t2 = crossover_time(m, order=2).tau_t
    assert t2 != t1
    assert t2 == pytest.approx(t1, rel=0.02)


def test_larger_prefactor_delays_crossover():
    m = BreitWignerModel.from_beta(10.0)
    base = crossover_time(m).tau_t
    boosted = crossover_time(m, amplitude_const=10.0).tau_t
    assert boosted > base


def test_no_bracket_for_vanishing_prefactor():
    # an exponentially tiny canonical era never rises above the tail
    m = BreitWignerModel.from_beta(10.0)
    with pytest.raises(BracketError):
        crossover_time(m, amplitude_const=1e-300)


def test_tolerance_is_honored_not_just_requested():
    m = BreitWignerModel.from_beta(10.0)
    loose = crossover_time(m, tol=1e-2)
    tight = crossover_time(m, tol=1e-12)
    assert abs(loose.residual) <= 1e-2
    assert abs(tight.residual) <= 1e-12
    assert tight.iterations > loose.iterations


def test_bisection_grinds_to_an_exact_zero():
    # near the root the log-difference steps by about one ulp per tau
    # float and lands on exactly 0.0, so even an absurd tolerance
    # converges instead of tripping the iteration cap
    m = BreitWignerModel.from_beta(10.0)
    r = crossover_time(m, tol=1e-300)
    assert r.residual == 0.0
    assert r.iterations < 60


def test_exact_probability_brackets_the_canonical_era():
    # the exact curve should hug the canonical exponential well before
    # the cross-over and leave it well after
    m = BreitWignerModel.from_beta(10.0)
    tau_t = crossover_time(m).tau_t
    n2 = m.normalization() ** 2

    def deviation(tau):
        return amplitude(m, tau).probability / (n2 * math.exp(-tau))

    assert abs(deviation(0.5 * tau_t) - 1.0) < 0.10
    assert deviation(1.2 * tau_t) > 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"order": 0},
        {"order": 5},
        {"order": 2.0},
        {"tol": 0.0},
        {"tol": -1e-10},
        {"amplitude_const": 0.0},
        {"amplitude_const": -1.0},
        {"amplitude_const": math.inf},
        {"tol": math.inf},
        {"tol": math.nan},
    ],
)
def test_solver_rejects_bad_arguments(kwargs):
    m = BreitWignerModel.from_beta(2.0)
    with pytest.raises(DomainError):
        crossover_time(m, **kwargs)


def test_survivor_count_values():
    r = survivor_count(1e-3, 1e6)
    assert r.expected == pytest.approx(1000.0, rel=1e-15)
    assert r.resolvable
    assert not survivor_count(1e-3, 100.0).resolvable


def test_survivor_count_threshold_is_a_parameter():
    assert survivor_count(0.5, 10.0, threshold=4.0).resolvable
    assert not survivor_count(0.5, 10.0, threshold=5.0).resolvable


@pytest.mark.parametrize(
    "p,n,kwargs",
    [
        (-0.1, 10.0, {}),
        (1.1, 10.0, {}),
        (math.nan, 10.0, {}),
        (0.5, 0.0, {}),
        (0.5, -5.0, {}),
        (0.5, 10.0, {"threshold": 0.0}),
        (0.5, 10.0, {"threshold": math.inf}),
    ],
)
def test_survivor_count_rejects_bad_arguments(p, n, kwargs):
    with pytest.raises(DomainError):
        survivor_count(p, n, **kwargs)


@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    n=st.floats(min_value=1e-6, max_value=1e12),
)
@settings(max_examples=200)
def test_survivor_count_is_the_product(p, n):
    assert survivor_count(p, n).expected == p * n
