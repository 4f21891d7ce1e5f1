"""Cross-over time solver: fixed-point oracle, bracket search and validation."""

import math
import warnings

import mpmath
import pytest

from bwdecay import crossover
from bwdecay.asymptotics import (AsymptoticRangeWarning, amplitude_late,
                                 i_brace_coefficients)
from bwdecay.crossover import CrossoverResult, crossover_time
from bwdecay.errors import BracketError, DomainError, ToleranceNotMet
from bwdecay.model import BreitWignerModel
from bwdecay.scan import time_grid
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
    assert crossover_time(m).tau_t == pytest.approx(tau_t, abs=1e-11)


def _exact_root(beta, order, guess):
    # root of F = -tau - 2 ln|a_lt(tau) / N| at 50 digits, with the I
    # brace coefficients ci_k = (-1)**(k+1) D f^(k)(-beta) of
    # f = 1/(eta**2 + 1/4) written out in closed form
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        d = b * b + mpmath.mpf(1) / 4
        q = b * b / d
        brace = (-1, 2 * b / d, 2 * (1 - 4 * q) / d, 24 * b * (2 * q - 1) / (d * d),
                 24 * (-16 * q * q + 12 * q - 1) / (d * d))[:order]

        def f(tau):
            x = 1j / tau
            late = x * mpmath.polyval(brace[::-1], x) / (2 * mpmath.pi * d)
            return -tau - 2 * mpmath.log(abs(late))

        return mpmath.findroot(f, mpmath.mpf(guess))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0, 1e4, 1e6])
def test_root_is_right_to_working_precision(beta, order):
    r = crossover_time(BreitWignerModel.from_beta(beta), order=order)
    assert r.tau_t == pytest.approx(float(_exact_root(beta, order, r.tau_t)), rel=1e-14)


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
    r = crossover_time(m, order=1)
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


def test_bisection_grinds_to_an_exact_zero(monkeypatch):
    # near the root the log-difference steps by about one ulp per tau
    # float, so a tolerance below F's rounding level lets the refinement
    # go on past it until F lands on exactly 0.0, in a few steps
    monkeypatch.setattr(crossover, "_TOL", 1e-300)
    m = BreitWignerModel.from_beta(10.0)
    r = crossover_time(m)
    assert r.residual == 0.0
    assert r.iterations < 20


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
        {"order": -1},
        {"order": None},
        {"amplitude_const": 0.0},
        {"amplitude_const": -1.0},
        {"amplitude_const": math.inf},
        {"amplitude_const": math.nan},
        {"amplitude_const": "1.0"},
    ],
)
def test_solver_rejects_bad_arguments(kwargs):
    m = BreitWignerModel.from_beta(2.0)
    with pytest.raises(DomainError):
        crossover_time(m, **kwargs)


# The bracket search: a bisection over the grid suffix on which F
# provably falls, then the right-to-left walk below it, must give what
# the walk over the whole grid gave, bit for bit.  Both refine their
# bracket with the module's one refinement, which
# test_root_is_right_to_working_precision checks on its own.

SWEEP_BETAS = [10.0 ** (k / 10) for k in range(-30, 61)]
EDGE_BETAS = [1e-300, 1e155, 1e300]


def _f(model, tau, order, a_const):
    late = abs(amplitude_late(model, tau, order))
    if late == 0.0:
        return math.inf
    return 2.0 * math.log(a_const) - tau - 2.0 * math.log(late)


def _walk_crossover(model, order=1, amplitude_const=None):
    """Reference solver: walk the whole 481-point grid right to left."""
    a_const = model.normalization() if amplitude_const is None else amplitude_const
    grid = time_grid(1.0, 1.0e4, 481, "log")
    f_hi = _f(model, grid[-1], order, a_const)
    if f_hi == math.inf:
        raise BracketError(
            "late-time amplitude is 0 in double precision at beta = {:.6g}, since "
            "D = beta**2 + 1/4 overflows from beta ~ 1.34e+154".format(model.beta))
    lo = hi = None
    for i in range(len(grid) - 2, -1, -1):
        f_cur = _f(model, grid[i], order, a_const)
        if f_cur > 0.0 and f_hi <= 0.0:
            lo, hi = grid[i], grid[i + 1]
            break
        f_hi = f_cur
    if lo is None:
        raise BracketError(
            "no exponential/power-law sign change on [{:g}, {:g}] "
            "(order {}, A = {:.6g})".format(1.0, 1.0e4, order, a_const))
    root, residual, iterations = crossover._refine(
        lambda tau: _f(model, tau, order, a_const), lo, hi, f_cur, f_hi)
    if abs(residual) > 1e-10:
        raise ToleranceNotMet(
            "crossover residual {:.3e} after {} refinement steps".format(
                residual, iterations), achieved=abs(residual))
    return CrossoverResult(tau_t=root, bracket=(lo, hi), residual=residual,
                           order=order, iterations=iterations,
                           t_physical=model.t_of_tau(root))


def _outcome(solve, model, order, a_const):
    try:
        r = solve(model, order=order, amplitude_const=a_const)
    except (BracketError, ToleranceNotMet) as exc:
        return type(exc), str(exc)
    return (r.tau_t.hex(), r.bracket[0].hex(), r.bracket[1].hex(),
            r.residual.hex(), r.order, r.iterations, r.t_physical.hex())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_bracket_search_matches_the_full_walk(order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        for beta in SWEEP_BETAS + EDGE_BETAS:
            m = BreitWignerModel.from_beta(beta)
            for a_const in (None, 0.5, 1e3):
                assert (_outcome(crossover_time, m, order, a_const)
                        == _outcome(_walk_crossover, m, order, a_const)), (beta, a_const)


@pytest.fixture
def evaluated_taus(monkeypatch):
    """The tau of every evaluation of F, in order, while the test runs."""
    taus = []

    def counting(*args):
        taus.append(args[1])
        return amplitude_late(*args)

    monkeypatch.setattr(crossover, "amplitude_late", counting)
    return taus


@pytest.mark.parametrize(
    "beta,order,budget",
    [(b, o, 60) for b in (0.5, 2.0, 10.0, 100.0) for o in (1, 2, 3, 4)]
    + [(0.05, 3, 120), (0.05, 4, 120)],
)
def test_bracket_search_evaluates_few_points(evaluated_taus, beta, order, budget):
    # the full walk took 333-481 evaluations of F for these solves;
    # test_a_solve_evaluates_f_at_most_20_times holds the solving ones
    # to the refinement's count
    m = BreitWignerModel.from_beta(beta)
    if beta == 0.05:
        with pytest.raises(BracketError):
            crossover_time(m, order=order)
    else:
        crossover_time(m, order=order)
    assert len(evaluated_taus) <= budget
    grid = set(time_grid(1.0, 1.0e4, 481, "log"))
    on_grid = [t for t in evaluated_taus if t in grid]
    assert len(on_grid) == len(set(on_grid)), "a grid point was evaluated twice"


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0])
def test_a_solve_evaluates_f_at_most_20_times(evaluated_taus, beta, order):
    # 10-15 evaluations, bracket search included, against 30-42 with the
    # bisection to |F| <= 1e-10 that the refinement replaced
    crossover_time(BreitWignerModel.from_beta(beta), order=order)
    assert len(evaluated_taus) <= 20


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_refinement_takes_fewer_steps_than_bisection(evaluated_taus, order):
    # the bisection to |F| <= 1e-10 took 22-33 steps a solve on this
    # sweep, the refinement takes 4 or 5; no solve evaluates a tau twice
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        for beta in SWEEP_BETAS:
            m = BreitWignerModel.from_beta(beta)
            for a_const in (None, 0.5, 1e3):
                evaluated_taus.clear()
                try:
                    r = crossover_time(m, order=order, amplitude_const=a_const)
                except BracketError:
                    pass
                else:
                    assert 1 <= r.iterations <= 33, (beta, a_const)
                assert len(evaluated_taus) == len(set(evaluated_taus)), (beta, a_const)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_f_falls_strictly_on_the_certified_suffix(order):
    grid = crossover._bracket_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoticRangeWarning)
        for beta in SWEEP_BETAS:
            m = BreitWignerModel.from_beta(beta)
            start = crossover._decreasing_from(beta, order, grid)
            assert start < len(grid) - 1, beta
            values = [_f(m, tau, order, m.normalization()) for tau in grid[start:]]
            assert all(b < a for a, b in zip(values, values[1:])), beta


@pytest.mark.parametrize("beta", [1e155, 1e300])
def test_certificate_holds_where_d_overflows(beta):
    # D = beta**2 + 1/4 overflows a double, the scaled tables do not
    assert all(map(math.isfinite, i_brace_coefficients(beta)))
    grid = crossover._bracket_grid()
    assert crossover._decreasing_from(beta, 3, grid) < len(grid) - 1


@pytest.mark.parametrize("beta", [1.5e154, 1e300])
@pytest.mark.parametrize("order", [1, 3])
def test_refusal_names_the_overflowed_d(beta, order):
    # |a_lt| divides by D = beta**2 + 1/4, which overflows from
    # beta ~ 1.34e154: F is +inf on the whole grid, and the refusal says
    # so instead of blaming the sign change
    with pytest.raises(BracketError, match=r"amplitude is 0 in double precision at "
                       r"beta = .*, since D = beta\*\*2 \+ 1/4 overflows"):
        crossover_time(BreitWignerModel.from_beta(beta), order=order)


def test_bracket_grid_is_built_once():
    grid = crossover._bracket_grid()
    assert grid is crossover._bracket_grid()
    assert list(grid) == list(time_grid(1.0, 1.0e4, 481, "log"))
