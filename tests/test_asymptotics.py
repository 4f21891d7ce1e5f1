"""Late-time expansions: coefficient tables, convergence behavior,
and range warnings."""

import math
import sys
import warnings

import mpmath
import pytest

from bwdecay.asymptotics import (
    SERIES_TERMS,
    AsymptoticRangeWarning,
    amplitude_late,
    decay_rate_late,
    energy_late,
    i_brace_coefficients,
    j_brace_coefficients,
    ratio_coefficients,
    ratio_series,
)
from bwdecay.crossover import crossover_time
from bwdecay.errors import DomainError
from bwdecay.model import BreitWignerModel
from bwdecay.scan import scan_rows
from bwdecay.survival import amplitude, effective_hamiltonian, i_beta, j_beta

from conftest import i_series, j_series, legacy_ratio_coefficients


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


def _mpmath_tables(beta):
    # D f^(k)(-beta), signed as the brace tables, from mpmath.diffs at 50
    # digits, and the long division of the J series by the I series
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        d = b * b + mpmath.mpf(1) / 4

        def brace(g):
            derivs = mpmath.diffs(g, -b, SERIES_TERMS - 1)
            return [(-1) ** (k + 1) * d * v for k, v in enumerate(derivs)]

        ci = brace(lambda eta: 1 / (eta * eta + mpmath.mpf(1) / 4))
        cj = brace(lambda eta: eta / (eta * eta + mpmath.mpf(1) / 4))
        cr = []
        for n in range(SERIES_TERMS):
            cr.append(sum(cr[k] * ci[n - k] for k in range(n)) - cj[n])
        return d, (ci, cj, cr)


def test_generated_tables_match_mpmath():
    # every entry of the three tables at 221 log-spaced beta, plus the
    # two points where an entry vanishes (cj_1 at beta = 1/2, cr_3 at
    # 1/sqrt(8)); the bound scales with an entry's size k! D**((1-k)/2)
    betas = [10.0 ** (-3 + i / 20) for i in range(221)] + [0.5, 8 ** -0.5]
    for beta in betas:
        d, oracle = _mpmath_tables(beta)
        generated = (i_brace_coefficients(beta), j_brace_coefficients(beta),
                     ratio_coefficients(beta))
        for name, got, ref in zip(("ci", "cj", "cr"), generated, oracle):
            assert len(got) == SERIES_TERMS
            for k in range(SERIES_TERMS):
                bound = 1e-14 * math.factorial(k) * d ** (mpmath.mpf(1 - k) / 2)
                assert abs(got[k] - ref[k]) <= bound, (beta, name, k)


def _closed_form_tables(beta):
    # with p = 1/(-beta - i/2), ci_k = -2 D k! Im p**(k+1) and
    # cj_k = -D k! Re p**(k+1), at 80 digits; mpmath.diffs at 50 digits
    # loses ci_4 from beta ~ 1e50 on
    with mpmath.workdps(80):
        b = mpmath.mpf(beta)
        d = b * b + mpmath.mpf(1) / 4
        p = 1 / mpmath.mpc(-b, -0.5)
        powers = [mpmath.factorial(k) * d * p ** (k + 1) for k in range(SERIES_TERMS)]
        ci = [-2 * v.imag for v in powers]
        cj = [-v.real for v in powers]
        cr = []
        for n in range(SERIES_TERMS):
            cr.append(sum(cr[k] * ci[n - k] for k in range(n)) - cj[n])
        return ci, cj, cr


def test_tables_hold_across_the_domain():
    # beta = 10**(k/10) from 1e-3 to 1e308, every third, where D and
    # its powers overflow or underflow a double: every entry whose true
    # value is a normal double agrees to 1e-13 (the zeros of cj_1 and
    # cr_3 are test_generated_tables_match_mpmath's)
    for beta in [10.0 ** (k / 10) for k in range(-30, 3081, 3)]:
        generated = (i_brace_coefficients(beta), j_brace_coefficients(beta),
                     ratio_coefficients(beta))
        for name, got, ref in zip(("ci", "cj", "cr"), generated,
                                  _closed_form_tables(beta)):
            for k in range(SERIES_TERMS):
                if sys.float_info.min <= abs(ref[k]) <= sys.float_info.max:
                    assert abs(got[k] - ref[k]) <= 1e-13 * abs(ref[k]), (beta, name, k)


def test_printed_forms_agree_only_at_unit_offset():
    # the transcribed third and fourth ratio entries collapse onto the
    # regenerated ones at beta = 1 and nowhere else; both tables stay
    # available so the discrepancy is visible rather than patched over
    reg1 = ratio_coefficients(1.0)
    leg1 = legacy_ratio_coefficients(1.0)
    for k in range(5):
        assert leg1[k] == pytest.approx(reg1[k], rel=1e-12)

    reg2 = ratio_coefficients(2.0)
    leg2 = legacy_ratio_coefficients(2.0)
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


def _mp_energy_series(beta, tau, terms):
    # (E - Emin)/gamma0 of the J/I series to ``terms`` terms at 40 digits,
    # beta + Re(sum cr_k (i/tau)**k), with the ratio coefficients in the
    # closed forms of the module docstring
    with mpmath.workdps(40):
        b, x = mpmath.mpf(beta), 1j / mpmath.mpf(tau)
        d = b * b + mpmath.mpf(1) / 4
        cr = (-b, -1, 2 * b / d, (1 - 8 * b * b) / d ** 2,
              b * (44 * b * b - 15) / d ** 3)
        return b + sum(c * x ** k for k, c in enumerate(cr[:terms])).real


def test_asymptotic_scan_energy_matches_the_series():
    # the row's energy is summed from the real terms of the series, not
    # as beta + Re(J/I), whose cancellation cost kappa up to all of its
    # digits (at beta = 10, tau = 1e8); terms 1 and 2 carry no real
    # term beyond -beta and print exactly 0.0
    taus = [40.0 * (1e8 / 40.0) ** (n / 24) for n in range(25)]
    for beta in (0.5, 10.0, 100.0):
        model = BreitWignerModel.from_beta(beta)
        for terms in (1, 2, 3, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AsymptoticRangeWarning)
                rows = scan_rows(model, taus, method="asymptotic", terms=terms)
            for tau, row in zip(taus, rows):
                if terms < 3:
                    assert (row.kappa, row.re_h) == (0.0, 0.0)
                    assert math.copysign(1.0, row.re_h) == 1.0
                    continue
                energy = _mp_energy_series(beta, tau, terms)
                assert _rel(row.re_h, energy) <= 1e-15, (beta, tau, terms)
                assert _rel(row.kappa, energy / beta) <= 1e-15, (beta, tau, terms)


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
