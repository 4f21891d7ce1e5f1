"""Acceptance gate: one test per release criterion.

Each test is self-contained and carries its own oracle where the
criterion demands independence (fixed-point iteration, contour
derivatives, finite differences).  Tolerances are the contract values,
not what the implementation happens to achieve.
"""

import cmath
import json
import math
import statistics

import pytest

from bwdecay.asymptotics import (
    i_brace_coefficients,
    j_brace_coefficients,
    ratio_coefficients,
    ratio_coefficients_legacy,
)
from bwdecay.crossover import crossover_time
from bwdecay.model import BreitWignerModel
from bwdecay.quadrature import amplitude_by_quadrature
from bwdecay.scan import time_grid
from bwdecay.survival import (
    amplitude,
    chi,
    chi_derivative,
    effective_hamiltonian,
    effective_hamiltonian_brace,
    i_beta,
    j_beta,
    kappa,
)

BETAS = (0.5, 2.0, 10.0, 100.0)


def _loglog_slope(taus, ps):
    return statistics.linear_regression(
        [math.log(t) for t in taus], [math.log(p) for p in ps]).slope


def test_c01_normalization_at_zero_time():
    for beta in BETAS:
        m = BreitWignerModel.from_beta(beta)
        assert amplitude(m, 0.0).value == 1.0 + 0.0j
        assert abs(amplitude_by_quadrature(m, 0.0) - 1.0) <= 1e-9


def test_c02_exact_and_quadrature_probabilities_agree():
    grid = time_grid(0.01, 50.0, 500, "log")
    for beta in BETAS:
        m = BreitWignerModel.from_beta(beta)
        for tau in grid:
            pe = amplitude(m, tau).probability
            pq = abs(amplitude_by_quadrature(m, tau)) ** 2
            assert abs(pe - pq) <= 1e-6 * max(pe, pq) + 1e-12


def test_c03_j_is_the_time_derivative_of_i():
    h = 1e-3
    grid = time_grid(0.2, 40.0, 100, "log")
    for beta in (2.0, 10.0):
        for tau in grid:
            stencil = (
                -i_beta(beta, tau + 2 * h)
                + 8.0 * i_beta(beta, tau + h)
                - 8.0 * i_beta(beta, tau - h)
                + i_beta(beta, tau - 2 * h)
            ) / (12.0 * h)
            expected = j_beta(beta, tau)
            assert abs(1j * stencil - expected) <= 1e-6 * abs(expected)


def test_c04_both_hamiltonian_routes_agree():
    grid = time_grid(0.1, 60.0, 120, "log")
    for beta in (2.0, 10.0, 100.0):
        m = BreitWignerModel.from_beta(beta)
        for tau in grid:
            a = effective_hamiltonian(m, tau)
            b = effective_hamiltonian_brace(m, tau)
            ha = complex(a.energy, -0.5 * a.rate)
            hb = complex(b.energy, -0.5 * b.rate)
            assert abs(ha - hb) <= 1e-10 * abs(ha)


def test_c05_late_energy_approaches_threshold_like_inverse_square():
    m = BreitWignerModel.from_beta(10.0)
    d = 10.0 * 10.0 + 0.25
    scaled = kappa(m, 200.0) * 200.0 ** 2 * d
    assert scaled == pytest.approx(-2.0, abs=1e-3)


def test_c06_late_rate_decays_like_two_over_tau():
    for beta in BETAS:
        m = BreitWignerModel.from_beta(beta)
        value = effective_hamiltonian(m, 1000.0).rate * 1000.0 / 2.0
        assert value == pytest.approx(1.0, abs=1e-3)


def test_c07_power_law_tail_has_slope_minus_two():
    m = BreitWignerModel.from_beta(10.0)
    tau_t = crossover_time(m).tau_t
    grid = time_grid(5.0 * tau_t, 10.0 * tau_t, 200, "log")
    ps = [amplitude(m, tau).probability for tau in grid]
    assert _loglog_slope(grid, ps) == pytest.approx(-2.0, abs=0.05)


def test_c08_crossover_matches_fixed_point_oracle():
    solved = {}
    for beta in (2.0, 10.0, 100.0):
        # independent oracle: iterate tau <- 2 ln(2 pi D) + 2 ln tau,
        # a contraction for tau > 2 toward the larger root
        d = beta * beta + 0.25
        tau = 10.0
        for _ in range(200):
            tau = 2.0 * math.log(2.0 * math.pi * d) + 2.0 * math.log(tau)
        result = crossover_time(BreitWignerModel.from_beta(beta))
        assert result.tau_t == pytest.approx(tau, abs=1e-6)
        solved[beta] = result.tau_t
    assert solved[2.0] == pytest.approx(11.45, abs=0.1)
    assert solved[10.0] == pytest.approx(18.76, abs=0.1)
    assert solved[100.0] == pytest.approx(28.82, abs=0.1)
    assert solved[2.0] < solved[10.0] < solved[100.0]


def test_c09_canonical_plateau_within_two_percent():
    """Both panel observables stay within 2 percent of 1 on tau in [1, 10].

    This criterion is not attainable for this spectral density.  The
    instantaneous rate and energy oscillate about their plateau values
    with an envelope that grows like exp(tau/2)/(pi tau sqrt(D)),
    because the power-law part of the amplitude beats against the
    exponentially shrinking canonical part.  At beta = 10 that envelope
    is never below about 0.043 on [1, 10].  The rate is outside the
    2 percent band already on [1, 1.5], where it reaches 0.047; it
    reaches 0.117 on [1, 6.5] and 0.43 by tau = 10.  kappa stays within
    2 percent up to tau of about 9.85 and reaches 0.023 by tau = 10.
    The assertions below state the required band as written, and fail.
    """
    m = BreitWignerModel.from_beta(10.0)
    taus = [1.0 + 9.0 * i / 900 for i in range(901)]
    rate_dev = 0.0
    kappa_dev = 0.0
    for tau in taus:
        h = effective_hamiltonian(m, tau)
        rate_dev = max(rate_dev, abs(h.rate - 1.0))
        kappa_dev = max(kappa_dev, abs(kappa(m, tau) - 1.0))
    assert rate_dev <= 0.02
    assert kappa_dev <= 0.02


def test_c10_witness_never_stalls():
    beta = 2.0
    taus = [1.0 + 19.0 * i / 999 for i in range(1000)]
    derivs = [abs(chi_derivative(beta, tau)) for tau in taus]
    assert min(derivs) > 0.0
    values = [chi(beta, tau) for tau in taus]
    scale = max(abs(v) for v in values)
    for start in range(0, 1000 - 100 + 1):
        window = values[start:start + 100]
        variation = sum(
            abs(b - a) for a, b in zip(window, window[1:])
        )
        assert variation > 1e-6 * scale


def _contour_derivatives(f, center, radius, count):
    # Cauchy integral on a circle well inside the integrand's
    # analyticity disc; the trapezoid rule is spectrally accurate here
    nodes = 256
    samples = [f(center + radius * cmath.exp(2j * math.pi * j / nodes))
               for j in range(nodes)]
    out = []
    for k in range(count):
        acc = 0j
        for j, s in enumerate(samples):
            acc += s * cmath.exp(-2j * math.pi * j * k / nodes)
        out.append(math.factorial(k) * acc / (nodes * radius ** k))
    return out


def test_c11_coefficients_match_integration_by_parts_oracle():
    for beta in (1.0, 2.0, 10.0):
        d = beta * beta + 0.25
        radius = 0.5 * math.sqrt(d)
        fi = _contour_derivatives(lambda z: 1.0 / (z * z + 0.25), -beta,
                                  radius, 5)
        fj = _contour_derivatives(lambda z: z / (z * z + 0.25), -beta,
                                  radius, 5)
        ci = [(-1.0) ** (k + 1) * d * fi[k] for k in range(5)]
        cj = [(-1.0) ** (k + 1) * d * fj[k] for k in range(5)]
        for oracle, transcribed in ((ci, i_brace_coefficients(beta)),
                                    (cj, j_brace_coefficients(beta))):
            for k in range(5):
                assert abs(oracle[k] - transcribed[k]) <= 1e-10 * abs(
                    transcribed[k])
                assert abs(oracle[k].imag) <= 1e-10 * abs(oracle[k])

        # long division of the J series by the I series gives the
        # ratio coefficients independently of both printed tables
        cr = []
        for n in range(5):
            acc = cj[n]
            for mth in range(n):
                acc -= cr[mth] * ci[n - mth]
            cr.append(acc / ci[0])
        regenerated = ratio_coefficients(beta)
        for k in range(5):
            assert abs(cr[k] - regenerated[k]) <= 1e-10 * max(
                abs(regenerated[k]), 1e-3)

        legacy = ratio_coefficients_legacy(beta)
        mismatched = {
            k for k in range(5)
            if abs(legacy[k] - cr[k]) > 1e-8 * max(abs(cr[k]), 1e-3)
        }
        # the transcribed closed forms for the last two ratio entries
        # disagree with the division everywhere except beta = 1
        assert mismatched == (set() if beta == 1.0 else {3, 4})


def _scan_probabilities(run_cli, beta, tau_lo, tau_hi, points, grid):
    res = run_cli(
        "scan", "--beta", beta, "--tau-min", tau_lo, "--tau-max", tau_hi,
        "--points", points, "--grid", grid, "--output", "json", "--no-meta",
    )
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    return [r["tau"] for r in rows], [r["p"] for r in rows]


def test_c12_scan_output_shows_all_three_decay_regimes(run_cli):
    for beta in (2.0, 10.0, 100.0):
        m = BreitWignerModel.from_beta(beta)
        tau_t = crossover_time(m).tau_t
        n2 = m.normalization() ** 2

        taus, ps = _scan_probabilities(run_cli, beta, 1.0, 0.5 * tau_t,
                                       200, "log")
        devs = sorted(
            abs(p / (n2 * math.exp(-tau)) - 1.0) for tau, p in zip(taus, ps)
        )
        median = 0.5 * (devs[99] + devs[100])
        assert median <= 0.15  # exponential era hugs N**2 exp(-tau)

        taus, ps = _scan_probabilities(run_cli, beta, 0.5 * tau_t,
                                       1.5 * tau_t, 4001, "linear")
        ratios = [p / (n2 * math.exp(-tau)) for tau, p in zip(taus, ps)]
        assert min(ratios) < 2.0 < max(ratios)  # the eras actually swap
        extrema = sum(
            1 for i in range(1, len(ps) - 1)
            if (ps[i] - ps[i - 1]) * (ps[i + 1] - ps[i]) < 0.0
        )
        assert extrema >= 3  # oscillatory hand-over, not a smooth bend

        taus, ps = _scan_probabilities(run_cli, beta, 3.0 * tau_t,
                                       8.0 * tau_t, 200, "log")
        assert _loglog_slope(taus, ps) == pytest.approx(-2.0, abs=0.3)
