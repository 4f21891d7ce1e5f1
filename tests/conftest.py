import math
import subprocess
import sys

import mpmath as mp
import pytest

from bwdecay import asymptotics, survival
from bwdecay.model import _phase, check_real, check_tau


@pytest.fixture(scope="session")
def run_cli():
    """Invoke the installed command-line tool in a fresh interpreter.

    Returns a callable; positional arguments become argv entries.
    Using a subprocess keeps exit codes and stream separation honest.
    """

    def _run(*args):
        return subprocess.run(
            [sys.executable, "-m", "bwdecay"] + [str(a) for a in args],
            capture_output=True,
            text=True,
        )

    return _run


def parse_csv_rows(stdout):
    """Split scan CSV output into (meta_lines, header, data_rows)."""
    lines = stdout.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#") and ln]
    return meta, rest[0], [ln.split(",") for ln in rest[1:]]


def legacy_ratio_coefficients(beta):
    """The widely quoted closed forms for the five J/I coefficients.

    Entries 0..2 agree with ``ratio_coefficients``; 3 and 4 differ
    everywhere except beta = 1.  Test data only: the two tests that
    show the discrepancy compare the package's table against these.
    """
    d = beta * beta + 0.25
    poly3 = 1.0 + 24.0 * beta - 28.0 * beta ** 2 - 96.0 * beta ** 3 + 64.0 * beta ** 4
    poly4 = (6.0 - 21.0 * beta + 48.0 * beta ** 2 - 64.0 * beta ** 3
             - 288.0 * beta ** 4 + 464.0 * beta ** 5)
    return (
        -beta,
        -1.0,
        2.0 * beta / d,
        poly3 / (4.0 * d ** 3),
        poly4 / (4.0 * d ** 4),
    )


# -- references: the same quantities by other algebra, for cross-checks ----

def _brace_pair(beta, tau):
    # (exp(tau) E1(z+), E1(z-)) at z+- = +-tau/2 - i beta tau, each the
    # product exp(tau/2) exp(i beta tau) G(z+-), with G taken through
    # survival's module global so that a test patching it sees these
    # calls too; exp(tau/2) overflows past tau ~ 1419
    grow = _phase(beta, tau)  # refuses an overflowing beta * tau first
    grow *= math.exp(0.5 * tau)
    return (grow * survival.exp_integral_e1_scaled(complex(0.5 * tau, -beta * tau)),
            grow * survival.exp_integral_e1_scaled(complex(-0.5 * tau, -beta * tau)))


def chi(beta, tau):
    """Non-exponentiality witness exp(tau) E1(z+) - E1(z-).

    The amplitude is exactly canonical at a given tau only where this
    vanishes; its non-constancy on every interval is what rules out a
    finite exponential window (acceptance c10).
    """
    check_real("beta", beta, positive=True)
    check_tau(tau)
    s_plus, s_minus = _brace_pair(beta, tau)
    return s_plus - s_minus


def chi_derivative(beta, tau):
    """d chi / d tau = exp(tau) E1(z+), nonzero except at isolated tau."""
    check_real("beta", beta, positive=True)
    check_tau(tau)
    return _brace_pair(beta, tau)[0]


def effective_hamiltonian_brace(model, tau):
    """The h(tau) of ``effective_hamiltonian``, by the unscaled brace algebra.

    J/I from the witness's two terms exp(tau) E1(z+) and E1(z-): catches
    algebra errors in the scaled closed forms (acceptance c04).
    """
    check_tau(tau, hint=" (the mean energy diverges at t = 0)")
    s_plus, s_minus = _brace_pair(model.beta, tau)
    coef = 1j / (2.0 * math.pi)
    numer = 1.0 + coef * (s_plus + s_minus)
    denom = 1.0 - coef * (s_plus - s_minus)
    energy, rate = survival.energy_and_rate(model.beta, -0.5j * (numer / denom))
    return survival.EffectiveHamiltonianValue(energy, rate, float(tau))


def _late_integral(beta, tau, brace):
    # x e^{i beta tau}/D times a brace series summed at x = i/tau
    return 1j / tau * _phase(beta, tau) / (beta * beta + 0.25) * brace


# Each calls the package's series core itself, which validates and warns
# at the caller of i_series or j_series.
def i_series(beta, tau, order):
    """Late-time I(tau) truncated to ``order`` terms (1..5)."""
    return _late_integral(beta, tau, asymptotics._series(
        asymptotics.i_brace_coefficients, beta, tau, order,
        asymptotics.SERIES_TERMS, "I_SERIES"))


def j_series(beta, tau, order):
    """Late-time J(tau) truncated to ``order`` terms (1..5)."""
    return _late_integral(beta, tau, asymptotics._series(
        asymptotics.j_brace_coefficients, beta, tau, order,
        asymptotics.SERIES_TERMS, "J_SERIES"))


def mp_integrals(beta, tau, beta_tau=None, digits=40):
    """(I, J) at ``digits`` digits from G(z) = exp(z) E1(z) of mpmath.

    The phase exp(i beta tau) is taken at ``beta_tau``, by default the
    exact product; pass the double-rounded product to compare with the
    package's phase convention.
    """
    with mp.workdps(digits):
        b, t = mp.mpf(beta), mp.mpf(tau)
        zp, zm = mp.mpc(t / 2, -b * t), mp.mpc(-t / 2, -b * t)
        gp, gm = mp.exp(zp) * mp.e1(zp), mp.exp(zm) * mp.e1(zm)
        phase = mp.expj(b * t if beta_tau is None else mp.mpf(beta_tau))
        decay = mp.exp(-t / 2)
        return (complex(2 * mp.pi * decay + 1j * phase * (gm - gp)),
                complex(-1j * mp.pi * decay + phase * (gp + gm) / 2))
