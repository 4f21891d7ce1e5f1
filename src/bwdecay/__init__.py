"""Survival dynamics of a truncated Breit-Wigner unstable state.

Exact closed-form amplitude and effective Hamiltonian, an independent
quadrature oracle, late-time asymptotics, and the exponential to
power-law cross-over time, with a CSV/JSON command-line front end.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticRangeWarning,
    amplitude_late,
    decay_rate_late,
    energy_late,
    i_brace_coefficients,
    i_series,
    j_brace_coefficients,
    j_series,
    ratio_coefficients,
    ratio_series,
)
from .crossover import CrossoverResult, crossover_time
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NearZeroAmplitude,
    ToleranceNotMet,
)
from .model import BreitWignerModel
from .quadrature import (
    amplitude_by_quadrature,
    i_by_quadrature,
    j_by_quadrature,
)
from .scan import ScanRow, scan_rows, time_grid
from .special import EULER_GAMMA, exp_integral_e1, exp_integral_e1_scaled
from .survival import (
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

__all__ = [
    "AmplitudeValue",
    "AsymptoticRangeWarning",
    "BracketError",
    "BreitWignerModel",
    "ConvergenceError",
    "CrossoverResult",
    "DomainError",
    "EULER_GAMMA",
    "EffectiveHamiltonianValue",
    "NearZeroAmplitude",
    "ScanRow",
    "ToleranceNotMet",
    "amplitude",
    "amplitude_by_quadrature",
    "amplitude_late",
    "chi",
    "chi_derivative",
    "crossover_time",
    "decay_rate_late",
    "effective_hamiltonian",
    "effective_hamiltonian_brace",
    "energy_late",
    "exp_integral_e1",
    "exp_integral_e1_scaled",
    "i_beta",
    "i_beta_at_zero",
    "i_brace_coefficients",
    "i_by_quadrature",
    "i_series",
    "j_beta",
    "j_brace_coefficients",
    "j_by_quadrature",
    "j_series",
    "kappa",
    "ratio_coefficients",
    "ratio_series",
    "scan_rows",
    "survival_probability",
    "time_grid",
]
