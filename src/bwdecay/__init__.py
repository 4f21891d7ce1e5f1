"""Survival dynamics of a truncated Breit-Wigner unstable state.

Exact closed-form amplitude and effective Hamiltonian, an independent
quadrature oracle, late-time asymptotics, and the exponential to
power-law cross-over time, with a CSV/JSON command-line front end.
Each export resolves on first use, by importing its defining module.
"""

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    "AmplitudeValue": "survival",
    "AsymptoticRangeWarning": "asymptotics",
    "BracketError": "errors",
    "BreitWignerModel": "model",
    "CrossoverResult": "crossover",
    "DomainError": "errors",
    "EffectiveHamiltonianValue": "survival",
    "NearZeroAmplitude": "errors",
    "ScanRow": "model",
    "ToleranceNotMet": "errors",
    "amplitude": "survival",
    "amplitude_by_quadrature": "quadrature",
    "amplitude_late": "asymptotics",
    "crossover_time": "crossover",
    "decay_rate_late": "asymptotics",
    "effective_hamiltonian": "survival",
    "energy_late": "asymptotics",
    "exp_integral_e1_scaled": "_kernels_py",
    "i_beta": "survival",
    "i_brace_coefficients": "asymptotics",
    "i_by_quadrature": "quadrature",
    "j_beta": "survival",
    "j_brace_coefficients": "asymptotics",
    "j_by_quadrature": "quadrature",
    "kappa": "survival",
    "ratio_coefficients": "asymptotics",
    "ratio_series": "asymptotics",
    "scan_rows": "scan",
    "survival_probability": "survival",
    "time_grid": "model",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # PEP 562; a non-export raises, so `from bwdecay import scan` finds the module
    if name not in _EXPORTS:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
