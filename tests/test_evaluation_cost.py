"""What a call costs, and that the memos behind it cannot be seen.

scipy is imported only by the quadrature oracle, on its first use, so
the default paths never load it; start-up does not load typing either.
A scan row evaluates its integrals once: survival_probability and
effective_hamiltonian share one E1 pair, and the quadrature amplitude
and J/I share one integration of I.  The sharing goes through one-entry
memos, which must never change a value or swallow an error.
"""

import json
import os
import subprocess
import sys

import pytest

import bwdecay
from bwdecay import quadrature, survival
from bwdecay.errors import ConvergenceError
from bwdecay.model import BreitWignerModel
from bwdecay.quadrature import QuadratureSettings, i_by_quadrature
from bwdecay.scan import scan_rows, time_grid

# Records "scipy" in sys.modules after each step of a session, in order.
_SCIPY_PROBE = """
import contextlib, io, json, sys
steps = []
def note(label):
    steps.append([label, "scipy" in sys.modules])
import bwdecay
note("import bwdecay")
import bwdecay.cli as cli
note("import bwdecay.cli")
for argv in (["info", "--beta", "10"],
             ["crossover", "--beta", "10"],
             ["scan", "--beta", "10", "--points", "50"],
             ["scan", "--beta", "10", "--points", "5", "--method", "quadrature"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    note(" ".join(argv) + " -> {}".format(code))
print(json.dumps(steps))
"""


# python -S skips site and its .pth hooks, which may import typing
# themselves, so whatever of these is loaded after the import, the
# package loaded it.
_BARE_PROBE = """
import sys
sys.path.insert(0, {src!r})
import bwdecay.cli
print(" ".join(m for m in ("bwdecay.cli", "typing", "scipy") if m in sys.modules))
"""


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def test_scipy_is_imported_only_by_the_quadrature_route():
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout)
    assert all(label.endswith("-> 0") for label, _ in steps[2:]), steps
    assert [loaded for _, loaded in steps] == [False] * 5 + [True], steps


def test_bare_start_up_loads_neither_typing_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bwdecay.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", _BARE_PROBE.format(src=src)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["bwdecay.cli"]


def test_exact_row_evaluates_one_e1_pair(monkeypatch):
    calls = []
    e1 = survival.exp_integral_e1_scaled

    def counting(z):
        calls.append(z)
        return e1(z)

    monkeypatch.setattr(survival, "exp_integral_e1_scaled", counting)
    taus = time_grid(0.0173, 31.7, 37, "log")
    rows = scan_rows(BreitWignerModel.from_beta(3.3), taus)
    assert len(rows) == len(taus)
    assert len(calls) == 2 * len(taus)


def test_quadrature_row_integrates_i_once(monkeypatch):
    calls = []
    fourier = quadrature._fourier_with_tail

    def counting(f, *args):
        if f is quadrature._f_i:
            calls.append(args)
        return fourier(f, *args)

    monkeypatch.setattr(quadrature, "_fourier_with_tail", counting)
    # beta*tau stays small enough that no row takes the wing escape,
    # which would integrate I a second time by design
    taus = [0.371, 1.37, 3.71]
    rows = scan_rows(BreitWignerModel.from_beta(2.3), taus, method="quadrature")
    assert len(rows) == len(taus)
    assert len(calls) == len(taus)


def test_scan_order_does_not_change_rows():
    model = BreitWignerModel.from_beta(4.7)
    taus = time_grid(0.01, 60.0, 41, "log")
    forward = [_bits(r) for r in scan_rows(model, taus)]
    backward = [_bits(r) for r in scan_rows(model, taus[::-1])]
    assert forward == backward[::-1]


def test_shared_pair_matches_fresh_calls():
    model = BreitWignerModel.from_beta(2.9)
    beta = model.beta
    fns = {
        "i_beta": lambda t: survival.i_beta(beta, t),
        "j_beta": lambda t: survival.j_beta(beta, t),
        "kappa": lambda t: survival.kappa(model, t),
        "p": lambda t: survival.survival_probability(model, t),
    }

    def fresh(name, tau):
        survival._pieces.cache_clear()
        return fns[name](tau)

    shared = [(name, tau, fn(tau)) for tau in (1.9, 23.0, 1.9)
              for name, fn in fns.items()]
    for name, tau, value in shared:
        assert repr(value) == repr(fresh(name, tau)), (name, tau)


def test_convergence_failure_raises_every_time():
    # inside the small-beta hole: z- = -3.989 - 0.399j, just outside the
    # series disc (ROADMAP item 3)
    model = BreitWignerModel.from_beta(0.05)
    tau = 7.9773739917783955
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            survival.survival_probability(model, tau)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            scan_rows(model, [tau])


def test_quadrature_memo_keys_on_settings():
    coarse = QuadratureSettings(rel_tol=1e-6, eta_max=2e3)
    fine = QuadratureSettings()
    shared = [i_by_quadrature(2.0, 3.0, s) for s in (coarse, fine, coarse)]
    fresh = []
    for s in (coarse, fine):
        quadrature._i_signed.cache_clear()
        fresh.append(i_by_quadrature(2.0, 3.0, s))
    assert fresh[0] != fresh[1]
    assert [repr(v) for v in shared] == [repr(v) for v in fresh + fresh[:1]]
