"""What a call costs, and that the memos behind it cannot be seen.

No route imports scipy, the quadrature oracle included, and start-up
does not load typing either.  An import loads only the package modules
it computes with: the package's exports resolve on first use, and the
cross-over solver loads neither the exact nor the quadrature route.  A
scan row evaluates its integrals once: survival_probability and
effective_hamiltonian share one E1 pair, and the quadrature amplitude
and J/I share one run of the oracle's rule, which integrates I and J
together on the same panels.  The sharing goes through one-entry memos,
which must never change a value or swallow an error.  The late-time
coefficient tables are generated once per beta, not per point.  The
oracle's rule starts from at most 37 panels graded toward the decay
near u = 1 and the pole near u = 0, and evaluates at most 7 per point
on the oracle grid.  A panel's nodes depend on its ends alone, so each
is built once per process: the oracle grid builds at most 32.  An
exact row makes about 31 Python-level calls and an asymptotic row 27.
The E1 power series is a Horner polynomial of at most 33 steps on
|z| <= 4 and 124 on |z| <= 50, and it sees only arguments where its
cancellation is at most e**4.
"""

import cmath
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import bwdecay
from bwdecay import _kernels_py, asymptotics, quadrature, survival
from bwdecay.crossover import crossover_time
from bwdecay.model import BreitWignerModel
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
             ["scan", "--beta", "10", "--points", "5", "--method", "asymptotic",
              "--tau-min", "40", "--tau-max", "400"],
             ["scan", "--beta", "10", "--points", "5", "--method", "quadrature"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    note(" ".join(argv) + " -> {}".format(code))
print(json.dumps(steps))
"""


# A quadrature scan, optionally with a meta-path finder in front that
# makes every import of scipy fail.
_NO_SCIPY_SCAN = """
import sys
if {block}:
    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError("scipy is blocked")
            return None
    sys.meta_path.insert(0, NoScipy())
import bwdecay.cli
sys.exit(bwdecay.cli.main(["scan", "--beta", "2.5", "--points", "7",
                           "--tau-min", "0", "--tau-max", "12", "--grid", "linear",
                           "--method", "quadrature", "--output", "json"]))
"""


# python -S skips site and its .pth hooks, which may import typing
# themselves, so whatever of these is loaded after the import, the
# package loaded it.  dataclasses would bring inspect, ast and dis.
_BARE_PROBE = """
import sys
sys.path.insert(0, {src!r})
import bwdecay.cli
print(" ".join(m for m in ("bwdecay.cli", "typing", "scipy", "dataclasses", "inspect")
               if m in sys.modules))
"""


# The CLI builds its parser on the first main() call, then reuses it.
_PARSER_PROBE = """
import contextlib, io
import bwdecay.cli as cli
sizes = [cli._build_parser.cache_info().currsize]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["info", "--beta", "10"])
    sizes.append(cli._build_parser.cache_info().misses)
print(*sizes)
"""


# The package modules loaded by one import statement in a fresh process.
_IMPORT_PROBE = """
import sys
{statement}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "bwdecay")))
"""

_LATE_TIME = ["bwdecay", "bwdecay.asymptotics", "bwdecay.crossover", "bwdecay.errors",
              "bwdecay.model"]
_ROUTES = ["bwdecay._kernels_py", "bwdecay.quadrature", "bwdecay.scan",
           "bwdecay.survival"]


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def test_no_route_imports_scipy():
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout)
    assert len(steps) == 7
    assert all(label.endswith("-> 0") for label, _ in steps[2:]), steps
    assert not any(loaded for _, loaded in steps), steps


def test_quadrature_scan_runs_without_scipy():
    runs = [subprocess.run([sys.executable, "-c", _NO_SCIPY_SCAN.format(block=block)],
                           capture_output=True, text=True)
            for block in (False, True)]
    for res in runs:
        assert res.returncode == 0, res.stderr
    assert json.loads(runs[0].stdout)["rows"][0]["p"] == pytest.approx(1.0, abs=1e-12)
    assert runs[1].stdout == runs[0].stdout


def test_bare_start_up_loads_neither_typing_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bwdecay.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", _BARE_PROBE.format(src=src)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["bwdecay.cli"]


@pytest.mark.parametrize("statement,loaded", [
    ("import bwdecay", ["bwdecay"]),
    ("from bwdecay import BreitWignerModel", ["bwdecay", "bwdecay.errors",
                                             "bwdecay.model"]),
    ("from bwdecay import time_grid", ["bwdecay", "bwdecay.errors", "bwdecay.model"]),
    ("import bwdecay.crossover", _LATE_TIME),
    ("import bwdecay.cli", sorted(_LATE_TIME + _ROUTES + ["bwdecay.cli"])),
], ids=["package", "one_export", "time_grid", "crossover", "cli"])
def test_an_import_loads_only_what_it_computes_with(statement, loaded):
    # the cli case pins today's set: every CLI call imports all of it
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(statement=statement)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == loaded


def test_import_builds_no_parser_and_main_builds_one():
    res = subprocess.run([sys.executable, "-c", _PARSER_PROBE],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "1", "1"]


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


@pytest.mark.parametrize("method,lo,hi,ceiling", [
    ("exact", 0.01, 40.0, 33.0),       # 47.4 before the rows ran straight
    ("exact", 40.0, 1e8, 33.0),        # 48.0
    ("asymptotic", 40.0, 1e8, 28.0),   # 47.0
])
def test_a_row_makes_few_python_calls(method, lo, hi, ceiling):
    # Python-level calls, as the profiler sees them, per row of a scan
    # of 2,000 log points at beta = 2; deterministic, so a ceiling holds
    # the count, with about one call of slack
    model = BreitWignerModel.from_beta(2.0)
    taus = list(time_grid(lo, hi, 2000, "log"))
    scan_rows(model, taus, method=method)  # fills the per-model caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        rows = scan_rows(model, taus, method=method)
    finally:
        sys.setprofile(None)
    assert calls / len(rows) <= ceiling


def test_late_time_tables_are_generated_once_per_beta():
    model = BreitWignerModel.from_beta(3.7)
    taus = time_grid(40.0, 1e8, 4000, "log")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", asymptotics.AsymptoticRangeWarning)
        for run in (lambda: scan_rows(model, taus, method="asymptotic"),
                    lambda: crossover_time(model, order=4)):
            asymptotics._tables.cache_clear()
            run()
            assert asymptotics._tables.cache_info().misses == 1


def test_quadrature_row_integrates_i_once(monkeypatch):
    # one run of the rule per row: I and J come out of the same quad
    # call, whatever beta*tau, and at tau = 0 as well
    calls = []
    rule = quadrature.quad

    def counting(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(quadrature, "quad", counting)
    quadrature._integrals.cache_clear()
    taus = [0.0, 0.371, 1.37, 3.71, 37.1, 371.0]
    rows = scan_rows(BreitWignerModel.from_beta(2.3), taus, method="quadrature")
    assert len(rows) == len(taus)
    assert [args[1] for args in calls] == taus


def _panels_per_point(monkeypatch, points):
    # the panel evaluations of one run of the rule at each point
    calls = []
    panel = quadrature._panel

    def counting(*args):
        calls.append(args)
        return panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counting)
    counts = []
    for beta, tau in points:
        before = len(calls)
        quadrature.quad(beta, tau)
        counts.append(len(calls) - before)
    return counts


def test_graded_start_saves_panels(monkeypatch):
    # on the oracle workload's grid, 5 nominal beta by 40 log tau on
    # [0.01, 40], the rule evaluates at most 7 panels per point; from a
    # one-panel start it bisects toward the decay and the pole and
    # evaluates 11.3, throwing away the 15 nodes of each panel it splits
    points = [(beta, tau) for beta in (0.05, 0.5, 2.0, 10.0, 100.0)
              for tau in time_grid(0.01, 40.0, 40, "log")]
    assert sum(_panels_per_point(monkeypatch, points)) <= 7 * len(points)


def test_graded_start_saves_panels_over_the_domain(monkeypatch):
    # beta by decades from 1e-20 to 1e20 and at 1e+-100 and 1e+-300, by
    # tau = 10**(k/4) on [1e-6, 1e3]: at most 8.5 panels per point on
    # average and 30 at any point
    betas = [10.0 ** k for k in (*range(-20, 21), -100, 100, -300, 300)]
    points = [(beta, 10.0 ** (k / 4)) for beta in betas for k in range(-24, 13)]
    counts = _panels_per_point(monkeypatch, points)
    assert sum(counts) <= 8.5 * len(points)
    assert max(counts) <= 30


@pytest.mark.parametrize("tau", [0.0, 5e-324, 1e-18, 1e4, 1e8])
@pytest.mark.parametrize("beta", [5e-324, 1e-3, 1.4e13, 1e150])
def test_graded_start_is_bounded(monkeypatch, beta, tau):
    # at most 37 panels for every beta > 0 and tau >= 0, also where
    # tau is subnormal; a huge beta starts on one panel
    sizes = []
    start = quadrature._start

    def recording(*args):
        ends = start(*args)
        sizes.append(len(ends))
        return ends

    monkeypatch.setattr(quadrature, "_start", recording)
    quadrature.quad(beta, tau)
    assert len(sizes) == 1 and sizes[0] <= 37


def test_panel_geometry_is_built_once_per_panel():
    # a panel's nodes, weights and t = u/(1 - u) depend on its ends and
    # the decay rate alone: the oracle grid of test_graded_start_saves_panels
    # meets 29 distinct panels and the whole-domain grid, tau = 0 at each
    # beta included, 124, so the 128-entry cache never evicts there
    oracle = [(beta, tau) for beta in (0.05, 0.5, 2.0, 10.0, 100.0)
              for tau in time_grid(0.01, 40.0, 40, "log")]
    betas = [10.0 ** k for k in (*range(-20, 21), -100, 100, -300, 300)]
    domain = [(beta, tau) for beta in betas
              for tau in (0.0, *(10.0 ** (k / 4) for k in range(-24, 13)))]
    for points, tables in ((oracle, 32), (domain, 128)):
        quadrature._nodes.cache_clear()
        for beta, tau in points:
            quadrature.quad(beta, tau)
        assert quadrature._nodes.cache_info().misses <= tables


def test_warm_node_tables_match_fresh_ones():
    # these points share panels between tau = 0 (no decay, rate 0) and
    # tau > 0 (rate 1), with and without the pole subtraction; a table
    # from the cache must give the bits of one built afresh
    points = [(beta, tau) for beta in (1e-8, 2.0, 1e6)
              for tau in (0.0, 1e-3, 1.0, 40.0, 70.0)]

    def fresh(beta, tau):
        quadrature._nodes.cache_clear()
        return quadrature.quad(beta, tau)

    for beta, tau in points:
        quadrature.quad(beta, tau)
    warm = [(beta, tau, quadrature.quad(beta, tau)) for beta, tau in points]
    for beta, tau, value in warm:
        assert repr(value) == repr(fresh(beta, tau)), (beta, tau)


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


def test_convergence_failure_raises_every_time(monkeypatch):
    # an E1 call that fails must fail again on the next call: the memo
    # behind the shared E1 pair never caches a failure
    def failing(z):
        raise OverflowError("no value at z = {!r}".format(z))

    monkeypatch.setattr(survival, "exp_integral_e1_scaled", failing)
    survival._pieces.cache_clear()
    model = BreitWignerModel.from_beta(0.05)
    tau = 7.9773739917783955
    for _ in range(2):
        with pytest.raises(OverflowError):
            survival.survival_probability(model, tau)
    for _ in range(2):
        with pytest.raises(OverflowError):
            scan_rows(model, [tau])


def _disk(radius, circles=16, angles=48):
    # every angle on circles out to ``radius``, the circle itself included
    return [cmath.rect(radius * i / circles, math.pi * j / angles)
            for i in range(1, circles + 1) for j in range(-angles + 1, angles + 1)]


def test_series_makes_at_most_33_horner_steps():
    # counted by the benchmark's own line tracer on the kernel loops
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    zs = _disk(4.0) + [complex(1e-300, 0.0), complex(0.0, -4.0), complex(-4.0, 1e-9)]
    counts = tracing.count_kernel_iterations(
        lambda: [_kernels_py.e1_series(z) for z in zs])["series"]
    assert len(counts) == len(zs)
    assert min(counts) == 12 and max(counts) == 33


def test_series_makes_at_most_124_horner_steps_out_to_its_radius():
    # where the E1 entry point sends 4 < |z| < 50, near the negative real
    # axis, and along the pole image z- = -tau/2 - i beta tau of beta = 1e-3
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    zs = [complex(-6.0, 2.0), complex(-20.0, -8.0), complex(-40.0, 12.0)]
    zs += [complex(-0.5 * tau, -1e-3 * tau) for tau in (8.5, 20.0, 60.0, 99.99)]
    assert all(4.0 < abs(z) < 50.0 and abs(z) + z.real <= 4.0 for z in zs)
    counts = tracing.count_kernel_iterations(
        lambda: [_kernels_py.e1_series(z) for z in zs])["series"]
    assert len(counts) == len(zs)
    assert min(counts) >= 33 and max(counts) == 124


def test_series_sees_only_arguments_it_serves_to_working_precision(monkeypatch):
    # the E1 entry point sends z to the series exactly where |z| < 50 and
    # |z| + Re z <= 4, whatever the scan or argument
    seen = []
    series = _kernels_py.e1_series

    def recording(z):
        seen.append(z)
        return series(z)

    monkeypatch.setattr(_kernels_py, "e1_series", recording)
    zs = _disk(4.5) + _disk(60.0) + [complex(2.0, 0.0), complex(2.0, 1e-9),
                                     complex(4.0, 0.0), complex(-49.9, 0.01),
                                     complex(-50.0, 0.01)]
    for z in zs:
        _kernels_py.exp_integral_e1_scaled(z)
    served = [z for z in zs if abs(z) < 50.0 and abs(z) + z.real <= 4.0]
    assert seen == served and len(served) > len(zs) // 3
    assert any(abs(z) > 4.0 for z in served)
    seen.clear()
    for beta in (1e-3, 0.05, 0.5, 2.0, 10.0, 100.0, 1e3):
        scan_rows(BreitWignerModel.from_beta(beta), time_grid(0.01, 40.0, 200))
    assert seen and all(abs(z) < 50.0 and abs(z) + z.real <= 4.0 for z in seen)
