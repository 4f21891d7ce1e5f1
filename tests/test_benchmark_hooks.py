"""The benchmark's hooks into the package still fire.

``perfbench/tracing.py`` measures each layer by replacing module globals
of the package (the spans of ``SPAN_LAYER``) with timing wrappers, and
counts kernel iterations by line-tracing the loops of ``_kernels_py``.
A refactor that renames, inlines or bypasses one of those names breaks
the benchmark without failing any other test; these tests run every
route under the benchmark's own instruments instead.
"""

import contextlib
import importlib.util
import io
import os

import pytest

from bwdecay import cli
from bwdecay.model import BreitWignerModel
from bwdecay.scan import scan_rows, time_grid

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")

# one run per route; the six points of the exact scan reach all three E1
# kernels at beta = 10: the series at tau <= 0.28, the continued fraction
# at tau ~ 1.45 and the asymptotic sum at tau >= 7.6
RUNS = [
    ["scan", "--beta", "10", "--tau-min", "0.01", "--tau-max", "40", "--points", "6"],
    ["scan", "--beta", "10", "--method", "asymptotic", "--tau-min", "40",
     "--tau-max", "1e4", "--points", "5"],
    ["scan", "--beta", "2", "--method", "quadrature", "--tau-min", "0.5",
     "--tau-max", "5", "--points", "3"],
    ["crossover", "--beta", "10"],
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_fires(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert set(tracing.SPAN_LAYER) - tracer.fired() == set()


def test_rows_still_pass_through_the_spans(tracing):
    # every exact row calls E1 twice inside its survival spans, and every
    # scan row calls normalization once, read from the spans as the
    # benchmark reads them
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["survival.e1_calls_per_row"] == 2.0
    assert metrics["model.normalization_calls_per_row"] == 1.0


def test_kernel_loops_can_be_counted(tracing):
    taus = time_grid(0.01, 40.0, 12, "log")
    counts = tracing.count_kernel_iterations(
        lambda: scan_rows(BreitWignerModel.from_beta(10.0), taus))
    assert counts["series"] and counts["cf"]
    assert min(counts["series"] + counts["cf"]) >= 1
