"""Record what the command line prints for a fixed list of calls.

Runs each argument list of ``corpus()`` through ``bwdecay.cli.main``
in one process and writes, for each, its stdout, stderr and exit code
to a JSON file.  The list covers ``info``, ``crossover`` at every
order, and the exact, asymptotic and quadrature scans in CSV and JSON
over a spread of beta, quadrature scans at beta = 0.001, 1e8, 1e153,
1e-7 and 1e-8, an asymptotic scan at beta = 1e200
and a cross-over at 1.5e154, where D = beta**2 + 1/4 overflows, exact,
quadrature and asymptotic scans at beta = 1e-323 or 1e-12, an exact
scan at subnormal tau, two scans of 8,193 rows, to stdout and to an
``--out`` file, two scans of 1,025 rows on a linear grid and on a log
grid whose end ratio overflows, ``info`` and ``crossover`` in physical
units, one with a subnormal ``hbar * tau_T``, and the usage, model and
numerical error paths, a lifetime and a cross-over time above and
below double range among them.  An
uncaught exception is recorded as exit 1, with its type and message on
stderr, and the corpus goes on.  A call with ``--out`` writes to a
file in a temporary directory, and its record also holds the file's
contents.
Two trees that print the same bytes give the same file, so a refactor
that should change no output is checked with

    PYTHONPATH=OLD/src python tools/cli_corpus.py old.json
    PYTHONPATH=NEW/src python tools/cli_corpus.py new.json
    diff old.json new.json

Each output is stored as its list of lines, so the diff names the call
and the line that moved.  A run takes about a second.

With ``--digests`` each output is stored as the SHA-256 of its text
instead, one record a line.  ``tests/data/cli_corpus.json`` is that
file for the tree it is committed with, and ``tests/test_cli_corpus.py``
checks the tree against it; a change that moves printed bytes on
purpose rewrites it with

    PYTHONPATH=src python tools/cli_corpus.py --digests tests/data/cli_corpus.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from bwdecay import cli

BETAS = ("0.05", "0.5", "2", "10", "100")

SCANS = (
    # exact: the early eras, the deep tail, and a linear grid from 0
    ("--tau-min", "0.01", "--tau-max", "40", "--points", "25"),
    ("--tau-min", "40", "--tau-max", "1e8", "--points", "25"),
    ("--grid", "linear", "--tau-min", "0", "--tau-max", "10", "--points", "11"),
    ("--method", "asymptotic", "--terms", "3", "--tau-min", "40", "--tau-max", "1e8",
     "--points", "25"),
    ("--method", "asymptotic", "--terms", "5", "--tau-min", "1", "--tau-max", "1e8",
     "--points", "25"),
    ("--method", "quadrature", "--tau-min", "0.01", "--tau-max", "60",
     "--points", "9"),
    ("--method", "quadrature", "--grid", "linear", "--tau-min", "0", "--tau-max", "10",
     "--points", "11"),
)

# quadrature scans through the other branches of the rule's start and
# its pole subtraction: the pole within 1e-3 tau of the ray at small beta
# and tau, and no decay points where beta is huge; then scans at small
# beta, where the ray passes within beta of the pole
ORACLE_SCANS = tuple(
    ("scan", "--beta", beta, "--method", "quadrature", "--tau-min", lo, "--tau-max", "1e4",
     "--points", "25", "--output", "csv")
    for beta, lo in (("0.001", "1e-6"), ("1e8", "0.01"), ("1e153", "0.01"))) + (
    ("scan", "--beta", "1e-7", "--method", "quadrature", "--tau-min", "1e-6",
     "--tau-max", "1", "--points", "7"),
    ("scan", "--beta", "1e-8", "--method", "quadrature", "--points", "9"),)

# the late-time series where D = beta**2 + 1/4 overflows a double
HUGE_BETA = (
    ("scan", "--beta", "1e200", "--method", "asymptotic", "--tau-min", "40",
     "--tau-max", "1e8", "--points", "5", "--output", "csv"),
    ("crossover", "--beta", "1.5e154", "--terms", "3"),
)

# beta * tau underflows at the smallest beta: the exact route on the
# lower lip of the E1 cut, the oracle at beta = 1e-12, and the
# asymptotic kappa that the few bits of a subnormal beta leave
SMALL_BETA = (
    ("scan", "--beta", "1e-323", "--points", "4"),
    ("scan", "--beta", "1e-12", "--method", "quadrature", "--points", "3"),
    ("scan", "--beta", "1e-323", "--method", "asymptotic", "--tau-min", "50",
     "--tau-max", "1e8", "--points", "3"),
)

# subnormal tau, where forming z+- = +-tau/2 - i beta tau would lose bits
TINY_TAU = (
    ("scan", "--beta", "0.3", "--grid", "linear", "--tau-min", "0", "--tau-max", "5e-323",
     "--points", "3"),
)

# exact scans long enough that the CLI evaluates and renders them in
# seventeen slices, the last one row long
LONG_SCANS = (
    ("scan", "--beta", "2", "--points", "8193", "--output", "csv"),
    ("scan", "--beta", "2", "--points", "8193", "--output", "json"),
)

# stands for a file in a temporary directory, so that records do not
# depend on where it is
OUT = "OUT"
OUT_SCANS = tuple(call + ("--out", OUT) for call in LONG_SCANS)

# three slices each of the two grid formulas LONG_SCANS leaves out: a
# linear grid from 0, and a log grid whose ratio tau_max / tau_min
# overflows, so that it steps in logs
GRID_SCANS = (
    ("scan", "--beta", "2", "--grid", "linear", "--tau-min", "0", "--tau-max", "40",
     "--points", "1025", "--output", "json"),
    ("scan", "--beta", "2", "--tau-min", "1e-310", "--tau-max", "1e8",
     "--points", "1025"),
)

# models in physical units, widths 1e-170 and 1e200 among them, where
# gamma0**2 alone under- or overflows
UNITS = (
    ("--e0", "5", "--emin", "1", "--gamma0", "2", "--hbar", "0.6582119569"),
    ("--e0", "-1", "--emin", "-3.5", "--gamma0", "0.25", "--hbar", "6.582e-16"),
    ("--e0", "3e-170", "--emin", "1e-170", "--gamma0", "1e-170"),
    ("--beta", "2", "--gamma0", "1e-170"),
    ("--beta", "2", "--gamma0", "1e200", "--hbar", "1e-3"),
    ("--beta", "10", "--emin", "4", "--gamma0", "1e200"),
)
UNIT_CALLS = tuple(
    call for model in UNITS
    for call in (("info", *model), ("info", *model, "--output", "csv"),
                 ("crossover", *model), ("crossover", *model, "--terms", "4"))) + (
    # t = hbar tau_T / gamma0 ~ 1.1e-19 where hbar * tau_T is subnormal
    ("crossover", "--beta", "2", "--gamma0", "1e-300", "--hbar", "1e-320"),)

ERRORS = (
    # usage errors, exit 2
    ("scan",),
    ("scan", "--beta", "2", "--e0", "3"),
    ("scan", "--beta", "-1"),
    ("scan", "--beta", "2", "--points", "1"),
    ("scan", "--beta", "2", "--tau-min", "0"),
    ("scan", "--beta", "2", "--terms", "6"),
    ("scan", "--beta", "2", "--method", "series"),
    ("scan", "--beta", "2", "--method", "asymptotic", "--grid", "linear",
     "--tau-min", "0", "--tau-max", "5"),
    ("scan", "--beta", "2", "--tau-min", "5", "--tau-max", "1"),
    ("info", "--e0", "1", "--emin", "2"),
    ("crossover", "--beta", "2", "--terms", "5"),
    ("crossover", "--beta", "2", "--amp-const", "-1"),
    # a beta that e0 = emin + beta * gamma0 cannot hold
    ("info", "--beta", "0.3", "--emin", "1e15"),
    ("info", "--beta", "1e-20", "--emin", "1"),
    # numerical failures, exit 3
    ("scan", "--beta", "1e300", "--tau-min", "1e8", "--tau-max", "1e9",
     "--points", "2"),
    ("scan", "--beta", "1e300", "--tau-min", "1e9", "--tau-max", "1e10",
     "--points", "2"),
    ("scan", "--beta", "0.05", "--tau-min", "7", "--tau-max", "9", "--points", "5"),
    ("crossover", "--beta", "10", "--amp-const", "1e-300"),
    # a physical value beyond double range: the lifetime 1/gamma0, and
    # t = hbar tau_T / gamma0 ~ 1.1e311 though tau_T = 11.44 solves
    ("info", "--beta", "2", "--gamma0", "1e-310"),
    ("crossover", "--beta", "2", "--gamma0", "1e-300", "--hbar", "1e10"),
    # and below it, where hbar / gamma0 = 5e-325 and t ~ 5.7e-324 would
    # print as 0 and one subnormal unit
    ("info", "--beta", "2", "--hbar", "5e-324", "--gamma0", "10"),
    ("crossover", "--beta", "2", "--hbar", "5e-324", "--gamma0", "10"),
    # NearZeroAmplitude at tau ~ 1343.8, row 8,828, in the last of the
    # grid's eighteen slices
    ("scan", "--beta", "1e300", "--tau-min", "1e-300", "--tau-max", "1e9",
     "--points", "9000"),
)


def corpus() -> list:
    """The argument lists, in a fixed order."""
    calls = []
    for beta in BETAS:
        model = ("--beta", beta)
        for output in ("json", "csv"):
            calls.append(("info", *model, "--output", output))
        for order in range(1, 5):
            calls.append(("crossover", *model, "--terms", str(order)))
        for scan in SCANS:
            for output in ("csv", "json"):
                calls.append(("scan", *model, *scan, "--output", output))
    return (calls + list(ORACLE_SCANS) + list(HUGE_BETA) + list(SMALL_BETA)
            + list(TINY_TAU) + list(LONG_SCANS) + list(OUT_SCANS) + list(GRID_SCANS)
            + list(UNIT_CALLS) + list(ERRORS))


def run(argv, out_dir) -> dict:
    """stdout, stderr and exit code of one in-process ``cli.main`` call.

    An ``OUT`` argument becomes a file in ``out_dir``, and the record
    also holds that file's contents, or None where there is no file.
    """
    path = os.path.join(out_dir, "scan.out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([path if arg == OUT else arg for arg in argv])
        except SystemExit as exc:  # argparse reports usage errors so
            code = exc.code
        except Exception as exc:  # a traceback, as the interpreter's exit 1
            print("{}: {}".format(type(exc).__name__, exc), file=sys.stderr)
            code = 1
    record = {"argv": list(argv), "exit": code,
              "stdout": out.getvalue().split("\n"),
              "stderr": err.getvalue().split("\n")}
    if OUT in argv:
        record["out"] = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8", newline="") as fh:
                record["out"] = fh.read().split("\n")
            os.remove(path)
    return record


def digest(record) -> dict:
    """The record with each output's lines replaced by the SHA-256 of
    their text; a missing ``--out`` file stays None."""
    return {key: value if key in ("argv", "exit") or value is None
            else hashlib.sha256("\n".join(value).encode("utf-8")).hexdigest()
            for key, value in record.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    digests = args[:1] == ["--digests"]
    if len(args) != 1 + digests:
        print("usage: python tools/cli_corpus.py [--digests] OUT.json",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as out_dir:
        records = [run(call, out_dir) for call in corpus()]
    with open(args[-1], "w", encoding="utf-8") as fh:
        if digests:
            fh.write("[\n{}\n]\n".format(
                ",\n".join(json.dumps(digest(record)) for record in records)))
        else:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
