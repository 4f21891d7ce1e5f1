import subprocess
import sys

import pytest


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
