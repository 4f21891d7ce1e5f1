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
