"""The command line prints the bytes that ``tests/data/cli_corpus.json``
pins.

The file holds, for each call of ``tools/cli_corpus.py``, its argv, its
exit code and a SHA-256 each of its stdout, stderr and ``--out``
contents.  The test runs the same calls in process, through the tool
itself, so a change that moves a printed byte fails here unless it
rewrites the file on purpose (README "Development").
"""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "cli_corpus.py")
_PIN = os.path.join(_ROOT, "tests", "data", "cli_corpus.json")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cli_corpus", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_printed_bytes_match_the_pin(tool, tmp_path):
    with open(_PIN, encoding="utf-8") as fh:
        pinned = {tuple(record["argv"]): record for record in json.load(fh)}
    got = {tuple(call): tool.digest(tool.run(call, str(tmp_path)))
           for call in tool.corpus()}
    moved = [" ".join(argv) for argv in got if got[argv] != pinned.get(argv)]
    moved += [" ".join(argv) + " (no longer run)" for argv in pinned if argv not in got]
    assert not moved, (
        "{} calls print other bytes than {} pins:\n  {}\n"
        "For the line diff run `python tools/cli_corpus.py OUT.json` with "
        "PYTHONPATH set to the parent's src and to this tree's, and diff the "
        "two files; if the change is meant, rewrite the pin with "
        "`PYTHONPATH=src python tools/cli_corpus.py --digests "
        "tests/data/cli_corpus.json` and list the moved calls.".format(
            len(moved), os.path.relpath(_PIN, _ROOT), "\n  ".join(moved)))
