"""Repository hygiene: no tracked file is also ignored by git."""

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore lists is an artifact someone
    # committed by force; it goes stale silently
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("the source tree is not a git work tree")
    res = _git("ls-files", "-ci", "--exclude-standard")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "", "tracked but ignored:\n" + res.stdout
