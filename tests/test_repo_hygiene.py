"""Repository hygiene: no tracked file is also ignored by git, and the
package imports exactly what pyproject.toml declares."""

import ast
import pathlib
import re
import shutil
import subprocess
import sys

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


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        specs = tomllib.load(fh)["project"]["dependencies"]
    # "scipy>=1.9" -> "scipy"; distribution and import names coincide here
    return {re.match(r"[A-Za-z0-9_.-]+", s).group().lower().replace("-", "_")
            for s in specs}


def _imported_top_levels():
    names = set()
    for path in (ROOT / "src" / "bwdecay").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_imports_and_dependencies_match():
    # every import is the standard library, the package itself or a
    # declared dependency, and every declared dependency is imported
    declared = _declared_dependencies()
    imported = _imported_top_levels()
    undeclared = imported - set(sys.stdlib_module_names) - {"bwdecay"} - declared
    assert not undeclared, "imported but not declared: {}".format(sorted(undeclared))
    unused = declared - imported
    assert not unused, "declared but never imported: {}".format(sorted(unused))
