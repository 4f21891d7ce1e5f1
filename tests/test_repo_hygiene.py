"""Repository hygiene: no tracked file is also ignored by git, the
package imports exactly what pyproject.toml declares and uses every
import, and its export list is sorted and resolves."""

import ast
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import bwdecay

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


def _unused_imports(tree):
    # names bound by a module-level import that no Name node reads and
    # the module's __all__ does not re-export
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_module_import_is_used():
    # no linter runs here; __init__.py imports only to re-export
    unused = {}
    for path in sorted((ROOT / "src" / "bwdecay").glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[path.name] = found
    assert not unused, "imported but never used: {}".format(unused)


def test_export_list_is_sorted_and_resolves():
    names = bwdecay.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(bwdecay, name), name
    # helpers outside the decay law stay out of the public surface
    assert not {"LambdaCoefficients", "lambda_coefficients", "lambda_of_t",
                "ratio_coefficients_legacy", "SurvivorCount",
                "survivor_count"} & set(names)
