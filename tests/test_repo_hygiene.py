"""Repository hygiene: no tracked file is also ignored by git, the
package imports exactly what pyproject.toml declares and uses every
import, its modules import each other without cycles and the
late-time modules without the exact and quadrature routes, its
export list is sorted, resolves and keeps the facade's contract, and
every failure type it raises is one the CLI reports with exit 3, and
a failing property test is reported as one failure."""

import ast
import graphlib
import importlib
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import bwdecay
from bwdecay import errors

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


def _module_trees():
    # module name ("__init__" for the package itself) -> its parsed source
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "bwdecay").glob("*.py"))}


def _imported_top_levels():
    names = set()
    for tree in _module_trees().values():
        for node in ast.walk(tree):
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
    # no linter runs here; __init__.py builds __all__ from its table
    unused = {}
    for name, tree in _module_trees().items():
        found = _unused_imports(tree) if name != "__init__" else []
        if found:
            unused[name + ".py"] = found
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


def _internal_import_graph():
    # module -> the package modules its "from ." imports name, at module
    # level or inside a function, where a module imports a route on first
    # use; "from . import __version__" names the package, "__init__"
    trees = _module_trees()
    graph = {name: set() for name in trees}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                graph[name].update(t if t in trees else "__init__" for t in targets)
    return graph


def _reach(graph, start):
    seen, todo = set(), [start]
    while todo:
        for dep in graph[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_import_graph_is_layered():
    # the graph sees every import only if no module imports the package
    # by its absolute name
    assert "bwdecay" not in _imported_top_levels()
    graph = _internal_import_graph()
    assert graph["crossover"] == {"asymptotics", "errors", "model"}
    # a cycle raises graphlib.CycleError
    tuple(graphlib.TopologicalSorter(graph).static_order())
    assert graph["__init__"] == set(), "the package must import no submodule eagerly"
    # the paper's late-time results need neither the exact nor the
    # quadrature route, nor the E1 kernels behind them
    routes = {"scan", "survival", "quadrature", "_kernels_py"}
    for name in ("crossover", "asymptotics", "model", "errors"):
        assert not _reach(graph, name) & routes, name
    # the quadrature oracle checks the closed form, so it shares no code
    # with it: neither the closed form nor its E1 kernels
    assert not _reach(graph, "quadrature") & {"survival", "_kernels_py"}


# the public surface, pinned: adding or dropping a name is an API change
_PUBLIC_NAMES = """
    AmplitudeValue AsymptoticRangeWarning BracketError BreitWignerModel
    CrossoverResult DomainError EffectiveHamiltonianValue NearZeroAmplitude
    ScanRow ToleranceNotMet amplitude amplitude_by_quadrature amplitude_late
    crossover_time decay_rate_late effective_hamiltonian energy_late
    exp_integral_e1_scaled i_beta i_brace_coefficients i_by_quadrature j_beta
    j_brace_coefficients j_by_quadrature kappa ratio_coefficients ratio_series
    scan_rows survival_probability time_grid
""".split()


def test_facade_contract():
    assert bwdecay.__all__ == _PUBLIC_NAMES
    for name, module in bwdecay._EXPORTS.items():
        defining = importlib.import_module("bwdecay." + module)
        assert getattr(bwdecay, name) is getattr(defining, name), name
        assert name in vars(bwdecay), "{} is not cached".format(name)
    star = {}
    exec("from bwdecay import *", star)
    assert set(star) - {"__builtins__"} == set(bwdecay.__all__)
    assert set(bwdecay.__all__) <= set(dir(bwdecay))
    with pytest.raises(AttributeError, match="no_such_name"):
        bwdecay.no_such_name
    # a submodule that is not an export still imports by name
    from bwdecay import backend
    assert backend is sys.modules["bwdecay.backend"]


def test_every_failure_type_exits_3():
    # the CLI exits 3 on any ArithmeticError; every exception class of
    # bwdecay.errors but DomainError, a usage error, must be one
    failures = [cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, Exception)
                and cls.__module__ == errors.__name__ and cls is not errors.DomainError]
    assert failures
    assert all(issubclass(cls, ArithmeticError) for cls in failures), failures


def test_a_failing_property_test_is_one_failure(tmp_path):
    # on a failure Hypothesis imports libcst, whose DeprecationWarning
    # the "error" filter of pyproject.toml would raise inside a pytest
    # hook, ending the whole run with INTERNALERROR (exit 3)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 1 and "1 failed" in res.stdout, res.stdout + res.stderr
