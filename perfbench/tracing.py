"""Per-layer measurement from outside the program.

Three instruments, each used in its own pass so that none of them skews
another:

* ``Tracer``: replaces each layer's public functions, in the module that
  *calls* them (the modules use ``from ... import``), by wrappers that
  record spans (name, start, end, parent, error) in flat arrays.  Self
  time is derived afterwards as span minus direct children.
* ``count_kernel_iterations``: a line tracer (``sys.settrace``) on the
  loops of ``_kernels_py``, for iteration counts that repeat exactly.
* ``startup_profile``: ``-X importtime`` of ``import bwdecay.cli`` in
  fresh interpreters.
"""

from __future__ import annotations

import ast
import inspect
import json
import statistics
import subprocess
import sys
import textwrap
import time
import warnings
from array import array

# span name -> layer; the first part of each name is the module whose
# global is replaced.
SPAN_LAYER = {
    "cli.main": "cli",
    "cli.time_grid": "scan.time_grid",
    "cli.scan_rows": "scan",
    "cli.crossover_time": "crossover",
    "scan.survival_probability": "survival",
    "scan.effective_hamiltonian": "survival",
    "scan.amplitude_late": "asymptotics",
    "scan.ratio_series": "asymptotics",
    "crossover.amplitude_late": "asymptotics",
    "scan.amplitude_by_quadrature": "quadrature",
    "scan.i_by_quadrature": "quadrature",
    "scan.j_by_quadrature": "quadrature",
    "quadrature.quad": "quadrature.quad",
    "survival.exp_integral_e1_scaled": "special",
    "kernels.e1_series": "kernels.series",
    "kernels.e1_cf_scaled": "kernels.cf",
    "model.normalization": "model",
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names = list(SPAN_LAYER)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.error = array("i")     # 0, or 1 + index into self.errors
        self.value = array("d")     # result measure, for a few spans
        self.errors = []
        self.stack = []
        self.warnings = 0
        self._patches = []

    def wrap(self, span: str, fn, measure=None):
        nid = self.names.index(span)
        start, end, name, parent = self.start, self.end, self.name, self.parent
        error, value, stack, clock = self.error, self.value, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            error.append(0)
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                kind = type(exc).__name__
                if kind not in self.errors:
                    self.errors.append(kind)
                error[idx] = 1 + self.errors.index(kind)
                raise
            else:
                end[idx] = clock()
                if measure is not None:
                    value[idx] = measure(result)
                return result
            finally:
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, span: str, measure=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, measure))

    def install(self):
        """Wrap every layer boundary of the imported package."""
        from bwdecay import asymptotics, backend, cli, crossover, model
        from bwdecay import quadrature, scan, survival

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "time_grid", "cli.time_grid")
        self.patch(cli, "scan_rows", "cli.scan_rows", measure=len)
        self.patch(cli, "crossover_time", "cli.crossover_time",
                   measure=lambda r: r.iterations)
        for attr in ("survival_probability", "effective_hamiltonian",
                     "amplitude_late", "ratio_series", "amplitude_by_quadrature",
                     "i_by_quadrature", "j_by_quadrature"):
            self.patch(scan, attr, "scan." + attr)
        self.patch(crossover, "amplitude_late", "crossover.amplitude_late")
        self.patch(quadrature, "quad", "quadrature.quad")
        self.patch(survival, "exp_integral_e1_scaled",
                   "survival.exp_integral_e1_scaled")
        self.patch(model.BreitWignerModel, "normalization", "model.normalization")
        if backend.BACKEND == "python":
            # e1_scaled looks both kernels up as module globals
            self.patch(backend.kernels, "e1_series", "kernels.e1_series")
            self.patch(backend.kernels, "e1_cf_scaled", "kernels.e1_cf_scaled")
        else:
            # compiled kernels call each other in C; classify the public
            # entry point by the branch its argument selects
            self._patch_compiled(backend.kernels)
        self._patch_warnings(asymptotics)

    def _patch_compiled(self, kernels):
        original = kernels.e1_scaled
        series = self.wrap("kernels.e1_series", original)
        cf = self.wrap("kernels.e1_cf_scaled", original)
        radius = kernels.SERIES_RADIUS

        def e1_scaled(z):
            return series(z) if abs(z) <= radius else cf(z)

        self._patches.append((kernels, "e1_scaled", original))
        kernels.e1_scaled = e1_scaled

    def _patch_warnings(self, asymptotics):
        tracer = self

        class _Counting:
            def __getattr__(self, attr):
                return getattr(warnings, attr)

            @staticmethod
            def warn(message, category=None, stacklevel=1, source=None):
                if category is asymptotics.AsymptoticRangeWarning:
                    tracer.warnings += 1
                warnings.warn(message, category, stacklevel + 1, source)

        self._patches.append((asymptotics, "warnings", asymptotics.warnings))
        asymptotics.warnings = _Counting()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fired(self) -> set:
        return {self.names[i] for i in set(self.name)}

    def write(self, path: str):
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "errors": self.errors,
                      "count": len(self.start),
                      "arrays": ["start:d", "end:d", "name:i", "parent:i",
                                 "error:i", "value:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent,
                        self.error, self.value):
                arr.tofile(fh)


def layer_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer counts and self times from the recorded spans."""
    n = len(tr.start)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
    names = tr.names
    layer_of = [SPAN_LAYER[s] for s in names]
    calls, total, self_s, failed, by_error = {}, {}, {}, {}, {}
    stall_s = 0.0
    for i in range(n):
        layer = layer_of[tr.name[i]]
        calls[layer] = calls.get(layer, 0) + 1
        total[layer] = total.get(layer, 0.0) + dur[i]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        if tr.error[i]:
            failed[layer] = failed.get(layer, 0) + 1
            key = (layer, tr.errors[tr.error[i] - 1])
            by_error[key] = by_error.get(key, 0) + 1
            if layer == "kernels.cf":
                stall_s += dur[i]

    # E1 and normalization calls made inside rows that were delivered:
    # each special / model span is charged to its nearest survival or
    # scan ancestor, and counted only if that ancestor returned.
    sid = {s: i for i, s in enumerate(names)}
    surv = {sid["scan.survival_probability"], sid["scan.effective_hamiltonian"]}
    e1_in_ok_rows = norm_in_ok_scans = 0
    for i in range(n):
        nm = tr.name[i]
        if nm == sid["survival.exp_integral_e1_scaled"]:
            p = tr.parent[i]
            if p >= 0 and tr.name[p] in surv and not tr.error[p]:
                e1_in_ok_rows += 1
        elif nm == sid["model.normalization"]:
            p = tr.parent[i]
            while p >= 0 and tr.name[p] != sid["cli.scan_rows"]:
                p = tr.parent[p]
            if p >= 0 and not tr.error[p]:
                norm_in_ok_scans += 1
    ok_surv_rows = sum(1 for i in range(n) if tr.name[i] == sid["scan.survival_probability"]
                       and not tr.error[i])
    rows = sum(tr.value[i] for i in range(n) if tr.name[i] == sid["cli.scan_rows"])
    xo_iters = [tr.value[i] for i in range(n)
                if tr.name[i] == sid["cli.crossover_time"] and not tr.error[i]]
    top = sum(dur[i] for i in range(n) if tr.parent[i] < 0)

    def c(layer):
        return calls.get(layer, 0)

    k_calls = c("kernels.series") + c("kernels.cf")
    k_fail = failed.get("kernels.series", 0) + failed.get("kernels.cf", 0)
    e1_per_row = e1_in_ok_rows / ok_surv_rows if ok_surv_rows else 0.0
    return {
        "cli.calls": c("cli"),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.self_us_per_row": 1e6 * self_s.get("cli", 0.0) / rows if rows else 0.0,
        "scan.time_grid_s": total.get("scan.time_grid", 0.0),
        "scan.rows": rows,
        "scan.self_s": self_s.get("scan", 0.0),
        "survival.calls": c("survival"),
        "survival.self_s": self_s.get("survival", 0.0),
        "survival.e1_calls_per_row": e1_per_row,
        "survival.e1_useful_ratio": 2.0 / e1_per_row if e1_per_row else 0.0,
        "special.calls": c("special"),
        "special.self_s": self_s.get("special", 0.0),
        "special.errors": failed.get("special", 0),
        "kernels.series_calls": c("kernels.series"),
        "kernels.cf_calls": c("kernels.cf"),
        "kernels.series_s": total.get("kernels.series", 0.0),
        "kernels.cf_s": total.get("kernels.cf", 0.0),
        "kernels.cf_stalls": failed.get("kernels.cf", 0),
        "kernels.stall_s": stall_s,
        "kernels.converged_ratio": (k_calls - k_fail) / k_calls if k_calls else 1.0,
        "asymptotics.calls": c("asymptotics"),
        "asymptotics.self_s": self_s.get("asymptotics", 0.0),
        "asymptotics.range_warnings": tr.warnings,
        "quadrature.calls": c("quadrature"),
        "quadrature.self_s": self_s.get("quadrature", 0.0),
        "quadrature.quad_calls": c("quadrature.quad"),
        "quadrature.quad_s": total.get("quadrature.quad", 0.0),
        "quadrature.tolerance_misses": by_error.get(("quadrature", "ToleranceNotMet"), 0),
        "crossover.calls": c("crossover"),
        "crossover.self_s": self_s.get("crossover", 0.0),
        "crossover.f_evals": sum(1 for i in range(n)
                                 if tr.name[i] == sid["crossover.amplitude_late"]),
        "crossover.bisection_iters_mean": statistics.fmean(xo_iters) if xo_iters else 0.0,
        "crossover.bracket_errors": by_error.get(("crossover", "BracketError"), 0),
        "model.normalization_calls_per_row": norm_in_ok_scans / rows if rows else 0.0,
        "trace.coverage": top / wall_s,
    }


def _loop_body_line(fn) -> int:
    """First line of the loop body in ``fn``: executed once per iteration."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            return first + node.body[0].lineno - 1
    raise RuntimeError("no loop found in {}".format(fn.__qualname__))


def count_kernel_iterations(work) -> dict:
    """Run ``work()`` under a line tracer on the pure-Python E1 loops.

    Returns per-kernel lists of iteration counts, one entry per call.
    Raises RuntimeError under the compiled backend, whose loops cannot be
    traced.
    """
    from bwdecay import _kernels_py, backend

    if backend.BACKEND != "python":
        raise RuntimeError("iteration counts need the pure-Python kernels")
    targets = {}
    for key, fn in (("series", _kernels_py.e1_series), ("cf", _kernels_py.e1_cf_scaled)):
        targets[fn.__code__] = (key, _loop_body_line(fn))
    counts = {"series": [], "cf": []}

    def on_call(frame, event, arg):
        target = targets.get(frame.f_code)
        if target is None:
            return None
        key, line = target
        bucket = counts[key]
        bucket.append(0)
        slot = len(bucket) - 1

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                bucket[slot] += 1
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return counts


def _parse_importtime(stderr: str) -> dict:
    # lines: "import time: self [us] | cumulative | <indent>name"; children
    # precede their parent, nesting shown by two spaces per level.
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        raw = name.rstrip()
        depth = (len(raw) - len(raw.lstrip())) // 2
        entries.append((int(cum_us), depth, raw.strip()))
    # each module is imported once; bwdecay nests inside bwdecay.cli
    cum = {name: us for us, depth, name in entries}
    cli_us = cum.get("bwdecay.cli", 0)
    # outermost scipy imports: walk parents-first (reverse order)
    scipy_us, stack = 0, []
    for us, depth, name in reversed(entries):
        del stack[depth:]
        if name.startswith("scipy") and not any(s.startswith("scipy") for s in stack):
            scipy_us += us
        stack.append(name)
    return {"bwdecay_s": cum.get("bwdecay", 0) / 1e6, "cli_s": cli_us / 1e6,
            "scipy_s": scipy_us / 1e6}


def startup_profile(python: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """Median interpreter start and import times over fresh processes."""
    interp, prof = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True)
        interp.append(time.perf_counter() - t0)
        done = subprocess.run([python, "-X", "importtime", "-c", "import bwdecay.cli"],
                              env=env, cwd=cwd, check=True, capture_output=True,
                              text=True)
        prof.append(_parse_importtime(done.stderr))
    med = {k: statistics.median(p[k] for p in prof) for k in prof[0]}
    return {
        "startup.interp_s": statistics.median(interp),
        "startup.import_bwdecay_s": med["bwdecay_s"],
        "startup.import_cli_s": med["cli_s"],
        "startup.scipy_share": med["scipy_s"] / med["cli_s"] if med["cli_s"] else 0.0,
    }
