"""Layered benchmark for bwdecay: one command, four workloads.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload dense_tail --seed 1 --seconds 18 --trace 0

Load is closed-loop from one client: calls run one after another, in
process (``cli.main``) or, on ``cli_session``, as one fresh
``python -m bwdecay`` process per call.  A run repeats whole rounds of
the workload (see ``workloads.py``); ``--seconds`` sets how many, from
each workload's nominal round time.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` prints the per-layer metrics: it runs one round
untraced, the same round with every layer wrapped (spans, see
``tracing.py``), a counting-only pass for E1 kernel iterations, and
``-X importtime`` start-up profiles.  Both modes check every output
(see ``Gate``) and end with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation is one requested scan row, or one crossover or info call.
A call that exits 3 (numerical failure) delivers nothing, so all of its
operations fail; a wrong output is a failure too, and also makes
``correct`` false.  Details, machine info and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# correctness sample sizes per run, shared out over the calls of a kind
EXACT_SAMPLE = 300
SERIES_SAMPLE = 200
QUAD_SAMPLE = 200
# kernel-iteration sample per exact scan, in the counting pass
ITER_SAMPLE = 64
# the traced run is rejected if its top-level spans miss more than this
MIN_COVERAGE = 0.9
# The effective speed of a small shared VM drifts by tens of percent over
# minutes (host contention; it shows in CPU time too, not as steal).  So on
# the in-process workloads a fixed pure-Python loop is timed between calls,
# and each call's time is reported at the speed at which that loop takes
# CALIBRATION_REF_S: measured * CALIBRATION_REF_S / (median loop time
# around and during the call).  This halved the spread between runs there.
# The loop in the parent does not track the speed of child processes, so
# child times (setup_s, cli_session calls) are scaled instead by a reference
# child that does the work dominating bwdecay's start-up without importing
# bwdecay: REFERENCE_CHILD_S over the median reference time of the run.
# Raw wall times stay in the detail file.
CALIBRATION_LOOPS = 30_000
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_WINDOW = 4      # loop samples taken on each side of a call
CALIBRATION_EVERY_S = 0.25  # and one per this much time inside a call
REFERENCE_CHILD = ("-c", "import scipy.integrate")
REFERENCE_CHILD_S = 0.8
REFERENCE_EVERY = 5         # cli_session calls between reference children

END_TO_END = {
    "setup_s": "s", "cli_p50_ms": "ms", "cli_tail_ms": "ms", "rows_per_s": "1/s",
    "crossover_p50_ms": "ms", "crossover_tail_ms": "ms", "failed_share": "ratio",
    "exact_max_rel_err": "ratio", "peak_rss_mb": "MB",
}

# spans every traced round of a workload must record
EXPECTED_SPANS = {
    "cli_session": {"cli.main", "cli.time_grid", "cli.scan_rows", "cli.crossover_time",
                    "scan.survival_probability", "scan.effective_hamiltonian",
                    "scan.amplitude_late", "scan.ratio_series",
                    "crossover.amplitude_late", "survival.exp_integral_e1_scaled",
                    "kernels.e1_series", "kernels.e1_cf_scaled", "model.normalization"},
    "dense_early": {"cli.main", "cli.time_grid", "cli.scan_rows", "cli.crossover_time",
                    "scan.survival_probability", "scan.effective_hamiltonian",
                    "crossover.amplitude_late", "survival.exp_integral_e1_scaled",
                    "kernels.e1_series", "kernels.e1_cf_scaled", "model.normalization"},
    "dense_tail": {"cli.main", "cli.time_grid", "cli.scan_rows", "cli.crossover_time",
                   "scan.survival_probability", "scan.effective_hamiltonian",
                   "scan.amplitude_late", "scan.ratio_series",
                   "crossover.amplitude_late", "survival.exp_integral_e1_scaled",
                   "kernels.e1_cf_scaled", "model.normalization"},
    "oracle": {"cli.main", "cli.time_grid", "cli.scan_rows", "cli.crossover_time",
               "scan.amplitude_by_quadrature", "scan.i_by_quadrature",
               "scan.j_by_quadrature", "quadrature.quad", "crossover.amplitude_late",
               "model.normalization"},
}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def tail(values):
    """(value, percentile): the highest percentile with at least 10
    samples beyond it; the maximum when there are 10 samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrate():
    """Time of the fixed calibration loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class Calibration:
    """Loop times taken between calls and, every CALIBRATION_EVERY_S,
    during a call (from a SIGALRM handler), so that a long call is scaled
    by the speed measured while it ran."""

    def __init__(self):
        self.edges = [calibrate()]     # edges[i] is taken before call i
        self.inside = []               # inside[i]: loop times during call i
        self._current = []
        self._spent = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._current.append(calibrate())
        self._spent += time.perf_counter() - t0

    def start(self):
        self._current, self._spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop(self) -> float:
        """End a call; returns the time the handler took out of it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside.append(self._current)
        self.edges.append(calibrate())
        return self._spent

    def factors(self):
        """Per call: CALIBRATION_REF_S over the median loop time of the
        samples taken during it and the CALIBRATION_WINDOW edge samples
        on each side."""
        w = CALIBRATION_WINDOW
        return [CALIBRATION_REF_S / statistics.median(
                    self.edges[max(0, i - w + 1):i + w + 1] + inside)
                for i, inside in enumerate(self.inside)]


def _sha1_file(path):
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Session:
    """Executes calls and keeps, per distinct argv, what the gate needs."""

    def __init__(self, workload, root, src, subprocesses, calibrated):
        self.workload = workload
        self.root = root
        self.subprocesses = subprocesses
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.records = []          # (call, seconds, rc, out_bytes)
        self.calibration = Calibration() if calibrated else None
        self.child_refs = []       # wall times of the reference child
        self.first = {}            # argv -> (rc, sha1, output bytes or path)
        self.mismatch = {}         # argv -> occurrences that differed
        self.cli = None

    def execute(self, call):
        if self.subprocesses:
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "bwdecay", *call.argv],
                                  env=self.env, cwd=self.root, capture_output=True)
            seconds = time.perf_counter() - t0
            rc, data = done.returncode, done.stdout
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.calibration is not None:
                    self.calibration.start()
                try:
                    t0 = time.perf_counter()
                    rc = self.cli.main(list(call.argv))
                    seconds = time.perf_counter() - t0
                finally:
                    spent = self.calibration.stop() if self.calibration is not None else 0.0
                seconds -= spent
            data = out.getvalue().encode()
        if rc not in (0, 3):
            raise BenchError("{} exited {}".format(" ".join(call.argv), rc))
        self._remember(call, rc, data)
        nbytes = os.path.getsize(call.out) if call.out and rc == 0 else len(data)
        self.records.append((call, seconds, rc, nbytes))
        return seconds

    def _remember(self, call, rc, data):
        # outputs must repeat byte for byte; the first one is kept for
        # the gate (in memory for stdout, as a file otherwise)
        if call.out and rc == 0:
            digest, keep = _sha1_file(call.out), call.out
        else:
            digest, keep = hashlib.sha1(data).hexdigest(), data
        first = self.first.setdefault(call.argv, (rc, digest, keep))
        if first[:2] != (rc, digest):
            self.mismatch[call.argv] = self.mismatch.get(call.argv, 0) + 1

    def output(self, argv):
        keep = self.first[argv][2]
        if isinstance(keep, bytes):
            return keep.decode()
        with open(keep, "r", encoding="utf-8") as fh:
            return fh.read()

    def run_rounds(self, calls, rounds):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for i, call in enumerate(calls):
                if self.subprocesses and i % REFERENCE_EVERY == 0:
                    self.reference_child()
                self.execute(call)
        if self.subprocesses:
            self.reference_child()
        return time.perf_counter() - t0

    def reference_child(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *REFERENCE_CHILD], env=self.env, cwd=self.root,
                       check=True)
        self.child_refs.append(time.perf_counter() - t0)

    def child_factor(self):
        return REFERENCE_CHILD_S / statistics.median(self.child_refs)


# -- correctness gate -------------------------------------------------------

def parse_rows(text, output):
    if output == "json":
        return [(r["tau"], r["p"], r["kappa"], r["gamma_ratio"], r["method"])
                for r in json.loads(text)["rows"]]
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("tau,"):
            continue
        f = line.split(",")
        rows.append(tuple(float(x) if x else None for x in f[:4]) + (f[6],))
    return rows


def log_grid(tau_min, tau_max, points):
    ratio = tau_max / tau_min
    grid = [tau_min * ratio ** (i / (points - 1)) for i in range(points)]
    grid[0], grid[-1] = tau_min, tau_max
    return grid


class Gate:
    """Checks delivered outputs; collects wrong operations and errors."""

    def __init__(self, seed):
        self.rng = random.Random(seed + 2)
        self.wrong = {}           # argv -> wrong operations per occurrence
        self.exact_errs = []
        self.component_max = [0.0, 0.0, 0.0]
        self.checked = {"exact": 0, "asymptotic": 0, "quadrature": 0,
                        "crossover": 0, "info": 0}
        self.notes = []

    def flag(self, argv, ops, why):
        self.wrong[argv] = self.wrong.get(argv, 0) + ops
        if len(self.notes) < 20:
            self.notes.append("{}: {}".format(" ".join(argv), why))

    def _sample(self, rows, k):
        idx = sorted(self.rng.sample(range(len(rows)), min(k, len(rows))))
        return [rows[i] for i in idx]

    def check(self, session, calls):
        import reference as ref

        delivered = [c for c in calls if session.first[c.argv][0] == 0]
        per = {}
        for c in delivered:
            if c.kind == "scan":
                per[c.method] = per.get(c.method, 0) + 1
        quota = {"exact": EXACT_SAMPLE, "asymptotic": SERIES_SAMPLE,
                 "quadrature": QUAD_SAMPLE}
        for c in delivered:
            text = session.output(c.argv)
            if c.kind == "crossover":
                self._check_crossover(ref, c, json.loads(text))
            elif c.kind == "info":
                self._check_info(ref, c, json.loads(text))
            else:
                k = -(-quota[c.method] // per[c.method])
                self._check_scan(ref, c, text, k)

    def _check_scan(self, ref, c, text, k):
        rows = parse_rows(text, c.output)
        grid = log_grid(float(c.tau_min), float(c.tau_max), c.points)
        if len(rows) != c.points:
            return self.flag(c.argv, c.points, "{} rows".format(len(rows)))
        for (tau, p, *_rest), want in zip(rows, grid):
            if _rest[-1] != c.method or abs(tau - want) > 1e-13 * want:
                return self.flag(c.argv, c.points, "grid or method column")
            if c.method != "asymptotic" and not 0.0 <= p <= 1.0 + 1e-9:
                return self.flag(c.argv, c.points, "p = {!r}".format(p))
        beta = float(c.beta)
        for tau, p, kappa, gamma, _ in self._sample(rows, k):
            self.checked[c.method] += 1
            if c.method == "exact":
                err, comp = ref.exact_row_error(beta, tau, p, kappa, gamma)
                self.exact_errs.append(err)
                self.component_max = [max(a, b) for a, b in zip(self.component_max, comp)]
                ok = err <= ref.EXACT_REL_TOL
            elif c.method == "asymptotic":
                ok = ref.asymptotic_row_error(beta, tau, c.terms, p, kappa,
                                              gamma) <= ref.EXACT_REL_TOL
            else:
                ok = ref.quadrature_row_ok(beta, tau, p, kappa, gamma)
            if not ok:
                self.flag(c.argv, 1, "{} row at tau = {!r}".format(c.method, tau))

    def panel(self, workload):
        """Largest exact-row error over the fixed panel: nominal betas on
        a log grid of the workload's tau range.  Seed-free, so it moves
        only when the program's accuracy does; rows the exact route
        refuses (the small-beta hole) are skipped, not scored."""
        import reference as ref
        from bwdecay.model import BreitWignerModel
        from bwdecay.scan import scan_rows

        lo, hi = (float(x) for x in workloads.PANEL_RANGE[workload])
        worst = 0.0
        for beta in workloads.NOMINAL_BETAS:
            model = BreitWignerModel.from_beta(beta)
            for tau in log_grid(lo, hi, workloads.PANEL_POINTS):
                try:
                    row = scan_rows(model, [tau])[0]
                except ArithmeticError:
                    continue
                err, _ = ref.exact_row_error(beta, tau, row.p, row.kappa,
                                             row.gamma_ratio)
                worst = max(worst, err)
        return worst

    def _check_crossover(self, ref, c, rec):
        self.checked["crossover"] += 1
        if rec["order"] != c.terms or not ref.crossover_ok(
                float(c.beta), c.terms, rec["tau_t"], rec["bracket_lo"],
                rec["bracket_hi"]):
            self.flag(c.argv, 1, "tau_t = {!r}".format(rec["tau_t"]))

    def _check_info(self, ref, c, rec):
        self.checked["info"] += 1
        want = float(ref._norm(ref.mp.mpf(c.beta)))
        if abs(rec["normalization"] - want) > 1e-14 * want:
            self.flag(c.argv, 1, "normalization = {!r}".format(rec["normalization"]))


def byte_identical(session, calls, cli):
    """cli_session: each process's stdout against cli.main in-process."""
    bad = []
    for c in {c.argv: c for c in calls}.values():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(c.argv))
        want = (rc, hashlib.sha1(out.getvalue().encode()).hexdigest())
        if session.first[c.argv][:2] != want:
            bad.append(c)
    return bad


def account(session, gate):
    """(attempted, failed, delivered rows) over every recorded call."""
    attempted = failed = rows = 0
    for call, _, rc, _ in session.records:
        attempted += call.ops
        if rc != 0:
            failed += call.ops
        else:
            wrong = min(call.ops, gate.wrong.get(call.argv, 0))
            failed += wrong
            if call.kind == "scan":
                rows += call.points - wrong
    for argv, n in session.mismatch.items():
        ops = next(c.ops for c, *_ in session.records if c.argv == argv)
        failed += n * ops
    return attempted, failed, rows


# -- measurements -----------------------------------------------------------

def measure_setup(session):
    """Median wall time of a fresh ``import bwdecay.cli``."""
    times = []
    session.reference_child()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bwdecay.cli"], env=session.env,
                       cwd=session.root, check=True)
        times.append(time.perf_counter() - t0)
    session.reference_child()
    return statistics.median(times)


def machine_info():
    from bwdecay import backend

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"backend": backend.BACKEND, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def timing_metrics(kinds_seconds, setup_s):
    """The time-based end-to-end metrics from (kind, seconds) per call."""
    lat = [s * 1e3 for kind, s in kinds_seconds if kind != "crossover"]
    xo = [s * 1e3 for kind, s in kinds_seconds if kind == "crossover"]
    cli_tail, cli_pct = tail(lat)
    xo_tail, xo_pct = tail(xo)
    metrics = {"setup_s": setup_s, "cli_p50_ms": statistics.median(lat),
               "cli_tail_ms": cli_tail, "crossover_p50_ms": statistics.median(xo),
               "crossover_tail_ms": xo_tail,
               "scan_s": sum(s for kind, s in kinds_seconds if kind == "scan")}
    return metrics, {"cli_tail_percentile": cli_pct, "cli_samples": len(lat),
                     "crossover_tail_percentile": xo_pct, "crossover_samples": len(xo)}


def end_to_end(session, gate, setup_s, rss_mb):
    attempted, failed, rows = account(session, gate)
    raw = [(c.kind, s) for c, s, _, _ in session.records]
    factors = (session.calibration.factors() if session.calibration is not None
               else [session.child_factor()] * len(raw))
    scaled = [(kind, s * f) for (kind, s), f in zip(raw, factors)]
    metrics, detail = timing_metrics(scaled, setup_s * session.child_factor())
    metrics["rows_per_s"] = rows / metrics.pop("scan_s")
    metrics.update({
        "failed_share": failed / attempted,
        "exact_max_rel_err": gate.panel(session.workload),
        "peak_rss_mb": rss_mb,
    })
    wall, _ = timing_metrics(raw, setup_s)
    wall["rows_per_s"] = rows / wall.pop("scan_s")
    detail.update({"wall": wall, "sample_max_rel_err": max(gate.exact_errs, default=0.0),
                   "speed_factor_median": statistics.median(factors),
                   "child_factor": session.child_factor()})
    return attempted, failed, {k: metrics[k] for k in END_TO_END}, detail


def per_layer(args, session, calls, root, src_env):
    import tracing
    from bwdecay import backend, scan
    from bwdecay.model import BreitWignerModel

    layers = tracing.startup_profile(sys.executable, src_env, root)
    # untraced round, then the same round traced
    t0 = time.perf_counter()
    for call in calls:
        session.execute(call)
    untraced = time.perf_counter() - t0
    tr = tracing.Tracer()
    tr.install()
    try:
        first_traced = len(session.records)
        t0 = time.perf_counter()
        for call in calls:
            session.execute(call)
        traced = time.perf_counter() - t0
    finally:
        tr.uninstall()
    missing = EXPECTED_SPANS[args.workload] - tr.fired()
    if missing:
        raise BenchError("wrappers never fired: {}".format(", ".join(sorted(missing))))
    layers.update(tracing.layer_metrics(tr, traced))
    if layers["trace.coverage"] < MIN_COVERAGE:
        raise BenchError("top-level spans cover only {:.1%} of the traced run".format(
            layers["trace.coverage"]))
    layers["trace.overhead_share"] = traced / untraced - 1.0
    layers["cli.out_bytes"] = sum(n for *_, n in session.records[first_traced:])
    tr.write(os.path.join(OUT_DIR, "{}.spans".format(args.workload)))

    # counting-only pass: a seeded sample of each exact scan's grid, in
    # grid order, stopping where the scan itself stops
    rng = random.Random(args.seed + 3)
    work = []
    for c in {c.argv: c for c in calls if c.kind == "scan" and c.method == "exact"}.values():
        grid = scan.time_grid(float(c.tau_min), float(c.tau_max), c.points, "log")
        idx = sorted(rng.sample(range(len(grid)), min(ITER_SAMPLE, len(grid))))
        work.append((BreitWignerModel.from_beta(float(c.beta)), [grid[i] for i in idx]))

    def replay():
        for model, taus in work:
            for tau in taus:
                try:
                    scan.scan_rows(model, [tau])
                except ArithmeticError:
                    break

    if backend.BACKEND == "python":
        iters = tracing.count_kernel_iterations(replay)
        for key in ("series", "cf"):
            xs = iters[key]
            layers["kernels.{}_iters_mean".format(key)] = statistics.fmean(xs) if xs else 0.0
            layers["kernels.{}_iters_max".format(key)] = max(xs) if xs else 0
    else:
        for key in ("series", "cf"):
            layers["kernels.{}_iters_mean".format(key)] = -1.0   # unavailable
            layers["kernels.{}_iters_max".format(key)] = -1
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bwdecay", "__init__.py")):
        print("perfbench: no bwdecay sources under {}; run from the root of a "
              "checkout".format(src), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    calls = workloads.round_calls(args.workload, args.seed, os.path.relpath(OUT_DIR, root))
    subprocesses = args.workload == "cli_session" and not args.trace
    session = Session(args.workload, root, src, subprocesses,
                      calibrated=not subprocesses and not args.trace)
    setup_s = None if args.trace else measure_setup(session)

    import bwdecay
    import bwdecay.cli as cli

    if not os.path.abspath(bwdecay.__file__).startswith(src + os.sep):
        raise BenchError("imported bwdecay from {}, not {}".format(bwdecay.__file__, src))
    session.cli = cli
    if not subprocesses:
        # let first-call work (argparse, lazy caches) happen before timing
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["info", "--beta", "1"])

    detail = {"workload": args.workload, "seed": args.seed, "machine": machine_info(),
              "betas": workloads.betas(args.seed)}
    if args.trace:
        metrics = per_layer(args, session, calls, root, session.env)
        rounds, wall = 1, None
    else:
        rounds = workloads.rounds(args.workload, args.seconds)
        wall = session.run_rounds(calls, rounds)
        who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    gate = Gate(args.seed)
    gate.check(session, calls)
    if subprocesses:
        for c in byte_identical(session, calls, cli):
            gate.flag(c.argv, c.ops, "stdout differs from cli.main in-process")

    if args.trace:
        attempted, failed, _ = account(session, gate)
    else:
        attempted, failed, metrics, more = end_to_end(session, gate, setup_s, rss_mb)
        detail.update(more)
    correct = not gate.wrong and not session.mismatch
    detail.update({"rounds": rounds, "wall_s": wall, "checked": gate.checked,
                   "wrong": gate.notes,
                   "component_max_rel_err": dict(zip(("p", "kappa", "gamma_ratio"),
                                                     gate.component_max))})
    units = END_TO_END if not args.trace else {}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k) or layer_unit(k)}
                          for k, v in metrics.items()}}
    with open(os.path.join(OUT_DIR, "{}-trace{}.json".format(args.workload, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    for name, m in result["metrics"].items():
        print("{:34s} {:>16.6g} {}".format(name, m["value"], m["unit"]))
    print("machine: " + json.dumps(detail["machine"]))
    for key in ("cli_tail_percentile", "crossover_tail_percentile"):
        if key in detail:
            print("{} = {:.1f} over {} samples".format(
                key, detail[key], detail[key.replace("tail_percentile", "samples")]))
    for note in gate.notes:
        print("wrong: " + note)
    for name in os.listdir(OUT_DIR):
        if name.startswith("call"):
            os.remove(os.path.join(OUT_DIR, name))
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_row"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
