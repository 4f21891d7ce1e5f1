"""Grid construction, scan records, and the command-line surface.

The CLI tests run the installed entry point in a subprocess so that
exit codes and stream separation are exercised for real, not
simulated.  The rendering tests call ``cli.main`` in-process and hold
its stdout to a reference rendered from the same rows.
"""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest

from bwdecay import __version__, cli
from bwdecay.asymptotics import AsymptoticRangeWarning
from bwdecay.cli import _build_parser
from bwdecay.errors import DomainError
from bwdecay.model import BreitWignerModel
from bwdecay.scan import ScanRow, scan_rows, time_grid

from conftest import parse_csv_rows


class TestTimeGrid:
    def test_endpoints_are_exact(self):
        g = time_grid(0.01, 37.3, 101, "log")
        assert g[0] == 0.01
        assert g[-1] == 37.3
        lin = time_grid(0.0, 5.0, 11, "linear")
        assert lin[0] == 0.0
        assert lin[-1] == 5.0

    def test_monotone(self):
        for kind, lo in (("log", 0.5), ("linear", 0.0)):
            g = time_grid(lo, 100.0, 257, kind)
            assert all(b > a for a, b in zip(g, g[1:]))
            assert len(g) == 257

    @pytest.mark.parametrize("lo,hi", [(1e-310, 1e8), (5e-324, 1e308),
                                       (1e-200, 1e200)])
    @pytest.mark.parametrize("points", [3, 5, 101])
    def test_log_grid_spans_an_overflowing_ratio(self, lo, hi, points):
        # hi / lo overflows although both ends are valid; the grid
        # steps in logs instead and stays finite inside
        assert hi / lo == math.inf
        g = time_grid(lo, hi, points, "log")
        assert (g[0], g[-1], len(g)) == (lo, hi, points)
        assert all(math.isfinite(t) for t in g)
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_log_grid_over_an_overflowing_ratio_is_geometric(self):
        g = time_grid(1e-200, 1e200, 5, "log")
        assert g[1:4] == pytest.approx([1e-100, 1.0, 1e100], rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 10.0, 50, "log"),
            (1.0, 1.0, 50, "log"),
            (5.0, 1.0, 50, "linear"),
            (1.0, 10.0, 1, "log"),
            (1.0, 10.0, 50, "cubic"),
            (-1.0, 10.0, 50, "linear"),
            (0.01, 40.0, 10.0, "log"),
            (0.01, 40.0, "10", "log"),
            (0.01, 40.0, None, "linear"),
            # valid ends, but too many points for the span in doubles
            (1e-323, 1e-300, 1000, "log"),
            (5e-324, 1e308, 10000, "log"),
            (1.0, 1.0 + 1e-15, 100, "linear"),
        ],
    )
    def test_rejects_bad_grids(self, args):
        with pytest.raises(DomainError):
            time_grid(*args)


class TestScanRows:
    def test_zero_time_has_no_hamiltonian(self):
        m = BreitWignerModel.from_beta(2.0)
        row = scan_rows(m, [0.0])[0]
        assert row.p == 1.0
        assert row.kappa is None
        assert row.gamma_ratio is None
        assert row.re_h is None
        assert row.im_h is None

    def test_field_relations(self):
        m = BreitWignerModel.from_beta(2.0)
        row = scan_rows(m, [3.0])[0]
        assert row.re_h == pytest.approx(m.beta * row.kappa, rel=1e-14)
        assert row.im_h == pytest.approx(-0.5 * row.gamma_ratio, rel=1e-14)
        assert row.method == "exact"

    def test_method_tags_and_agreement(self):
        m = BreitWignerModel.from_beta(2.0)
        taus = [30.0, 35.0]
        by_method = {
            method: scan_rows(m, taus, method=method) for method in
            ("exact", "asymptotic", "quadrature")
        }
        for method, rows in by_method.items():
            assert [r.method for r in rows] == [method] * 2
        for a, b in zip(by_method["exact"], by_method["quadrature"]):
            assert b.p == pytest.approx(a.p, rel=1e-6, abs=1e-12)
        for a, b in zip(by_method["exact"], by_method["asymptotic"]):
            assert b.p == pytest.approx(a.p, rel=1e-2)

    def test_asymptotic_rows_may_leave_unit_range(self):
        # the series diverges like 1/tau**2 toward small tau; scans into
        # that region warn rather than fail
        m = BreitWignerModel.from_beta(2.0)
        with pytest.warns(UserWarning):
            rows = scan_rows(m, [0.05], method="asymptotic", terms=5)
        assert rows[0].p > 1.0

    def test_rejects_bad_method_and_terms(self):
        m = BreitWignerModel.from_beta(2.0)
        with pytest.raises(DomainError):
            scan_rows(m, [1.0], method="series")
        with pytest.raises(DomainError):
            scan_rows(m, [1.0], terms=0)
        with pytest.raises(DomainError):
            scan_rows(m, [1.0], terms=6)
        with pytest.raises(DomainError):
            scan_rows(m, [0.0], method="asymptotic")


SCAN_ARGS = ("scan", "--beta", "2", "--tau-min", "0", "--tau-max", "2",
             "--points", "3", "--grid", "linear")


class TestScanCommand:
    def test_deterministic_output(self, run_cli):
        first = run_cli(*SCAN_ARGS)
        second = run_cli(*SCAN_ARGS)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_csv_shape(self, run_cli):
        res = run_cli(*SCAN_ARGS)
        meta, header, rows = parse_csv_rows(res.stdout)
        assert header == "tau,p,kappa,gamma_ratio,re_h,im_h,method"
        assert meta == [
            "# bwdecay scan beta=2 method=exact grid=linear points=3 "
            "tau_min=0 tau_max=2 terms=5 version=0.1.0"
        ]
        assert len(rows) == 3
        assert rows[0] == ["0", "1", "", "", "", "", "exact"]

    def test_floats_round_trip(self, run_cli):
        res = run_cli("scan", "--beta", "10", "--tau-min", "0.7",
                      "--tau-max", "19", "--points", "6")
        _, _, rows = parse_csv_rows(res.stdout)
        for row in rows:
            for cell in row[:6]:
                assert "{:.17g}".format(float(cell)) == cell

    def test_json_mirrors_csv(self, run_cli):
        base = ("scan", "--beta", "10", "--tau-min", "0.7", "--tau-max", "19",
                "--points", "6")
        csv_res = run_cli(*base)
        json_res = run_cli(*base, "--output", "json")
        _, _, rows = parse_csv_rows(csv_res.stdout)
        payload = json.loads(json_res.stdout)
        assert payload["meta"]["beta"] == 10.0
        assert payload["meta"]["version"] == "0.1.0"
        assert len(payload["rows"]) == len(rows)
        for csv_row, rec in zip(rows, payload["rows"]):
            for cell, key in zip(csv_row, ("tau", "p", "kappa", "gamma_ratio",
                                           "re_h", "im_h")):
                if cell == "":
                    assert rec[key] is None
                else:
                    assert float(cell) == rec[key]
            assert csv_row[6] == rec["method"]

    def test_zero_time_row_in_json_uses_null(self, run_cli):
        res = run_cli(*SCAN_ARGS, "--output", "json")
        first = json.loads(res.stdout)["rows"][0]
        assert first["tau"] == 0.0
        assert first["p"] == 1.0
        assert first["kappa"] is None

    def test_out_file_matches_stdout(self, run_cli, tmp_path):
        target = tmp_path / "scan.csv"
        piped = run_cli(*SCAN_ARGS)
        to_file = run_cli(*SCAN_ARGS, "--out", str(target))
        assert to_file.returncode == 0
        assert to_file.stdout == ""
        assert target.read_text() == piped.stdout

    def test_no_meta_drops_the_comment_line(self, run_cli):
        res = run_cli(*SCAN_ARGS, "--no-meta")
        meta, header, rows = parse_csv_rows(res.stdout)
        assert meta == []
        assert header.startswith("tau,")
        assert len(rows) == 3

    def test_quadrature_route_agrees_with_exact(self, run_cli):
        base = ("scan", "--beta", "2", "--tau-min", "0.5", "--tau-max", "20",
                "--points", "5", "--output", "json", "--no-meta")
        exact = json.loads(run_cli(*base).stdout)["rows"]
        quad_res = run_cli(*base, "--method", "quadrature")
        assert quad_res.returncode == 0
        quad = json.loads(quad_res.stdout)["rows"]
        for a, b in zip(exact, quad):
            assert abs(a["p"] - b["p"]) <= 1e-6 * max(a["p"], b["p"]) + 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            ("scan", "--beta", "2", "--tau-min", "0", "--tau-max", "2",
             "--points", "3"),  # log grid cannot reach 0
            ("scan", "--beta", "2", "--points", "1"),
            ("scan", "--beta", "2", "--terms", "0"),
            ("scan", "--beta", "2", "--terms", "6"),
            ("scan", "--beta", "2", "--tau-min", "5", "--tau-max", "2"),
            ("scan", "--beta", "2", "--tau-min", "0", "--tau-max", "2",
             "--grid", "linear", "--method", "asymptotic"),
            ("scan", "--beta", "2", "--tau-min", "1e-323", "--tau-max", "1e-300",
             "--points", "1000"),  # the grid would repeat points
        ],
    )
    def test_usage_errors_exit_2(self, run_cli, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr != ""
        # the CLI checks nothing itself: it reports the library's refusal
        # of the same arguments
        ns = _build_parser().parse_args(list(args))
        with pytest.raises(DomainError) as refusal:
            scan_rows(BreitWignerModel.from_beta(ns.beta),
                      time_grid(ns.tau_min, ns.tau_max, ns.points, ns.grid),
                      method=ns.method, terms=ns.terms)
        assert res.stderr.splitlines()[-1].endswith(str(refusal.value))

    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # the reader takes one line and closes the pipe, as `| head -1`
        # does; 10,000 rows are 1.3 MB, far more than a pipe buffers
        argv = [sys.executable, "-m", "bwdecay", "scan", "--beta", "2", "--points", "10000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        assert first.startswith(b"# bwdecay scan beta=2 ")
        assert code == 141
        assert err == b""

    def test_phase_overflow_exits_3(self, run_cli):
        res = run_cli("scan", "--beta", "1e300", "--tau-min", "1e300",
                      "--tau-max", "1e308", "--output", "json")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("numerical failure: beta * tau overflows")
        assert len(res.stderr.splitlines()) == 1

    def test_log_grid_from_a_subnormal_tau_min(self, run_cli):
        # tau_max / tau_min overflows; every row is still a finite tau
        res = run_cli("scan", "--beta", "2", "--tau-min", "1e-310",
                      "--tau-max", "1e8", "--points", "3", "--no-meta")
        assert res.returncode == 0, res.stderr
        _, header, rows = parse_csv_rows(res.stdout)
        taus = [float(r[header.split(",").index("tau")]) for r in rows]
        assert taus[0] == 1e-310 and taus[-1] == 1e8
        assert 0.0 < taus[0] < taus[1] < taus[2]

    def test_quadrature_route_reaches_zero_time(self, run_cli):
        res = run_cli("scan", "--beta", "2", "--tau-min", "0", "--tau-max", "2",
                      "--points", "3", "--grid", "linear", "--method", "quadrature",
                      "--output", "json")
        assert res.returncode == 0, res.stderr
        first = json.loads(res.stdout)["rows"][0]
        assert first["tau"] == 0.0
        assert first["p"] == pytest.approx(1.0, abs=1e-12)
        assert first["kappa"] is None

    def test_quadrature_route_at_huge_beta(self, run_cli):
        # the oracle's ray integrand never forms eta**2, so it cannot
        # overflow into NaN; p is N**2 exp(-tau) to double precision
        res = run_cli("scan", "--beta", "1e153", "--method", "quadrature",
                      "--tau-min", "0.5", "--tau-max", "8", "--points", "3")
        assert res.returncode == 0, res.stderr
        _, header, rows = parse_csv_rows(res.stdout)
        p = header.split(",").index("p")
        assert [float(r[p]) for r in rows] == pytest.approx(
            [math.exp(-0.5), math.exp(-2.0), math.exp(-8.0)], rel=1e-14)

    def test_asymptotic_route_at_huge_beta(self, run_cli):
        # D = beta**2 + 1/4 overflows, the scaled series tables do not;
        # the rate is 2/tau, as the 1/tau**3 term is far below an ulp
        res = run_cli("scan", "--beta", "1e200", "--method", "asymptotic",
                      "--tau-min", "40", "--tau-max", "1e8", "--points", "3")
        assert res.returncode == 0, res.stderr
        _, header, rows = parse_csv_rows(res.stdout)
        assert all(math.isfinite(float(v)) for r in rows for v in r[:-1])
        gamma = header.split(",").index("gamma_ratio")
        assert [float(r[gamma]) for r in rows] == pytest.approx(
            [2.0 / float(r[0]) for r in rows], rel=1e-15)

    def test_quadrature_route_covers_the_small_beta_hole(self, run_cli):
        # where z- = -tau/2 - i beta tau runs close to the cut past |z| = 4
        res = run_cli("scan", "--beta", "0.05", "--method", "quadrature",
                      "--tau-min", "7", "--tau-max", "60")
        assert res.returncode == 0, res.stderr
        assert len(parse_csv_rows(res.stdout)[2]) > 2

    @pytest.mark.parametrize("beta", ["0.001", "0.01", "0.05", "0.1", "0.2", "0.22"])
    def test_exact_route_covers_small_beta(self, run_cli, beta):
        # z- = -tau/2 - i beta tau lies at the angle arctan(2 beta) from
        # the cut, and the default grid takes it past |z| = 4
        res = run_cli("scan", "--beta", beta)
        assert res.returncode == 0, res.stderr
        _, header, rows = parse_csv_rows(res.stdout)
        p = header.split(",").index("p")
        assert len(rows) == 500 and all(0.0 <= float(r[p]) <= 1.0 for r in rows)


def _reference_scan_text(argv, rows):
    """A scan's stdout as json.dumps(..., indent=2) or the per-field join
    renders ``rows``: the renderer's specification, not its code."""
    ns = _build_parser().parse_args(argv)
    meta = {"beta": ns.beta, "method": ns.method, "grid": ns.grid,
            "points": ns.points, "tau_min": ns.tau_min, "tau_max": ns.tau_max,
            "terms": ns.terms, "version": __version__}
    if ns.output == "json":
        payload = {} if ns.no_meta else {"meta": meta}
        payload["rows"] = [row._asdict() for row in rows]
        return json.dumps(payload, indent=2) + "\n"

    def fmt(v):
        return "" if v is None else "{:.17g}".format(v)

    lines = [] if ns.no_meta else ["# bwdecay scan " + " ".join(
        "{}={}".format(k, v if isinstance(v, str) else fmt(v))
        for k, v in meta.items())]
    lines.append("tau,p,kappa,gamma_ratio,re_h,im_h,method")
    lines += [",".join([fmt(v) for v in row[:6]] + [row.method]) for row in rows]
    return "\n".join(lines) + "\n"


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def _traced_long_scan(tmp_path, output, to_file):
    """Run an 8,193-row scan under tracemalloc, to stdout (redirected to a
    file) or to ``--out``; return its traced peak, the size of its grid
    and the size of its output, in bytes."""
    target = tmp_path / "scan.out"
    argv = ["scan", "--beta", "2", "--points", "8193", "--output", output]
    if to_file:
        argv += ["--out", str(target)]
    grid = time_grid(0.01, 40.0, 8193, "log")
    grid_bytes = sys.getsizeof(grid) + sum(map(sys.getsizeof, grid))
    del grid

    def scan(argv):
        with open(tmp_path / "stdout.out" if to_file else target, "w",
                  encoding="utf-8", newline="") as fh:
            with contextlib.redirect_stdout(fh):
                assert cli.main(argv) == 0

    # a first short scan builds the parser and fills caches that live
    # on after it
    scan([arg if arg != "8193" else "2" for arg in argv])
    tracemalloc.start()
    try:
        scan(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, grid_bytes, target.stat().st_size


RENDER_SCANS = [
    ("--method", "exact", "--grid", "linear", "--tau-min", "0", "--tau-max", "30",
     "--points", "41"),
    ("--method", "exact", "--tau-min", "40", "--tau-max", "1e8", "--points", "33"),
    ("--method", "asymptotic", "--tau-min", "0.5", "--tau-max", "1e4",
     "--points", "31", "--terms", "3"),
    ("--method", "quadrature", "--grid", "linear", "--tau-min", "0",
     "--tau-max", "4", "--points", "5"),
]


class TestScanRendering:
    @pytest.mark.parametrize("scan", RENDER_SCANS)
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("no_meta", [False, True])
    def test_matches_the_reference_rendering(self, monkeypatch, scan, output,
                                             no_meta):
        argv = ["scan", "--beta", "2.5", *scan, "--output", output]
        if no_meta:
            argv.append("--no-meta")
        ns = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = scan_rows(BreitWignerModel.from_beta(ns.beta),
                             time_grid(ns.tau_min, ns.tau_max, ns.points, ns.grid),
                             method=ns.method, terms=ns.terms)
        expected = _reference_scan_text(argv, rows)
        # the grid is evaluated and rendered in slices of _CHUNK points;
        # one-point slices, slices that split the grid unevenly and one
        # slice for the whole grid must all print the same bytes
        for chunk in (1, 4, cli._CHUNK):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert _cli_stdout(argv) == expected, "slices of {}".format(chunk)

    @pytest.mark.parametrize("chunk", [4, cli._CHUNK], ids=["four", "default"])
    def test_range_note_counts_every_slice(self, monkeypatch, chunk):
        # the first five of these 31 rows lie below the series' reliable
        # region, so with four-point slices they fall in two slices
        argv = ["scan", "--beta", "2.5", "--method", "asymptotic", "--terms", "3",
                "--tau-min", "0.5", "--tau-max", "1e4", "--points", "31"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AsymptoticRangeWarning)
            scan_rows(BreitWignerModel.from_beta(2.5),
                      time_grid(0.5, 1e4, 31, "log"), method="asymptotic", terms=3)
        assert len(caught) == 5
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 0
        assert err.getvalue() == (
            "note: 5 series evaluations were outside the asymptotic series' "
            "reliable region\n")

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_scan_holds_its_output_once(self, monkeypatch, tmp_path, output):
        # a scan keeps its grid and the rows and text of one slice, and
        # spools the rest to a file, not every row and several copies of
        # the text; the traced peak stays below twice the output's size
        monkeypatch.setattr(cli, "_CHUNK", 256)
        target = tmp_path / "scan.out"
        argv = ["scan", "--beta", "2", "--points", "2049", "--output", output,
                "--out", str(target)]
        # the first call in a process also builds the parser and fills
        # caches that live on after it
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert peak < 2 * size, "peak {} bytes for {} bytes of output".format(
            peak, size)

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_a_long_scan_holds_one_slice(self, monkeypatch, tmp_path, output,
                                         to_file):
        # 8,193 rows in slices of 256: besides its grid, the scan holds
        # one slice of rows and text and one block of the spool, so the
        # traced peak stays below the grid plus a quarter of the output,
        # to stdout as to --out.  The grid of Python floats is 25% of the
        # CSV output by itself.
        monkeypatch.setattr(cli, "_CHUNK", 256)
        peak, grid_bytes, size = _traced_long_scan(tmp_path, output, to_file)
        assert size > 10**6
        assert peak < grid_bytes + size / 4, (
            "peak {} bytes for a {}-byte grid and {} bytes of output".format(
                peak, grid_bytes, size))

    def test_the_default_slice_is_small(self, tmp_path):
        # the JSON scan to --out in slices of the default size, seventeen
        # of them, the last one row long.  Above its grid the traced peak
        # was 0.43 MB in slices of 512 rows, 0.83 MB in slices of 1,024
        # and 3.23 MB in slices of 4,096.  The bound is 2.3 times the
        # first and under a third of the last.
        peak, grid_bytes, size = _traced_long_scan(tmp_path, "json", True)
        assert peak - grid_bytes < 1.0e6, (
            "peak {} bytes above a {}-byte grid, {} bytes of output".format(
                peak - grid_bytes, grid_bytes, size))

    @pytest.mark.parametrize("to_file", [False, True])
    def test_a_failure_in_a_late_slice_writes_nothing(self, monkeypatch, tmp_path,
                                                      to_file):
        # only the last of the five rows, in the third two-point slice,
        # overflows beta * tau; the slices before it are spooled by then
        monkeypatch.setattr(cli, "_CHUNK", 2)
        spool_dir = tmp_path / "tmp"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        target = tmp_path / "scan.out"
        target.write_text("kept\n")
        for output in ("csv", "json"):
            out_args = ["--output", output] + (["--out", str(target)] if to_file else [])
            argv = ["scan", "--beta", "1e300", "--tau-min", "1e-300", "--tau-max", "1e9",
                    "--points", "5", *out_args]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 3
            assert out.getvalue() == ""
            assert err.getvalue().startswith(
                "numerical failure: beta * tau overflows double range at "
                "beta = 1e+300, tau = 1000000000.0;")
            assert target.read_text() == "kept\n"
            assert list(spool_dir.iterdir()) == []
        # a scan that succeeds leaves no file behind either
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scan", "--beta", "2", "--points", "5", *out_args]) == 0
        assert list(spool_dir.iterdir()) == []

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_non_finite_and_signed_zero_values(self, monkeypatch, output):
        # no route prints these today; the renderer must still spell them
        # as json.dumps and "{:.17g}" do
        rows = [ScanRow(0.0, 1.0, None, None, None, None, "exact"),
                ScanRow(1.0, math.nan, math.inf, -math.inf, -0.0, 1e-300, "exact"),
                ScanRow(2.0, 5e-324, 1.7976931348623157e308, -1.0, 0.1, 3.0,
                        "exact")]
        monkeypatch.setattr(cli, "scan_rows", lambda *args, **kwargs: rows)
        argv = ["scan", "--beta", "2", "--grid", "linear", "--tau-min", "0",
                "--tau-max", "2", "--points", "3", "--output", output]
        assert _cli_stdout(argv) == _reference_scan_text(argv, rows)

    @pytest.mark.parametrize("method", ["exact", "asymptotic", "quadrature"])
    def test_json_rows_render_as_json_dumps(self, monkeypatch, method):
        # finite rows take the "{!r}" template, the rest _json_value; both
        # must give json.dumps(..., indent=2) byte for byte.  Every row of
        # a scan carries the scan's method, as scan_rows stamps it.
        huge = 1.7976931348623157e308
        rows = [ScanRow(0.0, 1.0, None, None, None, None, method),
                ScanRow(0.5, 0.6, 0.7, 0.9, 1.4, -0.45, method),
                ScanRow(1.0, math.nan, 1.0, 1.0, 1.0, 1.0, method),
                ScanRow(1.5, 0.5, math.inf, 1.0, 1.0, 1.0, method),
                ScanRow(2.0, 0.5, 1.0, -math.inf, 1.0, 1.0, method),
                ScanRow(2.5, 0.5, math.inf, -math.inf, 1.0, 1.0, method),
                ScanRow(3.0, 5e-324, -0.0, 0.0, -0.0, 1e-300, method),
                ScanRow(3.5, 1e-5, huge, 1.0, -huge, 2.0, method),
                ScanRow(4.0, 1e-5, huge, huge, huge, -huge, method),
                ScanRow(4.5, 0.25, 0.1, 1.0 / 3.0, 2.5e-16, -1e16, method)]
        monkeypatch.setattr(cli, "scan_rows", lambda *args, **kwargs: rows)
        for no_meta in ([], ["--no-meta"]):
            argv = ["scan", "--beta", "2", "--grid", "linear", "--tau-min", "0",
                    "--tau-max", "5", "--points", str(len(rows)), "--method",
                    method, "--output", "json", *no_meta]
            assert _cli_stdout(argv) == _reference_scan_text(argv, rows)

    @pytest.mark.parametrize(
        "value", [None, math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300,
                  5e-324, 0.1, 1.7976931348623157e308, "exact"])
    def test_value_function_spells_as_json(self, value):
        assert cli._json_value(value) == json.dumps(value)


class TestModelResolution:
    def test_flags_override_config(self, run_cli, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("beta = 2\ngamma0 = 1\n# comment line\n")
        from_cfg = run_cli("info", "--config", str(cfg))
        assert json.loads(from_cfg.stdout)["beta"] == 2.0
        overridden = run_cli("info", "--config", str(cfg), "--beta", "10")
        assert json.loads(overridden.stdout)["beta"] == 10.0

    def test_unknown_config_key(self, run_cli, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("width = 3\n")
        res = run_cli("info", "--config", str(cfg))
        assert res.returncode == 2
        assert "width" in res.stderr

    def test_beta_and_e0_are_exclusive(self, run_cli):
        res = run_cli("info", "--beta", "2", "--e0", "3")
        assert res.returncode == 2

    def test_model_is_required(self, run_cli):
        res = run_cli("info")
        assert res.returncode == 2

    def test_overflowing_beta_is_an_invalid_model(self, run_cli):
        res = run_cli("info", "--e0", "1", "--gamma0", "1e-320")
        assert res.returncode == 2
        assert "invalid model:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command, args", [
        ("info", ["--e0", "1", "--gamma0", "1e-320"]),
        ("scan", ["--beta", "1", "--points", "1"]),
        ("crossover", ["--beta", "1", "--e0", "2"]),
        ("info", ["--config", "{cfg}"]),
    ])
    def test_late_usage_errors_name_the_subcommand(self, run_cli, tmp_path,
                                                   command, args):
        # refused after parsing, by the model, the grid or the config
        # reader, yet reported like argparse's own errors of the command
        cfg = tmp_path / "model.cfg"
        cfg.write_text("width = 3\n")
        res = run_cli(command, *[a.format(cfg=cfg) for a in args])
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert lines[0].startswith("usage: bwdecay {} [-h]".format(command))
        assert lines[-1].startswith("bwdecay {}: error: ".format(command))

    @pytest.mark.parametrize("command, out", [
        ("info", "missing/x.json"),
        ("crossover", "missing/x.json"),
        ("scan", "."),
    ], ids=["info-missing-dir", "crossover-missing-dir", "scan-a-dir"])
    def test_unwritable_out_is_a_usage_error(self, run_cli, tmp_path, command, out):
        # a file in a missing directory, or a directory where the file
        # should be
        path = str(tmp_path / out)
        res = run_cli(command, "--beta", "2", "--out", path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        assert lines[0].startswith("usage: bwdecay {} [-h]".format(command))
        assert lines[-1].startswith(
            "bwdecay {}: error: cannot write output file {}: ".format(command, path))

    @pytest.mark.parametrize("fault", ["missing", "full"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_temporary_file_failure_is_a_usage_error(self, monkeypatch, tmp_path,
                                                     fault, to_file):
        # a scan spools its rows through a file in the temporary directory;
        # a directory that is missing, or full, ends it before it writes
        where = str(tmp_path / "missing" if fault == "missing" else tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", where)
        if fault == "full":
            class Full(io.StringIO):
                def write(self, text):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **k: Full())
        target = tmp_path / "scan.csv"
        target.write_text("kept\n")
        argv = ["scan", "--beta", "2"] + (["--out", str(target)] if to_file else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv)
        assert exit_.value.code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: bwdecay scan [-h]")
        assert lines[-1].startswith(
            "bwdecay scan: error: cannot write a temporary file in {}: ".format(where))
        assert target.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_e0_route(self, run_cli):
        res = run_cli("info", "--e0", "3", "--gamma0", "0.5", "--emin", "1")
        assert res.returncode == 0
        assert json.loads(res.stdout)["beta"] == pytest.approx(4.0, rel=1e-15)


class TestParserReuse:
    def test_in_process_calls_match_fresh_processes(self, run_cli, monkeypatch):
        # one parser serves every main() call of a process; a usage error,
        # two commands and a help page in a row must print what a fresh
        # process prints for each
        monkeypatch.setenv("COLUMNS", "80")
        parser = _build_parser()
        for argv in (["crossover", "--terms", "5"],
                     ["crossover", "--beta", "10", "--terms", "2"],
                     ["info", "--beta", "10", "--output", "csv"],
                     ["scan", "--help"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            fresh = run_cli(*argv)
            assert (out.getvalue(), err.getvalue(), code) == (
                fresh.stdout, fresh.stderr, fresh.returncode), argv
        assert _build_parser() is parser


class TestCrossoverCommand:
    def test_json_record(self, run_cli):
        res = run_cli("crossover", "--beta", "10")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert set(rec) == {"tau_t", "t_physical", "bracket_lo", "bracket_hi",
                            "residual", "order", "iterations"}
        assert rec["tau_t"] == pytest.approx(18.7538907, abs=1e-6)
        assert rec["bracket_lo"] < rec["tau_t"] < rec["bracket_hi"]
        assert rec["order"] == 1
        assert rec["t_physical"] == rec["tau_t"]

    def test_numerical_failure_exits_3(self, run_cli):
        res = run_cli("crossover", "--beta", "2", "--amp-const", "1e-300")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr

    def test_nonpositive_prefactor_is_usage_error(self, run_cli):
        res = run_cli("crossover", "--beta", "2", "--amp-const", "-1")
        assert res.returncode == 2

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_subnormal_late_amplitude_still_brackets(self, run_cli, terms):
        # N/(2 pi D) is subnormal here, and 2 pi D alone would overflow
        res = run_cli("crossover", "--beta", "1e154", "--terms", terms)
        assert res.returncode == 0, res.stderr
        rec = json.loads(res.stdout)
        assert rec["bracket_lo"] < rec["tau_t"] < rec["bracket_hi"]


class TestInfoCommand:
    def test_json_record(self, run_cli):
        res = run_cli("info", "--beta", "2")
        rec = json.loads(res.stdout)
        assert set(rec) == {"beta", "normalization", "lifetime",
                            "peak_density", "gamma_ratio_reference",
                            "kappa_reference"}
        assert rec["normalization"] == pytest.approx(1.0845741489661562,
                                                     rel=1e-12)
        assert rec["lifetime"] == 1.0
        assert rec["gamma_ratio_reference"] == 1.0
        assert rec["kappa_reference"] == 1.0
        assert rec["peak_density"] == pytest.approx(
            rec["normalization"] * 4.0 / (2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("gamma0", [1e-300, 1e-170, 1.0, 1e200, 1e300])
    def test_peak_density_at_any_width(self, gamma0):
        # gamma0**2 alone under- or overflows at every width here but 1;
        # the peak 2 N/(pi gamma0) is finite at all of them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["info", "--beta", "2", "--gamma0", repr(gamma0)])
        assert (code, err.getvalue()) == (0, "")
        rec = json.loads(out.getvalue())
        expected = 2.0 * rec["normalization"] / (math.pi * gamma0)
        assert rec["peak_density"] == pytest.approx(expected, rel=1e-15)

    def test_csv_variant(self, run_cli):
        res = run_cli("info", "--beta", "2", "--output", "csv")
        head, values = res.stdout.strip().splitlines()
        assert head.split(",")[0] == "beta"
        assert float(values.split(",")[0]) == 2.0
