"""Grid construction, scan records, and the command-line surface.

The CLI tests run the installed entry point in a subprocess so that
exit codes and stream separation are exercised for real, not
simulated.  The rendering tests call ``cli.main`` in-process and hold
its stdout to a reference rendered from the same rows.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

from bwdecay import __version__, cli
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

    def test_phase_overflow_exits_3(self, run_cli):
        res = run_cli("scan", "--beta", "1e300", "--tau-min", "1e300",
                      "--tau-max", "1e308", "--output", "json")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("numerical failure: beta * tau overflows")
        assert len(res.stderr.splitlines()) == 1

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

    def test_quadrature_route_covers_the_small_beta_hole(self, run_cli):
        # where the exact route's E1 fraction stalls (ROADMAP item 3),
        # README points users to this fallback
        res = run_cli("scan", "--beta", "0.05", "--method", "quadrature",
                      "--tau-min", "7", "--tau-max", "60")
        assert res.returncode == 0, res.stderr
        assert len(parse_csv_rows(res.stdout)[2]) > 2


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
    def test_matches_the_reference_rendering(self, scan, output, no_meta):
        argv = ["scan", "--beta", "2.5", *scan, "--output", output]
        if no_meta:
            argv.append("--no-meta")
        ns = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = scan_rows(BreitWignerModel.from_beta(ns.beta),
                             time_grid(ns.tau_min, ns.tau_max, ns.points, ns.grid),
                             method=ns.method, terms=ns.terms)
        assert _cli_stdout(argv) == _reference_scan_text(argv, rows)

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

    def test_csv_variant(self, run_cli):
        res = run_cli("info", "--beta", "2", "--output", "csv")
        head, values = res.stdout.strip().splitlines()
        assert head.split(",")[0] == "beta"
        assert float(values.split(",")[0]) == 2.0
