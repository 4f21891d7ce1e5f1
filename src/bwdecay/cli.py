"""Command-line front end: time scans, cross-over reports, model info.

Output is a data product, not a picture.  To reproduce the standard
three-panel survival plots from a scan:

    bwdecay scan --beta 10 --tau-min 0.01 --tau-max 40 --points 2000 \
        --grid log > scan.csv

then plot p against tau with a logarithmic y-axis (panel A),
gamma_ratio against tau (panel B, dashed reference at 1), and kappa
against tau (panel C, dashed reference at 1).

Exit codes: 0 success, 2 usage error, 3 numerical failure (any
``ArithmeticError``; every failure type of ``bwdecay.errors`` is one),
141 standard output closed by its reader (as under ``| head``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from . import __version__
from .asymptotics import AMPLITUDE_TERMS, SERIES_TERMS, AsymptoticRangeWarning
from .crossover import crossover_time
from .errors import DomainError
from .model import BreitWignerModel
from .scan import METHODS, ScanRow, scan_rows, time_grid

# The model's flags and config keys with their help, in --help order; with
# the defaults they are the keywords of from_beta (beta) or the constructor.
_MODEL_FLAGS = {
    "beta": "resonance position above the spectrum edge, in widths",
    "e0": "resonance energy (energy units); alternative to --beta",
    "gamma0": "resonance width (default 1)",
    "emin": "spectrum lower edge (default 0)",
    "hbar": "hbar in the chosen units (default 1)",
}
_MODEL_DEFAULTS = {"gamma0": 1.0, "emin": 0.0, "hbar": 1.0}
_INF = float("inf")
# Grid points a scan evaluates and renders at a time.  A slice holds about
# 800 bytes a JSON row in rows and text.  On a 2-vCPU Xeon with Python 3.11
# the peak RSS of perfbench's dense_early runs was 31.4, 29.3, 28.5 and
# 28.0 MB in slices of 4,096, 2,048, 1,024 and 512 rows, at the same rows_per_s.
_CHUNK = 512
_BLOCK = 1 << 13  # characters a scan reads back from its spool at a time
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, how a shell reports a writer ended by it


def _fmt(value) -> str:
    if value is None:
        return ""
    return "{:.17g}".format(value)


# One scan row as a CSV line, for tau > 0 where every column but the last
# (method) is a float, and as a json.dumps(..., indent=2) member of the
# "rows" list: any row with json.dumps field by field, and a row of six
# finite floats with "%r", which is float.__repr__, the spelling json uses.
# "%.17g" spells every double as _fmt does, and a % template fills a row
# faster than str.format.  The finite row's template ends in the method,
# spelled once per scan (scan_rows stamps every row with it), so it takes
# the row's first six fields.
_CSV_ROW = ",".join(["%.17g"] * (len(ScanRow._fields) - 1) + ["%s\n"])
_JSON_KEYS = ["      " + json.dumps(name) + ": " for name in ScanRow._fields]
_JSON_ROW = "    {{\n" + ",\n".join(key + "{}" for key in _JSON_KEYS) + "\n    }}"
_JSON_FINITE_ROW = "    {\n" + "".join(
    key + "%r,\n" for key in _JSON_KEYS[:-1]) + _JSON_KEYS[-1]


def _json_rows(rows, method: str) -> str:
    finite = _JSON_FINITE_ROW + json.dumps(method).replace("%", "%%") + "\n    }"
    # a sum of six floats is finite only if each is; None (tau = 0)
    # comes in kappa, and a row may fall back on overflow of the sum
    return ",\n".join(
        finite % r[:6] if r[2] is not None
        and -_INF < r[0] + r[1] + r[2] + r[3] + r[4] + r[5] < _INF
        else _JSON_ROW.format(*map(json.dumps, r)) for r in rows)


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a BOM
            text = fh.read()
    except OSError as exc:
        parser.error("cannot read config file {}: {}".format(path, exc))
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error("{}:{}: expected key=value, got {!r}".format(path, lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _MODEL_FLAGS:
            parser.error("{}:{}: unknown key {!r} (allowed: {})".format(
                path, lineno, key, ", ".join(_MODEL_FLAGS)))
        try:
            values[key] = float(val.strip())
        except ValueError:
            parser.error("{}:{}: {!r} is not a number".format(path, lineno, val.strip()))
    return values


def _resolve_model(args, parser: argparse.ArgumentParser) -> BreitWignerModel:
    # Precedence: flags > config file > built-in defaults.
    merged = dict(_MODEL_DEFAULTS)
    if args.config:
        merged.update(_read_config(args.config, parser))
    for key in _MODEL_FLAGS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    has_beta = "beta" in merged
    has_e0 = "e0" in merged
    if has_beta and has_e0:
        parser.error("--beta and --e0 are mutually exclusive (pick one energy origin)")
    if not has_beta and not has_e0:
        parser.error("a model needs either --beta or --e0 (directly or via --config)")
    try:
        return (BreitWignerModel.from_beta if has_beta else BreitWignerModel)(**merged)
    except DomainError as exc:
        parser.error("invalid model: {}".format(exc))


def _write_text(parts, args) -> None:
    """Write the strings ``parts`` in order to stdout or ``--out``."""
    if args.out in (None, "-"):
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()  # so that a closed pipe raises here
        except BrokenPipeError:
            # the reader has gone; point stdout at devnull, so that the
            # flush at exit finds no pipe to fail on, and exit quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(_EXIT_BROKEN_PIPE)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    except OSError as exc:
        args.parser.error("cannot write output file {}: {}".format(args.out, exc))


def _cmd_scan(args, model: BreitWignerModel) -> int:
    import tempfile  # only a scan spools; info and crossover never load it

    # time_grid and scan_rows validate every argument; main maps their
    # DomainError to a usage error
    taus = time_grid(args.tau_min, args.tau_max, args.points, args.grid)
    meta = None if args.no_meta else {
        "beta": model.beta,
        "method": args.method,
        "grid": args.grid,
        "points": args.points,
        "tau_min": args.tau_min,
        "tau_max": args.tau_max,
        "terms": args.terms,
        "version": __version__,
    }
    if args.output == "csv":
        head = "" if meta is None else "# bwdecay scan " + " ".join(
            "{}={}".format(k, v if isinstance(v, str) else _fmt(v))
            for k, v in meta.items()) + "\n"
        head, tail = head + ",".join(ScanRow._fields) + "\n", ""
    else:
        # the bytes json.dumps(..., indent=2) gives for {"meta": meta,
        # "rows": [row._asdict(), ...]}, without its pure-Python encoder
        head = "{\n" if meta is None else '{{\n  "meta": {},\n'.format(
            json.dumps(meta, indent=2).replace("\n", "\n  "))
        head, tail = head + '  "rows": [\n', "\n  ]\n}\n"
    # The head, the rows (_CHUNK at a time) and the tail go to the spool, an
    # anonymous file, so a scan holds one slice of rows and text however
    # long it is.  Nothing is written until every row has succeeded.
    try:
        spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    except OSError as exc:
        _spool_failed(args, exc, tempfile.tempdir)
    with spool:
        try:
            spool.write(head)
            flagged = _spool_rows(spool, args, model, taus)
            spool.write(tail)
        except OSError as exc:  # such as a full disk
            _spool_failed(args, exc, tempfile.tempdir)
        if flagged:
            print(
                "note: {} series evaluations were outside the asymptotic "
                "series' reliable region".format(flagged),
                file=sys.stderr,
            )
        # read back a block at a time, so the text is never whole in memory
        spool.seek(0)
        _write_text(iter(functools.partial(spool.read, _BLOCK), ""), args)
    return 0


def _spool_rows(spool, args, model: BreitWignerModel, taus) -> int:
    """Write the scan's rows to ``spool``; return the count of range warnings."""
    csv = args.output == "csv"
    flagged = 0
    for i in range(0, len(taus), _CHUNK):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AsymptoticRangeWarning)
            rows = scan_rows(model, taus[i:i + _CHUNK], method=args.method,
                             terms=args.terms)
        flagged += sum(1 for w in caught
                       if issubclass(w.category, AsymptoticRangeWarning))
        if csv:
            # the tau = 0 row has empty Hamiltonian fields
            spool.write("".join([
                _CSV_ROW % r if r.kappa is not None else
                ",".join([_fmt(v) for v in r[:-1]] + [r.method]) + "\n"
                for r in rows]))
        else:
            if i:
                spool.write(",\n")
            spool.write(_json_rows(rows, args.method))
    return flagged


def _spool_failed(args, exc: OSError, where: str | None):
    # where, tempfile.tempdir, stays None when no candidate directory was
    # usable, and exc then lists them
    args.parser.error("cannot write a temporary file{}: {}".format(
        "" if where is None else " in " + where, exc))


def _write_record(record: dict, args) -> int:
    if args.output == "csv":
        text = ",".join(record) + "\n" + ",".join(
            _fmt(v) for v in record.values()) + "\n"
    else:
        text = json.dumps(record, indent=2) + "\n"
    _write_text([text], args)
    return 0


def _cmd_crossover(args, model: BreitWignerModel) -> int:
    result = crossover_time(model, order=args.terms,
                            amplitude_const=args.amp_const)
    return _write_record({
        "tau_t": result.tau_t,
        "t_physical": result.t_physical,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "residual": result.residual,
        "order": result.order,
        "iterations": result.iterations,
    }, args)


def _cmd_info(args, model: BreitWignerModel) -> int:
    return _write_record({
        "beta": model.beta,
        "normalization": model.normalization(),
        "lifetime": model.lifetime,
        "peak_density": model.density(model.e0),
        "gamma_ratio_reference": 1.0,
        "kappa_reference": 1.0,
    }, args)


def _add_model_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("model")
    for name, text in _MODEL_FLAGS.items():
        group.add_argument("--" + name, type=float, help=text)
    group.add_argument("--config", metavar="PATH",
                       help="key=value file with any of: " + ", ".join(_MODEL_FLAGS))


def _add_output_arguments(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--output", choices=("csv", "json"), default=default_format,
                     help="output format (default {})".format(default_format))
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write to PATH instead of standard output")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built by the first main() call, not at import, and reused after:
    # parsing leaves no state on the parser
    parser = argparse.ArgumentParser(
        prog="bwdecay",
        description="Survival amplitude, effective Hamiltonian and decay-law "
                    "structure of a truncated Breit-Wigner state.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("scan", help="evaluate observables on a tau grid")
    _add_model_arguments(scan)
    scan.add_argument("--tau-min", type=float, default=0.01,
                      help="grid start (default 0.01; 0 needs --grid linear "
                           "and --method exact or quadrature)")
    scan.add_argument("--tau-max", type=float, default=40.0,
                      help="grid end (default 40)")
    scan.add_argument("--points", type=int, default=500,
                      help="grid size, >= 2 (default 500)")
    scan.add_argument("--grid", choices=("linear", "log"), default="log",
                      help="grid spacing (default log)")
    scan.add_argument("--method", choices=METHODS,
                      default="exact", help="computational route (default exact)")
    scan.add_argument("--terms", type=int, default=SERIES_TERMS,
                      help="series truncation for --method asymptotic, "
                           "1..{}".format(SERIES_TERMS))
    _add_output_arguments(scan, "csv")
    scan.add_argument("--no-meta", action="store_true",
                      help="suppress the metadata header line / object")

    cross = subs.add_parser("crossover",
                            help="solve for the exponential/power-law cross-over time")
    _add_model_arguments(cross)
    cross.add_argument("--terms", type=int,
                       choices=tuple(range(1, AMPLITUDE_TERMS + 1)), default=1,
                       help="late-time amplitude truncation order (default 1)")
    cross.add_argument("--amp-const", type=float, default=None, dest="amp_const",
                       help="canonical-era amplitude prefactor A (default: the "
                            "model normalization N)")
    _add_output_arguments(cross, "json")

    info = subs.add_parser("info", help="report derived model quantities")
    _add_model_arguments(info)
    _add_output_arguments(info, "json")

    for sub, run in ((scan, _cmd_scan), (cross, _cmd_crossover), (info, _cmd_info)):
        # a usage error found after parsing is the subcommand's to report
        sub.set_defaults(parser=sub, run=run)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    model = _resolve_model(args, args.parser)
    try:
        return args.run(args, model)
    except ArithmeticError as exc:
        print("numerical failure: {}".format(exc), file=sys.stderr)
        return 3
    except DomainError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
