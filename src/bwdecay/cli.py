"""Command-line front end: time scans, cross-over reports, model info.

Output is a data product, not a picture.  To reproduce the standard
three-panel survival plots from a scan:

    bwdecay scan --beta 10 --tau-min 0.01 --tau-max 40 --points 2000 \
        --grid log > scan.csv

then plot p against tau with a logarithmic y-axis (panel A),
gamma_ratio against tau (panel B, dashed reference at 1), and kappa
against tau (panel C, dashed reference at 1).

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import __version__
from .asymptotics import AsymptoticRangeWarning
from .crossover import crossover_time
from .errors import (BracketError, ConvergenceError, DomainError,
                     NearZeroAmplitude, ToleranceNotMet)
from .model import BreitWignerModel
from .scan import METHODS, ScanRow, scan_rows, time_grid

_CONFIG_KEYS = ("beta", "e0", "gamma0", "emin", "hbar")
_MODEL_DEFAULTS = {"gamma0": 1.0, "emin": 0.0, "hbar": 1.0}
_INF = float("inf")


def _fmt(value) -> str:
    if value is None:
        return ""
    return "{:.17g}".format(value)


def _json_value(value) -> str:
    """``value`` spelled as ``json.dumps`` spells it.

    json spells a finite float with ``float.__repr__``; everything else
    (None, NaN, the infinities, strings) goes through json itself.
    """
    if value.__class__ is float and -_INF < value < _INF:
        return float.__repr__(value)
    return json.dumps(value)


# One scan row as CSV, for tau > 0 where every column but the last
# (method) is a float, and as a json.dumps(..., indent=2) member of the
# "rows" list.
_CSV_ROW = ",".join(["{:.17g}"] * (len(ScanRow._fields) - 1) + ["{}"])
_JSON_ROW = "    {{\n" + ",\n".join(
    "      " + json.dumps(name) + ": {}" for name in ScanRow._fields) + "\n    }}"


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
        if key not in _CONFIG_KEYS:
            parser.error("{}:{}: unknown key {!r} (allowed: {})".format(
                path, lineno, key, ", ".join(_CONFIG_KEYS)))
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
    for key in _CONFIG_KEYS:
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
        if has_beta:
            return BreitWignerModel.from_beta(
                merged["beta"], gamma0=merged["gamma0"],
                emin=merged["emin"], hbar=merged["hbar"])
        return BreitWignerModel(
            e0=merged["e0"], gamma0=merged["gamma0"],
            emin=merged["emin"], hbar=merged["hbar"])
    except DomainError as exc:
        parser.error("invalid model: {}".format(exc))


def _write_text(text: str, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_scan(args, model: BreitWignerModel) -> int:
    # time_grid and scan_rows validate every argument; main maps their
    # DomainError to a usage error
    taus = time_grid(args.tau_min, args.tau_max, args.points, args.grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AsymptoticRangeWarning)
        rows = scan_rows(model, taus, method=args.method, terms=args.terms)
    flagged = sum(1 for w in caught if issubclass(w.category, AsymptoticRangeWarning))
    if flagged:
        print(
            "note: {} series evaluations were outside the asymptotic "
            "series' reliable region".format(flagged),
            file=sys.stderr,
        )
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
        lines = [] if meta is None else ["# bwdecay scan " + " ".join(
            "{}={}".format(k, v if isinstance(v, str) else _fmt(v))
            for k, v in meta.items())]
        lines.append(",".join(ScanRow._fields))
        # the tau = 0 row has empty Hamiltonian fields
        lines.extend(_CSV_ROW.format(*r) if r.kappa is not None else
                     ",".join([_fmt(v) for v in r[:-1]] + [r.method])
                     for r in rows)
        text = "\n".join(lines) + "\n"
    else:
        # the bytes json.dumps(..., indent=2) gives for {"meta": meta,
        # "rows": [row._asdict(), ...]}, without its pure-Python encoder
        head = "{\n" if meta is None else '{{\n  "meta": {},\n'.format(
            json.dumps(meta, indent=2).replace("\n", "\n  "))
        text = head + '  "rows": [\n' + ",\n".join(
            _JSON_ROW.format(*map(_json_value, r)) for r in rows) + "\n  ]\n}\n"
    _write_text(text, args.out)
    return 0


def _write_record(record: dict, args) -> int:
    if args.output == "csv":
        text = ",".join(record) + "\n" + ",".join(
            _fmt(v) for v in record.values()) + "\n"
    else:
        text = json.dumps(record, indent=2) + "\n"
    _write_text(text, args.out)
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
    group.add_argument("--beta", type=float, default=None,
                       help="resonance position above the spectrum edge, in widths")
    group.add_argument("--e0", type=float, default=None,
                       help="resonance energy (energy units); alternative to --beta")
    group.add_argument("--gamma0", type=float, default=None,
                       help="resonance width (default 1)")
    group.add_argument("--emin", type=float, default=None,
                       help="spectrum lower edge (default 0)")
    group.add_argument("--hbar", type=float, default=None,
                       help="hbar in the chosen units (default 1)")
    group.add_argument("--config", default=None, metavar="PATH",
                       help="key=value file with any of: " + ", ".join(_CONFIG_KEYS))


def _add_output_arguments(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--output", choices=("csv", "json"), default=default_format,
                     help="output format (default {})".format(default_format))
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write to PATH instead of standard output")
    sub.add_argument("--no-meta", action="store_true",
                     help="suppress the metadata header line / object")


def _build_parser() -> argparse.ArgumentParser:
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
    scan.add_argument("--terms", type=int, default=5,
                      help="series truncation for --method asymptotic, 1..5")
    _add_output_arguments(scan, "csv")

    cross = subs.add_parser("crossover",
                            help="solve for the exponential/power-law cross-over time")
    _add_model_arguments(cross)
    cross.add_argument("--terms", type=int, choices=(1, 2, 3, 4), default=1,
                       help="late-time amplitude truncation order (default 1)")
    cross.add_argument("--amp-const", type=float, default=None, dest="amp_const",
                       help="canonical-era amplitude prefactor A (default: the "
                            "model normalization N)")
    _add_output_arguments(cross, "json")

    info = subs.add_parser("info", help="report derived model quantities")
    _add_model_arguments(info)
    _add_output_arguments(info, "json")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    model = _resolve_model(args, parser)
    try:
        if args.command == "scan":
            return _cmd_scan(args, model)
        if args.command == "crossover":
            return _cmd_crossover(args, model)
        return _cmd_info(args, model)
    except (ConvergenceError, ToleranceNotMet, BracketError,
            NearZeroAmplitude, OverflowError) as exc:
        print("numerical failure: {}".format(exc), file=sys.stderr)
        return 3
    except DomainError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
