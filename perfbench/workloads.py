"""Seeded call mixes for the four benchmark workloads.

A workload is one *round*: a fixed list of bwdecay command lines whose
composition never depends on the seed.  The seed only picks

* each beta, as its nominal value times a factor from ``JITTER`` (the
  smallest beta therefore always stays below 0.1, inside the known
  small-beta hole of the exact path);
* the order of the calls in the round.

The correctness sample is drawn from the same seed in ``run.py``.  The
program only ever sees the generated argv.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

NOMINAL_BETAS = (0.05, 0.5, 2.0, 10.0, 100.0)
JITTER = (0.98, 0.99, 1.0, 1.01, 1.02)

EARLY = ("0.01", "40")
TAIL = ("40", "1e8")

# tau range of the fixed accuracy panel (nominal betas, no seed) per workload
PANEL_RANGE = {"cli_session": EARLY, "dense_early": EARLY, "dense_tail": TAIL,
               "oracle": EARLY}
PANEL_POINTS = 64

# Wall time of one round on the reference machine (2-vCPU Xeon VM, pure
# Python kernels).  A run makes round(seconds / this) rounds, at least one,
# so the work of a run is fixed by --seconds alone and compares like for
# like across commits.
ROUND_SECONDS = {"cli_session": 27.0, "dense_early": 11.5, "dense_tail": 4.5,
                 "oracle": 6.5}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass(frozen=True)
class Call:
    """One bwdecay invocation and what it is expected to deliver."""

    argv: tuple
    kind: str            # "scan", "crossover" or "info"
    beta: str
    method: str = ""     # scan route
    output: str = ""     # "csv" or "json"
    tau_min: str = ""
    tau_max: str = ""
    points: int = 0
    terms: int = 0       # series order (asymptotic scan) or crossover order

    @property
    def out(self):
        """Output file, or None when the call prints to stdout."""
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None

    @property
    def ops(self) -> int:
        """Operations requested: one per scan row, one per other call."""
        return self.points if self.kind == "scan" else 1


def betas(seed: int) -> list:
    rng = random.Random(seed)
    return ["{:.6g}".format(b * rng.choice(JITTER)) for b in NOMINAL_BETAS]


def _scan(beta, points, output, tau=EARLY, method="exact") -> Call:
    argv = ["scan", "--beta", beta, "--tau-min", tau[0], "--tau-max", tau[1],
            "--points", str(points), "--output", output]
    if method != "exact":
        argv += ["--method", method]
    return Call(tuple(argv), "scan", beta, method, output, tau[0], tau[1],
                points, 5)


def _crossover(beta, order) -> Call:
    return Call(("crossover", "--beta", beta, "--terms", str(order)),
                "crossover", beta, terms=order)


def _control_crossovers(beta):
    # kernel-free calls that the dense workloads time next to their scans,
    # enough of them for a crossover tail; orders 1-2 solve at every beta
    return [_crossover(beta, order) for order in (1, 2, 1, 2)]


def _cli_session(bs):
    calls = []
    for b in bs:
        # the scans keep the CLI defaults (500 rows, tau in [0.01, 40])
        calls += [
            Call(("info", "--beta", b), "info", b),
            Call(("crossover", "--beta", b), "crossover", b, terms=1),
            Call(("scan", "--beta", b), "scan", b, "exact", "csv",
                 "0.01", "40", 500, 5),
            Call(("scan", "--beta", b, "--output", "json"), "scan", b,
                 "exact", "json", "0.01", "40", 500, 5),
            Call(("scan", "--beta", b, "--method", "asymptotic",
                  "--tau-min", "40", "--tau-max", "1e4"), "scan", b,
                 "asymptotic", "csv", "40", "1e4", 500, 5),
        ]
    return calls


def _dense_early(bs):
    calls = []
    for b in bs:
        # three sizes with two calls each, so that the median and the tail
        # of a run fall inside a size class, not on the edge between two
        for points in (500, 1000, 2000):
            calls += [_scan(b, points, "csv"), _scan(b, points, "json")]
        calls += _control_crossovers(b)
    # the 100,000-row JSON scan, at beta near 2 so that it always delivers
    calls.append(_scan(bs[2], 100_000, "json"))
    return calls


def _dense_tail(bs):
    calls = []
    for b in bs:
        # sizes a factor ~1.4 apart, so call times spread without gaps and
        # the tail rank does not jump between size classes
        for points, output in ((1000, "csv"), (1400, "json"), (2000, "csv"),
                               (2800, "json"), (4000, "csv")):
            calls.append(_scan(b, points, output, TAIL))
            calls.append(_scan(b, points, output, TAIL, "asymptotic"))
        calls += _control_crossovers(b)
    return calls


def _oracle(bs):
    calls = []
    for b in bs:
        # scans long enough that a run holds three rounds: 60 crossover
        # calls, so that their tail is not a rare stall of the host
        for points, output in ((192, "csv"), (256, "json"), (320, "csv")):
            calls.append(_scan(b, points, output, method="quadrature"))
        for order in (1, 2, 3, 4):
            calls.append(_crossover(b, order))
    return calls


_BUILDERS = {
    "cli_session": _cli_session,
    "dense_early": _dense_early,
    "dense_tail": _dense_tail,
    "oracle": _oracle,
}
WORKLOADS = tuple(_BUILDERS)


def round_calls(workload: str, seed: int, out_dir: str) -> list:
    """The seeded round of ``workload``.

    Except on ``cli_session``, whose calls print to stdout, call ``i``
    writes to ``<out_dir>/call<i>.out``.
    """
    calls = _BUILDERS[workload](betas(seed))
    random.Random(seed + 1).shuffle(calls)
    if workload == "cli_session":
        return calls
    return [replace(c, argv=c.argv + ("--out", os.path.join(out_dir, "call{}.out".format(i))))
            for i, c in enumerate(calls)]
