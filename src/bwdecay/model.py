"""Truncated Breit-Wigner model parameters and unit conversions.

The physical inputs are the resonance energy E0, the width gamma0 and
the spectrum lower bound Emin.  Everything downstream works in the
dimensionless pair

    beta = (E0 - Emin) / gamma0,      tau = gamma0 * t / hbar,

so this module is the only place physical units appear: construction,
the tau <-> t maps, and the density itself.  It also owns the domain of
the dimensionless pair: :func:`check_tau` is the one validator of tau
for the whole package, and :func:`check_real` the one check of every
other real-valued parameter, beta included.  :func:`i_beta_at_zero` is
the one formula for I(0) = 2 pi/N, :func:`_phase` the one place the
phase exp(i beta tau) of the closed forms is formed, and
:func:`time_grid` the one tau grid, which scans and the cross-over
solve walk.  Beside it are the names of a scan's routes, ``METHODS``,
and its record, ``ScanRow``, which ``scan`` re-exports: the CLI builds
its parser and row templates from them without loading a route.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, pairwise

from .errors import DomainError


def check_real(name: str, value: float, positive: bool = False) -> None:
    """Raise DomainError unless ``value`` is a finite real (and > 0 if ``positive``)."""
    if value.__class__ is float and (0.0 if positive else -math.inf) < value < math.inf:
        return  # the common case, in one comparison
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and (value > 0 or not positive)):
        raise DomainError("{} must be a finite {}real, got {!r}".format(
            name, "positive " if positive else "", value))


def check_int(name: str, value: int, lo: int, hi: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an integer in lo..hi (>= lo without hi)."""
    if not (isinstance(value, int) and lo <= value and (hi is None or value <= hi)):
        raise DomainError("{} must be an integer {}, got {!r}".format(
            name, ">= {}".format(lo) if hi is None else "in {}..{}".format(lo, hi),
            value))


def check_tau(tau: float, hint: str = "", zero_ok: bool = False) -> None:
    """Raise DomainError unless ``tau`` is a finite real > 0 (>= 0 if ``zero_ok``).

    ``hint`` is appended to the message, typically to say why the
    caller refuses tau = 0.
    """
    if tau.__class__ is float and 0.0 < tau < math.inf:
        return  # the common case, in one comparison
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)
            and (tau > 0 or (zero_ok and tau == 0))):
        raise DomainError("tau must be a finite {} real, got {!r}{}".format(
            "non-negative" if zero_ok else "positive", tau, hint))


_TWO_PI = 2.0 * math.pi


def i_beta_at_zero(beta: float) -> float:
    """I(0) = pi + 2 arctan(2 beta) = 2 pi/N for a validated beta: the mass
    of the truncated density before normalization."""
    return math.pi + 2.0 * math.atan(2.0 * beta)


# Below this tau the closed form and the oracle both return I(0): the gap
# |I(tau) - I(0)| <= tau (2 ln(1/tau) + 4) is under 1e-16 there, below
# one ulp of I(0) >= pi.
_TAU_FLOOR = 1e-18


def _phase(beta: float, tau: float) -> complex:
    """exp(i beta tau) for a validated beta and tau.

    Raises OverflowError where beta * tau is not finite; callers form the
    phase before any E1 call, so that the error is the first they raise.
    """
    beta_tau = beta * tau
    if not -math.inf < beta_tau < math.inf:
        raise OverflowError(
            "beta * tau overflows double range at beta = {!r}, tau = {!r}; "
            "the phase exp(i beta tau) is undefined there".format(beta, tau))
    return cmath.exp(1j * beta_tau)


def _mul_div(a: float, b: float, c: float) -> float:
    """a * b / c for finite a, b and c != 0, within two roundings wherever
    it is a normal double, and +-inf where it overflows.

    The product and quotient are taken of the frexp mantissas, which can
    neither over- nor underflow, and the exponents are added apart; the
    rounding is that of a * b / c wherever a * b and the result are
    normal.
    """
    ma, ea = math.frexp(a)
    mb, eb = math.frexp(b)
    mc, ec = math.frexp(c)
    m = ma * mb / mc
    try:
        return math.ldexp(m, ea + eb - ec)
    except OverflowError:
        return math.copysign(math.inf, m)


class _Grid(Sequence):
    """What time_grid returns: its points, each formed from its index when
    asked for; int indices may be negative, and slices are lists."""

    __slots__ = ("_lo", "_hi", "_last", "_form")

    def __init__(self, lo: float, hi: float, points: int, form):
        self._lo, self._hi, self._last = lo, hi, points - 1
        self._form = form  # point i from i, for 0 < i < points - 1

    def __len__(self) -> int:
        return self._last + 1

    def __getitem__(self, index):
        lo, hi, last, form = self._lo, self._hi, self._last, self._form
        i = range(last + 1)[index]  # checks as a sequence does; a slice gives a range
        if isinstance(i, range):
            return [form(j) if 0 < j < last else lo if j == 0 else hi for j in i]
        return form(i) if 0 < i < last else lo if i == 0 else hi

    def __iter__(self):
        return chain((self._lo,), map(self._form, range(1, self._last)),
                     (self._hi,))


def time_grid(tau_min: float, tau_max: float, points: int,
              kind: str = "log") -> Sequence:
    """Strictly increasing tau grid, linear or logarithmic.

    Returns a read-only sequence of ``points`` taus that forms each
    point from its index when it is asked for, so the grid's memory does
    not grow with its length; ``list(time_grid(...))`` makes a list.
    The ends are the arguments ``tau_min`` and ``tau_max`` themselves (an
    int stays an int), and the inner points are floats that depend on
    their index alone (no accumulated stepping error), so equal arguments
    give equal grids.  A grid whose points would repeat in double
    precision raises DomainError before any point is used; the check
    walks every point unless the step of a log grid certifies that none
    repeats.
    """
    check_int("points", points, 2)
    if kind not in ("linear", "log"):
        raise DomainError("grid kind must be 'linear' or 'log', got {!r}".format(kind))
    check_tau(tau_min, hint=" (tau_min of a {} grid)".format(kind),
              zero_ok=kind == "linear")
    check_tau(tau_max, hint=" (tau_max)")
    if tau_max <= tau_min:
        raise DomainError(
            "tau_max must exceed tau_min, got [{!r}, {!r}]".format(tau_min, tau_max)
        )
    last = points - 1
    walk = True  # whether the repeat check must walk the grid
    if kind == "linear":
        step = (tau_max - tau_min) / last

        def form(i):
            return tau_min + i * step
    else:
        ratio = tau_max / tau_min
        if ratio == math.inf:
            # the ratio overflows, though both ends are finite: step in logs
            lo = math.log(tau_min)
            span = math.log(tau_max) - lo

            def form(i):
                return math.exp(lo + i / last * span)
        else:
            def form(i):
                return tau_min * ratio ** (i / last)
            # from a normal tau_min each point is formed within
            # (ln ratio + 3) 2**-53 <= 8e-14 relative of its exact value,
            # so a relative step above 1e-11 certifies that none repeats
            walk = not (tau_min >= sys.float_info.min
                        and ratio ** (1 / last) - 1.0 > 1e-11)
    grid = _Grid(tau_min, tau_max, points, form)
    # too many points for the span in doubles (say near the subnormals, or
    # 100 points on [1, 1 + 1e-15]) round to repeats; a scan would print
    # them.  pairwise keeps only the previous point.
    if walk and any(b <= a for a, b in pairwise(grid)):
        raise DomainError(
            "a {} grid of {} points on [{!r}, {!r}] repeats points in double "
            "precision; use fewer points or a wider range".format(
                kind, points, tau_min, tau_max)
        )
    return grid


METHODS = ("exact", "asymptotic", "quadrature")


ScanRow = namedtuple("ScanRow", "tau p kappa gamma_ratio re_h im_h method")
ScanRow.__doc__ = """One grid record, an immutable named tuple.

The fields, in order: ``tau``, ``p``, ``kappa``, ``gamma_ratio``,
``re_h``, ``im_h`` (floats) and ``method`` (the route's name).
``kappa``, ``gamma_ratio``, ``re_h``, ``im_h`` are None where the
effective Hamiltonian is undefined (tau = 0); ``re_h`` is
(E - Emin)/gamma0, ``im_h`` is Im h/gamma0 = -gamma_ratio/2.
``ScanRow._fields`` names the columns and ``row._asdict()`` maps them
to the values.
"""


class BreitWignerModel(namedtuple("BreitWignerModel", "e0 gamma0 emin hbar")):
    """Parameters of a truncated Breit-Wigner energy density.

    The density is a Lorentzian of width ``gamma0`` centered at ``e0``,
    set to zero below ``emin`` and renormalized to unit integral:

        w(E) = (N / 2 pi) * gamma0 / ((E - e0)**2 + gamma0**2 / 4),  E >= emin.

    An immutable named tuple, validated on construction and by
    ``_replace``.

    Parameters
    ----------
    e0 : float
        Resonance energy (energy units).
    gamma0 : float
        Resonance width, > 0 (energy units).
    emin : float
        Lower edge of the energy spectrum, < e0.
    hbar : float, optional
        Planck constant in the chosen unit system; 1 by default so that
        tau counts lifetimes directly.
    """

    # No __slots__: the instance dict holds the cached beta and N.  _replace
    # builds through _make, so it validates as the constructor does.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, e0: float, gamma0: float, emin: float, hbar: float = 1.0):
        check_real("e0", e0)
        check_real("gamma0", gamma0, positive=True)
        check_real("emin", emin)
        check_real("hbar", hbar, positive=True)
        if e0 <= emin:
            raise DomainError(
                "e0 must exceed emin (got e0 = {!r}, emin = {!r}); "
                "the resonance must sit above the spectrum edge".format(e0, emin))
        self = super().__new__(cls, e0, gamma0, emin, hbar)
        check_real("beta", self.beta, positive=True)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BreitWignerModel is immutable; use _replace()")

    @classmethod
    def from_beta(cls, beta: float, gamma0: float = 1.0, emin: float = 0.0,
                  hbar: float = 1.0) -> "BreitWignerModel":
        """Build a model with a prescribed dimensionless ``beta``.

        Convenience for scans: e0 is placed at ``emin + beta * gamma0``.
        Raises DomainError where the rounding of e0 moves beta by more
        than 1e-12 relative, the package's accuracy.
        """
        check_real("beta", beta, positive=True)
        check_real("gamma0", gamma0, positive=True)
        check_real("emin", emin)
        e0 = emin + beta * gamma0
        held = (e0 - emin) / gamma0  # the model's beta
        if not abs(held - beta) <= 1e-12 * beta:
            raise DomainError(
                "beta = {!r} cannot be held at emin = {!r}, gamma0 = {!r}: e0 rounds "
                "to {!r}, which gives beta = {!r}".format(beta, emin, gamma0, e0, held))
        return cls(e0=e0, gamma0=gamma0, emin=emin, hbar=hbar)

    @cached_property
    def beta(self) -> float:
        """Resonance position above the edge, in units of the width.

        Computed once per model, on construction; fields, eq, hash and
        repr are the four parameters alone.  cached_property writes the
        instance dict directly, past ``__setattr__``.
        """
        return (self.e0 - self.emin) / self.gamma0

    @property
    def lifetime(self) -> float:
        """Canonical lifetime hbar / gamma0 (time units).

        Raises OverflowError where it leaves double range, as it does at
        gamma0 = 1e-310, and ArithmeticError where it falls below the
        least normal double, as it does at hbar = 5e-324, gamma0 = 10.
        """
        lifetime = self.hbar / self.gamma0
        if lifetime == math.inf:
            raise OverflowError(
                "the lifetime hbar / gamma0 overflows double range at hbar = {!r}, "
                "gamma0 = {!r}".format(self.hbar, self.gamma0))
        if lifetime < sys.float_info.min:
            raise ArithmeticError(
                "the lifetime hbar / gamma0 underflows double range at hbar = {!r}, "
                "gamma0 = {!r}".format(self.hbar, self.gamma0))
        return lifetime

    def tau_of_t(self, t: float) -> float:
        """Dimensionless time gamma0 * t / hbar for finite physical t >= 0.

        Raises DomainError where t is not 0 but tau rounds to 0.
        """
        check_real("t", t)
        tau = _mul_div(self.gamma0, t, self.hbar)
        check_tau(tau, hint=" (from t = {!r})".format(t), zero_ok=True)
        if tau == 0 and t != 0:
            raise DomainError(
                "t = {!r} maps to tau = {!r} at gamma0 = {!r}, hbar = {!r}: tau "
                "underflows double range".format(t, tau, self.gamma0, self.hbar))
        return tau

    def t_of_tau(self, tau: float) -> float:
        """Physical time for finite dimensionless ``tau`` >= 0; inverse of tau_of_t.

        Raises OverflowError where the time leaves double range, and
        ArithmeticError where a time that is not 0 falls below the least
        normal double.
        """
        check_tau(tau, zero_ok=True)
        t = _mul_div(self.hbar, tau, self.gamma0)
        if t == math.inf:
            raise OverflowError(
                "the time t = hbar * tau / gamma0 overflows double range at "
                "tau = {!r}, hbar = {!r}, gamma0 = {!r}".format(
                    tau, self.hbar, self.gamma0))
        if t < sys.float_info.min and tau != 0:
            raise ArithmeticError(
                "the time t = hbar * tau / gamma0 underflows double range at "
                "tau = {!r}, hbar = {!r}, gamma0 = {!r}".format(
                    tau, self.hbar, self.gamma0))
        return t

    def normalization(self) -> float:
        """Normalization constant N = 2 pi / (pi + 2 arctan(2 beta)).

        Makes the truncated density integrate to one.  N > 1 for every
        finite beta (truncation removes tail mass) and tends to 1 as
        beta grows.  Computed once per model.
        """
        return self._normalization

    @cached_property
    def _normalization(self) -> float:
        # N, computed on the first normalization() call and kept in the
        # instance dict, as beta is
        return _TWO_PI / i_beta_at_zero(self.beta)

    def density(self, e: float) -> float:
        """Energy density w(e) at a finite real ``e``; zero below the spectrum edge.

        Raises OverflowError where w(e) leaves double range, as it does
        near e0 at gamma0 = 1e-310.
        """
        check_real("e", e)
        if e < self.emin:
            return 0.0
        # gamma0 / r**2 with r = |e - e0 + i gamma0/2|, divided by r twice
        # so that no square over- or underflows at any width
        r = math.hypot(e - self.e0, 0.5 * self.gamma0)
        density = self.normalization() / _TWO_PI * (self.gamma0 / r) / r
        if density == math.inf:
            raise OverflowError(
                "the density w({!r}) overflows double range at gamma0 = {!r}".format(
                    e, self.gamma0))
        return density
