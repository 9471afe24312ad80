"""Shrinking-target families: balls, rectangles and hyperboloids on the torus.

Distances are always to the nearest integer (wrap-aware).  Target volumes
cap at 1 once the radius fills the torus.  A rate psi is one closed form,
c n^-kappa exp(-t n^p), or a table; its lower order at infinity
lambda(psi) = liminf -log(psi(n))/n drives every dimension formula.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import OutOfTable
from .orbits import UnitRealInterval, as_fraction, wrap_distance_bounds

# Widening of every float-stage distance bound.  Float distances on [0, 1]
# are off by at most a few 1e-16, so a float verdict clear of the boundary
# by this much is a proof; anything closer goes to the exact stage.
MARGIN = 1e-13

# Steps per array call when phi_values sums target measures: a chunk's
# float temporaries stay in cache, and Phi(N) holds no N-length array.
PHI_CHUNK = 1 << 15

# Relative widening of the closed-form run bounds of psi.  Two evaluations
# of psi(n) (an array's SIMD lanes, a scalar) differ by a few ulps, far
# below 2^-40; a radius too small for that to hold (subnormal) lies far
# below the float stages' MARGIN, where no bound on it moves a verdict.
RUN_SLACK = 2.0 ** -40


class Shape(enum.Enum):
    BALL = "ball"
    RECTANGLE = "rectangle"
    HYPERBOLOID = "hyperboloid"


@dataclass(frozen=True)
class RateFunction:
    """A positive rate psi(n) = c n^-kappa exp(-t n^p), or a table.

    exponential(t):       c = 1, kappa = 0, p = 1, so psi(n) = exp(-n t)
    power(c, kappa):      t = 0, so psi(n) = c n^-kappa
    superexponential():   t = 1, p = 2, so psi(n) = exp(-n^2)
    table(values, ...):   explicit finite values with an extension rule
    """

    kind: str
    t: float = 0.0
    c: float = 1.0
    kappa: float = 0.0
    values: tuple = ()
    extend: str = "none"  # "none" (raise past range) or "hold" (repeat last)

    @classmethod
    def exponential(cls, t: float) -> "RateFunction":
        if t < 0:
            raise ValueError("exponential rate needs t >= 0")
        return cls(kind="exponential", t=float(t))

    @classmethod
    def power(cls, c: float, kappa: float) -> "RateFunction":
        if c <= 0 or kappa < 0:
            raise ValueError("power rate needs c > 0 and kappa >= 0")
        return cls(kind="power", c=float(c), kappa=float(kappa))

    @classmethod
    def superexponential(cls) -> "RateFunction":
        return cls(kind="superexponential", t=1.0)

    @classmethod
    def table(cls, values: Sequence[float], extend: str = "none") -> "RateFunction":
        vals = tuple(float(v) for v in values)
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("table values must be positive and non-empty")
        if extend not in ("none", "hold"):
            raise ValueError("extend must be 'none' or 'hold'")
        return cls(kind="table", values=vals, extend=extend)

    @property
    def p(self) -> int:
        """The power of n in the closed form's exponent: 2 if superexponential, else 1."""
        return 2 if self.kind == "superexponential" else 1

    def psi(self, n):
        """psi(n) for scalar or array n >= 1.

        n^-kappa, times c in place (one temporary of len(n), not two), times
        exp(-t n^p) if t > 0: the factors a kind fixes at 1 are exact, so each
        kind gives the bytes of its textbook expression.
        """
        arr = np.asarray(n, dtype=np.float64)
        if np.any(arr < 1):
            raise ValueError("n must be >= 1")
        if self.kind == "table":
            idx = np.asarray(np.round(arr), dtype=np.int64) - 1
            past = idx >= len(self.values)
            if np.any(past) and self.extend == "none":
                raise OutOfTable(f"n={int(arr.max())} past table of {len(self.values)}")
            idx = np.minimum(idx, len(self.values) - 1)
            out = np.asarray(self.values, dtype=np.float64)[idx]
        else:
            out = arr ** -self.kappa
            out *= self.c
            if self.t:
                out *= np.exp(-self.t * arr ** self.p)
        return float(out) if np.ndim(n) == 0 else out

    def run_bounds(self, first: int, stop: int, run: int) -> tuple:
        """(lower, upper) arrays with lower[j] <= psi(n) <= upper[j] for every
        n of run j, first + j run <= n < min(first + (j + 1) run, stop).

        The closed forms are non-increasing (t >= 0 and kappa >= 0), so a
        run's bounds are psi at its last and its first step, widened by
        RUN_SLACK.  A table's are its exact min and max over the run (held
        past its end, or OutOfTable as :meth:`psi` raises).
        """
        starts = np.arange(first, stop, run)
        if self.kind != "table":
            lasts = np.minimum(starts + run, stop) - 1
            return (self.psi(lasts.astype(np.float64)) * (1.0 - RUN_SLACK),
                    self.psi(starts.astype(np.float64)) * (1.0 + RUN_SLACK))
        values = np.asarray(self.values, dtype=np.float64)
        if stop - 1 > len(values) and self.extend == "none":
            raise OutOfTable(f"n={stop - 1} past table of {len(values)}")
        # the runs from a step up to the table's length; a run past it reads
        # the held last value, which a run across the end reads too
        inside = np.count_nonzero(starts <= len(values))
        lower, upper = np.full((2, len(starts)), values[-1])
        if inside:
            cuts = starts[:inside] - first
            lower[:inside] = np.minimum.reduceat(values[first - 1:stop - 1], cuts)
            upper[:inside] = np.maximum.reduceat(values[first - 1:stop - 1], cuts)
        return lower, upper

    def log_psi(self, n):
        """log psi(n) evaluated symbolically (no underflow at large n)."""
        if self.kind == "table":
            out = np.log(self.psi(n))
        else:
            arr = np.asarray(n, dtype=np.float64)
            out = math.log(self.c) - self.kappa * np.log(arr) - self.t * arr ** self.p
        return float(out) if np.ndim(n) == 0 else out

    @property
    def vanishes(self) -> bool:
        """Whether psi(n) -> 0 (never for a finite table: "hold" does not
        vanish, and "none" is unknowable)."""
        return self.kind != "table" and (self.t > 0 or self.kappa > 0)

    def lower_order(self):
        """lambda(psi) = liminf -log psi(n) / n.

        Closed form t, or +inf once p > 1; for tables, a numeric liminf
        estimate (min over the tail half of the table) returned together
        with the window it was taken over.
        """
        if self.kind != "table":
            return math.inf if self.p > 1 else self.t
        n_max = len(self.values)
        lo = max(1, n_max // 2)
        ns = np.arange(lo, n_max + 1)
        return float((-np.log(self.psi(ns)) / ns).min()), (lo, n_max)

    def tau_limsup(self, beta_modulus: float) -> float:
        """limsup psi(n) |beta|^-n for |beta| <= 1 (degenerate reduction), over
        a table's first 10^4 terms.  A closed form's is 0 or +inf by the sign
        of lambda - log(1/|beta|), and lim c n^-kappa where that is 0.
        """
        if beta_modulus > 1:
            raise ValueError("tau is used for |beta| <= 1")
        if beta_modulus == 0:
            return math.inf
        if self.kind != "table":
            gap = self.lower_order() - math.log(1.0 / beta_modulus)
            if gap == 0:
                return 0.0 if self.kappa > 0 else self.c
            return 0.0 if gap > 0 else math.inf
        ns = np.arange(1, min(10_000, len(self.values)) + 1)
        return float(np.max(self.psi(ns) * beta_modulus ** -ns.astype(float)))

    @property
    def tau_attained(self) -> bool:
        """Whether psi(n) |beta|^-n reaches its limsup tau (then the reduced
        slice is the half-open interval, not its closure).  A closed form's
        tau is 0 or +inf, reached in the limit, or the constant c n^0; a
        table's, taken over its first terms, is not."""
        return self.kind != "table"


@dataclass(frozen=True)
class AccumulationSet:
    """Accumulation points of (-log psi_1(n)/n, ..., -log psi_d(n)/n)."""

    points: tuple
    radius: float = 0.0

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        if not pts:
            raise ValueError("accumulation set must be non-empty")
        for p in pts:
            if any(c < 0 for c in p):
                raise ValueError("entries must be >= 0 (or +inf)")
        object.__setattr__(self, "points", pts)

    @property
    def bounded(self) -> bool:
        return all(math.isfinite(c) for p in self.points for c in p)

    @property
    def d(self) -> int:
        return len(self.points[0])


def accumulation_set(rates: Sequence[RateFunction], horizon: int = 2000,
                     cluster_radius: float = 1e-3) -> AccumulationSet:
    """U(Psi) for a vector of rates.

    Symbolic kinds contribute their exact limit (t, 0, or +inf), so the
    set is a singleton; table kinds are clustered numerically over the
    horizon tail and the cluster radius is reported.
    """
    if not rates:
        raise ValueError("the rate list must be non-empty")
    tables = [r for r in rates if r.kind == "table"]
    if not tables:
        return AccumulationSet((tuple(r.lower_order() for r in rates),))
    n_hi = min(horizon, min(len(r.values) for r in tables))
    n_lo = max(1, n_hi // 2)
    ns = np.arange(n_lo, n_hi + 1)
    cols = [-np.log(r.psi(ns)) / ns if r.kind == "table" else np.full(len(ns), r.lower_order())
            for r in rates]
    pts = np.stack(cols, axis=1)
    clusters: list[np.ndarray] = []
    for row in pts:
        for c in clusters:
            if np.all(np.abs(np.minimum(row, 1e300) - np.minimum(c, 1e300)) <= cluster_radius):
                break
        else:
            clusters.append(row)
    return AccumulationSet(tuple(tuple(c) for c in clusters), radius=cluster_radius)


@dataclass(frozen=True)
class TargetSpec:
    """A target family E_n: shape, center, and rate(s).

    Balls (max norm) and hyperboloids take one rate; rectangles take one
    rate per coordinate.  The center is kept exact, as Fractions reduced
    mod 1: exact stages read it as it is, and float stages read
    ``float(a)``, whose rounding MARGIN covers.
    """

    shape: Shape
    center: tuple
    rates: tuple

    def __post_init__(self):
        center = tuple(as_fraction(c) % 1 for c in self.center)
        object.__setattr__(self, "center", center)
        rates = tuple(self.rates) if isinstance(self.rates, (tuple, list)) else (self.rates,)
        object.__setattr__(self, "rates", rates)
        d = len(center)
        if d < 1:
            raise ValueError("center must have at least one coordinate")
        if self.shape == Shape.RECTANGLE:
            if len(rates) != d:
                raise ValueError("rectangles need one rate per coordinate")
        elif len(rates) != 1:
            raise ValueError("balls and hyperboloids take a single rate")

    @property
    def d(self) -> int:
        return len(self.center)

    def radii(self, n):
        """The radii :func:`verdict` compares against at time n (scalar or array).

        One per coordinate for balls and rectangles, one for hyperboloids.
        """
        if self.shape == Shape.RECTANGLE:
            return [r.psi(n) for r in self.rates]
        psi = self.rates[0].psi(n)
        return [psi] if self.shape == Shape.HYPERBOLOID else [psi] * self.d

    def radius_bounds(self, first: int, stop: int, run: int) -> list:
        """:meth:`radii` as (lower, upper) bounds over the runs of ``run``
        steps from n = first to stop - 1 (:meth:`RateFunction.run_bounds`)."""
        if self.shape == Shape.RECTANGLE:
            return [r.run_bounds(first, stop, run) for r in self.rates]
        bounds = self.rates[0].run_bounds(first, stop, run)
        return [bounds] if self.shape == Shape.HYPERBOLOID else [bounds] * self.d


def ball(center, rate: RateFunction) -> TargetSpec:
    return TargetSpec(Shape.BALL, tuple(center), (rate,))


def rectangle(center, rates: Sequence[RateFunction]) -> TargetSpec:
    return TargetSpec(Shape.RECTANGLE, tuple(center), tuple(rates))


def hyperboloid(center, rate: RateFunction) -> TargetSpec:
    return TargetSpec(Shape.HYPERBOLOID, tuple(center), (rate,))


def hyperboloid_volume(d: int, delta):
    """Lebesgue volume of {x in T^d : prod ||x_i|| < delta}.

    1 once delta >= 2^-d; 0 at delta = 0 (a psi(n) that underflowed);
    otherwise 2^d delta * sum_{t=0}^{d-1} (1/t!) log(1/(2^d delta))^t.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    delta_arr = np.asarray(delta, dtype=np.float64)
    if np.any(delta_arr < 0):
        raise ValueError("delta must be non-negative")
    scaled = (2.0 ** d) * delta_arr
    small = scaled < 1.0
    logs = np.where(small, -np.log(np.where(small & (scaled > 0), scaled, 1.0)), 0.0)
    total = np.zeros_like(delta_arr)
    term = np.ones_like(delta_arr)
    for t in range(d):
        if t > 0:
            term = term * logs / t
        total = total + term
    out = np.where(small, scaled * total, 1.0)
    return float(out) if np.ndim(delta) == 0 else out


def lebesgue_volume(target: TargetSpec, n):
    """m_d(E_n); exact closed forms, independent of the center."""
    if target.shape == Shape.BALL:
        psi = target.rates[0].psi(n)
        return np.minimum(1.0, 2.0 * np.asarray(psi)) ** target.d if np.ndim(n) else min(1.0, 2.0 * psi) ** target.d
    if target.shape == Shape.RECTANGLE:
        out = 1.0
        for r in target.rates:
            out = out * np.minimum(1.0, 2.0 * np.asarray(r.psi(n), dtype=np.float64))
        return float(out) if np.ndim(n) == 0 else out
    return hyperboloid_volume(target.d, target.rates[0].psi(n))


def phi_values(target: TargetSpec, checkpoints: Sequence[int], measure=None):
    """Phi at each checkpoint: cumulative sum of target measures up to N.

    ``measure=None`` uses the Lebesgue closed forms; a ProductMeasure gives
    exact nu-volumes for every shape (balls and rectangles per factor,
    hyperboloids by :meth:`ProductMeasure.hyperboloid`, for d <= 2).  Both
    are evaluated in chunks of PHI_CHUNK steps, and the running total is
    carried into each chunk's first term, so Phi is the one left-to-right
    sum that a single ``cumsum`` over 1..N would give.
    """
    cps = sorted(int(c) for c in checkpoints)
    if not cps or cps[0] < 0:
        raise ValueError("checkpoints must be non-negative")
    n_max = cps[-1]
    out = {0: 0.0}
    total = 0.0
    next_idx = 0
    while cps[next_idx] == 0:
        next_idx += 1
        if next_idx == len(cps):
            return np.array([out[c] for c in cps])
    for start in range(1, n_max + 1, PHI_CHUNK):
        stop = min(start + PHI_CHUNK - 1, n_max)
        ns = np.arange(start, stop + 1)
        if measure is None:
            vols = np.asarray(lebesgue_volume(target, ns), dtype=np.float64)
        else:
            vols = _nu_volumes(target, ns, measure)
        vols[0] += total
        csum = np.cumsum(vols)
        total = float(csum[-1])
        while next_idx < len(cps) and cps[next_idx] <= stop:
            out[cps[next_idx]] = float(csum[cps[next_idx] - start])
            next_idx += 1
    return np.array([out[c] for c in cps])


def _nu_volumes(target: TargetSpec, ns: np.ndarray, measure) -> np.ndarray:
    center = [float(a) for a in target.center]
    if target.shape == Shape.HYPERBOLOID:
        return measure.hyperboloid(center, target.rates[0].psi(ns))
    if target.shape == Shape.BALL:
        return measure.ball(center, target.rates[0].psi(ns))
    return math.prod(mu.arc(a, r) for mu, a, r in
                     zip(measure.factors, center, target.radii(ns)))


class Containment(enum.Enum):
    YES = "yes"
    NO = "no"
    AMBIGUOUS = "ambiguous"


def verdict(shape: Shape, lows, highs, radii):
    """(surely_in, maybe_in) from per-coordinate bounds on ||x_i - a_i||.

    ``lows`` and ``highs`` bound each coordinate's distance from below and
    above (non-negative), ``radii`` come from :meth:`TargetSpec.radii`.  A
    hyperboloid compares the product of the distances with its one
    radius; a ball or rectangle needs every coordinate within its radius.
    The same code runs on floats, Fractions and numpy arrays (which give
    boolean arrays); lows and highs may be iterators, read once each.
    """
    if shape == Shape.HYPERBOLOID:
        return math.prod(highs) <= radii[0], math.prod(lows) <= radii[0]
    return (reduce(operator.and_, (hi <= r for hi, r in zip(highs, radii))),
            reduce(operator.and_, (lo <= r for lo, r in zip(lows, radii))))


def exact_verdict(target: TargetSpec, n: int, bounds) -> tuple:
    """:func:`verdict` on exact (Fraction) distance bounds at time n."""
    return verdict(target.shape, [lo for lo, _ in bounds], [hi for _, hi in bounds],
                   [as_fraction(r) for r in target.radii(n)])


def _exact_arc(coord) -> tuple:
    """(lo, width) of a point, a (lo, hi) pair or an enclosure, as Fractions."""
    if isinstance(coord, UnitRealInterval):
        return coord.lo, coord.width
    if isinstance(coord, tuple):
        lo, hi = as_fraction(coord[0]), as_fraction(coord[1])
        return lo % 1, (hi - lo) % 1
    return as_fraction(coord) % 1, Fraction(0)


def _float_arc(coord) -> tuple:
    """(lo, width) as floats, each within a rounding error of the exact arc."""
    if isinstance(coord, UnitRealInterval):
        return coord.lo_float, coord.width_float
    return tuple(map(float, _exact_arc(coord)))


def contains(target: TargetSpec, n: int, x) -> Containment:
    """Three-valued membership of x in E_n; YES and NO are proofs.

    Each coordinate of x is a point (int, float, Fraction), a ``(lo, hi)``
    arc (hi < lo wraps past 1, hi == lo is a point) or a
    UnitRealInterval.  A float stage, with every distance bound widened
    by ``MARGIN``, decides almost every call; where it cannot, an exact
    stage decides on the exact arcs.  So YES means every point of x lies
    in E_n, NO means none does, and AMBIGUOUS means x straddles the
    boundary.  The answer is monotone under enclosure refinement.
    """
    if len(x) != target.d:
        raise ValueError("point dimension mismatch")
    bounds = [wrap_distance_bounds(*_float_arc(c), float(a)) for c, a in zip(x, target.center)]
    surely, maybe = verdict(target.shape, [max(lo - MARGIN, 0.0) for lo, _ in bounds],
                            [hi + MARGIN for _, hi in bounds], target.radii(n))
    if maybe and not surely:
        bounds = [wrap_distance_bounds(*_exact_arc(c), a) for c, a in zip(x, target.center)]
        surely, maybe = exact_verdict(target, n, bounds)
    if surely:
        return Containment.YES
    return Containment.AMBIGUOUS if maybe else Containment.NO
