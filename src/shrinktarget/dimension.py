"""Closed-form Hausdorff-dimension calculators for shrinking-target sets.

The rectangular formula partitions coordinates, for each anchor i and
exponent vector t, into

    K1(i) = { k : log b_k > log b_i + t_i }
    K2(i) = { k : log b_k + t_k <= log b_i + t_i }
    K3(i) = the rest,

and scores theta_i(t) = sum_{K1} 1 + sum_{K2} (1 - t_k/(log b_i + t_i))
+ sum_{K3} log b_k/(log b_i + t_i); the dimension is the sup over the
accumulation set of the min over i.  One weighted form of this sum serves
the rectangle, delta-weighted, unbounded and mass-transference
variants.  The ball case collapses to a single
closed form in lambda, implemented separately so the two routes
cross-check each other.  All indices here are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InfiniteCoordinate,
    RateNotVanishing,
    SlopeTooSmall,
    UnboundedU,
)
from .targets import AccumulationSet, RateFunction


def _check_moduli(moduli) -> list[float]:
    mods = [float(m) for m in moduli]
    if any(b - a > 1e-15 for a, b in zip(mods[1:], mods)):
        raise ValueError("moduli must be sorted ascending")
    if any(m <= 1 for m in mods):
        raise ValueError("moduli must all exceed 1")
    return mods


@dataclass(frozen=True)
class DimensionReport:
    """A dimension value plus the witnesses that produced it."""

    value: float
    method: str
    argmin_index: Optional[int] = None
    attained_t: Optional[tuple] = None
    partition: Optional[tuple] = None  # ((K1, K2, K3) per i) at attained_t
    error_bound: float = 0.0
    conjectural: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.value):
            raise ValueError("dimension must be non-negative")


def _partition_sets(i, logb, t, k1_strict=True):
    d = len(logb)
    thr = logb[i] + t[i]
    k1 = []
    k2 = []
    k3 = []
    for k in range(d):
        in_k1 = logb[k] > thr if k1_strict else logb[k] >= thr
        if in_k1:
            k1.append(k)
            continue
        # a tie log b_k + t_k = thr joins K2, where 1 - t_k/thr = log b_k/thr
        (k2 if logb[k] + t[k] <= thr else k3).append(k)
    return tuple(k1), tuple(k2), tuple(k3)


def _theta_sum(i, logb, t, w, k1_strict=True) -> float:
    """The one partition sum behind every theta: sum_{K1} w_k
    + sum_{K2} w_k (1 - t_k/thr) + sum_{K3} w_k log b_k/thr, thr = log b_i + t_i.

    An infinite t_k never joins K2, so weight 0 drops a coordinate."""
    thr = logb[i] + t[i]
    k1, k2, k3 = _partition_sets(i, logb, t, k1_strict)
    return sum(itertools.chain((w[k] for k in k1),
                               (w[k] * (1.0 - t[k] / thr) for k in k2),
                               (w[k] * (logb[k] / thr) for k in k3)))


def theta_rect(i, moduli, t, weights=None) -> float:
    """theta_i(t) by the partition sums; ``weights`` gives the delta-weighted
    variant (all weights 1 reproduces the plain value bit for bit)."""
    mods = _check_moduli(moduli)
    d = len(mods)
    t = [float(v) for v in t]
    if len(t) != d:
        raise ValueError("t must have one entry per modulus")
    if any(v < 0 for v in t):
        raise ValueError("t entries must be >= 0")
    if math.isinf(t[i]):
        raise InfiniteCoordinate(
            f"t[{i}] is infinite; route this instance through unbounded_bounds"
        )
    w = [1.0] * d if weights is None else [float(v) for v in weights]
    return _theta_sum(i, [math.log(m) for m in mods], t, w)


def theta_partition(i, moduli, t):
    """The (K1, K2, K3) partition behind theta_i(t), for reporting."""
    mods = _check_moduli(moduli)
    logb = [math.log(m) for m in mods]
    return _partition_sets(i, logb, [float(v) for v in t])


def _theta_lipschitz(moduli, t) -> float:
    """Crude valid bound on the gradient norm of every theta_i near t."""
    logb = [math.log(float(m)) for m in moduli]
    finite_t = [v for v in t if math.isfinite(v)]
    thr_min = min(logb) + 0.0
    if thr_min <= 0:
        thr_min = 1e-9
    top = sum(finite_t) + sum(logb) + len(logb)
    return len(logb) * (1.0 / thr_min + top / (thr_min * thr_min))


def _sup_min(points, d, theta) -> tuple:
    """(value, point, argmin i) of sup over the points of min_i theta(i, point)."""
    best = None
    for point in points:
        vals = [theta(i, point) for i in range(d)]
        i_min = int(np.argmin(vals))
        if best is None or vals[i_min] > best[0]:
            best = (vals[i_min], point, i_min)
    return best


def dim_rect(moduli, accumulation: AccumulationSet) -> DimensionReport:
    """sup over U(Psi) of min_i theta_i(t) (rectangular targets).

    Requires a bounded accumulation set; otherwise see unbounded_bounds.
    For clustered numeric sets the report carries an error bound of
    Lipschitz-constant * cluster radius.
    """
    mods = _check_moduli(moduli)
    if not accumulation.bounded:
        raise UnboundedU("accumulation set has an infinite coordinate")
    if accumulation.d != len(mods):
        raise ValueError("accumulation points must match the number of moduli")
    value, point, i_min = _sup_min(accumulation.points, len(mods),
                                   lambda i, t: theta_rect(i, mods, t))
    err = 0.0
    if accumulation.radius > 0:
        err = _theta_lipschitz(mods, point) * accumulation.radius
    partition = tuple(theta_partition(i, mods, point) for i in range(len(mods)))
    return DimensionReport(
        value=value, method="rect", argmin_index=i_min, attained_t=tuple(point),
        partition=partition, error_bound=err,
    )


def _theta_ball_closed(i, logb, lam) -> float:
    """theta_i(lambda) in the closed single-rate form.

    (i+1) log b_i - sum_{k: log b_k > log b_i + lambda}
    (log b_k - log b_i - lambda) + sum_{k > i} log b_k, all over
    (lambda + log b_i).  Algebraically equal to the partition sums at a
    constant t-vector; kept separate as an independent route.
    """
    d = len(logb)
    thr = logb[i] + lam
    num = (i + 1) * logb[i]
    for k in range(d):
        if logb[k] > thr:
            num -= logb[k] - logb[i] - lam
    for k in range(i + 1, d):
        num += logb[k]
    return num / thr


def dim_ball(moduli, lam: float) -> DimensionReport:
    """min_i theta_i(lambda) for ball targets; 0 at lambda = +inf."""
    mods = _check_moduli(moduli)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if math.isinf(lam):
        return DimensionReport(value=0.0, method="ball", attained_t=(math.inf,) * len(mods))
    logb = [math.log(m) for m in mods]
    vals = [_theta_ball_closed(i, logb, lam) for i in range(len(mods))]
    i_min = int(np.argmin(vals))
    t = (lam,) * len(mods)
    partition = tuple(theta_partition(i, mods, t) for i in range(len(mods)))
    return DimensionReport(
        value=vals[i_min], method="ball", argmin_index=i_min,
        attained_t=t, partition=partition,
    )


def dim_onedim(beta_modulus: float, lam: float) -> float:
    """log|beta| / (lambda + log|beta|); holds for negative beta as well
    (with the target center in the measure's support)."""
    b = abs(float(beta_modulus))
    if b <= 1:
        raise ValueError("|beta| must be > 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if math.isinf(lam):
        return 0.0
    return math.log(b) / (lam + math.log(b))


def dim_mult(moduli, lam: float) -> float:
    """d - 1 + log|beta_d| / (lambda + log|beta_d|) (hyperboloid targets)."""
    mods = _check_moduli([abs(float(m)) for m in moduli])
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return len(mods) - 1 + dim_onedim(mods[-1], lam)


@dataclass(frozen=True)
class MtpInput:
    """Ahlfors exponents and the (u, v) exponent pair of the rectangle
    mass-transference bound; requires 0 < u_k < v_k and delta_k > 0."""

    deltas: tuple
    u: tuple
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(x) for x in self.deltas))
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        p = len(self.deltas)
        if len(self.u) != p or len(self.v) != p:
            raise ValueError("deltas, u, v must share a length")
        if any(d <= 0 for d in self.deltas):
            raise ValueError("Ahlfors exponents must be positive")
        if any(not 0 < uk < vk for uk, vk in zip(self.u, self.v)):
            raise ValueError("need 0 < u_k < v_k for every k")


def mtp_score(inp: MtpInput, i: int) -> float:
    """s(u, v, i) = sum_{K1} delta_k + sum_{K2} delta_k (1-(v_k-u_k)/v_i)
    + sum_{K3} u_k delta_k / v_i, with K1 = {u_k >= v_i}, K2 = {v_k <= v_i}:
    the partition sum with log b = u and t = v - u."""
    gaps = [vk - uk for uk, vk in zip(inp.u, inp.v)]
    return _theta_sum(i, inp.u, gaps, inp.deltas, k1_strict=False)


def mtp_dimension(inp: MtpInput) -> DimensionReport:
    """min_i s(u, v, i); invariant under (u, v) -> (cu, cv)."""
    vals = [mtp_score(inp, i) for i in range(len(inp.deltas))]
    i_min = int(np.argmin(vals))
    return DimensionReport(value=vals[i_min], method="mtp", argmin_index=i_min)


def markov_bounds(beta_modulus: float, lam: float) -> tuple[float, float]:
    """Markov-subsystem lower bounds for slope modulus > 8:

    ((1 - log8/log b) / (1 + lambda/log b),  1 - log8/log b).
    """
    b = abs(float(beta_modulus))
    if b <= 8:
        raise SlopeTooSmall(
            f"slope modulus {b} <= 8: pass a power of the map with modulus > 8"
        )
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    logb = math.log(b)
    dim_lb = 1.0 - math.log(8.0) / logb
    if math.isinf(lam):
        return 0.0, dim_lb
    return dim_lb / (1.0 + lam / logb), dim_lb


def conjectured_theta_hat(i, moduli, t, deltas) -> float:
    """Delta-weighted theta_i; conjectural (reported as such), reduces to
    theta_rect exactly when every delta is 1."""
    d = len(moduli)
    w = [float(x) for x in deltas]
    if len(w) != d or any(not 0 < x <= 1 for x in w):
        raise ValueError("deltas must lie in (0, 1]")
    return theta_rect(i, moduli, t, weights=w)


def conjectured_dim_hat(moduli, accumulation: AccumulationSet, deltas) -> DimensionReport:
    mods = _check_moduli(moduli)
    if not accumulation.bounded:
        raise UnboundedU("accumulation set has an infinite coordinate")
    value, point, i_min = _sup_min(accumulation.points, len(mods),
                                   lambda i, t: conjectured_theta_hat(i, mods, t, deltas))
    return DimensionReport(
        value=value, method="conj_hat", argmin_index=i_min,
        attained_t=tuple(point), conjectural=True,
    )


def unbounded_bounds(moduli, accumulation: AccumulationSet) -> tuple[float, float]:
    """(lower, upper) dimension bounds when U(Psi) has infinite coordinates.

    lower = sup_t min( min_{i: t_i<inf} reduced-theta_i(t), #finite(t) ),
    upper = sup_t min( min_{i: t_i<inf} theta_i(t),        #finite(t) ).
    The two coincide when every coordinate is finite.
    """
    mods = _check_moduli(moduli)
    logb = [math.log(m) for m in mods]
    lower = 0.0
    upper = 0.0
    for point in accumulation.points:
        t = [float(v) for v in point]
        finite = [i for i in range(len(mods)) if math.isfinite(t[i])]
        if not finite:
            continue
        kept = [0.0 if math.isinf(v) else 1.0 for v in t]
        red = min(_theta_sum(i, logb, t, kept) for i in finite)
        ful = min(_theta_sum(i, logb, t, [1.0] * len(t)) for i in finite)
        lower = max(lower, min(red, float(len(finite))))
        upper = max(upper, min(ful, float(len(finite))))
    return lower, upper


# ---------------------------------------------------------------------------
# degenerate-eigenvalue reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionFactor:
    """What the shrinking-target set looks like along one removed coordinate."""

    index: int
    kind: str  # "empty" | "full_circle" | "fixed" | "countable_fixed" | "interval" | "parity"
    points: tuple = ()
    interval: Optional[tuple] = None
    closure_ambiguous: bool = False
    tau: Optional[float] = None


@dataclass(frozen=True)
class ReductionOutcome:
    """Structured outcome of peeling the |beta| <= 1 coordinates off.

    ``kind`` summarizes the strongest structural effect: "empty" swallows
    everything; "parity_split" means a beta = -1, a != 0 coordinate split
    the problem into even/odd-time subproblems (carried in ``factors``);
    otherwise the set is a product of slices and the reduced problem on
    ``reduced_betas``.  Countable fixed slices (preimages of 0 under a
    beta in (-1,0) coordinate) are flagged via kind "countable_fixed" on
    the factor, with the generating point recorded.
    """

    kind: str
    factors: tuple
    reduced_betas: tuple
    reduced_center: tuple


def degenerate_reduction(betas: Sequence, rate: RateFunction, center: Sequence) -> ReductionOutcome:
    """Case analysis removing coordinates with |beta| <= 1.

    For the beta = +-1 branches the rate must vanish (psi(n) -> 0), else
    RateNotVanishing.  tau = limsup psi(n) |beta|^-n is evaluated in closed
    form for symbolic rates.
    """
    betas = tuple(betas)
    center = tuple(float(a) % 1.0 for a in center)
    if len(center) != len(betas):
        raise ValueError("center dimension mismatch")
    degenerate = [i for i, b in enumerate(betas) if abs(float(b)) <= 1]
    if not degenerate:
        raise ValueError("no degenerate coordinate: nothing to reduce")
    factors = []
    empty = False
    parity = False
    interval = False
    for i in degenerate:
        b = float(betas[i])
        a = center[i]
        factor = _reduce_one(i, b, a, rate)
        factors.append(factor)
        empty = empty or factor.kind == "empty"
        parity = parity or factor.kind == "parity"
        interval = interval or factor.kind in ("interval", "full_circle")
    reduced_betas = tuple(b for i, b in enumerate(betas) if i not in degenerate)
    reduced_center = tuple(a for i, a in enumerate(center) if i not in degenerate)
    if empty:
        kind = "empty"
    elif parity:
        kind = "parity_split"
    elif interval:
        kind = "interval_slice"
    else:
        kind = "fixed_slice"
    return ReductionOutcome(
        kind=kind, factors=tuple(factors),
        reduced_betas=reduced_betas, reduced_center=reduced_center,
    )


def _reduce_one(i: int, b: float, a: float, rate: RateFunction) -> ReductionFactor:
    if b == 0.0:
        if a != 0.0:
            return ReductionFactor(index=i, kind="empty")
        return ReductionFactor(index=i, kind="full_circle", interval=(0.0, 1.0))
    if abs(b) == 1.0 and not rate.vanishes:
        raise RateNotVanishing(
            "the beta = +-1 reduction needs psi(n) -> 0"
        )
    if b == 1.0:
        return ReductionFactor(index=i, kind="fixed", points=(a,))
    if b == -1.0:
        if a == 0.0:
            return ReductionFactor(index=i, kind="fixed", points=(0.0,))
        return ReductionFactor(
            index=i, kind="parity", points=(a, (1.0 - a) % 1.0),
        )
    tau = rate.tau_limsup(abs(b))
    if 0.0 < b < 1.0:
        if a != 0.0:
            return ReductionFactor(index=i, kind="empty", tau=tau)
        if tau == 0.0:
            return ReductionFactor(index=i, kind="fixed", points=(0.0,), tau=tau)
        hi = min(1.0, tau)
        ambiguous = not rate.tau_attained
        return ReductionFactor(index=i, kind="interval", interval=(0.0, hi),
                               closure_ambiguous=ambiguous, tau=tau)
    # -1 < b < 0
    fixed_pt = 1.0 / (1.0 - b)
    if a == 0.0:
        return ReductionFactor(index=i, kind="countable_fixed", points=(0.0,), tau=tau)
    if not _is_same_point(a, fixed_pt, b):
        return ReductionFactor(index=i, kind="empty", tau=tau)
    if tau == 0.0:
        return ReductionFactor(index=i, kind="fixed", points=(fixed_pt,), tau=tau)
    lo = max(0.0, fixed_pt - tau)
    hi = min(1.0, fixed_pt + tau)
    ambiguous = not rate.tau_attained
    return ReductionFactor(index=i, kind="interval", interval=(lo, hi),
                           closure_ambiguous=ambiguous, tau=tau)


def _is_same_point(a: float, fixed_pt: float, b: float) -> bool:
    # floats cannot express 1/(1-b) exactly in general; centers within 1e-12
    # of the fixed point are taken to mean it
    try:
        if Fraction(a) == 1 / (1 - Fraction(b)):
            return True
    except (ValueError, ZeroDivisionError):
        pass
    return abs(a - fixed_pt) < 1e-12


# ---------------------------------------------------------------------------
# covering-cost diagnostic from the upper-bound argument
# ---------------------------------------------------------------------------

def cover_cost_sequence(moduli, rates: Sequence[RateFunction], i: int, s: float,
                        n_lo: int, n_hi: int) -> list[tuple[int, float, float]]:
    """The (n, l_n, h_n) cover-cost sequences over [n_lo, n_hi].

    l_n is the exponent in the cover bound sum exp(-n l_n); h_n is the
    matching critical exponent, so l_n = (s - h_n) * (-log psi_i(n)/n +
    log b_i) identically, and h_n -> theta_i(t) for exponential rates.
    Partial sums of exp(-n l_n) converge for s above the limit and the
    terms blow up for s below it.
    """
    mods = _check_moduli(moduli)
    d = len(mods)
    if len(rates) != d:
        raise ValueError("one rate per modulus")
    logb = [math.log(m) for m in mods]
    out = []
    for n in range(n_lo, n_hi + 1):
        log_psis = [r.log_psi(n) for r in rates]
        den = -log_psis[i] / n + logb[i]
        if den <= 0:
            raise ValueError("shrinking rates must keep -log psi_i(n)/n + log b_i > 0")
        log_n3 = math.log(n + 3.0) / n
        k1 = [k for k in range(d) if -log_n3 + logb[k] > den]
        k2 = [k for k in range(d) if k not in k1 and -log_psis[k] / n + logb[k] <= den]
        k3 = [k for k in range(d) if k not in k1 and k not in k2]
        h = 0.0
        for k in k1:
            h += 1.0 + log_n3 / den
        for k in k2:
            h += 1.0 - (-log_psis[k] / n) / den
        for k in k3:
            h += logb[k] / den
        l = (s - h) * den
        out.append((n, l, h))
    return out
