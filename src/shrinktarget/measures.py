"""Parry (beta > 1) and Yrrap (beta < -1) invariant measures of T_beta.

The density is a step function built from the orbit of 1:

    h_beta(x) = F(beta)^-1 * sum over { n >= 0 : orbit condition at x } of beta^-n

with condition x < T^n(1) for beta > 1 and T^n(1) >= x for beta < -1, and
F(beta) the normalizing integral.  The orbit is ``orbits.snapped_orbit``,
worked at high precision (the map is expanding, so float64 iteration of
the orbit of 1 would drift uselessly), and F(beta) is summed at that
precision too.  The orbit is truncated once the geometric tail
|beta|^-N / (|beta|-1) clears ``TRUNCATION_TOL``.  It is then
turned into one table of cell edges, cell heights and cumulative masses,
so the CDF is piecewise linear and every query is a lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

from .errors import TolUnreachable
from .orbits import beta_float, mp_value, snapped_orbit

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

TRUNCATION_TOL = 1e-12  # bound on the dropped tail of the density series
_MAX_TERMS = 200_000
SUPPORT_TOL = 1e-9  # density below which a cell is off the support
SUPPORT_MERGE_GAP = 1e-6  # support gaps shorter than this are merged


@dataclass(frozen=True)
class SupportSet:
    """Finite union of closed subintervals of [0,1], disjoint and sorted."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for (a, b) in ivs:
            if not (0 <= a <= b <= 1):
                raise ValueError("support intervals must lie in [0,1]")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b:
                raise ValueError("support intervals must be disjoint and sorted")


def series_terms(modulus: float) -> int:
    """Terms N of the density series for |beta| = ``modulus`` > 1: the least
    N >= 2 whose dropped tail, the sum over n >= N of |beta|^-n, which is
    |beta|^-(N-1) / (|beta|-1), clears ``TRUNCATION_TOL``."""
    return max(2, math.ceil(
        math.log(1.0 / (TRUNCATION_TOL * (modulus - 1))) / math.log(modulus)) + 1)


class ParryYrrapMeasure:
    """The absolutely continuous T_beta-invariant probability measure.

    Every query reads one table built from the orbit of 1.  ``edges`` are
    the sorted points 0, 1 and T^n(1); the density is constant on each
    cell [x_k, x_{k+1}) for beta > 1 and (x_k, x_{k+1}] for beta < -1.
    ``heights[k]`` is the density between ``edges[k-1]`` and ``edges[k]``
    (every n with T^n(1) >= edges[k] contributes), where ``heights[0]``
    and ``heights[-1]`` continue the series left of 0 and right of 1.
    ``masses[k]`` is the measure of [0, edges[k]], so the CDF interpolates
    (edges, masses) linearly.
    """

    def __init__(self, beta):
        b = beta_float(beta)
        if abs(b) <= 1:
            raise ValueError("|beta| must be > 1")
        self.beta = b
        absb = abs(b)
        n_terms = series_terms(absb)
        if n_terms > _MAX_TERMS:
            raise TolUnreachable(
                f"tolerance {TRUNCATION_TOL} needs {n_terms} series terms (cap {_MAX_TERMS})"
            )
        points, _, bits = snapped_orbit(beta, n_terms - 1)
        b_mp = mp_value(beta, bits)
        with mpmath.workprec(bits):
            self.normalizer = float(mpmath.fsum(b_mp ** -n * y for n, y in enumerate(points)))
        orbit = np.array([float(y) for y in points])
        self._truncated_exactly = len(orbit) < n_terms or orbit[-1] == 0.0
        self.truncation_order = len(orbit)
        powers = np.array([b ** -float(n) for n in range(len(orbit))])
        self.edges = _sorted_unique(np.concatenate(([0.0, 1.0], orbit)))
        at_edge = np.bincount(np.searchsorted(self.edges, orbit), weights=powers,
                              minlength=len(self.edges))
        # The density is non-negative; a negative suffix sum is truncation error.
        suffix = np.append(np.cumsum(at_edge[::-1])[::-1], 0.0)
        self.heights = np.maximum(suffix / self.normalizer, 0.0)
        self.masses = np.concatenate(([0.0], np.cumsum(self.heights[1:-1] * np.diff(self.edges))))

    @property
    def tail_bound(self) -> float:
        """Geometric bound on the dropped series tail (0 for finite orbits):
        the terms n >= N = ``truncation_order`` sum to at most
        |beta|^-(N-1) / (|beta|-1), as in :func:`series_terms`."""
        if self._truncated_exactly:
            return 0.0
        absb = abs(self.beta)
        return absb ** (1 - self.truncation_order) / (absb - 1.0)

    def density(self, x):
        """h_beta(x), off by at most 2 ``tail_bound`` / ``normalizer``."""
        side = "right" if self.beta > 1 else "left"
        return _float_or_array(self.heights[np.searchsorted(self.edges, x, side)])

    def cdf(self, x):
        """mu_beta([0, x]) for x in [0, 1] (clamped outside), scalar or array."""
        return _float_or_array(np.interp(x, self.edges, self.masses))

    def measure_interval(self, a, b):
        """mu_beta([a, b]) for 0 <= a <= b <= 1, scalars or arrays."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if not (np.all(0 <= a) and np.all(a <= b) and np.all(b <= 1)):
            raise ValueError("need 0 <= a <= b <= 1")
        return _float_or_array(self._between(a, b))

    def arc(self, a, r):
        """mu_beta of the closed arc [a - r, a + r] of the circle; r may be an array."""
        a = np.mod(a, 1.0)
        r = np.asarray(r, dtype=np.float64)
        return _float_or_array(np.where(r >= 0.5, self.masses[-1], self._between(a - r, a + r)))

    def _between(self, x, y):
        """Integral of the 1-periodic density from x to y (x <= y, arrays).

        The periodic CDF is floor(x) * mass + cdf(x mod 1).  It is read cell
        by cell, so that a short interval inside one cell costs no
        cancellation: its measure is the cell height times its length.  The
        cross-cell sum is made only on the rows that need it.
        """
        fx, fy = np.floor(x), np.floor(y)
        x, y = x - fx, y - fy
        # the last edge is 1, so this is the cell index capped at the last cell
        i = np.searchsorted(self.edges[:-1], x, "right")
        j = np.searchsorted(self.edges[:-1], y, "right")
        h, e, m = self.heights, self.edges, self.masses
        out = np.asarray(h[i] * (y - x))
        cross = np.flatnonzero((i != j) | (fx != fy))
        if len(cross):
            i, j, x, y, fx, fy = (np.broadcast_to(v, out.shape).flat[cross]
                                  for v in (i, j, x, y, fx, fy))
            np.put(out, cross, h[i] * (e[i] - x) + (m[j - 1] - m[i] + (fy - fx) * m[-1])
                   + h[j] * (y - e[j - 1]))
        return out

    def envelope(self) -> float:
        """sup of the truncated density (step function, so a finite max)."""
        return float(np.max(self.heights[1:-1]))

    def support(self, tol: float = SUPPORT_TOL) -> SupportSet:
        """Support K(beta): [0,1] for beta in (-inf,-g] u (1,inf).

        For beta in (-g,-1) the support is a finite union of closed
        intervals; it is approximated here as the closure of the truncated
        density's positivity set (threshold ``tol``), merging spurious gaps
        shorter than ``SUPPORT_MERGE_GAP``.  No certified gap count is claimed.
        A negative ``tol`` would count the zero density as positive: refused.
        """
        if not tol >= 0:
            raise ValueError(f"support threshold {tol} must be >= 0")
        b = self.beta
        if b > 1 or b <= -GOLDEN_RATIO + 1e-15:
            return SupportSet(((0.0, 1.0),))
        pieces = [
            (float(self.edges[k]), float(self.edges[k + 1]))
            for k in np.flatnonzero(self.heights[1:-1] > tol)
        ]
        if not pieces:
            raise AssertionError("empty support: truncated density vanished everywhere")
        merged = [list(pieces[0])]
        for a, bb in pieces[1:]:
            if a - merged[-1][1] < SUPPORT_MERGE_GAP:
                merged[-1][1] = bb
            else:
                merged.append([a, bb])
        return SupportSet(tuple((a, bb) for a, bb in merged))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Inverse-CDF sampling from the truncated step density.

        One uniform draw per point; total-variation error is bounded by
        twice the truncation tail.
        """
        return np.interp(rng.random(size) * self.masses[-1], self.masses, self.edges)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a float array with no NaN, without the lazy import of
    numpy.ma that np.unique makes on its first call."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _float_or_array(values):
    """A 0-d result as a Python float; arrays pass through."""
    return float(values) if np.ndim(values) == 0 else values


def _distance_cdf(mu: ParryYrrapMeasure, a: float) -> tuple:
    """(breaks, slopes, intercepts) of u -> mu.arc(a, u) on [0, 1/2], linear between the
    breaks 0, 1/2 and the cell edges folded about a."""
    folded = np.abs(np.mod(mu.edges - a + 0.5, 1.0) - 0.5)
    breaks = _sorted_unique(np.concatenate(([0.0, 0.5], folded)))
    cdf = mu.arc(a, breaks)
    slopes = np.diff(cdf) / np.diff(breaks)
    return breaks, slopes, cdf[:-1] - slopes * breaks[:-1]


def bound_constant(beta) -> float:
    """Two-sided density bound C with C^-1 <= h_beta <= C, for beta <= -g.

    For beta < -g this is beta^2/(beta^2+beta-1).  At beta = -g the density
    takes exactly the two values 1/(3+beta) and -beta/(3+beta), so the tight
    constant is 3+beta.
    """
    b = beta_float(beta)
    if b > -GOLDEN_RATIO + 1e-12:
        raise ValueError("two-sided bound constant applies to beta <= -g")
    if abs(b + GOLDEN_RATIO) <= 1e-12:
        return 3.0 + b
    return b * b / (b * b + b - 1.0)


class ProductMeasure:
    """Product of per-coordinate Parry/Yrrap measures on the d-torus."""

    def __init__(self, betas: Sequence):
        self.factors = tuple(ParryYrrapMeasure(b) for b in betas)

    @property
    def d(self) -> int:
        return len(self.factors)

    def ball(self, center: Sequence, radius):
        """nu of the max-norm ball, wrap-aware; an array of radii gives one nu per radius."""
        return math.prod(mu.arc(a, radius) for mu, a in zip(self.factors, center))

    def hyperboloid(self, center: Sequence, delta):
        """nu of {x : prod ||x_i - a_i|| <= delta}, d <= 2; an array of delta gives one nu each.

        With F_i(u) = arc(a_i, u) and g_k the slope of F_1 on [b_k, b_k+1],
        nu = sum_k g_k delta (A(delta / b_k+1) - A(delta / b_k)), where
        A(w) = int_w^inf F_2(min(v, 1/2)) / v^2 dv is K_j + alpha_j / w - s_j log w
        on the cell of F_2 where F_2 = alpha_j + s_j v (alpha = F_2(1/2), s = 0 past 1/2).
        """
        if self.d == 1:
            return self.ball(center, delta)
        if self.d > 2:
            raise ValueError(f"hyperboloid nu-volumes are exact for d <= 2 only, not d = {self.d}")
        (a1, a2), (mu1, mu2) = center, self.factors
        b, g, _ = _distance_cdf(mu1, a1)
        c, s, alpha = _distance_cdf(mu2, a2)
        s, alpha = np.append(s, 0.0), np.append(alpha, mu2.arc(a2, 0.5))
        # K_j - K_j+1 keeps A continuous at c_j+1, and K = 0 past 1/2
        jumps = np.diff(alpha) / c[1:] - np.diff(s) * np.log(c[1:])
        k = np.append(np.cumsum(jumps[::-1])[::-1], 0.0)
        delta, total = np.asarray(delta, dtype=np.float64), 0.0
        # the sum regrouped by break: g_k - g_k+1 weighs A(delta / b_k+1), and
        # A(delta / 0) = 0; a tiny floor on w keeps delta = 0 at nu = 0
        for weight, bk in zip(g - np.append(g[1:], 0.0), b[1:]):
            w = np.maximum(delta / bk, np.finfo(np.float64).tiny)
            j = np.searchsorted(c, w, "right") - 1
            total += weight * (k[j] + alpha[j] / w - s[j] * np.log(w))
        return _float_or_array(delta * total)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        cols = [mu.sample(rng, size) for mu in self.factors]
        return np.stack(cols, axis=1)
