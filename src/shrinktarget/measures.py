"""Parry (beta > 1) and Yrrap (beta < -1) invariant measures of T_beta.

The density is a step function built from the orbit of 1:

    h_beta(x) = F(beta)^-1 * sum over { n >= 0 : orbit condition at x } of beta^-n

with condition x < T^n(1) for beta > 1 and T^n(1) >= x for beta < -1, and
F(beta) the normalizing integral.  The orbit cache is computed at high
precision (the map is expanding, so float64 iteration of the orbit of 1
would drift uselessly) and truncated once the geometric tail
|beta|^-N / (|beta|-1) clears the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

from .errors import TolUnreachable
from .orbits import as_fraction, is_symbolic, symbolic_value

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

_MAX_TERMS = 200_000


def _orbit_of_one(beta, n_terms: int) -> tuple[np.ndarray, float]:
    """First n_terms points of T_beta on 1 (starting at 1), plus F(beta).

    Returns float64 orbit values accurate to far below float resolution,
    computed at a precision budget covering the expansion over n_terms
    steps.  The orbit is cut short if it hits an exact fixed point at 0
    (integer beta, golden ratio, ...), which makes the series finite and
    the truncation error exactly zero.
    """
    absb = abs(float(_beta_float(beta)))
    bits = 96 + math.ceil(n_terms * math.log2(absb)) + 32
    with mpmath.workprec(bits):
        if is_symbolic(beta):
            b = symbolic_value(beta, bits)
        else:
            frac = as_fraction(beta)
            b = mpmath.mpf(frac.numerator) / frac.denominator
        snap = mpmath.mpf(2) ** (-(bits // 2))
        orbit = [mpmath.mpf(1)]
        for _ in range(n_terms - 1):
            z = b * orbit[-1]
            f = z - mpmath.floor(z)
            if f < snap:
                f = mpmath.mpf(0)
            elif f > 1 - snap:
                f = mpmath.mpf(0)
            orbit.append(f)
            if f == 0:
                break
        powers = [b ** -n for n in range(len(orbit))]
        normalizer = float(mpmath.fsum(p * o for p, o in zip(powers, orbit)))
        return np.array([float(v) for v in orbit]), normalizer


def _beta_float(beta) -> float:
    if is_symbolic(beta):
        return float(symbolic_value(beta, 53))  # float64's 53 bits
    return float(as_fraction(beta))


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

    @property
    def is_full_interval(self) -> bool:
        return self.intervals == ((0.0, 1.0),)

    @property
    def total_length(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.intervals)


class ParryYrrapMeasure:
    """The absolutely continuous T_beta-invariant probability measure."""

    def __init__(self, beta, tol: float = 1e-12, max_terms: int = _MAX_TERMS):
        b = _beta_float(beta)
        if abs(b) <= 1:
            raise ValueError("|beta| must be > 1")
        self.beta = b
        self._beta_input = beta
        absb = abs(b)
        n_terms = max(2, math.ceil(math.log(1.0 / (tol * (absb - 1))) / math.log(absb)) + 1)
        if n_terms > max_terms:
            raise TolUnreachable(
                f"tolerance {tol} needs {n_terms} series terms (cap {max_terms})"
            )
        orbit, normalizer = _orbit_of_one(beta, n_terms)
        self.orbit_of_one = orbit
        self.normalizer = normalizer
        self._powers = np.array([b ** -float(n) for n in range(len(orbit))])
        self._truncated_exactly = len(orbit) < n_terms or orbit[-1] == 0.0
        self.truncation_order = len(orbit)
        self.tol = tol

    @property
    def tail_bound(self) -> float:
        """Geometric bound on the dropped series tail (0 for finite orbits)."""
        if self._truncated_exactly:
            return 0.0
        absb = abs(self.beta)
        return absb ** -self.truncation_order / (absb - 1.0)

    def _series(self, x) -> np.ndarray:
        """sum of beta^-n over the n selected at x (before normalizing)."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.beta > 1:
            mask = xs[:, None] < self.orbit_of_one[None, :]
        else:
            mask = xs[:, None] <= self.orbit_of_one[None, :]
        return mask @ self._powers

    def density(self, x, tol: Optional[float] = None):
        """h_beta(x), within ``tol`` (default: the construction tolerance)."""
        if tol is not None and tol < self.tail_bound * 2 / self.normalizer:
            raise TolUnreachable(
                f"measure built with truncation tail {self.tail_bound:.2e}; "
                f"rebuild with tol <= {tol}"
            )
        vals = self._series(x) / self.normalizer
        return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals

    def measure_interval(self, a: float, b: float) -> float:
        """mu_beta([a, b]) by exact integration of the truncated step density."""
        if not 0 <= a <= b <= 1:
            raise ValueError("need 0 <= a <= b <= 1")
        overlap = np.clip(self.orbit_of_one, a, b) - a
        return float(self._powers @ overlap) / self.normalizer

    def cdf(self, x: float) -> float:
        return self.measure_interval(0.0, min(max(x, 0.0), 1.0))

    def breakpoints(self) -> np.ndarray:
        """Sorted discontinuity candidates of the truncated density."""
        return np.unique(np.concatenate(([0.0, 1.0], self.orbit_of_one)))

    def envelope(self) -> float:
        """sup of the truncated density (step function, so a finite max)."""
        pts = self.breakpoints()
        mids = (pts[:-1] + pts[1:]) / 2
        return float(np.max(self.density(mids)))

    def support(self, tol: float = 1e-9, merge_gap: float = 1e-6) -> SupportSet:
        """Support K(beta): [0,1] for beta in (-inf,-g] u (1,inf).

        For beta in (-g,-1) the support is a finite union of closed
        intervals; it is approximated here as the closure of the truncated
        density's positivity set (threshold ``tol``), merging spurious gaps
        shorter than ``merge_gap``.  No certified gap count is claimed.
        """
        b = self.beta
        if b > 1 or b <= -GOLDEN_RATIO + 1e-15:
            return SupportSet(((0.0, 1.0),))
        pts = self.breakpoints()
        mids = (pts[:-1] + pts[1:]) / 2
        dens = self.density(mids)
        pieces = [
            (float(pts[i]), float(pts[i + 1]))
            for i in range(len(mids))
            if dens[i] > tol
        ]
        if not pieces:
            raise AssertionError("empty support: truncated density vanished everywhere")
        merged = [list(pieces[0])]
        for a, bb in pieces[1:]:
            if a - merged[-1][1] < merge_gap:
                merged[-1][1] = bb
            else:
                merged.append([a, bb])
        return SupportSet(tuple((a, bb) for a, bb in merged))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Rejection sampling from the truncated step density.

        Acceptance probability is 1/envelope; total-variation error is
        bounded by twice the truncation tail.
        """
        env = self.envelope()
        out = np.empty(size)
        filled = 0
        while filled < size:
            k = max(1024, int((size - filled) * env * 1.2))
            u = rng.random(k)
            v = rng.random(k)
            accept = v * env <= self.density(u)
            got = u[accept]
            take = min(len(got), size - filled)
            out[filled:filled + take] = got[:take]
            filled += take
        return out


def support(beta, tol: float = 1e-9, merge_gap: float = 1e-6) -> SupportSet:
    return ParryYrrapMeasure(beta).support(tol=tol, merge_gap=merge_gap)


def bound_constant(beta) -> float:
    """Two-sided density bound C with C^-1 <= h_beta <= C, for beta <= -g.

    For beta < -g this is beta^2/(beta^2+beta-1).  At beta = -g the density
    takes exactly the two values 1/(3+beta) and -beta/(3+beta), so the tight
    constant is 3+beta.
    """
    b = _beta_float(beta)
    if b > -GOLDEN_RATIO + 1e-12:
        raise ValueError("two-sided bound constant applies to beta <= -g")
    if abs(b + GOLDEN_RATIO) <= 1e-12:
        return 3.0 + b
    return b * b / (b * b + b - 1.0)


class ProductMeasure:
    """Product of per-coordinate Parry/Yrrap measures on the d-torus."""

    def __init__(self, betas: Sequence, tol: float = 1e-12):
        self.factors = tuple(ParryYrrapMeasure(b, tol=tol) for b in betas)

    @property
    def d(self) -> int:
        return len(self.factors)

    @property
    def betas(self) -> tuple:
        return tuple(mu.beta for mu in self.factors)

    def support(self) -> tuple:
        return tuple(mu.support() for mu in self.factors)

    def rectangle(self, rect: Sequence) -> float:
        """nu of a product of intervals [a_i, b_i]."""
        if len(rect) != self.d:
            raise ValueError("rectangle dimension mismatch")
        out = 1.0
        for mu, (a, b) in zip(self.factors, rect):
            out *= mu.measure_interval(a, b)
        return out

    def ball(self, center: Sequence, radius: float) -> float:
        """nu of the max-norm ball, wrap-aware per coordinate."""
        out = 1.0
        for mu, a in zip(self.factors, center):
            out *= _wrapped_interval_measure(mu, a, radius)
        return out

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        cols = [mu.sample(rng, size) for mu in self.factors]
        return np.stack(cols, axis=1)


def _wrapped_interval_measure(mu: ParryYrrapMeasure, a: float, r: float) -> float:
    if r >= 0.5:
        return mu.measure_interval(0.0, 1.0)
    a = a % 1.0
    lo, hi = a - r, a + r
    if lo < 0:
        return mu.measure_interval(0.0, hi) + mu.measure_interval(lo + 1.0, 1.0)
    if hi > 1:
        return mu.measure_interval(0.0, hi - 1.0) + mu.measure_interval(lo, 1.0)
    return mu.measure_interval(lo, hi)
