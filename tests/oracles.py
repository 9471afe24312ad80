"""Test oracles: slow, explicit versions of what the package computes.

Nothing under ``src/`` imports this module, and pytest does not collect
it.  Each oracle is the direct construction a fast path of the package is
checked against:

- the ordered list of order-n cylinders of T_beta, by walking the
  orbit-of-1 automaton (beta > 1) or by refining intervals (either sign
  of beta), against ``cylinders.full_cylinder_stats`` and
  ``count_cylinders``;
- T^n(x) exactly in rationals for integer systems, or as the last
  enclosures of ``orbits.orbit_enclosures``;
- enclosures built from two bounds, and exact membership in them;
- the exact variance of the window count Z_{a,b} = #{a <= n <= b :
  T^n x in E_n}: under Lebesgue starts on integer diagonals, and under
  invariant starts on one beta at a constant radius, against the sample
  variance of ``monte_carlo_counting`` (:func:`variance_z`);
- the Markov build of a rational T_beta^k in Fractions: composition,
  normalization, bisection and trim (:func:`fraction_build_markov`),
  against the integer-keyed build of ``markov.build_markov``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shrinktarget.counting import _exact_series
from shrinktarget.cylinders import BetaAutomaton
from shrinktarget.errors import PieceCapExceeded, SlopeTooSmall
from shrinktarget.markov import MAX_DENSE_ENTRIES, MarkovSubsystem
from shrinktarget.measures import ParryYrrapMeasure
from shrinktarget.orbits import (
    GUARD_BITS,
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    UnitRealInterval,
    as_fraction,
    beta_float,
    orbit_enclosures,
)
from shrinktarget.targets import Shape

# the refinement calls a cylinder full when both image ends sit this close to 0 and 1,
# and drops a piece whose image is at most this many times its slope wide
FULL_DECISION_TOL = 2.0 ** -40


@dataclass(frozen=True)
class Cylinder:
    """Maximal interval [left, right) of linearity of T_beta^n.

    ``image`` is the (lo, hi) interval T_beta^n maps it onto, and ``full``
    says whether that is all of [0, 1).
    """

    beta: float
    word: tuple
    left: float
    right: float
    full: bool
    image: tuple

    @property
    def length(self) -> float:
        return self.right - self.left


def cylinders_of_order(beta, n: int) -> list[Cylinder]:
    """The order-n cylinders covering [0, 1), left to right.

    beta > 1 walks the orbit-of-1 automaton and beta < -1 refines
    intervals; the refinement handles beta > 1 too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b = beta_float(beta)
    if abs(b) <= 1:
        raise ValueError("|beta| must be > 1")
    return cylinders_automaton(beta, n) if b > 1 else cylinders_refine(beta, n)


def cylinders_automaton(beta, n: int) -> list[Cylinder]:
    """Order-n cylinders for beta > 1 from the automaton's paths: state 0
    is full, and a leaf at state j is beta^-n y_j wide."""
    auto = BetaAutomaton(beta, n)
    b = auto.beta
    out: list[Cylinder] = []
    inv_pow = [b ** -(k + 1) for k in range(n)]

    def walk(j: int, depth: int, left: float, word: tuple):
        if depth == n:
            _, _, y = auto.state(j)
            out.append(Cylinder(b, word, left, left + y * b ** -n, full=(j == 0), image=(0.0, y)))
            return
        m, term, _ = auto.state(j)
        for digit in range(m):
            walk(0, depth + 1, left + digit * inv_pow[depth], word + (digit,))
        if not term:
            walk(j + 1, depth + 1, left + m * inv_pow[depth], word + (m,))

    walk(0, 0, 0.0, ())
    return out


def cylinders_refine(beta, n: int) -> list[Cylinder]:
    """Order-n cylinders by direct refinement; works for either sign of beta.

    A piece whose image is at most FULL_DECISION_TOL |slope| wide is a
    float sliver and is dropped: the float error of slope * x + offset
    grows as |beta|^k.
    """
    b = beta_float(beta)
    absb = abs(b)
    num_cells = math.floor(absb) + 1
    # pieces: (left, right, slope, offset) with T^k(x) = slope*x + offset on [left, right)
    pieces = [(0.0, 1.0, 1.0, 0.0, ())]
    for _ in range(n):
        nxt = []
        for (l, r, s, t, word) in pieces:
            u, v = sorted((s * l + t, s * r + t))
            for j in range(num_cells):
                lo = max(u, j / absb)
                hi = min(v, (j + 1) / absb, 1.0)
                if hi - lo <= FULL_DECISION_TOL * abs(s):
                    continue
                if s > 0:
                    xl, xr = (lo - t) / s, (hi - t) / s
                else:
                    xl, xr = (hi - t) / s, (lo - t) / s
                t2 = b * t - j if b > 0 else b * t + j + 1
                nxt.append((xl, xr, b * s, t2, word + (j,)))
        pieces = nxt
    out = []
    for (l, r, s, t, word) in sorted(pieces, key=lambda p: p[0]):
        u, v = sorted((s * l + t, s * r + t))
        full = u <= FULL_DECISION_TOL and v >= 1 - FULL_DECISION_TOL
        out.append(Cylinder(b, word, l, r, full=full, image=(u, v)))
    return out


def iterate(system, x, n: int, precision_bits=None):
    """T^n(x) coordinatewise: exact Fractions for an integer matrix or a
    non-degenerate integer diagonal applied to a rational point, otherwise
    the last enclosures of ``orbit_enclosures``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(x) != system.d:
        raise ValueError("point dimension mismatch")
    if all(isinstance(c, (int, Fraction)) for c in x):
        if isinstance(system, IntegerMatrixSystem):
            pt = [Fraction(c) % 1 for c in x]
            for _ in range(n):
                pt = [sum(m * c for m, c in zip(row, pt)) % 1 for row in system.matrix]
            return tuple(pt)
        if system.is_integer and not system.degenerate:
            pt = []
            for b, c in zip(system.betas, x):
                v = Fraction(c) % 1
                pt.append(Fraction(v.numerator * pow(int(b), n, v.denominator) % v.denominator,
                                   v.denominator))
            return tuple(pt)
    for _, ivs in orbit_enclosures(system, x, n, precision_bits):
        pass
    return ivs


def interval_from_bounds(lo, hi, precision_bits: int = 128) -> UnitRealInterval:
    """The enclosure of the arc from lo to hi (mod 1), rounded outward;
    refused, as ``UnitRealInterval.from_value`` refuses, below GUARD_BITS
    bits or wider than 2^-GUARD_BITS."""
    if precision_bits < GUARD_BITS:
        raise ValueError(f"precision_bits must be >= guard ({GUARD_BITS})")
    flo = as_fraction(lo) % 1
    scale = 1 << precision_bits
    a = math.floor(flo * scale)
    b = a + math.ceil((as_fraction(hi) - flo) % 1 * scale)
    iv = UnitRealInterval(a, b - a, precision_bits)
    if iv.width > Fraction(1, 1 << GUARD_BITS):
        raise ValueError(f"enclosure width exceeds 2^-{GUARD_BITS} at construction")
    return iv


def contains_value(iv: UnitRealInterval, x) -> bool:
    """Exact membership of a scalar in the enclosure (mod 1)."""
    return (as_fraction(x) - iv.lo) % 1 <= iv.width


def covariance_lags(modulus: float) -> int:
    """K, the last lag a second-moment oracle sums: the least k with
    modulus^k > 2^53 (54 for base 2, 34 for base 3, 77 for g).  A
    coordinate's covariance at lag k is at most about modulus^-k, so past
    K it is below float resolution."""
    return math.floor(53 / math.log2(modulus)) + 1


def _hits_below(u, a: float, s):
    """H(u) = int_0^u 1[||v - a|| <= s] dv for any real u: floor(u) whole
    periods of min(1, 2s) each, plus the part of one period below u - floor(u)."""
    whole = np.floor(u)
    w = u - whole
    part = sum(np.clip(np.minimum(w, a + s + j) - np.maximum(0.0, a - s + j), 0.0, None)
               for j in (-1, 0, 1))
    return whole * np.minimum(1.0, 2.0 * s) + np.where(s >= 0.5, w, part)


def _arc_joint(a: float, r, s, base: int, k: int):
    """m{y : ||y - a|| <= r and ||base^k y - a|| <= s} for y in [0, 1):
    base^-k [H(base^k (a + r)) - H(base^k (a - r))], H as in :func:`_hits_below`
    (the first arc is all of [0, 1) once r >= 1/2)."""
    scale = float(base) ** k
    lo = np.where(r >= 0.5, 0.0, a - r) * scale
    hi = np.where(r >= 0.5, 1.0, a + r) * scale
    return (_hits_below(hi, a, s) - _hits_below(lo, a, s)) / scale


def window_variance(system, target, a: int, b: int) -> float:
    """Var Z_{a,b} for x drawn from Lebesgue measure, on a diagonal system
    of integer bases >= 2 and a ball or rectangle about any centre:

        sum_n p_n (1 - p_n) + 2 sum_{k=1}^{K} sum_n (J(n, k) - p_n p_{n+k}),

    n and n + k in [a, b], where p_n = m(E_n) and J(n, k) = m(E_n ∩ T^-k
    E_{n+k}) is the product over coordinates of :func:`_arc_joint`.  K is
    :func:`covariance_lags` of the smallest base (or b - a, if less).
    Each (n, k) costs O(1).
    """
    if not (isinstance(system, DiagonalTorusSystem) and system.is_integer
            and all(beta >= 2 for beta in system.betas)):
        raise ValueError("window_variance needs a diagonal system of integer bases >= 2")
    if target.shape not in (Shape.BALL, Shape.RECTANGLE):
        raise ValueError("window_variance needs a ball or a rectangle")
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    ns = np.arange(a, b + 1)
    radii = [np.broadcast_to(np.asarray(r, dtype=np.float64), ns.shape)
             for r in target.radii(ns)]
    bases = [int(beta) for beta in system.betas]
    coords = list(zip([float(c) for c in target.center], radii, bases))
    p = math.prod(np.minimum(1.0, 2.0 * r) for r in radii)
    var = float(np.sum(p * (1.0 - p)))
    for k in range(1, min(covariance_lags(min(bases)), b - a) + 1):
        joint = math.prod(_arc_joint(c, r[:-k], r[k:], base, k) for c, r, base in coords)
        var += 2.0 * float(np.sum(joint - p[:-k] * p[k:]))
    return var


def stationary_variance(system, target, n_steps: int) -> float:
    """Var Z_{1,N} for x drawn from the invariant measure mu of a
    one-dimensional system, against a ball of constant radius r whose
    arc E = [c - r, c + r] lies in [0, 1]:

        N C(0) + 2 sum_{k=1}^{K} (N - k) C(k),   C(k) = mu(E ∩ T^-k E) - mu(E)^2,

    K = min(N - 1, :func:`covariance_lags` of |beta|).  C(k) is signed:
    mu(E ∩ T^-k E) is read off the exact transfer-operator series.
    """
    if not isinstance(system, DiagonalTorusSystem) or system.d != 1:
        raise ValueError("stationary_variance needs a one-dimensional diagonal system")
    if target.shape != Shape.BALL:
        raise ValueError("stationary_variance needs a ball")
    radii = np.asarray(target.radii(np.arange(1, n_steps + 1))[0], dtype=np.float64)
    r = float(radii[0])
    if np.any(radii != r):
        raise ValueError("stationary_variance needs a constant radius")
    c = float(target.center[0])
    e_set = (c - r, c + r)
    if e_set[0] < 0 or e_set[1] > 1:
        raise ValueError("the target's arc must lie in [0, 1]")
    (beta,) = system.betas
    lags = min(n_steps - 1, covariance_lags(abs(beta_float(beta))))
    joints = _exact_series(beta, ParryYrrapMeasure(beta), e_set, e_set, set(range(lags + 1)))
    mu_e = joints[0][0]
    cov = [joints[k][0] - mu_e * mu_e for k in range(lags + 1)]
    return n_steps * cov[0] + 2.0 * sum((n_steps - k) * cov[k] for k in range(1, lags + 1))


def variance_z(zs: np.ndarray, var: float) -> float:
    """z of the sample variance of ``zs`` against ``var``, with the standard
    error of a sample variance from the sample's fourth central moment."""
    dev = zs - zs.mean()
    m2, m4 = np.mean(dev ** 2), np.mean(dev ** 4)
    return float((np.var(zs, ddof=1) - var) / math.sqrt((m4 - m2 * m2) / len(zs)))


def fraction_beta_map(beta) -> tuple:
    """T_beta(x) = beta x mod 1 for a rational beta, as the Fraction lists
    (breakpoints, slopes, intercepts)."""
    b = Fraction(beta)
    absb = abs(b)
    cells = math.ceil(absb)
    return ([Fraction(j) / absb for j in range(cells)] + [Fraction(1)],
            [b] * cells,
            [Fraction(-j if b > 0 else j + 1) for j in range(cells)])


def fraction_compose(outer: tuple, inner: tuple) -> tuple:
    """outer o inner: inner pieces split where their image crosses an outer
    breakpoint, each new piece's outer piece read at its midpoint."""
    obps, oslopes, ointercepts = outer
    ibps, islopes, iintercepts = inner
    new_bps = set(ibps)
    for j, (s, t) in enumerate(zip(islopes, iintercepts)):
        new_bps.update(x for x in ((c - t) / s for c in obps[1:-1])
                       if ibps[j] < x < ibps[j + 1])
    bps = sorted(new_bps)
    slopes, intercepts = [], []
    for a, b in zip(bps, bps[1:]):
        mid = (a + b) / 2
        j = bisect_right(ibps, mid) - 1
        k = bisect_right(obps, islopes[j] * mid + iintercepts[j]) - 1
        slopes.append(oslopes[k] * islopes[j])
        intercepts.append(oslopes[k] * iintercepts[j] + ointercepts[k])
    return bps, slopes, intercepts


def fraction_power_map(beta, k: int) -> tuple:
    """T_beta^k for a rational beta, composed k - 1 times in Fractions."""
    base = current = fraction_beta_map(beta)
    for _ in range(k - 1):
        current = fraction_compose(base, current)
    return current


def fraction_normalize(pl: tuple) -> tuple:
    """Each piece longer than 2 kappa split into 2^l equal parts, with
    2^l kappa < length <= 2^(l+1) kappa; PieceCapExceeded past the cap."""
    bps, slopes, intercepts = pl
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    kappa = min(lengths)
    splits = []
    for length in lengths:
        pieces = 1
        if length > 2 * kappa:
            l = 1
            while not ((2 ** l) * kappa < length <= (2 ** (l + 1)) * kappa):
                l += 1
            pieces = 2 ** l
        splits.append(pieces)
    m = sum(splits)
    if m * m > MAX_DENSE_ENTRIES:
        raise PieceCapExceeded(
            f"the normalized partition has {m} pieces: its {m}^2 transition entries "
            f"pass the cap of {MAX_DENSE_ENTRIES} "
            f"(at most {math.isqrt(MAX_DENSE_ENTRIES)} pieces)")
    out = [bps[0]], [], []
    for j, (length, pieces) in enumerate(zip(lengths, splits)):
        out[0].extend(bps[j] + p * length / pieces for p in range(1, pieces + 1))
        out[1].extend([slopes[j]] * pieces)
        out[2].extend([intercepts[j]] * pieces)
    return out


def fraction_build_markov(pl: tuple) -> MarkovSubsystem:
    """The Markov subsystem of the Fraction map ``pl``: normalize, bisect
    each image for the run of pieces it contains, and trim each piece to
    the preimage of its run, all in Fractions."""
    b = abs(float(pl[1][0]))
    if b <= 8:
        raise SlopeTooSmall(f"slope modulus {b} <= 8")
    bps, slopes, intercepts = fraction_normalize(pl)
    m = len(slopes)
    rows, pieces = [], []
    for j, (s, t) in enumerate(zip(slopes, intercepts)):
        u, v = sorted((s * bps[j] + t, s * bps[j + 1] + t))
        lo = bisect_left(bps, u, 0, m)
        hi = bisect_right(bps, v, lo + 1, m + 1) - 1
        rows.append((lo, hi))
        pieces.append(tuple(float(x) for x in sorted(((bps[lo] - t) / s, (bps[hi] - t) / s))))
    row_min = min(hi - lo for lo, hi in rows)
    return MarkovSubsystem(
        pieces=tuple(pieces),
        rows=tuple(rows),
        kappa=float(min(b - a for a, b in zip(bps, bps[1:]))),
        slope_modulus=b,
        certificates={
            "row_min": row_min,
            "row_min_guarantee": max(math.floor(b / 2) - 2, 1),
            "entropy_lb": math.log(b / 2 - 3),
            "dim_lb": 1 - math.log(8) / math.log(b),
        },
    )
