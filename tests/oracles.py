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
- enclosures built from two bounds, and exact membership in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from shrinktarget.cylinders import BetaAutomaton
from shrinktarget.orbits import (
    GUARD_BITS,
    IntegerMatrixSystem,
    UnitRealInterval,
    as_fraction,
    beta_float,
    orbit_enclosures,
)

# the refinement calls a cylinder full when both image ends sit this close to 0 and 1
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
    intervals.  The refinement handles beta > 1 too, but float slivers
    survive its cut: it lists 36 golden cylinders at order 7 where there
    are 34, so it serves only small orders there.
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
    """Order-n cylinders by direct refinement; works for either sign of beta."""
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
                if hi - lo <= 1e-15:
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
