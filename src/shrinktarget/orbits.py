"""Orbits of torus maps x -> beta*x mod 1 and x -> Mx mod 1.

Orbits are tracked as enclosures with dyadic-rational endpoints
(``num / 2**bits``) and directed rounding, for real multipliers and
integer matrices alike; the one orbit stepper is :func:`orbit_enclosures`.
(Diagonal systems whose betas are integer bases or g are also counted
from digit arrays, in ``counting``.)  The high-precision orbits of single
points, the orbit of 1 that the invariant measures and the cylinder
automaton are built from and the orbits of the exact mixing series, are
:func:`snapped_orbit`.

Every scalar is read once by :func:`scalar`: a float is the dyadic
rational it stores, a decimal string the rational it spells, and the
tokens ``"g"`` and ``"e"`` name the golden ratio and Euler's number, which
resolve to directed high-precision enclosures.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath

from .errors import BudgetTooLarge, PrecisionExhausted, SingularMatrix

GUARD_BITS = 64
WIDTH_TOLERANCE_BITS = 8
_DEFAULT_PRECISION_CAP = 1 << 20
EIGENVALUE_TOL = 1e-12  # error bound on each eigenvalue modulus

Number = Union[int, float, Fraction, str]


def precision_cap() -> int:
    """Configured cap on precision budgets, in bits."""
    env = os.environ.get("SHRINKTARGET_PRECISION_CAP")
    return int(env) if env else _DEFAULT_PRECISION_CAP


def as_fraction(x: Number) -> Fraction:
    """Exact conversion of a scalar to a Fraction.

    Floats convert via their exact binary value; strings parse as decimal
    literals or fractions ("0.7", "9/5").  The tokens "g" and "e" of
    :func:`scalar` are not accepted here because they are not rational.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        frac = Fraction(man, 1) * (Fraction(2) ** exp)
        return -frac if sign else frac
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


_TOKENS = {"g": "g", "golden": "g", "e": "e"}


def scalar(x) -> Union[Fraction, str]:
    """x read once, as an exact Fraction or the signed token "g", "-g", "e", "-e".

    Ints, Fractions and floats (their binary value) are exact, and so is a
    decimal or fraction string ("2.7" is 27/10, "5/2").  The golden ratio
    ("g", "golden") and Euler's number ("e") may be spelled in any case with
    at most one leading sign; surrounding whitespace is ignored.  Anything
    else, nan and infinities included, raises ValueError.
    """
    if isinstance(x, str):
        x = x.strip()
        name = _TOKENS.get((x[1:] if x.startswith(("+", "-")) else x).lower())
        if name is not None:
            return "-" + name if x.startswith("-") else name
    try:
        return as_fraction(x)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"not a real number, g or e: {x!r}") from exc


def mp_value(x: Number, bits: int) -> mpmath.mpf:
    """x at ``bits`` bits: a token's signed value, or a rational rounded once."""
    x = scalar(x)
    with mpmath.workprec(bits):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        val = (1 + mpmath.sqrt(5)) / 2 if x.endswith("g") else +mpmath.e
        return -val if x.startswith("-") else val


def beta_float(x: Number) -> float:
    """x as the nearest float64 (a token at float64's 53 bits)."""
    x = scalar(x)
    return float(x) if isinstance(x, Fraction) else float(mp_value(x, 53))


def snapped_orbit(beta: Number, steps: int, start: Number = 1) -> tuple[list, list, int]:
    """(points, digits, bits): the orbit of ``start`` under x -> beta*x mod 1.

    points[j] = T^j(start) as mpf values (points[0] = start, 1 by default:
    the orbit of 1) and digits[j] = floor(beta * points[j]), for up to
    ``steps`` steps, worked at bits = max(320, 2 (ceil(steps log2|beta|) + 80)).
    A fractional part within 2^-(bits/2) of 0 or 1 snaps to 0 (the digit
    rounding up in the second case), so algebraic coincidences such as the
    golden ratio's 1 = 1/g + 1/g^2 end the orbit exactly.  The orbit stops
    at its first 0, so len(points) = len(digits) + 1.
    """
    bits = max(320, 2 * (math.ceil(steps * math.log2(abs(beta_float(beta)))) + 80))
    b = mp_value(beta, bits)
    with mpmath.workprec(bits):
        snap = mpmath.mpf(2) ** (-(bits // 2))
        points, digits = [mp_value(start, bits)], []
        while len(digits) < steps and points[-1] != 0:
            z = b * points[-1]
            k = int(mpmath.floor(z))
            f = z - k
            if f < snap:
                f = mpmath.mpf(0)
            elif f > 1 - snap:
                k, f = k + 1, mpmath.mpf(0)
            digits.append(k)
            points.append(f)
    return points, digits, bits


def _scalar_bounds(x: Number, bits: int) -> tuple[int, int]:
    """Integer bounds b_lo <= x*2**bits <= b_hi (exact for rationals).

    A token's bounds are (top - 1, top + 2) about top = floor(|x| 2**bits)
    worked at bits + 16, negated for a negative token.
    """
    x = scalar(x)
    if isinstance(x, Fraction):
        scaled = x * (1 << bits)
        lo = math.floor(scaled)
        return lo, lo if scaled == lo else lo + 1
    top = int(mpmath.ldexp(mp_value(x.lstrip("-"), bits + 16), bits))  # exact floor
    return (-top - 2, -top + 1) if x.startswith("-") else (top - 1, top + 2)


class ScaledScalar:
    """Directed integer enclosure lo/2**bits <= value <= hi/2**bits.

    Dyadic inputs (ints, floats) get their minimal exact representation so
    multiplying by them stays a single small-integer product.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: int):
        self.lo = lo
        self.hi = hi
        self.bits = bits

    @classmethod
    def build(cls, value: Number, bits: int) -> "ScaledScalar":
        if isinstance(value, ScaledScalar):
            return value
        x = scalar(value)
        if isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0:
            return cls(x.numerator, x.numerator, x.denominator.bit_length() - 1)
        lo, hi = _scalar_bounds(x, bits)
        return cls(lo, hi, bits)

    def at(self, bits: int) -> tuple[int, int]:
        """Outward bounds rescaled to ``bits`` bits."""
        return _outward(self.lo, self.hi, self.bits - bits)


def _outward(lo: int, hi: int, shift: int) -> tuple[int, int]:
    """(lo, hi) / 2**shift with lo rounded down and hi up; exact for shift <= 0."""
    if shift <= 0:
        return lo << -shift, hi << -shift
    return lo >> shift, -((-hi) >> shift)


class UnitRealInterval:
    """A point of [0,1) tracked by an interval enclosure mod 1.

    Internally ``[start, start+width] / 2**precision_bits`` with the value
    understood modulo one; ``wraps`` flags enclosures that straddle the
    0/1 seam (the flagged two-piece result of a boundary-straddling step).
    """

    __slots__ = ("_start", "_width", "precision_bits")

    def __init__(self, start_num: int, width_num: int, precision_bits: int):
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        if width_num < 0:
            raise ValueError("negative enclosure width")
        scale = 1 << precision_bits
        self._start = start_num % scale
        self._width = width_num
        self.precision_bits = precision_bits

    @classmethod
    def from_value(cls, x: Number, precision_bits: int = 128) -> "UnitRealInterval":
        if precision_bits < GUARD_BITS:
            raise ValueError(f"precision_bits must be >= guard ({GUARD_BITS})")
        lo, hi = _scalar_bounds(x, precision_bits)
        iv = cls(lo, hi - lo, precision_bits)
        if iv.width > Fraction(1, 1 << GUARD_BITS):
            raise ValueError(
                f"enclosure width {float(iv.width):.3e} exceeds 2^-{GUARD_BITS} at construction"
            )
        return iv

    @property
    def lo(self) -> Fraction:
        return Fraction(self._start, 1 << self.precision_bits)

    @property
    def hi(self) -> Fraction:
        scale = 1 << self.precision_bits
        return Fraction((self._start + self._width) % scale, scale)

    @property
    def lo_float(self) -> float:
        return self._start / (1 << self.precision_bits)

    def outward_floats(self) -> tuple[float, float]:
        """(lo, hi) as floats rounded outward, lo down and hi up.

        ``lo_float`` rounds to nearest; these bound the arc.
        """
        scale = 1 << self.precision_bits
        return (_rounded(self._start, scale, up=False),
                _rounded((self._start + self._width) % scale, scale, up=True))

    @property
    def width(self) -> Fraction:
        return Fraction(self._width, 1 << self.precision_bits)

    @property
    def width_float(self) -> float:
        return self._width / (1 << self.precision_bits)

    @property
    def wraps(self) -> bool:
        return self._start + self._width >= (1 << self.precision_bits)

    def rescaled(self, bits: int) -> "UnitRealInterval":
        """Outward-rounded copy at ``bits`` bits of precision."""
        if bits == self.precision_bits:
            return self
        start, end = _outward(self._start, self._start + self._width, self.precision_bits - bits)
        return UnitRealInterval(start, end - start, bits)

    def __repr__(self):
        return (
            f"UnitRealInterval(lo={self.lo_float:.17g}, hi={float(self.hi):.17g}, "
            f"bits={self.precision_bits}{', wraps' if self.wraps else ''})"
        )


def _rounded(num: int, den: int, up: bool) -> float:
    """The float nearest num/den on the given side of it (den > 0)."""
    f = num / den
    p, q = f.as_integer_ratio()
    if (p * den < num * q) if up else (p * den > num * q):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def beta_step(beta: Number, x: UnitRealInterval,
              out_bits: Optional[int] = None) -> UnitRealInterval:
    """One application of x -> beta*x mod 1 on an enclosure.

    frac(y) = y - floor(y) maps into [0,1) for either sign of beta.  A
    result that straddles an integer boundary comes back as a wrapped
    (two-piece) interval with ``wraps=True``.  Only an integer beta is
    continuous across the 0/1 seam: under any other a wrapped enclosure
    has an image in two pieces, near 0 and near frac(beta), so it raises
    PrecisionExhausted.
    """
    p = x.precision_bits
    scaled = ScaledScalar.build(beta, p + 8)
    q = min(scaled.bits, p + 8)
    b_lo, b_hi = scaled.at(q)
    if max(abs(b_lo), abs(b_hi)) <= (1 << q):
        raise ValueError("|beta| must be > 1")
    if x.wraps and not (b_lo == b_hi and b_lo % (1 << q) == 0):
        raise PrecisionExhausted(
            "an enclosure across the 0/1 seam has a two-piece image under a non-integer beta")
    a0 = x._start
    if b_lo == b_hi:
        if x._width == 0:
            m_lo = m_hi = a0 * b_lo
        else:
            p0 = a0 * b_lo
            p1 = (a0 + x._width) * b_lo
            m_lo, m_hi = (p0, p1) if p0 <= p1 else (p1, p0)
    else:
        a1 = a0 + x._width
        prods = (a0 * b_lo, a0 * b_hi, a1 * b_lo, a1 * b_hi)
        m_lo = min(prods)
        m_hi = max(prods)
    total_bits = p + q
    if out_bits is None:
        out_bits = p
    floor_lo = m_lo >> total_bits
    rem = m_lo - (floor_lo << total_bits)
    start, end = _outward(rem, rem + (m_hi - m_lo), total_bits - out_bits)
    width = end - start
    if width >= (1 << out_bits) or width > (1 << max(out_bits - WIDTH_TOLERANCE_BITS, 0)):
        raise PrecisionExhausted(
            f"enclosure width {width / (1 << out_bits):.3e} exceeds 2^-{WIDTH_TOLERANCE_BITS}"
        )
    return UnitRealInterval(start, width, out_bits)


@dataclass(frozen=True)
class DiagonalTorusSystem:
    """diag(beta_1..beta_d) acting on the d-torus coordinatewise."""

    betas: tuple
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(scalar(b) for b in self.betas))
        if not self.betas:
            raise ValueError("empty diagonal")
        if not self.degenerate:
            for b in self.betas:
                if self.modulus_of(b) <= 1:
                    raise ValueError(
                        f"|beta|={float(self.modulus_of(b))} <= 1: use "
                        "DiagonalTorusSystem.with_degenerate for the reduction path"
                    )

    @staticmethod
    def modulus_of(b) -> Union[Fraction, float]:
        """|b|: exact for a rational, a token's float."""
        b = scalar(b)
        return abs(b) if isinstance(b, Fraction) else abs(beta_float(b))

    @classmethod
    def with_degenerate(cls, betas) -> "DiagonalTorusSystem":
        """Constructor admitting |beta_i| <= 1, for the reduction analysis only."""
        return cls(tuple(betas), degenerate=True)

    @property
    def d(self) -> int:
        return len(self.betas)

    @property
    def moduli(self) -> tuple:
        return tuple(float(self.modulus_of(b)) for b in self.betas)

    @property
    def is_integer(self) -> bool:
        return all(isinstance(b, Fraction) and b.denominator == 1 for b in self.betas)


@dataclass(frozen=True)
class IntegerMatrixSystem:
    """Non-singular integer matrix acting on the d-torus, x -> Mx mod 1."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        d = len(rows)
        if not d:
            raise ValueError("empty matrix")
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        if char_poly_int(rows)[-1] == 0:  # +-det
            raise SingularMatrix("matrix determinant is zero")

    @property
    def d(self) -> int:
        return len(self.matrix)

    @property
    def infinity_norm(self) -> int:
        return max(sum(abs(v) for v in row) for row in self.matrix)


def required_precision(system, n_steps: int) -> int:
    """Bits needed so that an orbit never exhausts precision in n steps:
    the start of :func:`orbit_enclosures`' schedule at the fastest
    coordinate, refused past ``precision_cap()``."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return _within_cap(_schedule_bits(max(_growth(system)), n_steps), n_steps)


def _within_cap(bits: int, n_steps: int) -> int:
    """``bits``, or BudgetTooLarge naming the cap and how to raise it."""
    if bits > precision_cap():
        raise BudgetTooLarge(
            f"{bits} bits needed for {n_steps} steps exceeds the precision cap of "
            f"{precision_cap()} bits (set SHRINKTARGET_PRECISION_CAP to raise it)"
        )
    return bits


def _schedule_bits(modulus: float, remaining: int) -> int:
    if modulus <= 1:
        return GUARD_BITS
    return math.ceil(remaining * math.log2(modulus)) + GUARD_BITS


def _growth(system) -> tuple:
    """Each coordinate's expansion per step: |beta_i| on a diagonal, and on
    every coordinate of a matrix its infinity norm, which bounds how fast
    any coordinate's enclosure can widen under Mx mod 1."""
    if isinstance(system, IntegerMatrixSystem):
        return (float(system.infinity_norm),) * system.d
    return system.moduli


def orbit_enclosures(system, x: Sequence, n: int, precision_bits: Optional[int] = None):
    """Coordinatewise enclosures of the orbit x, T(x), ..., T^n(x).

    Yields ``(step, enclosures)`` for step = 0..n, step 0 being x itself.
    Each coordinate, of a diagonal or a matrix system alike, starts at
    ``precision_bits`` or at the bits its n steps need plus guard (refused
    past ``precision_cap()``), and after step j keeps only the bits the
    n-j steps still to come need, so the enclosures end at GUARD_BITS.  A
    matrix's coordinates share its one growth and so one precision.
    PrecisionExhausted carries the last completed step in ``step``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(x) != system.d:
        raise ValueError("point dimension mismatch")
    growth = _growth(system)
    start = [precision_bits or _schedule_bits(g, n) for g in growth]
    if precision_bits is None:
        _within_cap(max(start), n)
    if isinstance(system, IntegerMatrixSystem):
        def advance(ivs, bits):
            return _matrix_step(system.matrix, ivs, bits[0])
    else:
        betas = [ScaledScalar.build(b, bits + 8) for b, bits in zip(system.betas, start)]

        def advance(ivs, bits):
            return tuple(beta_step(b, iv, out_bits=o) for b, iv, o in zip(betas, ivs, bits))
    ivs = tuple(
        c.rescaled(bits) if isinstance(c, UnitRealInterval)
        else UnitRealInterval.from_value(c, bits)
        for c, bits in zip(x, start)
    )
    yield 0, ivs
    for step in range(1, n + 1):
        bits = [min(iv.precision_bits, _schedule_bits(g, n - step)) for iv, g in zip(ivs, growth)]
        try:
            ivs = advance(ivs, bits)
        except PrecisionExhausted as exc:
            exc.step = step - 1
            exc.args = (f"step {step}: {exc}",)
            raise
        yield step, ivs


def _matrix_step(matrix, ivs, out_bits: int) -> tuple:
    """One step of x -> Mx mod 1 on enclosures sharing one precision, each
    row's sums rounded outward to ``out_bits``."""
    shift = ivs[0].precision_bits - out_bits
    tol_width = 1 << max(out_bits - WIDTH_TOLERANCE_BITS, 0)
    out = []
    for i, row in enumerate(matrix):
        lo = 0
        hi = 0
        for m, iv in zip(row, ivs):
            end = iv._start + iv._width
            if m >= 0:
                lo += m * iv._start
                hi += m * end
            else:
                lo += m * end
                hi += m * iv._start
        lo, hi = _outward(lo, hi, shift)
        if hi - lo > tol_width:
            raise PrecisionExhausted(f"coordinate {i} enclosure too wide")
        out.append(UnitRealInterval(lo, hi - lo, out_bits))
    return tuple(out)


def wrap_distance_bounds(lo, width, a):
    """Range (d_min, d_max) of ||x - a|| as x runs over the arc [lo, lo + width].

    ||.|| is the distance to the nearest integer.  The arc is given by its
    width, not by an end reduced mod 1, so an arc past the 0/1 seam needs
    no special case.  The same code serves Fractions, where it is exact,
    and floats, where each bound is off by a few rounding errors that the
    caller must cover with a margin (``targets.MARGIN``).  An arc of
    width >= 1 is the whole circle.
    """
    near = (lo - a) % 1          # the arc, measured from a, is [near, far]
    far = near + width
    d_near = min(near, 1 - near)
    d_far = min(far % 1, 1 - far % 1)
    d_min = near * 0 if far >= 1 else min(d_near, d_far)
    if 2 * near <= 1 <= 2 * far or 2 * far >= 3:    # a + 1/2 or a + 3/2 is on the arc
        return d_min, (near * 0 + 1) / 2
    return d_min, max(d_near, d_far)


def char_poly_int(matrix) -> list[int]:
    """Exact characteristic polynomial coefficients [1, c1, ..., cd]."""
    rows = [[Fraction(int(v)) for v in row] for row in matrix]
    d = len(rows)
    coeffs = [Fraction(1)]
    b = [row[:] for row in rows]
    for k in range(1, d + 1):
        tr = sum(b[i][i] for i in range(d))
        ck = -tr / k
        coeffs.append(ck)
        if k == d:
            break
        for i in range(d):
            b[i][i] += ck
        b = [
            [sum(rows[i][m] * b[m][j] for m in range(d)) for j in range(d)]
            for i in range(d)
        ]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("characteristic polynomial must be integer")
        out.append(int(c))
    return out


def eigenvalue_moduli(system) -> list[float]:
    """Sorted eigenvalue moduli of an integer matrix, error <= EIGENVALUE_TOL.

    Exact integer characteristic polynomial, then high-precision root
    finding with an error estimate; precision is raised until the
    estimate clears EIGENVALUE_TOL.  Rows that are not an
    :class:`IntegerMatrixSystem` are refused as its constructor refuses them.
    """
    if not isinstance(system, IntegerMatrixSystem):
        system = IntegerMatrixSystem(system)
    coeffs = char_poly_int(system.matrix)
    extraprec = 120
    for _ in range(6):
        with mpmath.workprec(53 + extraprec):
            roots, err = mpmath.polyroots(
                coeffs, maxsteps=200, extraprec=extraprec, error=True
            )
            if err < EIGENVALUE_TOL / 10:
                return sorted(float(abs(r)) for r in roots)
        extraprec *= 2
    raise ArithmeticError("root isolation did not reach the requested accuracy")
