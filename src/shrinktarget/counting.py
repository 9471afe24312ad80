"""Empirical verification lab for the quantitative hit-counting law.

R(x, N) = #{1 <= n <= N : T^n(x) in E_n} is tracked with three-valued
membership along exact orbits: definite hits land in R_lo, boundary-
ambiguous ones only in R_hi, and the normalized error

    e(N) = (R_mid - Phi(N)) / (Phi(N)^(1/2) (log Phi(N))^(3/2+eps))

is reported at checkpoints (defined once Phi(N) > e).  Phi(N) = sum mu(E_n)
is summed over the system's :func:`invariant_measure` mu, and a random
start is drawn from Lebesgue measure (``start="lebesgue"``) or from mu
itself (``start="invariant"``).

Engine dispatch: :func:`_digit_systems` is the one place that says which
counts run on digits: a diagonal system whose every beta is an integer
2 <= b <= 128 or the golden ratio g, from a random start or (all-integer
systems only) a given rational point.  A sample's digits are one
:class:`DigitSource`, each coordinate one stream of digit batches read
only as far as a run needs, so a longer run extends a shorter one: a
given point's long division, or the draws of a random start's generator,
spawned from (seed, s, i) for coordinate i of sample s.  An integer
coordinate draws i.i.d. base-b digits from a byte table (with b^k <= 256
the largest such power, each raw byte below the largest multiple of b^k
is k digits), a golden one its greedy digits from the two-state chain of
the orbit of 1 (Renyi 1957, Parry 1960).  The ladder reads
the source and never sees a base: ~10-bit digit ``words``, int16 keys
into one ``word_table`` of distance bounds per digit system and centre,
read in cache-sized chunks of steps one coordinate at a time (a ball or
rectangle reads a coordinate only at the steps the earlier ones leave
open) against bounds of the radii over runs of RADIUS_RUN steps, which
decide all but a few hundred of 10^6 steps; then a ~42-bit float
``window`` for those against their own radii; and for the rare steps
still open, exact ``brackets`` from digit prefixes (exact integers for
b, Z[g] for g), which read on into the stream as deep as they go, up to
a reserve of 2N + W + 96 digits.  This is what makes N = 10^6 runs
cheap.  A count walks the steps in blocks of BLOCK_CHUNKS coarse chunks,
all the samples of a worker's batch together: a block's radius bounds
are evaluated once for the batch, psi at two steps per run, and a
sample's source, from a random start or a given point, holds that
block's digits and W digits of lookahead alone, so memory does not grow
with N.  Everything else (e, other reals, negative beta, integer bases
above 128, given enclosures, given points on non-integer systems,
integer matrices) runs on the interval engine.

Determinism: every sample derives its own generator from
(seed, sample_id), and each digit coordinate i one from
(seed, sample_id, i), so results are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AmbiguityBudgetExceeded, DegenerateF, PieceCapExceeded, PrecisionExhausted,
    StartLawUnsupported,
)
# preimage_intervals is not called here: perfbench/layertrace.py looks it up on this module
from .cylinders import MAX_EXPLICIT, preimage_intervals
from .measures import (
    GOLDEN_RATIO, ParryYrrapMeasure, ProductMeasure, _sorted_unique, series_terms,
)
from .orbits import (
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    _scalar_bounds,
    as_fraction,
    beta_float,
    beta_step,  # not called here: perfbench/layertrace.py looks it up on this module
    orbit_enclosures,
    required_precision,
    snapped_orbit,
    wrap_distance_bounds,
)
from .targets import (
    MARGIN, Containment, Shape, TargetSpec, contains, exact_verdict, phi_values, verdict,
)

DEFAULT_EPSILON = 0.5
# largest share of a sample's R_hi that may be boundary-ambiguous
AMBIGUITY_BUDGET = 1e-3
MIN_MU_F = 1e-6
KAPPA_LAGS = 30
# Bits of T^n x in the digit engine's two windows.  The coarse window is a
# digit word S < b^k <= 2^15, k = ceil(COARSE_BITS / log2 beta) digits, read
# at every step through one table of its distance bounds; the fine window,
# a float of FINE_BITS, is read only at the steps the coarse one leaves open.
COARSE_BITS = 10
FINE_BITS = 42
# Steps per coarse pass: its int16 words and float distances stay in cache.
COARSE_CHUNK = 1 << 15
# Steps per run of radius bounds: the coarse stage compares against a lower
# and an upper bound of each radius over a run, not against psi at each step.
RADIUS_RUN = 1 << 10
# Steps per piece of an index gather: its (steps, window) digit rows stay small.
GATHER_PIECE = 1 << 12
# Coarse chunks per block: a worker walks its samples through the steps a
# block at a time, so it holds one block's digits and hits for any N
# (2^19 steps: a few MB, while the fine stage's fixed cost per block stays
# small against a sample).
BLOCK_CHUNKS = 16
# Digits are int8, so the digit engine takes integer bases up to 128.
MAX_DIGIT_BASE = 128
# Word tables a process keeps, the last used: a count reads one per
# coordinate, each at most 2^15 float64s, whatever centres came before.
WORD_TABLES = 16


@dataclass(frozen=True)
class CheckpointRow:
    n: int
    r_lo: int
    r_hi: int
    phi: float
    e: Optional[float]

    @property
    def r_mid(self) -> float:
        return (self.r_lo + self.r_hi) / 2.0


@dataclass(frozen=True)
class CountingResult:
    sample_id: int
    checkpoints: tuple
    ambiguous_hits: int
    epsilon: float

    @property
    def final(self) -> CheckpointRow:
        return self.checkpoints[-1]

    def ambiguity_ok(self) -> bool:
        return self.ambiguous_hits <= max(AMBIGUITY_BUDGET * self.final.r_hi, 0.0)


@dataclass(frozen=True)
class CountingSummary:
    """Aggregate of a seeded multi-sample counting run."""

    results: tuple
    phi_final: float
    fraction_in_band: float
    band_tol: float
    max_abs_e: float
    seed: int


def _error_term(r_mid: float, phi: float, epsilon: float) -> Optional[float]:
    if phi <= math.e:
        return None
    return (r_mid - phi) / (math.sqrt(phi) * math.log(phi) ** (1.5 + epsilon))


def _digit_window(base, bits: int = FINE_BITS) -> int:
    return math.ceil(bits / math.log2(base))


def invariant_measure(system) -> Optional[ProductMeasure]:
    """The T-invariant measure mu that Phi = sum mu(E_n) is summed over.

    None (Lebesgue) for integer matrices and all-integer diagonals, else
    the product of the Parry/Yrrap measures of the betas.  The counting
    law holds for mu-almost every start, so Phi is the same whatever law
    the starts are drawn from.
    """
    if isinstance(system, IntegerMatrixSystem):
        return None
    if system.degenerate:
        raise ValueError(
            "counting requires every |beta_i| > 1; peel the |beta| <= 1 "
            "coordinates off with the degenerate reduction first"
        )
    return None if system.is_integer else ProductMeasure(system.betas)


def _combine_pairwise(parts: list, scale, mul, add):
    """sum_j parts[j] scale^(m-1-j) over the m >= 1 parts, in the ring of
    ``mul`` and ``add``.

    Neighbouring parts merge, halving their number each round (an odd
    leading part waits a round), so the big-integer work is a few
    products of balanced size.
    """
    while len(parts) > 1:
        head = parts[:len(parts) % 2]
        rest = parts[len(head):]
        parts = head + [add(mul(hi, scale), lo) for hi, lo in zip(rest[::2], rest[1::2])]
        scale = mul(scale, scale)
    return parts[0]


def _digits_to_int(digits: np.ndarray, base: int) -> int:
    """The integer whose base-b digits, most significant first, are ``digits``.

    Blocks of digits become int64 words (below 2^62, so exact), which
    :func:`_combine_pairwise` joins.
    """
    if not len(digits):
        return 0
    block = max(1, int(62 // math.log2(base)))
    padded = np.concatenate([np.zeros(-len(digits) % block, dtype=np.int64), digits])
    powers = base ** np.arange(block - 1, -1, -1, dtype=np.int64)
    parts = [int(v) for v in padded.reshape(-1, block) @ powers]
    return _combine_pairwise(parts, base ** block, operator.mul, operator.add)


def _zg_mul(x: tuple, y: tuple) -> tuple:
    """(a + b g)(c + d g) in Z[g], as pairs (a, b), using g^2 = g + 1."""
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c + bd, a * d + b * c + bd


def _fib_pair(n: int) -> tuple:
    """(F_n, F_n+1) by fast doubling."""
    f, f1 = 0, 1
    for bit in bin(n)[2:]:
        f, f1 = f * (2 * f1 - f), f * f + f1 * f1
        if bit == "1":
            f, f1 = f1, f + f1
    return f, f1


def _zg_add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def _golden_int(digits: np.ndarray) -> tuple:
    """(a, b) with sum_j digits[j] g^(k-1-j) = a + b g, k = len(digits).

    As :func:`_digits_to_int`: blocks of 64 digits become int64 pairs from
    g^e = F_(e-1) + F_e g (F_-1 = 1), which :func:`_combine_pairwise` joins.
    """
    if not len(digits):
        return 0, 0
    block = 64
    fib = [1, 0]                                  # fib[j] = F_(j-1)
    while len(fib) < block + 2:
        fib.append(fib[-1] + fib[-2])
    fib = np.array(fib, dtype=np.int64)
    padded = np.concatenate([np.zeros(-len(digits) % block, dtype=np.int64), digits])
    rows = padded.reshape(-1, block)
    parts = [(int(a), int(b)) for a, b in
             zip(rows @ fib[block - 1::-1], rows @ fib[block:0:-1])]
    scale = (int(fib[block]), int(fib[block + 1]))  # g^block
    return _combine_pairwise(parts, scale, _zg_mul, _zg_add)


@lru_cache(maxsize=None)
def _byte_digits(base: int) -> tuple[int, np.ndarray]:
    """(limit, table) of the byte-table draw of base-b digits.

    With b^k <= 256 the largest such power, a byte v below limit, the
    largest multiple of b^k up to 256, stands for the k base-b digits of
    v mod b^k, most significant first, in row v of the (256, k) ``table``
    (rows from limit on are never read).  Each of the b^k digit words has
    limit / b^k bytes, so a uniform byte below limit is k i.i.d. uniform
    digits: 8 per byte for b = 2, 5 per kept byte for b = 3.
    """
    k = 1
    while base ** (k + 1) <= 256:
        k += 1
    m = base ** k
    words = np.arange(256)[:, None] % m
    table = (words // base ** np.arange(k - 1, -1, -1) % base).astype(np.int8)
    table.flags.writeable = False
    return m * (256 // m), table


@dataclass(frozen=True)
class IntegerDigits:
    """Base-b digits, 2 <= b <= MAX_DIGIT_BASE: i.i.d. uniform for Lebesgue x."""

    beta: int

    @property
    def radix(self) -> int:
        """The digits' count, the radix of their :func:`_words`."""
        return self.beta

    def draws(self, rng: np.random.Generator):
        """A random start's digits from ``rng``, in batches: the lead (none),
        then about each count sent, from the bytes below the limit of
        :func:`_byte_digits`, read in whole 4-byte words so that the
        batches tile one byte stream."""
        limit, table = _byte_digits(self.beta)
        count = yield np.empty(0, dtype=np.int8)
        while True:
            n_bytes = -(-count // table.shape[1]) * 256 / limit
            # three standard deviations of the kept count to spare: one batch all but always does
            raw = np.frombuffer(rng.bytes(4 * math.ceil((n_bytes + 3 * math.sqrt(n_bytes)) / 4)),
                                dtype=np.uint8)
            count = yield np.take(table, raw[raw < limit].astype(np.intp), axis=0).reshape(-1)

    def bracket(self, digits: np.ndarray) -> tuple:
        """(lo, width), Fractions: the point whose leading digits are ``digits``
        lies in [lo, lo + width] (the tail adds [0, b^-k) for k digits)."""
        scale = self.beta ** len(digits)
        return Fraction(_digits_to_int(digits, self.beta), scale), Fraction(1, scale)

    def expansion(self, x: Fraction):
        """The base-b digits of x in [0, 1) in batches, as :meth:`draws` yields
        them: long division by int64 blocks, its remainder carried on."""
        base = self.beta
        p, q = (x % 1).as_integer_ratio()
        block = max(1, int(62 // math.log2(base)))
        scale = base ** block
        powers = base ** np.arange(block - 1, -1, -1, dtype=np.int64)
        count = yield np.empty(0, dtype=np.int8)
        while True:
            blocks = []
            for _ in range(-(-count // block)):
                v, p = divmod(p * scale, q)
                blocks.append(v)
            digits = np.array(blocks, dtype=np.int64)[:, None] // powers % base
            count = yield digits.astype(np.int8).reshape(-1)


@dataclass(frozen=True)
class GoldenDigits:
    """Greedy g-digits, drawn from the two-state chain of the orbit of 1.

    From state 0 (T^n x uniform on [0, 1)) the digits are i.i.d. words "0",
    with probability 1/g, and "10", with probability 1/g^2: after a 1, T^n x
    is uniform on [0, 1/g), state 1, whose next digit is a forced 0 that
    returns to state 0.  A start in state 1, drawn with probability
    ``state1_weight`` (none drawn when it is 0, a Lebesgue start), emits that
    forced 0 first.  The Parry density is a mixture, over the orbit points t
    of 1, of uniform laws on [0, t).  Every part but t = 1 (state 0) lies in
    [0, 1/g) (state 1), so the density on [1/g, 1), read at its middle g/2,
    is the weight of state 0, and ``state1_weight`` is 1 minus it:
    g^-2 / (1 + g^-2) for the golden Parry measure.
    """

    state1_weight: float = 0.0
    beta = GOLDEN_RATIO
    radix = 2

    def draws(self, rng: np.random.Generator):
        """:meth:`IntegerDigits.draws` for g: the lead is a state-1 start's
        forced 0, then each batch is whole words from state 0, one uniform
        per word (a "10" word at the end of a batch ends it)."""
        count = yield np.zeros(int(self.state1_weight > 0 and rng.random() < self.state1_weight),
                               dtype=np.int8)
        while True:
            words = math.ceil(count / (1 + GOLDEN_RATIO ** -2) + math.sqrt(count))
            tens = np.flatnonzero(rng.random(words) < GOLDEN_RATIO ** -2)
            digits = np.zeros(words + len(tens), dtype=np.int8)
            # the j-th "10" word, word i, starts after i words of which j are two digits long
            digits[tens + np.arange(len(tens))] = 1
            count = yield digits

    def bracket(self, digits: np.ndarray) -> tuple:
        """:meth:`IntegerDigits.bracket` for base g.

        S = sum_j digits[j] g^-(j+1) is exact in Z[g] as (a + b g) g^-k, with
        g^-k = (-1)^k (F_k+1 - F_k g).  S and S + g^-k are bracketed with g in
        [g_lo, g_hi] / 2^p from :func:`orbits._scalar_bounds`, for p large
        enough to swamp their g-coefficients, and then rounded outward to a
        grid about 2^-64 of g^-k fine.
        """
        k = len(digits)
        fk, fk1 = _fib_pair(k)
        sign = -1 if k % 2 else 1
        step = (sign * fk1, -sign * fk)               # g^-k
        lo = _zg_mul(_golden_int(digits), step)
        hi = (lo[0] + step[0], lo[1] + step[1])
        grid = k * 7 // 10 + 64                       # 0.7 k > k log2(g) bits
        p = max(abs(lo[1]), abs(hi[1])).bit_length() + grid
        g_lo, g_hi = _scalar_bounds("g", p)
        lo_num = ((lo[0] << p) + lo[1] * (g_lo if lo[1] >= 0 else g_hi)) >> (p - grid)
        hi_num = -((-((hi[0] << p) + hi[1] * (g_hi if hi[1] >= 0 else g_lo))) >> (p - grid))
        return Fraction(lo_num, 1 << grid), Fraction(hi_num - lo_num, 1 << grid)


def _digit_systems(system, measure, x) -> Optional[list]:
    """Each coordinate's digit system for the start ``x`` (None: drawn from
    ``measure``, None for Lebesgue), or None where the digit engine does
    not apply.

    The one place that says which counts run on digits: every beta an
    integer 2 <= b <= MAX_DIGIT_BASE or the token "g", from a random start
    or, on an all-integer system, a given rational point.  A system reads
    x as sum_k d_k beta^-k, so T^n x is its stream from index n on.  It
    has a ``beta`` and the ``radix`` of its digits, the ``bracket`` of a
    prefix and the stream of digit batches of a start: the ``draws`` of a
    random one and (integers only) the ``expansion`` of a given x.
    """
    if not isinstance(system, DiagonalTorusSystem) or system.degenerate:
        return None
    if x is not None and not all(isinstance(v, (int, float, Fraction)) for v in x):
        return None
    systems = []
    for i, b in enumerate(system.betas):
        if b == "g" and x is None:
            systems.append(GoldenDigits(
                0.0 if measure is None else 1.0 - measure.factors[i].density(GOLDEN_RATIO / 2)))
        elif b in range(2, MAX_DIGIT_BASE + 1):
            systems.append(IntegerDigits(int(b)))
        else:
            return None
    return systems


def _words(digits: np.ndarray, radix: int, k: int, count: int) -> np.ndarray:
    """int16 words S[j] = sum_l digits[j + l] radix^(k-1-l) over l < k, j < count.

    Each pass doubles the word length by one shift-add, and the lengths of
    k's binary expansion join, leading digits first: a few int16 passes
    over the steps for any k.  Every word is below radix^k <= 2^15.
    """
    total = count + k - 1
    part = digits[:total].astype(np.int16)        # the words of ``length`` digits
    words, have, length = None, 0, 1
    while True:
        if k & length:
            tail = part[have:total - length + 1]
            words = tail if words is None else words[:len(tail)] * radix ** length + tail
            have += length
        if 2 * length > k:
            return words
        part = part[:-length] * radix ** length + part[length:]
        length *= 2


def _word_values(radix: int, beta: float, k: int) -> np.ndarray:
    """values[S] = sum_l s_l beta^-(l+1) for every k-digit word S of
    :func:`_words`, s_l its digits: the left end of S's cylinder.

    Built as :func:`_words` joins digits: a word of m + n digits is one of
    m followed by one of n, so its values are an outer sum of theirs.
    """
    part = np.arange(radix) / beta
    values, have, length = None, 0, 1
    while True:
        if k & length:
            values = part if values is None else np.add.outer(values, beta ** -have * part).ravel()
            have += length
        if 2 * length > k:
            return values
        part = np.add.outer(part, beta ** -length * part).ravel()
        length *= 2


@lru_cache(maxsize=WORD_TABLES)
def _word_table(system, bits: int, center: float) -> tuple:
    """(dist, band): dist[S] = ||v_S - center|| for every ``bits``-bit word
    S of the digit ``system``, v_S the left end of its cylinder, which
    spans beta^-k.  So every point of the cylinder lies at a wrap distance
    in [max(dist[S] - band, 0), dist[S] + band] from ``center``, with band
    = beta^-k + MARGIN for the float rounding.  The last WORD_TABLES are kept.
    """
    k = _digit_window(system.beta, bits)
    dist = _word_values(system.radix, float(system.beta), k)
    dist -= center
    # mod 1 (a golden key with two 1s in a row, no greedy word, may pass 1);
    # floor is far cheaper than np.mod on a cold 2^15-entry table
    dist -= np.floor(dist)
    np.minimum(dist, 1.0 - dist, out=dist)
    dist.flags.writeable = False
    return dist, float(system.beta) ** -k + MARGIN


def _gathered(digits: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_l digits[j + l] weights[l] at each j of ``idx``.

    One sliding-window gather of len(weights) digits per step, GATHER_PIECE
    steps at a time, so memory stays O(len(idx)) for any window.
    """
    rows = np.lib.stride_tricks.sliding_window_view(digits, len(weights))
    out = np.empty(len(idx))
    for at in range(0, len(idx), GATHER_PIECE):
        out[at:at + GATHER_PIECE] = rows[idx[at:at + GATHER_PIECE]] @ weights
    return out


class DigitSource:
    """One sample's digits, every coordinate a fixed sequence read as a
    sliding window: all the digit engine's ladder reads.

    ``digits[i]`` holds coordinate i's digits from index ``offset`` on, as
    far as they have been read, from the generator of digit batches
    ``streams[i]``: a given point's ``expansion`` or a random start's
    ``draws`` (for sample s of a seeded run, from (seed, s, i)).  The first
    batch, the lead, is taken at once, and each next one is sent the count
    a read still needs.  A batch's digits past a read wait for the next
    one (so does the 0 of a golden "10" word that straddles it), so the
    digits do not depend on how they are read, and a longer run extends a
    shorter one.  ``hold`` draws one block of steps' digits and their W
    digits of lookahead, and ``forget`` drops the block once the ladder is
    done with it, so a source holds at most a block of digits whatever N.
    """

    def __init__(self, systems: list, n_steps: int, streams: list):
        self.systems, self._streams, self.offset = systems, streams, 0
        # 2N + W + 96: the most digits of a coordinate the exact stage reads
        self._reserves = [2 * n_steps + _digit_window(ds.beta) + 96 for ds in systems]
        self.digits = [np.empty(0, dtype=np.int8) for _ in systems]
        self._left = [next(stream) for stream in streams]

    def read(self, i: int, total: int) -> np.ndarray:
        """Coordinate i's digits from index ``offset`` to index ``total`` or further."""
        have = self.digits[i]
        count = total - self.offset - len(have)
        if count <= 0:
            return have
        out = self._left[i]
        while len(out) < count:
            more = self._streams[i].send(count - len(out))
            out = np.concatenate([out, more]) if len(out) else more
        self._left[i] = out[count:].copy()
        self.digits[i] = np.concatenate([have, out[:count]]) if len(have) else out[:count]
        return self.digits[i]

    def forget(self, start: int) -> None:
        """Drop every coordinate's digits before index ``start``, drawing
        them first where no read reached them (a stream skips no digit)."""
        cut = start - self.offset
        self.digits = [self.read(i, start)[cut:].copy() for i in range(len(self.systems))]
        self.offset = start

    def hold(self, stop: int) -> None:
        """Draw every coordinate on to index stop + W, past the FINE_BITS
        window of step ``stop``: a block's windows then find their digits
        drawn, in one batch per block rather than one per chunk."""
        for i, ds in enumerate(self.systems):
            self.read(i, stop + _digit_window(ds.beta))

    def words(self, i: int, bits: int, steps: slice) -> np.ndarray:
        """Coordinate i's ``bits``-bit digit words (:func:`_words`) at the
        steps n - 1 in ``steps``: T^n x_i lies in the cylinder of its word,
        whose distance bounds :meth:`word_table` holds."""
        ds = self.systems[i]
        k = _digit_window(ds.beta, bits)
        digits = self.read(i, steps.stop + k)
        return _words(digits[steps.start + 1 - self.offset:], ds.radix, k,
                      steps.stop - steps.start)

    def word_table(self, i: int, bits: int, center: float) -> tuple:
        """(dist, band) of coordinate i's ``bits``-bit words about
        ``center`` (:func:`_word_table`)."""
        return _word_table(self.systems[i], bits, center)

    def window(self, i: int, bits: int, idx: np.ndarray) -> tuple:
        """(values, band) of a float window of about ``bits`` bits at the
        steps n - 1 in the sorted non-empty index array ``idx``
        (:func:`_gathered`): T^n x_i in [v, v + band] up to rounding."""
        beta = float(self.systems[i].beta)
        window = _digit_window(beta, bits)
        digits = self.read(i, int(idx[-1]) + 1 + window)
        values = _gathered(digits, idx + 1 - self.offset, beta ** -np.arange(1.0, window + 1))
        return values, beta ** -window

    def brackets(self, n: int):
        """Each coordinate's exact (lo, width), T^n x_i in [lo, lo + width],
        from its digits past index n: from 16 digits, then four times as
        many each time, each drawn when first read, the last from every
        digit up to the reserve."""
        k, at = 16, n - self.offset
        while True:
            yield [ds.bracket(self.read(i, min(n + k, total))[at:at + k])
                   for i, (ds, total) in enumerate(zip(self.systems, self._reserves))]
            if all(k >= total - n for total in self._reserves):
                return
            k *= 4


def _per_step(per_run: np.ndarray, at: slice) -> np.ndarray:
    """The value of each run of RADIUS_RUN steps at each block step in ``at``."""
    first = at.start // RADIUS_RUN
    steps = np.repeat(per_run[first:(at.stop - 1) // RADIUS_RUN + 1], RADIUS_RUN)
    return steps[at.start - first * RADIUS_RUN:at.stop - first * RADIUS_RUN]


def _digit_membership(source: DigitSource, target: TargetSpec, steps: slice,
                      radius_bounds):
    """(hit_lo, hit_hi) boolean arrays for the block of steps n - 1 in
    ``steps``, decided coarse to fine; ``radius_bounds`` are
    ``target.radius_bounds`` over the block's runs of RADIUS_RUN steps.

    Every stage reads the :class:`DigitSource` alone.  The coarse stage
    reads T^n x_i as a COARSE_BITS digit ``words`` S, whose ``word_table``
    puts ||T^n x_i - a_i|| within band of dist[S]: one table lookup per
    step, compared with the lower bound of the radius over the step's run
    for "surely in" and with the upper one for "maybe in".  It runs
    COARSE_CHUNK steps at a time: a ball or rectangle is an AND over
    coordinates, so coordinate 0 is looked up at every step and each next
    one only where the earlier ones leave the step open (a hyperboloid
    reads every coordinate).  Then a FINE_BITS float ``window`` re-reads the
    block's steps still open against their radii, ``target.radii`` there,
    and the exact stage takes what is left from the source's ``brackets``,
    which read on into later digits of the same streams.  Each stage is
    sound, so the ladder decides exactly what the exact stage alone would.
    """
    first, size = steps.start, steps.stop - steps.start
    centers = [float(a) for a in target.center]
    tables = [source.word_table(i, COARSE_BITS, a) for i, a in enumerate(centers)]

    def dists(i, at, idx=slice(None)):
        """coordinate i's word distances at the block's steps ``at``, a
        slice, or at the steps ``idx`` counted from its start"""
        words = source.words(i, COARSE_BITS, slice(first + at.start, first + at.stop))
        return np.take(tables[i][0], words[idx])

    hit_lo, hit_hi = np.empty((2, size), dtype=bool)
    if target.shape == Shape.HYPERBOLOID:
        (lower, upper), = radius_bounds
        for start in range(0, size, COARSE_CHUNK):
            at = slice(start, min(start + COARSE_CHUNK, size))
            near = [(dists(i, at), band) for i, (_, band) in enumerate(tables)]
            hit_lo[at] = math.prod(d + band for d, band in near) <= _per_step(lower, at)
            hit_hi[at] = (math.prod(np.maximum(d - band, 0.0) for d, band in near)
                          <= _per_step(upper, at))
    else:
        # coordinate i is surely in where dist <= lower - band, maybe in
        # where dist <= upper + band
        limits = [(lower - band, upper + band)
                  for (lower, upper), (_, band) in zip(radius_bounds, tables)]
        for start in range(0, size, COARSE_CHUNK):
            at = slice(start, min(start + COARSE_CHUNK, size))
            dist = dists(0, at)
            surely, maybe = (dist <= _per_step(limit, at) for limit in limits[0])
            for i in range(1, target.d):
                idx = np.flatnonzero(maybe)
                if not len(idx):
                    break
                dist, runs = dists(i, at, idx), (idx + start) // RADIUS_RUN
                surely[idx] &= dist <= limits[i][0][runs]
                maybe[idx] = dist <= limits[i][1][runs]   # maybe[idx] is all True
            hit_lo[at], hit_hi[at] = surely, maybe
    idx = np.flatnonzero(hit_hi & ~hit_lo)
    if len(idx):
        lows, highs = [], []
        for i, a in enumerate(centers):
            dist, band = source.window(i, FINE_BITS, first + idx)
            dist -= a
            np.abs(dist, out=dist)
            np.minimum(dist, 1.0 - dist, out=dist)
            band += MARGIN
            lows.append(np.maximum(dist - band, 0.0))
            highs.append(dist + band)
        hit_lo[idx], hit_hi[idx] = verdict(target.shape, lows, highs, target.radii(
            (first + 1 + idx).astype(np.float64)))
    for i in np.flatnonzero(hit_hi & ~hit_lo):
        n = first + int(i) + 1
        for brackets in source.brackets(n):
            bounds = [wrap_distance_bounds(lo, width, a)
                      for (lo, width), a in zip(brackets, target.center)]
            surely, maybe = exact_verdict(target, n, bounds)
            if surely or not maybe:
                hit_lo[i], hit_hi[i] = surely, maybe
                break
    return hit_lo, hit_hi


def _interval_membership(system, target, x, hit_lo, hit_hi) -> None:
    """Fill (hit_lo, hit_hi)[n-1] for n = 1..N along the interval engine's
    orbit of the start ``x``, step by step, so a PrecisionExhausted at a
    step leaves every step before it filled."""
    orbit = orbit_enclosures(system, x, len(hit_lo))
    next(orbit)  # step 0 is x itself
    for n, ivs in orbit:
        verdict = contains(target, n, ivs)
        hit_lo[n - 1] = verdict == Containment.YES
        hit_hi[n - 1] = verdict != Containment.NO


class _Tally:
    """One sample's checkpoint rows, from its (hit_lo, hit_hi) arrays for
    n = 1..N fed in step order, whole (the interval engine) or block by
    block (the digit engine)."""

    def __init__(self, checkpoints, phi, epsilon: float):
        self._marks = [(n, float(phi_n)) for n, phi_n in zip(checkpoints, phi)]
        self.epsilon = epsilon
        self.rows, self.steps, self.r_lo, self.r_hi = [], 0, 0, 0

    def _count(self, hit_lo, hit_hi) -> None:
        self.r_lo += int(np.count_nonzero(hit_lo))
        self.r_hi += int(np.count_nonzero(hit_hi))

    def add(self, hit_lo, hit_hi) -> None:
        """Count the next len(hit_lo) steps, writing the row of every
        checkpoint among them."""
        start, at = self.steps, 0
        self.steps += len(hit_lo)
        for n, phi_n in self._marks[len(self.rows):]:
            if n > self.steps:
                break
            self._count(hit_lo[at:n - start], hit_hi[at:n - start])
            at = n - start
            self.rows.append(CheckpointRow(n, self.r_lo, self.r_hi, phi_n, _error_term(
                (self.r_lo + self.r_hi) / 2.0, phi_n, self.epsilon)))
        self._count(hit_lo[at:], hit_hi[at:])


START_LAWS = ("lebesgue", "invariant")


def _experiment(system, target: TargetSpec, n_steps: int, checkpoints, start: str):
    """(checkpoints, Phi, start measure): what all samples of a count share.

    The checkpoints are sorted in 1..N and end at N; they and Phi are empty
    when N = 0.  Phi sums the system's :func:`invariant_measure` mu, which
    is the start measure of ``start="invariant"``; None means Lebesgue.
    Every count passes through here, so here a start law other than
    START_LAWS and a target whose dimension is not the system's are refused.
    """
    if start not in START_LAWS:
        raise ValueError(f"start must be 'lebesgue' or 'invariant', not {start!r}")
    if n_steps < 0:
        raise ValueError("N must be >= 0")
    if target.d != system.d:
        raise ValueError(f"target dimension {target.d} != system dimension {system.d}")
    cps = sorted(set(int(c) for c in (checkpoints or [])) | {n_steps})
    if cps[0] < 0:
        raise ValueError("checkpoints must be >= 0")
    if cps[-1] > n_steps:
        raise ValueError(f"checkpoints must be <= N = {n_steps}")
    cps = [c for c in cps if c >= 1]
    if not cps:
        return cps, [], None
    mu = invariant_measure(system)
    return cps, phi_values(target, cps, measure=mu), (mu if start == "invariant" else None)


def count_hits(system, target: TargetSpec, x, n_steps: int,
               checkpoints: Optional[Sequence[int]] = None,
               epsilon: float = DEFAULT_EPSILON, start: str = "lebesgue",
               sample_id: int = 0, rng: Optional[np.random.Generator] = None) -> CountingResult:
    """One orbit's hit counts against the target family.

    ``x`` may be a point (rationals/floats/enclosures) or None to draw a
    fresh initial condition from ``rng`` under the ``start`` law:
    "lebesgue" or "invariant" (the measure Phi sums).  The module docstring
    says which systems and starts run on the digit engine; the rest run on
    the interval engine.
    """
    if x is None and rng is None:
        raise ValueError("a random start (x=None) needs rng")
    if x is not None and len(x) != system.d:
        raise ValueError(f"point dimension {len(x)} != system dimension {system.d}")
    cps, phi, measure = _experiment(system, target, n_steps, checkpoints, start)
    return _count_samples(system, target, x, cps, phi, epsilon, measure, [(sample_id, rng)])[0]


def _count_samples(system, target, x, cps, phi, epsilon, measure, samples) -> list:
    """:func:`count_hits` from ``x`` for each (sample_id, rng) of ``samples``,
    on the checkpoints, Phi and start measure of :func:`_experiment`: the
    digit engine's :func:`_digit_blocks` for all of them at once, or the
    interval engine one sample at a time."""
    if not cps:
        return [CountingResult(i, (CheckpointRow(0, 0, 0, 0.0, None),), 0, epsilon)
                for i, _ in samples]
    n_steps = cps[-1]
    tallies = [_Tally(cps, phi, epsilon) for _ in samples]
    systems = _digit_systems(system, measure, x)
    if systems is None:
        for (_, rng), tally in zip(samples, tallies):
            _interval_count(system, target, x, measure, rng, tally, n_steps)
    else:
        sources = [DigitSource(systems, n_steps,
                               [ds.expansion(as_fraction(v)) for ds, v in zip(systems, x)]
                               if x is not None else
                               [ds.draws(r) for ds, r in zip(systems, rng.spawn(len(systems)))])
                   for _, rng in samples]
        for k, hit_lo, hit_hi in _digit_blocks(sources, target, n_steps):
            tallies[k].add(hit_lo, hit_hi)
    return [CountingResult(i, tuple(tally.rows), tally.r_hi - tally.r_lo, epsilon)
            for (i, _), tally in zip(samples, tallies)]


def _digit_blocks(sources: list, target: TargetSpec, n_steps: int):
    """(k, hit_lo, hit_hi) of source k for each block of BLOCK_CHUNKS
    coarse chunks of the steps n = 1..N in turn.

    Every source walks the steps together: a block's radius bounds are
    evaluated once and read by each source's :func:`_digit_membership`,
    and a source holds the block's digits only while its ladder runs, so
    memory grows neither with N nor with the number of sources.
    """
    block = BLOCK_CHUNKS * COARSE_CHUNK
    for start in range(0, n_steps, block):
        steps = slice(start, min(start + block, n_steps))
        bounds = target.radius_bounds(steps.start + 1, steps.stop + 1, RADIUS_RUN)
        for k, source in enumerate(sources):
            source.hold(steps.stop)
            yield (k, *_digit_membership(source, target, steps, bounds))
            source.forget(steps.stop)


def _interval_count(system, target, x, measure, rng, tally, n_steps) -> None:
    """One sample's steps on the interval engine, from ``x`` or a start drawn
    from ``rng``, into its ``tally``.  A PrecisionExhausted carries the last
    checkpoint row reached."""
    if x is None:
        x = _draw_initial(system, measure, rng, n_steps)
    hit_lo, hit_hi = np.zeros(n_steps, dtype=bool), np.zeros(n_steps, dtype=bool)
    try:
        _interval_membership(system, target, x, hit_lo, hit_hi)
    except PrecisionExhausted as exc:
        tally.add(hit_lo[:exc.step], hit_hi[:exc.step])
        exc.last_checkpoint = tally.rows[-1] if tally.rows else None
        raise
    tally.add(hit_lo, hit_hi)


def _random_bits(rng: np.random.Generator, bits: int) -> int:
    """A uniform integer below 2**bits from ceil(bits/32) uint32 draws.

    The first word is the most significant; bits <= 0 draws nothing.
    """
    if bits <= 0:
        return 0
    words = rng.integers(0, 1 << 32, size=(bits + 31) // 32, dtype=np.uint64)
    return int.from_bytes(words.astype(">u4").tobytes(), "big") & ((1 << bits) - 1)


def _draw_initial(system, measure, rng, n_steps):
    """A start drawn from ``measure`` (None: Lebesgue) at the bits the orbit needs.

    For beta in (-g, -1) the Yrrap measure lives on a finite union of
    intervals, and nothing here shows that orbits from elsewhere reach it,
    so only the invariant measure itself may draw starts there.
    """
    if (measure is None and isinstance(system, DiagonalTorusSystem)
            and any(-GOLDEN_RATIO < beta_float(b) < -1 for b in system.betas)):
        raise StartLawUnsupported(
            "random starts on a beta in (-g, -1) must come from the invariant "
            "Yrrap measure (start=\"invariant\", --measure parry)")
    bits = max(96, required_precision(system, n_steps))
    if measure is None:
        return [Fraction(_random_bits(rng, bits), 1 << bits) for _ in range(system.d)]
    cols = measure.sample(rng, 1)[0]
    return [(as_fraction(float(c)) + Fraction(_random_bits(rng, bits - 53), 1 << bits)) % 1
            for c in cols[:system.d]]


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(sample_id,)))


def _run_batch(args) -> list:
    (system, target, checkpoints, phi, epsilon, measure, seed, sample_ids) = args
    return _count_samples(system, target, None, checkpoints, phi, epsilon, measure,
                          [(i, _sample_rng(seed, i)) for i in sample_ids])


def monte_carlo_counting(system, target: TargetSpec, num_samples: int,
                         n_steps: int, seed: int,
                         checkpoints: Optional[Sequence[int]] = None,
                         epsilon: float = DEFAULT_EPSILON, band_tol: float = 0.2,
                         start: str = "lebesgue", jobs: int = 1) -> CountingSummary:
    """Seeded multi-sample counting experiment; ``start`` as in :func:`count_hits`.

    Sample i uses the generator derived from (seed, i); aggregation is in
    sample order, so output is identical for any ``jobs``.  The samples
    run on min(jobs, samples, CPUs) worker processes, as a pool forks all
    its workers at once, each taking one batch of consecutive samples (so
    the digit engine bounds the radii over each block once per worker, and
    evaluates them only at the steps its coarse stage leaves open).  The
    summary reports the fraction of samples with |R/Phi - 1| <= band_tol
    at the final checkpoint and the largest |e(N)| seen.  A sample whose
    ambiguous hits exceed ``AMBIGUITY_BUDGET`` of its R_hi raises
    AmbiguityBudgetExceeded.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    cps, phi, measure = _experiment(system, target, n_steps, checkpoints, start)
    workers = min(jobs, num_samples, os.cpu_count() or 1)
    payloads = [(system, target, cps, phi, epsilon, measure, seed,
                 range(j * num_samples // workers, (j + 1) * num_samples // workers))
                for j in range(workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [res for batch in pool.map(_run_batch, payloads) for res in batch]
    else:
        results = _run_batch(payloads[0])
    phi_final = results[0].final.phi
    in_band = 0
    max_abs_e = 0.0
    for res in results:
        if not res.ambiguity_ok():
            raise AmbiguityBudgetExceeded(
                f"sample {res.sample_id}: {res.ambiguous_hits} ambiguous hits"
            )
        final = res.final
        if phi_final > 0 and abs(final.r_mid / phi_final - 1.0) <= band_tol:
            in_band += 1
        for row in res.checkpoints:
            if row.e is not None:
                max_abs_e = max(max_abs_e, abs(row.e))
    return CountingSummary(
        results=tuple(results), phi_final=phi_final,
        fraction_in_band=in_band / num_samples, band_tol=band_tol,
        max_abs_e=max_abs_e, seed=seed,
    )


# ---------------------------------------------------------------------------
# correlation / mixing estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSeries:
    """phi-hat estimates per lag, their running sum, and an exponential fit."""

    entries: tuple  # (n, estimate, std_error)
    kappa_hat: float
    fit_c: float
    fit_gamma: float
    fit_r2: float


def _beta_adic_order(value: Fraction, base: int) -> Optional[int]:
    """The least k with value * base^k an integer, or None when there is none."""
    q, k = value.denominator, 0
    while q > 1:
        g = math.gcd(q, base)
        if g == 1:
            return None
        q, k = q // g, k + 1
    return k


def _lag_method(beta, e_set: tuple, lag: int, method: str,
                num_samples: Optional[int]) -> str:
    """What an estimate at ``lag`` > 0 runs: "zero", "exact" or "mc".

    "auto" is "zero" for integer beta and E of beta-adic order <= lag,
    else "exact" without ``num_samples`` and "mc" with them.
    """
    if method == "auto":
        b = beta_float(beta)
        if float(b).is_integer() and b > 1 and all(
                (k := _beta_adic_order(as_fraction(x), int(b))) is not None and k <= lag
                for x in e_set):
            return "zero"
        return "exact" if num_samples is None else "mc"
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    return method


def _exact_lags(beta, e_set, lags, method: str, num_samples) -> list:
    """The sorted lags >= 1 that run the exact method."""
    return sorted(n for n in set(lags) if n > 0
                  and _lag_method(beta, e_set, n, method, num_samples) == "exact")


def exact_cost(beta, e_set, lags, method: str,
               num_samples: Optional[int]) -> tuple[int, float]:
    """(n, cost): the last lag the exact series reaches and
    :func:`_transfer_cost` there; (0, 0.0) when no lag runs exact."""
    exact = _exact_lags(beta, e_set, lags, method, num_samples)
    if not exact:
        return 0, 0.0
    return exact[-1], _transfer_cost(beta, exact[-1])


def _transfer_cost(beta, n: int) -> float:
    """Bound on the cell values :func:`_exact_series` reads to lag n:
    sum over k = 1..n of cells(k) (floor|beta| + 2).  Lag k's partition
    holds the measure's edges (at most ``series_terms`` + 1 points) and
    k steps of three orbits, so cells(k) <= series_terms + 3k + 2; each
    cell reads at most floor|beta| + 1 preimages of its midpoint (the + 2
    counts the cell itself)."""
    absb = abs(beta_float(beta))
    return (n * (series_terms(absb) + 2) + 3 * n * (n + 1) // 2) * (absb // 1 + 2)


def fit_exponential(ns, values, std_errors=None) -> tuple[float, float, float]:
    """Fit values ~ C * gamma^n; returns (C, gamma, linear-scale R^2).

    The log-space regression uses only points that clear three standard
    errors (noise-floor points would otherwise flatten the slope); R^2 is
    then computed in linear space over every supplied point.
    """
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    ses = np.zeros_like(values) if std_errors is None else np.asarray(std_errors)
    signal = values > np.maximum(3.0 * ses, 1e-13)
    if np.count_nonzero(signal) < 2:
        return 0.0, 0.0, 0.0
    slope, intercept = np.polyfit(ns[signal], np.log(values[signal]), 1)
    c = math.exp(intercept)
    gamma = math.exp(slope)
    fitted = c * gamma ** ns
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return c, gamma, r2


def correlation_series(beta, e_set, f_set, lags: Sequence[int],
                       num_samples: Optional[int] = None,
                       seed: Optional[int] = None, method: str = "exact") -> CorrelationSeries:
    """phi-hat over the requested lags plus the summability diagnostic.

    kappa_hat sums phi-hat over lags 1..KAPPA_LAGS and completes the series
    with the fitted geometric tail C gamma^(KAPPA_LAGS+1) / (1 - gamma).
    """
    entries = _estimates(beta, e_set, f_set, lags, num_samples, seed, method)
    ns = [n for n, _, _ in entries]
    vals = [v for _, v, _ in entries]
    ses = [s for _, _, s in entries]
    c, gamma, r2 = fit_exponential(ns, vals, ses)
    known = dict((n, v) for n, v, _ in entries)
    kappa = 0.0
    for n in range(1, KAPPA_LAGS + 1):
        if n in known:
            kappa += known[n]
        elif 0 < gamma < 1:
            kappa += c * gamma ** n
    if 0 < gamma < 1:
        kappa += c * gamma ** (KAPPA_LAGS + 1) / (1 - gamma)
    return CorrelationSeries(entries=entries, kappa_hat=kappa,
                             fit_c=c, fit_gamma=gamma, fit_r2=r2)


def _estimates(beta, e_set, f_set, lags, num_samples, seed, method: str) -> tuple:
    """(n, estimate, std_error) for each of the sorted ``lags``: the one
    route of :func:`correlation_series`.

    Lag 0 is mu(E ∩ F), exact under every method.  A lag >= 1 runs what
    :func:`_lag_method` says: a "zero" lag is 0, lag 0 and the exact lags
    read one :func:`_exact_series` and the Monte Carlo lags one
    :func:`_mc_series`.  Neither series depends on the other lags asked
    for, so neither does an entry.
    """
    lags = sorted(set(int(n) for n in lags))
    if lags and lags[0] < 0:
        raise ValueError("lags must be >= 0")
    mu = ParryYrrapMeasure(beta)
    mu_e, mu_f = mu.measure_interval(*e_set), mu.measure_interval(*f_set)
    if mu_f < MIN_MU_F:  # every estimate divides by it
        raise DegenerateF(f"mu(F) = {mu_f:.2e} below the {MIN_MU_F:g} floor")
    runs = {n: _lag_method(beta, e_set, n, method, num_samples) for n in lags if n > 0}
    # n: (mu(E ∩ T^-n F), std error)
    joints = _exact_series(beta, mu, e_set, f_set,
                           {0} | {n for n, run in runs.items() if run == "exact"})
    if mc := {n for n, run in runs.items() if run == "mc"}:
        joints.update(_mc_series(mu, e_set, f_set, mc, num_samples, seed))
    return tuple((n, abs(joints[n][0] / mu_f - mu_e), joints[n][1] / mu_f)
                 if n in joints else (n, 0.0, 0.0) for n in lags)


def _mc_series(mu, e_set, f_set, lags, num_samples, seed) -> dict:
    """{lag: (joint, std error)} for the set of ``lags`` >= 1: the share of
    ``num_samples`` mu-distributed points x in E with T^n x in F, and its
    binomial standard error.  Every point is drawn from the generator of
    (seed, 0) before any lag is stepped, and one orbit array serves every lag."""
    if num_samples is None:
        raise ValueError("Monte Carlo estimates need num_samples")
    orbit = mu.sample(_sample_rng(seed, 0), num_samples)
    in_e = (orbit >= e_set[0]) & (orbit < e_set[1])
    out = {}
    for n in range(1, max(lags) + 1):
        orbit = np.mod(mu.beta * orbit, 1.0)
        if n in lags:
            joint = float(np.mean(in_e & (orbit >= f_set[0]) & (orbit < f_set[1])))
            out[n] = joint, math.sqrt(max(joint * (1 - joint), 1e-300) / num_samples)
    return out


def _exact_series(beta, mu, e_set, f_set, lags) -> dict:
    """{lag: (mu(E ∩ T^-n F), 0.0)} for the set of ``lags`` >= 0, the
    exact twin of :func:`_mc_series`.

    mu(E ∩ T^-n F) is the integral over F of L^n g, where g = 1_E h is
    mu's density h cut to E and L is the transfer operator of T,
    (Lg)(y) = |beta|^-1 sum_m g((y + m) / beta) over the integers m with
    (y + m) / beta in [0, 1) (Lasota and Yorke 1973; Hofbauer and Keller
    1982).  L g steps only at T's images of the points where g steps and
    at the branch ends' images 0 and T(1).  g steps at ``mu.edges`` (0, 1
    and T^j(1) for j < N, the truncation order) and at e0 and e1, so L^k g
    is constant between the edges and T^i(e0), T^i(e1) and T^(N-1+i)(1)
    for i <= k: three orbits read to step k.  An orbit that snaps to 0 or
    1 goes on as the orbit of 0 or of 1, which the partition already
    holds.  Lag k reads lag k - 1's values at the preimages of its cell
    midpoints; F is never pulled back.  A series whose :func:`_transfer_cost`
    passes ``MAX_EXPLICIT`` is refused before it starts.
    """
    n = max(lags)
    if (cost := _transfer_cost(beta, n)) > MAX_EXPLICIT:
        raise PieceCapExceeded(
            f"the exact series to lag {n} may read {cost:.4g} cell values, "
            f"past the {MAX_EXPLICIT} it can take")
    b = mu.beta
    branches = np.arange(math.floor(min(b, 0.0)), math.ceil(max(b, 0.0)), dtype=np.float64)
    tail = mu.truncation_order - 1  # the orbit of 1 goes on from the last edge
    orbits = [snapped_orbit(beta, n, e)[0] for e in e_set]
    orbits.append(snapped_orbit(beta, tail + n)[0][tail:])
    orbits = [[float(y) for y in orbit] for orbit in orbits]
    points = _sorted_unique(np.concatenate((mu.edges, [orbit[0] for orbit in orbits])))
    mids = (points[:-1] + points[1:]) / 2
    values = mu.density(mids) * ((mids >= e_set[0]) & (mids <= e_set[1]))  # g = 1_E h
    out = {}
    for k in range(n + 1):
        if k:  # L^k g = L(L^(k-1) g) at the midpoints of lag k's cells
            prev, prev_values = points, values
            points = _sorted_unique(np.concatenate(
                (prev, [orbit[k] for orbit in orbits if k < len(orbit)])))
            mids = (points[:-1] + points[1:]) / 2
            x = (mids[:, None] + branches) / b
            at = np.clip(np.searchsorted(prev, x, "right") - 1, 0, len(prev_values) - 1)
            values = np.sum(np.where((x >= 0) & (x < 1), prev_values[at], 0.0), axis=1) / abs(b)
        if k in lags:
            in_f = np.minimum(points[1:], f_set[1]) - np.maximum(points[:-1], f_set[0])
            out[k] = float(np.sum(values * np.maximum(in_f, 0.0))), 0.0
    return out
