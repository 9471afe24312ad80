"""Constructive Markov subsystems for piecewise linear maps of [0, 1].

Given a map of constant slope modulus b > 8, normalizing the linearity
partition so no piece is more than twice the shortest, then trimming each
piece to the preimage of the pieces fully contained in its image, yields a
Markov subsystem whose transition matrix has row sums >= [b/2] - 2 >= 1.
That forces word counts >= m (b/2 - 3)^(n-1), hence topological entropy
>= log(b/2 - 3) and Hausdorff dimension >= 1 - log8/log b for the
invariant set.

Interval endpoints are exact Fractions whenever the map data is rational;
otherwise floats with a 2^-40 containment slack.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PieceCapExceeded, SlopeTooSmall
from .measures import SupportSet
from .orbits import _scalar_bounds, scalar

CONTAINMENT_SLACK = 2.0 ** -40
PERRON_TOL = 1e-12  # power iteration stops once Rayleigh quotients agree this closely
_PERRON_MAX_ITER = 100_000
COVER_TOL = 1e-9  # slack of the eventually-onto covering test
MAX_DENSE_ENTRIES = 2 ** 25  # m^2 cap on the support of A^k and the JSON rows: m <= 5792


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """T(x) = slopes[j] * x + intercepts[j] on [breakpoints[j], breakpoints[j+1]).

    All slopes share one modulus (the expansion factor), and every piece
    maps into [0, 1].
    """

    breakpoints: tuple
    slopes: tuple
    intercepts: tuple

    def __post_init__(self):
        bp = tuple(self.breakpoints)
        sl = tuple(self.slopes)
        ic = tuple(self.intercepts)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "intercepts", ic)
        if len(bp) != len(sl) + 1 or len(sl) != len(ic):
            raise ValueError("need len(breakpoints) == len(slopes)+1 == len(intercepts)+1")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        mods = {abs(float(s)) for s in sl}
        if max(mods) - min(mods) > 1e-12:
            raise ValueError("slope modulus must be constant across pieces")
        for j in range(len(sl)):
            lo, hi = self.image_of_piece(j)
            if float(lo) < -1e-9 or float(hi) > 1 + 1e-9:
                raise ValueError(f"piece {j} maps outside [0,1]")

    @property
    def num_pieces(self) -> int:
        return len(self.slopes)

    @property
    def slope_modulus(self) -> float:
        return abs(float(self.slopes[0]))

    def piece_lengths(self) -> list:
        return [b - a for a, b in zip(self.breakpoints, self.breakpoints[1:])]

    def image_of_piece(self, j: int) -> tuple:
        a, b = self.breakpoints[j], self.breakpoints[j + 1]
        s, t = self.slopes[j], self.intercepts[j]
        u, v = s * a + t, s * b + t
        return (u, v) if u <= v else (v, u)

    def apply(self, x: float) -> float:
        if not self.breakpoints[0] <= x <= self.breakpoints[-1]:
            raise ValueError("x outside [0, 1]")
        j = _piece_at(self, x)
        return float(self.slopes[j]) * float(x) + float(self.intercepts[j])

    def image_of_interval(self, lo, hi) -> list:
        """Forward image of [lo, hi] as a list of intervals."""
        out = []
        first = max(bisect_right(self.breakpoints, lo) - 1, 0)
        for j in range(first, min(bisect_left(self.breakpoints, hi), self.num_pieces)):
            a = max(lo, self.breakpoints[j])
            b = min(hi, self.breakpoints[j + 1])
            if b <= a:
                continue
            s, t = self.slopes[j], self.intercepts[j]
            u, v = s * a + t, s * b + t
            out.append((u, v) if u <= v else (v, u))
        return _merge_intervals(out)


def _merge_intervals(ivs: list, slack=0) -> list:
    if not ivs:
        return []
    ivs = sorted(ivs)
    out = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= out[-1][1] + slack:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [tuple(p) for p in out]


def beta_map(beta) -> PiecewiseLinearMap:
    """T_beta(x) = beta x mod 1 as an explicit piecewise linear map.

    Exact for a rational beta; for a token "g"/"e", the map of the midpoint
    of its 128-bit bounds, in floats.
    """
    b = scalar(beta)
    exact = isinstance(b, Fraction)
    if not exact:
        lo, hi = _scalar_bounds(b, 128)
        b = Fraction(lo + hi, 1 << 129)
    absb = abs(b)
    if absb <= 1:
        raise ValueError("|beta| must be > 1")
    cells = math.ceil(absb)
    parts = (
        [Fraction(j) / absb for j in range(cells)] + [Fraction(1)],
        [b] * cells,
        [Fraction(-j if b > 0 else j + 1) for j in range(cells)],
    )
    if not exact:
        return PiecewiseLinearMap(*(tuple(float(v) for v in part) for part in parts))
    return PiecewiseLinearMap(*(tuple(part) for part in parts))


def power_map(beta, k: int) -> PiecewiseLinearMap:
    """T_beta^k as one piecewise linear map: slope modulus |beta|^k,
    at most (floor|beta|+1)^k pieces.

    For an integer b, T_b^k = T_{b^k}, so that map is built directly; it
    equals the composed one field for field.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    b = scalar(beta)
    if isinstance(b, Fraction) and b.denominator == 1:
        return beta_map(b ** k)
    base = beta_map(b)
    current = base
    for _ in range(k - 1):
        current = _compose(base, current)
    return current


def _compose(outer: PiecewiseLinearMap, inner: PiecewiseLinearMap) -> PiecewiseLinearMap:
    """outer o inner, splitting inner pieces where their image crosses
    outer breakpoints.

    Exact crossings that coincide with a breakpoint merge in the set.  A
    float crossing within ``eps`` of a breakpoint already kept is the
    same point up to rounding and is dropped, so no sliver piece appears.
    """
    exact = isinstance(inner.breakpoints[0], Fraction)
    eps = Fraction(1, 10 ** 12) if exact else 1e-12
    tol = 0 if exact else eps
    new_bps = set(inner.breakpoints)
    for j in range(inner.num_pieces):
        a, b = inner.breakpoints[j], inner.breakpoints[j + 1]
        s, t = inner.slopes[j], inner.intercepts[j]
        kept = a
        for x in sorted((c - t) / s for c in outer.breakpoints[1:-1]):
            if kept + tol < x < b - tol:
                new_bps.add(x)
                kept = x
    bps = sorted(new_bps)
    slopes = []
    intercepts = []
    for a, b in zip(bps, bps[1:]):
        mid = (a + b) / 2
        j = _piece_at(inner, mid)
        s1, t1 = inner.slopes[j], inner.intercepts[j]
        y = s1 * mid + t1
        jo = _piece_at(outer, y, eps)
        s2, t2 = outer.slopes[jo], outer.intercepts[jo]
        slopes.append(s2 * s1)
        intercepts.append(s2 * t1 + t2)
    return PiecewiseLinearMap(tuple(bps), tuple(slopes), tuple(intercepts))


def _piece_at(pl: PiecewiseLinearMap, x, eps=0) -> int:
    """The j with breakpoints[j] <= x < breakpoints[j+1]; the last piece
    also takes x = 1 (or x within ``eps`` above it) and the first piece
    takes x < 0."""
    j = bisect_right(pl.breakpoints, x) - 1
    if 0 <= j < pl.num_pieces:
        return j
    if x >= pl.breakpoints[-1] - eps if eps else x == pl.breakpoints[-1]:
        return pl.num_pieces - 1
    if x < pl.breakpoints[0]:
        return 0
    raise ValueError(f"point {x} outside the map domain")


def normalize_partition(pl: PiecewiseLinearMap) -> PiecewiseLinearMap:
    """Refine so every piece length lies in [kappa, 2 kappa].

    A piece longer than 2 kappa (kappa = shortest length) splits into 2^l
    equal parts, with 2^l kappa < length <= 2^(l+1) kappa.  Every split
    is counted before any piece is built: past ``MAX_DENSE_ENTRIES``
    transition entries (m^2) it raises PieceCapExceeded.
    """
    lengths = pl.piece_lengths()
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
    bps = [pl.breakpoints[0]]
    slopes = []
    intercepts = []
    for j, (length, pieces) in enumerate(zip(lengths, splits)):
        a = pl.breakpoints[j]
        step = length / pieces
        for p in range(pieces):
            bps.append(a + (p + 1) * step if p + 1 < pieces else pl.breakpoints[j + 1])
            slopes.append(pl.slopes[j])
            intercepts.append(pl.intercepts[j])
    return PiecewiseLinearMap(tuple(bps), tuple(slopes), tuple(intercepts))


@dataclass(frozen=True)
class MarkovSubsystem:
    """Invariant sub-dynamics with a finite Markov partition.

    ``pieces`` are the trimmed intervals P(i) (closed, sorted), ``rows``
    the transitions: row j is the half-open run ``(lo, hi)`` of the k with
    P(k) inside closure(T(P(j))), and ``certificates`` the proof-grade
    bounds extracted from the build.  The runs are the only form of the
    0/1 transition matrix A[j][k] = [lo_j <= k < hi_j]: :func:`word_count`,
    :func:`is_primitive` and :func:`entropy_and_dim` read them.
    """

    pieces: tuple
    rows: tuple
    kappa: float
    slope_modulus: float
    certificates: dict

    @property
    def size(self) -> int:
        return len(self.pieces)


def build_markov(pl: PiecewiseLinearMap) -> MarkovSubsystem:
    """The Markov subsystem of a constant-slope map with modulus > 8.

    Normalizes the partition, trims each piece to the preimage of the
    union of pieces its image fully contains, and certifies row sums,
    entropy and dimension.  Pieces are disjoint and sorted, so the pieces
    an image contains are a contiguous run found by bisection, and that
    run is the transition row: the build is O(m log m).
    """
    b = pl.slope_modulus
    if b <= 8:
        raise SlopeTooSmall(f"slope modulus {b} <= 8")
    norm = normalize_partition(pl)
    m = norm.num_pieces
    lengths = norm.piece_lengths()
    kappa = min(float(v) for v in lengths)
    exact = isinstance(norm.breakpoints[0], Fraction)
    slack = 0 if exact else CONTAINMENT_SLACK

    # pieces of the normalized partition fully inside each image (adjacent run)
    bps = norm.breakpoints
    contained: list[tuple[int, int]] = []  # [lo_idx, hi_idx) per piece
    for j in range(m):
        u, v = norm.image_of_piece(j)
        lo = bisect_left(bps, u - slack, 0, m)
        hi = bisect_right(bps, v + slack, lo + 1, m + 1) - 1
        if hi <= lo:
            raise AssertionError("image contains no full piece despite slope > 8")
        contained.append((lo, hi))

    # trim: P(j) = piece(j) ∩ T^{-1}(closure of the contained run)
    pieces = []
    for j in range(m):
        lo_idx, hi_idx = contained[j]
        target_lo = norm.breakpoints[lo_idx]
        target_hi = norm.breakpoints[hi_idx]
        s, t = norm.slopes[j], norm.intercepts[j]
        x1 = (target_lo - t) / s
        x2 = (target_hi - t) / s
        plo, phi = (x1, x2) if x1 <= x2 else (x2, x1)
        if phi <= plo:
            raise AssertionError("empty trimmed piece despite slope > 8")
        pieces.append((plo, phi))

    if any(p[0] >= q[0] or p[1] >= q[1] for p, q in zip(pieces, pieces[1:])):
        raise AssertionError("trimmed pieces are not strictly increasing")
    # The rows are the contained runs: the trim makes T(P(j)) exactly
    # [bps[lo_j], bps[hi_j]] and each P(k) is a non-empty part of piece k, so
    # P(k) lies in closure T(P(j)) iff lo_j <= k < hi_j.  On the float path each
    # P(j) maps onto a whole piece, so it is >= kappa/b >= kappa^2 >= 1/(4m^2) >
    # 7.5e-9 long (m <= 5792): CONTAINMENT_SLACK = 2^-40 admits no neighbour.
    rows = contained
    row_min = min(hi - lo for lo, hi in rows)
    needed = math.floor(b / 2) - 2
    if row_min < max(needed, 1):
        raise AssertionError(f"row sum {row_min} below the guaranteed {needed}")
    entropy_lb = math.log(b / 2 - 3)
    dim_lb = 1 - math.log(8) / math.log(b)
    return MarkovSubsystem(
        pieces=tuple((float(a), float(bb)) for a, bb in pieces),
        rows=tuple(rows),
        kappa=kappa,
        slope_modulus=b,
        certificates={
            "row_min": row_min,
            "row_min_guarantee": max(needed, 1),
            "entropy_lb": entropy_lb,
            "dim_lb": dim_lb,
        },
    )


def verify_markov(pieces: Sequence[tuple], pl: PiecewiseLinearMap) -> list[str]:
    """Independent checker of the Markov conditions on actual intervals.

    (i) pairwise disjoint interiors, (ii) injectivity on each piece (true
    for linear pieces of nonzero slope whenever a piece stays inside one
    linearity cell), (iii) if T(P(j)) meets the interior of P(k) then
    P(k) is contained in closure(T(P(j))).  Returns a list of violation
    messages (empty = all conditions hold).
    """
    problems = []
    ivs = sorted((float(a), float(b), i) for i, (a, b) in enumerate(pieces))
    for (a1, b1, i1), (a2, b2, i2) in zip(ivs, ivs[1:]):
        if a2 < b1 - CONTAINMENT_SLACK:
            problems.append(f"pieces {i1} and {i2} have overlapping interiors")
    images = []
    for i, (a, b) in enumerate(pieces):
        ja = _piece_at(pl, float(a) + 1e-15, 1e-12)
        jb = _piece_at(pl, float(b) - 1e-15, 1e-12)
        if ja != jb:
            problems.append(f"piece {i} crosses a linearity breakpoint")
        s, t = float(pl.slopes[ja]), float(pl.intercepts[ja])
        y1, y2 = s * float(a) + t, s * float(b) + t
        images.append((min(y1, y2), max(y1, y2)))
    for j, (u, v) in enumerate(images):
        for k, (a, b) in enumerate(pieces):
            a, b = float(a), float(b)
            meets_interior = min(v, b) - max(u, a) > CONTAINMENT_SLACK
            if meets_interior:
                inside = a >= u - CONTAINMENT_SLACK and b <= v + CONTAINMENT_SLACK
                if not inside:
                    problems.append(
                        f"T(P({j})) meets the interior of P({k}) without containing it"
                    )
    return problems


def _runs(rows) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``rows`` as ``lo`` and ``hi`` arrays, checked 0 <= lo <= hi <= m."""
    runs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    lo, hi = runs[:, 0], runs[:, 1]
    if np.any((lo < 0) | (lo > hi) | (hi > len(runs))):
        raise ValueError("rows must be runs (lo, hi) with 0 <= lo <= hi <= m")
    return lo, hi


def _run_product(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the runs: row j sums x over lo_j <= k < hi_j, one difference
    of prefix sums along axis 0, accumulated in x's dtype.  Exact for
    object (big-integer) x, and for integer x whose column sums fit its
    dtype; x may have columns."""
    prefix = np.zeros((len(x) + 1, *x.shape[1:]), dtype=x.dtype)
    np.cumsum(x, axis=0, dtype=x.dtype, out=prefix[1:])
    out = prefix[hi]
    out -= prefix[lo]
    return out


def word_count(rows, n: int) -> int:
    """Exact number of admissible words of length n for the transition
    runs ``rows`` (row j allows the k with lo_j <= k < hi_j).

    Big-integer DP: the words of length i + 1 starting at j number the
    sum of those of length i starting in row j's run, so each step is one
    O(m) run product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _runs(rows)
    vec = np.ones(len(lo), dtype=object)
    for _ in range(n - 1):
        vec = _run_product(lo, hi, vec)
    return int(vec.sum())


def is_primitive(rows) -> tuple[bool, Optional[int]]:
    """Primitivity of the transition runs ``rows`` with the least witness
    power k <= (m-1)^2 + 1 (Wielandt) such that A^k > 0.

    Steps the 0/1 support of A^k one power at a time, each step one run
    product over the support's columns, so the first positive power is
    the least witness.  The supports follow a fixed map, so once one
    repeats no later power is positive: each support is compared with
    the one saved at the last power of two (Brent's cycle test).
    """
    lo, hi = _runs(rows)
    # a 0/1 column sums to at most m: int16 is exact below 2^15 (builds cap m at 5792)
    dtype = np.int16 if len(lo) < 2 ** 15 else np.int32
    support = saved = np.eye(len(lo), dtype=dtype)  # A^0
    for k in range(1, (len(lo) - 1) ** 2 + 2):
        support = _run_product(lo, hi, support)
        np.minimum(support, 1, out=support)
        if support.all():
            return True, k
        if np.array_equal(support, saved):
            return False, None
        if k & (k - 1) == 0:
            saved = support
    return False, None


def perron_bounds(rows) -> tuple[float, float]:
    """Rigorous row-sum sandwich for the spectral radius of the
    transition runs ``rows``."""
    sums = [hi - lo for lo, hi in rows]
    return float(min(sums)), float(max(sums))


def entropy_and_dim(rows, beta_modulus: float) -> tuple[float, float]:
    """(h_top, dim) from the Perron root of the transition runs ``rows``.

    Power iteration, one run product per step, until successive Rayleigh
    quotients differ by < PERRON_TOL; the row-sum sandwich stays the
    rigorous bound (use perron_bounds).  dim = h_top / log(beta_modulus).
    """
    lo, hi = _runs(rows)
    m = len(lo)
    if m == 0:
        raise ValueError("no transition rows")
    v = np.ones(m) / math.sqrt(m)
    w = _run_product(lo, hi, v)
    prev = 0.0
    for _ in range(_PERRON_MAX_ITER):
        norm = np.linalg.norm(w)
        if norm == 0:
            return -math.inf, 0.0
        v = w / norm
        w = _run_product(lo, hi, v)
        rho = float(v @ w)
        if abs(rho - prev) < PERRON_TOL:
            break
        prev = rho
    h = math.log(rho)
    return h, h / math.log(abs(beta_modulus))


def eventually_onto_search(pl: PiecewiseLinearMap, interval: tuple,
                           support: Union[SupportSet, tuple], max_k: int = 200) -> Optional[int]:
    """Smallest k <= max_k with T^k(I) covering the support, else None.

    Forward-image propagation on unions of intervals, merging as they
    grow; containment is checked within ``COVER_TOL``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval must be non-degenerate")
    targets = support.intervals if isinstance(support, SupportSet) else tuple(support)
    current = [(lo, hi)]
    for k in range(1, max_k + 1):
        images = []
        for a, b in current:
            images.extend(pl.image_of_interval(a, b))
        current = _merge_intervals([(float(a), float(b)) for a, b in images], slack=COVER_TOL)
        if _covers(current, targets):
            return k
    return None


def _covers(cover: list, targets: Sequence[tuple]) -> bool:
    for (a, b) in targets:
        pos = a + COVER_TOL
        while pos < b - COVER_TOL:
            advanced = False
            for (u, v) in cover:
                if u <= pos + COVER_TOL and v > pos:
                    pos = v
                    advanced = True
                    break
            if not advanced:
                return False
    return True
