"""Cylinder structure of beta-expansions: intervals of linearity of T_beta^n.

For beta > 1 the order-n cylinders are driven by the orbit of 1: a cylinder
whose n-step image is [0, y) splits into floor(beta*y) full children (image
all of [0,1)) followed by one partial child of image [0, frac(beta*y)).
That automaton gives exact counts, full/not-full flags, and left-to-right
scans from one summary per subtree (state, depth), without materializing
the tree.  The preimages of a ball under T_beta^n, for either sign of beta,
are pulled back one inverse branch at a time.

Boundary convention: cylinders are half-open [a, b); results at points that
sit exactly on a boundary are convention-dependent.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PieceCapExceeded, PrecisionExhausted
from .orbits import beta_float, snapped_orbit

MAX_EXPLICIT = 2_000_000


class BetaAutomaton:
    """Orbit-of-1 automaton of T_beta for beta > 1.

    State j holds y_j = T_beta^j(1) (y_0 = 1); from state j there are
    m_j = floor(beta*y_j) full children (state 0) and, unless beta*y_j is
    an exact integer, one partial child (state j+1).  The states are
    :func:`orbits.snapped_orbit`, whose exact snap honours algebraic
    coincidences (e.g. the golden ratio's finite expansion of 1).
    """

    def __init__(self, beta, depth: int):
        b_float = beta_float(beta)
        if b_float <= 1:
            raise ValueError("automaton requires beta > 1")
        if depth < 0:
            raise ValueError("the order must be >= 0")
        self.beta = b_float
        self.depth = depth
        points, self.branch_counts, _ = snapped_orbit(beta, depth + 1)
        self.y_values = [float(y) for y in points]
        # only the last state can be terminal: the orbit of 1 stops at 0
        self.terminal = [False] * (len(points) - 2) + [points[-1] == 0]

    def state(self, j: int) -> tuple[int, bool, float]:
        """(full children, terminal?, y) for state j; terminal states repeat."""
        if j < len(self.branch_counts):
            return self.branch_counts[j], self.terminal[j], self.y_values[j]
        # orbit of 1 hit zero: the chain of states ended earlier
        return 0, True, 0.0

    def count(self, n: int) -> int:
        """Exact number of order-n cylinders (paths of length n from state 0).

        A path from state 0 follows the partial chain 0 -> 1 -> ... -> j
        and then takes one of the m_j full children back to state 0, or
        stays on the chain to the end:
        N_k = sum_{j<k} P_j m_j N_{k-1-j} + P_k, where P_j = 1 while
        states 0..j-1 are not terminal.  No recursion, so any n >= 0 runs.
        """
        if n < 0:
            raise ValueError("the order must be >= 0")
        weights, counts, alive = [], [1], 1
        for k in range(1, n + 1):
            if alive:
                m, term, _ = self.state(k - 1)
                weights.append(m)
                alive = not term
            counts.append(sum(w * c for w, c in zip(weights, reversed(counts))) + alive)
        return counts[n]


def count_cylinders(beta, n: int) -> int:
    """Exact count N_n of order-n cylinders of T_beta, beta > 1."""
    return BetaAutomaton(beta, n).count(n)


class _Scan(NamedTuple):
    """Left-to-right summary of consecutive order-n cylinders, widths in
    units of beta^-n: the non-full runs (count, width) before the first and
    after the last full cylinder (each the whole span when it has none), and
    the longest non-full run and widest gap between two full cylinders."""

    count: int
    fulls: int
    head_run: int
    head_w: float
    tail_run: int
    tail_w: float
    inner_run: int
    inner_w: float


_EMPTY_SCAN = _Scan(0, 0, 0, 0.0, 0, 0.0, 0, 0.0)


def _join(a: _Scan, b: _Scan) -> _Scan:
    """``a`` followed by ``b``: an associative join with unit ``_EMPTY_SCAN``."""
    inner_run, inner_w = max(a.inner_run, b.inner_run), max(a.inner_w, b.inner_w)
    if a.fulls and b.fulls:  # the run across the seam lies between two full cylinders
        inner_run = max(inner_run, a.tail_run + b.head_run)
        inner_w = max(inner_w, a.tail_w + b.head_w)
    head = (a.head_run, a.head_w) if a.fulls else (a.head_run + b.head_run, a.head_w + b.head_w)
    tail = (b.tail_run, b.tail_w) if b.fulls else (a.tail_run + b.tail_run, a.tail_w + b.tail_w)
    return _Scan(a.count + b.count, a.fulls + b.fulls, *head, *tail, inner_run, inner_w)


def _repeat(scan: _Scan, m: int) -> _Scan:
    """``m`` copies of ``scan``, which holds a full cylinder, side by side:
    the head of the first copy, the tail of the last, and between two
    copies a run of one tail and one head (the seams of repeated joins)."""
    if not m:
        return _EMPTY_SCAN
    inner = scan[-2:] if m == 1 else (max(scan.inner_run, scan.tail_run + scan.head_run),
                                      max(scan.inner_w, scan.tail_w + scan.head_w))
    return _Scan(m * scan.count, m * scan.fulls, *scan[2:6], *inner)


def full_cylinder_stats(beta, n: int) -> dict:
    """Left-to-right scan of the order-n cylinders (beta > 1).

    Returns the exact cylinder count, number of full cylinders, the longest
    run of consecutive non-full cylinders (anywhere, including the ends),
    and the maximum distance between consecutive full cylinders.  That
    gap is always < (n+1) * beta^-n: every n+1 consecutive cylinders
    contain a full one and each non-full cylinder is shorter than beta^-n.
    Subtree (state j, depth k) is m_j copies of (0, k-1) followed by
    (j+1, k-1) unless j is terminal, summarised bottom-up over k; (0, k-1)
    holds a full cylinder, so its copies are a closed form, and the scan
    takes O(n^2) joins whatever beta is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    auto = BetaAutomaton(beta, n)
    # depth-0 subtrees of states 0..n: a leaf is full iff its state is 0, and y_j wide
    level = [_Scan(1, 1, 0, 0.0, 0, 0.0, 0, 0.0)]
    level += [_Scan(1, 0, 1, y, 1, y, 0, 0.0) for _, _, y in map(auto.state, range(1, n + 1))]
    for k in range(1, n + 1):
        copies = {m: _repeat(level[0], m) for m in {*auto.branch_counts, 0}}
        level = [copies[m] if term else _join(copies[m], level[j + 1])
                 for j, (m, term, _) in enumerate(map(auto.state, range(n - k + 1)))]
    scan = level[0]
    if not scan.fulls:
        raise PrecisionExhausted("no full cylinder found in the scan")
    return {
        "count": scan.count,
        "full_count": scan.fulls,
        "max_nonfull_run": max(scan.head_run, scan.inner_run, scan.tail_run),
        "max_gap": scan.inner_w * auto.beta ** -n,
    }


def _ball_arcs(a: float, r: float) -> list[tuple[float, float]]:
    """B(a, r) on the torus as subintervals of [0, 1)."""
    if r >= 0.5:
        return [(0.0, 1.0)]
    lo, hi = a - r, a + r
    if lo < 0:
        return [(0.0, hi), (lo + 1.0, 1.0)]
    if hi > 1:
        return [(0.0, hi - 1.0), (lo, 1.0)]
    return [(lo, hi)]


def preimage_piece_bound(beta, n: int, a: float, r: float) -> float:
    """Upper bound on the pieces of T_beta^{-n}(B(a, r)), |beta| > 1.

    Each arc of the ball leaves at most one piece in each order-n
    cylinder: count_cylinders(beta, n) of them for beta > 1, at most
    (floor|beta| + 1)^n for beta < -1.  Past ``MAX_EXPLICIT`` the bound is
    inf, found from logs (there are at least beta^n cylinders) without
    building the automaton.
    """
    if n < 0:
        raise ValueError("the order must be >= 0")
    arcs = len(_ball_arcs(a % 1.0, r))
    b = beta_float(beta)
    rate = math.log(b) if b > 1 else math.log(math.floor(-b) + 1)
    if n * rate + math.log(arcs) > math.log(MAX_EXPLICIT):
        return math.inf
    return arcs * (count_cylinders(beta, n) if b > 1 else (math.floor(-b) + 1) ** n)


def preimage_sweep(beta, n: int, a: float, r: float):
    """Yield T_beta^{-k}(B(a, r)) for k = 0, 1, ..., n as (lo, hi) arrays.

    Each lag costs one :func:`_pullback` of the one before.  The pieces
    come out sorted by lo, each inside a single order-k cylinder and of
    length at most 2 r |beta|^{-k}; pieces are never merged across
    cylinder boundaries.  A sweep whose last lag could pass
    ``MAX_EXPLICIT`` pieces raises PieceCapExceeded before it allocates.
    """
    if n < 0:
        raise ValueError("the lag n must be >= 0")
    if not (0 < r < 0.5 or n == 0):
        if not 0 < r:
            raise ValueError("radius must be positive")
        if r >= 0.5:
            raise ValueError("radius must be < 1/2")
    b = beta_float(beta)
    if abs(b) <= 1:
        raise ValueError("|beta| must be > 1")
    if n > 0 and preimage_piece_bound(beta, n, a, r) > MAX_EXPLICIT:
        raise PieceCapExceeded(
            f"T^-{n} of the ball may have more than the {MAX_EXPLICIT} pieces "
            "that can be materialized"
        )
    arcs = _ball_arcs(a % 1.0, r)
    lo = np.array([p[0] for p in arcs])
    hi = np.array([p[1] for p in arcs])
    yield lo, hi
    for _ in range(n):
        lo, hi = _pullback(b, lo, hi)
        yield lo, hi


def preimage_intervals(beta, n: int, a: float, r: float) -> np.ndarray:
    """T_beta^{-n}(B(a, r)) as an (m, 2) float64 array of (lo, hi) rows:
    the last lag of :func:`preimage_sweep`."""
    for lo, hi in preimage_sweep(beta, n, a, r):
        pass
    return np.column_stack((lo, hi))


def _pullback(b: float, lo: np.ndarray, hi: np.ndarray):
    """One inverse branch expansion of a union of intervals in [0,1).

    Sorted pieces stay sorted: the cells are joined in increasing j, each
    inverse branch is monotone, and a block from a decreasing branch
    (b < 0) is reversed.  On a full branch, (j + 1) / |b| <= 1, the
    preimage of [0, 1] is the cell itself, so no clip is needed.
    """
    absb = abs(b)
    num_cells = math.floor(absb) + 1
    outs_lo = []
    outs_hi = []
    for j in range(num_cells):
        if b > 0:
            # T(x) = b x - j on the cell
            cand_lo = (lo + j) / b
            cand_hi = (hi + j) / b
        else:
            # T(x) = b x + j + 1 on the cell (b < 0 reverses orientation)
            cand_lo = (hi - (j + 1)) / b
            cand_hi = (lo - (j + 1)) / b
        if (j + 1) / absb > 1.0:
            cand_lo = np.maximum(cand_lo, j / absb)
            cand_hi = np.minimum(cand_hi, 1.0)
        keep = cand_hi - cand_lo > 1e-16
        if not keep.all():
            cand_lo, cand_hi = cand_lo[keep], cand_hi[keep]
        if b < 0:
            cand_lo, cand_hi = cand_lo[::-1], cand_hi[::-1]
        outs_lo.append(cand_lo)
        outs_hi.append(cand_hi)
    return np.concatenate(outs_lo), np.concatenate(outs_hi)
