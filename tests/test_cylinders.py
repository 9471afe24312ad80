"""Cylinder structure tests: counts, fullness, gaps, preimages."""

import math

import numpy as np
import pytest

from oracles import cylinders_automaton, cylinders_of_order, cylinders_refine
from shrinktarget import cylinders
from shrinktarget.cylinders import (
    BetaAutomaton,
    _EMPTY_SCAN,
    _Scan,
    _join,
    _repeat,
    count_cylinders,
    full_cylinder_stats,
    preimage_intervals,
    preimage_piece_bound,
    preimage_sweep,
    MAX_EXPLICIT,
)
from shrinktarget.errors import PieceCapExceeded
from shrinktarget.orbits import beta_float

GOLDEN = (1 + math.sqrt(5)) / 2


class TestCounts:
    def test_dyadic_full_shift(self):
        cyls = cylinders_of_order(2, 3)
        assert len(cyls) == 8
        assert all(c.full for c in cyls)

    def test_golden_fibonacci_count(self):
        # oracle: direct enumeration by interval refinement
        assert count_cylinders("g", 2) == 3
        assert len(cylinders_refine(GOLDEN, 2)) == 3
        # Fibonacci growth: counts follow c(n) = c(n-1) + c(n-2)
        counts = [count_cylinders("g", n) for n in range(1, 12)]
        for a, b, c in zip(counts, counts[1:], counts[2:]):
            assert c == a + b

    def test_signed_golden_token(self):
        assert count_cylinders("+g", 10) == count_cylinders("g", 10) == 144

    def test_two_point_five_by_hand(self):
        cyls = cylinders_of_order(2.5, 1)
        assert [(c.left, c.right) for c in cyls] == [(0.0, 0.4), (0.4, 0.8), (0.8, 1.0)]

    def test_count_bound_all_betas(self):
        for beta, bf in [("g", GOLDEN), (1.8, 1.8), ("e", math.e), (2.5, 2.5)]:
            for n in range(1, 21):
                assert count_cylinders(beta, n) <= bf ** (n + 1) / (bf - 1)

    def test_engines_agree(self):
        for beta, bf in [("g", GOLDEN), (1.8, 1.8), (2.5, 2.5)]:
            a = cylinders_automaton(beta, 6)
            b = cylinders_refine(bf, 6)
            assert len(a) == len(b)
            assert np.allclose([c.left for c in a], [c.left for c in b], atol=1e-9)
            assert [c.full for c in a] == [c.full for c in b]


class TestPartition:
    @pytest.mark.parametrize("beta", ["g", 1.8, 2.5, "e", 3])
    def test_cover_and_total_length(self, beta):
        cyls = cylinders_of_order(beta, 6)
        assert cyls[0].left == 0.0
        for a, b in zip(cyls, cyls[1:]):
            assert b.left == pytest.approx(a.right, abs=1e-12)
        assert cyls[-1].right == pytest.approx(1.0, abs=1e-12)
        total = sum(c.length for c in cyls)
        assert abs(total - 1.0) < 2 ** -40

    def test_slope_relation(self):
        # the n-step image has length |beta|^n * cylinder length
        for c in cylinders_of_order(1.8, 5):
            img = c.image[1] - c.image[0]
            assert img == pytest.approx(c.length * 1.8 ** 5, rel=1e-9)

    def test_negative_beta_partition(self):
        cyls = cylinders_of_order(-GOLDEN, 4)
        assert sum(c.length for c in cyls) == pytest.approx(1.0, abs=1e-10)
        for a, b in zip(cyls, cyls[1:]):
            assert b.left == pytest.approx(a.right, abs=1e-10)


class TestFullness:
    def test_golden_words(self):
        cyls = cylinders_of_order("g", 1)
        assert cyls[0].word == (0,) and cyls[0].full
        assert cyls[1].word == (1,) and not cyls[1].full

    def test_two_point_five_last_cell(self):
        cyls = cylinders_of_order(2.5, 1)
        assert not cyls[2].full
        assert cyls[2].image[1] - cyls[2].image[0] == pytest.approx(0.5, abs=1e-12)


def doubled(scan, m):
    """Oracle: ``m`` copies of ``scan`` joined by doubling."""
    out = _EMPTY_SCAN
    while m:
        if m & 1:
            out = _join(out, scan)
        scan, m = _join(scan, scan), m >> 1
    return out


class TestFullCylinderGap:
    def test_dyadic_all_full(self):
        assert full_cylinder_stats(2, 5)["max_gap"] == 0.0

    @pytest.mark.parametrize("beta,bf,n", [
        ("g", GOLDEN, 10), (1.8, 1.8, 8), ("e", math.e, 7), (2.5, 2.5, 7), ("5/2", 2.5, 7),
        (1.05, 1.05, 25), (2, 2.0, 6), (7.5, 7.5, 4),
    ])
    def test_gap_vs_enumeration_oracle(self, beta, bf, n):
        # oracle: explicit ordered list, fullness flags, direct run and gap scan
        for order in range(1, n + 1):
            cyls = cylinders_of_order(beta, order)
            gaps, runs = [], [0]
            run_start = None
            for c in cyls:
                if c.full:
                    if run_start is not None:
                        gaps.append(c.left - run_start)
                    run_start = c.right
                    runs.append(0)
                else:
                    runs[-1] += 1
            stats = full_cylinder_stats(beta, order)
            assert stats["count"] == len(cyls)
            assert stats["full_count"] == sum(c.full for c in cyls)
            assert stats["max_nonfull_run"] == max(runs)
            assert stats["max_gap"] == pytest.approx(max(gaps, default=0.0), rel=1e-9, abs=1e-15)
            assert stats["max_gap"] < (order + 1) * bf ** -order

    def test_join_is_the_direct_scan(self):
        # oracle: random rows of full (width 1) and non-full cylinders, scanned
        # directly, against a random bracketing of their leaf joins
        rng = np.random.default_rng(5)

        def leaf(full, w):
            return _Scan(1, 1, 0, 0.0, 0, 0.0, 0, 0.0) if full else _Scan(1, 0, 1, w, 1, w, 0, 0.0)

        def fold(scans):
            if len(scans) <= 1:
                return scans[0] if scans else _EMPTY_SCAN
            cut = int(rng.integers(0, len(scans) + 1))
            return _join(fold(scans[:cut]), fold(scans[cut:]))

        for _ in range(300):
            size = int(rng.integers(0, 25))
            fulls = rng.random(size) < rng.random()
            widths = rng.integers(1, 8, size) / 8.0
            runs, gaps, run, w, seen = [0], [], 0, 0.0, False
            for full, width in zip(fulls, widths):
                if full:
                    runs.append(run)
                    if seen:
                        gaps.append(w)
                    run, w, seen = 0, 0.0, True
                else:
                    run, w = run + 1, w + width
            runs.append(run)
            scan = fold([leaf(f, x) for f, x in zip(fulls, widths)])
            assert (scan.count, scan.fulls) == (size, int(fulls.sum()))
            assert max(scan.head_run, scan.inner_run, scan.tail_run) == max(runs)
            assert scan.inner_w == max(gaps, default=0.0)
            if scan.fulls:
                assert (scan.head_run, scan.tail_run) == (runs[1], runs[-1])
            if scan.fulls:
                for m in range(6):
                    assert _repeat(scan, m) == doubled(scan, m)

    @pytest.mark.parametrize("beta, n", [("g", 120), ("e", 120), (1.8, 120), (2.5, 120),
                                         (1.05, 120), ("5/2", 60), (7.5, 60), (100.5, 60),
                                         (1000.3, 30)])
    def test_closed_form_repeats_are_the_doubling(self, monkeypatch, beta, n):
        # the same float additions in the same order: the stats are equal, not close
        closed = full_cylinder_stats(beta, n)
        monkeypatch.setattr(cylinders, "_repeat", doubled)
        assert closed == full_cylinder_stats(beta, n)

    @pytest.mark.parametrize("beta,bf", [("g", GOLDEN), ("e", math.e), (1.8, 1.8), (1.05, 1.05)])
    def test_deep_scan(self, beta, bf):
        # n = 300 is far past any enumeration: the subtree summaries keep it polynomial
        n = 300
        stats = full_cylinder_stats(beta, n)
        assert stats["count"] == count_cylinders(beta, n)
        assert 0 < stats["full_count"] < stats["count"]
        assert stats["max_nonfull_run"] <= n
        assert 0 < stats["max_gap"] < (n + 1) * bf ** -n

    @pytest.mark.parametrize("beta", ["g", 1.8, "e", 2.5])
    def test_window_property_module_scale(self, beta):
        for n in range(1, 13):
            stats = full_cylinder_stats(beta, n)
            assert stats["max_nonfull_run"] <= n


class TestPreimages:
    def test_doubling_hand_computation(self):
        pieces = preimage_intervals(2, 1, 0, 0.25)
        assert pieces.tolist() == [[0.0, 0.125], [0.375, 0.5], [0.5, 0.625], [0.875, 1.0]]

    def test_identity_at_order_zero(self):
        assert preimage_intervals(2, 0, 0.3, 0.1).tolist() == [[pytest.approx(0.2), pytest.approx(0.4)]]

    def test_piece_lengths_golden(self):
        pieces = preimage_intervals("g", 3, 0.5, 0.05)
        bound = 2 * 0.05 * GOLDEN ** -3
        assert all(hi - lo <= bound * (1 + 1e-12) for lo, hi in pieces)

    @pytest.mark.parametrize("beta", [2.0, GOLDEN, -GOLDEN, -2.0, 2.5])
    def test_membership_oracle(self, beta):
        # forward-map points of each piece and check they land in the ball;
        # points outside every piece must miss it
        rng = np.random.default_rng(3)
        n, a, r = 3, 0.37, 0.08
        pieces = preimage_intervals(beta, n, a, r)
        if float(beta).is_integer():
            # Lebesgue measure is preserved only for integer slopes
            total = sum(hi - lo for lo, hi in pieces)
            assert total == pytest.approx(2 * r, rel=1e-9)
        for lo, hi in pieces[:: max(1, len(pieces) // 12)]:
            x = (lo + hi) / 2
            y = x
            for _ in range(n):
                y = (beta * y) % 1.0
            dist = min(abs(y - a), 1 - abs(y - a))
            assert dist <= r + 1e-9
        for _ in range(200):
            x = float(rng.random())
            if any(lo - 1e-9 <= x <= hi + 1e-9 for lo, hi in pieces):
                continue
            y = x
            for _ in range(n):
                y = (beta * y) % 1.0
            dist = min(abs(y - a), 1 - abs(y - a))
            assert dist > r - 1e-9

    def test_pieces_within_cylinders(self):
        pieces = preimage_intervals(1.8, 4, 0.2, 0.05)
        cyls = cylinders_of_order(1.8, 4)
        for lo, hi in pieces:
            assert any(c.left - 1e-12 <= lo and hi <= c.right + 1e-12 for c in cyls)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            preimage_intervals(2, 1, 0.5, 0.6)
        with pytest.raises(ValueError):
            preimage_intervals(2, 1, 0.5, -0.1)


def _scratch_preimage(beta, n, arcs):
    """T^-n of the arcs rebuilt from scratch, clipped to every cell and
    argsorted at the end: the desk-scale oracle of the sweep."""
    b = beta_float(beta)
    absb = abs(b)
    lo = np.array([p[0] for p in arcs])
    hi = np.array([p[1] for p in arcs])
    for _ in range(n):
        outs_lo, outs_hi = [], []
        for j in range(math.floor(absb) + 1):
            if b > 0:
                cand_lo, cand_hi = (lo + j) / b, (hi + j) / b
            else:
                cand_lo, cand_hi = (hi - (j + 1)) / b, (lo - (j + 1)) / b
            clip_lo = np.maximum(cand_lo, j / absb)
            clip_hi = np.minimum(cand_hi, min((j + 1) / absb, 1.0))
            keep = clip_hi - clip_lo > 1e-16
            outs_lo.append(clip_lo[keep])
            outs_hi.append(clip_hi[keep])
        lo, hi = np.concatenate(outs_lo), np.concatenate(outs_hi)
    order = np.argsort(lo, kind="stable")
    return np.column_stack((lo, hi))[order]


class TestPreimageSweep:
    # (a, r): F = [0.2, 0.7] does not wrap, B(0.9, 0.25) and B(0.05, 0.1) do
    BALLS = [(0.45, 0.25), (0.9, 0.25), (0.05, 0.1)]

    @pytest.mark.parametrize("beta, depth", [("g", 20), ("5/2", 11), (3, 9), (-1.8, 14)])
    @pytest.mark.parametrize("a, r", BALLS)
    def test_every_lag_is_the_scratch_pullback(self, beta, depth, a, r):
        arcs = [tuple(p) for p in preimage_intervals(beta, 0, a, r)]
        for k, (lo, hi) in enumerate(preimage_sweep(beta, depth, a, r)):
            oracle = _scratch_preimage(beta, k, arcs)
            assert np.array_equal(np.column_stack((lo, hi)), oracle)
            assert np.all(np.diff(lo) > 0) and np.all(hi[:-1] <= lo[1:])
        assert k == depth
        assert np.array_equal(preimage_intervals(beta, depth, a, r), oracle)

    def test_piece_bound(self):
        assert preimage_piece_bound("g", 27, 0.3, 0.1) == count_cylinders("g", 27) == 514229
        assert preimage_piece_bound("g", 27, 0.05, 0.1) == 2 * 514229  # two arcs
        assert preimage_piece_bound(-1.8, 20, 0.3, 0.1) == 2 ** 20
        # beta^n alone passes the cap: no automaton is built
        assert preimage_piece_bound(3, 25, 0.3, 0.1) == math.inf
        for beta, n, a, r in [("g", 5, 0.3, 0.1), (2.5, 4, 0.05, 0.1), (-1.8, 6, 0.9, 0.2)]:
            assert len(preimage_intervals(beta, n, a, r)) <= preimage_piece_bound(beta, n, a, r)

    @pytest.mark.parametrize("beta, n, a, r", [
        (3, 25, 0.25, 0.25), (2, 21, 0.3, 0.1), ("g", 30, 0.3, 0.1),
        ("g", 29, 0.05, 0.1), (-2.5, 16, 0.3, 0.1),
    ])
    def test_cap_refuses_before_allocating(self, beta, n, a, r):
        # the first next() raises, before lag 0 is yielded
        with pytest.raises(PieceCapExceeded):
            next(preimage_sweep(beta, n, a, r))
        with pytest.raises(ValueError):
            preimage_intervals(beta, n, a, r)

    def test_negative_lags_are_refused(self):
        # T^-n for n < 0 is no pullback; F's own arcs would pass for it
        for n in (-1, -3):
            with pytest.raises(ValueError, match=">= 0"):
                next(preimage_sweep("g", n, 0.45, 0.25))
            with pytest.raises(ValueError, match=">= 0"):
                preimage_intervals("g", n, 0.45, 0.25)

    def test_cap_admits_its_edge(self):
        assert preimage_piece_bound("g", 29, 0.3, 0.1) <= MAX_EXPLICIT
        assert preimage_piece_bound(2, 20, 0.3, 0.1) <= MAX_EXPLICIT
        assert preimage_piece_bound(10, 6, 0.3, 0.1) <= MAX_EXPLICIT < \
            preimage_piece_bound(10, 7, 0.3, 0.1)


class TestAutomaton:
    def test_golden_orbit_terminates(self):
        auto = BetaAutomaton("g", 10)
        # expansion of 1 under the golden map is finite: 1 -> g-1 -> 0
        assert len(auto.branch_counts) == 2
        assert auto.terminal[-1]

    def test_integer_base_is_full_shift(self):
        auto = BetaAutomaton(3, 6)
        assert len(auto.branch_counts) == 1
        assert auto.branch_counts == [3]
        assert auto.count(6) == 3 ** 6

    def test_count_past_the_recursion_limit(self):
        # golden counts are Fibonacci numbers, N_n = F_(n+2), at any depth
        fib = [0, 1]
        while len(fib) < 3003:
            fib.append(fib[-1] + fib[-2])
        assert count_cylinders("g", 3000) == fib[3002]
        # a long orbit of 1: each count against the enumerated cylinders
        for n in range(1, 9):
            assert count_cylinders(1.3, n) == len(cylinders_refine(1.3, n))
        assert count_cylinders(1.01, 1500) > 1.01 ** 1500

    def test_negative_orders_are_refused(self):
        # N_-1 is no count, and an orbit of 1 shorter than one point has no states
        auto = BetaAutomaton(2, 3)
        for n in (-1, -3):
            with pytest.raises(ValueError, match=">= 0"):
                auto.count(n)
            with pytest.raises(ValueError, match=">= 0"):
                count_cylinders(2, n)
            with pytest.raises(ValueError, match=">= 1"):
                full_cylinder_stats("g", n)
        for beta in (2, -1.8):  # (floor|beta| + 1)^-2 is no bound either
            with pytest.raises(ValueError, match=">= 0"):
                preimage_piece_bound(beta, -2, 0.3, 0.1)
        assert count_cylinders(2, 0) == auto.count(0) == 1
