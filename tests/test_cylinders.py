"""Cylinder structure tests: counts, fullness, gaps, preimages."""

import math

import numpy as np
import pytest

from shrinktarget.cylinders import (
    BetaAutomaton,
    count_cylinders,
    cylinders_of_order,
    full_cylinder_gap,
    full_cylinder_stats,
    is_full_cylinder,
    preimage_intervals,
    Cylinder,
)
from shrinktarget.errors import Indeterminate

GOLDEN = (1 + math.sqrt(5)) / 2


class TestCounts:
    def test_dyadic_full_shift(self):
        cyls = cylinders_of_order(2, 3)
        assert len(cyls) == 8
        assert all(c.full for c in cyls)

    def test_golden_fibonacci_count(self):
        # oracle: direct enumeration by interval refinement
        assert count_cylinders("g", 2) == 3
        assert len(cylinders_of_order(GOLDEN, 2, engine="refine")) == 3
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
            a = cylinders_of_order(beta, 6, engine="automaton")
            b = cylinders_of_order(bf, 6, engine="refine")
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
        assert cyls[0].word == (0,) and is_full_cylinder(GOLDEN, cyls[0])
        assert cyls[1].word == (1,) and not is_full_cylinder(GOLDEN, cyls[1])

    def test_two_point_five_last_cell(self):
        cyls = cylinders_of_order(2.5, 1)
        assert not is_full_cylinder(2.5, cyls[2])
        assert cyls[2].image[1] - cyls[2].image[0] == pytest.approx(0.5, abs=1e-12)

    def test_indeterminate_band(self):
        # endpoint gap inside the uncertainty window around the threshold
        cyl = Cylinder(2.0, (0,), 0.0, 0.5, full=False,
                       image=(0.0, 1.0 - 0.9 * 2.0 ** -40), uncertainty=0.5 * 2.0 ** -40)
        with pytest.raises(Indeterminate):
            is_full_cylinder(2.0, cyl)


class TestFullCylinderGap:
    def test_dyadic_all_full(self):
        assert full_cylinder_gap(2, 5) == 0.0

    @pytest.mark.parametrize("beta,bf,n", [("g", GOLDEN, 10), (1.8, 1.8, 8)])
    def test_gap_vs_enumeration_oracle(self, beta, bf, n):
        # oracle: explicit ordered list, fullness flags, direct gap scan
        cyls = cylinders_of_order(beta, n)
        gaps = []
        run_start = None
        for c in cyls:
            if c.full:
                if run_start is not None:
                    gaps.append(c.left - run_start)
                run_start = c.right
        oracle_gap = max(gaps) if gaps else 0.0
        stats = full_cylinder_stats(beta, n)
        assert stats["count"] == len(cyls)
        assert stats["full_count"] == sum(c.full for c in cyls)
        assert stats["max_gap"] == pytest.approx(oracle_gap, rel=1e-9, abs=1e-15)
        assert stats["max_gap"] < (n + 1) * bf ** -n

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


class TestAutomaton:
    def test_golden_orbit_terminates(self):
        auto = BetaAutomaton("g", 10)
        # expansion of 1 under the golden map is finite: 1 -> g-1 -> 0
        assert auto.orbit_length == 2
        assert auto.terminal[-1]

    def test_integer_base_is_full_shift(self):
        auto = BetaAutomaton(3, 6)
        assert auto.orbit_length == 1
        assert auto.branch_counts == [3]
        assert auto.count(6) == 3 ** 6
