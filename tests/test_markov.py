"""Markov subsystem tests: construction, certificates, word counts."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shrinktarget import markov
from shrinktarget.cli import main
from shrinktarget.errors import PieceCapExceeded, SlopeTooSmall
from shrinktarget.markov import (
    CONTAINMENT_SLACK,
    MAX_DENSE_ENTRIES,
    PiecewiseLinearMap,
    _compose,
    beta_map,
    build_markov,
    entropy_and_dim,
    eventually_onto_search,
    is_primitive,
    normalize_partition,
    perron_bounds,
    power_map,
    verify_markov,
    word_count,
)
from shrinktarget.measures import SupportSet

G = (1 + math.sqrt(5)) / 2


class TestPiecewiseLinearMap:
    def test_beta_map_shape(self):
        pl = beta_map(10)
        assert pl.num_pieces == 10
        assert pl.slope_modulus == 10.0
        assert pl.apply(0.35) == pytest.approx(3.5 % 1)

    def test_negative_beta_map(self):
        pl = beta_map(-2.5)
        assert pl.slope_modulus == 2.5
        for x in (0.1, 0.45, 0.83):
            assert pl.apply(x) == pytest.approx((-2.5 * x) % 1, abs=1e-12)

    def test_constant_slope_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 0.5, 1.0), (2.0, 3.0), (0.0, -1.5))


class TestPowerMap:
    def test_dyadic_powers(self):
        pl = power_map(2, 3)
        assert pl.num_pieces == 8
        assert pl.slope_modulus == 8.0

    def test_golden_fifth_power(self):
        pl = power_map("-g", 5)
        assert pl.slope_modulus == pytest.approx(G ** 5, rel=1e-12)
        assert pl.num_pieces <= 2 ** 5
        # composition agrees with direct iteration away from breakpoints
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = float(rng.random())
            if min(abs(x - float(b)) for b in pl.breakpoints) < 1e-9:
                continue
            y = x
            for _ in range(5):
                y = (-G * y) % 1.0
            assert pl.apply(x) == pytest.approx(y, abs=1e-9)

    def test_three_squared(self):
        pl = power_map(3, 2)
        assert pl.num_pieces == 9
        assert pl.slope_modulus == 9.0

    @pytest.mark.parametrize("b, k", [
        (b, k) for b in (2, 3, 7, 10, -2, -3) for k in range(1, 13) if abs(b) ** k <= 5000])
    def test_integer_power_is_the_composed_map(self, b, k):
        # T_b^k = T_{b^k} for an integer b: the direct map equals the
        # explicit chain of compositions, field for field and exactly
        base = beta_map(b)
        chain = base
        for _ in range(k - 1):
            chain = _compose(base, chain)
        pl = power_map(b, k)
        assert (pl.breakpoints, pl.slopes, pl.intercepts) == \
            (chain.breakpoints, chain.slopes, chain.intercepts)
        assert all(isinstance(v, Fraction)
                   for v in (*pl.breakpoints, *pl.slopes, *pl.intercepts))

    @pytest.mark.parametrize("k, fib", [(5, 13), (7, 34), (10, 144)])
    def test_golden_powers_have_no_slivers(self, k, fib):
        # T_g^k has F(k+2) pieces; float crossings that duplicate a
        # breakpoint must not leave ~1e-17 slivers behind
        pl = power_map("g", k)
        assert pl.num_pieces == fib
        assert min(pl.piece_lengths()) > 1e-6


class TestNormalizePartition:
    def test_balanced_unchanged(self):
        pl = PiecewiseLinearMap((0.0, 0.5, 1.0), (2.0, 2.0), (0.0, -1.0))
        assert normalize_partition(pl).num_pieces == 2

    def test_subdivision_rule(self):
        pl = PiecewiseLinearMap((Fraction(0), Fraction(1, 10), Fraction(1)),
                                (Fraction(-11, 10), Fraction(11, 10)),
                                (Fraction(11, 100), Fraction(-11, 100)))
        norm = normalize_partition(pl)
        lengths = [float(v) for v in norm.piece_lengths()]
        # the 0.9 piece splits into 2^3 = 8 equal parts of 0.1125
        assert norm.num_pieces == 9
        assert lengths[1:] == pytest.approx([0.1125] * 8)
        kappa = min(lengths)
        assert max(lengths) <= 2 * kappa

    def test_beta_ten_already_uniform(self):
        assert normalize_partition(beta_map(10)).num_pieces == 10


class TestBuildMarkov:
    def test_normalization_past_the_dense_cap_is_refused(self):
        # 8 pieces of length 1/8.0001 against one of 0.0001/8.0001: 65537 pieces
        with pytest.raises(PieceCapExceeded, match="65537 pieces"):
            normalize_partition(beta_map(Fraction(80001, 10000)))
        assert 5792 ** 2 <= MAX_DENSE_ENTRIES < 5793 ** 2
        assert normalize_partition(power_map("g", 17)).num_pieces == 4181
        with pytest.raises(PieceCapExceeded, match="6765 pieces"):
            normalize_partition(power_map("g", 18))

    def test_slope_boundary(self):
        with pytest.raises(SlopeTooSmall):
            build_markov(beta_map(8))

    @pytest.mark.parametrize("beta", [9, 10, 16, 100])
    def test_construction_certificates(self, beta):
        ms = build_markov(beta_map(beta))
        assert ms.size >= 1
        assert all(b > a for a, b in ms.pieces), "non-empty trimmed pieces"
        needed = math.floor(beta / 2) - 2
        assert min(hi - lo for lo, hi in ms.rows) >= max(needed, 1)
        assert ms.certificates["dim_lb"] == pytest.approx(1 - math.log(8) / math.log(beta))
        problems = verify_markov(ms.pieces, normalize_partition(beta_map(beta)))
        assert problems == []

    def test_beta_ten_specifics(self):
        ms = build_markov(beta_map(10))
        assert min(hi - lo for lo, hi in ms.rows) >= 2
        assert ms.certificates["dim_lb"] == pytest.approx(0.0969, abs=1e-4)

    def test_beta_hundred_full_matrix(self):
        ms = build_markov(beta_map(100))
        assert ms.rows == ((0, ms.size),) * ms.size
        assert ms.certificates["dim_lb"] == pytest.approx(0.5485, abs=1e-4)

    def test_irrational_slope_power_map(self):
        # golden map to the fifth power: slope g^5 ~ 11.09 > 8
        pl = power_map("-g", 5)
        ms = build_markov(pl)
        assert min(hi - lo for lo, hi in ms.rows) >= 1
        problems = verify_markov(ms.pieces, normalize_partition(pl))
        assert problems == []

    def test_golden_fifth_power_from_argv(self, tmp_path):
        assert main(["markov", "--beta", "g", "--power", "5", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "markov.json").read_text())
        pieces = [tuple(p) for p in data["pieces"]]
        assert verify_markov(pieces, power_map("g", 5)) == []

    def test_checker_catches_violations(self):
        pl = beta_map(10)
        # overlapping fake pieces must be flagged
        bad = [(0.0, 0.2), (0.1, 0.3)]
        assert verify_markov(bad, pl)


def _pairwise_rows(ms, norm, slack):
    """Row j = {k : P(k) inside T(P(j))}, one containment test per pair.

    P(j) lies in linearity piece j of ``norm``.  ``ms.pieces`` are floats;
    for exact maps that rounding needs a tolerance, so every excluded
    piece must also stick out of the image by far more than it.
    """
    tol = max(slack, 1e-12)
    rows = []
    for j, (a, b) in enumerate(ms.pieces):
        s, t = float(norm.slopes[j]), float(norm.intercepts[j])
        u, v = sorted((s * a + t, s * b + t))
        row = []
        for k, (c, d) in enumerate(ms.pieces):
            if c >= u - tol and d <= v + tol:
                row.append(k)
            else:
                assert max(u - c, d - v) > 1e-9, (j, k)
        rows.append(row)
    return rows


class TestMarkovRuns:
    @pytest.mark.parametrize("pl", [
        beta_map(9), beta_map(Fraction(19, 2)), beta_map(10), beta_map(12),
        beta_map(-10), power_map(9, 2),
    ], ids=["9", "9.5", "10", "12", "-10", "9^2"])
    def test_exact_runs_match_pairwise(self, pl):
        self._check(pl, 0)

    @pytest.mark.parametrize("beta, k", [("e", 3), ("-e", 3), ("g", 5)])
    def test_float_runs_match_pairwise(self, beta, k):
        self._check(power_map(beta, k), CONTAINMENT_SLACK)

    @staticmethod
    def _check(pl, slack):
        assert isinstance(pl.breakpoints[1], Fraction) == (slack == 0)
        ms = build_markov(pl)
        expected = _pairwise_rows(ms, normalize_partition(pl), slack)
        assert [list(range(lo, hi)) for lo, hi in ms.rows] == expected
        assert [hi - lo for lo, hi in ms.rows] == [len(row) for row in expected]
        assert ms.certificates["row_min"] == min(len(row) for row in expected)

    def test_thousand_pieces(self):
        ms = build_markov(power_map(10, 3))
        assert ms.size == 1000
        assert min(hi - lo for lo, hi in ms.rows) >= 3


def _dense(rows):
    """The 0/1 transition matrix A[j][k] = [lo_j <= k < hi_j] of the runs."""
    k = np.arange(len(rows))
    return np.array([(lo <= k) & (k < hi) for lo, hi in rows], dtype=np.int64)


def _dense_word_count(rows, n):
    """Admissible words of length n: big-integer DP over the dense 0/1 matrix."""
    m = len(rows)
    matrix = _dense(rows).tolist()
    vec = [1] * m
    for _ in range(n - 1):
        vec = [sum(matrix[j][k] * vec[k] for k in range(m)) for j in range(m)]
    return sum(vec)


class TestWordCount:
    # transition runs (lo, hi): row j allows the k with lo <= k < hi
    def test_full_shift(self):
        assert word_count(((0, 2), (0, 2)), 5) == 32

    def test_identity(self):
        assert word_count(((0, 1), (1, 2), (2, 3)), 4) == 3

    def test_single_letter(self):
        assert word_count(((0, 2), (0, 2)), 1) == 2

    @pytest.mark.parametrize("beta", [9, 10, 16])
    def test_growth_bound(self, beta):
        ms = build_markov(beta_map(beta))
        m = ms.size
        for n in range(1, 13):
            assert word_count(ms.rows, n) >= m * (beta / 2 - 3) ** (n - 1)

    @pytest.mark.parametrize("pl", [
        beta_map(10), power_map(3, 2), power_map("g", 5), power_map("-g", 5),
    ], ids=["10", "3^2", "g^5", "-g^5"])
    def test_matches_the_dense_dp(self, pl):
        rows = build_markov(pl).rows
        for n in range(1, 7):
            assert word_count(rows, n) == _dense_word_count(rows, n)

    @pytest.mark.parametrize("beta", ["g", "-g"])
    def test_dense_dp_catches_a_widened_row(self, beta):
        # every row of T_10 and T_3^2 is full; the golden powers' are not
        rows = build_markov(power_map(beta, 5)).rows
        m = len(rows)
        for j, (lo, hi) in enumerate(rows):
            if hi - lo < m:
                wide = (lo, hi + 1) if hi < m else (lo - 1, hi)
                widened = rows[:j] + (wide,) + rows[j + 1:]
                assert all(word_count(widened, n) != _dense_word_count(rows, n)
                           for n in range(2, 7))

    @pytest.mark.parametrize("pl", [beta_map(10), power_map(3, 2), power_map("-g", 5)],
                             ids=["10", "3^2", "-g^5"])
    def test_perron_bounds_are_the_row_sums(self, pl):
        ms = build_markov(pl)
        sums = _dense(ms.rows).sum(axis=1)
        assert perron_bounds(ms.rows) == (float(sums.min()), float(sums.max()))


def _primitive_stepwise(matrix):
    """The definition: the least k <= (m-1)^2 + 1 with A^k > 0."""
    a = np.asarray(matrix, dtype=np.int64)
    power = a.copy()
    for k in range(1, (len(a) - 1) ** 2 + 2):
        if np.all(power > 0):
            return True, k
        power = np.minimum(power @ a, 1)
    return False, None


def _dense_entropy(matrix, beta_modulus):
    """Power iteration on the dense matrix, stopped as entropy_and_dim stops."""
    a = np.asarray(matrix, dtype=np.float64)
    v = np.ones(len(a)) / math.sqrt(len(a))
    prev = 0.0
    for _ in range(markov._PERRON_MAX_ITER):
        w = a @ v
        v = w / np.linalg.norm(w)
        rho = float(v @ (a @ v))
        if abs(rho - prev) < markov.PERRON_TOL:
            h = math.log(rho)
            return h, h / math.log(abs(beta_modulus))
        prev = rho
    raise AssertionError("the dense power iteration did not converge")


def _wielandt(m):
    """Runs of Wielandt's matrix: j -> j + 1, and the last row -> {0, 1}."""
    return tuple((j + 1, j + 2) for j in range(m - 1)) + ((0, 2),)


# built subsystems by least witness power: 1, 2, 3 and none
_BUILT = {
    "10": (10, 1), "7^3": (7, 3), "-5/2^3": (Fraction(-5, 2), 3), "g^12": ("g", 12),
    "5/2^3": (Fraction(5, 2), 3), "-g^5": ("-g", 5), "-e^3": ("-e", 3),
}


class TestPrimitivity:
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_wielandt_exponent(self, m):
        rows = _wielandt(m)
        assert is_primitive(rows) == _primitive_stepwise(_dense(rows)) == (True, (m - 1) ** 2 + 1)

    # each matrix as its runs
    @pytest.mark.parametrize("matrix", [
        ((1, 2), (2, 3), (3, 4), (4, 5), (0, 1)),  # cyclic permutation
        ((0, 2), (0, 2), (1, 3)),  # reducible: only 2 reaches 2
        ((0, 2), (0, 1), (0, 2)),  # zero column
        ((0, 3), (0, 0), (0, 3)),  # zero row
        ((0, 2), (1, 3), (0, 1)),  # primitive
        ((0, 0),), ((0, 1),),
    ])
    def test_matches_stepwise(self, matrix):
        assert is_primitive(matrix) == _primitive_stepwise(_dense(matrix))

    def test_built_subsystem_matches_stepwise(self):
        for beta, k in _BUILT.values():
            rows = build_markov(power_map(beta, k)).rows
            assert is_primitive(rows) == _primitive_stepwise(_dense(rows)), (beta, k)

    def test_built_subsystems_cover_every_exit(self):
        witnesses = {name: is_primitive(build_markov(power_map(*bk)).rows)[1]
                     for name, bk in _BUILT.items()}
        assert witnesses == {"10": 1, "7^3": 1, "-5/2^3": 2, "g^12": 2,
                             "5/2^3": 3, "-g^5": None, "-e^3": None}

    def test_repeated_support_exits_early(self, monkeypatch):
        # m = 610: Wielandt allows 609^2 + 1 powers, but A^3 has the support of A^2
        rows = build_markov(power_map("-g", 12)).rows
        product = markov._run_product
        calls = []

        def counted(lo, hi, x):
            calls.append(x.shape)
            return product(lo, hi, x)

        monkeypatch.setattr(markov, "_run_product", counted)
        assert is_primitive(rows) == (False, None)
        assert calls == [(610, 610)] * 3

    def test_malformed_runs_are_refused(self):
        for rows in (((0, 3), (0, 2)), ((1, 0), (0, 2)), ((-1, 1), (0, 2))):
            with pytest.raises(ValueError, match="runs"):
                is_primitive(rows)

    def test_all_ones(self):
        assert is_primitive(((0, 2), (0, 2))) == (True, 1)

    def test_permutation_cycle(self):
        assert is_primitive(((1, 2), (0, 1))) == (False, None)

    def test_fibonacci(self):
        ok, k = is_primitive(((0, 2), (0, 1)))
        assert ok and k == 2

    def test_built_subsystem(self):
        ms = build_markov(beta_map(10))
        ok, k = is_primitive(ms.rows)
        assert ok and k <= 2


class TestEntropyAndDim:
    def test_full_shift(self):
        h, dim = entropy_and_dim(((0, 2), (0, 2)), 2)
        assert h == pytest.approx(math.log(2), abs=1e-12)
        assert dim == pytest.approx(1.0, abs=1e-12)

    def test_fibonacci_golden(self):
        h, dim = entropy_and_dim(((0, 2), (0, 1)), G)
        assert h == pytest.approx(math.log(G), abs=1e-10)
        assert dim == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("beta", [9, 10, 16, 100])
    def test_sandwich_and_certificates(self, beta):
        ms = build_markov(beta_map(beta))
        h, dim = entropy_and_dim(ms.rows, beta)
        lo, hi = perron_bounds(ms.rows)
        assert math.log(lo) - 1e-9 <= h <= math.log(hi) + 1e-9
        assert h >= math.log(beta / 2 - 3) - 1e-9
        assert dim >= ms.certificates["dim_lb"] - 1e-9

    @pytest.mark.parametrize("name", list(_BUILT))
    def test_matches_the_dense_iteration(self, name):
        ms = build_markov(power_map(*_BUILT[name]))
        got = entropy_and_dim(ms.rows, ms.slope_modulus)
        want = _dense_entropy(_dense(ms.rows), ms.slope_modulus)
        assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestEventuallyOnto:
    def test_doubling_half(self):
        full = SupportSet(((0.0, 1.0),))
        assert eventually_onto_search(beta_map(2), (0.0, 0.5), full) == 1

    def test_dyadic_scaling(self):
        full = SupportSet(((0.0, 1.0),))
        for j in (2, 3, 4, 5):
            assert eventually_onto_search(beta_map(2), (0.0, 2.0 ** -j), full) == j

    def test_golden_interval(self):
        full = SupportSet(((0.0, 1.0),))
        k = eventually_onto_search(beta_map("g"), (0.3, 0.35), full)
        assert k is not None
        # oracle: propagate forward images and verify the cover directly
        pl = beta_map("g")
        current = [(0.3, 0.35)]
        for _ in range(k):
            nxt = []
            for a, b in current:
                nxt.extend(pl.image_of_interval(a, b))
            current = nxt
        covered = np.zeros(4096, dtype=bool)
        xs = (np.arange(4096) + 0.5) / 4096
        for a, b in current:
            covered |= (xs >= float(a) - 1e-9) & (xs <= float(b) + 1e-9)
        assert covered.all()

    def test_not_found_reports_none(self):
        pl = PiecewiseLinearMap((0.0, 0.5, 1.0), (0.9, 0.9), (0.0, -0.4))
        # contracting pieces never cover the interval
        assert eventually_onto_search(pl, (0.2, 0.3), SupportSet(((0.0, 1.0),)),
                                      max_k=10) is None
