"""Counting lab tests: hit counts, determinism, mixing, variance."""

import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats

from oracles import interval_from_bounds, iterate
from shrinktarget import counting, targets
from shrinktarget.counting import (
    DigitSource,
    GoldenDigits,
    IntegerDigits,
    _digit_window,
    _digits_to_int,
    _gathered,
    _random_bits,
    _sample_rng,
    _word_table,
    _words,
    correlation_estimate,
    correlation_series,
    count_hits,
    fit_exponential,
    invariant_measure,
    monte_carlo_counting,
    paley_zygmund_bound,
    variance_check,
    window_hits,
)
from shrinktarget.errors import (
    AmbiguityBudgetExceeded, BudgetTooLarge, DegenerateF, PieceCapExceeded,
    PrecisionExhausted, StartLawUnsupported,
)
from shrinktarget.cylinders import preimage_sweep
from shrinktarget.measures import ParryYrrapMeasure, ProductMeasure
from shrinktarget.orbits import (
    DiagonalTorusSystem, IntegerMatrixSystem, UnitRealInterval, as_fraction,
    orbit_enclosures, required_precision, wrap_distance_bounds,
)
from shrinktarget.targets import (
    MARGIN, Containment, RateFunction, TargetSpec, ball, contains, exact_verdict,
    hyperboloid, phi_values, rectangle,
)

G = (1 + math.sqrt(5)) / 2


def brute_force_counts(betas, x, target, n_max):
    """Oracle: exact rational orbit plus direct membership tests."""
    pt = [Fraction(v) for v in x]
    r = 0
    out = []
    for n in range(1, n_max + 1):
        pt = [(Fraction(b) * c) % 1 for b, c in zip(betas, pt)]
        if contains(target, n, [float(c) for c in pt]) == Containment.YES:
            r += 1
        out.append(r)
    return out


class TestCountHits:
    def test_fixed_point_always_hits(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.5, 0.0))
        res = count_hits(s, t, (Fraction(0),), 50)
        assert res.final.r_lo == res.final.r_hi == 50

    def test_zero_steps_trivial(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.5, 0.0))
        res = count_hits(s, t, (Fraction(0),), 0)
        assert res.final.r_lo == 0 and res.final.phi == 0.0

    def test_fixed_point_hits_decaying_targets(self):
        # 0 is fixed and sits inside every shrinking ball centered at 0
        s = DiagonalTorusSystem((2,))
        rate = RateFunction.table([2.0 ** -(n + 1) for n in range(1, 101)])
        t = ball((0.0,), rate)
        res = count_hits(s, t, (Fraction(0),), 100)
        assert res.final.r_lo == 100

    def test_period_two_orbit_never_hits(self):
        # orbit of 1/3 under doubling alternates 2/3, 1/3: distance 1/3 > 1/4
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.25, 0.0))
        res = count_hits(s, t, (Fraction(1, 3),), 200)
        assert res.final.r_lo == res.final.r_hi == 0

    def test_eventually_fixed_orbit(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.25, 0.0))
        res = count_hits(s, t, (Fraction(1, 4),), 10)
        assert res.final.r_lo == 9  # hits from the second step onward

    def test_near_boundary_recheck_uses_the_right_step(self):
        # T(x) sits just inside the target while T^2(x) is far outside; the
        # near-boundary exact recheck must decide from the step-n stream
        s = DiagonalTorusSystem((2,))
        radius = 0.25 + 2.0 ** -45
        t = ball((0.0,), RateFunction.table([radius], extend="hold"))
        x = Fraction(1, 8) + Fraction(1, 2 ** 51)  # T(x) = 1/4 + 2^-50
        res = count_hits(s, t, (x,), 1)
        assert res.final.r_lo == 1 and res.final.r_hi == 1

    def test_exact_boundary_counts_as_ambiguous(self):
        # T(1/8) = 1/4 lands exactly on the target boundary: sound two-sided
        # accounting keeps it in R_hi only
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.table([0.25], extend="hold"))
        res = count_hits(s, t, (Fraction(1, 8),), 1)
        assert (res.final.r_lo, res.final.r_hi) == (0, 1)
        assert res.ambiguous_hits == 1

    def test_exact_center_ties_stay_ambiguous(self):
        # the orbit of 1/6 under doubling alternates 1/3 and 2/3; 2/3 lies
        # exactly 1/4 from the center 5/12, which a float center would miss
        s = DiagonalTorusSystem((2,))
        t = ball((Fraction(5, 12),), RateFunction.table([0.25], extend="hold"))
        res = count_hits(s, t, (Fraction(1, 6),), 20)
        assert (res.final.r_lo, res.final.r_hi, res.ambiguous_hits) == (10, 20, 10)

    def test_exact_tie_recheck_is_not_quadratic(self):
        # the recheck reads every stored digit (~2N) at the one tie; built
        # digit by digit this took seconds, by blocks it takes milliseconds
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.table([0.25], extend="hold"))
        n = 160_000
        res = count_hits(s, t, (Fraction(1, 8),), n)
        assert (res.final.r_lo, res.final.r_hi) == (n - 2, n - 1)

    def test_against_rational_oracle(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        x = (Fraction(17, 97), Fraction(23, 89))
        oracle = brute_force_counts((2, 3), x, t, 300)
        res = count_hits(s, t, x, 300, checkpoints=[50, 150, 300])
        for row in res.checkpoints:
            assert row.r_lo == oracle[row.n - 1] == row.r_hi

    def test_checkpoint_monotonicity(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        res = count_hits(s, t, None, 5000, checkpoints=[10, 100, 1000, 5000],
                         rng=np.random.default_rng(5))
        rows = res.checkpoints
        for a, b in zip(rows, rows[1:]):
            assert b.r_lo >= a.r_lo and b.r_hi >= a.r_hi
            assert a.r_hi - a.r_lo <= res.ambiguous_hits

    def test_error_term_defined_iff_phi_large(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.5, 0.25))
        res = count_hits(s, t, None, 2000, checkpoints=[2, 2000],
                         rng=np.random.default_rng(0))
        assert res.checkpoints[0].e is None  # Phi(2) < e
        assert res.checkpoints[1].e is not None

    def test_matrix_system_exact_orbit(self):
        m = IntegerMatrixSystem(((2, 1), (1, 1)))
        t = ball((0.0, 0.0), RateFunction.power(0.4, 0.3))
        x = (Fraction(3, 17), Fraction(5, 11))
        res = count_hits(m, t, x, 150, checkpoints=[50, 150])
        # oracle: iterate exactly and test membership coordinatewise
        pt = list(x)
        r = 0
        counts = {}
        for n in range(1, 151):
            pt = list(iterate(m, pt, 1))
            radius = Fraction(t.rates[0].psi(n))
            hit = all(min((c - 0) % 1, (0 - c) % 1) <= radius for c in pt)
            r += hit
            counts[n] = r
        assert res.checkpoints[0].r_lo == counts[50]
        assert res.final.r_lo == counts[150]

    def test_degenerate_system_rejected(self):
        s = DiagonalTorusSystem.with_degenerate((0.5, 2))
        t = ball((0.0, 0.0), RateFunction.power(0.4, 0.3))
        with pytest.raises(ValueError):
            count_hits(s, t, (Fraction(1, 3), Fraction(1, 3)), 10)

    def test_interval_engine_golden(self):
        # the interval engine agrees with a high-precision float oracle
        s = DiagonalTorusSystem(("g",))
        t = ball((0.25,), RateFunction.power(0.2, 0.2))
        res = count_hits(s, t, (Fraction(1, 7),), 400)
        import mpmath
        with mpmath.workprec(600):
            x = mpmath.mpf(1) / 7
            g = (1 + mpmath.sqrt(5)) / 2
            r = 0
            for n in range(1, 401):
                x = g * x
                x -= mpmath.floor(x)
                dist = min(abs(x - 0.25), 1 - abs(x - 0.25))
                if dist <= 0.2 * n ** -0.2:
                    r += 1
        assert res.final.r_lo == r

    def test_hyperboloid_recheck_reads_the_whole_tail(self):
        # T(x) sits 2^-80 outside the d = 1 hyperboloid, past a 64-digit recheck
        s = DiagonalTorusSystem((2,))
        t = hyperboloid((0.0,), RateFunction.table([0.25], extend="hold"))
        x = Fraction(1, 8) + Fraction(1, 2 ** 81)
        res = count_hits(s, t, (x,), 1)
        assert (res.final.r_lo, res.final.r_hi, res.ambiguous_hits) == (0, 0, 0)

    def test_interval_engine_enforces_precision_cap(self, monkeypatch):
        s = DiagonalTorusSystem(("g", 1.5))
        t = ball((0.2, 0.4), RateFunction.power(0.3, 0.4))
        # 200 steps of g need 139 + 64 bits, 100 steps need 70 + 64
        monkeypatch.setenv("SHRINKTARGET_PRECISION_CAP", "200")
        with pytest.raises(BudgetTooLarge):
            count_hits(s, t, (Fraction(1, 3), Fraction(1, 5)), 200)
        with pytest.raises(BudgetTooLarge):
            count_hits(s, t, None, 200, rng=np.random.default_rng(0))
        count_hits(s, t, (Fraction(1, 3), Fraction(1, 5)), 100)

    def test_precision_exhausted_step_matches_iterate(self):
        # both report the last completed step for the same given 80-bit enclosure
        s = DiagonalTorusSystem(("g",))
        t = ball((0.25,), RateFunction.power(0.2, 0.2))
        x = (UnitRealInterval.from_value(Fraction(1, 7), 80),)
        with pytest.raises(PrecisionExhausted) as by_iterate:
            iterate(s, x, 200)
        with pytest.raises(PrecisionExhausted) as by_count:
            count_hits(s, t, x, 200, checkpoints=[50, 200])
        # the width 2^-80 g^n passes the 2^-8 tolerance at n = 104
        assert by_iterate.value.step == by_count.value.step == 103
        assert by_count.value.last_checkpoint.n == 50

    def test_nu_measure_counting(self):
        s = DiagonalTorusSystem(("g", 1.5))
        nu = ProductMeasure(s.betas)
        t = ball((0.2, 0.4), RateFunction.power(0.3, 0.4))
        res = count_hits(s, t, None, 300, start="invariant", rng=np.random.default_rng(2))
        assert res.final.phi == pytest.approx(
            sum(nu.ball(t.center, t.rates[0].psi(n)) for n in range(1, 301)), rel=1e-9)
        assert res.final.r_hi >= res.final.r_lo >= 0


def byte_table_digits(rng, base, count):
    """Oracle: the byte-table draw, one byte at a time.  With b^k <= 256 the
    largest such power, a byte v below the largest multiple of b^k up to 256
    is the k base-b digits of v mod b^k; the other bytes are skipped."""
    k = max(j for j in range(1, 9) if base ** j <= 256)
    m = base ** k
    out = []
    while len(out) < count:
        for v in rng.bytes(4):
            if v < m * (256 // m):
                out += [v % m // base ** j % base for j in range(k - 1, -1, -1)]
    return np.array(out[:count], dtype=np.int8)


def golden_chain_digits(rng, state1_weight, count):
    """Oracle: the golden chain, one uniform at a time: the start state, then
    one word per uniform, "10" below g^-2 and "0" above."""
    out = [0] if state1_weight > 0 and rng.random() < state1_weight else []
    while len(out) < count:
        out += [1, 0] if rng.random() < G ** -2 else [0]
    return out[:count]


def long_division(x, base, total):
    """Oracle: the first ``total`` base-b digits of x in [0, 1), one at a time."""
    p, q = (x % 1).as_integer_ratio()
    out = []
    for _ in range(total):
        digit, p = divmod(p * base, q)
        out.append(digit)
    return np.array(out, dtype=np.int8)


def draws(systems, rng):
    """Each coordinate's stream of a random start: the draws of ``rng``'s spawns."""
    return [ds.draws(r) for ds, r in zip(systems, rng.spawn(len(systems)))]


def expansions(systems, x):
    """Each coordinate's stream of the given point ``x``: its expansion."""
    return [ds.expansion(v) for ds, v in zip(systems, x)]


def drawn(system, rng, total):
    """One read of ``total`` digits from ``rng`` by a one-coordinate source."""
    return DigitSource([system], 0, [system.draws(rng)]).read(0, total)


def expanded(system, x, total):
    """One read of the first ``total`` digits of ``x`` by a one-coordinate source."""
    return DigitSource([system], 0, [system.expansion(x)]).read(0, total)


def capture_source(monkeypatch):
    """The sources count_hits hands the digit ladder, in a list, as it runs."""
    sources, ladder = [], counting._digit_membership

    def captured(source, *args):
        if all(source is not seen for seen in sources):
            sources.append(source)
        return ladder(source, *args)

    monkeypatch.setattr(counting, "_digit_membership", captured)
    return sources


def ladder(source, target, n_steps):
    """(hit_lo, hit_hi) for n = 1..N: the blocks of one source's count, joined."""
    blocks = [hits for _, *hits in counting._digit_blocks([source], target, n_steps)]
    return tuple(np.concatenate(hits) for hits in zip(*blocks))


class TestDigitPrefix:
    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_blocks_match_horner(self, base):
        rng = np.random.default_rng(base)
        for length in (0, 1, 19, 20, 21, 62, 63, 124, 1000, 4099):
            digits = rng.integers(0, base, size=length, dtype=np.int8)
            horner = 0
            for dig in digits:
                horner = horner * base + int(dig)
            assert _digits_to_int(digits, base) == horner
        top = np.full(3000, base - 1, dtype=np.int8)
        assert _digits_to_int(top, base) == base ** 3000 - 1

    @pytest.mark.parametrize("base", [2, 3, 100, 128])
    def test_integer_draw_keeps_its_rng_stream(self, base):
        system, = counting._digit_systems(DiagonalTorusSystem((base,)), None, None)
        got = drawn(system, np.random.default_rng(2022), 1000)
        want = byte_table_digits(np.random.default_rng(2022), base, 1000)
        assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_each_coordinate_reads_its_own_generator(self, monkeypatch):
        # sample 3 of seed 7: coordinate i draws from the spawn key (3, i),
        # block by block (four blocks of 128 steps)
        monkeypatch.setattr(counting, "COARSE_CHUNK", 16)
        monkeypatch.setattr(counting, "BLOCK_CHUNKS", 8)
        sources = capture_source(monkeypatch)
        target = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        count_hits(DiagonalTorusSystem((2, 3)), target, None, 500, rng=_sample_rng(7, 3))
        source, = sources
        assert source.offset == 500  # every block forgotten: the last window's lookahead is left
        for i, (digits, base) in enumerate(zip(source.digits, (2, 3))):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3, i)))
            end = 500 + _digit_window(base)
            assert source.offset + len(digits) == end
            assert np.array_equal(digits, byte_table_digits(rng, base, end)[500:])

    def test_rational_digits(self):
        assert list(expanded(IntegerDigits(2), Fraction(1, 3), 6)) == [0, 1, 0, 1, 0, 1]

    def test_prefixes_bracket_the_exact_orbit(self):
        # oracle: exact rational orbit of 1/7 under x -> 3x mod 1
        digits = expanded(IntegerDigits(3), Fraction(1, 7), 70)
        x = Fraction(1, 7)
        for n in range(1, 30):
            x = (3 * x) % 1
            lo = Fraction(_digits_to_int(digits[n:n + 40], 3), 3 ** 40)
            assert lo <= x <= lo + Fraction(1, 3 ** 40)

    @pytest.mark.parametrize("x, center, radius, want", [
        # T(1/3) = 2/3 under x -> 2x mod 1
        (Fraction(1, 3), 0.0, 0.25, (False, False)),
        (Fraction(1, 3), 0.0, 0.375, (True, True)),
        (Fraction(1, 3), 0.5, 0.25, (True, True)),
        # no point of the circle is farther than 1/2 from any center
        (Fraction(1, 3), 1 / 6, 0.5, (True, True)),
        # T(1/4) = 1/2 lies exactly on the boundary: no prefix decides it
        (Fraction(1, 4), 0.25, 0.25, None),
    ], ids=["outside", "inside", "off-center", "antipodal", "on-boundary"])
    def test_exact_distances_are_three_valued(self, x, center, radius, want):
        # a given point reads only what the brackets ask for: nothing before
        # them, digits 1..16 for the first, and the last reads to the
        # reserve, 2N + W + 96 = 200 digits at N = 31
        source = DigitSource([IntegerDigits(2)], 31, [IntegerDigits(2).expansion(x)])
        assert len(source.digits[0]) == 0
        t = ball((center,), RateFunction.power(radius, 0.0))
        verdicts = []
        for bracket, in source.brackets(1):
            verdicts.append(exact_verdict(t, 1, [wrap_distance_bounds(*bracket, t.center[0])]))
            assert len(source.digits[0]) == min(1 + 16 * 4 ** (len(verdicts) - 1), 200)
        assert len(source.digits[0]) == 200
        if want is None:
            assert set(verdicts) == {(False, True)}
        else:
            assert verdicts[-1] == want
            assert verdicts[0] == want  # 16 digits already decide


def exact_windows(digits, base, n_steps, window):
    """Oracle: T^n x read from ``window`` digits, as Fractions over base^window."""
    values = []
    for n in range(1, n_steps + 1):
        num = 0
        for dig in digits[n:n + window]:
            num = num * base + int(dig)
        values.append(Fraction(num, base ** window))
    return values


class TestWindowValues:
    @pytest.mark.parametrize("base", [2, 3, 5, 10, 31, 128])
    def test_matches_exact_windows(self, base):
        # the shift-add doubling of the coarse words against the exact
        # windows, whose numerators they are, at the coarse window and the
        # lengths 1, 2 and 15 (golden keys)
        rng = np.random.default_rng(100 + base)
        n_steps = 3000
        for k in {counting._digit_window(base, counting.COARSE_BITS), 1, 2} | (
                {15} if base == 2 else set()):
            random = rng.integers(0, base, size=n_steps + k + 1, dtype=np.int8)
            # a rational stream just long enough for k window digits at step N
            short = expanded(IntegerDigits(base), Fraction(5, 7), n_steps + k)
            for digits in (random, short):
                got = _words(digits[1:], base, k, n_steps)
                want = exact_windows(digits, base, n_steps, k)
                assert got.dtype == np.int16 and len(got) == n_steps
                assert [Fraction(int(s), base ** k) for s in got] == want, k
        k = counting._digit_window(base, counting.COARSE_BITS)
        top = np.full(k, base - 1, dtype=np.int8)
        assert _words(top, base, k, 1).tolist() == [base ** k - 1]  # below 2^15: no wrap

    @pytest.mark.parametrize("base", [2, 3, 7, 10])
    def test_gathered_windows_match_exact_windows(self, base):
        rng = np.random.default_rng(200 + base)
        n_steps = 2000
        window = _digit_window(base)
        digits = rng.integers(0, base, size=n_steps + window + 1, dtype=np.int8)
        weights = float(base) ** -np.arange(1.0, window + 1)
        want = exact_windows(digits, base, n_steps, window)
        for idx in (np.sort(rng.choice(n_steps, size=300, replace=False)), np.arange(n_steps)):
            got = _gathered(digits, idx + 1, weights)
            # each term carries two roundings (weight, product) and the
            # w - 1 additions, in any order, at most w - 1 more, on a sum
            # below 1: (w + 1) 2^-53 in all, doubled here; MARGIN is far wider
            tol = Fraction(2 * window + 1, 2 ** 53)
            assert tol < Fraction(MARGIN) / 10
            assert max(abs(Fraction(v) - want[i]) for v, i in zip(got, idx)) <= tol

    def test_gather_memory_is_linear_in_the_steps(self):
        # every step open: no (steps, window) digit or float matrix may be built
        n_steps, window = 10 ** 6, 42
        digits = np.random.default_rng(3).integers(0, 2, size=n_steps + window + 1,
                                                   dtype=np.int8)
        idx = np.arange(1, n_steps + 1)
        weights = 2.0 ** -np.arange(1.0, window + 1)
        tracemalloc.start()
        try:
            vals = _gathered(digits, idx, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) == n_steps
        assert peak < 4 * 8 * n_steps


@functools.lru_cache(maxsize=None)
def exact_word_values(base, k):
    """Oracle: the left end of each k-digit word's cylinder, exact (Fractions
    for an integer base; for g, whose keys are the binary words of its
    digits, in 200-bit mpmath)."""
    if base != "g":
        return tuple(Fraction(s, base ** k) for s in range(base ** k))
    with mpmath.workprec(200):
        g = (1 + mpmath.sqrt(5)) / 2
        values = [mpmath.mpf(0)]
        for j in range(k):
            step = g ** -(j + 1)
            values = [v + digit * step for v in values for digit in (0, 1)]
    return tuple(values)


class TestWordTables:
    @pytest.mark.parametrize("center", [0.0, 0.25, 0.7071, 1 - 2.0 ** -40])
    @pytest.mark.parametrize("bits", [2, 10])
    @pytest.mark.parametrize("base", [2, 3, 10, 31, 128, "g"])
    def test_bounds_hold_the_whole_cylinder(self, base, bits, center):
        # every word's [max(dist - band, 0), dist + band] holds the exact wrap
        # distance to the centre of every point of its cylinder [v, v + beta^-k]
        system, = counting._digit_systems(DiagonalTorusSystem((base,)), None, None)
        k = _digit_window(system.beta, bits)
        dist, band = _word_table(system, bits, center)
        assert len(dist) == system.radix ** k <= 2 ** 15
        lows, highs = np.maximum(dist - band, 0.0).tolist(), (dist + band).tolist()
        with mpmath.workprec(200):
            if base == "g":
                width, a = ((1 + mpmath.sqrt(5)) / 2) ** -k, mpmath.mpf(center)
            else:
                width, a = Fraction(1, base ** k), Fraction(center)
            for lo, hi, v in zip(lows, highs, exact_word_values(base, k)):
                d_min, d_max = wrap_distance_bounds(v, width, a)
                assert lo <= d_min and d_max <= hi, (v, lo, hi)

    def test_tables_are_bounded_over_many_centres(self):
        # a process that counts about many centres keeps the last WORD_TABLES
        # tables, not one per centre, and a table built again counts the same
        system = DiagonalTorusSystem(("g", "g"))
        rate = RateFunction.power(0.5, 0.25)
        centres = np.linspace(0.0, 1.0, 300, endpoint=False)

        def counts(cs):
            return [count_hits(system, ball((c, c), rate), None, 200,
                               rng=np.random.default_rng(1)) for c in cs]

        first = counts(centres)
        assert _word_table.cache_info().currsize == counting.WORD_TABLES
        assert counts(centres[::-7]) == first[::-7]
        assert _word_table.cache_info().currsize == counting.WORD_TABLES


def full_tail_verdicts(target, digit_arrays, bases, n_steps):
    """Oracle: exact_verdict at each step on the whole stored digit tail.

    T^n x_i lies in [v, v + base^-(L - n)], v the Fraction the L - n stored
    digits from index n spell (built digit by digit here).
    """
    tails = []
    for digits, base in zip(digit_arrays, bases):
        value = Fraction(0)
        for dig in digits[:0:-1]:
            value = (value + int(dig)) / base
        tails.append(value)                  # the tail read from index 1
    out = []
    for n in range(1, n_steps + 1):
        bounds = [wrap_distance_bounds(v, Fraction(1, base ** (len(digits) - n)), a)
                  for v, digits, base, a in zip(tails, digit_arrays, bases, target.center)]
        out.append(exact_verdict(target, n, bounds))
        tails = [(v * base) - int(digits[n]) for v, digits, base in
                 zip(tails, digit_arrays, bases)]
    return out


def ladder_target(shape, d):
    """The ladder's targets on d coordinates, centred at (1/4, 0, ..., 0)."""
    center = (Fraction(1, 4),) + (Fraction(0),) * (d - 1)
    quarter = RateFunction.table([0.25], extend="hold")
    if shape == "ball":
        return ball(center, quarter)
    if shape == "rectangle":
        return rectangle(center, (RateFunction.power(0.3, 0.0),) + (quarter,) * (d - 1))
    return hyperboloid(center, RateFunction.table([4.0 ** -d], extend="hold"))


class TestDigitSourceWindows:
    @pytest.mark.parametrize("read", ["slice", "index"])
    @pytest.mark.parametrize("bits", [counting.COARSE_BITS, counting.FINE_BITS])
    @pytest.mark.parametrize("base", [2, 3, 10, 128, "g"])
    def test_every_window_read_is_sound(self, base, bits, read):
        # oracle: T^n x_i in [P_n, P_n + beta^-(L-n)], P_n the L stored digits
        # from index n on (a golden 1 is followed by a 0), in mpmath.  The
        # ladder reads a slice of steps at the coarse bits as digit words,
        # which put it in the word's cylinder [v_S, v_S + beta^-k] exactly;
        # a float window (an index array, or every step of a slice at the
        # fine bits) is off by rounding alone, at most (2w + 1) 2^-53, far
        # below the ladder's MARGIN
        n_steps = 1500
        systems = counting._digit_systems(DiagonalTorusSystem((base, 3)), None, None)
        source = DigitSource(systems, n_steps, draws(systems, np.random.default_rng(31)))
        rng = np.random.default_rng(32)
        steps = ([slice(0, n_steps), slice(700, 1300)] if read == "slice" else
                 [np.sort(rng.choice(n_steps, size=300, replace=False)), np.arange(5)])
        as_words = read == "slice" and bits == counting.COARSE_BITS
        for i, ds in enumerate(systems):
            # every digit the windows read: the steps' last one reads up to index N + W
            digits = source.read(i, n_steps + _digit_window(ds.beta) + 1)
            golden = isinstance(ds, GoldenDigits)
            if golden and digits[-1]:
                digits = np.append(digits, 0)
            w = _digit_window(ds.beta, bits)
            tol = Fraction(2 * w + 1, 2 ** 53)
            assert tol < Fraction(MARGIN) / 4
            with mpmath.workprec(200):
                b = (1 + mpmath.sqrt(5)) / 2 if golden else mpmath.mpf(ds.beta)
                prefix = [mpmath.mpf(0)] * (len(digits) + 1)   # prefix[n] = P_n
                for n in range(len(digits) - 1, -1, -1):
                    prefix[n] = (int(digits[n]) + prefix[n + 1]) / b
                values = exact_word_values("g" if golden else ds.beta, w) if as_words else None
                for at in steps:
                    if as_words:
                        words = source.words(i, bits, at)
                        ns = np.arange(at.start, at.stop) + 1
                        assert words.dtype == np.int16 and len(words) == len(ns)
                        lows = [values[s] if golden else mpmath.mpf(values[s].numerator)
                                / values[s].denominator for s in words.tolist()]
                        slack, bands = 0, [b ** -w] * len(ns)
                    else:
                        if isinstance(at, slice):
                            at = np.arange(at.start, at.stop)
                        lows, band = source.window(i, bits, at)
                        ns = at + 1
                        assert len(lows) == len(ns) and band <= 2.0 ** -bits
                        slack, lows, bands = tol, lows.tolist(), [band] * len(ns)
                    for v, band, n in zip(lows, bands, ns.tolist()):
                        lo, hi = prefix[n], prefix[n] + b ** -(len(digits) - n)
                        assert v - slack <= lo and hi <= v + band + slack, (n, v, band)


def reserves(source, n_steps):
    """Each coordinate read to the exact stage's reserve, 2N + W + 96 digits."""
    return [source.read(i, 2 * n_steps + _digit_window(ds.beta) + 96)
            for i, ds in enumerate(source.systems)]


def count_stages(monkeypatch, stages):
    """Count the ladder's reads in ``stages``: the coordinates whose coarse
    ``words`` are read (``stages["coarse"]`` lists them, one per chunk
    read), the fine float windows, and the steps that read ``brackets``
    (``stages["exact"]`` lists them)."""
    words, window, brackets = DigitSource.words, DigitSource.window, DigitSource.brackets

    def counted_words(self, i, bits, steps):
        stages["coarse"].append(i)
        return words(self, i, bits, steps)

    def counted_window(self, i, bits, steps):
        stages["fine"] += 1
        return window(self, i, bits, steps)

    def counted_brackets(self, n):
        stages["exact"].append(n)
        return brackets(self, n)

    monkeypatch.setattr(DigitSource, "words", counted_words)
    monkeypatch.setattr(DigitSource, "window", counted_window)
    monkeypatch.setattr(DigitSource, "brackets", counted_brackets)


class TestDigitLadder:
    # (1/4, 1/4, 1/4) under diag(2, 3, 5): the first coordinate sits at 1/2,
    # then 0, both exactly 1/4 from 1/4; the second alternates 3/4 and 1/4
    # and the third stays at 1/4, each exactly 1/4 from 0, and no digit
    # prefix pins them down.  So every step is a boundary tie of all three
    # targets (the rectangle's first side, 0.3, holds the first coordinate).
    # The d = 3 system reads its last coordinate only where the first two
    # leave a step open.
    @pytest.mark.parametrize("start, betas", [
        pytest.param(start, betas, id=start + ("" if len(betas) == 2 else "-d3"))
        for betas in [(2, 3), (2, 3, 5)] for start in ["random", "ties", "rational"]])
    @pytest.mark.parametrize("shape", ["ball", "hyperboloid", "rectangle"])
    def test_matches_full_tail_oracle(self, monkeypatch, shape, start, betas):
        d = len(betas)
        target = ladder_target(shape, d)
        n_steps = 200
        x = {"random": None, "ties": (Fraction(1, 4),) * d,
             "rational": (Fraction(17, 97), Fraction(23, 89), Fraction(31, 83))[:d]}[start]
        systems = counting._digit_systems(DiagonalTorusSystem(betas), None, x)

        def source():
            return DigitSource(systems, n_steps, expansions(systems, x) if x
                               else draws(systems, np.random.default_rng(5)))

        # the oracle reads every digit the exact stage may read
        oracle = full_tail_verdicts(target, reserves(source(), n_steps), betas, n_steps)
        # two-bit coarse windows leave most steps to the fine and exact stages
        monkeypatch.setattr(counting, "COARSE_BITS", 2)
        stages = {"coarse": [], "fine": 0, "exact": []}
        count_stages(monkeypatch, stages)
        # one partial chunk; then two blocks of eight 16-step chunks, the last partial
        monkeypatch.setattr(counting, "BLOCK_CHUNKS", 8)
        for chunk in (counting.COARSE_CHUNK, 16):
            monkeypatch.setattr(counting, "COARSE_CHUNK", chunk)
            stages.update(coarse=[], fine=0, exact=[])
            hit_lo, hit_hi = ladder(source(), target, n_steps)
            assert list(zip(hit_lo.tolist(), hit_hi.tolist())) == oracle, chunk
            assert stages["fine"] > 0
            # coordinate 0's words are read in every chunk; a hyperboloid reads
            # every coordinate's there, a ball or rectangle a later one's only
            # in a chunk that the earlier ones leave open
            chunks = -(-n_steps // chunk)
            reads = [stages["coarse"].count(i) for i in range(d)]
            assert reads[0] == chunks and sum(reads) == len(stages["coarse"])
            if shape == "hyperboloid":
                assert reads == [chunks] * d
            else:
                assert all(chunks >= a >= b for a, b in zip(reads, reads[1:]))
            if start == "ties":
                assert len(stages["exact"]) == n_steps
                assert not hit_lo.any() and hit_hi.all()

    @pytest.mark.parametrize("shape", ["ball", "hyperboloid", "rectangle"])
    def test_exact_stage_reads_on_demand(self, monkeypatch, shape):
        # the float stages read a stream to index N + W at most; a step the
        # fine stage leaves open reads on into the same stream, as deep as
        # its brackets go and never to the whole 2N + W + 96 reserve
        betas, n_steps = (2, 3), 300
        target = ladder_target(shape, 2)
        systems = counting._digit_systems(DiagonalTorusSystem(betas), None, None)

        def source():
            return DigitSource(systems, n_steps, draws(systems, np.random.default_rng(21)))

        def ends(src):
            return [src.offset + len(d) for d in src.digits]

        quiet = source()
        ladder(quiet, target, n_steps)
        # the float windows' digits alone: nothing reached the exact stage
        assert ends(quiet) == [n_steps + _digit_window(b) for b in betas]
        oracle = full_tail_verdicts(target, reserves(source(), n_steps), betas, n_steps)
        monkeypatch.setattr(counting, "COARSE_BITS", 2)
        monkeypatch.setattr(counting, "FINE_BITS", 3)
        stages = {"coarse": [], "fine": 0, "exact": []}
        count_stages(monkeypatch, stages)
        loud = source()
        hit_lo, hit_hi = ladder(loud, target, n_steps)
        assert len(stages["exact"]) > 10
        assert all(end < 2 * n_steps + _digit_window(b) + 96 for end, b in zip(ends(loud), betas))
        assert list(zip(hit_lo.tolist(), hit_hi.tolist())) == oracle

    @pytest.mark.parametrize("start", ["random", "rational"])
    def test_brackets_keep_their_depths_and_cap(self, start):
        # 16, 64 and 256 digits past n, then every digit up to the reserve,
        # 2N + W + 96 = 338 at N = 100, all of them the stream's own digits
        n_steps, n = 100, 5
        x = (Fraction(17, 97),) if start == "rational" else None

        def source():
            system = IntegerDigits(2)
            return DigitSource([system], n_steps, [system.expansion(x[0]) if x
                                                   else system.draws(np.random.default_rng(12))])

        stream = source().read(0, 338)
        got = [bracket for bracket, in source().brackets(n)]
        assert [width for _, width in got] == [Fraction(1, 2 ** k) for k in (16, 64, 256, 333)]
        for (lo, width), k in zip(got, (16, 64, 256, 333)):
            assert lo == Fraction(_digits_to_int(stream[n:n + k], 2), 2 ** k)

    @pytest.mark.parametrize("chunk", [counting.COARSE_CHUNK, 64])
    def test_radii_only_at_the_open_steps(self, monkeypatch, chunk):
        # --jobs 1 is one batch of three samples: Phi evaluates psi at each
        # step once; the workers evaluate the per-step radii only at the
        # steps the coarse stage leaves open to the fine one, and psi at the
        # two ends of each run of RADIUS_RUN steps of a block (at 64-step
        # chunks, five blocks of 1024 steps, one run each)
        calls, opened, radii_calls, in_phi = {"phi": [], "ladder": []}, [], [], []
        psi, radii = RateFunction.psi, TargetSpec.radii
        window, phi_values = DigitSource.window, counting.phi_values

        def counted_psi(self, n):
            if np.ndim(n):
                calls["phi" if in_phi else "ladder"].append(np.array(n))
            return psi(self, n)

        def counted_phi(*args, **kwargs):
            in_phi.append(True)
            try:
                return phi_values(*args, **kwargs)
            finally:
                in_phi.pop()

        def counted_radii(self, n):
            if np.ndim(n):
                radii_calls.append(np.array(n))
            return radii(self, n)

        def counted_window(self, i, bits, idx):
            if i == 0:
                opened.append(idx + 1)
            return window(self, i, bits, idx)

        monkeypatch.setattr(RateFunction, "psi", counted_psi)
        monkeypatch.setattr(counting, "phi_values", counted_phi)
        monkeypatch.setattr(TargetSpec, "radii", counted_radii)
        monkeypatch.setattr(DigitSource, "window", counted_window)
        monkeypatch.setattr(counting, "COARSE_CHUNK", chunk)
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        monte_carlo_counting(s, t, 3, 5000, seed=4, checkpoints=[1000, 5000])
        assert np.array_equal(np.concatenate(calls["phi"]), np.arange(1, 5001))
        assert len(radii_calls) == len(opened)
        assert all(np.array_equal(r, n) for r, n in zip(radii_calls, opened))
        open_steps = sum(map(len, opened))
        assert 0 < open_steps < 3 * 5000 / 4
        block = counting.BLOCK_CHUNKS * chunk
        runs = sum(-(-min(block, 5000 - k) // counting.RADIUS_RUN) for k in range(0, 5000, block))
        assert sum(map(len, calls["ladder"])) == open_steps + 2 * runs


def chi_square_pvalues(digits, base):
    """p-values of chi-square tests of single digits and of the
    non-overlapping pairs (d_2j, d_2j+1) and (d_2j+1, d_2j+2)."""
    pvalues = [scipy.stats.chisquare(np.bincount(digits, minlength=base)).pvalue]
    for offset in (0, 1):
        pairs = digits[offset:][:(len(digits) - offset) // 2 * 2].reshape(-1, 2).astype(np.int64)
        cells = np.bincount(pairs[:, 0] * base + pairs[:, 1], minlength=base * base)
        pvalues.append(scipy.stats.chisquare(cells).pvalue)
    return pvalues


DRAW_SYSTEMS = {"2": IntegerDigits(2), "3": IntegerDigits(3), "100": IntegerDigits(100),
                "g": GoldenDigits(), "g-parry": GoldenDigits(0.3)}
# (system, x): the draws of a random start (x None) or the expansion of x
TILE_STREAMS = {**{name: (system, None) for name, system in DRAW_SYSTEMS.items()},
                "2-17/97": (IntegerDigits(2), Fraction(17, 97)),
                "3-23/89": (IntegerDigits(3), Fraction(23, 89)),
                "10-1/7": (IntegerDigits(10), Fraction(1, 7)),
                "128-big": (IntegerDigits(128), Fraction(10 ** 30 + 7, 3 ** 70))}


class TestDigitStream:
    @pytest.mark.parametrize("base", [2, 3, 5, 7, 17, 100, 128])
    def test_digits_are_uniform(self, base):
        digits = drawn(IntegerDigits(base), np.random.default_rng(base),
                       40 * base * base + 100_000)
        assert min(chi_square_pvalues(digits, base)) > 1e-4

    def test_uniformity_test_sees_every_byte_kept(self, monkeypatch):
        # keeping the bytes 243..255 for b = 3 reads them as the words 0..12 again
        byte_digits = counting._byte_digits
        monkeypatch.setattr(counting, "_byte_digits", lambda base: (256, byte_digits(base)[1]))
        digits = drawn(IntegerDigits(3), np.random.default_rng(3), 100_360)
        assert min(chi_square_pvalues(digits, 3)) < 1e-6

    @pytest.mark.parametrize("name", TILE_STREAMS)
    def test_draws_tile_one_stream(self, name):
        system, x = TILE_STREAMS[name]

        def stream():
            return system.draws(np.random.default_rng(9)) if x is None else system.expansion(x)

        whole = DigitSource([system], 0, [stream()]).read(0, 30_000)
        if x is not None:
            assert np.array_equal(whole, long_division(x, system.beta, 30_000))
        head = _digit_window(system.beta) + 1
        for cuts in ([0, 1, 7, 1000, 30_000], [12_345, 30_000], [1, 2, 3, 29_999, 30_000],
                     [head + 1, head + 7, 1000, 30_000]):
            source, have = DigitSource([system], 0, [stream()]), 0
            for total in cuts:
                have = max(have, total)  # a read never gives digits back
                assert np.array_equal(source.read(0, total), whole[:have]), cuts
        # forgetting a prefix, read or not, keeps the rest of the stream in
        # place, and holding a block draws it on past the block's last window
        window = _digit_window(system.beta)
        for cuts in ([100, 5000, 29_000], [0, 20_000, 29_000], [7, 7, 12_345, 29_000]):
            source = DigitSource([system], 0, [stream()])
            for at, stop in zip(cuts, cuts[1:]):
                source.forget(at)
                source.hold(stop)
                assert source.offset == at
                assert np.array_equal(source.digits[0], whole[at:stop + window]), cuts
        source, have = DigitSource([system], 0, [stream()]), 0
        for total in (5000, 100, 5001, 30_000):
            have = max(have, total)
            assert np.array_equal(source.read(0, total), whole[:have])

    @pytest.mark.parametrize("state1_weight", [0.0, 1.0])
    def test_golden_ten_straddles_a_draw(self, state1_weight):
        system = GoldenDigits(state1_weight)
        whole = drawn(system, np.random.default_rng(4), 2000)
        assert whole[0] == 0 or not state1_weight  # a state-1 start's forced 0
        ends = np.flatnonzero(whole[:-1]) + 1   # a read that ends on the 1 of a "10"
        for end in ends[ends > _digit_window(system.beta) + 1][:25].tolist():
            source = DigitSource([system], 0, [system.draws(np.random.default_rng(4))])
            head = source.read(0, end).copy()
            assert len(head) == end and head[-1] == 1
            assert np.array_equal(source.read(0, 2000), whole) and whole[end] == 0

    def test_given_point_reads_only_what_the_ladder_asks_for(self):
        # a given point streams its expansion as a random start streams its
        # draws: nothing before a read, and a count that no step sends to the
        # exact stage reads each coordinate to its last window, N + W, not to
        # the 2N + W + 96 reserve
        x = (Fraction(17, 97), Fraction(23, 89))
        systems = counting._digit_systems(DiagonalTorusSystem((2, 3)), None, x)
        n_steps = 1000
        source = DigitSource(systems, n_steps, expansions(systems, x))
        assert [len(d) for d in source.digits] == [0, 0]
        ladder(source, ball((0.0, 0.0), RateFunction.power(0.5, 0.25)), n_steps)
        for i, (ds, v) in enumerate(zip(systems, x)):
            end = n_steps + _digit_window(ds.beta)
            assert source.offset == n_steps and source.offset + len(source.digits[i]) == end
            assert np.array_equal(source.digits[i], long_division(v, ds.beta, end)[n_steps:])


class TestRandomBits:
    def test_matches_four_word_composition(self):
        old = np.random.default_rng(5)
        words = old.integers(0, 1 << 32, size=4, dtype=np.uint64)
        num = 0
        for w in words:
            num = (num << 32) | int(w)
        new = np.random.default_rng(5)
        assert _random_bits(new, 128) == num
        assert new.integers(0, 1 << 32) == old.integers(0, 1 << 32)

    def test_masks_and_draws_nothing_below_one_bit(self):
        rng = np.random.default_rng(6)
        words = np.random.default_rng(6).integers(0, 1 << 32, size=2, dtype=np.uint64)
        assert _random_bits(rng, 43) == ((int(words[0]) << 32 | int(words[1])) & ((1 << 43) - 1))
        state = rng.bit_generator.state
        assert _random_bits(rng, 0) == 0 and _random_bits(rng, -5) == 0
        assert rng.bit_generator.state == state


# by determinant: 2 (a Jordan block), -4, 5 and -5
MATRICES = {
    "2,1;0,2": ((2, 1), (0, 2)),
    "2,0;0,-2": ((2, 0), (0, -2)),
    "3,1;1,2": ((3, 1), (1, 2)),
    "2,1;1,-2": ((2, 1), (1, -2)),
}


def exact_matrix_counts(system, x, target, n_steps):
    """Oracle: the exact Fraction orbit, tested against each ball directly."""
    pt = tuple(x)
    r = 0
    for n in range(1, n_steps + 1):
        pt = iterate(system, pt, 1)
        radius = Fraction(target.rates[0].psi(n))
        r += all(min((c - a) % 1, (a - c) % 1) <= radius
                 for c, a in zip(pt, target.center))
    return r


class TestMatrixCounting:
    @pytest.mark.parametrize("name", ["2,1;0,2", "2,0;0,-2", "3,1;1,2"])
    def test_random_start_matches_exact_orbit(self, name):
        # the start is drawn at the bits the orbit needs, not on a coarse
        # dyadic grid, whose points are periodic (and fall onto 0 when the
        # determinant is even)
        system = IntegerMatrixSystem(MATRICES[name])
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        n_steps = 300
        bits = max(96, required_precision(system, n_steps))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = [Fraction(_random_bits(rng, bits), 1 << bits) for _ in range(2)]
            want = exact_matrix_counts(system, x, t, n_steps)
            res = count_hits(system, t, None, n_steps, rng=np.random.default_rng(seed))
            assert res.final.r_lo == res.final.r_hi == want
            assert want < n_steps // 4

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_mean_count_near_phi(self, name):
        system = IntegerMatrixSystem(MATRICES[name])
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        samples = 20
        summary = monte_carlo_counting(system, t, samples, 2000, seed=2022)
        phi = summary.phi_final
        mean = sum(res.final.r_mid for res in summary.results) / samples
        assert phi == pytest.approx(87.99, abs=0.01)
        assert abs(mean - phi) <= 6 * math.sqrt(2 * phi / samples)


def digit_enclosure(digits, base, bits):
    """Oracle: an enclosure of the point the digits spell, by Horner's rule in
    mpmath (the tail past the last digit adds [0, base^-k))."""
    with mpmath.workprec(bits + 64):
        b = mpmath.mpf(base) if isinstance(base, int) else (1 + mpmath.sqrt(5)) / 2
        value = mpmath.mpf(0)
        for d in digits[::-1]:
            value = (value + int(d)) / b
        eps = mpmath.mpf(2) ** -bits
        lo, hi = value - eps, value + b ** -len(digits) + eps
        return interval_from_bounds(as_fraction(lo), as_fraction(hi), bits)


GOLDEN_TARGETS = {
    "ball": ball((Fraction(0), Fraction(3, 10)), RateFunction.power(0.5, 0.25)),
    "rectangle": rectangle((Fraction(1, 4), Fraction(0)),
                           (RateFunction.power(0.4, 0.2), RateFunction.power(0.3, 0.1))),
    "hyperboloid": hyperboloid((Fraction(0), Fraction(7, 10)), RateFunction.power(0.05, 0.2)),
}


class TestGoldenDigitEngine:
    def test_start_weight_reads_the_measure(self):
        nu = ProductMeasure([2, "g"])
        systems = counting._digit_systems(DiagonalTorusSystem((2, "g")), nu, None)
        assert systems[0] == IntegerDigits(2)
        assert systems[1].state1_weight == pytest.approx(G ** -2 / (1 + G ** -2), rel=1e-12)
        assert counting._digit_systems(DiagonalTorusSystem((2, "g")), None,
                                       None)[1] == GoldenDigits()

    @pytest.mark.parametrize("parry", [False, True])
    def test_drawn_points_follow_the_measure(self, parry):
        # x = sum_k d_k g^-k is Lebesgue-distributed from state 0 and
        # Parry-distributed from the stationary start
        mu = ParryYrrapMeasure("g")
        system = counting._digit_systems(DiagonalTorusSystem(("g",)),
                                         ProductMeasure(["g"]) if parry else None, None)[0]
        rng = np.random.default_rng(12)
        powers = G ** -np.arange(1.0, 81.0)
        digits = [drawn(system, rng, 80) for _ in range(4000)]
        assert not any(np.any(d[1:] & d[:-1]) for d in digits)  # no "11"
        xs = np.array(digits, dtype=np.float64) @ powers
        cdf = mu.cdf if parry else (lambda x: x)
        assert scipy.stats.kstest(xs, cdf).pvalue > 1e-3
        other = (lambda x: x) if parry else mu.cdf
        assert scipy.stats.kstest(xs, other).pvalue < 1e-6

    def test_prefix_enclosure_against_mpmath(self):
        rng = np.random.default_rng(13)
        streams = [drawn(GoldenDigits(0.3), rng, 2600),
                   np.tile(np.array([1, 0], dtype=np.int8), 1300),
                   np.zeros(2600, dtype=np.int8)]
        with mpmath.workprec(2000):
            g = (1 + mpmath.sqrt(5)) / 2
            for digits in streams:
                for k in (1, 2, 17, 63, 64, 65, 129, 500, 1500, 2500):
                    lo, width = GoldenDigits().bracket(digits[:k])
                    value = mpmath.fsum(g ** -(j + 1) for j in np.flatnonzero(digits[:k]))
                    lo_m = mpmath.mpf(lo.numerator) / lo.denominator
                    hi_m = lo_m + mpmath.mpf(width.numerator) / width.denominator
                    assert lo_m <= value and value + g ** -k <= hi_m, k
                    assert hi_m - lo_m <= g ** -k * (1 + mpmath.mpf(2) ** -40), k

    @pytest.mark.parametrize("parry, draws", [
        # two draws of 40 digits from one stream of default_rng(2022); a Parry
        # start reads one more uniform (the start state) before the words
        (False, ["1010010001010000100101000000101000101010",
                 "1010101010100101010100100100000010001010"]),
        (True, ["0100100010100001001010000001010001010101",
                "0101010101001010101001001000000100010100"]),
    ])
    def test_draw_keeps_its_rng_stream(self, parry, draws):
        system = counting._digit_systems(DiagonalTorusSystem(("g",)),
                                         ProductMeasure(["g"]) if parry else None, None)[0]
        source = DigitSource([system], 0, [system.draws(np.random.default_rng(2022))])
        read = source.read(0, 40 * len(draws))
        assert ["".join(map(str, read[40 * j:40 * j + 40].tolist()))
                for j in range(len(draws))] == draws
        want = golden_chain_digits(np.random.default_rng(2022), system.state1_weight, 80)
        assert "".join(draws) == "".join(map(str, want))

    @pytest.mark.parametrize("betas", [("g", "g"), (2, "g"), ("g", 2)])
    @pytest.mark.parametrize("shape", sorted(GOLDEN_TARGETS))
    def test_agrees_with_interval_engine(self, monkeypatch, shape, betas):
        system = DiagonalTorusSystem(betas)
        target = GOLDEN_TARGETS[shape]
        n_steps = 2000
        systems = counting._digit_systems(system, None, None)
        source = DigitSource(systems, n_steps, draws(systems, np.random.default_rng(8)))
        # narrow windows send many steps on to the fine and the exact stage
        monkeypatch.setattr(counting, "COARSE_BITS", 2)
        monkeypatch.setattr(counting, "FINE_BITS", 6)
        monkeypatch.setattr(counting, "COARSE_CHUNK", 100)
        monkeypatch.setattr(counting, "BLOCK_CHUNKS", 8)  # two blocks of 800, a partial one
        stages = {"coarse": [], "fine": 0, "exact": []}
        count_stages(monkeypatch, stages)
        hit_lo, hit_hi = ladder(source, target, n_steps)
        assert len(stages["exact"]) > 20
        assert np.array_equal(hit_lo, hit_hi)  # no ties on a random orbit
        # the point is the same streams read to the exact stage's reserve, plus the tail box
        again = DigitSource(systems, n_steps, draws(systems, np.random.default_rng(8)))
        x = [digit_enclosure(d, ds.beta, 3200)
             for d, ds in zip(reserves(again, n_steps), systems)]
        orbit = orbit_enclosures(system, x, n_steps)
        next(orbit)
        definite = 0
        for n, ivs in orbit:
            verdict = contains(target, n, ivs)
            if verdict != Containment.AMBIGUOUS:
                definite += 1
                assert hit_lo[n - 1] == (verdict == Containment.YES), n
        assert definite >= n_steps - 5
        assert 0 < np.count_nonzero(hit_lo) < n_steps

    @pytest.mark.parametrize("parry", [False, True])
    def test_mean_count_near_parry_phi(self, parry):
        # from either start T^n x equidistributes to the Parry measure
        # exponentially fast, so the mean count tracks the Parry Phi; at the
        # centre (0.3, 0.3) it is 147.4, the Lebesgue Phi 108.1
        system = DiagonalTorusSystem(("g", "g"))
        nu = ProductMeasure(["g", "g"])
        t = ball((0.3, 0.3), RateFunction.power(0.5, 0.25))
        samples = 20
        summary = monte_carlo_counting(system, t, samples, 3000, seed=5,
                                       start="invariant" if parry else "lebesgue")
        phi = float(phi_values(t, [3000], measure=nu)[0])
        mean = sum(res.final.r_mid for res in summary.results) / samples
        assert abs(mean - phi) <= 6 * math.sqrt(2 * phi / samples)
        assert all(res.ambiguous_hits == 0 for res in summary.results)


def _refused(*args, **kwargs):
    raise AssertionError("wrong engine")


class TestEngineDispatch:
    @pytest.mark.parametrize("betas", [("g", "g"), (2, "g"), ("golden", 3), (128,)])
    def test_digit_engine(self, monkeypatch, betas):
        monkeypatch.setattr(counting, "_interval_membership", _refused)
        system = DiagonalTorusSystem(betas)
        t = ball((0.0,) * system.d, RateFunction.power(0.5, 0.25))
        for start in counting.START_LAWS:
            res = count_hits(system, t, None, 500, start=start,
                             rng=np.random.default_rng(1))
            assert res.final.r_hi >= res.final.r_lo > 0

    # start None is the default, Lebesgue
    @pytest.mark.parametrize("betas, x, start", [
        (("e", "e"), None, None),
        (("g", 1.5), None, None),
        (("-g",), None, None),
        ((-2,), None, None),
        (("g",), (Fraction(1, 7),), None),
        (("g", 1.5), None, "invariant"),
        ((-2,), None, "invariant"),
        ((200,), None, None),  # int8 digits stop at base 128
        ((2, "g"), (Fraction(1, 3), Fraction(1, 7)), None),  # g cannot expand a point
    ])
    def test_interval_engine(self, monkeypatch, betas, x, start):
        monkeypatch.setattr(counting, "_digit_membership", _refused)
        system = DiagonalTorusSystem(betas)
        t = ball((0.0,) * system.d, RateFunction.power(0.5, 0.25))
        res = count_hits(system, t, x, 200, rng=np.random.default_rng(1),
                         start=start or "lebesgue")
        assert res.final.r_hi >= res.final.r_lo >= 0

    @pytest.mark.parametrize("betas", [(-2,), (200,), (2, 3)])
    def test_invariant_starts_on_integer_betas_are_lebesgue(self, betas):
        # mu is Lebesgue there, so both start laws draw the same stream
        system = DiagonalTorusSystem(betas)
        t = ball((0.3,) * system.d, RateFunction.power(0.5, 0.25))
        lebesgue, invariant = (
            count_hits(system, t, None, 150, start=start, rng=np.random.default_rng(4))
            for start in counting.START_LAWS)
        assert lebesgue == invariant

    def test_other_start_laws_are_refused(self):
        system = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        for start in ("parry", None, ProductMeasure([2, 3])):
            with pytest.raises(ValueError, match="start must be"):
                count_hits(system, t, None, 50, start=start, rng=np.random.default_rng(1))
            with pytest.raises(ValueError, match="start must be"):
                monte_carlo_counting(system, t, 2, 50, seed=1, start=start)
            with pytest.raises(ValueError, match="start must be"):
                window_hits(system, t, 1, 50, 2, seed=1, start=start)
            with pytest.raises(ValueError, match="start must be"):
                variance_check(system, t, 1, 50, 2, seed=1, start=start)

    def test_enclosure_start_runs_on_the_interval_engine(self, monkeypatch):
        system = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        exact = count_hits(system, t, (Fraction(1, 3), Fraction(1, 5)), 50).final
        monkeypatch.setattr(counting, "_digit_membership", _refused)
        start = [UnitRealInterval.from_value(Fraction(1, 3), 128),
                 UnitRealInterval.from_value(Fraction(1, 5), 128)]
        res = count_hits(system, t, start, 50).final
        assert (res.r_lo, res.r_hi) == (exact.r_lo, exact.r_hi)

    @pytest.mark.parametrize("betas", [(2, 3), ("e", "g")])
    @pytest.mark.parametrize("x", [(Fraction(1, 3),), (Fraction(1, 3),) * 3])
    def test_point_of_another_dimension_is_refused(self, betas, x):
        # on the digit engine a short point raised IndexError, a long one was cut
        system = DiagonalTorusSystem(betas)
        t = ball((0, 0), RateFunction.power(0.5, 0.25))
        with pytest.raises(ValueError, match="point dimension"):
            count_hits(system, t, x, 50)

    @pytest.mark.parametrize("betas", [(2, 3), ("g", "g"), ("e", "g")])
    def test_random_start_without_rng_is_refused(self, betas):
        t = ball((0, 0), RateFunction.power(0.5, 0.25))
        with pytest.raises(ValueError, match="rng"):
            count_hits(DiagonalTorusSystem(betas), t, None, 50)

    @pytest.mark.parametrize("betas", [(2, 3), ("e", "g")])
    @pytest.mark.parametrize("center", [(0,), (0, 0, 0)])
    def test_target_of_another_dimension_is_refused(self, betas, center):
        # a 1-d or 3-d target on a 2-d system would count against the wrong Phi
        system = DiagonalTorusSystem(betas)
        t = ball(center, RateFunction.power(0.5, 0.25))
        with pytest.raises(ValueError, match="target dimension"):
            count_hits(system, t, None, 100, rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="target dimension"):
            monte_carlo_counting(system, t, 2, 100, seed=1)
        with pytest.raises(ValueError, match="target dimension"):
            window_hits(system, t, 1, 100, 2, seed=1)


class TestInvariantPhi:
    """Phi sums the system's invariant measure, whatever law draws the starts."""

    def test_invariant_measure(self):
        assert invariant_measure(DiagonalTorusSystem((2, -3))) is None
        assert invariant_measure(IntegerMatrixSystem(((2, 1), (1, 1)))) is None
        nu = invariant_measure(DiagonalTorusSystem(("e", 2)))
        assert [mu.beta for mu in nu.factors] == [math.e, 2.0]

    def test_lebesgue_starts_on_the_interval_engine(self, monkeypatch):
        monkeypatch.setattr(counting, "_digit_membership", _refused)
        t = ball((0.3, 0.3), RateFunction.power(0.5, 0.25))
        samples = 8
        summary = monte_carlo_counting(DiagonalTorusSystem(("e", "g")), t, samples, 1500,
                                       seed=5, checkpoints=[500])
        phi = phi_values(t, [500, 1500], measure=ProductMeasure(["e", "g"]))
        for res in summary.results:
            assert [row.phi for row in res.checkpoints] == list(phi)
        mean = sum(res.final.r_mid for res in summary.results) / samples
        assert abs(mean - phi[-1]) <= 6 * math.sqrt(2 * phi[-1] / samples)

    def test_lebesgue_starts_refused_inside_minus_g(self):
        system = DiagonalTorusSystem((-1.3,))
        t = ball((0.3,), RateFunction.power(0.5, 0.25))
        with pytest.raises(StartLawUnsupported):
            count_hits(system, t, None, 50, rng=np.random.default_rng(1))
        res = count_hits(system, t, None, 50, start="invariant",
                         rng=np.random.default_rng(1))
        assert res.final.phi == phi_values(t, [50], measure=ProductMeasure([-1.3]))[0]
        # a given point is the caller's own start
        assert count_hits(system, t, (Fraction(1, 3),), 50).final.n == 50


# R at the checkpoints of TestStreamedCounts, as the array ladder counted
# them in one pass over all N steps (no step is ambiguous, so R_lo = R_hi)
ARRAY_LADDER_R = {
    "ball": [1, 40, 50, 50, 63, 84, 97, 103, 118, 126, 135, 140, 150, 152],
    "rectangle": [0, 66, 85, 85, 113, 154, 194, 233, 260, 282, 301, 331, 351, 353],
}


class TestStreamedCounts:
    """The digit engine walks the steps block by block and holds one block."""

    @pytest.mark.parametrize("narrow", [False, True], ids=["windows", "narrow-windows"])
    @pytest.mark.parametrize("shape, betas", [("ball", (2, 3)), ("rectangle", ("g", 2))])
    def test_rows_at_every_block_boundary(self, monkeypatch, shape, betas, narrow):
        # 512-step blocks: ten full blocks and a partial one, a checkpoint
        # at each boundary and three inside the blocks
        target = {"ball": ball((0.3, 0.0), RateFunction.power(0.5, 0.25)),
                  "rectangle": rectangle((0.3, 0.0), (RateFunction.power(0.4, 0.2),
                                                      RateFunction.power(0.3, 0.1)))}[shape]
        n_steps = 10 * 512 + 100
        cps = list(range(512, n_steps, 512)) + [1, 700, 701]
        if narrow:  # most steps go on to the fine and the exact stage
            monkeypatch.setattr(counting, "COARSE_BITS", 2)
            monkeypatch.setattr(counting, "FINE_BITS", 3)

        def rows():
            res = count_hits(DiagonalTorusSystem(betas), target, None, n_steps,
                             checkpoints=cps, rng=np.random.default_rng(3))
            return res.checkpoints

        whole = rows()  # one block
        monkeypatch.setattr(counting, "COARSE_CHUNK", 64)
        monkeypatch.setattr(counting, "BLOCK_CHUNKS", 8)
        assert rows() == whole
        assert [row.n for row in whole] == sorted(cps) + [n_steps]
        assert [(row.r_lo, row.r_hi) for row in whole] == [(r, r) for r in ARRAY_LADDER_R[shape]]

    @pytest.mark.parametrize("blocks", [100, 1000])
    def test_memory_does_not_grow_with_the_blocks(self, monkeypatch, blocks):
        # 128-step blocks, and Phi sums 1024 steps a chunk: a count holds a
        # few such chunks' arrays, whatever N
        monkeypatch.setattr(counting, "COARSE_CHUNK", 16)
        monkeypatch.setattr(counting, "BLOCK_CHUNKS", 8)
        monkeypatch.setattr(targets, "PHI_CHUNK", 1024)
        system = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        count_hits(system, t, None, 1000, rng=np.random.default_rng(1))  # warm the caches
        tracemalloc.start()
        try:
            res = count_hits(system, t, None, blocks * 128, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.final.r_lo > 0
        assert peak < 200_000

    def test_given_point_memory_does_not_grow_with_n(self):
        # a given point holds one block of its expansion and the lookahead, as
        # a random start does: the same peak at N = 2 10^6 and 4 10^6
        system = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        x = (Fraction(17, 97), Fraction(23, 89))
        count_hits(system, t, x, 1000)  # warm the caches
        peaks = []
        for n_steps in (2 * 10 ** 6, 4 * 10 ** 6):
            tracemalloc.start()
            try:
                res = count_hits(system, t, x, n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.final.r_lo == res.final.r_hi > 0
        assert peaks[0] < 32 * 2 ** 20
        assert peaks[1] <= peaks[0] + 2 ** 20, peaks

    def test_one_source_holds_a_block_at_a_time(self, monkeypatch):
        # a batch's sources walk each block in turn: while one holds the
        # block, every other holds its lookahead alone
        monkeypatch.setattr(counting, "COARSE_CHUNK", 64)
        betas, n_steps = (2, 3), 3000
        systems = counting._digit_systems(DiagonalTorusSystem(betas), None, None)
        sources = [DigitSource(systems, n_steps, draws(systems, rng))
                   for rng in np.random.default_rng(6).spawn(5)]
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        block = counting.BLOCK_CHUNKS * 64
        seen = []
        for k, hit_lo, _ in counting._digit_blocks(sources, t, n_steps):
            start = sources[k].offset
            assert len(hit_lo) == min(block, n_steps - start)
            for j, source in enumerate(sources):
                held = [len(d) for d in source.digits]
                if j == k:
                    assert held == [min(start + block, n_steps) + _digit_window(b) - start
                                    for b in betas]
                else:
                    assert all(h <= _digit_window(b) + 64 for h, b in zip(held, betas)), (j, held)
            seen.append((start, k))
        assert seen == [(start, k) for start in range(0, n_steps, block) for k in range(5)]


class TestMonteCarloCounting:
    def test_jobs_do_not_change_results(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        one = monte_carlo_counting(s, t, 6, 20_000, seed=7, checkpoints=[10_000, 20_000])
        two = monte_carlo_counting(s, t, 6, 20_000, seed=7, checkpoints=[10_000, 20_000],
                                   jobs=2)
        assert one.results == two.results
        assert one.fraction_in_band == two.fraction_in_band

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_are_refused(self, jobs):
        # zero workers would have no batch to run: a named refusal, not an IndexError
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        with pytest.raises(ValueError, match="jobs"):
            monte_carlo_counting(s, t, 2, 100, seed=1, jobs=jobs)

    @pytest.mark.parametrize("jobs, samples, cpus, workers", [
        (500, 1, 2, None), (500, 3, 2, 2), (500, 3, 8, 3), (2, 6, 8, 2), (4, 6, None, None),
    ])
    def test_pool_is_capped_by_samples_and_cpus(self, monkeypatch, jobs, samples, cpus, workers):
        # a fake pool records its size and runs the samples in this process
        opened = []

        class FakePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(counting, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        got = monte_carlo_counting(s, t, samples, 2000, seed=7, jobs=jobs)
        assert opened == ([] if workers is None else [workers])
        assert got.results == monte_carlo_counting(s, t, samples, 2000, seed=7).results

    @pytest.mark.parametrize("betas", [(2, 3), ("g", "g")])
    @pytest.mark.parametrize("start", counting.START_LAWS)
    def test_a_longer_run_extends_a_shorter_one(self, betas, start):
        # N = 20000 is one partial coarse chunk; 4N is two full ones and more
        s = DiagonalTorusSystem(betas)
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        n = 20_000
        short = monte_carlo_counting(s, t, 3, n, seed=3, checkpoints=[n // 10], start=start)
        long = monte_carlo_counting(s, t, 3, 4 * n, seed=3, checkpoints=[n // 10, n],
                                    start=start)
        assert [res.checkpoints for res in short.results] == [
            res.checkpoints[:2] for res in long.results]

    def test_seed_changes_results(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        a = monte_carlo_counting(s, t, 3, 5_000, seed=1)
        b = monte_carlo_counting(s, t, 3, 5_000, seed=2)
        assert a.results != b.results

    @pytest.mark.parametrize("betas, n_steps", [((2, 3), 5000), ((G, 2.5), 200)])
    def test_phi_once_per_experiment(self, monkeypatch, betas, n_steps):
        s = DiagonalTorusSystem(betas)
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        calls = []
        phi_values = counting.phi_values

        def counted(*args, **kwargs):
            calls.append(args)
            return phi_values(*args, **kwargs)

        monkeypatch.setattr(counting, "phi_values", counted)
        cps = [50, n_steps // 2, n_steps]
        summary = monte_carlo_counting(s, t, 3, n_steps, seed=11, checkpoints=cps)
        assert len(calls) == 1
        for i, res in enumerate(summary.results):
            assert res == count_hits(s, t, None, n_steps, checkpoints=cps, sample_id=i,
                                     rng=_sample_rng(11, i))

    def test_band_statistics(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        summary = monte_carlo_counting(s, t, 20, 50_000, seed=3,
                                       checkpoints=[10_000, 50_000])
        assert summary.fraction_in_band >= 0.9
        assert summary.max_abs_e < 3.0


def pullback_estimates(beta, e_set, f_set, n: int) -> list:
    """Oracle: phi-hat at lags 0..n from F pulled back into the pieces of
    cylinders.preimage_sweep, each piece's part in E measured by measure_interval."""
    mu = ParryYrrapMeasure(beta)
    mu_e, mu_f = mu.measure_interval(*e_set), mu.measure_interval(*f_set)
    center, radius = (f_set[0] + f_set[1]) / 2, (f_set[1] - f_set[0]) / 2
    return [abs(np.sum(mu.measure_interval(np.clip(lo, *e_set), np.clip(hi, *e_set))) / mu_f
                - mu_e)
            for lo, hi in preimage_sweep(beta, n, center, radius)]


SERIES_CONFIGS = [
    ("g", (0.0, 1 / G), (0.0, 1 / G), range(0, 19)),
    ("g", (0.1, 0.45), (0.05, 0.8), [0, 3, 7, 8, 15]),
    ("5/2", (0.2, 0.9), (0.0, 0.3), range(0, 11)),
    (3, (0.0, 1 / 3), (0.5, 0.75), range(0, 9)),
    (3, (0.1, 0.4), (0.2, 0.45), [0, 2, 5, 8]),
    (2, (0.0, 0.25), (0.3, 0.4), range(0, 10)),   # auto: zero from lag 2
    (-1.8, (0.05, 0.5), (0.3, 0.8), range(0, 13)),
    (-1.8, (0.3, 0.95), (0.0, 0.35), [1, 4, 12]),
]


class TestCorrelation:
    def test_dyadic_exact_zero(self):
        assert correlation_estimate(2, (0.0, 0.5), (0.0, 0.25), 3) == (0.0, 0.0)

    def test_lag_zero_no_mixing(self):
        est, se = correlation_estimate(2, (0.0, 0.5), (0.0, 0.5), 0)
        assert est == pytest.approx(0.5)
        assert se == 0.0

    def test_exact_matches_mc(self):
        e_set = (0.0, 1 / G)
        for lag in (1, 3, 5):
            exact, _ = correlation_estimate("g", e_set, e_set, lag, method="exact")
            mc, se = correlation_estimate("g", e_set, e_set, lag, method="mc",
                                          num_samples=400_000, seed=11)
            assert abs(exact - mc) < 4 * se

    def test_markov_cell_geometric_decay(self):
        cs = correlation_series("g", (0.0, 1 / G), (0.0, 1 / G), range(1, 16),
                                method="exact")
        vals = [v for _, v, _ in cs.entries]
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert all(r == pytest.approx(G ** -2, abs=1e-6) for r in ratios)
        assert cs.fit_gamma == pytest.approx(G ** -2, abs=1e-3)
        assert cs.fit_r2 > 0.999
        assert cs.kappa_hat == pytest.approx(sum(
            vals[0] * (G ** -2) ** k for k in range(200)), rel=1e-3)

    @pytest.mark.parametrize("method", ["exact", "mc", "auto"])
    def test_negative_lags_are_refused(self, method):
        # lag -1 is no pullback: it must not read as lag 0's estimate
        with pytest.raises(ValueError, match=">= 0"):
            correlation_series("g", (0.0, 0.5), (0.2, 0.7), [-1, 1], method=method,
                               num_samples=100, seed=1)
        with pytest.raises(ValueError, match=">= 0"):
            correlation_estimate("g", (0.0, 0.5), (0.2, 0.7), -1, method=method,
                                 num_samples=100, seed=1)

    def test_degenerate_f_rejected(self):
        with pytest.raises(DegenerateF):
            correlation_estimate(2, (0.0, 0.5), (0.3, 0.3 + 1e-9), 2)

    @pytest.mark.parametrize("beta, e_set, f_set, lags", SERIES_CONFIGS)
    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_series_is_the_per_lag_estimate(self, beta, e_set, f_set, lags, method):
        # one series serves every lag; each entry equals its own from-scratch
        # estimate, with samples too (where "mc" stands in for "exact")
        sampled = {"exact": "mc", "auto": "auto"}[method]
        for run, num_samples in ((method, None), (sampled, 500)):
            series = correlation_series(beta, e_set, f_set, lags, method=run,
                                        num_samples=num_samples, seed=3)
            assert series.entries == tuple(
                (n, *correlation_estimate(beta, e_set, f_set, n, method=run,
                                          num_samples=num_samples, seed=3))
                for n in sorted(lags))

    @pytest.mark.parametrize("beta, e_set, f_set, lags", SERIES_CONFIGS + [
        ("e", (0.1, 0.6), (0.3, 0.8), range(0, 12)),
        ("-g", (0.2, 0.7), (0.1, 0.5), range(0, 19)),
        (-1.3, (0.05, 0.8), (0.6, 0.95), range(0, 16)),   # F inside the Yrrap support
    ])
    def test_exact_series_is_the_pullback(self, beta, e_set, f_set, lags):
        want = pullback_estimates(beta, e_set, f_set, max(lags))
        series = correlation_series(beta, e_set, f_set, lags, method="exact")
        for n, value, se in series.entries:
            assert abs(value - want[n]) <= 1e-13 and se == 0.0

    def test_exact_series_on_base_three_is_the_fraction(self):
        # |[0, 1/2) ∩ T_3^-n [0, 1/4)|: floor(3^n / 2) whole branches of [0, 1/4)
        # and a part min(frac(3^n / 2), 1/4) of one more, each 3^-n long
        mu = ParryYrrapMeasure(3)
        joints = counting._exact_series(3, mu, (0.0, 0.5), (0.0, 0.25), set(range(26)))
        for n in range(26):
            scaled = Fraction(3 ** n, 2)
            whole = math.floor(scaled)
            want = (whole * Fraction(1, 4) + min(scaled - whole, Fraction(1, 4))) / 3 ** n
            assert abs(Fraction(joints[n][0]) - want) <= Fraction(1, 2 ** 54)

    def test_golden_cylinder_to_lag_200(self):
        # E = F = [0, 1/g), the golden-mean cylinder of first digit 0:
        # phi_hat(n) = (5 - sqrt 5) / 10 g^-2n
        e_set = (0.0, 0.618033988749895)
        series = correlation_series("g", e_set, e_set, range(1, 201))
        for n, value, _ in series.entries:
            assert abs(value - (5 - math.sqrt(5)) / 10 * G ** (-2 * n)) <= 1e-14

    def test_exact_series_past_the_piece_cap_refuses(self):
        # beta = 10000.5 to lag 25 may read 1.1e7 cell values: refused before it
        # starts; lag 9 (1.8e6) runs
        with pytest.raises(PieceCapExceeded, match="to lag 25"):
            correlation_series("10000.5", (0.0, 0.5), (0.0, 0.25), range(1, 26),
                               method="exact")
        series = correlation_series("10000.5", (0.0, 0.5), (0.0, 0.25), range(1, 10))
        assert series.entries[0][1] == pytest.approx(
            pullback_estimates("10000.5", (0.0, 0.5), (0.0, 0.25), 1)[1], rel=0, abs=1e-13)

    def test_integer_base_non_dyadic_set_decays(self):
        cs = correlation_series(2, (0.0, 1 / 3), (0.0, 1 / 3), range(1, 10),
                                method="exact")
        vals = [v for _, v, _ in cs.entries]
        assert vals[0] > 0
        assert vals[-1] < vals[0]


class TestFitExponential:
    def test_recovers_synthetic_decay(self):
        ns = np.arange(1, 30)
        vals = 0.7 * 0.55 ** ns
        c, gamma, r2 = fit_exponential(ns, vals)
        assert c == pytest.approx(0.7, rel=1e-9)
        assert gamma == pytest.approx(0.55, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noise_floor_points_excluded_from_slope(self):
        rng = np.random.default_rng(0)
        ns = np.arange(1, 26)
        true = 0.5 * 0.5 ** ns
        noise = np.abs(rng.normal(0, 1e-4, len(ns)))
        vals = np.maximum(true, noise)
        ses = np.full(len(ns), 1e-4)
        c, gamma, r2 = fit_exponential(ns, vals, ses)
        assert 0.4 < gamma < 0.6
        assert r2 > 0.9


class TestVariance:
    def test_single_step_bernoulli(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.3, 0.0))
        rep = variance_check(s, t, 5, 5, 4000, seed=9)
        p = 0.6
        assert rep.empirical_var == pytest.approx(p * (1 - p), abs=0.03)
        assert rep.measure_sum == pytest.approx(p)

    @pytest.mark.parametrize("a", [1, 3])
    def test_measure_sum_is_the_counts_phi(self, a):
        s = DiagonalTorusSystem(("g", 2))
        t = ball((0.3, 0.0), RateFunction.power(0.5, 0.25))
        rep = variance_check(s, t, a, 40, 3, seed=2, start="invariant")
        phi = phi_values(t, [a - 1, 40] if a > 1 else [40], measure=invariant_measure(s))
        assert rep.measure_sum == phi[-1] - (phi[0] if a > 1 else 0.0)

    def test_independent_window_within_bound(self):
        # dyadic targets under doubling are independent across steps
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.25, 0.0))
        rep = variance_check(s, t, 1, 40, 3000, seed=10)
        assert rep.ratio <= 1.05

    def test_mixed_base_window_ratio(self):
        # shrinking ball targets on diag(2,3): empirical variance against the
        # kappa = 0 bound, allowing four standard errors of the variance
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        rep = variance_check(s, t, 1, 100, 2000, seed=13)
        zs = window_hits(s, t, 1, 100, 2000, seed=13)
        m2 = np.mean((zs - zs.mean()) ** 2)
        m4 = np.mean((zs - zs.mean()) ** 4)
        se_var = math.sqrt(max(m4 - m2 ** 2, 0.0) / len(zs))
        assert rep.empirical_var <= rep.bound + 4 * se_var

    def test_window_sum_matches_count_difference(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        zs = window_hits(s, t, 11, 60, 5, seed=4)
        for i in range(5):
            rng_full = count_hits(
                s, t, None, 60, checkpoints=[10, 60], sample_id=i,
                rng=np.random.default_rng(
                    np.random.SeedSequence(entropy=4, spawn_key=(i,))))
            first = rng_full.checkpoints[0]
            last = rng_full.final
            assert zs[i] == last.r_mid - first.r_mid


class TestAmbiguityBudget:
    def test_budget_rule(self):
        from shrinktarget.counting import CheckpointRow, CountingResult

        clean = CountingResult(0, (CheckpointRow(100, 1000, 1000, 900.0, None),), 0, 0.5)
        assert clean.ambiguity_ok()
        noisy = CountingResult(0, (CheckpointRow(100, 990, 1000, 900.0, None),), 10, 0.5)
        assert not noisy.ambiguity_ok()          # 10 > 0.1% of 1000

    def test_clean_runs_pass_the_budget(self):
        s = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.3, 0.1))
        summary = monte_carlo_counting(s, t, 3, 2000, seed=1)
        assert all(r.ambiguous_hits == 0 for r in summary.results)

    def test_monte_carlo_counting_enforces_the_budget(self, monkeypatch):
        # 2 ambiguous hits of R_hi = 1000 is past AMBIGUITY_BUDGET = 1e-3
        def noisy(system, target, x, cps, phi, epsilon, measure, samples):
            row = counting.CheckpointRow(cps[-1], 998, 1000, float(phi[-1]), None)
            return [counting.CountingResult(i, (row,), 2, epsilon) for i, _ in samples]

        monkeypatch.setattr(counting, "_count_samples", noisy)
        system = DiagonalTorusSystem((2,))
        t = ball((0.0,), RateFunction.power(0.3, 0.1))
        with pytest.raises(AmbiguityBudgetExceeded, match="sample 0: 2 ambiguous hits"):
            monte_carlo_counting(system, t, 2, 10, seed=1)
        # the window sums run on the same samples, under the same budget
        with pytest.raises(AmbiguityBudgetExceeded, match="sample 0: 2 ambiguous hits"):
            window_hits(system, t, 3, 10, 2, seed=1)
        with pytest.raises(AmbiguityBudgetExceeded, match="sample 0: 2 ambiguous hits"):
            variance_check(system, t, 1, 10, 2, seed=1)


class TestNuHyperboloidPhi:
    def test_phi_is_exact_under_product_measure(self):
        from shrinktarget.targets import phi_values

        nu = ProductMeasure([2, 3])  # Lebesgue factors: nu-volumes are the closed form
        t = hyperboloid((0.0, 0.0), RateFunction.power(0.05, 0.2))
        want = phi_values(t, [20])[0]
        assert phi_values(t, [20], measure=nu)[0] == pytest.approx(want, rel=1e-12)
        res = count_hits(DiagonalTorusSystem((2, 3)), t, None, 20, start="invariant",
                         rng=np.random.default_rng(6))
        assert res.final.phi == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.8)])
    def test_golden_count_near_phi(self, center):
        samples = 12
        summary = monte_carlo_counting(
            DiagonalTorusSystem(("g", "g")), hyperboloid(center, RateFunction.power(0.05, 0.2)),
            samples, 3000, seed=2022, start="invariant")
        phi = summary.phi_final
        mean = sum(res.final.r_mid for res in summary.results) / samples
        assert abs(mean - phi) <= 6 * math.sqrt(2 * phi / samples)


class TestPaleyZygmund:
    def test_bound_holds_for_counting_windows(self):
        s = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        zs = window_hits(s, t, 1, 400, 600, seed=12)
        for lam in (0.25, 0.5):
            frac, bound, err = paley_zygmund_bound(zs, lam)
            assert frac >= bound - 4 * err

    def test_validates_lambda(self):
        with pytest.raises(ValueError):
            paley_zygmund_bound(np.ones(10), 1.5)
