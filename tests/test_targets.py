"""Target family tests: rates, volumes, Phi sums, membership."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shrinktarget.errors import OutOfTable
from shrinktarget.measures import ProductMeasure
from shrinktarget.orbits import UnitRealInterval
from shrinktarget.targets import (
    AccumulationSet,
    Containment,
    RateFunction,
    Shape,
    TargetSpec,
    accumulation_set,
    ball,
    contains,
    hyperboloid,
    hyperboloid_volume,
    lebesgue_volume,
    phi_values,
    rectangle,
)


def mc_hyperboloid_volume(measure, center, delta, rng, samples):
    """Monte Carlo nu-measure of {x : prod ||x_i - a_i|| <= delta}, with its standard error."""
    dist = np.abs(measure.sample(rng, samples) - np.asarray(center))
    dist = np.minimum(dist, 1.0 - dist)
    p = float(np.mean(np.prod(dist, axis=1) <= delta))
    return p, math.sqrt(max(p * (1 - p), 1e-300) / samples)


class TestRates:
    def test_symbolic_values(self):
        assert RateFunction.exponential(1).psi(3) == pytest.approx(math.exp(-3))
        assert RateFunction.power(0.5, 0.25).psi(16) == pytest.approx(0.25)
        assert RateFunction.superexponential().psi(4) == pytest.approx(math.exp(-16))

    def test_table_extension(self):
        t = RateFunction.table([0.5, 0.25], extend="none")
        assert t.psi(2) == 0.25
        with pytest.raises(OutOfTable):
            t.psi(3)
        assert RateFunction.table([0.5, 0.25], extend="hold").psi(9) == 0.25

    @pytest.mark.parametrize("rate", [
        RateFunction.power(0.5, 0.0), RateFunction.power(0.5, 0.25), RateFunction.power(3.0, 2.0),
        RateFunction.exponential(0.0), RateFunction.exponential(0.05),
        RateFunction.superexponential(),
        # rises and falls inside a run and across runs
        RateFunction.table([0.1 + 0.05 * abs(j % 37 - 18) + 0.3 * (j // 700 % 2)
                            for j in range(3000)]),
        # read far past its end, held
        RateFunction.table([0.2, 0.05, 0.3, 0.1], extend="hold"),
    ], ids=["pow-kappa-0", "pow", "pow-steep", "exp-t-0", "exp", "superexp", "table",
            "table-hold"])
    @pytest.mark.parametrize("first, stop, run", [(1, 3001, 1024), (1, 2, 1), (5, 40, 1),
                                                  (700, 3001, 100), (1, 2000, 7)],
                             ids=["runs+partial", "one-step", "1-step-runs", "offset",
                                  "odd-runs"])
    def test_run_bounds_hold_psi(self, rate, first, stop, run):
        lower, upper = rate.run_bounds(first, stop, run)
        assert len(lower) == len(upper) == -(-(stop - first) // run)
        for j, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
            ns = range(first + j * run, min(first + (j + 1) * run, stop))
            values = [rate.psi(n) for n in ns]
            assert lo <= min(values) and max(values) <= hi, (j, lo, hi)
            # the array evaluation too, whose SIMD lanes may round differently
            arr = rate.psi(np.arange(ns.start, ns.stop, dtype=np.float64))
            assert lo <= arr.min() and arr.max() <= hi
            if rate.kind == "table":  # exact min and max over the run
                assert (lo, hi) == (min(values), max(values))

    def test_run_bounds_past_a_table_without_hold(self):
        t = RateFunction.table([0.5, 0.25])
        assert [b.tolist() for b in t.run_bounds(1, 3, 4)] == [[0.25], [0.5]]
        with pytest.raises(OutOfTable):
            t.run_bounds(1, 4, 4)

    def test_lower_orders(self):
        assert RateFunction.exponential(5.0).lower_order() == 5.0
        assert RateFunction.power(2.0, 3.0).lower_order() == 0.0
        assert RateFunction.superexponential().lower_order() == math.inf

    def test_table_lower_order_with_window(self):
        vals = [math.exp(-0.4 * n) for n in range(1, 401)]
        est, window = RateFunction.table(vals).lower_order()
        assert est == pytest.approx(0.4, abs=1e-9)
        assert window[0] >= 1 and window[1] == 400

    @pytest.mark.parametrize("rate", [
        RateFunction.power(0.5, 0.25),
        RateFunction.power(0.3, 0.7),
        RateFunction.exponential(0.37),
        RateFunction.superexponential(),
        RateFunction.table([0.5 / k for k in range(1, 1001)], extend="hold"),
    ])
    def test_scalar_psi_is_the_array_radius(self, rate):
        # the digit engine's float stage reads psi(arange)[n-1] and its exact
        # stage psi(n); math.pow differs from the array pow on ~5% of n
        n_max = 10 ** 5
        radii = rate.psi(np.arange(1, n_max + 1))
        picks = np.random.default_rng(0).integers(1, n_max + 1, size=1500)
        for n in itertools.chain(range(1, 1001), picks.tolist(), [n_max]):
            assert rate.psi(n) == radii[n - 1], n

    def test_log_psi_no_underflow(self):
        r = RateFunction.exponential(2.0)
        assert r.log_psi(10_000) == pytest.approx(-20_000.0)
        assert RateFunction.superexponential().log_psi(1000) == pytest.approx(-1e6)

    @pytest.mark.parametrize("rate, textbook", [
        (RateFunction.exponential(0.37), lambda n: np.exp(-n * 0.37)),
        (RateFunction.exponential(2.0), lambda n: np.exp(-n * 2.0)),
        (RateFunction.exponential(0.0), lambda n: np.exp(-n * 0.0)),
        (RateFunction.power(0.5, 0.25), lambda n: n ** -0.25 * 0.5),
        (RateFunction.power(3.0, 2.0), lambda n: n ** -2.0 * 3.0),
        (RateFunction.power(0.3, 0.0), lambda n: n ** -0.0 * 0.3),
        (RateFunction.superexponential(), lambda n: np.exp(-(n ** 2))),
    ], ids=["exp", "exp-steep", "exp-t-0", "pow", "pow-steep", "pow-kappa-0", "superexp"])
    def test_psi_bytes_are_the_textbook_expression(self, rate, textbook):
        # the one closed form multiplies in factors that are exactly 1, so
        # each kind keeps the bytes of its own expression, on arrays and on
        # scalars (0-d arrays, as numpy's scalar pow rounds differently)
        ns = np.arange(1, 10 ** 5 + 1, dtype=np.float64)
        assert rate.psi(ns).tobytes() == textbook(ns).tobytes()
        for n in (1, 2, 7, 26, 27, 1000, 99_991, 10 ** 5):
            expected = np.float64(textbook(np.array(float(n))))
            assert np.float64(rate.psi(n)).tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
    def test_tau_of_a_constant_rate_is_the_constant(self, c):
        assert RateFunction.power(c, 0).tau_limsup(1.0) == c
        assert RateFunction.power(c, 0).tau_attained
        assert RateFunction.power(c, 0).tau_limsup(0.5) == math.inf

    def test_tau_on_the_unit_circle(self):
        assert RateFunction.power(0.3, 0.5).tau_limsup(1.0) == 0.0
        assert RateFunction.exponential(0.2).tau_limsup(1.0) == 0.0
        assert RateFunction.superexponential().tau_limsup(1.0) == 0.0
        assert RateFunction.superexponential().tau_limsup(0.0) == math.inf

    def test_exponential_zero_is_the_constant_one(self):
        zero, one = RateFunction.exponential(0), RateFunction.power(1, 0)
        ns = np.arange(1, 1001, dtype=np.float64)
        assert zero.psi(ns).tobytes() == one.psi(ns).tobytes()
        assert zero.log_psi(ns).tolist() == one.log_psi(ns).tolist()
        assert (zero.vanishes, zero.lower_order()) == (False, 0.0)
        assert (one.vanishes, one.lower_order()) == (False, 0.0)
        for beta in (1.0, 0.9, 0.5, 0.01):
            assert zero.tau_limsup(beta) == one.tau_limsup(beta)
            assert zero.tau_attained == one.tau_attained

    def test_superexponential_is_the_closed_form_at_t_1_p_2(self):
        r = RateFunction.superexponential()
        assert (r.c, r.kappa, r.t, r.p) == (1.0, 0.0, 1.0, 2)
        assert (RateFunction.exponential(0.5).p, RateFunction.power(1, 1).p) == (1, 1)

    def test_tables_neither_vanish_nor_attain_tau(self):
        t = RateFunction.table([0.5, 0.25, 0.125], extend="hold")
        assert not t.vanishes and not t.tau_attained
        assert t.tau_limsup(0.5) == 1.0  # psi(n) = 2^-n

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_forms_against_log_psi(self, seed):
        # vanishes, lambda, the class of tau (0, finite, +inf) and its
        # attainment, each read off log psi(n) |beta|^-n out to n = 10^4,
        # for |beta| in (0, 1) and on the unit circle
        rng = np.random.default_rng(seed)
        ns = np.arange(1, 10 ** 4 + 1, dtype=np.float64)
        mid = 5000 - 1
        for _ in range(40):
            beta = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 1.0))
            gap = math.log(1.0 / beta)
            rate = [RateFunction.exponential(float(rng.uniform(0.0, 3.0))),
                    RateFunction.exponential(gap),  # psi(n) |beta|^-n == 1
                    RateFunction.exponential(0.0),
                    RateFunction.power(*rng.uniform(0.05, 3.0, size=2).tolist()),
                    RateFunction.power(float(rng.uniform(0.05, 3.0)), 0.0),
                    RateFunction.superexponential()][rng.integers(6)]
            case = (rate, beta)
            log_psi = rate.log_psi(ns)
            assert rate.vanishes == bool(log_psi[-1] < log_psi[mid]), case
            slope = -log_psi[-1] / ns[-1]
            lam = rate.lower_order()
            if math.isinf(lam):
                assert slope > 1e3, case
            else:
                slack = (rate.kappa * math.log(ns[-1]) + abs(math.log(rate.c))) / ns[-1]
                assert abs(slope - lam) <= slack + 1e-12, case
            log_s = log_psi + ns * gap  # log psi(n) |beta|^-n
            trend = log_s[-1] - log_s[mid]
            tau = rate.tau_limsup(beta)
            if trend < -1e-9:
                assert tau == 0.0, case
            elif trend > 1e-9:
                assert tau == math.inf, case
            else:  # a constant, reached at every n
                assert np.all(log_s[mid:] == math.log(tau)), case
            assert rate.tau_attained, case


class TestHyperboloidVolume:
    def test_large_delta_saturates(self):
        assert hyperboloid_volume(1, 0.6) == 1.0
        assert hyperboloid_volume(2, 0.25) == 1.0

    def test_one_dimension_is_linear(self):
        assert hyperboloid_volume(1, 0.1) == pytest.approx(0.2)

    def test_two_dimensions_closed_form(self):
        assert hyperboloid_volume(2, 1 / 8) == pytest.approx(0.5 * (1 + math.log(2)))

    def test_zero_delta_is_empty(self):
        # psi(n) underflows to 0.0 for large n: the target is empty
        for d in (1, 2, 3):
            assert hyperboloid_volume(d, 0.0) == 0.0
            assert list(hyperboloid_volume(d, np.array([0.0, 1e-3]))) == [
                0.0, hyperboloid_volume(d, 1e-3)]
        with pytest.raises(ValueError):
            hyperboloid_volume(2, -1e-300)

    def test_continuity_and_monotonicity(self):
        deltas = np.linspace(1e-4, 0.3, 400)
        vols = hyperboloid_volume(2, deltas)
        assert np.all(np.diff(vols) >= -1e-15)
        assert hyperboloid_volume(3, 2.0 ** -3) == pytest.approx(1.0)
        assert hyperboloid_volume(3, 2.0 ** -3 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
    def test_monte_carlo_oracle_module_scale(self, d, delta):
        rng = np.random.default_rng(10 * d + int(-math.log10(delta)))
        m = 10 ** 6
        pts = rng.random((m, d))
        dist = np.minimum(pts, 1 - pts)
        mc = float(np.mean(np.prod(dist, axis=1) < delta))
        cf = hyperboloid_volume(d, delta)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / m)
        assert abs(cf - mc) < 4 * se


class TestLebesgueVolume:
    def test_ball_and_rectangle(self):
        t = ball((0.0, 0.0), RateFunction.table([1 / 8], extend="hold"))
        assert lebesgue_volume(t, 1) == pytest.approx(1 / 16)
        r = rectangle((0.0, 0.0), [RateFunction.table([1 / 8], extend="hold"),
                                   RateFunction.table([1 / 12], extend="hold")])
        assert lebesgue_volume(r, 1) == pytest.approx((1 / 4) * (1 / 6))

    def test_volume_caps_at_one(self):
        t = ball((0.0,), RateFunction.table([0.7], extend="hold"))
        assert lebesgue_volume(t, 1) == 1.0

    def test_shift_invariance_exact(self):
        rate = RateFunction.power(0.3, 0.5)
        for shape, ctor in ((Shape.BALL, ball), (Shape.HYPERBOLOID, hyperboloid)):
            a = ctor((0.0, 0.0), rate)
            b = ctor((0.371, 0.829), rate)
            for n in (1, 5, 20):
                assert lebesgue_volume(a, n) == lebesgue_volume(b, n)


class TestPhi:
    def test_direct_summation_oracle(self):
        # oracle: plain loop over n of (2 psi(n))^d
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        want = sum((2 * 0.5 * n ** -0.25) ** 2 for n in range(1, 10 ** 4 + 1))
        assert phi_values(t, [10 ** 4])[0] == pytest.approx(want, rel=1e-12)
        assert phi_values(t, [10 ** 4])[0] == pytest.approx(198.5446, abs=1e-3)

    def test_geometric_rate_is_bounded(self):
        t = ball((0.0,), RateFunction.exponential(math.log(2)))
        assert phi_values(t, [10_000])[0] <= 2.0

    def test_constant_hyperboloid(self):
        t = hyperboloid((0.0, 0.0), RateFunction.table([1 / 8] * 10, extend="hold"))
        assert phi_values(t, [10])[0] == pytest.approx(10 * hyperboloid_volume(2, 1 / 8))

    def test_monotone_in_n(self):
        t = ball((0.0,), RateFunction.power(0.4, 0.3))
        vals = phi_values(t, list(range(1, 200)))
        assert np.all(np.diff(vals) >= 0)

    def test_product_measure_path(self):
        nu = ProductMeasure(["g", 2])
        t = ball((0.25, 0.5), RateFunction.power(0.2, 0.5))
        got = phi_values(t, [50], measure=nu)[0]
        want = sum(nu.ball(t.center, t.rates[0].psi(n)) for n in range(1, 51))
        assert got == pytest.approx(want, rel=1e-12)

    def test_nu_hyperboloid_mc_against_closed_form(self):
        # the Monte Carlo oracle itself: Lebesgue factors have an exact volume
        nu = ProductMeasure([2, 3])
        est, se = mc_hyperboloid_volume(nu, (0.0, 0.0), 0.05,
                                        np.random.default_rng(4), samples=200_000)
        assert abs(est - hyperboloid_volume(2, 0.05)) < 4 * se

    @pytest.mark.parametrize("betas", [("g", "g"), ("e", "g"), (3, 1.5)])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.8)])
    def test_nu_hyperboloid_against_monte_carlo(self, betas, center):
        nu = ProductMeasure(betas)
        rng = np.random.default_rng(9)
        for delta in (0.05, 0.01, 1e-4):
            est, se = mc_hyperboloid_volume(nu, center, delta, rng, samples=400_000)
            assert abs(nu.hyperboloid(center, delta) - est) < 4 * se

    def test_hyperboloid_phi_under_product_measure(self):
        nu = ProductMeasure(["g", "e"])
        t = hyperboloid((0.3, 0.8), RateFunction.power(0.05, 0.2))
        got = phi_values(t, [20, 300], measure=nu)
        want = np.cumsum([nu.hyperboloid((0.3, 0.8), t.rates[0].psi(n)) for n in range(1, 301)])
        np.testing.assert_allclose(got, want[[19, 299]], rtol=1e-12)


HELD_QUARTER = RateFunction.table([0.25], extend="hold")


class TestContains:
    def test_point_cases(self):
        t = ball((0.0,), RateFunction.table([0.1], extend="hold"))
        assert contains(t, 1, (0.05,)) == Containment.YES
        assert contains(t, 1, (0.95,)) == Containment.YES  # wrap-aware
        assert contains(t, 1, (0.25,)) == Containment.NO

    def test_exact_center_stays_exact(self):
        # 1/6 and 2/3 both lie exactly 1/4 from 5/12, on the closed ball's boundary
        t = ball((Fraction(5, 12),), HELD_QUARTER)
        assert t.center == (Fraction(5, 12),)
        assert contains(t, 1, [Fraction(1, 6)]) == Containment.YES
        assert contains(t, 1, [Fraction(2, 3)]) == Containment.YES
        assert ball((Fraction(-7, 12), 2.5), HELD_QUARTER).center == (Fraction(5, 12), 0.5)

    def test_hyperboloid_no(self):
        t = hyperboloid((0.0, 0.0), RateFunction.table([0.01], extend="hold"))
        assert contains(t, 1, (0.5, 0.5)) == Containment.NO

    def test_enclosure_straddles_boundary(self):
        t = ball((0.0,), RateFunction.table([0.1], extend="hold"))
        assert contains(t, 1, ((0.099, 0.101),)) == Containment.AMBIGUOUS

    def test_three_valued_monotone_under_refinement(self):
        t = ball((0.3,), RateFunction.table([0.07], extend="hold"))
        rng = np.random.default_rng(8)
        for _ in range(300):
            x = float(rng.random())
            w = float(rng.random()) * 0.05
            wide = contains(t, 1, ((x, (x + w) % 1.0),))
            narrow = contains(t, 1, ((x, (x + w / 7) % 1.0),))
            point = contains(t, 1, (x,))
            assert point != Containment.AMBIGUOUS
            if wide == Containment.YES:
                assert narrow == Containment.YES and point == Containment.YES
            if wide == Containment.NO:
                assert narrow == Containment.NO and point == Containment.NO
            if narrow == Containment.YES:
                assert point == Containment.YES

    def test_unit_interval_coordinates(self):
        t = ball((0.0, 0.0), RateFunction.table([0.2], extend="hold"))
        x = (UnitRealInterval.from_value(0.1, 128), UnitRealInterval.from_value(0.9, 128))
        assert contains(t, 1, x) == Containment.YES

    @pytest.mark.parametrize("target", [
        ball((0.0,), HELD_QUARTER),
        ball((0.75,), HELD_QUARTER),  # boundary at 1/2 and at the 0/1 seam
        ball((0.0, 0.75), HELD_QUARTER),
        rectangle((0.0, 0.75), (HELD_QUARTER, RateFunction.table([0.125], extend="hold"))),
        hyperboloid((0.0, 0.0), RateFunction.table([1 / 16], extend="hold")),
        hyperboloid((0.75, 0.0), RateFunction.table([1 / 16], extend="hold")),
    ], ids=["ball1", "ball1-seam", "ball2", "rect2", "hyp2", "hyp2-seam"])
    def test_contains_against_exact_oracle(self, target):
        # points, (lo, hi) arcs and 64..2147-bit enclosures 2^-60..2^-200
        # inside, outside and across each boundary: YES must mean every
        # point is in E_n, NO that none is, AMBIGUOUS that x straddles
        rng = np.random.default_rng(11)
        coords = [_near_boundary_inputs(target, i, rng) for i in range(target.d)]
        if target.d == 2:
            cases = [(c, coords[1][rng.integers(len(coords[1]))]) for c in coords[0]]
            cases += [(coords[0][rng.integers(len(coords[0]))], c) for c in coords[1]]
            cases += [(c, c) for c in coords[0] if not isinstance(c, UnitRealInterval)]
        else:
            cases = [(c,) for c in coords[0]]
        assert len(cases) >= 240
        for x in cases:
            assert contains(target, 1, x) == _oracle_verdict(target, x), x

    def test_unsound_float_rounding_cases(self):
        # each of these rounds onto the boundary in float arithmetic
        quarter = ball((0.0,), HELD_QUARTER)
        for v in (Fraction(1, 4) + Fraction(1, 2 ** 80), Fraction(3, 4) - Fraction(1, 2 ** 80)):
            assert contains(quarter, 1, (UnitRealInterval.from_value(v, 128),)) == Containment.NO
        hyp = hyperboloid((0.0, 0.0), RateFunction.table([1 / 16], extend="hold"))
        v = UnitRealInterval.from_value(Fraction(1, 4) + Fraction(1, 2 ** 90), 128)
        assert contains(hyp, 1, (v, v)) == Containment.NO
        # a float keeps none of the fractional part of 10^20 + 1/3
        assert contains(quarter, 1, (Fraction(10 ** 20) + Fraction(1, 3),)) == Containment.NO


def _near_boundary_inputs(target, i, rng):
    """Coordinate-i inputs near each value where ||x - a_i|| hits a radius."""
    a = Fraction(target.center[i])
    radii = {Fraction(r.psi(1)) for r in target.rates}
    if target.shape == Shape.HYPERBOLOID:
        radii = {Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)}  # factors of 1/16
    values = [(a + s * r) % 1 for r in radii for s in (1, -1)] + [a, (a + Fraction(1, 2)) % 1]
    out = []
    for v in values:
        for k in (60, 80, 90, 128, 200):
            for off in (Fraction(1, 2 ** k), -Fraction(1, 2 ** k), Fraction(0)):
                p = (v + off) % 1
                h = Fraction(1, 2 ** (k + int(rng.integers(-2, 3))))
                bits = int(rng.integers(64, 2148))
                out.append(p)
                out.append(((p - h) % 1, (p + h) % 1))
                out.append(UnitRealInterval.from_value(p, max(bits, k + 8)))
                scale = 1 << bits
                start = math.floor((p - h) * scale)
                out.append(UnitRealInterval(start, math.ceil((p + h) * scale) - start, bits))
    return out + [UnitRealInterval(0, 1 << 64, 64)]  # the whole circle


def _exact_arc(coord):
    if isinstance(coord, UnitRealInterval):
        return coord.lo, coord.width
    if isinstance(coord, tuple):
        return Fraction(coord[0]), (Fraction(coord[1]) - Fraction(coord[0])) % 1
    return Fraction(coord), Fraction(0)


def _arc_distances(coord, a):
    """||x - a|| at the arc's ends and at every kink of the tent inside it."""
    lo, width = _exact_arc(coord)
    kinks = range(math.ceil(2 * (lo - a)), math.floor(2 * (lo + width - a)) + 1)
    points = [lo, lo + width] + [a + Fraction(k, 2) for k in kinks]
    return [abs(x - a - round(x - a)) for x in points]


def _oracle_verdict(target, x):
    """Brute force over every combination of extremal distances.

    Membership is monotone in each coordinate's distance, so the box is
    wholly in E_n iff its farthest combination is, and wholly out iff its
    nearest combination is.
    """
    radii = [Fraction(r.psi(1)) for r in target.rates]
    if target.shape == Shape.BALL:
        radii *= target.d
    members = []
    for dists in itertools.product(*(_arc_distances(c, Fraction(a))
                                     for c, a in zip(x, target.center))):
        if target.shape == Shape.HYPERBOLOID:
            members.append(math.prod(dists) <= radii[0])
        else:
            members.append(all(d <= r for d, r in zip(dists, radii)))
    if all(members):
        return Containment.YES
    return Containment.NO if not any(members) else Containment.AMBIGUOUS


class TestAccumulationSets:
    def test_exponential_pair(self):
        acc = accumulation_set([RateFunction.exponential(0.5), RateFunction.exponential(1.2)])
        assert acc.points == ((0.5, 1.2),)
        assert acc.bounded

    def test_power_and_exponential(self):
        acc = accumulation_set([RateFunction.power(1, 2), RateFunction.exponential(1)])
        assert acc.points == ((0.0, 1.0),)

    def test_superexponential_coordinate_unbounded(self):
        acc = accumulation_set([RateFunction.exponential(1), RateFunction.superexponential()])
        assert acc.points == ((1.0, math.inf),)
        assert not acc.bounded

    def test_table_clusters(self):
        # alternating decay rates 0.5 / 1.0 produce two accumulation points
        vals = [math.exp(-(0.5 if n % 2 else 1.0) * n) for n in range(1, 601)]
        acc = accumulation_set([RateFunction.table(vals)], horizon=600, cluster_radius=0.05)
        pts = sorted(p[0] for p in acc.points)
        assert len(pts) == 2
        assert pts[0] == pytest.approx(0.5, abs=0.05)
        assert pts[1] == pytest.approx(1.0, abs=0.05)

    def test_empty_rate_list_is_refused(self):
        # no rates is no point of U(Psi), not the one point of dimension 0
        with pytest.raises(ValueError, match="non-empty"):
            accumulation_set([])


class TestTargetSpec:
    def test_rectangle_needs_rate_per_coordinate(self):
        with pytest.raises(ValueError):
            rectangle((0.0, 0.0), [RateFunction.exponential(1)])

