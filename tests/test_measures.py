"""Invariant measure tests: densities, normalization, invariance, support."""

import math

import mpmath
import numpy as np
import pytest

from shrinktarget.cylinders import preimage_intervals
from shrinktarget.errors import TolUnreachable
from shrinktarget.measures import (
    GOLDEN_RATIO,
    ParryYrrapMeasure,
    ProductMeasure,
    SupportSet,
    bound_constant,
)
from shrinktarget.orbits import mp_value, snapped_orbit
from shrinktarget.targets import (
    RateFunction,
    ball,
    hyperboloid_volume,
    phi_values,
    rectangle,
)

G = GOLDEN_RATIO


def quadrature_oracle(mu: ParryYrrapMeasure, a: float, b: float, cells: int = 2_000) -> float:
    """Adaptive midpoint quadrature of the density: integrates pointwise
    density evaluations on panels split at the discontinuity candidates,
    independent of the exact step-overlap integration."""
    cuts = [a] + [float(p) for p in mu.edges if a < p < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        xs = np.linspace(lo, hi, cells, endpoint=False) + (hi - lo) / (2 * cells)
        total += float(np.mean(mu.density(xs)) * (hi - lo))
    return total


def series_oracle(beta, n_terms: int):
    """The density as its defining series, summed point by point.

    h(x) = F^-1 sum_n beta^-n 1[x < T^n 1] (1[T^n 1 >= x] for beta < -1),
    over the orbit of 1 computed in 2000-bit arithmetic up to its first
    zero or n_terms points, and F = sum_n beta^-n T^n 1.  Returns the
    float64 orbit points and the density as a function of one float.
    """
    with mpmath.workprec(2000):
        sym = {"g": (1 + mpmath.sqrt(5)) / 2, "e": mpmath.e}
        b = sym[beta.lstrip("-")] * (-1 if beta.startswith("-") else 1) \
            if isinstance(beta, str) else mpmath.mpf(beta)
        orbit = [mpmath.mpf(1)]
        while len(orbit) < n_terms and orbit[-1] != 0:
            f = b * orbit[-1] - mpmath.floor(b * orbit[-1])
            orbit.append(mpmath.mpf(0) if min(f, 1 - f) < mpmath.mpf(2) ** -1000 else f)
        powers = [b ** -n for n in range(len(orbit))]
        norm = float(mpmath.fsum(p * o for p, o in zip(powers, orbit)))
        points = [float(o) for o in orbit]
        weights = [float(p) for p in powers]

    def h(x: float) -> float:
        if b > 1:
            return math.fsum(w for w, o in zip(weights, points) if x < o) / norm
        return math.fsum(w for w, o in zip(weights, points) if o >= x) / norm

    return points, h


class TestTableOracle:
    BETAS = ["g", 1.5, "e", 3, "-g", -1.3, -2]

    @pytest.mark.parametrize("beta", BETAS)
    def test_density_matches_series(self, beta):
        mu = ParryYrrapMeasure(beta)
        points, h = series_oracle(beta, mu.truncation_order)
        edges = np.unique(np.concatenate(([0.0, 1.0], points)))
        assert np.array_equal(mu.edges, edges)
        xs = np.concatenate((edges, edges - 1e-12, edges + 1e-12, (edges[:-1] + edges[1:]) / 2))
        want = np.array([h(float(x)) for x in xs])
        assert np.allclose(mu.density(xs), want, rtol=0, atol=1e-12)
        assert [mu.density(float(x)) for x in xs] == mu.density(xs).tolist()

    @pytest.mark.parametrize("beta", BETAS)
    def test_cdf_matches_quadrature_of_series(self, beta):
        mu = ParryYrrapMeasure(beta)
        points, h = series_oracle(beta, mu.truncation_order)
        xs = np.concatenate((np.linspace(0.0, 1.0, 41),
                             np.random.default_rng(5).random(40)))
        for x in xs:
            # the series is constant between orbit points: midpoint panels are exact
            cuts = sorted({0.0, float(x)} | {p for p in points if p < x})
            want = math.fsum((hi - lo) * h((lo + hi) / 2) for lo, hi in zip(cuts, cuts[1:]))
            assert mu.cdf(float(x)) == pytest.approx(want, abs=1e-12)
        assert [mu.cdf(float(x)) for x in xs] == mu.cdf(xs).tolist()
        a, b = np.minimum(xs[:40], xs[41:]), np.maximum(xs[:40], xs[41:])
        assert [mu.measure_interval(float(p), float(q)) for p, q in zip(a, b)] \
            == mu.measure_interval(a, b).tolist()
        assert np.allclose(mu.measure_interval(a, b), mu.cdf(b) - mu.cdf(a),
                           rtol=0, atol=1e-15)


class TestDensity:
    def test_negative_golden_branch_values(self):
        mu = ParryYrrapMeasure("-g")
        assert mu.density(0.1) == pytest.approx(1 / (3 - G), abs=1e-10)
        assert mu.density(0.9) == pytest.approx(G / (3 - G), abs=1e-10)
        # the branch point sits at 2 + beta = 2 - g
        assert mu.density(2 - G - 1e-6) == pytest.approx(1 / (3 - G), abs=1e-9)
        assert mu.density(2 - G + 1e-6) == pytest.approx(G / (3 - G), abs=1e-9)

    def test_integer_base_is_lebesgue(self):
        mu = ParryYrrapMeasure(2)
        xs = np.linspace(0.01, 0.99, 57)
        assert np.allclose(mu.density(xs), 1.0, atol=1e-14)

    def test_golden_parry_two_branches(self):
        mu = ParryYrrapMeasure("g")
        # density is (1 + 1/g)/F on [0, 1/g) and 1/F on [1/g, 1)
        f = 1 + G ** -2
        assert mu.density(0.3) == pytest.approx((1 + 1 / G) / f, abs=1e-12)
        assert mu.density(0.8) == pytest.approx(1 / f, abs=1e-12)

    @pytest.mark.parametrize("beta", [10000.5, "e", 1.5, -1.3, "-g"])
    def test_tail_bound_covers_the_dropped_terms(self, beta):
        # the terms n >= N of sum |beta|^-n T^n(1), to n = N + 200, plus a
        # geometric bound past that: at least the whole dropped tail
        mu = ParryYrrapMeasure(beta)
        n = mu.truncation_order
        points, _, bits = snapped_orbit(beta, n + 200)
        with mpmath.workprec(bits):
            b = abs(mp_value(beta, bits))
            dropped = mpmath.fsum(b ** -k * y for k, y in enumerate(points) if k >= n)
            dropped += b ** -(n + 200) / (b - 1)
            assert mu.tail_bound >= dropped, (mu.tail_bound, dropped)

    def test_tol_unreachable(self):
        # 1e-12 of tail needs about 368434 terms at beta = 1.0001, past the 200000 cap
        with pytest.raises(TolUnreachable):
            ParryYrrapMeasure(1.0001)


class TestMeasureInterval:
    def test_lebesgue_case(self):
        mu = ParryYrrapMeasure(2)
        assert mu.measure_interval(0.2, 0.7) == pytest.approx(0.5, abs=1e-14)

    def test_normalization_all_betas(self):
        for beta in ["g", 1.5, 2.7, "-g", -2, -1.3, 3]:
            mu = ParryYrrapMeasure(beta)
            assert mu.measure_interval(0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_golden_against_quadrature_oracle(self):
        mu = ParryYrrapMeasure("g")
        val = mu.measure_interval(0, 1 / G)
        assert val == pytest.approx(quadrature_oracle(mu, 0, 1 / G), abs=1e-8)

    def test_additivity(self):
        mu = ParryYrrapMeasure(1.5)
        a, b, c = 0.1, 0.45, 0.92
        assert mu.measure_interval(a, c) == pytest.approx(
            mu.measure_interval(a, b) + mu.measure_interval(b, c), abs=1e-14)

    @pytest.mark.parametrize("beta", ["g", 1.5, 2.7, "-g", -2])
    def test_invariance_200_random_intervals(self, beta):
        mu = ParryYrrapMeasure(beta)
        rng = np.random.default_rng(hash(str(beta)) % 2 ** 32)
        for _ in range(200):
            mid = float(rng.random())
            rad = float(rng.random()) * 0.24 + 0.005
            lo, hi = max(0.0, mid - rad), min(1.0, mid + rad)
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            if rad <= 1e-4:
                continue
            direct = mu.measure_interval(lo, hi)
            pieces = preimage_intervals(beta, 1, mid, rad)
            pulled = sum(mu.measure_interval(max(0.0, p), min(1.0, q)) for p, q in pieces)
            assert pulled == pytest.approx(direct, abs=1e-6)


def _two_branch_between(mu: ParryYrrapMeasure, x, y):
    """The periodic integral with both branches made on every row and the
    one-cell rows picked by np.where: the oracle of the cross-cell fast path."""
    fx, fy = np.floor(x), np.floor(y)
    x, y = x - fx, y - fy
    last = len(mu.edges) - 1
    i = np.minimum(np.searchsorted(mu.edges, x, "right"), last)
    j = np.minimum(np.searchsorted(mu.edges, y, "right"), last)
    h, e, m = mu.heights, mu.edges, mu.masses
    spread = (h[i] * (e[i] - x) + (m[j - 1] - m[i] + (fy - fx) * m[-1])
              + h[j] * (y - e[j - 1]))
    return np.where((i == j) & (fx == fy), h[i] * (y - x), spread)


class TestBetweenFastPath:
    @pytest.mark.parametrize("beta", ["g", 2.5, "e", -1.3, -1.8, 3])
    def test_equals_the_two_branch_formula(self, beta):
        mu = ParryYrrapMeasure(beta)
        rng = np.random.default_rng(7)
        n = 200_000
        centers = rng.random(n)
        # short arcs (mostly one cell), long ones (cross cells) and wrapped ones
        radii = np.concatenate((rng.random(n // 2) * 1e-3, rng.random(n - n // 2) * 0.5))
        x, y = centers - radii, centers + radii
        assert np.any(x < 0) and np.any(y > 1)
        assert np.array_equal(mu._between(x, y), _two_branch_between(mu, x, y))
        lo, hi = np.minimum(centers, rng.random(n)), np.maximum(centers, rng.random(n))
        assert np.array_equal(mu.measure_interval(lo, hi), _two_branch_between(mu, lo, hi))
        r = radii[:1000]
        assert np.array_equal(mu.arc(0.97, r),
                              np.where(r >= 0.5, mu.masses[-1],
                                       _two_branch_between(mu, 0.97 - r, 0.97 + r)))

    def test_scalars_and_mixed_shapes(self):
        mu = ParryYrrapMeasure("g")
        for a, b in [(0.1, 0.2), (0.1, 0.9), (0.0, 1.0), (0.5, 0.5)]:
            got = mu.measure_interval(a, b)
            assert isinstance(got, float)
            assert got == float(_two_branch_between(mu, np.float64(a), np.float64(b)))
        ys = np.array([0.1, 0.7, 1.0])
        assert np.array_equal(mu.measure_interval(0.05, ys),
                              _two_branch_between(mu, np.float64(0.05), ys))


class TestBounds:
    def test_constant_below_neg_golden(self):
        assert bound_constant(-2) == pytest.approx(4.0)
        assert bound_constant("-g") == pytest.approx(3 - G)
        with pytest.raises(ValueError):
            bound_constant(-1.2)

    @pytest.mark.parametrize("beta", ["-g", -1.7, -2, -2.5])
    def test_density_sandwich_on_grid(self, beta):
        mu = ParryYrrapMeasure(beta)
        c = bound_constant(beta)
        xs = np.linspace(1e-4, 1 - 1e-4, 10_000)
        dens = mu.density(xs)
        tol = 4 * mu.tail_bound / mu.normalizer + 1e-12
        assert np.all(dens <= c + tol)
        assert np.all(dens >= 1 / c - tol)


class TestSupport:
    def test_full_interval_regimes(self):
        for beta in (3, "-g", -2.4, 1.1):
            assert ParryYrrapMeasure(beta).support().intervals == ((0.0, 1.0),)

    def test_gap_regime_with_orbit_oracle(self):
        sup = ParryYrrapMeasure(-1.3).support()
        assert len(sup.intervals) >= 2
        assert sum(b - a for a, b in sup.intervals) < 1.0
        # oracle: long float orbits accumulate only on the support
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = float(rng.random())
            for _ in range(200):  # burn-in
                x = (-1.3 * x) % 1.0
            for _ in range(2000):
                x = (-1.3 * x) % 1.0
                assert any(a - 1e-6 <= x <= b + 1e-6 for a, b in sup.intervals), \
                    f"orbit point {x} off support"
        # every support interval is visited
        visits = {i: 0 for i in range(len(sup.intervals))}
        x = float(rng.random())
        for _ in range(200):
            x = (-1.3 * x) % 1.0
        for _ in range(20_000):
            x = (-1.3 * x) % 1.0
            for i, (a, b) in enumerate(sup.intervals):
                if a - 1e-9 <= x <= b + 1e-9:
                    visits[i] += 1
                    break
        assert all(v > 0 for v in visits.values())

    def test_support_set_validation(self):
        with pytest.raises(ValueError):
            SupportSet(((0.0, 0.5), (0.4, 1.0)))

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
    def test_negative_threshold_refused(self, tol):
        # a negative threshold counts the zero density of a gap as positive
        with pytest.raises(ValueError):
            ParryYrrapMeasure(-1.3).support(tol=tol)


class TestSampling:
    def test_uniform_for_integer_base(self):
        mu = ParryYrrapMeasure(2)
        xs = mu.sample(np.random.default_rng(0), 100_000)
        # Kolmogorov-Smirnov against the uniform cdf at the 1% level
        xs = np.sort(xs)
        grid = np.arange(1, len(xs) + 1) / len(xs)
        d = float(np.max(np.maximum(np.abs(grid - xs), np.abs(xs - (grid - 1 / len(xs))))))
        assert d * math.sqrt(len(xs)) < 1.63

    def test_negative_golden_cdf_match(self):
        mu = ParryYrrapMeasure("-g")
        xs = np.sort(mu.sample(np.random.default_rng(1), 100_000))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            emp = float(np.mean(xs <= q))
            assert emp == pytest.approx(mu.cdf(q), abs=0.006)

    def test_acceptance_rate_floor(self):
        mu = ParryYrrapMeasure(1.5)
        env = mu.envelope()
        rng = np.random.default_rng(2)
        u = rng.random(200_000)
        v = rng.random(200_000)
        accept = float(np.mean(v * env <= mu.density(u)))
        assert accept >= 1 / env - 0.01


class TestInverseCdfSampling:
    @pytest.mark.parametrize("beta", ["g", "e", -1.3])
    def test_kolmogorov_smirnov_against_cdf(self, beta):
        mu = ParryYrrapMeasure(beta)
        xs = np.sort(mu.sample(np.random.default_rng(11), 50_000))
        n = len(xs)
        cdf = mu.cdf(xs)
        d = float(np.max(np.maximum(np.arange(1, n + 1) / n - cdf, cdf - np.arange(n) / n)))
        assert d * math.sqrt(n) < 1.63  # the 1% level
        if beta == -1.3:
            sup = mu.support()
            assert all(any(a <= x <= b for a, b in sup.intervals) for x in xs)


def rectangle_measure(nu: ProductMeasure, rect) -> float:
    """nu of a product of intervals [a_i, b_i], one factor at a time."""
    return math.prod(mu.measure_interval(a, b) for mu, (a, b) in zip(nu.factors, rect))


class TestProductMeasure:
    def test_lebesgue_factors(self):
        nu = ProductMeasure([2, 3])
        assert rectangle_measure(nu, [(0, 1), (0, 1)]) == pytest.approx(1.0, abs=1e-12)
        assert rectangle_measure(nu, [(0, 0.5), (0, 1 / 3)]) == pytest.approx(1 / 6, abs=1e-12)

    def test_mixed_factors_against_per_factor_oracle(self):
        nu = ProductMeasure(["g", "-g"])
        got = rectangle_measure(nu, [(0, 0.5), (0, 0.5)])
        want = (quadrature_oracle(nu.factors[0], 0, 0.5)
                * quadrature_oracle(nu.factors[1], 0, 0.5))
        assert got == pytest.approx(want, abs=1e-8)

    def test_sampling_matches_rectangle_measure(self):
        nu = ProductMeasure(["g", 1.5])
        pts = nu.sample(np.random.default_rng(3), 200_000)
        rect = [(0.1, 0.6), (0.2, 0.8)]
        emp = float(np.mean((pts[:, 0] >= 0.1) & (pts[:, 0] < 0.6)
                            & (pts[:, 1] >= 0.2) & (pts[:, 1] < 0.8)))
        want = rectangle_measure(nu, rect)
        se = math.sqrt(want * (1 - want) / len(pts))
        assert abs(emp - want) < 4 * se

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.97, 0.2), (0.5, 0.97)])
    def test_ball_array_of_radii_equals_scalar_loop(self, center):
        nu = ProductMeasure(["g", -1.3])
        radii = np.array([1e-9, 0.01, 0.029, 0.03, 0.031, 0.2, 0.38, 0.49, 0.5, 0.7, 3.0])
        got = nu.ball(center, radii)
        assert got.tolist() == [nu.ball(center, float(r)) for r in radii]
        assert np.allclose(got[radii >= 0.5], 1.0, rtol=0, atol=1e-12)

    def test_wrapped_arc_against_split_intervals(self):
        mu = ParryYrrapMeasure("-g")
        for r in (0.01, 0.03, 0.25):
            lo, hi = 0.97 - r, 0.97 + r
            want = (mu.measure_interval(lo, min(hi, 1.0))
                    + (mu.measure_interval(0.0, hi - 1.0) if hi > 1 else 0.0))
            assert mu.arc(0.97, r) == pytest.approx(want, abs=1e-15)
            assert mu.arc(-0.03, r) == pytest.approx(want, abs=1e-15)


GOLDEN_LOW = (5 + math.sqrt(5)) / 10       # Parry density of g on [1/g, 1)
GOLDEN_HIGH = (5 + 3 * math.sqrt(5)) / 10  # and on [0, 1/g)


def golden_arc(a: float, r: float) -> float:
    """Closed-form Parry measure of the arc [a - r, a + r] for beta = g."""
    if r >= 0.5:
        return 1.0

    def cdf(x):
        return GOLDEN_HIGH * min(x, 1 / G) + GOLDEN_LOW * max(x - 1 / G, 0.0)

    lo, hi = a - r, a + r
    if lo < 0:
        return cdf(hi) + 1.0 - cdf(lo + 1)
    if hi > 1:
        return cdf(hi - 1) + 1.0 - cdf(lo)
    return cdf(hi) - cdf(lo)


class TestPhiUnderProductMeasure:
    def test_golden_ball_against_closed_form(self):
        nu = ProductMeasure(["g", "g"])
        target = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        cps = [300, 1000, 3000]
        got = phi_values(target, cps, measure=nu)
        for n_max, value in zip(cps, got):
            want = math.fsum(golden_arc(0.0, 0.5 * n ** -0.25) ** 2 for n in range(1, n_max + 1))
            assert value == pytest.approx(want, rel=1e-9)

    def test_golden_rectangle_against_closed_form(self):
        nu = ProductMeasure(["g", "g"])
        rates = [RateFunction.power(0.4, 0.5), RateFunction.exponential(0.05)]
        target = rectangle((0.97, 0.6), rates)
        want = math.fsum(golden_arc(0.97, rates[0].psi(n)) * golden_arc(0.6, rates[1].psi(n))
                         for n in range(1, 201))
        assert phi_values(target, [200], measure=nu)[0] == pytest.approx(want, rel=1e-9)


def golden_hyperboloid_quadrature(center, delta) -> float:
    """nu{x : ||x_1 - a_1|| ||x_2 - a_2|| <= delta} for beta = (g, g), by mpmath.

    Integrates the closed-form Parry density of g (HIGH on [0, 1/g), LOW
    on [1/g, 1)) over x_1, times the closed-form arc measure of the x_2
    slice, split at every kink of the integrand.
    """
    with mpmath.workdps(30):
        g = (1 + mpmath.sqrt(5)) / 2
        high, low = (5 + 3 * mpmath.sqrt(5)) / 10, (5 + mpmath.sqrt(5)) / 10
        a1, a2 = (mpmath.mpf(c) for c in center)
        delta, half = mpmath.mpf(delta), mpmath.mpf(1) / 2

        def cdf(t):  # the periodic CDF of the density
            whole = mpmath.floor(t)
            f = t - whole
            return whole + high * min(f, 1 / g) + low * max(f - 1 / g, 0)

        def fold(x, a):
            t = (x - a) % 1
            return min(t, 1 - t)

        def integrand(x):
            u = fold(x, a1)
            r = delta / u if u else half
            slice_ = 1 if r >= half else cdf(a2 + r) - cdf(a2 - r)
            return (high if x < 1 / g else low) * slice_

        # the slice measure kinks where r = 1/2 or a2 +- r crosses 0 or 1/g
        cuts = {mpmath.mpf(0), 1 / g, mpmath.mpf(1), a1, (a1 + half) % 1}
        for r in (half, fold(0, a2), fold(1 / g, a2)):
            if r > 0:
                cuts |= {(a1 + delta / r) % 1, (a1 - delta / r) % 1}
        return float(mpmath.quad(integrand, sorted(cuts)))


class TestHyperboloid:
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.8)])
    @pytest.mark.parametrize("delta", [0.05, 0.01, 1e-4])
    def test_golden_against_quadrature(self, center, delta):
        got = ProductMeasure(["g", "g"]).hyperboloid(center, delta)
        assert got == pytest.approx(golden_hyperboloid_quadrature(center, delta), rel=1e-9)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.8), (0.5, 0.97)])
    def test_lebesgue_factors_give_the_closed_form(self, center):
        deltas = np.array([1e-12, 1e-4, 0.01, 0.05, 0.2, 0.25, 0.3, 2.0])
        got = ProductMeasure([2, 3]).hyperboloid(center, deltas)
        np.testing.assert_allclose(got, hyperboloid_volume(2, deltas), rtol=1e-12)

    def test_array_of_deltas_equals_scalar_loop(self):
        nu = ProductMeasure(["e", -1.3])
        deltas = np.geomspace(1e-9, 0.5, 40)
        got = nu.hyperboloid((0.3, 0.8), deltas)
        assert got.tolist() == [nu.hyperboloid((0.3, 0.8), float(d)) for d in deltas]
        assert np.all(np.diff(got) >= 0)
        assert nu.hyperboloid((0.3, 0.8), 0.0) == 0.0

    def test_one_dimension_is_the_ball(self):
        nu = ProductMeasure(["g"])
        assert nu.hyperboloid((0.3,), 0.01) == nu.ball((0.3,), 0.01)

    def test_three_dimensions_are_refused(self):
        with pytest.raises(ValueError, match="d <= 2"):
            ProductMeasure(["g", "g", "g"]).hyperboloid((0.0, 0.0, 0.0), 0.01)
