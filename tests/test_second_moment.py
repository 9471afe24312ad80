"""R's second moment: the exact variance oracles against brute force and
closed forms, and the sample variance of ``monte_carlo_counting`` against them."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import covariance_lags, stationary_variance, variance_z, window_variance
from shrinktarget.counting import monte_carlo_counting
from shrinktarget.orbits import DiagonalTorusSystem
from shrinktarget.targets import RateFunction, ball, rectangle

G = (1 + math.sqrt(5)) / 2


def _hit_patterns(base: int, center: Fraction, radii, depth: int) -> dict:
    """{pattern: digit strings} over every base-b digit string of length
    N + depth, bit n - 1 of a pattern being 1[||T^n x - c|| <= r_n].

    The arc ends c ± r_n are b-adic of order <= depth, so T^n maps the
    string's cylinder into or out of the arc whole, and its midpoint
    decides, at a distance of at least half a cylinder from either end.
    """
    unit = base ** depth
    assert (center * unit).denominator == 1 and all((r * unit).denominator == 1 for r in radii)
    length = len(radii) + depth
    words = np.arange(base ** length)
    patterns = np.zeros(len(words), dtype=np.int64)
    for n, r in enumerate(radii, start=1):
        width = base ** (length - n)
        dist = np.abs((words % width + 0.5) / width - float(center))
        patterns |= (np.minimum(dist, 1.0 - dist) <= float(r)).astype(np.int64) << (n - 1)
    values, counts = np.unique(patterns, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def brute_force_variance(bases, center, radii, a: int, b: int, depth: int) -> Fraction:
    """Var Z_{a,b} in exact Fractions: each coordinate's hit patterns from
    every digit string, then every combination of one pattern per coordinate."""
    laws = [(_hit_patterns(base, c, rs, depth), base ** (len(rs) + depth))
            for base, c, rs in zip(bases, center, radii)]
    window = ((1 << (b - a + 1)) - 1) << (a - 1)
    combos = {window: Fraction(1)}
    for law, total in laws:
        joined: dict = {}
        for hit, weight in combos.items():
            for pattern, count in law.items():
                key = hit & pattern
                joined[key] = joined.get(key, 0) + weight * Fraction(count, total)
        combos = joined
    m1 = sum(w * bin(z).count("1") for z, w in combos.items())
    m2 = sum(w * bin(z).count("1") ** 2 for z, w in combos.items())
    return m2 - m1 * m1


F = Fraction
DYADIC = [F(1, 4), F(1, 8), F(1, 4), F(1, 16), F(1, 2), F(1, 8), F(1, 32), F(3, 16)]
TRIADIC = [F(1, 3), F(1, 9), F(2, 9), F(1, 27), F(4, 9), F(1, 9)]

# (bases, centre, radii per coordinate, b-adic depth): balls in d = 1, a rectangle in d = 2
BRUTE_CASES = {
    "base2-at-0": ((2,), (F(0),), (DYADIC,), 5),
    "base2-at-1/4": ((2,), (F(1, 4),), (DYADIC,), 5),
    "base3-at-1/3": ((3,), (F(1, 3),), (TRIADIC,), 3),
    "base3-at-0": ((3,), (F(0),), (TRIADIC[:5],), 3),
    "diag2,3": ((2, 3), (F(1, 4), F(2, 3)), (DYADIC[:6], TRIADIC), 5),
}


class TestWindowVarianceOracle:
    @pytest.mark.parametrize("name", list(BRUTE_CASES))
    @pytest.mark.parametrize("window", [(1, None), (3, None), (2, 4), (5, 5)])
    def test_against_every_digit_string(self, name, window):
        bases, center, radii, depth = BRUTE_CASES[name]
        n_steps = len(radii[0])
        a, b = window[0], window[1] or n_steps
        system = DiagonalTorusSystem(bases)
        target = (ball(center, RateFunction.table(radii[0])) if len(bases) == 1
                  else rectangle(center, [RateFunction.table(rs) for rs in radii]))
        want = brute_force_variance(bases, center, radii, a, b, depth)
        got = window_variance(system, target, a, b)
        assert abs(got - want) <= 1e-12 * want, (got, float(want))

    def test_lag_count(self):
        assert [covariance_lags(b) for b in (2, 3, G)] == [54, 34, 77]
        assert all(b ** covariance_lags(b) > 2.0 ** 53 >= b ** (covariance_lags(b) - 1)
                   for b in (2, 3, 10, G))


class TestStationaryVarianceOracle:
    @pytest.mark.parametrize("n_steps", [1, 2, 10, 1000])
    def test_golden_markov_cell(self, n_steps):
        # E = [0, 1/g) is a state of the golden two-state chain, whose second
        # eigenvalue is -g^-2: C(k) = mu(E) (1 - mu(E)) (-g^-2)^k
        r = 1 / (2 * G)
        t = ball((r,), RateFunction.power(r, 0.0))
        mu_e = (5 + math.sqrt(5)) / 10
        cov = [mu_e * (1 - mu_e) * (-G ** -2) ** k for k in range(n_steps)]
        want = n_steps * cov[0] + 2 * sum((n_steps - k) * cov[k] for k in range(1, n_steps))
        got = stationary_variance(DiagonalTorusSystem(("g",)), t, n_steps)
        assert got == pytest.approx(want, rel=1e-12)


class TestCountSecondMoment:
    """R(x, N)'s sample variance over ``count``'s samples against the exact one."""

    @staticmethod
    def check(zs: np.ndarray, var: float, phi: float) -> None:
        # the variance within five of its standard errors, and the mean within
        # five exact standard errors sqrt(var / samples) of phi
        z_var, z_mean = variance_z(zs, var), (zs.mean() - phi) / math.sqrt(var / len(zs))
        assert abs(z_var) <= 5 and abs(z_mean) <= 5, (z_var, z_mean)

    def test_mixed_bases_from_lebesgue_starts(self):
        system = DiagonalTorusSystem((2, 3))
        t = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
        n_steps = 10 ** 4
        summary = monte_carlo_counting(system, t, 2000, n_steps, seed=1, jobs=2)
        zs = np.array([res.final.r_mid for res in summary.results])
        var = window_variance(system, t, 1, n_steps)
        assert var / summary.phi_final == pytest.approx(1.2112, abs=1e-4)
        self.check(zs, var, summary.phi_final)

    @pytest.mark.parametrize("n_steps, var_per_phi", [(10 ** 3, 0.1273), (10 ** 4, 0.1259)])
    def test_golden_from_parry_starts(self, n_steps, var_per_phi):
        system = DiagonalTorusSystem(("g",))
        t = ball((0.3,), RateFunction.power(0.1, 0.0))
        summary = monte_carlo_counting(system, t, 4000, n_steps, seed=3,
                                       start="invariant", jobs=2)
        zs = np.array([res.final.r_mid for res in summary.results])
        var = stationary_variance(system, t, n_steps)
        assert var / summary.phi_final == pytest.approx(var_per_phi, abs=1e-4)
        self.check(zs, var, summary.phi_final)
