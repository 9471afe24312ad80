"""Dimension calculator tests: formula cross-checks and case analyses."""

import math

import numpy as np
import pytest

from shrinktarget.errors import (
    InfiniteCoordinate,
    RateNotVanishing,
    SlopeTooSmall,
    UnboundedU,
)
from shrinktarget.dimension import (
    MtpInput,
    _theta_sum,
    conjectured_dim_hat,
    conjectured_theta_hat,
    cover_cost_sequence,
    degenerate_reduction,
    dim_ball,
    dim_mult,
    dim_onedim,
    dim_rect,
    markov_bounds,
    mtp_dimension,
    mtp_score,
    theta_rect,
    unbounded_bounds,
)
from shrinktarget.targets import AccumulationSet, RateFunction

G = (1 + math.sqrt(5)) / 2


def theta_oracle(i, moduli, t):
    """Independent re-implementation: literal three-sum transcription."""
    logb = [math.log(m) for m in moduli]
    thr = logb[i] + t[i]
    total = 0.0
    for k in range(len(moduli)):
        if logb[k] > thr:
            total += 1.0
        elif logb[k] + t[k] <= thr:
            total += 1.0 - t[k] / thr
        else:
            total += logb[k] / thr
    return total


def _random_instance(rng, d_max=5):
    d = int(rng.integers(1, d_max))
    mods = np.sort(rng.uniform(1.05, 9.0, d))
    return list(mods)


class TestTheta:
    def test_zero_vector_gives_dimension(self):
        assert theta_rect(0, [2, 3], [0, 0]) == 2.0
        assert theta_rect(1, [2, 3], [0, 0]) == 2.0

    def test_last_coordinate_collapse(self):
        # t = (0, ..., 0, t_d): every anchor below d scores the full dimension,
        # the last anchor scores d-1 + log b_d / (t_d + log b_d)
        mods = [1.7, 2.2, 3.1]
        td = 0.9
        t = [0.0, 0.0, td]
        assert theta_rect(0, mods, t) == pytest.approx(3.0, abs=1e-14)
        assert theta_rect(1, mods, t) == pytest.approx(3.0, abs=1e-14)
        assert theta_rect(2, mods, t) == pytest.approx(
            2 + math.log(3.1) / (td + math.log(3.1)), abs=1e-14)

    def test_against_oracle_random(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            mods = _random_instance(rng)
            t = list(rng.uniform(0, 3, len(mods)))
            for i in range(len(mods)):
                assert theta_rect(i, mods, t) == pytest.approx(
                    theta_oracle(i, mods, t), abs=1e-13)

    def test_monotone_nonincreasing_off_anchor(self):
        # raising t_k lowers theta_i for every anchor i != k; along the
        # diagonal (all coordinates together) every theta_i decreases, which
        # is what drives the single-rate formula.  theta_i is NOT monotone in
        # its own coordinate t_i: the K2 terms 1 - t_k/(log b_i + t_i) grow
        # with t_i (witnessed below).
        rng = np.random.default_rng(21)
        for _ in range(50):
            mods = _random_instance(rng)
            t = list(rng.uniform(0, 2, len(mods)))
            base = [theta_rect(i, mods, t) for i in range(len(mods))]
            k = int(rng.integers(0, len(mods)))
            t2 = list(t)
            t2[k] += float(rng.uniform(0.01, 1.0))
            for i in range(len(mods)):
                if i != k:
                    assert theta_rect(i, mods, t2) <= base[i] + 1e-12
            t3 = [v + 0.3 for v in t]
            for i in range(len(mods)):
                assert theta_rect(i, mods, t3) <= base[i] + 1e-12

    def test_own_coordinate_counterexample(self):
        mods = [1.1454330433340856, 3.1423208575288806, 6.082916531521836,
                7.552491621368326]
        t = [1.2913678144206928, 2.5407139564142707, 1.4167605278079012,
             0.15347644661867021]
        lo = theta_rect(1, mods, t)
        t2 = list(t)
        t2[1] += 0.5
        assert theta_rect(1, mods, t2) > lo

    def test_infinite_coordinate_routed(self):
        with pytest.raises(InfiniteCoordinate):
            theta_rect(0, [2, 3], [math.inf, 0.0])

    def test_requires_sorted_moduli(self):
        with pytest.raises(ValueError):
            theta_rect(0, [3, 2], [0, 0])


def _force_tie(logb_i, logb_k):
    """A t_i with fl(logb_i + t_i) == logb_k exactly."""
    t = logb_k - logb_i
    for _ in range(10):
        got = logb_i + t
        if got == logb_k:
            return t
        t = np.nextafter(t, t + (logb_k - got))
    raise AssertionError("could not force a floating tie")


def _assert_k2_ties_immaterial(i, logb, t):
    """A tie log b_k + t_k = thr joins K2; its K3 term would be the same."""
    thr = logb[i] + t[i]
    for k in range(len(logb)):
        if logb[k] + t[k] == thr:
            assert 1.0 - t[k] / thr == pytest.approx(logb[k] / thr, abs=1e-12)


class TestStrictnessInvariance:
    def test_engineered_boundary_ties(self):
        logs = [math.log(2), math.log(3)]
        t0 = _force_tie(logs[0], logs[1])
        for t1 in (0.0, 0.4):
            t = [t0, t1]
            base = theta_rect(0, [2, 3], t)
            for s1 in (True, False):
                assert _theta_sum(0, logs, t, [1.0, 1.0], s1) == pytest.approx(base, abs=1e-12)
            _assert_k2_ties_immaterial(0, logs, t)

    def test_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            mods = _random_instance(rng)
            t = list(rng.uniform(0, 2, len(mods)))
            if rng.random() < 0.5 and len(mods) > 1:
                # engineer an exact K2 tie: log b_k + t_k == log b_i + t_i
                i, k = 0, len(mods) - 1
                cand = math.log(mods[i]) + t[i] - math.log(mods[k])
                if cand > 0:
                    t[k] = cand
            logs = [math.log(m) for m in mods]
            for i in range(len(mods)):
                base = theta_rect(i, mods, t)
                for s1 in (True, False):
                    assert _theta_sum(i, logs, t, [1.0] * len(mods), s1) \
                        == pytest.approx(base, abs=1e-12)
                _assert_k2_ties_immaterial(i, logs, t)


class TestDimBall:
    def test_lambda_zero_full(self):
        assert dim_ball([2, 3], 0).value == pytest.approx(2.0, abs=1e-14)

    def test_lambda_infinite_zero(self):
        assert dim_ball([2, 3], math.inf).value == 0.0

    def test_equal_moduli_closed_form(self):
        # all moduli equal, lambda = tau * log b => d / (1 + tau), against the
        # partition-sum oracle
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            b = float(rng.uniform(1.1, 8))
            tau = float(rng.uniform(0, 3))
            lam = tau * math.log(b)
            rep = dim_ball([b] * d, lam)
            assert rep.value == pytest.approx(d / (1 + tau), rel=1e-12)
            oracle = min(theta_oracle(i, [b] * d, [lam] * d) for i in range(d))
            assert rep.value == pytest.approx(oracle, rel=1e-12)

    def test_one_dimensional_collapse(self):
        for b, lam in [(2, 0.0), (G, math.log(G)), (10, math.log(10)), (3.3, 0.77)]:
            assert dim_ball([b], lam).value == pytest.approx(dim_onedim(b, lam), abs=1e-14)

    def test_matches_rect_on_constant_vectors(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            mods = _random_instance(rng)
            lam = float(rng.uniform(0, 4))
            a = dim_ball(mods, lam).value
            b = dim_rect(mods, AccumulationSet((tuple([lam] * len(mods)),))).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_in_lambda_and_range(self):
        mods = [1.4, 2.0, 5.0]
        prev = 3.0
        for lam in np.linspace(0, 12, 60):
            v = dim_ball(mods, float(lam)).value
            assert 0 <= v <= 3.0 + 1e-12
            assert v <= prev + 1e-12
            prev = v

    def test_report_witnesses(self):
        rep = dim_ball([2, 3], 1.0)
        assert rep.argmin_index in (0, 1)
        assert rep.attained_t == (1.0, 1.0)
        k1, k2, k3 = rep.partition[rep.argmin_index]
        assert set(k1) | set(k2) | set(k3) == {0, 1}

    def test_clustered_set_reports_error_bound(self):
        acc = AccumulationSet(((0.5, 0.6), (0.5004, 0.6004)), radius=1e-3)
        rep = dim_rect([2, 3], acc)
        assert rep.error_bound > 0
        # the two near-identical cluster points differ by less than the bound
        a = min(theta_rect(i, [2, 3], (0.5, 0.6)) for i in range(2))
        b = min(theta_rect(i, [2, 3], (0.5004, 0.6004)) for i in range(2))
        assert abs(a - b) <= rep.error_bound


class TestDimOnedim:
    def test_values(self):
        assert dim_onedim(2, 0) == 1.0
        assert dim_onedim(G, math.log(G)) == pytest.approx(0.5)
        assert dim_onedim(10, math.log(10)) == pytest.approx(0.5)
        assert dim_onedim(-G, math.log(G)) == pytest.approx(0.5)  # modulus used


class TestDimMult:
    def test_lambda_zero(self):
        assert dim_mult([2, 3], 0) == pytest.approx(2.0)

    def test_example_value(self):
        assert dim_mult([2, 3], math.log(3)) == pytest.approx(1.5)

    def test_equals_rect_on_degenerate_rectangles(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            mods = _random_instance(rng)
            lam = float(rng.uniform(0.01, 4))
            acc = AccumulationSet((tuple([0.0] * (len(mods) - 1) + [lam]),))
            assert dim_mult(mods, lam) == pytest.approx(
                dim_rect(mods, acc).value, abs=1e-12)


class TestMtp:
    def test_single_factor_collapse(self):
        inp = MtpInput(deltas=(1.0,), u=(0.3,), v=(0.5,))
        assert mtp_dimension(inp).value == pytest.approx(0.3 / 0.5)
        assert mtp_score(inp, 0) == pytest.approx(1.0 * (1 - (0.5 - 0.3) / 0.5))

    def test_scale_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            p = int(rng.integers(1, 5))
            deltas = tuple(rng.uniform(0.2, 1.0, p))
            v = tuple(rng.uniform(0.5, 3.0, p))
            u = tuple(x * float(rng.uniform(0.05, 0.95)) for x in v)
            base = mtp_dimension(MtpInput(deltas, u, v)).value
            c = 7.3
            scaled = mtp_dimension(MtpInput(deltas, tuple(c * x for x in u),
                                            tuple(c * x for x in v))).value
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_limit_recovers_theta_lower_bound(self):
        # u = (1-eps) log b, v = u + t: the score tends to theta as eps -> 0
        eps = 1e-6
        for t in (0.3, 1.0, 2.5):
            u = tuple((1 - eps) * math.log(b) for b in (2, 3))
            v = tuple((1 - eps) * math.log(b) + t for b in (2, 3))
            got = mtp_dimension(MtpInput((1.0, 1.0), u, v)).value
            want = dim_ball([2, 3], t).value
            assert got == pytest.approx(want, abs=1e-4)

    def test_score_is_the_weighted_partition_sum(self):
        # log b = u and t = v - u, with a non-strict K1, turn the weighted
        # theta_i into s(u, v, i); some t sit exactly on a K1 boundary
        rng = np.random.default_rng(30)
        for _ in range(300):
            mods = _random_instance(rng)
            logb = [math.log(m) for m in mods]
            d = len(mods)
            t = [float(v) for v in rng.uniform(0.01, 2, d)]
            for j in range(d - 1):
                if rng.random() < 0.3:
                    t[j] = max(logb[int(rng.integers(j + 1, d))] - logb[j], 0.01)
            w = [float(v) for v in rng.uniform(0.1, 1.0, d)]
            inp = MtpInput(w, logb, [a + b for a, b in zip(logb, t)])
            for i in range(d):
                want = _theta_sum(i, logb, t, w, k1_strict=False)
                assert mtp_score(inp, i) == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MtpInput(deltas=(1.0,), u=(0.5,), v=(0.5,))
        with pytest.raises(ValueError):
            MtpInput(deltas=(0.0,), u=(0.1,), v=(0.5,))


class TestMarkovBounds:
    def test_beta_sixteen(self):
        assert markov_bounds(16, 0) == (pytest.approx(0.25), pytest.approx(0.25))

    def test_slope_boundary_excluded(self):
        with pytest.raises(SlopeTooSmall):
            markov_bounds(8, 0)

    def test_limit_toward_one(self):
        lam = 0.4
        prev = 0.0
        for b in (9, 20, 100, 10 ** 4, 10 ** 8, 10 ** 40):
            v, _ = markov_bounds(b, lam)
            assert v >= prev
            prev = v
        assert prev > 0.95


class TestConjecturedHat:
    def test_unit_weights_reduce_exactly(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            mods = _random_instance(rng)
            t = list(rng.uniform(0, 2, len(mods)))
            for i in range(len(mods)):
                assert conjectured_theta_hat(i, mods, t, [1.0] * len(mods)) \
                    == theta_rect(i, mods, t)

    def test_uniform_scaling_at_zero(self):
        assert conjectured_theta_hat(0, [2, 3], [0, 0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_weighted_oracle(self):
        deltas = [0.9, 0.8]
        t = [0.1, 0.2]
        logb = [math.log(2), math.log(3)]
        thr = logb[0] + t[0]
        want = deltas[1] * (1.0 if logb[1] > thr else logb[1] / thr) \
            + deltas[0] * (1 - t[0] / thr)
        assert conjectured_theta_hat(0, [2, 3], t, deltas) == pytest.approx(want, abs=1e-13)

    def test_report_is_flagged_conjectural(self):
        rep = conjectured_dim_hat([2, 3], AccumulationSet(((0.5, 0.5),)), [0.9, 0.9])
        assert rep.conjectural
        assert rep.method == "conj_hat"


class TestUnboundedBounds:
    def test_mixed_rate_example(self):
        # psi_1 = e^{-n t1}, psi_2 = e^{-n^2}: accumulation point (t1, inf)
        acc = AccumulationSet(((1.0, math.inf),))
        lo, hi = unbounded_bounds([2, 3], acc)
        assert lo == pytest.approx(math.log(2) / (math.log(2) + 1), abs=1e-12)
        assert hi == pytest.approx(1.0)
        # the un-reduced anchor value is (log2 + log3)/(log2 + t1), capped by #finite
        assert math.log(2 * 3) / (math.log(2) + 1) > 1.0

    def test_all_finite_coincides_with_rect(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            mods = _random_instance(rng)
            t = tuple(rng.uniform(0, 2, len(mods)))
            lo, hi = unbounded_bounds(mods, AccumulationSet((t,)))
            want = dim_rect(mods, AccumulationSet((t,))).value
            assert lo == pytest.approx(want, abs=1e-12)
            assert hi == pytest.approx(want, abs=1e-12)

    def test_all_infinite_gives_zero(self):
        assert unbounded_bounds([2, 3], AccumulationSet(((math.inf, math.inf),))) == (0.0, 0.0)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            mods = _random_instance(rng)
            t = [float(v) for v in rng.uniform(0, 2, len(mods))]
            for k in range(len(mods)):
                if rng.random() < 0.4:
                    t[k] = math.inf
            lo, hi = unbounded_bounds(mods, AccumulationSet((tuple(t),)))
            assert lo <= hi + 1e-12

    def test_lower_bound_drops_infinite_coordinates(self):
        # the reduced theta_i is theta_rect with weight 0 on every t_k = inf
        rng = np.random.default_rng(31)
        for _ in range(300):
            mods = _random_instance(rng)
            t = [math.inf if rng.random() < 0.4 else float(v)
                 for v in rng.uniform(0, 2, len(mods))]
            finite = [i for i in range(len(mods)) if math.isfinite(t[i])]
            if not finite:
                continue
            w = [0.0 if math.isinf(v) else 1.0 for v in t]
            want = min(min(theta_rect(i, mods, t, weights=w) for i in finite),
                       len(finite))
            lo, _ = unbounded_bounds(mods, AccumulationSet((tuple(t),)))
            assert lo == pytest.approx(want, abs=1e-12)

    def test_rect_rejects_unbounded(self):
        with pytest.raises(UnboundedU):
            dim_rect([2, 3], AccumulationSet(((1.0, math.inf),)))


class TestDegenerateReduction:
    def test_zero_eigenvalue(self):
        r = degenerate_reduction((0.0, 2, 3), RateFunction.exponential(1), (0.3, 0, 0))
        assert r.kind == "empty"
        r = degenerate_reduction((0.0, 2, 3), RateFunction.exponential(1), (0.0, 0, 0))
        assert r.kind == "interval_slice"
        assert r.factors[0].kind == "full_circle"
        assert r.reduced_betas == (2, 3)

    def test_unit_eigenvalue_fixed_slice(self):
        r = degenerate_reduction((1.0, 2, 3), RateFunction.exponential(1), (0.25, 0, 0))
        assert r.kind == "fixed_slice"
        assert r.factors[0].points == (0.25,)
        with pytest.raises(RateNotVanishing):
            degenerate_reduction((1.0, 2), RateFunction.table([0.5], extend="hold"), (0.2, 0))

    def test_contracting_with_vanishing_tau(self):
        r = degenerate_reduction((0.5, 2, 3), RateFunction.exponential(math.log(4)), (0.0, 0, 0))
        assert r.kind == "fixed_slice"
        assert r.factors[0].points == (0.0,)
        assert r.factors[0].tau == 0.0

    def test_contracting_positive_tau(self):
        # psi(n) |beta|^{-n} == 1 for psi = e^{-n log 2}, beta = 1/2: tau attained
        r = degenerate_reduction((0.5, 2), RateFunction.exponential(math.log(2)), (0.0, 0))
        assert r.kind == "interval_slice"
        f = r.factors[0]
        assert f.interval == (0.0, 1.0)
        assert not f.closure_ambiguous
        # slower rate: tau = inf, slice is the whole circle
        r = degenerate_reduction((0.5, 2), RateFunction.power(1.0, 2.0), (0.0, 0))
        assert r.factors[0].interval == (0.0, 1.0)
        # nonzero center is unreachable
        r = degenerate_reduction((0.5, 2), RateFunction.exponential(1), (0.4, 0))
        assert r.kind == "empty"

    @pytest.mark.parametrize("rate", [RateFunction.exponential(0.0), RateFunction.exponential(0.1),
                                      RateFunction.power(1.0, 0.0), RateFunction.power(1.0, 2.0)])
    @pytest.mark.parametrize("beta, center", [(0.5, 0.0), (-0.5, 1 / 1.5)])
    def test_slower_rates_fill_the_circle_without_ambiguity(self, rate, beta, center):
        # tau = +inf is reached in the limit: every x is within psi(n) |beta|^-n
        f = degenerate_reduction((beta, 2), rate, (center, 0)).factors[0]
        assert (f.kind, f.interval, f.tau) == ("interval", (0.0, 1.0), math.inf)
        assert not f.closure_ambiguous

    def test_table_tau_closure_is_ambiguous(self):
        rate = RateFunction.table([0.5 ** n for n in range(1, 50)], extend="hold")
        f = degenerate_reduction((0.5, 2), rate, (0.0, 0)).factors[0]
        assert (f.kind, f.interval, f.closure_ambiguous) == ("interval", (0.0, 1.0), True)

    def test_negative_contracting_cases(self):
        rate = RateFunction.exponential(2.0)
        r = degenerate_reduction((-0.5, 2), rate, (0.0, 0))
        assert r.factors[0].kind == "countable_fixed"
        fp = 1 / (1 - (-0.5))
        r = degenerate_reduction((-0.5, 2), rate, (fp, 0))
        assert r.kind == "fixed_slice"
        assert r.factors[0].points == (fp,)
        r = degenerate_reduction((-0.5, 2), rate, (0.123, 0))
        assert r.kind == "empty"

    def test_minus_one_parity_split(self):
        rate = RateFunction.exponential(1)
        r = degenerate_reduction((-1.0, 2, 3), rate, (0.3, 0, 0))
        assert r.kind == "parity_split"
        assert r.factors[0].points == (0.3, 0.7)
        r = degenerate_reduction((-1.0, 2), rate, (0.0, 0))
        assert r.kind == "fixed_slice"
        with pytest.raises(RateNotVanishing):
            degenerate_reduction((-1.0, 2), RateFunction.table([0.5], extend="hold"), (0.3, 0))

    def test_empty_dominates(self):
        r = degenerate_reduction((0.0, 1.0, 2), RateFunction.exponential(1), (0.4, 0.2, 0))
        assert r.kind == "empty"

    def test_requires_a_degenerate_coordinate(self):
        with pytest.raises(ValueError):
            degenerate_reduction((2, 3), RateFunction.exponential(1), (0, 0))


class TestCoverCost:
    def test_one_dimensional_limit(self):
        theta = math.log(2) / (1 + math.log(2))
        seq = cover_cost_sequence([2], [RateFunction.exponential(1)], 0, theta, 1, 1000)
        assert abs(seq[-1][2] - theta) < 1e-3

    def test_convergence_above_threshold(self):
        theta = math.log(2) / (1 + math.log(2))
        seq = cover_cost_sequence([2], [RateFunction.exponential(1)], 0,
                                  theta + 0.05, 1, 1000)
        tail = sum(math.exp(-n * l) for n, l, _ in seq if n > 900)
        assert tail < 1e-6

    def test_divergence_below_threshold(self):
        theta = math.log(2) / (1 + math.log(2))
        seq = cover_cost_sequence([2], [RateFunction.exponential(1)], 0,
                                  theta - 0.05, 1, 400)
        big_terms = sum(1 for n, l, _ in seq if -n * l > 0)
        assert big_terms > 300

    def test_multi_dim_h_limit_matches_theta(self):
        rates = [RateFunction.exponential(0.3), RateFunction.exponential(0.9)]
        target = theta_rect(1, [2, 3], [0.3, 0.9])
        seq = cover_cost_sequence([2, 3], rates, 1, 1.0, 995, 1000)
        for _, _, h in seq:
            assert abs(h - target) < 1e-3
