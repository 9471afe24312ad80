"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from shrinktarget.cli import ExperimentConfig, run as cli_run
from shrinktarget.counting import correlation_estimate, correlation_series, monte_carlo_counting
from shrinktarget.cylinders import count_cylinders, full_cylinder_stats, preimage_intervals
from shrinktarget.dimension import (
    MtpInput,
    _theta_sum,
    cover_cost_sequence,
    dim_ball,
    dim_mult,
    dim_onedim,
    dim_rect,
    mtp_dimension,
    theta_rect,
    unbounded_bounds,
)
from shrinktarget.markov import (
    beta_map,
    build_markov,
    entropy_and_dim,
    normalize_partition,
    verify_markov,
    word_count,
)
from shrinktarget.measures import GOLDEN_RATIO, ParryYrrapMeasure, bound_constant
from shrinktarget.orbits import DiagonalTorusSystem
from shrinktarget.targets import (
    AccumulationSet,
    RateFunction,
    ball,
    hyperboloid_volume,
)

G = GOLDEN_RATIO


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def divergent_run():
    """Criterion 2/3 workload: diag(2,3), psi(n) = n^(-1/4)/2, N = 10^6."""
    system = DiagonalTorusSystem((2, 3))
    target = ball((0.0, 0.0), RateFunction.power(0.5, 0.25))
    start = time.monotonic()
    summary = monte_carlo_counting(
        system, target, 100, 10 ** 6, seed=20_240_817,
        checkpoints=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], band_tol=0.2, jobs=2,
    )
    return summary, time.monotonic() - start


def test_criterion_1_hyperboloid_volume_vs_monte_carlo():
    start = time.monotonic()
    samples = 10 ** 7
    chunk = 10 ** 6
    worst = 0.0
    for d in (1, 2, 3):
        rng = np.random.default_rng(1000 + d)
        hits = {delta: 0 for delta in (1e-1, 1e-2, 1e-3)}
        for _ in range(samples // chunk):
            pts = rng.random((chunk, d))
            prod = np.prod(np.minimum(pts, 1 - pts), axis=1)
            for delta in hits:
                hits[delta] += int(np.count_nonzero(prod < delta))
        for delta, count in hits.items():
            mc = count / samples
            se = math.sqrt(max(mc * (1 - mc), 1e-12) / samples)
            dev = abs(hyperboloid_volume(d, delta) - mc) / se
            worst = max(worst, dev)
            assert dev < 4, f"(d={d}, delta={delta}): {dev:.2f} standard errors"
    elapsed = time.monotonic() - start
    report("criterion 1", elapsed < 60 and worst < 4,
           f"9 closed-form/MC comparisons within {worst:.2f} se (limit 4), "
           f"{elapsed:.1f}s (limit 60s)")


def test_criterion_2_quantitative_counting_band(divergent_run):
    summary, elapsed = divergent_run
    in_band = round(summary.fraction_in_band * 100)
    trajectory = {}
    for res in summary.results:
        for row in res.checkpoints:
            if row.e is not None:
                trajectory.setdefault(row.n, []).append(abs(row.e))
    lines = ", ".join(
        f"N=1e{int(math.log10(n))}: max|e|={max(v):.3f}" for n, v in sorted(trajectory.items())
    )
    print(f"[criterion 2] |e(N)| trajectory over 100 samples: {lines}")
    report("criterion 2", in_band >= 95 and elapsed < 300,
           f"{in_band}/100 samples within |R/Phi - 1| <= 0.2 at N=1e6 "
           f"(Phi={summary.phi_final:.1f}), {elapsed:.1f}s (limit 300s)")


def test_criterion_3_zero_one_dichotomy(divergent_run):
    system = DiagonalTorusSystem((2, 3))
    convergent = ball((0.0, 0.0), RateFunction.exponential(math.log(2)))
    summary = monte_carlo_counting(
        system, convergent, 100, 10 ** 6, seed=77, checkpoints=[10 ** 3, 10 ** 6], jobs=2,
    )
    stable = all(
        res.checkpoints[0].r_lo == res.final.r_lo
        and res.checkpoints[0].r_hi == res.final.r_hi
        for res in summary.results
    )
    div_summary, _ = divergent_run
    growing = all(
        next(r for r in res.checkpoints if r.n == 10 ** 6).r_lo
        > next(r for r in res.checkpoints if r.n == 10 ** 5).r_lo
        for res in div_summary.results
    )
    report("criterion 3", stable and growing,
           f"convergent rate: all 100 counts constant on [1e3, 1e6] ({stable}); "
           f"divergent rate: all 100 counts grew past N=1e5 ({growing})")


def test_criterion_4_invariant_measures():
    betas = ["g", 1.5, 2.7, "-g", -2]
    worst_norm = 0.0
    worst_inv = 0.0
    for beta in betas:
        mu = ParryYrrapMeasure(beta)
        worst_norm = max(worst_norm, abs(mu.measure_interval(0, 1) - 1.0))
        rng = np.random.default_rng(abs(hash(str(beta))) % 2 ** 32)
        for _ in range(200):
            mid = float(rng.random())
            rad = float(rng.random()) * 0.24 + 0.005
            lo, hi = max(0.0, mid - rad), min(1.0, mid + rad)
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            if rad <= 1e-4:
                continue
            direct = mu.measure_interval(lo, hi)
            pieces = preimage_intervals(beta, 1, mid, rad)
            pulled = sum(mu.measure_interval(max(0.0, a), min(1.0, b)) for a, b in pieces)
            worst_inv = max(worst_inv, abs(pulled - direct))
    assert worst_norm <= 1e-10
    assert worst_inv <= 1e-6

    mu = ParryYrrapMeasure("-g")
    b1 = abs(mu.density(0.1) - 1 / (3 - G))
    b2 = abs(mu.density(0.9) - G / (3 - G))
    assert max(b1, b2) <= 1e-10

    grid_ok = True
    for beta in ("-g", -2):
        mu = ParryYrrapMeasure(beta)
        c = bound_constant(beta)
        xs = np.linspace(1e-4, 1 - 1e-4, 10 ** 4)
        dens = mu.density(xs)
        tol = 4 * mu.tail_bound / mu.normalizer + 1e-12
        grid_ok = grid_ok and bool(np.all(dens <= c + tol) and np.all(dens >= 1 / c - tol))
    report("criterion 4", grid_ok,
           f"normalization off by {worst_norm:.1e} (tol 1e-10); invariance off by "
           f"{worst_inv:.1e} (tol 1e-6) on 200 intervals x 5 betas; branch values off by "
           f"{max(b1, b2):.1e} (tol 1e-10); two-sided density bounds hold on 1e4 grids")


def test_criterion_5_dimension_formula_cross_checks():
    tol = 1e-12
    rng = np.random.default_rng(55)

    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        mods = list(np.sort(rng.uniform(1.05, 9.0, d)))
        lam = float(rng.uniform(0, 4))
        a = dim_ball(mods, lam).value
        b = dim_rect(mods, AccumulationSet((tuple([lam] * d),))).value
        worst = max(worst, abs(a - b))
    assert worst <= tol, f"ball/rect mismatch {worst}"

    for _ in range(100):
        d = int(rng.integers(1, 6))
        mods = list(np.sort(rng.uniform(1.05, 9.0, d)))
        t = list(rng.uniform(0, 2, d))
        if d > 1 and rng.random() < 0.5:
            cand = math.log(mods[0]) + t[0] - math.log(mods[-1])
            if cand > 0:
                t[-1] = cand  # engineered K2 tie
        for i in range(d):
            base = theta_rect(i, mods, t)
            for s1 in (True, False):
                assert abs(_theta_sum(i, [math.log(m) for m in mods], t, [1.0] * d,
                                      s1) - base) <= tol

    for _ in range(50):
        d = int(rng.integers(1, 6))
        mods = list(np.sort(rng.uniform(1.05, 9.0, d)))
        lam = float(rng.uniform(0.01, 4))
        acc = AccumulationSet((tuple([0.0] * (d - 1) + [lam]),))
        assert abs(dim_mult(mods, lam) - dim_rect(mods, acc).value) <= tol

    for b, lam in ((2.0, 0.0), (G, math.log(G)), (7.3, 1.1)):
        assert abs(dim_ball([b], lam).value - dim_onedim(b, lam)) <= tol

    def theta_oracle(i, mods, t):
        # literal transcription of the three partition sums
        logb = [math.log(m) for m in mods]
        thr = logb[i] + t[i]
        total = 0.0
        for k in range(len(mods)):
            if logb[k] > thr:
                total += 1.0
            elif logb[k] + t[k] <= thr:
                total += 1.0 - t[k] / thr
            else:
                total += logb[k] / thr
        return total

    for _ in range(40):
        d = int(rng.integers(1, 6))
        b = float(rng.uniform(1.1, 8))
        tau = float(rng.uniform(0, 3))
        lam = tau * math.log(b)
        rep = dim_ball([b] * d, lam)
        assert abs(rep.value - d / (1 + tau)) <= tol * max(1, d)
        oracle = min(theta_oracle(i, [b] * d, [lam] * d) for i in range(d))
        assert abs(rep.value - oracle) <= 1e-9

    for _ in range(40):
        p = int(rng.integers(1, 5))
        deltas = tuple(rng.uniform(0.2, 1.0, p))
        v = tuple(rng.uniform(0.5, 3.0, p))
        u = tuple(x * float(rng.uniform(0.05, 0.95)) for x in v)
        base = mtp_dimension(MtpInput(deltas, u, v)).value
        scaled = mtp_dimension(MtpInput(deltas, tuple(7.3 * x for x in u),
                                        tuple(7.3 * x for x in v))).value
        assert abs(base - scaled) <= tol
    one = MtpInput((0.8,), (0.3,), (0.7,))
    assert abs(mtp_dimension(one).value - 0.8 * 0.3 / 0.7) <= tol

    lo, hi = unbounded_bounds([2, 3], AccumulationSet(((1.0, math.inf),)))
    assert abs(lo - math.log(2) / (math.log(2) + 1)) <= tol
    assert abs(hi - 1.0) <= tol
    assert f"{lo:.5f}" == "0.40938"

    report("criterion 5", True,
           "ball=rect (100 instances), strictness swaps with ties, mult=rect "
           "(50 instances), d=1 collapse, equal-modulus collapse with oracle, "
           "MTP scale invariance and single-factor collapse, mixed-rate bounds "
           f"0.40938/1.0 -- all within 1e-12")


def test_criterion_6_cover_cost_dichotomy():
    rng = np.random.default_rng(66)
    for trial in range(10):
        b = float(rng.uniform(1.2, 6.0))
        t = float(rng.uniform(0.1, 2.0))
        theta = math.log(b) / (t + math.log(b))
        rates = [RateFunction.exponential(t)]
        seq_hi = cover_cost_sequence([b], rates, 0, theta + 0.05, 1, 1000)
        tail = sum(math.exp(-n * l) for n, l, _ in seq_hi if n > 900)
        assert tail < 1e-6, f"trial {trial}: tail {tail}"
        seq_lo = cover_cost_sequence([b], rates, 0, theta - 0.05, 500, 1000)
        exceed = sum(1 for n, l, _ in seq_lo if -n * l > 0)
        assert exceed > 400, f"trial {trial}: only {exceed} diverging terms"
    report("criterion 6", True,
           "10 random (beta, exponential rate) instances: cover sums converge at "
           "s = theta+0.05 (tail < 1e-6 by n=1000) and blow up at s = theta-0.05")


def test_criterion_7_cylinder_facts():
    start = time.monotonic()
    for beta, bf in [("g", G), (1.8, 1.8), ("e", math.e), (2.5, 2.5), (1.05, 1.05)]:
        for n in range(1, 61):
            count = count_cylinders(beta, n)
            assert count <= bf ** (n + 1) / (bf - 1), f"count bound beta={beta} n={n}"
            stats = full_cylinder_stats(beta, n)
            assert stats["count"] == count
            assert stats["max_nonfull_run"] <= n, f"window beta={beta} n={n}"
            assert stats["max_gap"] < (n + 1) * bf ** -n, f"gap beta={beta} n={n}"
    elapsed = time.monotonic() - start
    report("criterion 7", elapsed < 120,
           f"count bound and every-(n+1)-window full-cylinder property hold for "
           f"5 bases, n <= 60, subtree-summary scan in {elapsed:.1f}s (limit 120s)")


def test_criterion_8_markov_construction():
    for beta in (9, 10, 16, 100):
        pl = beta_map(beta)
        ms = build_markov(pl)
        problems = verify_markov(ms.pieces, normalize_partition(pl))
        assert problems == [], f"beta={beta}: {problems}"
        m = ms.size
        for n in range(1, 13):
            assert word_count(ms.rows, n) >= m * (beta / 2 - 3) ** (n - 1)
        _, dim = entropy_and_dim(ms.rows, beta)
        floor = 1 - math.log(8) / math.log(beta)
        assert dim >= floor - 1e-9
        assert ms.certificates["dim_lb"] == pytest.approx(floor)
    report("criterion 8", True,
           "independent checker passes, word counts clear m(beta/2-3)^(n-1) for "
           "n <= 12, and entropy/dimension certificates hold for beta in {9,10,16,100}")


def test_criterion_9_mixing_estimator():
    for lag in (2, 3, 6, 10):
        est, se = correlation_estimate(2, (0.0, 0.5), (0.0, 0.25), lag)
        assert est == 0.0 and se == 0.0
    cell = (0.0, 1 / G)
    lags = list(range(5, 26))
    exact = correlation_series("g", cell, cell, lags, method="exact")
    assert exact.fit_gamma < 1.0
    assert exact.fit_r2 > 0.9
    mc = correlation_series("g", cell, cell, lags, method="mc",
                            num_samples=10 ** 6, seed=909)
    exact_by_lag = dict((n, v) for n, v, _ in exact.entries)
    for n, v, se in mc.entries:
        assert abs(v - exact_by_lag[n]) <= 4 * se, f"lag {n}: MC off by >4se"
    report("criterion 9", True,
           f"dyadic sets decorrelate exactly under doubling; golden Markov cell fits "
           f"gamma={exact.fit_gamma:.5f} (<1) with R^2={exact.fit_r2:.6f} (>0.9) on the "
           f"exact series over lags 5..25, and the 1e6-sample MC estimator agrees "
           f"within 4 se at every lag")


def test_criterion_10_determinism_across_workers(tmp_path):
    cfg = ExperimentConfig("count", {
        "system": "diag:2,3", "shape": "ball", "center": [0, 0],
        "rate": "pow:0.5,0.25", "samples": 8, "steps": 50_000, "seed": 4242,
        "checkpoints": [10_000, 50_000],
    })
    cli_run(cfg, tmp_path / "j1", jobs=1)
    cli_run(cfg, tmp_path / "j2", jobs=2)
    cli_run(cfg, tmp_path / "j3", jobs=3)
    ref = (tmp_path / "j1/count.csv").read_bytes()
    same_counts = ((tmp_path / "j2/count.csv").read_bytes() == ref
                   and (tmp_path / "j3/count.csv").read_bytes() == ref)
    mix = ExperimentConfig("mixing", {
        "beta": "g", "set_e": [0.0, 0.5], "set_f": [0.0, 0.5], "lags": "1:12",
        "samples": 50_000, "seed": 11, "method": "mc",
    })
    cli_run(mix, tmp_path / "m1", jobs=1)
    cli_run(mix, tmp_path / "m2", jobs=2)
    same_mix = (tmp_path / "m1/mixing.csv").read_bytes() == \
        (tmp_path / "m2/mixing.csv").read_bytes()
    man1 = json.loads((tmp_path / "j1/count_manifest.json").read_text())
    man2 = json.loads((tmp_path / "j2/count_manifest.json").read_text())
    same_digests = man1["outputs"] == man2["outputs"]
    report("criterion 10", same_counts and same_mix and same_digests,
           "byte-identical CSV outputs and matching manifest digests for "
           "jobs in {1,2,3} at a fixed seed")
