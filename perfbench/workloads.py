"""The four benchmark workloads, the oracles that check their outputs and
the calibration kernels their times are divided by.

Each workload is one ``cli.run(ExperimentConfig(...))`` config whose
``seed`` is the benchmark's ``--seed`` (the markov and exact mixing
commands ignore it).  Every check uses an oracle that does not share the
code path it checks, and returns a list of problems (empty when the
output holds).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

SQRT5 = math.sqrt(5.0)
INV_GOLDEN = (SQRT5 - 1.0) / 2.0
# the golden Parry density is two-valued: HIGH on [0, 1/g), LOW on [1/g, 1)
PARRY_GOLDEN_HIGH = (5.0 + 3.0 * SQRT5) / 10.0
PARRY_GOLDEN_LOW = (5.0 + SQRT5) / 10.0
AMBIGUITY_BUDGET = 1e-3  # the manifest's "ambiguity_budget"; the CLI does not enforce it
PHI_RTOL = 1e-9
# E[R(x, N)] = Phi(N) for x drawn from an invariant measure.  Var R / Phi
# measured 1.1-1.4 on both count workloads (clusters of hits near the fixed
# point 0); the check allows HIT_Z standard errors at twice that variance.
HIT_VAR_PER_PHI = 2.0
HIT_Z = 6.0
# |phi_hat(n) - closed form| stays below 3e-14 at lags 1..28 in float64
MIXING_ATOL = 2e-13


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    params: dict
    jobs: int
    check: Callable[[Path, dict], list]
    # fixed work of the same kind as the workload's hot path, timed next to
    # each cli.run: the vCPU's speed drifts by up to 2x within seconds, and
    # interpreted code slows more than vectorized numpy, so each workload
    # is divided by a kernel that slows as it does
    calibration: Callable[[], None]

    def config(self, seed: int) -> dict:
        return {"command": self.command, "params": dict(self.params, seed=seed)}


def _read_count_rows(out_dir: Path) -> list[dict]:
    with (out_dir / "count.csv").open() as fh:
        return list(csv.DictReader(fh))


def _power_rate(spec: str) -> tuple[float, float]:
    kind, _, rest = spec.partition(":")
    if kind != "pow":
        raise ValueError(f"oracle handles pow rates only, not {spec!r}")
    c, kappa = (float(v) for v in rest.split(","))
    return c, kappa


def _phi_oracle(checkpoints, term) -> dict:
    """Sum of term(n) for n = 1..N at each checkpoint N, by math.fsum."""
    out = {}
    parts = []
    start = 1
    for n_cp in sorted(checkpoints):
        parts.append(math.fsum(term(n) for n in range(start, n_cp + 1)))
        out[n_cp] = math.fsum(parts)
        start = n_cp + 1
    return out


@lru_cache(maxsize=None)
def _lebesgue_ball_phi(rate: str, d: int, checkpoints: tuple) -> dict:
    c, kappa = _power_rate(rate)
    return _phi_oracle(checkpoints, lambda n: min(1.0, 2.0 * c * n ** -kappa) ** d)


def _golden_cdf(x: float) -> float:
    return PARRY_GOLDEN_HIGH * min(x, INV_GOLDEN) + PARRY_GOLDEN_LOW * max(0.0, x - INV_GOLDEN)


def _golden_ball(r: float) -> float:
    """Parry measure of the torus ball B(0, r) for beta = g."""
    if r >= 0.5:
        return 1.0
    return _golden_cdf(r) + 1.0 - _golden_cdf(1.0 - r)


@lru_cache(maxsize=None)
def _golden_ball_phi(rate: str, d: int, checkpoints: tuple) -> dict:
    c, kappa = _power_rate(rate)
    return _phi_oracle(checkpoints, lambda n: _golden_ball(c * n ** -kappa) ** d)


def _check_count(rows: list, params: dict, oracle) -> list:
    """Phi against ``oracle``, R_lo <= R_hi, and the mean count against Phi.

    The last check is statistical: at each checkpoint the mean of R_mid
    over the samples lies within HIT_Z * sqrt(HIT_VAR_PER_PHI * Phi / samples)
    of the oracle's Phi, so an engine that loses or invents hits fails.
    """
    problems = []
    checkpoints = tuple(int(v) for v in params["checkpoints"])
    samples = int(params["samples"])
    if len(rows) != samples * len(checkpoints):
        problems.append(f"count.csv has {len(rows)} rows")
    phi = oracle(params["rate"], len(params["center"]), checkpoints)
    mids: dict = {n: [] for n in checkpoints}
    for row in rows:
        n, r_lo, r_hi = int(row["N"]), int(row["R_lo"]), int(row["R_hi"])
        if r_lo > r_hi:
            problems.append(f"sample {row['sample_id']} N={n}: R_lo > R_hi")
        want = phi.get(n)
        if want is None or abs(float(row["Phi"]) - want) > PHI_RTOL * want:
            problems.append(f"sample {row['sample_id']} N={n}: Phi {row['Phi']} != {want}")
        mids.setdefault(n, []).append((r_lo + r_hi) / 2.0)
    for n in checkpoints:
        tol = HIT_Z * math.sqrt(HIT_VAR_PER_PHI * phi[n] / samples)
        mean = math.fsum(mids[n]) / len(mids[n]) if mids[n] else math.nan
        if not abs(mean - phi[n]) <= tol:
            problems.append(f"N={n}: mean R_mid {mean} is not within {tol:.3g} of Phi {phi[n]}")
    return problems


def check_count_digit(out_dir: Path, params: dict) -> list:
    rows = _read_count_rows(out_dir)
    problems = _check_count(rows, params, _lebesgue_ball_phi)
    final = max(int(v) for v in params["checkpoints"])
    for row in rows:
        if int(row["N"]) != final:
            continue
        r_lo, r_hi = int(row["R_lo"]), int(row["R_hi"])
        if r_hi - r_lo > AMBIGUITY_BUDGET * r_hi:
            problems.append(f"sample {row['sample_id']}: {r_hi - r_lo} ambiguous hits "
                            f"exceed the budget {AMBIGUITY_BUDGET} * R_hi")
    return problems


def check_count_parry_golden(out_dir: Path, params: dict) -> list:
    return _check_count(_read_count_rows(out_dir), params, _golden_ball_phi)


def check_markov(out_dir: Path, params: dict) -> list:
    from shrinktarget.markov import power_map, verify_markov

    data = json.loads((out_dir / "markov.json").read_text())
    pieces, rows = data["pieces"], data["matrix_sparse_rows"]
    certs = data["certificates"]
    problems = []
    if len(rows) != len(pieces):
        problems.append(f"{len(rows)} matrix rows for {len(pieces)} pieces")
    row_min = min(len(r) for r in rows)
    if row_min != certs["row_min"]:
        problems.append(f"row_min certificate {certs['row_min']} != {row_min}")
    if row_min < certs["row_min_guarantee"]:
        problems.append(f"row_min {row_min} < guarantee {certs['row_min_guarantee']}")
    problems += verify_markov([tuple(p) for p in pieces],
                              power_map(params["beta"], int(params["power"])))
    return problems


def check_mixing(out_dir: Path, params: dict) -> list:
    """phi_hat(n) = |mu(E & T^-n E) / mu(E) - mu(E)| for E = [0, 1/g).

    E is the cylinder of first digit 0 of the golden-mean shift, whose
    Parry measure is the Markov chain P = [[1/g, 1/g^2], [1, 0]] with
    stationary mu(E) = (5+sqrt5)/10.  So phi_hat(n) = |P^n[0,0] - mu(E)|
    = (5-sqrt5)/10 * g^(-2n), since P's other eigenvalue is -1/g^2.
    """
    with (out_dir / "mixing.csv").open() as fh:
        rows = {int(r["n"]): r for r in csv.DictReader(fh)}
    lo, _, hi = params["lags"].partition(":")
    problems = []
    if sorted(rows) != list(range(int(lo), int(hi) + 1)):
        problems.append(f"mixing.csv lags {sorted(rows)}")
    for n, row in sorted(rows.items()):
        want = (1.0 - PARRY_GOLDEN_LOW) * INV_GOLDEN ** (2 * n)
        got = float(row["phi_hat"])
        if not abs(got - want) <= MIXING_ATOL:
            problems.append(f"lag {n}: phi_hat {got} != (5-sqrt5)/10 * g^-{2 * n} = {want}")
        if float(row["stderr"]) != 0.0:
            problems.append(f"lag {n}: exact method reported a non-zero standard error")
    return problems


def cal_digit_windows() -> None:
    """The digit engine's kind of work: numpy window sums, then a Phi-like sum."""
    import numpy as np

    digits = (np.arange(300_000, dtype=np.int64) * 7919 % 6).astype(np.int8)
    d = digits.astype(np.float64)
    vals = np.zeros(150_000)
    for k in range(16):
        vals += 6.0 ** -(k + 1) * d[1 + k:150_001 + k]
    diff = np.abs(vals - 0.5)
    np.cumsum(np.minimum(diff, 1.0 - diff) <= 0.01)
    math.fsum(min(1.0, n ** -0.25) ** 2 for n in range(1, 20_000))


class _Interval:
    """[start, start + width] / 2**bits, as the interval engine keeps a point."""

    __slots__ = ("start", "width", "bits")

    def __init__(self, start: int, width: int, bits: int):
        self.start, self.width, self.bits = start, width, bits

    def step(self, b_lo: int, b_hi: int, q: int) -> "_Interval":
        """x -> beta x mod 1 for beta in [b_lo, b_hi] / 2**q."""
        a0, a1 = self.start, self.start + self.width
        prods = (a0 * b_lo, a0 * b_hi, a1 * b_lo, a1 * b_hi)
        m_lo, m_hi = min(prods), max(prods)
        total = self.bits + q
        rem = m_lo - ((m_lo >> total) << total)
        start = rem >> q
        end = -((-(rem + (m_hi - m_lo))) >> q)
        return _Interval(start, max(end - start, 1 << 60), self.bits)


def cal_big_intervals() -> None:
    """The interval engine's kind of work: big-integer interval objects
    stepped one at a time, and a small numpy measure call per step."""
    import numpy as np

    bits = q = 2048
    b_lo = (1 << q) * 1618033988749894848 // 10 ** 18
    x = _Interval(3 ** 1200 & ((1 << bits) - 1), 1 << 60, bits)
    orbit = np.linspace(0.0, 1.0, 12)
    weights = np.ones(12)
    for n in range(1, 1500):
        x = x.step(b_lo, b_lo + 1, q)
        r = 0.5 * n ** -0.25
        float(weights @ (np.clip(orbit, 0.5 - r, 0.5 + r) - (0.5 - r)))


def cal_fractions() -> None:
    """build_markov's kind of work: pairwise containment of exact fractions."""
    pieces = [(Fraction(i, 343), Fraction(i + 1, 343)) for i in range(343)]
    images = [(Fraction(7 * i % 300, 343), Fraction(7 * i % 300 + 40, 343))
              for i in range(90)]
    sum(1 for lo, hi in images for a, b in pieces if a >= lo and b <= hi)


def cal_pullback() -> None:
    """preimage_intervals' kind of work: numpy interval arrays to float tuples."""
    import numpy as np

    lo = np.linspace(0.0, 0.6, 8_000)
    hi = lo + 1e-4
    for _ in range(4):
        lo = np.concatenate((lo * INV_GOLDEN, (lo + 1.0) * INV_GOLDEN))
        hi = np.concatenate((hi * INV_GOLDEN, (hi + 1.0) * INV_GOLDEN))
        keep = hi <= 1.0
        lo, hi = lo[keep], hi[keep]
    [(float(lo[i]), float(hi[i])) for i in np.argsort(lo, kind="stable")]


def output_counters(out_dir: Path, outputs) -> dict:
    """Per-layer counts read from a run's data files (identical traced or not)."""
    out = {"cli.bytes_out": sum((out_dir / name).stat().st_size for name in outputs)}
    if (out_dir / "count.csv").exists():
        rows = _read_count_rows(out_dir)
        final = max(int(r["N"]) for r in rows)
        out["counting.ambiguous_hits"] = sum(
            int(r["R_hi"]) - int(r["R_lo"]) for r in rows if int(r["N"]) == final)
    if (out_dir / "markov.json").exists():
        data = json.loads((out_dir / "markov.json").read_text())
        out["markov.pieces"] = len(data["pieces"])
        out["markov.nonzeros"] = sum(len(r) for r in data["matrix_sparse_rows"])
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="count_digit",
        command="count",
        params={"system": "diag:2,3", "shape": "ball", "center": [0, 0],
                "rate": "pow:0.5,0.25", "steps": 1_000_000,
                "checkpoints": [1000, 10_000, 100_000, 1_000_000], "samples": 8},
        jobs=2,
        check=check_count_digit,
        calibration=cal_digit_windows,
    ),
    Workload(
        name="count_parry_golden",
        command="count",
        params={"system": "diag:g,g", "shape": "ball", "center": [0, 0],
                "rate": "pow:0.5,0.25", "measure": "parry", "steps": 3000,
                "checkpoints": [300, 1000, 3000], "samples": 4},
        jobs=1,
        check=check_count_parry_golden,
        calibration=cal_big_intervals,
    ),
    Workload(
        name="markov_build",
        command="markov",
        params={"beta": 7, "power": 3},
        jobs=1,
        check=check_markov,
        calibration=cal_fractions,
    ),
    Workload(
        name="mixing_exact",
        command="mixing",
        params={"beta": "g", "set_e": [0, 0.618033988749895],
                "set_f": [0, 0.618033988749895], "method": "exact", "lags": "1:27"},
        jobs=1,
        check=check_mixing,
        calibration=cal_pullback,
    ),
)}
