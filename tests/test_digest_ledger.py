"""The digest ledger: the sha256 of every data file of about fifty desk-scale runs.

Each config runs in-process through ``cli.run`` (the given rational point,
which the CLI does not take, through ``count_hits``), and its data files'
sha256s must equal those recorded in ``digest_ledger.json``.  A change that
moves a digest on purpose rewrites the ledger with

    PYTHONPATH=src python tests/test_digest_ledger.py --update

and says in CHANGES.md which digests changed, and why.  The configs write
the same bytes whichever SIMD extensions numpy dispatches to (checked with
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"); a ball on
diag:e,g centred off 0 does not, as its Phi moves in the last digit, nor
do a diag:2,g rectangle centred at (0, 3/10), a pow:0.5,0.25 ball on
diag:5/2, or a volume table of an exp: or superexp rate (numpy's SIMD exp
differs from its baseline one in the last bit of some psi(n)).
"""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shrinktarget.cli import ExperimentConfig, parse_system, run
from shrinktarget.counting import count_hits
from shrinktarget.targets import RateFunction, ball

LEDGER = Path(__file__).with_name("digest_ledger.json")

HEADLINE = {"system": "diag:2,3", "center": [0, 0], "samples": 4, "steps": 100000,
            "checkpoints": [1000, 25000], "seed": 1}

GOLDEN_PARRY = {"system": "diag:g,g", "center": [0, 0], "rate": "pow:0.5,0.25",
                "measure": "parry", "samples": 4, "steps": 50000, "checkpoints": [1000],
                "seed": 1}

# 5000 table radii between 0.05 and 0.25: a zigzag of period 50 whose height
# doubles and halves every 1500 steps
ZIGZAG = "table:" + ",".join(f"{0.05 + 0.004 * abs(j % 50 - 25) * (1 + j // 1500 % 2):.3f}"
                             for j in range(5000)) + ":hold"

# name -> (command, params, jobs)
CONFIGS = {
    **{f"count_{shape}_2_3_jobs{jobs}": ("count", dict(HEADLINE, shape=shape, **rates), jobs)
       for shape, rates in (("ball", {"rate": "pow:0.5,0.25"}),
                            ("rectangle", {"rates": ["pow:0.4,0.2", "pow:0.3,0.1"]}),
                            ("hyperboloid", {"rate": "pow:0.05,0.2"}))
       for jobs in (1, 2)},
    **{f"count_g_g_parry{suffix}": ("count", GOLDEN_PARRY, jobs)
       for suffix, jobs in (("", 1), ("_jobs2", 2))},
    # integer and golden coordinates in one digit source, from invariant starts
    "count_rectangle_2_g_parry": ("count", {"system": "diag:2,g", "shape": "rectangle",
                                            "center": [0, 0],
                                            "rates": ["pow:0.4,0.2", "pow:0.3,0.1"],
                                            "measure": "parry", "samples": 4, "steps": 50000,
                                            "seed": 1}, 1),
    # d = 3: coordinates past 0 are read only at the steps the earlier ones leave open
    "count_ball_2_3_5": ("count", {"system": "diag:2,3,5", "center": [0, 0, 0],
                                   "rate": "pow:0.5,0.1", "samples": 4, "steps": 50000,
                                   "seed": 1}, 1),
    # N past 2^20, with a checkpoint at 2^20: several blocks and many Phi
    # chunks, on two workers of one sample each
    "count_ball_2_3_past_2_20": ("count", {"system": "diag:2,3", "center": [0, 0],
                                           "rate": "pow:0.5,0.25", "samples": 2,
                                           "steps": 1_100_000, "checkpoints": [1 << 20],
                                           "seed": 1}, 2),
    # a constant radius, past one 2^19-step block: most steps reach coordinate 1
    "count_ball_2_3_constant": ("count", {"system": "diag:2,3", "center": [0, 0],
                                          "rate": "pow:0.3,0", "samples": 2,
                                          "steps": 600_000, "checkpoints": [1 << 19],
                                          "seed": 1}, 1),
    # a radius that rises and falls over many steps and is held past the table's end
    "count_ball_2_g_table_parry": ("count", {"system": "diag:2,g", "center": [0, 0],
                                             "rate": ZIGZAG, "measure": "parry",
                                             "samples": 4, "steps": 40_000,
                                             "checkpoints": [1000, 5000], "seed": 1}, 1),
    # a rational beta that is not an integer: the interval engine
    "count_5over2": ("count", {"system": "diag:5/2", "center": [0], "rate": "pow:0.5,1",
                               "samples": 2, "steps": 400, "seed": 1}, 1),
    "count_e_g_interval": ("count", {"system": "diag:e,g", "center": [0, 0],
                                     "rate": "pow:0.5,0.25", "measure": "parry",
                                     "samples": 2, "steps": 400, "seed": 1}, 1),
    "count_matrix": ("count", {"system": "matrix:3,1;1,2", "center": [0, 0],
                               "rate": "pow:0.25,0.5", "samples": 2, "steps": 300,
                               "seed": 7}, 1),
    # the shrinking schedule on a matrix, deeper than count_matrix
    "count_matrix_2000": ("count", {"system": "matrix:3,1;1,2", "center": [0, 0],
                                    "rate": "pow:0.5,0.25", "samples": 2, "steps": 2000,
                                    "seed": 1}, 1),
    # an integer base above 128 has no int8 digit stream: the interval engine
    "count_base_200": ("count", {"system": "diag:200", "center": [0], "rate": "pow:0.5,0.25",
                                 "samples": 2, "steps": 1000, "seed": 1}, 1),
    # a beta in (-g, -1): starts drawn from the Yrrap measure
    "count_yrrap": ("count", {"system": "diag:-1.3", "center": ["0.3"], "rate": "pow:0.3,0.05",
                              "measure": "parry", "samples": 2, "steps": 400, "seed": 1}, 1),
    "mixing_exact": ("mixing", {"beta": "g", "set_e": [0, 0.5], "set_f": [0.2, 0.7],
                                "method": "exact", "lags": "1:12", "seed": 1}, 1),
    "mixing_mc": ("mixing", {"beta": "g", "set_e": [0, 0.5], "set_f": [0.2, 0.7],
                             "method": "mc", "lags": "0:6", "samples": 2000, "seed": 1}, 1),
    "mixing_auto": ("mixing", {"beta": 2, "set_e": [0, 0.25], "set_f": [0.2, 0.7],
                               "method": "auto", "lags": "1:6", "seed": 1}, 1),
    # past the cap of F's pullback (3^25 and e^40 pieces): the transfer operator's reach
    "mixing_3_lags_25": ("mixing", {"beta": 3, "set_e": [0, 0.5], "set_f": [0, 0.25],
                                    "lags": "1:25", "seed": 1}, 1),
    "mixing_e_lags_40": ("mixing", {"beta": "e", "set_e": [0.1, 0.6], "set_f": [0.3, 0.8],
                                    "lags": "0:40", "seed": 1}, 1),
    "markov": ("markov", {"beta": 3, "power": 2}, 1),
    # the benchmark's build (m = 343), a rational whose normalization splits
    # 20 pieces into 33, and the float path on a subsystem that is not primitive
    "markov_7_power_3": ("markov", {"beta": 7, "power": 3}, 1),
    "markov_5over2_power_3": ("markov", {"beta": "5/2", "power": 3}, 1),
    "markov_minus_g_power_5": ("markov", {"beta": "-g", "power": 5}, 1),
    # both exits of the primitivity stepper at m = 610 and 377: a repeated
    # support (not primitive) and the least witness power 2
    "markov_minus_g_power_12": ("markov", {"beta": "-g", "power": 12}, 1),
    "markov_g_power_12": ("markov", {"beta": "g", "power": 12}, 1),
    "orbit": ("orbit", {"system": "diag:2.7,g", "x": ["1/3", 0.1], "steps": 60,
                        "stride": 5}, 1),
    "orbit_matrix": ("orbit", {"system": "matrix:2,1;1,1", "x": ["0.3", "0.7"], "steps": 200}, 1),
    "volume_ball": ("volume", {"shape": "ball", "d": 2, "rate": "pow:0.3,1"}, 1),
    "volume_rectangle": ("volume", {"shape": "rectangle", "d": 3, "rate": "pow:0.2,1"}, 1),
    "volume_hyperboloid_3": ("volume", {"shape": "hyperboloid", "d": 3,
                                        "rate": "pow:0.05,1"}, 1),
    # the exponential and superexponential closed forms
    "count_ball_2_3_exp": ("count", {"system": "diag:2,3", "center": [0, 0],
                                     "rate": "exp:0.01", "samples": 4, "steps": 20000,
                                     "checkpoints": [100, 20000], "seed": 1}, 1),
    "count_ball_2_3_superexp": ("count", {"system": "diag:2,3", "center": [0, 0],
                                          "rate": "superexp", "samples": 4, "steps": 2000,
                                          "seed": 1}, 1),
    "support_minus_1_3": ("support", {"beta": "-1.3"}, 1),
    "measure_minus_g": ("measure", {"beta": "-g", "a": 0, "b": 0.5}, 1),
    "dimension": ("dimension", {"method": "ball", "moduli": [2, 3], "lam": 0.5}, 1),
    **{f"dimension_{params['method']}": ("dimension", params, 1) for params in (
        {"method": "rect", "moduli": [2, 3], "t_points": "0.5,1.2;1,0.3"},
        {"method": "onedim", "beta_modulus": 2.5, "lam": 0.5},
        {"method": "mult", "moduli": [2, 3, 5], "lam": 0.5},
        {"method": "mtp", "deltas": [1, 1], "u": [0.3, 0.4], "v": [0.5, 0.9]},
        {"method": "markov", "beta_modulus": 10, "lam": 0.5},
        {"method": "unbounded", "moduli": [2, 3], "t_points": "1,inf;0.5,1.2"},
        {"method": "hat", "moduli": [2, 3], "t_points": "0.5,1.2;1,0.3", "deltas": [1, 1]},
    )},
    # perfbench's workloads at seed 1 (markov_build is markov_7_power_3)
    **{f"bench_{name}": (command, dict(params, seed=1), jobs)
       for name, command, params, jobs in (
           ("count_digit", "count", {
               "system": "diag:2,3", "shape": "ball", "center": [0, 0],
               "rate": "pow:0.5,0.25", "steps": 1_000_000,
               "checkpoints": [1000, 10_000, 100_000, 1_000_000], "samples": 8}, 2),
           ("count_parry_golden", "count", {
               "system": "diag:g,g", "shape": "ball", "center": [0, 0],
               "rate": "pow:0.5,0.25", "measure": "parry", "steps": 3000,
               "checkpoints": [300, 1000, 3000], "samples": 4}, 1),
           ("mixing_exact", "mixing", {
               "beta": "g", "set_e": [0, 0.618033988749895],
               "set_f": [0, 0.618033988749895], "method": "exact", "lags": "1:27"}, 1),
       )},
}

# a given rational point on the digit engine: count_hits, not the CLI
RATIONAL_POINT = ("diag:2,3", (Fraction(17, 97), Fraction(23, 89)), 3000, [100, 3000])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digests(name: str, out_dir: Path) -> dict:
    """{data file: sha256} of one ledger config, run into ``out_dir``."""
    command, params, jobs = CONFIGS[name]
    manifest = run(ExperimentConfig(command, params), out_dir, jobs=jobs)
    assert manifest.outputs == {path.name: _sha256(path.read_bytes())
                                for path in out_dir.iterdir() if "manifest" not in path.name}
    return dict(sorted(manifest.outputs.items()))


def rational_point_digests() -> dict:
    system, x, n_steps, checkpoints = RATIONAL_POINT
    target = ball((0, 0), RateFunction.power(0.5, 0.25))
    res = count_hits(parse_system(system), target, x, n_steps, checkpoints=checkpoints)
    rows = "".join(f"{r.n},{r.r_lo},{r.r_hi},{r.phi!r},{r.e!r}\n" for r in res.checkpoints)
    return {"rows": _sha256(rows.encode())}


def all_digests(tmp: Path) -> dict:
    out = {name: config_digests(name, tmp / name) for name in CONFIGS}
    out["count_rational_point"] = rational_point_digests()
    return out


def test_ledger_names_the_configs():
    assert sorted(json.loads(LEDGER.read_text())) == sorted([*CONFIGS, "count_rational_point"])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_matches_the_ledger(tmp_path, name):
    assert config_digests(name, tmp_path) == json.loads(LEDGER.read_text())[name]


def test_rational_point_matches_the_ledger():
    assert rational_point_digests() == json.loads(LEDGER.read_text())["count_rational_point"]


def test_jobs_do_not_change_the_counts():
    ledger = json.loads(LEDGER.read_text())
    for shape in ("ball", "rectangle", "hyperboloid"):
        assert ledger[f"count_{shape}_2_3_jobs1"] == ledger[f"count_{shape}_2_3_jobs2"]
    assert ledger["count_g_g_parry"] == ledger["count_g_g_parry_jobs2"]


def test_benchmark_workloads_are_ledger_configs(monkeypatch):
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        ledger_name = "markov_7_power_3" if name == "markov_build" else f"bench_{name}"
        command, params, jobs = CONFIGS[ledger_name]
        assert (command, jobs) == (w.command, w.jobs), name
        assert params == (w.params if command == "markov" else dict(w.params, seed=1)), name


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_digest_ledger.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        LEDGER.write_text(json.dumps(all_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
