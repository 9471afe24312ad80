"""Experiment CLI tests: determinism, manifests, validation, exit codes."""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import contains_value
from shrinktarget import cli
from shrinktarget.cli import (
    ExperimentConfig,
    main,
    parse_rate,
    parse_system,
    parse_t_points,
    run,
    validate,
)
from shrinktarget.errors import AmbiguityBudgetExceeded, ConfigInvalid, PrecisionExhausted
from shrinktarget.markov import build_markov, power_map
from shrinktarget.measures import ProductMeasure
from shrinktarget.orbits import DiagonalTorusSystem, IntegerMatrixSystem, orbit_enclosures
from shrinktarget.targets import (
    RateFunction, ball, hyperboloid, hyperboloid_volume, phi_values,
)


class TestParsing:
    def test_system_specs(self):
        s = parse_system("diag:2,3")
        assert isinstance(s, DiagonalTorusSystem) and s.betas == (2, 3)
        m = parse_system("matrix:2,1;1,1")
        assert isinstance(m, IntegerMatrixSystem)
        g = parse_system("diag:g,-g")
        assert g.moduli == pytest.approx([1.618033988749895] * 2)
        assert parse_system("diag:2.7,5/2").betas == (Fraction(27, 10), Fraction(5, 2))

    def test_signed_symbolic_tokens(self):
        s = parse_system("diag:+g,-golden,-E")
        assert s.moduli == pytest.approx([1.618033988749895] * 2 + [math.e])
        with pytest.raises(ConfigInvalid):
            parse_system("diag:+-g")

    def test_rate_specs(self):
        assert parse_rate("exp:0.7").psi(1) == pytest.approx(math.exp(-0.7))
        assert parse_rate("pow:0.5,0.25").psi(16) == pytest.approx(0.25)
        assert parse_rate("superexp").psi(2) == pytest.approx(math.exp(-4))
        assert parse_rate("table:0.5,0.25:hold").psi(7) == 0.25

    def test_t_points(self):
        acc = parse_t_points("0.5,1.2;0.3,inf")
        assert acc.points == ((0.5, 1.2), (0.3, math.inf))


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig("count", {"system": "diag:2,3", "seed": 7})
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.config_hash == cfg.config_hash

    def test_hash_changes_with_params(self):
        a = ExperimentConfig("count", {"seed": 7})
        b = ExperimentConfig("count", {"seed": 8})
        assert a.config_hash != b.config_hash


class TestValidate:
    def test_seed_mandatory_for_stochastic(self):
        cfg = ExperimentConfig("count", {"system": "diag:2,3", "rate": "pow:0.5,0.25",
                                         "center": "0,0", "steps": 10})
        assert any(d.startswith("error:") and "seed" in d for d in validate(cfg))

    def test_degenerate_eigenvalue_flagged(self):
        cfg = ExperimentConfig("count", {"system": "diag:0.5,3", "seed": 1,
                                         "rate": "pow:0.5,0.25", "center": "0,0",
                                         "steps": 10})
        msgs = validate(cfg)
        assert any("reduction" in d for d in msgs)

    def test_markov_slope_note(self):
        cfg = ExperimentConfig("markov", {"beta": 5})
        assert any("modulus > 8" in d for d in validate(cfg))

    @pytest.mark.parametrize("params, refused", [
        ({"beta": "1e200", "power": 2}, True),
        ({"beta": "1e300"}, True),
        ({"beta": "g", "power": 21}, True),    # 2^21 pieces
        ({"beta": "g", "power": 20}, False),
        ({"beta": 7, "power": 3}, False),
        ({"beta": 10, "power": 3}, False),
        ({"beta": "0.5", "power": 10 ** 400}, False),  # beta_map refuses |beta| <= 1
    ])
    def test_markov_piece_cap(self, params, refused):
        msgs = validate(ExperimentConfig("markov", params))
        assert any(d.startswith("error:") and "pieces" in d for d in msgs) == refused

    # The exact series to lag n reads at most sum_{k=1..n} (N + 3k + 2) (floor|beta| + 2)
    # cell values, N = series_terms(|beta|): 26 for 3, 60 for g, 3 for 10000.5.
    @pytest.mark.parametrize("params, refused", [
        ({"beta": "10000.5"}, True),                      # lags 1:25: 1.1e7
        ({"lags": "1:506"}, False),                       # 1994905
        ({"lags": "1:507"}, True),                        # 2002650
        ({"lags": "1:507", "method": "mc", "samples": 100}, False),
        ({"lags": "1:600", "method": "auto", "samples": 100}, False),
        ({"lags": "1:600", "method": "auto"}, True),
        ({"beta": "g", "lags": "1:645"}, False),          # 1994985
        ({"beta": "g", "lags": "1:646"}, True),           # 2000985
        ({"beta": "10000.5", "lags": "1:10"}, True),      # 2150430
        # auto on a dyadic E is exactly zero from lag 2: the series stops at lag 1
        ({"beta": 2, "set_e": "0,0.25", "lags": "1:1000", "method": "auto"}, False),
        # ... but the float 0.3 is not 3-adic: every lag runs exact
        ({"beta": 3, "set_e": "0,0.3", "lags": "1:1000", "method": "auto"}, True),
        ({"beta": "0.5"}, False),                         # the measure refuses (exit 3)
        ({}, False),                                      # lags 1:25: 8375
        ({"beta": "10000.5", "lags": "1:9"}, False),      # 1800360
        ({"beta": "1e7", "lags": "1"}, True),             # 7 (10^7 + 2)
        ({"beta": "1e7", "lags": "0"}, False),            # lag 0 alone reads no preimages
        # the float 0.3 is 2-adic of order 54: auto runs exact to lag 53 only
        ({"beta": 2, "set_e": "0,0.3", "lags": "1:1000", "method": "auto"}, False),
    ])
    def test_exact_mixing_piece_cap(self, params, refused):
        cfg = ExperimentConfig("mixing", {"beta": 3, "set_e": "0,0.5", "set_f": "0,0.25",
                                          "seed": 1, **params})
        msgs = validate(cfg)
        assert any(d.startswith("error:") and "cell values" in d for d in msgs) == refused

    def test_superexponential_routed_to_unbounded(self):
        cfg = ExperimentConfig("dimension", {"method": "rect", "rate": "superexp",
                                             "t_points": "0.5,inf", "moduli": ["2", "3"]})
        msgs = validate(cfg)
        assert any("unbounded" in d for d in msgs)

    def test_matrix_eigenvalue_hypothesis(self):
        cfg = ExperimentConfig("count", {"system": "matrix:1,1;0,2", "seed": 1,
                                         "rate": "pow:0.5,0.25", "center": "0,0",
                                         "steps": 10})
        msgs = validate(cfg)
        assert any("eigenvalue moduli > 1" in d for d in msgs)


class TestRun:
    def test_count_outputs_and_manifest(self, tmp_path):
        cfg = ExperimentConfig("count", {
            "system": "diag:2,3", "shape": "ball", "center": [0, 0],
            "rate": "pow:0.5,0.25", "samples": 3, "steps": 2000, "seed": 5,
            "checkpoints": [1000, 2000],
        })
        manifest = run(cfg, tmp_path)
        data = (tmp_path / "count.csv").read_text().splitlines()
        assert data[0] == "sample_id,N,R_lo,R_hi,Phi,e"
        assert len(data) == 1 + 3 * 2
        import hashlib
        for name, digest in manifest.outputs.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_byte_identical_across_jobs(self, tmp_path):
        cfg = ExperimentConfig("count", {
            "system": "diag:2,3", "shape": "ball", "center": [0, 0],
            "rate": "pow:0.5,0.25", "samples": 4, "steps": 3000, "seed": 9,
        })
        run(cfg, tmp_path / "a", jobs=1)
        run(cfg, tmp_path / "b", jobs=2)
        assert (tmp_path / "a/count.csv").read_bytes() == (tmp_path / "b/count.csv").read_bytes()

    def test_fail_fast_on_invalid(self, tmp_path):
        cfg = ExperimentConfig("count", {"system": "diag:2,3", "rate": "pow:0.5,0.25",
                                         "center": [0, 0], "steps": 10})
        with pytest.raises(ConfigInvalid):
            run(cfg, tmp_path)

    def test_manifest_tolerances_are_the_module_constants(self, tmp_path):
        from shrinktarget import counting, markov, measures, orbits

        run(ExperimentConfig("measure", {"beta": "g"}), tmp_path, manifest_only=True)
        written = json.loads((tmp_path / "measure_manifest.json").read_text())["tolerances"]
        assert written == {
            "ambiguity_budget": counting.AMBIGUITY_BUDGET,
            "eigenvalue_moduli": orbits.EIGENVALUE_TOL,
            "measure_truncation_tail": measures.TRUNCATION_TOL,
            "perron_rayleigh": markov.PERRON_TOL,
            "support_merge_gap": measures.SUPPORT_MERGE_GAP,
            "support_threshold": measures.SUPPORT_TOL,
        }
        assert written == {
            "ambiguity_budget": 0.001, "eigenvalue_moduli": 1e-12,
            "measure_truncation_tail": 1e-12, "perron_rayleigh": 1e-12,
            "support_merge_gap": 1e-06, "support_threshold": 1e-09,
        }

    def test_manifest_only_skips_outputs(self, tmp_path):
        cfg = ExperimentConfig("dimension", {"method": "ball", "moduli": ["2", "3"],
                                             "lam": 0.0})
        manifest = run(cfg, tmp_path, manifest_only=True)
        assert manifest.outputs == {}
        assert not (tmp_path / "dimension.json").exists()


class TestRunsJson:
    """markov.json's rows, sliced out of one text of 0..m-1, are the bytes of
    the compact JSON of their index lists."""

    @staticmethod
    def _check(rows):
        assert cli._runs_json(rows) == cli._compact_json([list(range(lo, hi)) for lo, hi in rows])

    def test_thousand_pieces(self):
        # m = 1000: the runs cross the digit widths at 9|10, 99|100 and end at 999
        self._check(build_markov(power_map(10, 3)).rows)

    def test_edges(self):
        m = 1001
        self._check([(0, 1), (9, 10), (10, 11), (99, 100), (999, 1000), (1000, 1001),  # one index
                     (5, 1000), (0, 1000), (998, 1001), (0, m),  # ending at m - 2 and m - 1
                     (0, 0), (7, 7), (m, m)])  # empty
        self._check([])

    def test_random_runs(self):
        rng = np.random.default_rng(34)
        for m in (1, 7, 12, 150, 1234):
            ends = np.sort(rng.integers(0, m + 1, size=(m, 2)), axis=1)
            self._check([(int(lo), int(hi)) for lo, hi in ends])


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(["dimension", "--method", "ball", "--moduli", "2,3",
                     "--lam", "0", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "dimension.json").read_text())
        assert payload["value"] == 2.0

    def test_config_invalid_is_two(self, tmp_path):
        code = main(["count", "--system", "diag:2,3", "--rate", "pow:0.5,0.25",
                     "--center", "0,0", "--steps", "10", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count", "--system", "diag:2,3", "--seed", "1", "--steps", "10"],
        ["count", "--system", "diag:2,3", "--shape", "hyperboloid", "--center", "0,0",
         "--seed", "1", "--steps", "10"],
        ["count", "--system", "diag:2,3", "--shape", "rectangle", "--center", "0,0",
         "--rate", "pow:0.5,0.25", "--seed", "1", "--steps", "10"],
        ["volume", "--d", "2", "--shape", "ball"],
    ])
    def test_missing_rate_is_two(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2

    def test_integer_base_above_int8_digits(self, tmp_path):
        # base 200 has no int8 digit stream, so it counts on the interval engine
        samples = 8
        assert main(["count", "--system", "diag:200", "--rate", "pow:0.5,0.25",
                     "--steps", "1000", "--seed", "1", "--samples", str(samples),
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "count_summary.json").read_text())
        rows = [line.split(",") for line in (tmp_path / "count.csv").read_text().splitlines()]
        mean = sum(int(r[2]) + int(r[3]) for r in rows if r[1] == "1000") / (2 * samples)
        phi = summary["phi_final"]
        assert abs(mean - phi) <= 6 * math.sqrt(2 * phi / samples)

    @pytest.mark.parametrize("argv, flag", [
        (["dimension", "--method", "ball", "--moduli", "2,3"], "--lam"),
        (["dimension", "--method", "onedim", "--lam", "0.5"], "--beta-modulus"),
    ])
    def test_missing_dimension_parameter_is_two(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"needs {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("method, modulus, same", [
        ("onedim", "5/2", "2.5"), ("onedim", "-5/2", "2.5"), ("markov", "21/2", "10.5"),
        ("markov", "-21/2", "10.5")])
    def test_beta_modulus_reads_what_moduli_reads(self, tmp_path, method, modulus, same):
        # an exact rational, or a negative beta read as its modulus, as --moduli reads them
        payloads = []
        for i, value in enumerate((modulus, same)):
            assert main(["dimension", "--method", method, f"--beta-modulus={value}",
                         "--lam", "0.5", "--out", str(tmp_path / str(i))]) == 0
            payloads.append(json.loads((tmp_path / str(i) / "dimension.json").read_text()))
        assert payloads[0] == payloads[1]
        assert cli.parse_params(ExperimentConfig("dimension", {
            "method": method, "beta_modulus": modulus, "lam": 0.5}))["beta_modulus"] == \
            cli.parse_params(ExperimentConfig("dimension", {
                "method": "ball", "moduli": [modulus], "lam": 0.5}))["moduli"][0]

    def test_parry_measure_on_matrix_system_is_two(self, tmp_path, capsys):
        code = main(["count", "--system", "matrix:3,1;1,2", "--center", "0,0",
                     "--rate", "pow:0.25,0.5", "--steps", "50", "--seed", "7",
                     "--measure", "parry", "--out", str(tmp_path)])
        assert code == 2
        assert "--measure parry needs a diagonal system" in capsys.readouterr().err

    def test_even_determinant_matrix_counts_near_phi(self, tmp_path):
        # a start on a coarse dyadic grid is periodic: with an even determinant
        # it falls onto the fixed point 0 and hits at nearly every later step
        code = main(["count", "--system", "matrix:2,1;0,2", "--center", "0,0",
                     "--rate", "pow:0.25,0.5", "--steps", "2000", "--seed", "7",
                     "--samples", "2", "--out", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "count.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        for _, n, r_lo, r_hi, phi, _ in rows:
            assert n == "2000" and float(phi) == pytest.approx(2.04, abs=0.01)
            assert int(r_lo) <= int(r_hi) <= 12

    def test_matrix_count_past_precision_cap_is_three(self, tmp_path, monkeypatch, capsys):
        # 100 steps of a matrix with infinity norm 4 need 200 + 64 bits
        monkeypatch.setenv("SHRINKTARGET_PRECISION_CAP", "200")
        code = main(["count", "--system", "matrix:3,1;1,2", "--center", "0,0",
                     "--rate", "pow:0.25,0.5", "--steps", "100", "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "264 bits" in err and "precision cap of 200 bits" in err
        assert "SHRINKTARGET_PRECISION_CAP" in err

    def test_volume_delta_needs_no_rate(self, tmp_path):
        assert main(["volume", "--d", "2", "--delta", "0.1", "--out", str(tmp_path)]) == 0

    def test_precondition_is_three(self, tmp_path):
        code = main(["markov", "--beta", "5", "--out", str(tmp_path)])
        assert code == 3

    def test_checkpoint_past_steps_is_three(self, tmp_path, capsys):
        # both engines must refuse: the digit engine has no hits past N to
        # count, and the interval engine would report Phi(100) as Phi(10)
        for system in ("diag:2,3", "diag:g,2.5"):
            code = main(["count", "--system", system, "--center", "0,0",
                         "--rate", "pow:0.5,0.25", "--steps", "10",
                         "--checkpoints", "5,100", "--seed", "1", "--out", str(tmp_path)])
            assert code == 3
            assert "checkpoints must be <= N = 10" in capsys.readouterr().err

    def test_table_rate_shorter_than_n_is_three(self, tmp_path, capsys):
        # Phi reads psi at every step first, so the digit engine never starts
        code = main(["count", "--system", "diag:2,3", "--center", "0,0",
                     "--rate", "table:0.3,0.2,0.1", "--steps", "10", "--samples", "2",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "past table of 3" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (PrecisionExhausted("enclosure too wide"), 4),
        (AmbiguityBudgetExceeded("sample 0: 9 ambiguous hits"), 5),
    ])
    def test_counting_refusals_have_exit_codes(self, tmp_path, monkeypatch, capsys,
                                               exc, code):
        # a raiser stands in for the experiment: no config is known to exceed
        # the ambiguity budget through the CLI
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "monte_carlo_counting", refuse)
        assert main(["count", "--system", "diag:2,3", "--center", "0,0",
                     "--rate", "pow:0.5,0.25", "--steps", "10", "--seed", "1",
                     "--out", str(tmp_path)]) == code
        assert str(exc) in capsys.readouterr().err

    def test_count_enforces_the_ambiguity_budget(self, tmp_path, monkeypatch, capsys):
        # 2 ambiguous hits of R_hi = 1000 is past the manifest's 1e-3 budget
        from shrinktarget import counting

        def noisy(system, target, x, cps, phi, epsilon, measure, samples):
            row = counting.CheckpointRow(cps[-1], 998, 1000, float(phi[-1]), None)
            return [counting.CountingResult(i, (row,), 2, epsilon) for i, _ in samples]

        monkeypatch.setattr(counting, "_count_samples", noisy)
        assert main(["count", "--system", "diag:2,3", "--center", "0,0",
                     "--rate", "pow:0.5,0.25", "--steps", "10", "--seed", "1",
                     "--out", str(tmp_path)]) == 5
        assert "sample 0: 2 ambiguous hits" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_two(self, tmp_path, monkeypatch, capsys, jobs):
        # refused before any sample runs, not run serially without a word
        monkeypatch.setattr(cli, "monte_carlo_counting", lambda *a, **k: pytest.fail("ran"))
        assert main(["count", "--system", "diag:2,3", "--center", "0,0",
                     "--rate", "pow:0.5,0.25", "--steps", "10", "--seed", "1",
                     "--jobs", jobs, "--out", str(tmp_path)]) == 2
        assert f"--jobs {jobs}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_exact_mixing_past_the_piece_cap_is_two(self, tmp_path, capsys):
        # default lags 1:25 on beta = 10000.5 (the cap admits lag 9): refused before it starts
        assert main(["mixing", "--beta", "10000.5", "--set-e", "0,0.5", "--set-f", "0,0.25",
                     "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "to lag 25 may read" in capsys.readouterr().err
        assert not (tmp_path / "mixing.csv").exists()

    def test_exact_mixing_default_lags_on_base_three(self, tmp_path):
        # |[0, 1/2) ∩ T_3^-n [0, 1/4)| = (3^n + 1) / (8 3^n), so phi_hat(n) = 1 / (2 3^n)
        assert main(["mixing", "--beta", "3", "--set-e", "0,0.5", "--set-f", "0,0.25",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "mixing.csv").read_text().splitlines()[1:]]
        assert [int(n) for n, _, _ in rows] == list(range(1, 26))
        for n, phi, se in rows:
            assert float(phi) == pytest.approx(0.5 / 3 ** int(n), rel=0, abs=2 ** -52)
            assert float(se) == 0.0

    def test_orbit_through_a_discontinuity_is_four(self, tmp_path, capsys):
        # T(2/5) = 1 under 5/2: the enclosure of T(2/5) straddles the seam, and T
        # is discontinuous there, so step 2 has no one-piece enclosure
        assert main(["orbit", "--system", "diag:5/2", "--x", "2/5", "--steps", "4",
                     "--out", str(tmp_path)]) == 4
        assert "step 2:" in capsys.readouterr().err
        assert not (tmp_path / "orbit.csv").exists()

    @pytest.mark.parametrize("argv, pieces", [
        (["--beta", "8.0001"], 65537),           # 8 long pieces split 8192 ways each
        (["--beta", "g", "--power", "18"], 6765),
    ])
    def test_markov_build_past_the_dense_cap_is_three(self, tmp_path, capsys, argv, pieces):
        # both pass validate; the normalized partition is counted before it is built
        params = {flag[2:]: value for flag, value in zip(argv[::2], argv[1::2])}
        diagnostics = validate(ExperimentConfig("markov", params))
        assert not any(d.startswith("error:") for d in diagnostics)
        start = time.monotonic()
        assert main(["markov", *argv, "--out", str(tmp_path)]) == 3
        assert time.monotonic() - start < 5
        assert f"{pieces} pieces" in capsys.readouterr().err
        assert not (tmp_path / "markov.json").exists()

    def test_orbit_on_a_matrix_with_a_unit_eigenvalue(self, tmp_path):
        # the eigenvalue hypothesis is the counting law's, not the orbit tracer's
        for spec in ("matrix:2,1;1,1", "matrix:1,1;0,1"):
            assert main(["orbit", "--system", spec, "--x", "0.3,0.7", "--steps", "20",
                         "--out", str(tmp_path)]) == 0
            rows = (tmp_path / "orbit.csv").read_text().splitlines()
            assert len(rows) == 1 + 21 * 2
        assert any("eigenvalue moduli > 1" in d for d in validate(ExperimentConfig(
            "count", {"system": "matrix:1,1;0,1", "seed": 1, "rate": "pow:0.5,0.25",
                      "steps": 10})))

    @pytest.mark.parametrize("spec", ["matrix:", "matrix:;"])
    @pytest.mark.parametrize("argv", [
        ["count", "--rate", "pow:0.5,0.25", "--steps", "10", "--seed", "1"],
        ["orbit", "--x", "0.3", "--steps", "10"],
    ])
    def test_empty_matrix_is_two(self, tmp_path, capsys, spec, argv):
        assert main([*argv, "--system", spec, "--out", str(tmp_path)]) == 2
        assert "empty matrix" in capsys.readouterr().err

    def test_uncertified_eigenvalues_are_a_diagnostic(self, tmp_path, monkeypatch, capsys):
        def uncertified(system):
            raise ArithmeticError("root isolation did not reach the requested accuracy")

        monkeypatch.setattr(cli, "eigenvalue_moduli", uncertified)
        cfg = ExperimentConfig("count", {"system": "matrix:2,1;1,1", "center": [0, 0],
                                         "rate": "pow:0.25,0.5", "steps": 10, "seed": 1})
        assert any("eigenvalue moduli not certified" in d for d in validate(cfg))
        assert main(["count", "--system", "matrix:2,1;1,1", "--center", "0,0",
                     "--rate", "pow:0.25,0.5", "--steps", "10", "--seed", "1",
                     "--out", str(tmp_path)]) == 2
        assert "eigenvalue moduli not certified" in capsys.readouterr().err

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "command": "measure",
            "params": {"beta": "-g", "a": 0.0, "b": 0.5},
        }))
        code = main(["measure", "--beta", "2", "--config", str(cfg_path),
                     "--out", str(tmp_path)])
        assert code == 0
        # the flag override wins over the config file parameter
        payload = json.loads((tmp_path / "measure.json").read_text())
        assert payload["beta"] == 2.0

    COUNT_FILE = {"command": "count", "params": {
        "system": "diag:2,3", "rate": "pow:0.05,0.2", "steps": 1000, "seed": 1,
        "samples": 5, "shape": "hyperboloid", "band_tol": 0.5, "center": [0, 0]}}

    @pytest.mark.parametrize("argv, params, data", [
        (["orbit", "--system", "diag:2", "--x", "0.1", "--steps", "3"],
         '{"system": "diag:2", "x": [0.1], "steps": 3}', "orbit.csv"),
        (["markov", "--beta", "2.7", "--power", "3"], '{"beta": 2.7, "power": 3}',
         "markov.json"),
    ], ids=["orbit", "markov"])
    def test_config_file_decimals_read_as_flags(self, tmp_path, argv, params, data):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"command": "{argv[0]}", "params": {params}}}')
        assert main(argv + ["--out", str(tmp_path / "flags")]) == 0
        assert main([argv[0], "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
        flags, file = ((tmp_path / d / data).read_bytes() for d in ("flags", "file"))
        assert flags == file

    def test_config_file_alone(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.COUNT_FILE))
        assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "count_summary.json").read_text())
        assert summary["samples"] == 5 and summary["band_tol"] == 0.5
        target = hyperboloid((0, 0), RateFunction.power(0.05, 0.2))
        assert summary["phi_final"] == phi_values(target, [1000])[0]

    def test_given_flag_overrides_the_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.COUNT_FILE))
        assert main(["count", "--config", str(cfg_path), "--samples", "2",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "count_summary.json").read_text())
        assert summary["samples"] == 2 and summary["band_tol"] == 0.5

    def test_center_defaults_to_the_origin_of_the_system(self, tmp_path):
        assert main(["count", "--system", "diag:2,3", "--rate", "pow:0.5,0.25",
                     "--steps", "1000", "--seed", "1", "--samples", "3",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "count_summary.json").read_text())
        want = phi_values(ball((0, 0), RateFunction.power(0.5, 0.25)), [1000])[0]
        assert summary["phi_final"] == want == pytest.approx(61.80, abs=0.01)

    @pytest.mark.parametrize("argv, flag", [
        (["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.5", "--seed", "1"],
         "--set-f"),
        (["orbit", "--system", "diag:2", "--x", "0.1", "--steps", "3", "--stride", "0"],
         "--stride"),
        (["mixing", "--beta", "2", "--set-e", "0,0.5", "--set-f", "0,0.25", "--seed", "1",
          "--lags", "abc"], "--lags"),
        (["count", "--system", "diag:2,3", "--rate", "pow:0.5,0.25", "--steps", "10",
          "--seed", "1", "--checkpoints", "a"], "--checkpoints"),
        (["count", "--system", "diag:2,3", "--rate", "pow:0.5", "--steps", "10",
          "--seed", "1"], "--rate"),
        (["count", "--system", "diag:2,3", "--rate", "pow:0.5,0.25", "--steps", "10",
          "--seed", "1", "--shape", "cube"], "--shape"),
        (["dimension", "--method", "foo", "--moduli", "2,3", "--lam", "0.5"], "--method"),
        (["count", "--system", "diag:2,3", "--rate", "pow:0.5,0.25", "--steps", "10",
          "--seed", "1", "--center", "0.1"], "--center"),
        (["markov", "--beta", "10", "--power", "0"], "--power"),
        (["markov", "--beta", "abc"], "--beta"),
        (["mixing", "--beta", "1e400", "--set-e", "0,0.5", "--set-f", "0,0.25", "--seed", "1"],
         "--beta"),
        (["measure", "--beta", "1e400"], "--beta"),
        (["support", "--beta", "1e400"], "--beta"),
        (["markov", "--beta", "1e400"], "--beta"),
        (["markov", "--beta", "1e200", "--power", "2"], "--power"),
        (["dimension", "--method", "onedim", "--beta-modulus", "nan", "--lam", "0.5"],
         "--beta-modulus"),
        (["dimension", "--method", "onedim", "--beta-modulus", "1e400", "--lam", "0.5"],
         "--beta-modulus"),
        (["dimension", "--method", "rect", "--moduli", "2,3", "--t-points", "nan,inf"],
         "--t-points"),
        (["volume", "--d", "2", "--delta", "nan"], "--delta"),
        (["count", "--system", "diag:2", "--rate", "pow:nan,0.25", "--steps", "100",
          "--seed", "1"], "--rate"),
        (["count", "--system", "diag:2", "--rate", "pow:0.5,0.25", "--steps", "100",
          "--seed", "1", "--epsilon", "inf"], "--epsilon"),
        (["mixing", "--beta", "g", "--set-e", "0,nan", "--set-f", "0,0.25", "--seed", "1"],
         "--set-e"),
        (["measure", "--beta", "2", "--b", "inf"], "--b"),
        # a negative lag has no preimage: refused, not read as lag 0
        (["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.2,0.7", "--seed", "1",
          "--lags=-3:1"], "--lags"),
        (["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.2,0.7", "--seed", "1",
          "--lags=-2"], "--lags"),
        # a negative delta has no target: refused for every shape
        (["volume", "--shape", "ball", "--d", "2", "--delta", "-0.1"], "--delta"),
        (["volume", "--shape", "rectangle", "--d", "3", "--delta", "-0.1"], "--delta"),
        (["volume", "--shape", "hyperboloid", "--d", "2", "--delta", "-0.1"], "--delta"),
        # the mixing sets are intervals inside [0, 1]: a wrap past 1 or a reversed pair is refused
        (["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.9,1.05", "--seed", "1"],
         "--set-f"),
        (["mixing", "--beta", "g", "--set-e", "0.5,0.2", "--set-f", "0,0.25", "--seed", "1"],
         "--set-e"),
    ])
    def test_malformed_value_is_two(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err

    def test_negative_lag_in_a_config_file_is_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "mixing", "params": {
            "beta": "g", "set_e": [0, 0.5], "set_f": [0.2, 0.7], "seed": 1,
            "lags": [2, -1, 3]}}))
        assert main(["mixing", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "--lags" in capsys.readouterr().err
        assert not (tmp_path / "mixing.csv").exists()

    def test_monte_carlo_mixing_without_samples_is_two(self, tmp_path, capsys):
        code = main(["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.2,0.7",
                     "--lags", "0:3", "--method", "mc", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "mixing.csv").exists()

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        code = main(["measure", "--beta", "2", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config invalid: cannot read config file" in capsys.readouterr().err

    def test_config_file_not_json_is_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{command: measure")
        code = main(["measure", "--beta", "2", "--config", str(cfg_path),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config invalid: cannot read config file" in capsys.readouterr().err

    def test_config_file_params_not_an_object_is_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "measure", "params": [1, 2]}))
        code = main(["measure", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert "'params' must be an object" in capsys.readouterr().err

    def test_mixing_single_lag(self, tmp_path):
        code = main(["mixing", "--beta", "2", "--set-e", "0,0.5", "--set-f", "0,0.25",
                     "--lags", "4", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "mixing.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["4"]

    def test_mixing_mc_keeps_the_exact_lag_zero_row(self, tmp_path):
        rows = {}
        for method in ("mc", "exact"):
            code = main(["mixing", "--beta", "g", "--set-e", "0,0.5", "--set-f", "0.2,0.7",
                         "--method", method, "--lags", "0:3", "--samples", "2000",
                         "--seed", "1", "--out", str(tmp_path / method)])
            assert code == 0
            rows[method] = (tmp_path / method / "mixing.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in rows["mc"]] == ["0", "1", "2", "3"]
        assert rows["mc"][0] == rows["exact"][0]

    def test_mixing_outputs(self, tmp_path):
        code = main(["mixing", "--beta", "2", "--set-e", "0,0.5", "--set-f", "0,0.25",
                     "--lags", "1:6", "--seed", "3", "--method", "auto",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "mixing.csv").read_text().splitlines()
        assert lines[0] == "n,phi_hat,stderr"
        assert all(line.split(",")[1] == "0.0" for line in lines[1:])

    def test_volume_closed_form(self, tmp_path):
        code = main(["volume", "--shape", "hyperboloid", "--d", "2",
                     "--delta", "0.125", "--out", str(tmp_path)])
        assert code == 0
        line = (tmp_path / "volume.csv").read_text().splitlines()[1]
        assert float(line.split(",")[1]) == pytest.approx(0.5 * (1 + math.log(2)))

    def test_support_json(self, tmp_path):
        code = main(["support", "--beta=-1.3", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "support.json").read_text())
        assert len(payload["intervals"]) >= 2

    def test_negative_support_tolerance_is_two(self, tmp_path, capsys):
        code = main(["support", "--beta=-1.3", "--tol=-1", "--out", str(tmp_path)])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "support.json").exists()

    def test_orbit_trace_keeps_precision(self, tmp_path):
        code = main(["orbit", "--system", "diag:2,3", "--x", "0.3,0.7",
                     "--steps", "200", "--stride", "50", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()[1:]
        last = [l for l in lines if l.startswith("200,")]
        assert len(last) == 2
        for row in last:
            _, _, lo, hi = row.split(",")
            assert 0 <= float(lo) <= float(hi) < 1
            assert float(hi) - float(lo) < 1e-9

    def test_orbit_start_is_exact(self, tmp_path):
        system = parse_system("diag:2")
        for text, n, value in (("1/3", 1, Fraction(2, 3)), ("0.1", 0, Fraction(1, 10))):
            assert main(["orbit", "--system", "diag:2", "--x", text, "--steps", "5",
                         "--out", str(tmp_path)]) == 0
            row = (tmp_path / "orbit.csv").read_text().splitlines()[1 + n]
            assert float(row.split(",")[2]) == pytest.approx(float(value), abs=1e-15)
            enclosures = dict(orbit_enclosures(system, cli.parse_point(text), 5))
            assert contains_value(enclosures[n][0], value)
        # the double nearest 0.1 lies above 1/10, outside the start's enclosure
        assert not contains_value(enclosures[0][0], 0.1)

    @pytest.mark.parametrize("system", ["diag:2", "diag:3"])
    @pytest.mark.parametrize("text", ["1/3", "1/7"])
    def test_orbit_rows_bound_the_exact_orbit(self, tmp_path, system, text):
        # lo is rounded down and hi up: 2/3 has no double, and rounding hi
        # to nearest would put it below the orbit.  A row with hi < lo is an
        # arc across 0 (3 * 1/3 = 0 is enclosed from just below 1)
        assert main(["orbit", "--system", system, "--x", text, "--steps", "12",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "orbit.csv").read_text().splitlines()[1:]
        base, value = int(system[-1]), Fraction(text)
        assert len(rows) == 13
        for n, row in enumerate(rows):
            lo, hi = (Fraction(float(v)) for v in row.split(",")[2:])
            assert 0 <= lo < 1 and 0 <= hi <= 1
            assert (value * base ** n - lo) % 1 <= (hi - lo) % 1, n

    @pytest.mark.parametrize("text", ["1/0", "0.1.2"])
    def test_bad_point_is_two(self, tmp_path, capsys, text):
        assert main(["orbit", "--system", "diag:2", "--x", text, "--steps", "5",
                     "--out", str(tmp_path)]) == 2
        assert f"bad point {text!r}" in capsys.readouterr().err

    def test_hyperboloid_count_past_psi_underflow(self, tmp_path):
        # psi(n) = e^-n is 0.0 past n = 745; those targets are empty
        code = main(["count", "--system", "diag:2,3", "--shape", "hyperboloid",
                     "--center", "0,0", "--rate", "exp:1", "--steps", "800",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        phi = float((tmp_path / "count.csv").read_text().splitlines()[1].split(",")[4])
        terms = [hyperboloid_volume(2, math.exp(-n)) for n in range(1, 801)]
        assert phi == pytest.approx(math.fsum(v for v in terms if v > 0), rel=1e-12)

    def test_golden_count_at_a_hundred_thousand_steps(self, tmp_path):
        code = main(["count", "--system", "diag:g,g", "--center", "0,0",
                     "--rate", "pow:0.5,0.25", "--steps", "100000", "--samples", "1",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        _, n, r_lo, r_hi, _, _ = (tmp_path / "count.csv").read_text().splitlines()[1].split(",")
        assert n == "100000" and r_lo == r_hi

    def test_hyperboloid_count_from_argv(self, tmp_path):
        code = main(["count", "--system", "diag:2,3", "--shape", "hyperboloid",
                     "--center", "0,0", "--rate", "pow:0.05,0.2", "--steps", "200",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "count.csv").read_text().splitlines()) == 2

    def test_orbit_trace_encloses_the_orbit(self, tmp_path):
        code = main(["orbit", "--system", "diag:2,g", "--x", "0.3,0.7",
                     "--steps", "120", "--stride", "40", "--out", str(tmp_path)])
        assert code == 0
        rows = [l.split(",") for l in (tmp_path / "orbit.csv").read_text().splitlines()[1:]]
        assert [(int(n), int(i)) for n, i, _, _ in rows] == [
            (n, i) for n in (0, 40, 80, 120) for i in (0, 1)]
        # oracle: the same orbit in 600-bit mpmath arithmetic
        with mpmath.workprec(600):
            pt = [mpmath.mpf(3) / 10, mpmath.mpf(7) / 10]  # decimals are read exactly
            betas = [mpmath.mpf(2), (1 + mpmath.sqrt(5)) / 2]
            truth = {0: [float(v) for v in pt]}
            for n in range(1, 121):
                pt = [b * v - mpmath.floor(b * v) for b, v in zip(betas, pt)]
                truth[n] = [float(v) for v in pt]
        for n, i, lo, hi in rows:
            assert float(lo) - 1e-15 <= truth[int(n)][int(i)] <= float(hi) + 1e-15

    def test_precision_cap_env_override(self, tmp_path, monkeypatch):
        from shrinktarget.orbits import DiagonalTorusSystem, required_precision
        from shrinktarget.errors import BudgetTooLarge
        monkeypatch.setenv("SHRINKTARGET_PRECISION_CAP", "100")
        with pytest.raises(BudgetTooLarge):
            required_precision(DiagonalTorusSystem((2,)), 100)
        monkeypatch.setenv("SHRINKTARGET_PRECISION_CAP", str(1 << 24))
        assert required_precision(DiagonalTorusSystem((2, 3)), 10 ** 6) == 1585027

    def test_manifest_records_wall_time(self, tmp_path):
        cfg = ExperimentConfig("dimension", {"method": "onedim",
                                             "beta_modulus": 2.0, "lam": 0.5})
        manifest = run(cfg, tmp_path)
        assert manifest.wall_time_seconds >= 0.0
        payload = json.loads((tmp_path / "dimension_manifest.json").read_text())
        assert "wall_time_seconds" in payload and "tolerances" in payload


class TestCountSweep:
    """Every shape under both measures, through ``main``."""

    SHAPES = {
        "ball": ["--rate", "pow:0.5,0.25"],
        "rectangle": ["--rates", "pow:0.5,0.25", "pow:0.3,0.1"],
        "hyperboloid": ["--rate", "pow:0.05,0.2"],
    }

    @pytest.mark.parametrize("system", ["diag:2,3", "diag:g,g"])
    @pytest.mark.parametrize("measure", ["lebesgue", "parry"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_count_succeeds(self, tmp_path, shape, measure, system):
        code = main(["count", "--system", system, "--shape", shape, "--center", "0.3,0.8",
                     *self.SHAPES[shape], "--measure", measure, "--steps", "50",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        _, n, _, _, phi, _ = (tmp_path / "count.csv").read_text().splitlines()[1].split(",")
        assert n == "50" and float(phi) > 0

    def test_lebesgue_phi_is_the_parry_phi(self, tmp_path):
        # Phi sums the invariant (Parry) measure from Lebesgue starts too
        code = main(["count", "--system", "diag:g,g", "--center", "0.3,0.3",
                     "--rate", "pow:0.5,0.25", "--checkpoints", "100,1000", "--steps", "1000",
                     "--samples", "2", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "count.csv").read_text().splitlines()[1:]
        target = ball((Fraction(3, 10),) * 2, RateFunction.power(0.5, 0.25))
        want = phi_values(target, [100, 1000], measure=ProductMeasure(["g", "g"]))
        assert [float(row.split(",")[4]) for row in rows] == list(want) * 2

    def test_lebesgue_starts_inside_minus_g_are_three(self, tmp_path, capsys):
        code = main(["count", "--system", "diag:-1.3", "--center", "0.3",
                     "--rate", "pow:0.5,0.25", "--steps", "50", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "(-g, -1)" in capsys.readouterr().err
        assert main(["count", "--system", "diag:-1.3", "--center", "0.3",
                     "--rate", "pow:0.5,0.25", "--measure", "parry", "--steps", "50",
                     "--seed", "1", "--out", str(tmp_path)]) == 0

    def test_hyperboloid_past_two_dimensions_from_lebesgue_is_three(self, tmp_path, capsys):
        # Phi needs the Parry nu-volumes whatever the start law
        code = main(["count", "--system", "diag:e,g,g", "--shape", "hyperboloid",
                     "--center", "0,0,0", "--rate", "pow:0.05,0.2", "--steps", "50",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "exact for d <= 2 only" in capsys.readouterr().err

    def test_hyperboloid_under_parry_past_two_dimensions_is_three(self, tmp_path, capsys):
        code = main(["count", "--system", "diag:g,g,g", "--shape", "hyperboloid",
                     "--center", "0,0,0", "--rate", "pow:0.05,0.2", "--measure", "parry",
                     "--steps", "50", "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "exact for d <= 2 only" in capsys.readouterr().err
