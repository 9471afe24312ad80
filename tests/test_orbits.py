"""Orbit engine tests: interval soundness, exact paths, engine agreement."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import contains_value, interval_from_bounds, iterate
from shrinktarget.counting import invariant_measure
from shrinktarget.errors import BudgetTooLarge, PrecisionExhausted, SingularMatrix
from shrinktarget.orbits import (
    GUARD_BITS,
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    ScaledScalar,
    UnitRealInterval,
    _outward,
    _scalar_bounds,
    _schedule_bits,
    as_fraction,
    beta_step,
    char_poly_int,
    eigenvalue_moduli,
    orbit_enclosures,
    required_precision,
    mp_value,
    scalar,
    snapped_orbit,
)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestUnitRealInterval:
    def test_guard_width_enforced(self):
        with pytest.raises(ValueError):
            interval_from_bounds(0.1, 0.3, 128)

    def test_from_value_exact_dyadic(self):
        iv = UnitRealInterval.from_value(0.25, 128)
        assert iv.lo == Fraction(1, 4) and iv.hi == Fraction(1, 4)
        assert not iv.wraps

    def test_wrap_representation(self):
        iv = interval_from_bounds(
            Fraction(1) - Fraction(1, 2 ** 70), Fraction(1, 2 ** 70), 128)
        assert iv.wraps
        assert iv.lo > iv.hi
        assert contains_value(iv, 0)

    def test_rescale_outward(self):
        iv = UnitRealInterval.from_value(Fraction(1, 3), 200)
        small = iv.rescaled(100)
        assert small.lo <= iv.lo and small.hi >= iv.hi


class TestBetaStep:
    def test_doubling_exact(self):
        iv = UnitRealInterval.from_value(0.25, 128)
        out = beta_step(2, iv)
        assert out.lo == out.hi == Fraction(1, 2)

    def test_zero_fixed_under_negative_golden(self):
        iv = UnitRealInterval.from_value(0, 128)
        out = beta_step("-g", iv)
        assert out.lo_float == 0.0 and out.width_float < 2 ** -90

    def test_rational_oracle_three_times_point_seven(self):
        # oracle: 3 * 7/10 mod 1 = 1/10 in exact rational arithmetic
        expected = (3 * Fraction(7, 10)) % 1
        out = beta_step(3, UnitRealInterval.from_value(Fraction(7, 10), 128))
        assert contains_value(out, expected)
        assert out.width < Fraction(1, 2 ** 100)

    def test_straddle_returns_flagged_wrap(self):
        iv = interval_from_bounds(
            Fraction(1, 2) - Fraction(1, 2 ** 66), Fraction(1, 2) + Fraction(1, 2 ** 66), 128)
        out = beta_step(2, iv)
        assert out.wraps
        # the image is [1 - 2^-65, 1 + 2^-65] mod 1: both sides of the seam, and no more
        for inside in (0, Fraction(1, 2 ** 65), 1 - Fraction(1, 2 ** 65)):
            assert contains_value(out, inside)
        for outside in (Fraction(1, 2 ** 60), 1 - Fraction(1, 2 ** 60), Fraction(1, 2)):
            assert not contains_value(out, outside)

    @pytest.mark.parametrize("beta", ["g", "-g", "e", "5/2", -1.8, "-5/2"])
    def test_wrapped_enclosure_under_a_non_integer_beta_refuses(self, beta):
        # [1 - 2^-68, 1 + 2^-67) mod 1 maps to pieces near frac(beta) and near 0
        iv = UnitRealInterval((1 << 128) - (1 << 60), 1 << 61, 128)
        assert iv.wraps
        with pytest.raises(PrecisionExhausted, match="0/1 seam"):
            beta_step(beta, iv)

    @pytest.mark.parametrize("beta", [2, 3, -2, -3, 200])
    def test_wrapped_enclosure_under_an_integer_beta_steps(self, beta):
        # x -> bx mod 1 is continuous on the circle: the image is one arc about 0
        iv = UnitRealInterval((1 << 128) - (1 << 60), 1 << 61, 128)
        out = beta_step(beta, iv)
        side = Fraction(abs(beta), 2 ** 68)
        assert out.wraps
        for inside in (0, side, 1 - side):
            assert contains_value(out, inside)
        assert out.width <= 3 * side + Fraction(1, 2 ** 120)

    def test_width_growth_bounded(self):
        iv = interval_from_bounds(0, Fraction(1, 2 ** 80), 128)
        out = beta_step(2.5, iv)
        assert out.width <= Fraction(5, 2) * iv.width + Fraction(1, 2 ** 120)

    def test_precision_exhausted_on_wide_result(self):
        iv = interval_from_bounds(0, Fraction(1, 2 ** 64), 70)
        with pytest.raises(PrecisionExhausted):
            for _ in range(80):
                iv = beta_step(2, iv)

    def test_rejects_non_expanding(self):
        iv = UnitRealInterval.from_value(0.3, 128)
        with pytest.raises(ValueError):
            beta_step(0.5, iv)


class TestSnappedOrbit:
    def test_orbit_of_one_is_the_default_start(self):
        points, digits, _ = snapped_orbit("g", 10)
        assert [float(p) for p in points] == pytest.approx([1.0, 1 / ((1 + 5 ** 0.5) / 2), 0.0])
        assert digits == [1, 1] and points[-1] == 0
        assert snapped_orbit("e", 20, 1) == snapped_orbit("e", 20)

    @pytest.mark.parametrize("beta, start", [("5/2", "1/7"), (3, 0.1), ("-7/3", "2/9")])
    def test_rational_orbit_matches_fractions(self, beta, start):
        # oracle: the exact orbit in Fractions
        points, digits, _ = snapped_orbit(beta, 30, start)
        b, x = as_fraction(beta), as_fraction(start)
        for p, d in zip(points, digits):
            assert float(p) == float(x)
            assert d == math.floor(b * x)
            x = b * x - math.floor(b * x)

    def test_landing_on_a_discontinuity_snaps_and_ends(self):
        # 5/2 * 2/5 = 1: T(2/5) is 0, and the orbit stops there
        points, digits, _ = snapped_orbit("5/2", 10, "2/5")
        assert points[1] == 0 and len(points) == 2 and digits == [1]


class TestRequiredPrecision:
    def test_doubling_100_steps(self):
        assert required_precision(DiagonalTorusSystem((2,)), 100) == 164

    def test_base_three_1000_steps(self):
        # ceil(1000*log2(3)) + 64 = 1585 + 64
        assert required_precision(DiagonalTorusSystem((3,)), 1000) == 1649

    def test_budget_cap(self):
        with pytest.raises(BudgetTooLarge):
            required_precision(DiagonalTorusSystem((2, 3)), 10 ** 6)
        # the integer digit engine is the documented fallback at that scale

    def test_explicit_cap_override(self, monkeypatch):
        monkeypatch.setenv("SHRINKTARGET_PRECISION_CAP", str(1 << 22))
        assert required_precision(DiagonalTorusSystem((2, 3)), 10 ** 6) > 0


class TestScalar:
    @pytest.mark.parametrize("x, want", [
        ("g", "g"), ("G", "g"), ("golden", "g"), ("+g", "g"), ("-Golden", "-g"),
        ("e", "e"), ("-E", "-e"), (" -g ", "-g"),
        ("2.7", Fraction(27, 10)), (2.7, Fraction(2.7)), ("5/2", Fraction(5, 2)),
        (3, Fraction(3)), ("1e20", Fraction(10 ** 20)),
    ])
    def test_canonical_forms(self, x, want):
        got = scalar(x)
        assert got == want and type(got) is type(want)
        assert scalar(got) == got

    @pytest.mark.parametrize("x", ["+-g", "--e", "1/0", "nan", "inf", float("nan"),
                                   float("inf"), "", "gold"])
    def test_refusals(self, x):
        with pytest.raises(ValueError):
            scalar(x)

    @pytest.mark.parametrize("token", ["g", "-g", "e", "-e"])
    @pytest.mark.parametrize("bits", [53, 96, 200])
    def test_token_bounds_enclose_the_value(self, token, bits):
        lo, hi = _scalar_bounds(token, bits)
        assert lo <= as_fraction(mp_value(token, bits + 64)) * 2 ** bits <= hi
        assert hi - lo == 3

    def test_integer_strings_are_an_integer_system(self):
        for betas in (("2", "3"), (Fraction(2), "3"), (2.0, 3)):
            system = DiagonalTorusSystem(betas)
            assert system.is_integer and invariant_measure(system) is None
        assert iterate(DiagonalTorusSystem(("2",)), (Fraction(1, 3),), 5) == (Fraction(2, 3),)


class TestSymbolicValue:
    def test_signed_tokens(self):
        assert mp_value("+g", 80) == mp_value("golden", 80)
        assert mp_value("-e", 80) + mp_value("E", 80) == 0

    def test_float_rounding_matches_math_module(self):
        assert float(mp_value("g", 53)) == GOLDEN
        assert float(mp_value("e", 53)) == math.e


class TestOrbitEnclosures:
    def test_steps_zero_to_n_end_at_iterate(self):
        s = DiagonalTorusSystem(("g", 2.5))
        x = (Fraction(1, 7), 0.3)
        steps = list(orbit_enclosures(s, x, 40))
        assert [n for n, _ in steps] == list(range(41))
        assert all(contains_value(iv, c) for iv, c in zip(steps[0][1], x))
        last = iterate(s, x, 40)
        assert [(iv.lo, iv.hi) for iv in steps[-1][1]] == [(iv.lo, iv.hi) for iv in last]

    def test_schedule_shrinks_to_guard(self):
        s = DiagonalTorusSystem((2, 3))
        bits = [[iv.precision_bits for iv in ivs]
                for _, ivs in orbit_enclosures(s, (0.3, 0.7), 50)]
        assert bits[0] == [_schedule_bits(2, 50), _schedule_bits(3, 50)]
        assert bits[-1] == [64, 64]
        assert all(a >= b for row, nxt in zip(bits, bits[1:]) for a, b in zip(row, nxt))

    def test_matrix_enclosures_hold_the_exact_orbit(self):
        # oracle: the exact rational orbit, one matrix application at a time;
        # the precision follows the schedule of the infinity norm 3 down to guard
        m = IntegerMatrixSystem(((2, 1), (1, 1)))
        pt = [Fraction(0.3), Fraction(0.7)]
        for n, ivs in orbit_enclosures(m, (0.3, 0.7), 30):
            assert all(contains_value(iv, v) for iv, v in zip(ivs, pt))
            assert {iv.precision_bits for iv in ivs} == {_schedule_bits(3, 30 - n)}
            pt = [(2 * pt[0] + pt[1]) % 1, (pt[0] + pt[1]) % 1]
        assert _schedule_bits(3, 0) == GUARD_BITS == 64

    @pytest.mark.parametrize("rows", [((3, 1), (1, 2)), ((2, 1), (1, -2))])
    def test_shrinking_matrix_schedule_is_sound(self, rows):
        # oracle: the exact rational orbit at every step up to n = 300
        rng = np.random.default_rng(5)
        n = 300
        m = IntegerMatrixSystem(rows)
        for _ in range(3):
            pt = [Fraction(int(rng.integers(0, q)), q)
                  for q in (int(v) for v in rng.integers(3, 10 ** 6, size=2))]
            for step, ivs in orbit_enclosures(m, pt, n):
                assert all(contains_value(iv, v) for iv, v in zip(ivs, pt)), step
                pt = [sum(a * c for a, c in zip(row, pt)) % 1 for row in rows]
            assert {iv.precision_bits for iv in ivs} == {GUARD_BITS}


def test_outward_rounds_lo_down_and_hi_up():
    # oracle: floor and ceil of the exact quotient, which a left shift keeps exact
    rng = np.random.default_rng(3)
    for shift in range(-70, 71):
        for _ in range(20):
            lo, hi = (int(a) * int(b) for a, b in rng.integers(-2 ** 62, 2 ** 62, size=(2, 2)))
            scale = Fraction(2) ** shift
            assert _outward(lo, hi, shift) == (math.floor(lo / scale), math.ceil(hi / scale))


class TestIterate:
    def test_diag_integer_exact(self):
        s = DiagonalTorusSystem((2, 3))
        assert iterate(s, (Fraction(1, 2), Fraction(1, 3)), 1) == (0, 0)

    def test_matrix_exact_oracle(self):
        # oracle: two explicit exact matrix applications mod 1
        m = ((2, 1), (1, 1))
        pt = [Fraction(1, 5), Fraction(2, 5)]
        for _ in range(2):
            pt = [(m[i][0] * pt[0] + m[i][1] * pt[1]) % 1 for i in range(2)]
        system = IntegerMatrixSystem(m)
        assert iterate(system, (Fraction(1, 5), Fraction(2, 5)), 2) == tuple(pt)

    def test_pi_minus_three_hundred_doublings(self):
        bits = required_precision(DiagonalTorusSystem((2,)), 100)
        with mpmath.workprec(400):
            x0 = mpmath.mpf(mpmath.pi - 3)
        iv = UnitRealInterval.from_value(x0, bits)
        out = iterate(DiagonalTorusSystem((2,)), (iv,), 100, precision_bits=bits)
        assert out[0].width <= Fraction(1, 2 ** 64)

    def test_interval_soundness_double_budget(self):
        # a double-precision-budget recomputation lands inside the first enclosure
        rng = np.random.default_rng(11)
        for beta in (2.5, "g", 1.8):
            n = 60
            x = Fraction(int(rng.integers(1, 2 ** 60)), 2 ** 60)
            base_bits = _schedule_bits(float(DiagonalTorusSystem.modulus_of(beta)), n)
            coarse = iterate(DiagonalTorusSystem((beta,)), (x,), n, precision_bits=base_bits)[0]
            fine = iterate(DiagonalTorusSystem((beta,)), (x,), n, precision_bits=2 * base_bits)[0]
            off_lo = (fine.lo - coarse.lo) % 1
            assert off_lo <= coarse.width
            off_hi = (fine.hi - coarse.lo) % 1
            assert off_hi <= coarse.width

    def test_matrix_interval_engine(self):
        m = IntegerMatrixSystem(((2, 1), (1, 1)))
        ivs = tuple(UnitRealInterval.from_value(v, 256) for v in (0.3, 0.7))
        out = iterate(m, ivs, 5)
        exact = iterate(m, (Fraction(0.3), Fraction(0.7)), 5)
        for iv, val in zip(out, exact):
            assert contains_value(iv, val)

    def test_precision_exhausted_carries_step_index(self):
        s = DiagonalTorusSystem((2,))
        x = UnitRealInterval.from_value(Fraction(1, 3), 80)
        with pytest.raises(PrecisionExhausted) as exc:
            iterate(s, (x,), 200, precision_bits=80)
        assert exc.value.step is not None
        assert 60 <= exc.value.step <= 80  # 80 - 8 tolerance bits from a 2^-80 start

    def test_degenerate_constructor_permits_small_entries(self):
        s = DiagonalTorusSystem.with_degenerate((0.5, 2))
        assert s.degenerate
        with pytest.raises(ValueError):
            DiagonalTorusSystem((0.5, 2))


def _digit_engine_values(digits: np.ndarray, base: int, n_max: int, window: int):
    weights = np.array([float(base) ** -(k + 1) for k in range(window)])
    vals = np.zeros(n_max + 1)
    d = digits.astype(np.float64)
    for k in range(window):
        vals += weights[k] * d[k:k + n_max + 1]
    return vals


@pytest.mark.parametrize("base", [2, 3])
def test_digit_and_interval_engines_agree_deep(base):
    """Both engines track the same orbit to the interval's width, n <= 10^4."""
    n_max = 10 ** 4
    window = math.ceil(50 / math.log2(base))
    n_seeds = 500  # 500 seeds per base = 1000 random seeds total
    bits = _schedule_bits(base, n_max)
    scaled = ScaledScalar.build(base, bits + 8)
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        digits = rng.integers(0, base, size=n_max + window + 2, dtype=np.int8)
        num = 0
        for d in digits:
            num = num * base + int(d)
        x0 = Fraction(num, base ** len(digits))
        iv = UnitRealInterval.from_value(x0, bits)
        mids = np.empty(n_max + 1)
        widths = np.empty(n_max + 1)
        mids[0] = iv.lo_float
        widths[0] = iv.width_float
        for n in range(1, n_max + 1):
            iv = beta_step(scaled, iv, out_bits=min(iv.precision_bits,
                                                    _schedule_bits(base, n_max - n)))
            mids[n] = iv.lo_float
            widths[n] = iv.width_float
        vals = _digit_engine_values(digits, base, n_max, window)
        dev = np.abs(vals - mids)
        dev = np.minimum(dev, 1.0 - dev)
        tol = widths + float(base) ** -window + 1e-12
        assert np.all(dev <= tol), f"seed {seed}: engines disagree"


def _bareiss_det(rows) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss 1968)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def test_char_poly_constant_term_is_the_determinant():
    # oracle: Bareiss elimination, on random matrices and on singular ones
    # with a repeated row or a zero column
    rng = np.random.default_rng(17)
    cases = []
    for d in range(1, 6):
        for _ in range(30):
            cases.append(rng.integers(-4, 5, size=(d, d)).tolist())
        repeated = rng.integers(-4, 5, size=(d, d)).tolist()
        repeated[-1] = repeated[0]
        zero_col = rng.integers(-4, 5, size=(d, d)).tolist()
        for row in zero_col:
            row[d // 2] = 0
        cases += [zero_col] if d == 1 else [repeated, zero_col]
    singular = 0
    for rows in cases:
        det = _bareiss_det(rows)
        assert (-1) ** len(rows) * char_poly_int(rows)[-1] == det, rows
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrix):
                IntegerMatrixSystem(rows)
            with pytest.raises(SingularMatrix):
                eigenvalue_moduli(rows)
        else:
            IntegerMatrixSystem(rows)
    assert singular >= 9


class TestEigenvalueModuli:
    def test_diagonal(self):
        assert eigenvalue_moduli(((2, 0), (0, 3))) == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_fibonacci_matrix(self):
        mods = eigenvalue_moduli(((0, 1), (1, 1)))
        assert mods == pytest.approx([1 / GOLDEN, GOLDEN], abs=1e-12)

    def test_triangular(self):
        assert eigenvalue_moduli(((2, 1), (0, 3))) == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            eigenvalue_moduli(((1, 1), (1, 1)))
        with pytest.raises(SingularMatrix):
            IntegerMatrixSystem(((1, 2), (2, 4)))

    @pytest.mark.parametrize("build", [IntegerMatrixSystem, eigenvalue_moduli])
    @pytest.mark.parametrize("rows, message", [((), "empty matrix"), ([], "empty matrix"),
                                               (((1, 2),), "matrix must be square")])
    def test_malformed_rows_refused(self, build, rows, message):
        with pytest.raises(ValueError, match=message):
            build(rows)

    def test_char_poly_exact(self):
        # x^2 - x - 1 for the Fibonacci matrix
        assert char_poly_int(((0, 1), (1, 1))) == [1, -1, -1]

    def test_complex_pair(self):
        # rotation-like matrix with complex eigenvalues 1 +- 2i: modulus sqrt(5)
        mods = eigenvalue_moduli(((1, -2), (2, 1)))
        assert mods == pytest.approx([math.sqrt(5)] * 2, abs=1e-12)
