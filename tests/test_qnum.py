import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hahnpoly.qnum import (
    AdmissibilityError,
    HahnFrame,
    PearsonPair,
    _brackets,
    as_scalar,
    d_n,
    e_n,
    q_binomial,
    q_bracket,
    q_factorial,
    rodrigues_constant,
)
from hahnpoly.verify import FRAME_Q_VALUES
import reference_kernels as ref
from reference_kernels import _hahn_number as hahn_number

Q_TEST_SET = [F(1), F(2), F(1, 2), F(3, 5), F(-2), F(-1, 3)]


class TestRationalGrammar:
    @pytest.mark.parametrize("text, value", [("7", 7), ("-1/3", F(-1, 3)), ("+2/4", F(1, 2)), ("-0", 0)])
    def test_p_or_p_over_q(self, text, value):
        assert as_scalar(text) == value

    @pytest.mark.parametrize("text", ["1e5", "0.5", " 1_0 ", "1_0", "1/0", "inf", "nan", "1/-2", "\u0661\u0662", ""])
    def test_any_other_string_is_a_value_error(self, text):
        # Fraction alone reads 1e5 as 100000, 0.5 as 1/2 and ' 1_0 ' as 10
        with pytest.raises(ValueError):
            as_scalar(text)

    @given(st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=30),
           st.none() | st.text("0", min_size=1, max_size=3) | st.text("0123456789", min_size=1, max_size=30))
    def test_grammar_reads_as_fraction_reads(self, sign, num, den):
        # signs, leading zeros and zero denominators; as_scalar parses the digits once, Fraction(text) again
        text = sign + num + ("" if den is None else "/" + den)
        if den is not None and int(den) == 0:
            with pytest.raises(ValueError, match="has a zero denominator"):
                as_scalar(text)
        else:
            assert as_scalar(text) == F(text)

    @pytest.mark.parametrize("text", ["1" * 4301, "-1/" + "1" * 4301, "1" * 4301 + "/0"])
    def test_past_the_digit_limit_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="4300 digits"):
            as_scalar(text)

    def test_tall_exponent_frame_raises_at_once(self):
        # Fraction("1e200000") is a 664,386-bit integer
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not a rational"):
            HahnFrame("1e200000", 1)
        assert time.perf_counter() - start < 1


class TestFrame:
    def test_rejects_q_zero(self):
        with pytest.raises(ValueError, match="q must be nonzero"):
            HahnFrame(F(0), F(1))

    def test_rejects_q_minus_one(self):
        with pytest.raises(ValueError):
            HahnFrame(F(-1), F(1))

    def test_rejects_degenerate_point(self):
        with pytest.raises(ValueError):
            HahnFrame(F(1), F(0))

    def test_omega0(self):
        frame = HahnFrame(F(2), F(3))
        assert frame.omega0 == F(3) / (1 - 2)
        with pytest.raises(ValueError):
            HahnFrame(F(1), F(1)).omega0

    def test_reciprocal_involution(self):
        frame = HahnFrame(F(2, 3), F(-1, 5))
        assert frame.reciprocal().reciprocal() == frame
        # the frame builds its reciprocal once, and that frame's reciprocal is the frame itself
        assert frame.reciprocal() is frame.reciprocal() and frame.reciprocal().reciprocal() is frame
        assert frame.reciprocal() == HahnFrame(F(3, 2), F(3, 10))


class TestBracket:
    def test_zero(self):
        for q in Q_TEST_SET:
            assert q_bracket(0, q) == 0

    def test_q_one_gives_n(self):
        assert q_bracket(7, 1) == 7
        assert q_bracket(-3, 1) == -3

    def test_direct_value(self):
        assert q_bracket(3, 2) == 7  # 1 + 2 + 4

    def test_geometric_sum_oracle(self):
        for q in Q_TEST_SET:
            for n in range(31):
                assert q_bracket(n, q) == sum(q**j for j in range(n))

    def test_negative_n_rational_formula(self):
        assert q_bracket(-1, 2) == F(-1, 2)

    def test_negative_n_with_q_zero_rejected(self):
        with pytest.raises(ValueError):
            q_bracket(-1, 0)


class TestFactorialBinomial:
    def test_factorial_examples(self):
        assert q_factorial(0, F(5)) == 1
        assert q_factorial(3, 1) == 6
        assert q_factorial(3, 2) == 21  # 1 * 3 * 7

    def test_binomial_examples(self):
        assert q_binomial(9, 0, F(7, 3)) == 1
        assert q_binomial(4, 2, 1) == 6
        assert q_binomial(4, 2, 2) == 35

    def test_binomial_out_of_range(self):
        with pytest.raises(ValueError):
            q_binomial(3, 4, 2)

    def test_pascal_identity(self):
        # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
        for q in Q_TEST_SET:
            for n in range(2, 16):
                for k in range(1, n):
                    assert q_binomial(n, k, q) == q_binomial(n - 1, k - 1, q) + q**k * q_binomial(n - 1, k, q)


# the frame q values, values away from them with taller r and s, q = 0, and q = -1,
# where [2]_q = 0 and a factorial of degree 2 or more in the denominator must still raise
ORACLE_Q = FRAME_Q_VALUES + [F(5, 2), F(-3), F(2, 3), F(0), F(-1)]


def outcome(fn, *args):
    """The value fn(*args) with its type, or the type of the error it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return "raises", type(exc)
    return type(value), value


class TestIntegerRoutesMatchDefinitions:
    """The one-Fraction q-numbers against the Fraction definitions in reference_kernels."""

    @pytest.mark.parametrize("q", ORACLE_Q, ids=str)
    def test_bracket(self, q):
        for n in range(-8, 41):
            assert outcome(q_bracket, n, q) == outcome(ref.q_bracket, n, q), n

    @pytest.mark.parametrize("q", ORACLE_Q, ids=str)
    def test_factorial(self, q):
        for n in range(-8, 41):
            assert outcome(q_factorial, n, q) == outcome(ref.q_factorial, n, q), n

    @pytest.mark.parametrize("q", ORACLE_Q, ids=str)
    def test_binomial(self, q):
        for n in range(-8, 41):
            for k in range(-2, max(n, 0) + 3):
                assert outcome(q_binomial, n, k, q) == outcome(ref.q_binomial, n, k, q), (n, k)

    @pytest.mark.parametrize("q", ORACLE_Q + [F(31, 37), F(2**61 - 1, 2**60 + 3)], ids=str)
    def test_brackets(self, q):
        # the one integer sequence of the kernels: [n]_q = b_n / s^(n-1), against the closed form
        for top in range(41):
            b = _brackets(q, top)
            assert len(b) == top + 1 and b[0] == 0, top
            assert all(F(bn, q.denominator ** (n - 1)) == ref.q_bracket(n, q) for n, bn in enumerate(b) if n), top

    @pytest.mark.parametrize("q", [3, "3/7", "-2", 1.5], ids=str)
    def test_coerces_q_like_the_definitions(self, q):
        # int and 'p/q' strings are read as rationals; a float is a TypeError
        for fn, args in ((q_bracket, (5,)), (q_factorial, (4,)), (q_binomial, (6, 2))):
            assert outcome(fn, *args, q) == outcome(getattr(ref, fn.__name__), *args, q)


class TestHahnNumber:
    def test_k_zero_is_bracket(self):
        for q in Q_TEST_SET:
            for n in range(10):
                assert hahn_number(n, 0, q, F(1, 3)) == q_bracket(n, q)

    def test_empty_sum(self):
        assert hahn_number(2, 3, F(2), F(1)) == 0
        assert hahn_number(3, 3, F(2), F(1)) == 0

    def test_direct_value(self):
        # omega^1 * (C(1,0)*1 + C(2,1)*2) = 1 * (1 + 4) = 5
        assert hahn_number(3, 1, 2, 1) == 5

    def test_k1_closed_form(self):
        for q in [F(2), F(1, 2), F(3, 5), F(-2)]:
            omega0 = F(1) / (1 - q)  # omega = 1
            for n in range(21):
                expected = (n * q_bracket(n - 1, q) - (n - 1) * q_bracket(n, q)) * omega0
                assert hahn_number(n, 1, q, 1) == expected

    def test_k2_closed_form(self):
        for q in [F(2), F(1, 2), F(3, 5), F(-2)]:
            for omega in [F(1), F(-1, 3)]:
                omega0 = omega / (1 - q)
                for n in range(21):
                    expected = (
                        n * (n - 1) * q_bracket(n - 2, q)
                        - 2 * n * (n - 2) * q_bracket(n - 1, q)
                        + (n - 2) * (n - 1) * q_bracket(n, q)
                    ) * omega0**2 / 2
                    assert hahn_number(n, 2, q, omega) == expected


CHARLIER = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))


class TestPearsonCoefficients:
    def test_d_constant_when_a_zero_q_one(self):
        frame = HahnFrame(F(1), F(1))
        for n in range(10):
            assert d_n(CHARLIER, frame, n) == -1

    def test_d_at_zero_is_d(self):
        pear = PearsonPair(F(3), F(1), F(2), F(5), F(7))
        frame = HahnFrame(F(2), F(1))
        assert d_n(pear, frame, 0) == 5

    def test_d_direct(self):
        pear = PearsonPair(F(1), F(0), F(0), F(1), F(0))
        frame = HahnFrame(F(2), F(0))
        assert d_n(pear, frame, 2) == 1 * 4 + 1 * 3

    def test_e_at_zero_is_e(self):
        pear = PearsonPair(F(3), F(1), F(2), F(5), F(7))
        frame = HahnFrame(F(2), F(1))
        assert e_n(pear, frame, 0) == 7

    def test_e_charlier_constant(self):
        frame = HahnFrame(F(1), F(1))
        for n in range(10):
            assert e_n(CHARLIER, frame, n) == F(1, 2)

    def test_e_direct(self):
        pear = PearsonPair(F(0), F(0), F(0), F(1), F(1))
        frame = HahnFrame(F(2), F(1))
        assert e_n(pear, frame, 1) == 4

    def test_d_recursion(self):
        pear = PearsonPair(F(2), F(-1), F(3), F(5), F(1))
        frame = HahnFrame(F(3, 5), F(-1, 3))
        for k in range(20):
            assert d_n(pear, frame, k + 1) == pear.a + frame.q * d_n(pear, frame, k)

    def test_e_recursion(self):
        pear = PearsonPair(F(2), F(-1), F(3), F(5), F(1))
        frame = HahnFrame(F(3, 5), F(-1, 3))
        for k in range(20):
            assert e_n(pear, frame, k + 1) == (
                pear.b + frame.q * e_n(pear, frame, k) + frame.omega * d_n(pear, frame, 2 * k + 1)
            )

    def test_d_three_point_identity(self):
        pear = PearsonPair(F(2), F(-1), F(3), F(5), F(1))
        for frame in [HahnFrame(F(2), F(1)), HahnFrame(F(1, 2), F(0)), HahnFrame(F(1), F(1))]:
            for k in range(21):
                assert d_n(pear, frame, 2 * k + 2) + frame.q * d_n(pear, frame, 2 * k) == (
                    (1 + frame.q) * d_n(pear, frame, 2 * k + 1)
                )

    @pytest.mark.parametrize("fn", [d_n, e_n])
    def test_negative_index_raises(self, fn):
        pear = PearsonPair(F(2), F(-1), F(3), F(5), F(1))
        with pytest.raises(ValueError, match="needs n >= 0"):
            fn(pear, HahnFrame(F(3, 5), F(-1, 3)), -1)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            PearsonPair(F(0), F(0), F(0), F(0), F(0))


class TestRodriguesConstant:
    def test_n_zero(self):
        assert rodrigues_constant(CHARLIER, HahnFrame(F(1), F(1)), 0) == 1

    def test_n_one(self):
        pear = PearsonPair(F(0), F(0), F(1), F(3), F(0))
        frame = HahnFrame(F(2), F(0))
        assert rodrigues_constant(pear, frame, 1) == F(1, 2 * 3)

    def test_charlier_n_two(self):
        assert rodrigues_constant(CHARLIER, HahnFrame(F(1), F(1)), 2) == 1

    def test_zero_factor_raises_with_index(self):
        # d_n = -q^n + [n]_q vanishes at n = 1 for q = 1/2? no: pick d = -[2]_q/q^2, a = 1
        frame = HahnFrame(F(2), F(0))
        pear = PearsonPair(F(1), F(0), F(0), -F(3, 4), F(1))
        # d_2 = d q^2 + [2]_q = -3 + 3 = 0; n=3 product covers indices 2..4
        with pytest.raises(AdmissibilityError) as err:
            rodrigues_constant(pear, frame, 3)
        assert err.value.index == 2
