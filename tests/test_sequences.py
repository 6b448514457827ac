"""The one-pass q-sequences and what the engine reads off them, against the per-index routes.

pearson_sequences holds Python ints, and over its denominators they must
equal q**n and the Fraction closed forms q_bracket, d_n and e_n of reference_kernels
index by index, and omega and a, b, c; check_regular,
solve_moments and recurrence (beta, gamma and the in-place P_n expansion)
must equal the per-index oracles in reference_kernels, and the integer moment
table, in both of its forms, the Fraction-step recurrence there, at y0 in
{1, -2/7, 3/5}, with the same AdmissibilityError index and moment degree, on all default frames
plus q in {5/2, 2/3, -3}, with pairs where some d_m vanishes or some
gamma_{n+1} is zero included. The same checks run on tall draws: pair
coefficients, and q and omega, with unrelated denominators of 16 to 64 bits.
The library's d_n, e_n and rodrigues_constant, which read pearson_sequences, must
equal the closed forms of reference_kernels on the ORACLE_Q frames, small pairs and tall.
A pair scaled by any lam != 0 must give the same verdict, beta, gamma, moments and suite
checks, with d_n, e_n and the Pearson residual times lam and rodrigues_constant times lam^-n.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as ref
from hahnpoly.classical import (
    RegularityError,
    beta_coefficient,
    check_regular,
    gamma_coefficient,
    recurrence,
)
from hahnpoly.functional import MomentFunctional, _moment_table, pearson_residual, solve_moments
from hahnpoly import qnum
from hahnpoly.qnum import AdmissibilityError, HahnFrame, PearsonPair, pearson_sequences
from hahnpoly.verify import FRAME_OMEGA_VALUES, default_frames, gram_suite, norms_suite, rodrigues_suite
from reference_kernels import d_n, e_n, q_bracket
from test_qnum import ORACLE_Q

FRAMES = default_frames() + [HahnFrame(q, omega) for q in (F(5, 2), F(2, 3), F(-3)) for omega in (F(0), F(1))]

coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# numerator and denominator drawn apart, so the denominators of one pair share no structure
tall_st = st.builds(F, st.integers(-(2**64), 2**64), st.integers(2**16, 2**64))
checked = settings(deadline=None, max_examples=20)


def frame_id(frame):
    return f"q={frame.q},omega={frame.omega}"


@st.composite
def pairs(draw, frame, max_index=12, coeffs=coeff_st):
    """A pair, often with d_m = 0 for some m <= max_index or phi(-e_n/d_2n) = 0 for some n <= 4."""
    a, b, c, d, e = (draw(coeffs) for _ in range(5))
    shape = draw(st.sampled_from(["free", "d_vanishes", "phi_root"]))
    q, omega = frame.q, frame.omega
    if shape == "d_vanishes":
        m = draw(st.integers(0, max_index))
        d = -a * q_bracket(m, q) / q**m
    elif shape == "phi_root":
        r, s = draw(coeffs), draw(coeffs)
        a = a or F(1)
        b, c = -a * (r + s), a * r * s
        n = draw(st.integers(0, 4))
        dn = d * q**n + a * q_bracket(n, q)
        d2n = d * q ** (2 * n) + a * q_bracket(2 * n, q)
        e = (-r * d2n - (omega * dn + b) * q_bracket(n, q)) / q**n
    assume(any((a, b, c, d, e)))
    return PearsonPair(a, b, c, d, e)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AdmissibilityError, RegularityError) as exc:
        return type(exc), str(exc)


@st.composite
def tall_frames(draw):
    q, omega = draw(tall_st), draw(tall_st)
    assume(q not in (0, -1))
    return HahnFrame(q, omega)


def check_sequences(pear, frame, m, m_e):
    s = pearson_sequences(pear, frame, m, m_e)
    for field in s:
        assert all(type(v) is int for v in (field if isinstance(field, list) else [field]))
    assert len(s.r_pow) == len(s.s_pow) == len(s.bracket) == len(s.d) == m + 1 and len(s.e) == m_e + 1
    assert F(s.W, s.M) == frame.omega and gcd(s.W, s.M) == 1 and s.M > 0  # omega = W/M in lowest terms
    assert s.lam > 0 and [F(p, s.lam) for p in s.phi] == [pear.a, pear.b, pear.c]
    for n in range(m + 1):
        assert F(s.r_pow[n], s.s_pow[n]) == frame.q**n
        assert F(s.bracket[n], s.s_pow[n]) == q_bracket(n, frame.q)
        assert F(s.d[n], s.lam * s.s_pow[n]) == d_n(pear, frame, n)
    for n in range(m_e + 1):
        assert F(s.e[n], s.M * s.lam * s.s_pow[n] ** 2) == e_n(pear, frame, n)


def check_engine(pear, frame, depth):
    assert check_regular(pear, frame, depth) == ref.check_regular_per_index(pear, frame, depth)
    assert outcome(solve_moments, pear, frame, F(2, 3), 2 * depth) == outcome(
        ref.solve_moments_per_index, pear, frame, F(2, 3), 2 * depth)


# <u, 1> for the moment-table checks
MOMENT_Y0 = (F(1), F(-2, 7), F(3, 5))


def admissibility(fn, *args):
    """The result of fn, or the index and moment degree of the AdmissibilityError it raised."""
    try:
        return fn(*args)
    except AdmissibilityError as exc:
        return AdmissibilityError, exc.index, exc.moment_degree


def check_moment_table(pear, frame, depth):
    # the integer table, as solve_moments' Fractions and over one denominator, against Fraction steps
    for y0 in MOMENT_Y0:
        expected = admissibility(ref.solve_moments_fractions, pear, frame, y0, depth)
        got = admissibility(solve_moments, pear, frame, y0, depth)
        table = admissibility(_moment_table, pear, frame, y0, depth)
        if not isinstance(expected, MomentFunctional):
            assert got == table == expected
            continue
        assert got.moments == expected.moments
        nums, den = table
        assert den > 0
        assert [F(n, den) for n in nums] == list(expected.moments)


def check_recurrence(pear, frame, depth):
    report = check_regular(pear, frame, depth)
    assume(report.admissible)
    table = recurrence(pear, frame, depth, F(3), require_regular=False)
    assert table.beta == tuple(ref.beta_per_index(pear, frame, n) for n in range(depth + 1))
    assert table.gamma == (F(3),) + tuple(ref.gamma_per_index(pear, frame, n) for n in range(depth))
    assert table.polys == ref.recurrence_polys(table.beta, table.gamma)


@pytest.mark.parametrize("frame", FRAMES, ids=frame_id)
class TestSequences:
    @checked
    @given(st.data())
    def test_against_single_index(self, frame, data):
        pear = data.draw(pairs(frame))
        m = data.draw(st.integers(0, 25))
        check_sequences(pear, frame, m, data.draw(st.integers(0, m)))

    @checked
    @given(st.data())
    def test_engine_against_per_index(self, frame, data):
        check_engine(data.draw(pairs(frame)), frame, data.draw(st.integers(0, 10)))

    @checked
    @given(st.data())
    def test_moment_table_against_fraction_steps(self, frame, data):
        check_moment_table(data.draw(pairs(frame)), frame, data.draw(st.integers(0, 24)))

    @checked
    @given(st.data())
    def test_recurrence_against_per_index(self, frame, data):
        check_recurrence(data.draw(pairs(frame)), frame, data.draw(st.integers(0, 10)))

    @checked
    @given(st.data())
    def test_tall_pairs_against_per_index(self, frame, data):
        pear = data.draw(pairs(frame, coeffs=tall_st))
        depth = data.draw(st.integers(0, 8))
        check_sequences(pear, frame, 2 * depth + 1, depth)
        check_engine(pear, frame, depth)
        check_moment_table(pear, frame, 2 * depth)
        check_recurrence(pear, frame, depth)


@checked
@given(st.data())
def test_tall_frames_against_per_index(data):
    frame = data.draw(tall_frames())
    pear = data.draw(pairs(frame, coeffs=data.draw(st.sampled_from([coeff_st, tall_st]))))
    depth = data.draw(st.integers(0, 8))
    check_sequences(pear, frame, 2 * depth + 1, depth)
    check_engine(pear, frame, depth)
    check_moment_table(pear, frame, 2 * depth)
    check_recurrence(pear, frame, depth)


# a nonzero lam of either sign, small or tall
scale_st = st.one_of(coeff_st, tall_st).filter(bool)


def pair_suites(pear, frame):
    """The checks of the pair suites of `verify --n 10` on one pair, in their order, without the `pair:` prefix."""
    return [*gram_suite(pear, frame, 10), *rodrigues_suite(pear, frame, 5, 8, require_regular=False),
            *norms_suite(pear, frame)]


def beta_gamma(pear, frame):
    table = recurrence(pear, frame, 12)
    return table.beta, table.gamma


@pytest.mark.parametrize("frame", FRAMES, ids=frame_id)
@checked
@given(st.data())
def test_scaled_pair_has_the_same_functional(frame, data):
    # D(phi u) = psi u is homogeneous in (phi, psi): lam (phi, psi) has the same u, verdict, beta_n and gamma_n
    pear = data.draw(pairs(frame, coeffs=data.draw(st.sampled_from([coeff_st, tall_st]))))
    lam = data.draw(scale_st)
    scaled = PearsonPair(*(lam * x for x in (pear.a, pear.b, pear.c, pear.d, pear.e)))
    assert check_regular(scaled, frame, 12) == check_regular(pear, frame, 12)
    assert outcome(beta_gamma, scaled, frame) == outcome(beta_gamma, pear, frame)
    assert admissibility(solve_moments, scaled, frame, F(2, 3), 24) \
        == admissibility(solve_moments, pear, frame, F(2, 3), 24)
    assert outcome(pair_suites, scaled, frame) == outcome(pair_suites, pear, frame)
    for n in range(25):
        assert qnum.d_n(scaled, frame, n) == lam * qnum.d_n(pear, frame, n), n
        assert qnum.e_n(scaled, frame, n) == lam * qnum.e_n(pear, frame, n), n
    u = MomentFunctional(frame, data.draw(st.lists(coeff_st, min_size=12, max_size=12)))
    assert pearson_residual(scaled, u, 10) == [lam * r for r in pearson_residual(pear, u, 10)]
    for n in range(8):
        expected = admissibility(qnum.rodrigues_constant, pear, frame, n)
        if isinstance(expected, F):
            expected /= lam**n
        assert admissibility(qnum.rodrigues_constant, scaled, frame, n) == expected, n


# the valid frames over ORACLE_Q; test_qnum holds q_bracket to its closed form there for n = -8..40
ORACLE_FRAMES = [HahnFrame(q, omega) for q in ORACLE_Q if q not in (0, -1)
                 for omega in FRAME_OMEGA_VALUES if (q, omega) != (1, 0)]


@pytest.mark.parametrize("frame", ORACLE_FRAMES, ids=frame_id)
@checked
@given(st.data())
def test_library_pearson_numbers_equal_the_closed_forms(frame, data):
    pear = data.draw(pairs(frame, coeffs=data.draw(st.sampled_from([coeff_st, tall_st]))))
    for n in range(41):
        assert qnum.d_n(pear, frame, n) == d_n(pear, frame, n), n
        assert qnum.e_n(pear, frame, n) == e_n(pear, frame, n), n
    for n in range(13):
        assert admissibility(qnum.rodrigues_constant, pear, frame, n) \
            == admissibility(ref.rodrigues_constant, pear, frame, n), n


def test_rejects_bad_bounds():
    pear = PearsonPair(0, 1, 0, -1, F(1, 2))
    for m, m_e in ((3, 4), (3, -1), (-1, -1)):
        with pytest.raises(ValueError):
            pearson_sequences(pear, FRAMES[0], m, m_e)


@pytest.mark.parametrize("n0", [0, 1, 2, 5])
def test_irregular_table_with_zero_gamma(n0):
    # phi = x + (n0 - 1)/2, psi = 1 - 2x on q = omega = 1: phi(-e_n0/d_2n0) = 0, so gamma_{n0+1} = 0
    pear = PearsonPair(F(0), F(1), F(n0 - 1, 2), F(-2), F(1))
    frame = HahnFrame(F(1), F(1))
    with pytest.raises(RegularityError):
        recurrence(pear, frame, 8)
    table = recurrence(pear, frame, 8, require_regular=False)
    assert table.gamma[n0 + 1] == 0
    assert all(g != 0 for n, g in enumerate(table.gamma) if n != n0 + 1)
    assert table.beta == tuple(ref.beta_per_index(pear, frame, n) for n in range(9))
    assert table.gamma[1:] == tuple(ref.gamma_per_index(pear, frame, n) for n in range(8))
    assert table.polys == ref.recurrence_polys(table.beta, table.gamma)


@pytest.mark.parametrize("fn", [beta_coefficient, gamma_coefficient])
def test_coefficients_reject_negative_index(fn):
    with pytest.raises(ValueError):
        fn(PearsonPair(0, 1, 0, -1, F(1, 2)), HahnFrame(1, 1), -1)
