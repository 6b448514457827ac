import copy
import pickle
from fractions import Fraction as F
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hahnpoly.poly import (
    Poly,
    _iterates,
    op_D,
    op_D_star,
    op_L,
    op_L_star,
    to_y_basis,
    y_basis,
)
from hahnpoly.classical import PRESETS, recurrence
from hahnpoly.qnum import HahnFrame, q_bracket
from hahnpoly.verify import FRAME_OMEGA_VALUES, _leibniz, _op_D_monomial as op_D_monomial, default_frames
from reference_kernels import _hahn_number as hahn_number, from_y_basis, horner, poly_divmod

FRAMES = [
    HahnFrame(F(1), F(1)),
    HahnFrame(F(2), F(1)),
    HahnFrame(F(2), F(0)),
    HahnFrame(F(1, 2), F(-1, 3)),
    HahnFrame(F(3, 5), F(1)),
    HahnFrame(F(-2), F(1)),
]

frames_st = st.sampled_from(FRAMES)
coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
poly_st = st.lists(coeff_st, min_size=0, max_size=11).map(Poly)


def assert_canonical(p: Poly):
    """den > 0, no common factor of den and nums, no trailing zero, and coeffs read off (nums, den)."""
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(F(num, p.den) for num in p.nums)
    assert all(type(x) is F for x in p.coeffs)


class TestPolyBasics:
    def test_canonical_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_zero_degree_is_none(self):
        assert Poly([]).degree() is None
        assert Poly([0, 0]).degree() is None

    def test_degree_multiplicative(self):
        p = Poly([1, 2])
        r = Poly([0, 0, 3])
        assert (p * r).degree() == 3

    def test_eval_horner(self):
        p = Poly([1, -2, 3])
        assert p(F(1, 2)) == 1 - 2 * F(1, 2) + 3 * F(1, 4)

    def test_divmod_exact(self):
        num = Poly([-1, 0, 1])  # x^2 - 1
        quot, rem = poly_divmod(num, Poly([1, 1]))
        assert quot == Poly([-1, 1]) and rem.is_zero()

    def test_divmod_with_remainder(self):
        quot, rem = poly_divmod(Poly([1, 0, 1]), Poly([1, 1]))
        assert rem == Poly([2])
        assert quot * Poly([1, 1]) + rem == Poly([1, 0, 1])

    def test_immutability(self):
        p = Poly([1])
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_integer_constructor_strips_trailing_zeros(self):
        assert Poly._from_ints([1, 2, 0], 1) == Poly([1, 2])
        assert Poly._from_ints([0, 0], 1).is_zero()

    def test_integer_constructor_divides_out_content_and_sign(self):
        p = Poly._from_ints([6, -4, 0], -8)
        assert (p.nums, p.den) == ((-3, 2), 4) and p == Poly([F(-3, 4), F(1, 2)])
        assert (Poly._from_ints([0], 7).nums, Poly._from_ints([0], 7).den) == ((), 1)

    def test_zero_is_empty_over_one(self):
        for zero in [Poly(), Poly([0, F(0, 3)]), Poly([F(1, 2)]) - Poly([F(1, 2)])]:
            assert (zero.nums, zero.den) == ((), 1)

    @settings(deadline=None, max_examples=40)
    @given(poly_st, poly_st, coeff_st, frames_st, st.integers(min_value=0, max_value=12))
    def test_kernel_output_is_canonical(self, f, g, c, frame, n):
        # every kernel returns den > 0, no common factor of den and nums, no trailing zero
        outputs = [f + g, f - g, -f, f * g, f.scale(c), f.compose_affine(c or 1, c), op_L(f, frame),
                   op_L_star(f, frame), op_D(f, frame), op_D_star(f, frame), y_basis(n, frame)]
        for r in outputs:
            assert_canonical(r)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_recurrence_polys_are_canonical(self, name):
        # RecurrenceTable.polys wraps the row engine's rows without reducing them again
        preset = PRESETS[name]
        for p in recurrence(preset.pear, preset.frame, 12).polys:
            assert_canonical(p)

    def test_equal_polys_built_by_different_routes(self):
        frame = HahnFrame(F(1, 2), F(-1, 3))
        routes = [
            [Poly([F(1, 2)]) + Poly([F(1, 2)]), Poly([1]), Poly.constant(F(3, 3)), Poly([F(2), F(0)]).scale(F(1, 2))],
            [op_L_star(op_L(Poly([F(1, 3), F(-5, 6)]), frame), frame), Poly([F(2, 6), F(-5, 6)]),
             Poly([1, -2]) * Poly([F(1, 3)]) - Poly.x().scale(F(1, 6))],
        ]
        for group in routes:
            assert all(p == group[0] for p in group)
            assert len({hash(p) for p in group}) == 1
            assert len(set(group)) == 1
        # equal numerators over different denominators are different polynomials
        assert Poly([1, 2]) != Poly([F(1, 3), F(2, 3)]) and Poly([1]) != Poly([F(1, 2)])

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle(self, clone):
        # an immutable Poly is rebuilt from its integers, never through __setattr__
        tall = Poly([F(2**80 + 1, 3**50), F(-(7**40), 2**70 + 3), 0, F(5, 11)])
        for p in (Poly(), Poly([F(-3, 4)]), tall):
            out = clone(p)
            assert (out.nums, out.den) == (p.nums, p.den) and out == p and hash(out) == hash(p)
            assert_canonical(out)
        preset = PRESETS["al-salam-carlitz"]
        table = recurrence(preset.pear, preset.frame, 6)
        polys = table.polys  # read before the clone, so the clone carries them
        assert clone(table).__dict__["polys"] == polys

    @settings(deadline=None)
    @given(poly_st, coeff_st)
    def test_call_matches_fraction_horner(self, f, x):
        assert f(x) == horner(f, x)

    @pytest.mark.parametrize("f, x", [
        (Poly(), F(0)), (Poly(), F(-7, 9)), (Poly([F(3, 4), 2, F(-1, 6)]), 0),
        (Poly([F(1, 3), F(-2, 5), F(7, 11), F(-1, 2)]), F(-123456789, 987654321 * 10**12)),
    ], ids=["zero-at-0", "zero-at-negative", "x-is-0", "negative-tall-denominator"])
    def test_call_edge_points(self, f, x):
        assert f(x) == horner(f, x)
        assert type(f(x)) is F


class TestSubstitution:
    def test_L_constant(self):
        frame = HahnFrame(F(2), F(1))
        assert op_L(Poly([5]), frame) == Poly([5])

    def test_L_linear(self):
        frame = HahnFrame(F(2), F(1))
        assert op_L(Poly.x(), frame) == Poly([1, 2])

    def test_L_square_binomial(self):
        frame = HahnFrame(F(2), F(1))
        assert op_L(Poly([0, 0, 1]), frame) == Poly([1, 4, 4])

    def test_L_star_linear(self):
        frame = HahnFrame(F(2), F(1))
        assert op_L_star(Poly.x(), frame) == Poly([F(-1, 2), F(1, 2)])

    def test_L_star_square(self):
        frame = HahnFrame(F(2), F(0))
        assert op_L_star(Poly([1, 0, 1]), frame) == Poly([1, 0, F(1, 4)])

    @settings(deadline=None)
    @given(poly_st, frames_st)
    def test_L_star_inverts_L(self, f, frame):
        assert op_L_star(op_L(f, frame), frame) == f
        assert op_L(op_L_star(f, frame), frame) == f

    @settings(deadline=None)
    @given(poly_st, frames_st, st.integers(min_value=0, max_value=8))
    def test_iterated_L_substitution(self, f, frame, n):
        expected = f.compose_affine(frame.q**n, frame.omega * q_bracket(n, frame.q))
        assert _iterates(op_L, f, n, frame)[-1] == expected

    @settings(deadline=None)
    @given(poly_st, frames_st, st.integers(min_value=1, max_value=5))
    def test_iterated_L_star_is_negative_power(self, f, frame, n):
        expected = f.compose_affine(frame.q**-n, frame.omega * q_bracket(-n, frame.q))
        assert _iterates(op_L_star, f, n, frame)[-1] == expected

    def test_iterates_lists_every_power(self):
        frame, f = HahnFrame(F(2), F(1)), Poly([1, 2, 3])
        assert _iterates(op_L, f, 0, frame) == [f]
        assert _iterates(op_L, f, 2, frame) == [f, op_L(f, frame), op_L(op_L(f, frame), frame)]


class TestDividedDifference:
    def test_constant_maps_to_zero(self):
        assert op_D(Poly([7]), HahnFrame(F(2), F(1))).is_zero()

    def test_square_example(self):
        assert op_D(Poly([0, 0, 1]), HahnFrame(F(2), F(1))) == Poly([1, 3])

    def test_monomial_expansion(self):
        for frame in FRAMES:
            for n in range(21):
                expected = Poly()
                for k in range(n):
                    expected = expected + Poly.monomial(
                        n - 1 - k, hahn_number(n, k, frame.q, frame.omega)
                    )
                assert op_D(Poly.monomial(n), frame) == expected

    def test_leading_coefficient_is_bracket(self):
        for frame in FRAMES:
            for n in range(1, 12):
                assert op_D(Poly.monomial(n), frame).leading() == q_bracket(n, frame.q)

    def test_star_on_square(self):
        assert op_D_star(Poly([0, 0, 1]), HahnFrame(F(2), F(0))) == Poly([0, F(3, 2)])

    def test_star_leading_coefficient(self):
        for frame in FRAMES:
            q = frame.q
            for n in range(1, 10):
                assert op_D_star(Poly.monomial(n), frame).leading() == q ** (1 - n) * q_bracket(n, q)

    @pytest.mark.parametrize("frame", default_frames() + [HahnFrame(q, omega) for q in (F(5, 2), F(-3))
                                                          for omega in FRAME_OMEGA_VALUES], ids=repr)
    def test_monomial_route_matches_hahn_numbers(self, frame):
        # the Pascal-table route of the identities suite against the closed sum, term by term
        def expansion(f):
            out = Poly()
            for n, c in enumerate(f.coeffs):
                for k in range(n):
                    out = out + Poly.monomial(n - 1 - k, c * hahn_number(n, k, frame.q, frame.omega))
            return out

        dense = Poly([F((-1) ** j * (j + 1), j % 4 + 1) for j in range(15)])
        for f in [Poly(), *(Poly.monomial(n, F(-3, 2)) for n in range(15)), dense]:
            assert op_D_monomial(f, frame) == expansion(f), (f, frame)

    @settings(deadline=None)
    @given(poly_st, frames_st)
    def test_division_route_equals_monomial_route(self, f, frame):
        assert op_D(f, frame) == op_D_monomial(f, frame)

    @settings(deadline=None)
    @given(poly_st, frames_st)
    def test_commutations(self, f, frame):
        q = frame.q
        assert op_D_star(op_D(f, frame), frame) == op_D(op_D_star(f, frame), frame).scale(q)
        assert op_D(op_L_star(f, frame), frame) == op_L_star(op_D(f, frame), frame).scale(1 / q)
        assert op_D(op_L(f, frame), frame) == op_L(op_D(f, frame), frame).scale(q)
        assert op_D_star(op_L(f, frame), frame) == op_D(f, frame).scale(q)

    @settings(deadline=None)
    @given(poly_st, poly_st, frames_st)
    def test_product_rules(self, f, g, frame):
        assert op_L(f * g, frame) == op_L(f, frame) * op_L(g, frame)
        assert op_D(f * g, frame) == op_D(f, frame) * op_L(g, frame) + f * op_D(g, frame)


class TestYBasis:
    def test_first_few(self):
        frame = HahnFrame(F(2), F(1))
        assert y_basis(0, frame) == Poly([1])
        assert y_basis(1, frame) == Poly.x()
        assert y_basis(2, frame) == Poly.x() * Poly([-1, 1])

    def test_monic(self):
        for frame in FRAMES:
            for n in range(12):
                p = y_basis(n, frame)
                assert p.degree() == n and p.leading() == 1

    def test_diagonal_action(self):
        for frame in FRAMES:
            for n in range(1, 12):
                assert op_D(y_basis(n, frame), frame) == y_basis(n - 1, frame).scale(
                    q_bracket(n, frame.q)
                )

    def test_unit_vector_for_basis_element(self):
        frame = HahnFrame(F(2), F(1))
        assert to_y_basis(y_basis(3, frame), frame) == [0, 0, 0, 1]

    def test_monomials_at_omega_zero(self):
        frame = HahnFrame(F(2), F(0))
        assert to_y_basis(Poly([0, 0, 1]), frame) == [0, 0, 1]

    def test_square_at_q1_omega1(self):
        frame = HahnFrame(F(1), F(1))
        assert to_y_basis(Poly([0, 0, 1]), frame) == [0, 1, 1]

    @settings(deadline=None)
    @given(poly_st, frames_st)
    def test_round_trip(self, f, frame):
        assert from_y_basis(to_y_basis(f, frame), frame) == f


def leibniz_expand(f, g, frame, n):
    """D^n(fg) by the q-Leibniz sum of hahnpoly.verify."""
    return _leibniz(mul, _iterates(op_D, f, n, frame), frame, _iterates(op_D, g, n, frame))


class TestLeibniz:
    def test_constant_second_factor(self):
        frame = HahnFrame(F(2), F(1))
        f = Poly([1, 2, 3])
        assert leibniz_expand(f, Poly([1]), frame, 1) == op_D(f, frame)

    def test_x_times_x(self):
        frame = HahnFrame(F(2), F(0))
        assert leibniz_expand(Poly.x(), Poly.x(), frame, 1) == Poly([0, 3])

    @settings(deadline=None)
    @given(
        st.lists(coeff_st, max_size=7).map(Poly),
        st.lists(coeff_st, max_size=7).map(Poly),
        frames_st,
        st.integers(min_value=0, max_value=4),
    )
    def test_matches_iterated_operator(self, f, g, frame, n):
        assert leibniz_expand(f, g, frame, n) == _iterates(op_D, f * g, n, frame)[-1]


@pytest.mark.parametrize("n", [-1, -4])
def test_negative_monomial_rejected(n):
    # [0] * n is empty for n < 0, so the coefficient would come back as a constant
    with pytest.raises(ValueError, match=f"^monomial needs n >= 0, got {n}$"):
        Poly.monomial(n, 5)
