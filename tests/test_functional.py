import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from hahnpoly import functional
from hahnpoly.functional import (
    InsufficientMomentsError,
    MomentFunctional,
    derived_functional,
    dist_D,
    dist_D_star,
    dist_L,
    dist_L_star,
    left_multiply,
    pair,
    pearson_residual,
    solve_moments,
)
from hahnpoly.poly import Poly, _iterates, op_D, op_L, y_basis
from hahnpoly.classical import PRESETS
from hahnpoly.qnum import AdmissibilityError, HahnFrame, PearsonPair, d_n
from hahnpoly.verify import _leibniz, default_frames
from reference_kernels import phi_product

CHARLIER = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))
Q1W1 = HahnFrame(F(1), F(1))

FRAMES = [
    HahnFrame(F(1), F(1)),
    HahnFrame(F(2), F(1)),
    HahnFrame(F(1, 2), F(0)),
    HahnFrame(F(3, 5), F(-1, 3)),
]

frames_st = st.sampled_from(FRAMES)
coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
table_st = st.lists(coeff_st, min_size=9, max_size=13)


def functional_of(frame, values):
    return MomentFunctional(frame, tuple(values))


class TestPairing:
    def test_zero_polynomial(self):
        u = functional_of(Q1W1, [1, 2, 3])
        assert pair(u, Poly()) == 0

    def test_basis_duality(self):
        u = functional_of(Q1W1, [1, 2, 3, 4])
        assert pair(u, y_basis(3, Q1W1)) == 4

    def test_degree_overflow_raises(self):
        u = functional_of(Q1W1, [1, 2])
        with pytest.raises(InsufficientMomentsError):
            pair(u, Poly.monomial(2))

    def test_psi_moment_relation_at_omega_zero(self):
        # first moment relation 0 = d*u1 + e*u0 for a Pearson-consistent table
        pear = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))
        frame = HahnFrame(F(1, 2), F(0))
        u = solve_moments(pear, frame, 1, 10)
        psi = Poly([pear.e, pear.d])
        assert pair(u, psi) == 0

    def test_basis_independence(self):
        # Y-basis pairing equals power-basis pairing through the moment view
        u = functional_of(HahnFrame(F(2), F(1)), [1, -2, 3, 5, -1, 2])
        f = Poly([F(1, 3), -2, 0, 4, 1])
        power = u.power_moments()
        assert pair(u, f) == sum(c * power[k] for k, c in enumerate(f.coeffs))


class TestSolveMoments:
    def test_first_step(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 5)
        assert u.moments[1] == -CHARLIER.e / CHARLIER.d

    def test_u2_closed_form_at_omega_zero(self):
        pear = PearsonPair(F(1), F(2), F(-1), F(3), F(1, 2))
        frame = HahnFrame(F(2), F(0))
        u = solve_moments(pear, frame, 1, 6)
        a, b, c, d, e, q = pear.a, pear.b, pear.c, pear.d, pear.e, frame.q
        assert u.moments[2] == -F(1) / (d * q + a) * (-(q * e + b) * e / d + c)

    def test_charlier_geometric_moments(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 20)
        for n in range(21):
            assert u.moments[n] == F(1, 2) ** n
        assert pearson_residual(CHARLIER, u, 18) == [0] * 19

    def test_scaling_in_y0(self):
        u1 = solve_moments(CHARLIER, Q1W1, 1, 10)
        u3 = solve_moments(CHARLIER, Q1W1, 3, 10)
        assert u3.moments == tuple(3 * m for m in u1.moments)

    def test_admissibility_failure_carries_index(self):
        # d_n = -3/4*2^n + [n]_2 vanishes at n = 2
        pear = PearsonPair(F(1), F(0), F(1), F(-3, 4), F(1))
        with pytest.raises(AdmissibilityError) as err:
            solve_moments(pear, HahnFrame(F(2), F(0)), 1, 10)
        assert err.value.index == 2


class TestLeftMultiply:
    def test_by_one_is_identity(self):
        u = functional_of(Q1W1, [1, 2, 3, 4])
        assert left_multiply(Poly([1]), u).moments == u.moments

    def test_monomial_shift_at_omega_zero(self):
        frame = HahnFrame(F(2), F(0))
        u = functional_of(frame, [1, 2, 4, 8, 16])
        shifted = left_multiply(Poly([0, 1]), u)
        assert shifted.moments == (2, 4, 8, 16)

    def test_definition_unfolded(self):
        u = functional_of(Q1W1, [1, -1, 2, -2, 3, -3, 4])
        phi = Poly([0, 1])
        assert pair(left_multiply(phi, u), y_basis(2, Q1W1)) == pair(u, phi * y_basis(2, Q1W1))

    def test_validity_window_shrinks(self):
        u = functional_of(Q1W1, [1, 2, 3, 4])
        fu = left_multiply(Poly([1, 1, 1]), u)
        assert fu.max_degree == 1


class TestDistributionalOperators:
    def test_derivative_annihilates_constants(self):
        u = functional_of(HahnFrame(F(2), F(1)), [1, 2, 3])
        assert dist_D(u).moments[0] == 0
        assert dist_D_star(u).moments[0] == 0

    def test_derivative_extends_validity(self):
        u = functional_of(HahnFrame(F(2), F(1)), [1, 2, 3])
        assert dist_D(u).max_degree == 3

    def test_forward_difference_at_q1(self):
        # q=1, omega=1: <Du, f> = -<u, D*f> with D*f(x) = f(x) - f(x-1)
        u = functional_of(Q1W1, [1, 2, 3, 4])
        f = Poly([0, 0, 1])
        fstar = f - f.compose_affine(F(1), F(-1))
        assert pair(dist_D(u), f) == -pair(u, fstar)

    def test_L_constant_functional(self):
        frame = HahnFrame(F(2), F(0))
        u = functional_of(frame, [1, 0, 0, 0])
        assert dist_L(u).moments == (F(1, 2), 0, 0, 0)

    def test_L_star_inverts_L(self):
        u = functional_of(HahnFrame(F(2), F(1)), [1, -2, 3, -4, 5])
        assert dist_L_star(dist_L(u)).moments == u.moments
        assert dist_L(dist_L_star(u)).moments == u.moments

    @settings(deadline=None)
    @given(frames_st, table_st)
    def test_functional_P4(self, frame, values):
        u = functional_of(frame, values)
        assert dist_D_star(dist_L(u)).agrees_with(dist_D(u).scale(frame.q))

    @settings(deadline=None)
    @given(frames_st, table_st, st.lists(coeff_st, min_size=1, max_size=4).map(Poly))
    def test_functional_P4a(self, frame, values, f):
        u = functional_of(frame, values)
        lhs = dist_L(left_multiply(f, u))
        rhs = left_multiply(op_L(f, frame), dist_L(u))
        assert lhs.agrees_with(rhs)

    @settings(deadline=None)
    @given(frames_st, table_st, st.lists(coeff_st, min_size=1, max_size=4).map(Poly))
    def test_functional_P6_both_forms(self, frame, values, f):
        u = functional_of(frame, values)
        lhs = dist_D(left_multiply(f, u))
        du = dist_D(u)
        assert lhs.agrees_with(left_multiply(op_D(f, frame), dist_L(u)) + left_multiply(f, du))
        assert lhs.agrees_with(left_multiply(op_D(f, frame), u) + left_multiply(op_L(f, frame), du))

    @settings(deadline=None, max_examples=40)
    @given(frames_st, table_st,
           st.lists(coeff_st, min_size=1, max_size=4).map(Poly),
           st.integers(min_value=0, max_value=3))
    def test_functional_leibniz(self, frame, values, f, n):
        u = functional_of(frame, values)
        lhs = _iterates(dist_D, left_multiply(f, u), n)[-1]
        rhs = _leibniz(left_multiply, _iterates(op_D, f, n, frame), frame, _iterates(dist_D, u, n))
        top = min(6, lhs.max_degree, rhs.max_degree)
        assert lhs.moments[: top + 1] == rhs.moments[: top + 1]


class TestPearsonResidual:
    def test_solution_has_zero_residual(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 22)
        assert pearson_residual(CHARLIER, u, 20) == [0] * 21

    def test_corruption_detected(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 22)
        moments = list(u.moments)
        moments[3] += 1
        residual = pearson_residual(CHARLIER, functional_of(Q1W1, moments), 20)
        assert any(residual[n] != 0 for n in range(4))

    def test_zero_functional(self):
        u = functional_of(Q1W1, [0] * 10)
        assert pearson_residual(CHARLIER, u, 7) == [0] * 8

    def test_insufficient_moments(self):
        u = functional_of(Q1W1, [1, 2, 3])
        with pytest.raises(InsufficientMomentsError):
            pearson_residual(CHARLIER, u, 5)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_error_names_the_degree_it_needs(self, name):
        # depth 20 reads y_0..y_21: a table of degree 21 is enough, one of degree 20 is not
        preset = PRESETS[name]
        u = solve_moments(preset.pear, preset.frame, 1, 21)
        assert pearson_residual(preset.pear, u, 20) == [0] * 21
        with pytest.raises(InsufficientMomentsError, match=r"^residual to depth 20 needs a moment "
                                                           r"table of degree >= 21$"):
            pearson_residual(preset.pear, u.truncate(20), 20)

    def test_table_shorter_than_phi(self):
        # one error for every short table, including one that left_multiply by phi would exhaust
        pear = PearsonPair(F(1), F(0), F(1), F(-1), F(0))
        for depth in (-1, 0):
            with pytest.raises(InsufficientMomentsError, match=f"^residual to depth {depth} needs a "
                                                               "moment table of degree >= 2$"):
                pearson_residual(pear, functional_of(Q1W1, [1, 2]), depth)


small_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_st = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@pytest.mark.parametrize("frame", default_frames(), ids=lambda fr: f"q={fr.q},omega={fr.omega}")
@settings(deadline=None, max_examples=8)
@given(small_st, small_st, small_st, nonzero_st, small_st)
def test_residual_of_a_unit_fuzz(frame, a, b, c, d, e):
    # The residual is linear in u and zero on the solved table. Adding 1 to y_k adds the
    # residual of the unit table: the Y_k coefficients of psi Y_n and of -q^-1 phi D* Y_n,
    # zero for n < k - 1 and -q^(1-k) d_{k-1} at n = k - 1 (leading terms d and a [k-1]_{1/q}).
    pear = PearsonPair(a, b, c, d, e)
    try:
        u = solve_moments(pear, frame, 1, 22)
    except AdmissibilityError:
        assume(False)
    for k in range(1, 22):
        moments = list(u.moments)
        moments[k] += 1
        residual = pearson_residual(pear, MomentFunctional(frame, tuple(moments)), 20)
        assert residual[:k] == [0] * (k - 1) + [-frame.q ** (1 - k) * d_n(pear, frame, k - 1)], k


class TestDerivedFunctional:
    def test_k0_is_identity(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 12)
        assert derived_functional(CHARLIER, u, 0).moments == u.moments

    def test_k1_unfolding(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 12)
        phi = Poly([CHARLIER.c, CHARLIER.b, CHARLIER.a])
        expected = dist_L(left_multiply(phi, u))
        assert derived_functional(CHARLIER, u, 1).moments == expected.moments

    def test_closed_form_route_k2(self):
        pear = PearsonPair(F(1), F(-3), F(2), F(-4), F(1))
        frame = HahnFrame(F(1, 2), F(0))
        u = solve_moments(pear, frame, 1, 20)
        iterated = derived_functional(pear, u, 2)
        closed = left_multiply(phi_product(pear, frame, 2), _iterates(dist_L, u, 2)[-1])
        assert iterated.agrees_with(closed)


class TestSerialization:
    def test_json_round_trip(self):
        u = solve_moments(CHARLIER, Q1W1, F(1, 3), 8)
        data = u.to_json_dict()
        assert data["basis"] == "Y"
        assert MomentFunctional.from_json_dict(data).moments == u.moments

    @pytest.mark.parametrize("field", ["q", "omega", "moment"])
    def test_json_reads_the_rational_grammar(self, field):
        data = solve_moments(CHARLIER, Q1W1, 1, 3).to_json_dict()
        if field == "moment":
            data["moments"][2] = "1e3"
        else:
            data["frame"][field] = "1e3"
        with pytest.raises(ValueError, match="'1e3' is not a rational"):
            MomentFunctional.from_json_dict(data)

    @pytest.mark.parametrize("field, value", [("basis", "monomial"), ("maxDegree", 7), ("maxDegree", 0),
                                              ("maxDegree", "1"), ("maxDegree", True), ("maxDegree", 1.0)])
    def test_json_fields_restating_the_moments_must_agree(self, field, value):
        # basis "monomial" or maxDegree 7 once built the two-entry Y table silently
        data = {"frame": {"q": "2", "omega": "1"}, "basis": "Y", "moments": ["1", "2"], "maxDegree": 1}
        assert MomentFunctional.from_json_dict(data).moments == (1, 2)
        data[field] = value
        with pytest.raises(ValueError, match=f"expected basis 'Y' and maxDegree 1, got .*{value}"):
            MomentFunctional.from_json_dict(data)

    @pytest.mark.parametrize("field", ["basis", "maxDegree"])
    def test_json_field_restating_the_moments_is_required(self, field):
        data = solve_moments(CHARLIER, Q1W1, 1, 3).to_json_dict()
        del data[field]
        with pytest.raises(ValueError, match="expected basis 'Y' and maxDegree 3, got"):
            MomentFunctional.from_json_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("moments", "12"), ("moments", None), ("moments", [1, 2]), ("moments", ["1", 2]), ("moments", {"0": "1"}),
        ("frame", None), ("frame", "2"), ("frame", {"q": "2"}), ("frame", {"q": 2, "omega": "1"}),
        ("frame", {"q": "2", "omega": 1}), ("frame", ["2", "1"]),
    ])
    def test_json_reads_only_what_to_json_dict_writes(self, field, value):
        # "moments": "12" once built the table (1, 2), one moment per character
        data = {"frame": {"q": "2", "omega": "1"}, "basis": "Y", "moments": ["1", "2"], "maxDegree": 1}
        if value is None:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValueError, match=f"^{field}: expected "):
            MomentFunctional.from_json_dict(data)

    @pytest.mark.parametrize("data", [["1", "2"], "{}", None])
    def test_json_must_be_an_object(self, data):
        with pytest.raises(ValueError, match="expected a JSON object"):
            MomentFunctional.from_json_dict(data)

    @pytest.mark.parametrize("depth", [0, 1, 8])
    def test_json_round_trip_at_each_depth(self, depth):
        u = solve_moments(CHARLIER, HahnFrame(F(1, 2), F(1)), F(-2, 3), depth)
        v = MomentFunctional.from_json_dict(u.to_json_dict())
        assert (v.frame, v.moments, v.to_json_dict()) == (u.frame, u.moments, u.to_json_dict())

    def test_rationals_rendered_as_strings(self):
        u = functional_of(Q1W1, [F(1, 3)])
        assert u.to_json_dict()["moments"] == ["1/3"]

    def test_rendering_matches_fraction_str(self):
        values = [F(0), F(-3), F(7, 2), F(-5, 9), F(2 ** 70 + 1, 3 ** 40)]
        assert functional_of(Q1W1, values).to_json_dict()["moments"] == [str(v) for v in values]


class TestIntegerForm:
    def test_entries_canonical(self):
        u = functional_of(Q1W1, [F(0), F(4, 6), -2, "-9/12"])
        assert (u.nums, u.dens) == ((0, 2, -2, -3), (1, 3, 1, 4))
        assert u == functional_of(Q1W1, [0, F(2, 3), F(-4, 2), F(-3, 4)])
        assert hash(u) == hash(functional_of(Q1W1, [0, F(2, 3), F(-4, 2), F(-3, 4)]))

    def test_copy_and_pickle(self):
        u = solve_moments(CHARLIER, Q1W1, F(1, 3), 8)
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(u) == u

    def test_truncate_keeps_y0(self):
        # a table always holds y_0: a negative degree is rejected, never sliced from the end
        u = functional_of(Q1W1, [1, 2, 3])
        assert u.truncate(0).moments == (1,)
        for degree in (-1, -2):
            with pytest.raises(ValueError, match="at least y_0"):
                u.truncate(degree)


@pytest.mark.parametrize("depth", [-1, -3])
def test_negative_moment_depth_rejected(depth):
    # both routes share _moment_steps, which rejects the depth; range(depth) would build a table (y0,) silently
    for build in (solve_moments, functional._moment_table):
        with pytest.raises(ValueError, match=f"^a moment table needs depth >= 0, got {depth}$"):
            build(CHARLIER, Q1W1, F(1), depth)
