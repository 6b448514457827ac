import itertools
import random
from fractions import Fraction as F

import pytest

from hahnpoly.classical import (
    PRESETS,
    RecurrenceTable,
    RegularityError,
    beta_coefficient,
    check_regular,
    derivative_sequence,
    gamma_coefficient,
    get_preset,
    gram_matrix,
    phi_poly,
    psi_k,
    r_polynomial,
    recurrence,
    theta2,
)
from hahnpoly.functional import MomentFunctional, derived_functional, pair, pearson_residual, solve_moments
from hahnpoly.poly import Poly, _iterates, op_D
from hahnpoly.qnum import HahnFrame, PearsonPair, d_n, e_n, q_bracket
from hahnpoly import classical, verify
from hahnpoly.verify import FRAME_OMEGA_VALUES, _psi_k_recursive, _theta2_definitional, default_frames
import reference_kernels as ref
from reference_kernels import hankel_determinant

CHARLIER = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))
Q1W1 = HahnFrame(F(1), F(1))


def random_admissible_pair(rng):
    """Random rational pair with d != 0 and d_1 != 0 on a random frame."""
    frames = [Q1W1, HahnFrame(F(2), F(1)), HahnFrame(F(1, 2), F(0)), HahnFrame(F(3, 5), F(-1, 3))]
    while True:
        frame = rng.choice(frames)
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        a, b, c, d, e = coeffs
        if d == 0 or d * frame.q + a == 0:
            continue
        return PearsonPair(a, b, c, d, e), frame


class TestAdmissibility:
    def test_charlier_always_admissible(self):
        report = check_regular(CHARLIER, Q1W1, 40)
        assert report.admissible and report.first_admissibility_failure is None

    def test_constructed_failure_at_two(self):
        # d_n = -3/4*2^n + [n]_2 = 0 at n = 2
        pear = PearsonPair(F(1), F(0), F(1), F(-3, 4), F(1))
        report = check_regular(pear, HahnFrame(F(2), F(0)), 10)
        assert not report.admissible
        assert report.first_admissibility_failure == 2

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            PearsonPair(F(0), F(0), F(0), F(0), F(0))

    def test_degenerate_psi_fails_at_zero(self):
        pear = PearsonPair(F(1), F(0), F(1), F(0), F(1))
        report = check_regular(pear, HahnFrame(F(2), F(0)), 5)
        assert report.first_admissibility_failure == 0
        assert not report.psi_degree_one


class TestRegularity:
    def test_charlier_regular(self):
        report = check_regular(CHARLIER, Q1W1, 20)
        assert report.regular
        assert report.checked_d_through == 41

    def test_phi_root_at_zero_when_mu_zero(self):
        pear = PearsonPair(F(0), F(1), F(0), F(-1), F(0))
        report = check_regular(pear, Q1W1, 10)
        assert report.first_regularity_failure == (0, "phi_root_condition")

    def test_d_failure_reported_as_admissibility(self):
        # d_1 = d*q + a = 0 with d = 1, a = -2, q = 2
        pear = PearsonPair(F(-2), F(0), F(1), F(1), F(1))
        report = check_regular(pear, HahnFrame(F(2), F(0)), 5)
        assert report.first_regularity_failure == (1, "admissibility")
        assert report.first_admissibility_failure == 1

    def test_regular_implies_admissible(self):
        for preset in PRESETS.values():
            report = check_regular(preset.pear, preset.frame, 12)
            assert report.regular and report.admissible


class TestPsiK:
    def test_k0(self):
        assert psi_k(CHARLIER, Q1W1, 0) == Poly([CHARLIER.e, CHARLIER.d])

    def test_k1_coefficients(self):
        pear, frame = get_preset("al-salam-carlitz").pear, get_preset("al-salam-carlitz").frame
        assert psi_k(pear, frame, 1) == Poly([e_n(pear, frame, 1), d_n(pear, frame, 2)])

    def test_closed_form_matches_recursion(self):
        rng = random.Random(3)
        for _ in range(10):
            pear, frame = random_admissible_pair(rng)
            for k in range(11):
                assert psi_k(pear, frame, k) == _psi_k_recursive(pear, frame, k)


class TestTheta2:
    def test_dual_computation(self):
        rng = random.Random(5)
        for _ in range(10):
            pear, frame = random_admissible_pair(rng)
            for n in range(1, 9):
                assert theta2(pear, frame, n) == _theta2_definitional(pear, frame, n)

    def test_leading_coefficient(self):
        pear, frame = CHARLIER, Q1W1
        for n in range(1, 6):
            assert theta2(pear, frame, n).coeff(2) == d_n(pear, frame, 2 * n) * d_n(pear, frame, 2 * n - 1)

    def test_degree_two_when_admissible(self):
        pear = PearsonPair(F(1), F(1), F(0), F(1), F(0))
        frame = HahnFrame(F(2), F(0))
        for n in range(1, 6):
            assert theta2(pear, frame, n).degree() == 2


class TestRecurrence:
    def test_beta0(self):
        rng = random.Random(11)
        for _ in range(50):
            pear, frame = random_admissible_pair(rng)
            assert beta_coefficient(pear, frame, 0) == -pear.e / pear.d

    def test_gamma1_closed_form(self):
        rng = random.Random(13)
        for _ in range(50):
            pear, frame = random_admissible_pair(rng)
            expected = -phi_poly(pear)(-pear.e / pear.d) / (pear.d * frame.q + pear.a)
            assert gamma_coefficient(pear, frame, 0) == expected

    def test_charlier_values(self):
        table = recurrence(CHARLIER, Q1W1, 8)
        for n in range(9):
            assert table.beta[n] == n + F(1, 2)
        for n in range(1, 9):
            assert table.gamma[n] == F(n, 2)

    def test_polys_monic_and_recursive(self):
        preset = get_preset("little-q-laguerre")
        table = recurrence(preset.pear, preset.frame, 8)
        x = Poly.x()
        for n, p in enumerate(table.polys):
            assert p.degree() == n and p.leading() == 1
        for n in range(1, 9):
            assert table.polys[n + 1] == (
                (x - Poly.constant(table.beta[n])) * table.polys[n]
                - table.gamma[n] * table.polys[n - 1]
            )

    def test_regularity_failure_carries_report(self):
        pear = PearsonPair(F(0), F(1), F(0), F(-1), F(0))
        with pytest.raises(RegularityError) as err:
            recurrence(pear, Q1W1, 5)
        assert err.value.report.first_regularity_failure == (0, "phi_root_condition")

    def test_irregular_generation_when_not_required(self):
        pear = PearsonPair(F(0), F(1), F(0), F(-1), F(0))
        table = recurrence(pear, Q1W1, 5, require_regular=False)
        assert table.gamma[1] == 0
        assert all(p.leading() == 1 for p in table.polys)


class TestDerivativeSequence:
    def test_k0_unchanged(self):
        table = recurrence(CHARLIER, Q1W1, 6)
        assert derivative_sequence(table, Q1W1, 0) == list(table.polys)

    def test_monic_of_right_degree(self):
        for name in ("charlier", "al-salam-carlitz"):
            preset = get_preset(name)
            table = recurrence(preset.pear, preset.frame, 11)
            for k in range(4):
                seq = derivative_sequence(table, preset.frame, k)
                for n, p in enumerate(seq[:9]):
                    assert p.degree() == n and p.leading() == 1

    def test_matches_normalized_hahn_derivative(self):
        preset = get_preset("al-salam-carlitz")
        table = recurrence(preset.pear, preset.frame, 7)
        seq = derivative_sequence(table, preset.frame, 2)
        q = preset.frame.q
        norm = q_bracket(3, q) * q_bracket(4, q)
        assert seq[2] == _iterates(op_D, table.polys[4], 2, preset.frame)[-1].scale(1 / norm)

    @pytest.mark.parametrize("k", [5, 9])
    def test_past_the_table_raises(self, k):
        # P_0..P_4 of a depth-3 table reach k = 4 with one polynomial; past it there is none to return
        table = recurrence(CHARLIER, Q1W1, 3)
        assert len(derivative_sequence(table, Q1W1, 4)) == 1
        for route in (derivative_sequence, ref.derivative_sequence):
            with pytest.raises(ValueError, match=f"^derivative_sequence needs k <= 4 at depth 3, got k={k}$"):
                route(table, Q1W1, k)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_monic_steps_match_bracket_product_on_presets(self, name):
        # one monic D step per k against D^k P_{n+k} / prod_{j<=k} [n+j]_q
        preset = PRESETS[name]
        table = recurrence(preset.pear, preset.frame, 11)
        for k in range(4):
            assert derivative_sequence(table, preset.frame, k) == ref.derivative_sequence(table, preset.frame, k)

    @pytest.mark.parametrize("frame", default_frames() + [HahnFrame(q, omega) for q in (F(5, 2), F(-3))
                                                          for omega in FRAME_OMEGA_VALUES], ids=repr)
    def test_monic_steps_match_bracket_product_on_random_pairs(self, frame):
        rng = random.Random(f"{frame.q}/{frame.omega}")
        for _ in range(2):
            while True:
                pear = PearsonPair(*(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)))
                if check_regular(pear, frame, 7).regular:
                    break
            table = recurrence(pear, frame, 7)
            for k in range(4):
                assert derivative_sequence(table, frame, k) == ref.derivative_sequence(table, frame, k), (pear, k)


# P^[k]_n + 1 in place of P^[k]_n in the k-th monic D step of the norms suite: the k = 1 steps decide
# derivative_orthogonality_k1, at n = 6 that check alone, and each detail names the first failing index
NORM_FAULTS = {
    (1, 6): {"derivative_orthogonality_k1": "D step broke at (k,n)=(1,6)"},
    (2, 3): {"norm_relation_k_le_3": "D step broke at (k,n)=(2,3)"},
    (1, 2): {"derivative_orthogonality_k1": "D step broke at (k,n)=(1,2)",
             "norm_relation_k_le_3": "D step broke at (k,n)=(1,2)"},
}


@pytest.mark.parametrize("name", ["charlier", "al-salam-carlitz"])
@pytest.mark.parametrize("fault", sorted(NORM_FAULTS), ids=lambda kn: "k={},n={}".format(*kn))
def test_norms_suite_fault_injection(monkeypatch, name, fault):
    steps = itertools.count(1)  # the suite takes the D steps k = 1, 2, 3 in order

    def perturbed(table, frame, k):
        seq = derivative_sequence(table, frame, k)
        if next(steps) == fault[0]:
            seq[fault[1]] = seq[fault[1]] + Poly([1])
        return seq

    monkeypatch.setattr(verify, "derivative_sequence", perturbed)
    preset = get_preset(name)
    checks = verify.norms_suite(preset.pear, preset.frame)
    assert {c.name: c.detail for c in checks if not c.passed} == NORM_FAULTS[fault]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_norms_suite_runs_the_D_chain_once(monkeypatch, name):
    # P_0..P_8 and k <= 3 take 8 + 7 + 6 monic D steps; a chain rebuilt for each k takes 8 + 15 + 21 = 44
    calls = []
    monkeypatch.setattr(classical, "op_D", lambda f, frame: calls.append(f) or op_D(f, frame))
    preset = get_preset(name)
    assert all(c.passed for c in verify.norms_suite(preset.pear, preset.frame))
    assert len(calls) == 21


def _failed_norms(monkeypatch, name, attribute, fault):
    monkeypatch.setattr(verify, attribute, fault)
    preset = get_preset(name)
    return {c.name: c.detail for c in verify.norms_suite(preset.pear, preset.frame) if not c.passed}


@pytest.mark.parametrize("name", ["charlier", "al-salam-carlitz"])
def test_norms_suite_fails_on_a_faulty_derived_functional(monkeypatch, name):
    # y_0 stays right, so only the Pearson residual against the derived pair sees the last moment move
    def faulty(pear, u, k):
        v = derived_functional(pear, u, k)
        return MomentFunctional(v.frame, v.moments[:-1] + (v.moments[-1] + 1,))

    detail = "u^[1] is not the functional of the derived pair"
    assert _failed_norms(monkeypatch, name, "derived_functional", faulty) == {
        "derivative_orthogonality_k1": detail, "norm_relation_k_le_3": detail}


@pytest.mark.parametrize("name", ["charlier", "al-salam-carlitz"])
def test_norms_suite_fails_on_a_faulty_e_n(monkeypatch, name):
    # a wrong e_2 gives a wrong second derived pair, so T_2 is not the D step of T_1, and gamma_1 of
    # that pair disagrees with the one read off the moments of the library's u^[2]
    failed = _failed_norms(monkeypatch, name, "e_n", lambda pear, frame, n: e_n(pear, frame, n) + (n == 2))
    assert failed == {"norm_relation_k_le_3": "D step broke at (k,n)=(2,1)",
                      "gamma1_of_derived_functional": "gamma_1^[n] mismatch at n=2"}


def test_norms_suite_names_the_first_faulty_e_n(monkeypatch):
    # every e_n from n = 2 on is wrong, so each derived pair from k = 2 on fails; the check names the first
    failed = _failed_norms(monkeypatch, "charlier", "e_n", lambda pear, frame, n: e_n(pear, frame, n) + (n >= 2))
    assert failed["gamma1_of_derived_functional"] == "gamma_1^[n] mismatch at n=2"


def test_norms_suite_names_the_first_faulty_r_polynomial(monkeypatch):
    # R_{n+1} is doubled for every q_n of degree n >= 3, so its leading coefficient is wrong from n = 3 on
    def faulty(pear, frame, q_n):
        return r_polynomial(pear, frame, q_n) * (2 if q_n.degree() >= 3 else 1)

    assert _failed_norms(monkeypatch, "charlier", "r_polynomial", faulty) == {
        "r_polynomial_leading_coefficient": "R_{n+1} leading coefficient wrong at n=3"}


class TestRPolynomial:
    def test_q0_constant(self):
        pear, frame = CHARLIER, Q1W1
        assert r_polynomial(pear, frame, Poly([1])) == frame.q * Poly([pear.e, pear.d])

    def test_leading_coefficient(self):
        rng = random.Random(17)
        for _ in range(10):
            pear, frame = random_admissible_pair(rng)
            for n in range(7):
                q_n = Poly.monomial(n) + Poly([F(rng.randint(-3, 3)) for _ in range(n)])
                r = r_polynomial(pear, frame, q_n)
                assert r.degree() == n + 1
                assert r.leading() == frame.q ** (1 - n) * d_n(pear, frame, n)

    def test_functional_identity(self):
        # <D*(Q_n u^[1]), Y_m> = <R_{n+1} u, Y_m>
        from hahnpoly.functional import derived_functional, dist_D_star, left_multiply

        preset = get_preset("charlier")
        u = solve_moments(preset.pear, preset.frame, 1, 24)
        u1 = derived_functional(preset.pear, u, 1)
        for n in range(4):
            q_n = Poly.monomial(n) + (Poly([2, -1]) if n >= 2 else Poly())
            lhs = dist_D_star(left_multiply(q_n, u1))
            rhs = left_multiply(r_polynomial(preset.pear, preset.frame, q_n), u)
            assert lhs.moments[:7] == rhs.moments[:7]


class TestGramAndHankel:
    def test_diagonal_structure(self):
        for preset in PRESETS.values():
            u = solve_moments(preset.pear, preset.frame, 1, 22)
            table = recurrence(preset.pear, preset.frame, 10)
            gram = gram_matrix(u, table.polys, 10)
            expected = F(1)
            for n in range(11):
                if n:
                    expected *= table.gamma[n]
                assert gram[n][n] == expected and expected != 0
                for m in range(11):
                    if m != n:
                        assert gram[m][n] == 0

    def test_g00_is_y0(self):
        u = solve_moments(CHARLIER, Q1W1, F(5, 7), 6)
        table = recurrence(CHARLIER, Q1W1, 2, F(5, 7))
        assert gram_matrix(u, table.polys, 0)[0][0] == F(5, 7)

    def test_hankel_vanishes_exactly_at_gamma_zero(self):
        frame = Q1W1
        for n0 in (0, 1, 2):
            pear = PearsonPair(F(0), F(1), F(-(1 - n0), 2), F(-2), F(1))
            assert gamma_coefficient(pear, frame, n0) == 0
            u = solve_moments(pear, frame, 1, 20)
            assert hankel_determinant(u, n0 + 2) == 0
            # earlier Hankel determinants stay nonzero
            for order in range(1, n0 + 2):
                assert hankel_determinant(u, order) != 0

    def test_hankel_nonzero_for_regular_preset(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 20)
        for order in range(1, 8):
            assert hankel_determinant(u, order) != 0


class TestPresets:
    def test_catalog_contents(self):
        assert set(PRESETS) == {"charlier", "meixner", "al-salam-carlitz", "little-q-laguerre"}

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("hermite")

    def test_all_presets_regular_to_15(self):
        for preset in PRESETS.values():
            assert check_regular(preset.pear, preset.frame, 15).regular


def _lqa(n):  # little q-Laguerre, base Q = 2, a = 2/3: A_n = Q^n (1 - a Q^(n+1))
    return 2**n * (1 - F(2, 3) * 2 ** (n + 1))


def _lqc(n):  # C_n = a Q^n (1 - Q^n)
    return F(2, 3) * 2**n * (1 - 2**n)


# beta_n and gamma_n (n >= 1) of the presets that are classical families; al-salam-carlitz is none
PRESET_FAMILIES = {
    "charlier": (lambda n: n + F(1, 2), lambda n: F(n, 2)),  # Charlier, mu = 1/2
    "meixner": (lambda n: n + F(1, 3), lambda n: F(7 * n, 3)),  # Charlier, mu = 7/3, shifted by -2
    # little q-Laguerre, scaled by -3/2: beta_n = -(3/2)(A_n + C_n), gamma_n = (9/4) A_{n-1} C_n
    "little-q-laguerre": (lambda n: -F(3, 2) * (_lqa(n) + _lqc(n)), lambda n: F(9, 4) * _lqa(n - 1) * _lqc(n)),
}


@pytest.mark.parametrize("name", sorted(PRESET_FAMILIES))
def test_preset_recurrence_is_its_family(name):
    beta, gamma = PRESET_FAMILIES[name]
    preset = get_preset(name)
    table = recurrence(preset.pear, preset.frame, 40)
    assert list(table.beta) == [beta(n) for n in range(41)]
    assert list(table.gamma[1:]) == [gamma(n) for n in range(1, 41)]


def test_al_salam_carlitz_preset_is_not_its_family():
    # Al-Salam-Carlitz I and II have beta_1/beta_0 = q or 1/q; this pair gives 29 at q = 1/2, and a negative gamma_2
    preset = get_preset("al-salam-carlitz")
    table = recurrence(preset.pear, preset.frame, 2)
    assert table.beta[1] / table.beta[0] == 29 and preset.frame.q == F(1, 2)
    assert table.gamma[2] == F(-144, 5)
    assert "not the Al-Salam-Carlitz family" in preset.description


# every public callable with a depth argument, on the charlier pair; at a negative depth each raises
# and names the depth its caller passed, rather than return an empty result or the bounds of a helper
NEGATIVE_DEPTH_CALLS = {
    "solve_moments": lambda depth: solve_moments(CHARLIER, Q1W1, 1, depth),
    "check_regular": lambda depth: check_regular(CHARLIER, Q1W1, depth),
    "recurrence": lambda depth: recurrence(CHARLIER, Q1W1, depth),
    "gram_matrix": lambda depth: gram_matrix(solve_moments(CHARLIER, Q1W1, 1, 8),
                                             recurrence(CHARLIER, Q1W1, 3).polys, depth),
    "pearson_residual": lambda depth: pearson_residual(CHARLIER, solve_moments(CHARLIER, Q1W1, 1, 8), depth),
    "gram_suite": lambda depth: verify.gram_suite(CHARLIER, Q1W1, depth),
}


@pytest.mark.parametrize("depth", [-1, -2])
@pytest.mark.parametrize("call", sorted(NEGATIVE_DEPTH_CALLS))
def test_negative_depth_named_in_the_error(call, depth):
    with pytest.raises(ValueError, match=f"^(depth must be|a moment table needs depth) >= 0, got {depth}$"):
        NEGATIVE_DEPTH_CALLS[call](depth)


def test_recurrence_table_needs_one_gamma_per_beta():
    with pytest.raises(ValueError, match="^beta and gamma need equal lengths, got 3 and 1$"):
        RecurrenceTable((F(1), F(2), F(3)), (F(1),))
