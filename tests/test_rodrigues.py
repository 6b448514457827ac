from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from hahnpoly.classical import PRESETS, get_preset, recurrence
from hahnpoly.functional import (
    InsufficientMomentsError,
    left_multiply,
    solve_moments,
)
from hahnpoly.poly import Poly, op_L
from hahnpoly.qnum import HahnFrame, PearsonPair, rodrigues_constant
from hahnpoly import verify
from hahnpoly.rodrigues import moment_depth_for, phi_product, rodrigues_rhs

CHARLIER = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))
Q1W1 = HahnFrame(F(1), F(1))


def assert_rodrigues_holds(pear, frame, u, table, n, test_degree=8):
    # both windows must reach test_degree, or the slices below compare shorter vectors
    lhs = left_multiply(table.polys[n], u)
    rhs = rodrigues_rhs(pear, frame, u, n)
    assert min(lhs.max_degree, rhs.max_degree) >= test_degree
    assert lhs.moments[: test_degree + 1] == rhs.moments[: test_degree + 1]


class TestPhiProduct:
    def test_empty_product(self):
        assert phi_product(CHARLIER, Q1W1, 0) == Poly([1])

    def test_single_factor_is_shifted_phi(self):
        frame = HahnFrame(F(2), F(1))
        pear = PearsonPair(F(1), F(-1), F(2), F(1), F(0))
        phi = Poly([pear.c, pear.b, pear.a])
        assert phi_product(pear, frame, 1) == op_L(phi, frame)

    def test_two_linear_factors(self):
        # phi = x, q = 2, omega = 1: factors 2x+1 and 4x+3
        pear = PearsonPair(F(0), F(1), F(0), F(1), F(0))
        frame = HahnFrame(F(2), F(1))
        assert phi_product(pear, frame, 2) == Poly([1, 2]) * Poly([3, 4])

    def test_degree(self):
        preset = get_preset("al-salam-carlitz")
        for n in range(5):
            assert phi_product(preset.pear, preset.frame, n).degree() == 2 * n

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            phi_product(CHARLIER, Q1W1, -1)


class TestRodriguesRhs:
    def test_n0_is_identity(self):
        u = solve_moments(CHARLIER, Q1W1, 1, 12)
        assert rodrigues_rhs(CHARLIER, Q1W1, u, 0).moments[:13] == u.moments

    def test_n1_equals_p1_u(self):
        # at n = 1 the identity collapses to P_1 u = q k_1 psi u
        for preset in PRESETS.values():
            pear, frame = preset.pear, preset.frame
            u = solve_moments(pear, frame, 1, 16)
            table = recurrence(pear, frame, 4)
            rhs = rodrigues_rhs(pear, frame, u, 1)
            lhs = left_multiply(table.polys[1], u)
            for m in range(10):
                assert rhs.moments[m] == lhs.moments[m]
            direct = left_multiply(
                Poly([pear.e, pear.d]), u
            ).scale(frame.q * rodrigues_constant(pear, frame, 1))
            for m in range(10):
                assert rhs.moments[m] == direct.moments[m]


class TestVerifyRodrigues:
    def test_presets_small_orders(self):
        for preset in PRESETS.values():
            depth = moment_depth_for(preset.pear, 3, 8) + 4
            u = solve_moments(preset.pear, preset.frame, 1, depth)
            table = recurrence(preset.pear, preset.frame, 6)
            for n in range(4):
                assert_rodrigues_holds(preset.pear, preset.frame, u, table, n)

    def test_detects_wrong_polynomial(self, monkeypatch):
        polys = list(recurrence(CHARLIER, Q1W1, 2).polys)
        polys[2] = polys[2] + Poly([1])
        monkeypatch.setattr(verify, "recurrence", lambda *args, **kwargs: SimpleNamespace(polys=polys))
        checks = verify.rodrigues_suite(CHARLIER, Q1W1, n_max=2)
        assert [c.passed for c in checks] == [True, True, False]
        assert checks[2].detail == "first mismatch at Y-degree 0"

    def test_window_too_small_raises(self, monkeypatch):
        # a table too short for test_degree is an error, never a pass on a shorter window
        monkeypatch.setattr(verify, "moment_depth_for", lambda pear, n, test_degree: 0)
        with pytest.raises(InsufficientMomentsError, match="test degree 8 exceeds valid window"):
            verify.rodrigues_suite(CHARLIER, Q1W1, n_max=4, test_degree=8)

    def test_admissible_irregular_pair_still_matches(self):
        # gamma_2 = 0, yet the identity holds for the quasi-orthogonal sequence
        pear = PearsonPair(F(0), F(1), F(0), F(-2), F(1))
        table = recurrence(pear, Q1W1, 6, require_regular=False)
        u = solve_moments(pear, Q1W1, 1, 24)
        for n in range(4):
            assert_rodrigues_holds(pear, Q1W1, u, table, n)
        assert all(c.passed for c in verify.rodrigues_suite(pear, Q1W1, n_max=3, require_regular=False))


class TestMomentDepthFor:
    def test_sized_window_suffices(self):
        preset = get_preset("meixner")
        for n in range(5):
            depth = moment_depth_for(preset.pear, n, 8)
            u = solve_moments(preset.pear, preset.frame, 1, depth)
            table = recurrence(preset.pear, preset.frame, n + 1)
            assert_rodrigues_holds(preset.pear, preset.frame, u, table, n)


class TestRodriguesSuite:
    def test_route_disagreement_fails_the_check(self, monkeypatch):
        # the witness still matches; only the iterated route is corrupted
        derived_functional = verify.derived_functional
        monkeypatch.setattr(verify, "derived_functional",
                            lambda *args: derived_functional(*args).scale(2))
        checks = verify.rodrigues_suite(CHARLIER, Q1W1, n_max=2)
        assert checks[0].passed
        assert [c.passed for c in checks[1:]] == [False, False]
        assert checks[1].detail == "derived-functional routes disagree at Y-degree 0"

    def test_witness_mismatch_names_degree(self, monkeypatch):
        rhs = verify._rhs
        monkeypatch.setattr(verify, "_rhs", lambda pear, frame, derived, n: rhs(
            pear, frame, derived, n).scale(1 if n < 2 else 3))
        checks = verify.rodrigues_suite(CHARLIER, Q1W1, n_max=2)
        assert [c.passed for c in checks] == [True, True, False]
        assert checks[2].detail == "first mismatch at Y-degree 2"
