import functools
import random
from fractions import Fraction as F

import pytest

from hahnpoly.classical import PRESETS, RecurrenceTable, RegularityError, check_regular, get_preset, recurrence
from hahnpoly.functional import (
    InsufficientMomentsError,
    MomentFunctional,
    _rhs,
    dist_L,
    left_multiply,
    rodrigues_rhs,
    solve_moments,
)
from hahnpoly.poly import Poly, _iterates, op_L
from hahnpoly.qnum import AdmissibilityError, HahnFrame, PearsonPair, rodrigues_constant
from hahnpoly import verify
from hahnpoly.verify import SuiteArgumentError, moment_depth_for
from reference_kernels import phi_product

CHARLIER = PearsonPair(F(0), F(1), F(0), F(-1), F(1, 2))
Q1W1 = HahnFrame(F(1), F(1))


def assert_rodrigues_holds(pear, frame, u, table, n, test_degree=8):
    # both windows must reach test_degree, or the slices below compare shorter vectors
    lhs = left_multiply(table.polys[n], u)
    rhs = rodrigues_rhs(pear, u, n)
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
        assert rodrigues_rhs(CHARLIER, u, 0).moments[:13] == u.moments

    def test_n1_equals_p1_u(self):
        # at n = 1 the identity collapses to P_1 u = q k_1 psi u
        for preset in PRESETS.values():
            pear, frame = preset.pear, preset.frame
            u = solve_moments(pear, frame, 1, 16)
            table = recurrence(pear, frame, 4)
            rhs = rodrigues_rhs(pear, u, 1)
            lhs = left_multiply(table.polys[1], u)
            assert rhs.moments[:10] == lhs.moments[:10]
            direct = left_multiply(
                Poly([pear.e, pear.d]), u
            ).scale(frame.q * rodrigues_constant(pear, frame, 1))
            assert rhs.moments[:10] == direct.moments[:10]


    def test_frame_comes_from_the_functional(self):
        # k_n, D* and u^[n] all read u.frame; a separate frame argument is gone
        preset = get_preset("little-q-laguerre")
        u = solve_moments(preset.pear, preset.frame, 1, moment_depth_for(preset.pear, 2, 8))
        assert rodrigues_rhs(preset.pear, u, 2).moments[2] == 60
        with pytest.raises(TypeError):
            rodrigues_rhs(preset.pear, HahnFrame(F(2), F(1)), u, 2)


class TestVerifyRodrigues:
    def test_presets_small_orders(self):
        for preset in PRESETS.values():
            depth = moment_depth_for(preset.pear, 3, 8) + 4
            u = solve_moments(preset.pear, preset.frame, 1, depth)
            table = recurrence(preset.pear, preset.frame, 6)
            for n in range(4):
                assert_rodrigues_holds(preset.pear, preset.frame, u, table, n)

    def test_detects_wrong_polynomial(self, monkeypatch):
        # gamma_1 - 1 turns P_2 = (x - beta_1) P_1 - gamma_1 P_0 into P_2 + 1
        table = recurrence(CHARLIER, Q1W1, 2)
        wrong = RecurrenceTable(table.beta, (table.gamma[0], table.gamma[1] - 1) + table.gamma[2:])
        assert wrong.polys[2] == table.polys[2] + Poly([1])
        monkeypatch.setattr(verify, "recurrence", lambda *args, **kwargs: wrong)
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

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_smallest_window_at_every_test_degree(self, name):
        # below test_degree = n, deg phi = 2 makes Phi(.; n) L^n u, not the test degree, set the window
        preset = PRESETS[name]
        table = recurrence(preset.pear, preset.frame, 6)
        for n in range(6):
            for test_degree in range(9):
                depth = moment_depth_for(preset.pear, n, test_degree)
                u = solve_moments(preset.pear, preset.frame, 1, depth)
                assert_rodrigues_holds(preset.pear, preset.frame, u, table, n, test_degree)
                if depth:
                    short = u.truncate(depth - 1)
                    outcome = _route_outcome(rodrigues_rhs, preset.pear, short, n)
                    assert outcome is InsufficientMomentsError or min(outcome[0], depth - 1 - n) < test_degree


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
        monkeypatch.setattr(verify, "_rhs", lambda pear, derived, n: rhs(
            pear, derived, n).scale(1 if n < 2 else 3))
        checks = verify.rodrigues_suite(CHARLIER, Q1W1, n_max=2)
        assert [c.passed for c in checks] == [True, True, False]
        assert checks[2].detail == "first mismatch at Y-degree 2"

    @pytest.mark.parametrize("argument", ["n_max", "test_degree"])
    def test_negative_argument_rejected(self, argument):
        # test_degree = -1 would compare no Y-degree and still pass every check
        with pytest.raises(SuiteArgumentError, match=f"{argument} must be >= 0, got -1"):
            verify.rodrigues_suite(CHARLIER, Q1W1, **{argument: -1})


# Frames and pairs on which the two forms of u^[n] are compared: negative and
# non-integer q, a 64-bit (q, omega), zero coefficients (phi = 0, d = 0, so d_n
# may vanish and the pair is inadmissible) and 64-bit coefficients.
ROUTE_FRAMES = [
    HahnFrame(F(1), F(1)),
    HahnFrame(F(1, 2), F(0)),
    HahnFrame(F(3, 5), F(-1, 3)),
    HahnFrame(F(-3), F(1)),
    HahnFrame(F(5, 2), F(-2, 3)),
    HahnFrame(F(2**63 - 25, 2**61 + 1), F(-(2**62) - 3, 2**60 - 7)),
]


def _route_coefficient(rng):
    kind = rng.random()
    if kind < 0.2:
        return F(0)
    if kind < 0.3:
        return F(rng.randint(-(2**63), 2**63), rng.randint(1, 2**63))
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _route_pair(rng):
    while True:
        coeffs = [_route_coefficient(rng) for _ in range(5)]
        if any(coeffs):  # PearsonPair rejects phi = psi = 0
            return PearsonPair(*coeffs)


def _closed_form_rhs(pear, frame, u, n):
    """k_n (D*)^n of Phi(.; n) L^n u, the closed form of u^[n]."""
    return _rhs(pear, left_multiply(phi_product(pear, frame, n), _iterates(dist_L, u, n)[-1]), n)


def _route_outcome(fn, *args):
    """The moments and window of fn's result, or the type of the error it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return out.max_degree, out.moments


def test_rodrigues_rhs_matches_closed_form():
    # rodrigues_rhs reads the iterated derived_functional; the oracle differentiates Phi(.; n) L^n u
    rng = random.Random(20)
    for case in range(1500):
        frame = ROUTE_FRAMES[case % len(ROUTE_FRAMES)]
        pear = _route_pair(rng)
        u = MomentFunctional(frame, tuple(F(rng.randint(-9, 9), rng.randint(1, 5))
                                          for _ in range(rng.randint(1, 22))))
        n = rng.randint(0, 6)
        assert _route_outcome(rodrigues_rhs, pear, u, n) == _route_outcome(
            _closed_form_rhs, pear, frame, u, n), (case, pear, frame, n, u.max_degree)


# the windows the pair suites solved to before each was sized from the indices its checks read
WINDOW_FRAMES = verify.default_frames() + [
    HahnFrame(q, omega) for q in (F(5, 2), F(-3)) for omega in verify.FRAME_OMEGA_VALUES
]


def _window_coefficient(rng):
    return F(0) if rng.random() < 0.25 else F(rng.randint(-3, 3), rng.randint(1, 2))


def _suite_outcome(suite):
    """The checks of suite(), or the type of the error it raised."""
    try:
        return suite()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _window_cases(rng):
    """Random pairs over WINDOW_FRAMES, then pairs on which d_m vanishes at m = 14..28 or
    phi_root_condition fails at n = 6..13, inside the padded windows but past the suites' own."""
    for case in range(200):
        coeffs = [_window_coefficient(rng) for _ in range(5)]
        if any(coeffs):
            yield PearsonPair(*coeffs), WINDOW_FRAMES[case % len(WINDOW_FRAMES)]
    yield from ((PearsonPair(1, 0, 1, -m, 1), Q1W1) for m in range(14, 29))
    yield from ((PearsonPair(0, 1, 0, -2, e), Q1W1) for e in range(6, 14))


def test_pair_suites_read_only_their_windows(monkeypatch):
    # each suite at its own window against the padded one: the same checks wherever the padded one runs,
    # and where only the own window runs, every check passes
    solve, rec = verify.solve_moments, verify.recurrence
    rng = random.Random(27)
    seen = {"irregular": 0, "padded_only_rejects": 0}
    for case, (pear, frame) in enumerate(_window_cases(rng)):
        n_max, test_degree = rng.randint(0, 5), rng.randint(0, 10)
        deg_phi = Poly([pear.c, pear.b, pear.a]).degree() or 0
        padded = test_degree + max(n_max, n_max * deg_phi - n_max) + 2 * n_max + 2
        # each suite, its padded moment table and recurrence, and the depth to which an irregular pair is counted
        runs = [
            (functools.partial(verify.rodrigues_suite, pear, frame, n_max, test_degree, require_regular=False),
             lambda pp, fr, y0, depth: solve(pp, fr, y0, padded), rec, n_max),
            (functools.partial(verify.norms_suite, pear, frame),
             lambda pp, fr, y0, depth: solve(pp, fr, y0, 30),
             lambda pp, fr, depth, y0=1, require_regular=True: rec(pp, fr, depth + 5, y0, require_regular), 20),
        ]
        for suite, padded_solve, padded_recurrence, depth in runs:
            where = (case, pear, frame, suite.func.__name__)
            exact = _suite_outcome(suite)
            with monkeypatch.context() as m:
                m.setattr(verify, "solve_moments", padded_solve)
                m.setattr(verify, "recurrence", padded_recurrence)
                before = _suite_outcome(suite)
            if isinstance(before, list):
                assert exact == before, where
                seen["irregular"] += not check_regular(pear, frame, depth).regular
            elif isinstance(exact, list):
                assert all(c.passed for c in exact), where
                seen["padded_only_rejects"] += 1
            else:  # both negative, though the exact window may meet the vanishing d_m in the other table first
                negative = (AdmissibilityError, RegularityError)
                assert exact is before or issubclass(exact, negative) and issubclass(before, negative), where
    assert min(seen.values()) >= 10, seen
