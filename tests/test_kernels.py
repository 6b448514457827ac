"""The banded moment-space kernels against the basis-expansion oracles.

Every comparison is exact equality of Fractions and of validity windows
(max_degree), on all default frames and random tables of depth <= 16.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from hahnpoly import classical, functional
from hahnpoly.classical import PRESETS, recurrence
from hahnpoly.functional import InsufficientMomentsError, MomentFunctional, solve_moments
from hahnpoly.poly import Poly, to_y_basis
from hahnpoly.verify import default_frames

FRAMES = default_frames()
DIST_OPS = ("dist_D", "dist_D_star", "dist_L", "dist_L_star")

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=5)
table_st = st.lists(coeff_st, min_size=1, max_size=17)
poly_st = st.lists(coeff_st, max_size=17).map(Poly)
checked = settings(deadline=None, max_examples=15)


def frame_id(frame):
    return f"q={frame.q},omega={frame.omega}"


def outcome(fn, *args):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (InsufficientMomentsError, ValueError) as exc:
        return type(exc), str(exc)


def test_default_frames_count():
    assert len(FRAMES) == 14


@pytest.mark.parametrize("frame", FRAMES, ids=frame_id)
class TestAgainstOracles:
    @checked
    @given(poly_st)
    def test_to_y_basis(self, frame, f):
        assert to_y_basis(f, frame) == ref.to_y_basis(f, frame)

    @checked
    @given(table_st)
    def test_dual_operators(self, frame, values):
        u = MomentFunctional(frame, tuple(values))
        for name in DIST_OPS:
            fast, slow = getattr(functional, name)(u), getattr(ref, name)(u)
            assert fast.max_degree == slow.max_degree, name
            assert fast.moments == slow.moments, name

    @checked
    @given(table_st, poly_st)
    def test_left_multiply(self, frame, values, f):
        u = MomentFunctional(frame, tuple(values))
        fast = outcome(functional.left_multiply, f, u)
        slow = outcome(ref.left_multiply, f, u)
        if isinstance(slow, MomentFunctional):
            assert fast.max_degree == slow.max_degree
            assert fast.moments == slow.moments
        else:
            assert fast == slow

    @checked
    @given(table_st)
    def test_power_moments(self, frame, values):
        u = MomentFunctional(frame, tuple(values))
        assert u.power_moments() == ref.power_moments(u)

    @checked
    @given(table_st, st.lists(st.lists(coeff_st, max_size=9).map(Poly), min_size=1, max_size=6),
           st.integers(-1, 6))
    def test_gram_matrix(self, frame, values, polys, depth):
        u = MomentFunctional(frame, tuple(values))
        assert outcome(classical.gram_matrix, u, polys, depth) == outcome(
            ref.gram_matrix, u, polys, depth
        )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gram_matrix_on_presets(name):
    preset = PRESETS[name]
    table = recurrence(preset.pear, preset.frame, 8)
    u = solve_moments(preset.pear, preset.frame, F(3, 2), 16)
    assert classical.gram_matrix(u, table.polys, 8) == ref.gram_matrix(u, table.polys, 8)
    assert outcome(classical.gram_matrix, u.truncate(15), table.polys, 8) == outcome(
        ref.gram_matrix, u.truncate(15), table.polys, 8
    )
