"""The value types are immutable and survive copy and pickle with equal == and hash."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction as F

import pytest

from hahnpoly.classical import PRESETS, Preset, check_regular, recurrence
from hahnpoly.functional import solve_moments
from hahnpoly.poly import Poly
from hahnpoly.qnum import HahnFrame, PearsonPair
from hahnpoly.poly import op_D, op_D_star, op_L_star, to_y_basis
from hahnpoly.verify import Check, gram_suite, identities_suite, norms_suite, rodrigues_suite

CHARLIER = PRESETS["charlier"]

# (value, a field, a property or None) per value type
VALUES = {
    "Poly": (Poly([F(2**80 + 1, 3**50), F(-7, 4), 0, 5]), "nums", "coeffs"),
    "MomentFunctional": (solve_moments(CHARLIER.pear, CHARLIER.frame, F(1, 3), 8), "nums", "moments"),
    "RecurrenceTable": (recurrence(CHARLIER.pear, CHARLIER.frame, 4), "beta", "depth"),
    "RegularityReport": (check_regular(CHARLIER.pear, CHARLIER.frame, 4), "admissible", "regular"),
    "HahnFrame": (HahnFrame(F(1, 2), F(-1, 3)), "q", "omega0"),
    "PearsonPair": (PearsonPair(1, -3, 2, -4, 1), "a", None),
    "Preset": (Preset("p", PearsonPair(0, 1, 0, -1, F(1, 2)), HahnFrame(1, 1), "a preset"), "name", None),
    "Check": (Check("x", "broke at n=1"), "detail", "passed"),
}
CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v))}


@pytest.mark.parametrize("kind", VALUES)
def test_assignment_raises_attribute_error(kind):
    value, field, prop = VALUES[kind]
    for name in (field, prop, "extra"):
        if name is not None:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    assert getattr(value, field) is not None and "extra" not in getattr(value, "__dict__", {})


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@pytest.mark.parametrize("kind", VALUES)
def test_clone_is_equal_with_equal_hash(kind, clone):
    value = VALUES[kind][0]
    out = clone(value)
    assert type(out) is type(value) and out == value and hash(out) == hash(value)


def test_poly_hash_is_hash_of_its_integers():
    for p in (Poly(), Poly([F(-3, 4)]), VALUES["Poly"][0]):
        assert hash(p) == hash((p.nums, p.den))


def warm_frame(q, omega):
    """A frame that has built its reciprocal, its divisor and its power and bracket tables."""
    frame = HahnFrame(q, omega)
    f = Poly([1, F(-2, 3), 5, F(7, 2)])
    op_D(f, frame), op_D_star(f, frame), op_L_star(f, frame), to_y_basis(f, frame)
    assert {"_reciprocal", "_divisor", "_table_set"} <= set(vars(frame))
    return frame


def test_warm_frame_is_the_value_of_a_fresh_one():
    fresh, warm = HahnFrame(F(1, 2), F(-1, 3)), warm_frame(F(1, 2), F(-1, 3))
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    for clone in CLONES.values():
        out = clone(warm)
        assert out == warm and hash(out) == hash(warm)
    # a pickle carries q and omega alone, not the constants the frame has built
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    for name in ("q", "omega"):
        with pytest.raises(AttributeError):
            setattr(warm, name, F(2))
    assert (warm.q, warm.omega) == (F(1, 2), F(-1, 3))


def test_frame_tables_regrow_at_twice_the_length_asked():
    frame = HahnFrame(F(-2, 3), F(5, 7))
    tables = frame._tables(20)
    assert [len(table) for table in tables] == [42] * 4
    assert frame._tables(41) is tables and frame._tables(0) is tables
    regrown = frame._tables(42)
    assert regrown is not tables and [len(table) for table in regrown] == [86] * 4
    for kept in (tables, regrown):
        # a fresh frame asked for top builds 2 (top + 1) entries, the length kept here
        assert kept == HahnFrame(frame.q, frame.omega)._tables(len(kept[0]) // 2 - 1)


def test_frame_holds_one_table_set_after_suites():
    frame = HahnFrame(F(1, 2), F(1, 3))
    pear = PRESETS["al-salam-carlitz"].pear
    for checks in (gram_suite(pear, frame), rodrigues_suite(pear, frame), norms_suite(pear, frame),
                   identities_suite([frame], 3)):
        assert all(c.passed for c in checks), checks
    for f in (frame, frame.reciprocal()):
        assert set(vars(f)) == {"q", "omega", "_reciprocal", "_divisor", "_table_set"}
        # callers only slice the tables: after all that work they still equal freshly built ones
        kept = vars(f)["_table_set"]
        assert kept == HahnFrame(f.q, f.omega)._tables(len(kept[0]) // 2 - 1)


def test_frame_freed_after_suites():
    # the frame and its reciprocal refer to each other; that cycle must not outlive the frame
    frame = warm_frame(F(1, 2), F(1, 3))
    pear = PRESETS["al-salam-carlitz"].pear
    for checks in (gram_suite(pear, frame), rodrigues_suite(pear, frame), norms_suite(pear, frame),
                   identities_suite([frame], 3)):
        assert all(c.passed for c in checks), checks
    refs = weakref.ref(frame), weakref.ref(frame.reciprocal())
    del frame, checks
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_frame_tables_stay_linear_in_the_longest_length():
    # one long-lived frame asked for every depth up to 200 keeps tables of at most about twice that
    frame = HahnFrame(1, F(1, 3))
    for n in range(1, 201):
        solve_moments(CHARLIER.pear, frame, 1, n).power_moments()
    tables = frame._tables(0)
    assert len(tables) == 4 and all(200 <= len(table) <= 2 * 200 for table in tables)
