"""The value types are immutable and survive copy and pickle with equal == and hash."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from hahnpoly.classical import PRESETS, Preset, check_regular, recurrence
from hahnpoly.functional import solve_moments
from hahnpoly.poly import Poly
from hahnpoly.qnum import HahnFrame, PearsonPair
from hahnpoly.verify import Check

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
