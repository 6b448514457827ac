import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_kernels as ref
from hahnpoly import functional, verify
from hahnpoly.classical import PRESETS
from hahnpoly.functional import MomentFunctional
from hahnpoly.poly import Poly
from hahnpoly.qnum import HahnFrame, q_bracket


def _poly_fault(op):
    """op, plus x^3 on the image of every f of degree >= 5."""
    def faulty(f, frame):
        out = op(f, frame)
        return out + Poly.monomial(3) if (f.degree() or 0) >= 5 else out
    return faulty


def _functional_fault(op):
    """op, plus 1 on y_2 of every image."""
    def faulty(*args):
        out = op(*args)
        moments = list(out.moments)
        moments[2] += 1
        return MomentFunctional(out.frame, tuple(moments))
    return faulty


# the checks that fail, over 28 cases at the default seed, when one operator is faulty
IDENTITY_FAULTS = {
    "op_D": {"D_division_vs_monomial", "D_y_basis_diagonal", "P3_D_L_commutation", "P3_D_L_star_commutation",
             "P3_D_star_D_commutation", "P4_D_star_L", "P4_functional_D_star_L", "P5_product_rule",
             "leibniz_polynomial"},
    "op_L": {"P1_iterated_L_substitution", "P2_L_star_L_identity", "P3_D_L_commutation", "P4_D_star_L",
             "P4a_L_multiplicative", "P5_product_rule", "leibniz_polynomial"},
    "op_L_star": {"P1_negative_powers", "P2_L_star_L_identity", "P3_D_L_star_commutation"},
    "op_D_star": {"P3_D_star_D_commutation", "P4_D_star_L"},
    "dist_L": {"P2_functional_L_star_L", "P4_functional_D_star_L", "P4a_functional_L_of_fu",
               "P6_functional_product_rule"},
    "dist_D": {"P4_functional_D_star_L", "P6_functional_product_rule", "leibniz_functional"},
    "dist_L_star": {"P2_functional_L_star_L"},
    "left_multiply": {"P4a_functional_L_of_fu", "P6_functional_product_rule", "leibniz_functional"},
}


@pytest.mark.parametrize("name", sorted(IDENTITY_FAULTS))
def test_identities_suite_fault_injection(monkeypatch, name):
    op = getattr(verify, name)
    monkeypatch.setattr(verify, name, (_poly_fault if name.startswith("op_") else _functional_fault)(op))
    checks = verify.identities_suite(cases=28)
    assert {c.name for c in checks if not c.passed} == IDENTITY_FAULTS[name]
    assert len(checks) == 17


# verify-level calls of identities_suite(cases=14, seed=20240817) when each case computes every
# image once; recomputing the images a case holds (D f and D h inside _leibniz, iterate lists
# from f, g, f g, u and h u) reads 235 op_D, 249 op_L, 73 op_L_star and 76 dist_D calls
CALL_COUNTS = {"op_D": 190, "op_L": 238, "op_L_star": 59, "dist_L": 42, "dist_D": 52}


def test_identities_suite_computes_each_image_once(monkeypatch):
    counts = dict.fromkeys(CALL_COUNTS, 0)

    def counted(name, op):
        def call(*args):
            counts[name] += 1
            return op(*args)
        return call

    for name in CALL_COUNTS:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    verify.identities_suite(cases=14, seed=20240817)
    assert counts == CALL_COUNTS


def test_integer_draws_equal_the_fraction_draws():
    # one case's draws, in the suite's order: equal values, and the rng left in the same state
    frames = verify.default_frames()
    for seed in range(100):
        fast, slow = random.Random(seed), random.Random(seed)
        frame = frames[seed % len(frames)]
        for max_degree in (10, 6):
            assert verify.random_poly(fast, max_degree) == ref.random_poly_fractions(slow, max_degree), seed
        assert verify.random_functional(fast, frame, 10) == ref.random_functional_fractions(slow, frame, 10), seed
        assert verify.random_poly(fast, 3) == ref.random_poly_fractions(slow, 3), seed
        assert fast.getstate() == slow.getstate(), seed


def test_default_frames_are_shared_and_read_like_fresh_ones():
    # one set of frame objects, in a new list per call, whose warm constants change no check
    first, second = verify.default_frames(), verify.default_frames()
    assert first is not second and all(a is b for a, b in zip(first, second)) and len(first) == 14
    fresh = [HahnFrame(f.q, f.omega) for f in first]
    for seed in range(10):
        assert verify.identities_suite(cases=14, seed=seed) == verify.identities_suite(fresh, 14, seed), seed


def test_identities_suite_keeps_the_first_failure(monkeypatch):
    # a fault on every case must be reported at case 0, the first case that shows it
    op_D = verify.op_D
    monkeypatch.setattr(verify, "op_D", lambda f, frame: op_D(f, frame) + Poly.monomial(3))
    checks = verify.identities_suite(cases=28)
    first = verify.default_frames()[0]
    assert {c.name: c.detail for c in checks}["D_division_vs_monomial"] \
        == f"case 0: frame q={first.q}, omega={first.omega}"
    assert len(checks) == 17


def test_dual_D_bracket_fault_fails_the_defining_pairing(monkeypatch):
    # dist_D and dist_D_star share _dual_D, so a wrong bracket index, [n+1]_q for [n]_q,
    # cancels from D*(L u) = q D u; the pairing <D* v, f> = -q <v, D f> reads op_D instead
    def shifted(v, factor):
        return MomentFunctional(v.frame, (Fraction(0),) + tuple(
            factor * q_bracket(n + 1, v.frame.q) * m for n, m in enumerate(v.moments, 1)))

    monkeypatch.setattr(functional, "_dual_D", shifted)
    checks = verify.identities_suite(cases=28)
    assert {c.name for c in checks if not c.passed} == {
        "P4_functional_D_star_L", "P6_functional_product_rule", "leibniz_functional"}


def _bench_oracle():
    """bench/oracle.py, loaded by path: it imports only fractions."""
    spec = importlib.util.spec_from_file_location(
        "bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_names_match_the_benchmark_oracle():
    # the benchmark judges a run by these names; a rename fails here, not as an incorrect run
    oracle = _bench_oracle()
    preset = PRESETS["al-salam-carlitz"]
    names = [c.name for c in verify.identities_suite(cases=1)]
    assert len(names) == len(set(names)) == 17 and set(names) == oracle.IDENTITY_CHECKS
    assert tuple(c.name for c in verify.gram_suite(preset.pear, preset.frame)) == oracle.GRAM_CHECKS
    assert tuple(c.name for c in verify.rodrigues_suite(preset.pear, preset.frame, n_max=5)) \
        == oracle.RODRIGUES_CHECKS


@pytest.mark.parametrize("kwargs", [{"frames": []}, {"cases": 0}, {"cases": -2}],
                         ids=["no frames", "zero cases", "negative cases"])
def test_identities_suite_rejects_an_empty_run(kwargs):
    # an empty frame list is not a request for the defaults, and no case run is no pass
    with pytest.raises(verify.SuiteArgumentError, match="^identities_suite needs a frame and cases >= 1"):
        verify.identities_suite(**kwargs)
