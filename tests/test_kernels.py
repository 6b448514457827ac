"""The banded moment-space kernels against the basis-expansion oracles.

Every comparison is exact equality of Fractions and of validity windows
(max_degree), on all default frames and random tables of depth <= 16; the
Gram suite is compared check by check on random regular pairs and on the
presets fuzzed at every moment index, with the Gram matrix and the expanded
P_n made unreadable. The integer-numerator kernels are also run at
500-2000-bit coefficients on frames with negative q and omega, and on the
zero and constant polynomials. The per-entry integer moment kernels are
compared with the Fraction-entry kernels they replaced, entry by entry and
as canonical (nums, dens), on small and on tall-denominator tables.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as ref
from hahnpoly import classical, functional, verify
from hahnpoly.classical import PRESETS, RecurrenceTable, check_regular, recurrence
from hahnpoly.functional import InsufficientMomentsError, MomentFunctional, solve_moments
from hahnpoly.poly import Poly, _y_node_ints, op_D, op_D_star, op_L, op_L_star, to_y_basis, y_basis
from hahnpoly.qnum import HahnFrame, PearsonPair, _ints, q_bracket
from hahnpoly.verify import SuiteArgumentError, default_frames, gram_suite

FRAMES = default_frames()
DIST_OPS = ("dist_D", "dist_D_star", "dist_L", "dist_L_star")

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=5)
table_st = st.lists(coeff_st, min_size=1, max_size=17)
poly_st = st.lists(coeff_st, max_size=17).map(Poly)
checked = settings(deadline=None, max_examples=15)


def frame_id(frame):
    return f"q={frame.q},omega={frame.omega}"


def sigma_rows(u, table, depth):
    """The mixed moments sigma_{k,l} = <u, P_k Y_l>, l <= 2 depth - k, as Fractions of the integer rows."""
    rows = classical._chebyshev_rows(table, depth, u.frame, _ints(u.moments[: 2 * depth + 1]))
    return [[F(s, den) for s in row] for row, den in rows]


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
    @given(poly_st)
    def test_compose_affine(self, frame, f):
        q, omega = frame.q, frame.omega
        for alpha, beta in ((q, omega), (1 / q, -omega / q)):  # L and L*
            assert f.compose_affine(alpha, beta) == ref.compose_affine(f, alpha, beta)

    @checked
    @given(poly_st, poly_st)
    def test_op_D_and_product(self, frame, f, g):
        assert op_D(f, frame) == ref.op_D(f, frame)
        assert op_D_star(f, frame) == ref.op_D_star(f, frame)
        assert f * g == ref.mul(f, g)

    def test_y_nodes(self, frame):
        nodes, t = _y_node_ints(frame, 12)
        expected = [frame.omega * q_bracket(j, frame.q) for j in range(12)]
        assert [F(node, t) for node in nodes] == expected
        # y_basis multiplies out prod (t x - N_j) on integers; the oracle multiplies Fraction factors
        product = Poly([1])
        for n, node in enumerate(expected):
            assert y_basis(n, frame) == product
            product = ref.mul(product, Poly([-node, 1]))

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

    @checked
    @given(st.lists(coeff_st, min_size=13, max_size=13), st.lists(coeff_st, min_size=7, max_size=7),
           st.integers(0, 6))
    def test_mixed_moments(self, frame, values, coeffs, depth):
        # any beta, gamma define a monic family by the three-term recurrence
        table = RecurrenceTable(tuple(coeffs), (F(1),) + tuple(c + 1 for c in coeffs[:6]))
        u = MomentFunctional(frame, tuple(values[: 2 * depth + 1]))
        sigma = sigma_rows(u, table, depth)
        assert [len(row) for row in sigma] == [2 * depth - k + 1 for k in range(depth + 1)]
        for k, row in enumerate(sigma):
            for l, s in enumerate(row):
                assert s == ref.pair(u, ref.mul(table.polys[k], y_basis(l, frame))), (k, l)


NODE_FRAMES = FRAMES + [HahnFrame(q, omega) for q in (F(5, 2), F(-3), F(31, 37))
                        for omega in (F(0), F(1), F(-1, 3), F(5, 41))]


@pytest.mark.parametrize("frame", NODE_FRAMES, ids=frame_id)
def test_y_nodes_in_lowest_terms(frame):
    # the nodes come reduced where they are built: t > 0, no factor common to t and every N_j,
    # and at omega = 0 every node is 0 over t = 1 (unreduced, t would be qd^(n-2))
    for n in range(41):
        nodes, t = _y_node_ints(frame, n)
        assert t > 0 and gcd(t, *nodes) == 1, n
        assert [F(node, t) for node in nodes] == [frame.omega * q_bracket(j, frame.q) for j in range(n)], n
        if frame.omega == 0:
            assert (nodes, t) == ([0] * n, 1), n


# asked of one frame object in this order: the first length builds its tables, at twice that length,
# and the others read shorter and longer slices of them
GROWN_LENGTHS = (30, 3, 0, 1, 17, 45, 5)
# past those tables, so the frame rebuilds them; the oracles take seconds there, so a fresh frame is the reference
REGROWN_LENGTH = 64


def grown_inputs(frame, n):
    """A polynomial of n coefficients and a moment table of degree n over frame."""
    f = Poly([F((-1) ** k * (k % 7 + 1), k % 3 + 1) for k in range(n)])
    return f, MomentFunctional(frame, [F(k % 5 - 2, k % 4 + 1) for k in range(n + 1)])


def grown_outputs(frame, n, kernels):
    f, u = grown_inputs(frame, n)
    out = {name: kernels[name](f, frame) for name in ("op_L", "op_L_star", "op_D", "op_D_star", "to_y_basis")}
    out.update({name: kernels[name](u) for name in (*DIST_OPS, "power_moments")})
    out.update(left_multiply=kernels["left_multiply"](f, u), pair=kernels["pair"](u, f))
    return out


LIBRARY_KERNELS = {"op_L": op_L, "op_L_star": op_L_star, "op_D": op_D, "op_D_star": op_D_star,
                   "to_y_basis": to_y_basis, "power_moments": MomentFunctional.power_moments,
                   "left_multiply": functional.left_multiply, "pair": functional.pair,
                   **{name: getattr(functional, name) for name in DIST_OPS}}
# the Fraction-entry recurrences stand in for the dist_* expansion oracles, which take seconds at degree 45;
# they read the nodes of _y_node_ints, which the test pins to q_bracket
ORACLE_KERNELS = {**{name: getattr(ref, name) for name in LIBRARY_KERNELS},
                  **{name: getattr(ref, f"fraction_{name}") for name in DIST_OPS}}


@pytest.mark.parametrize("frame", NODE_FRAMES + [HahnFrame(F(5, 2), F(1, 3))], ids=frame_id)
def test_grown_frame_against_oracles(frame):
    grown = HahnFrame(frame.q, frame.omega)
    for n in GROWN_LENGTHS:
        expected_nodes = [frame.omega * q_bracket(j, frame.q) for j in range(n)]
        nodes, t = _y_node_ints(grown, n)
        assert t > 0 and gcd(t, *nodes) == 1, n
        assert [F(node, t) for node in nodes] == expected_nodes, n
        product = Poly([1])  # Y_n as a product of Fraction factors
        for node in expected_nodes:
            product = ref.mul(product, Poly([-node, 1]))
        expected = grown_outputs(frame, n, ORACLE_KERNELS)
        for fr in (grown, HahnFrame(frame.q, frame.omega)):
            assert y_basis(n, fr) == product, n
            assert grown_outputs(fr, n, LIBRARY_KERNELS) == expected, n
    nodes, t = _y_node_ints(grown, REGROWN_LENGTH)
    assert [F(node, t) for node in nodes] == [frame.omega * q_bracket(j, frame.q) for j in range(REGROWN_LENGTH)]
    fresh = HahnFrame(frame.q, frame.omega)
    assert grown_outputs(grown, REGROWN_LENGTH, LIBRARY_KERNELS) == grown_outputs(fresh, REGROWN_LENGTH, LIBRARY_KERNELS)


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gram_matrix_on_presets(name, depth):
    preset = PRESETS[name]
    table = recurrence(preset.pear, preset.frame, depth)
    u = solve_moments(preset.pear, preset.frame, F(3, 2), 2 * depth)
    assert classical.gram_matrix(u, table.polys, depth) == ref.gram_matrix(u, table.polys, depth)
    short = u.truncate(2 * depth - 1)  # P_depth^2 passes the table
    assert outcome(classical.gram_matrix, short, table.polys, depth) == outcome(
        ref.gram_matrix, short, table.polys, depth
    )


small_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_st = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def gram_case(draw, frame):
    """A pair regular to the drawn depth, and a fuzz index that some check reads."""
    depth = draw(st.integers(0, 12))
    pear = PearsonPair(draw(small_st), draw(small_st), draw(small_st),
                       draw(nonzero_st), draw(small_st))
    assume(check_regular(pear, frame, depth).regular)
    fuzz = draw(st.none() | st.integers(0, max(2 * depth, 21)))
    return pear, depth, fuzz


@pytest.mark.parametrize("frame", FRAMES, ids=frame_id)
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_gram_suite_against_gram_matrix(frame, data):
    pear, depth, fuzz = data.draw(gram_case(frame))
    # the moment table runs past depth, so an admissibility failure there is a shared outcome
    assert outcome(gram_suite, pear, frame, depth, F(1), fuzz) == outcome(
        ref.gram_suite, pear, frame, depth, F(1), fuzz
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gram_suite_depth_40(name, monkeypatch):
    def unread(table):
        raise AssertionError("a clean gram_suite expanded the polynomials")

    monkeypatch.setattr(RecurrenceTable, "polys", property(unread))
    preset = PRESETS[name]
    checks = gram_suite(preset.pear, preset.frame, depth=40)
    assert [c.name for c in checks] == [
        "pearson_residual_zero", "gram_off_diagonal_zero", "gram_diagonal_product_of_gammas"
    ]
    assert all(c.passed for c in checks), checks


def test_gram_suite_negative_depth_rejected():
    preset = PRESETS["charlier"]
    with pytest.raises(SuiteArgumentError, match="depth must be >= 0, got -1"):
        gram_suite(preset.pear, preset.frame, depth=-1)


def _preset_gram_inputs(name, depth):
    preset = PRESETS[name]
    table = recurrence(preset.pear, preset.frame, depth)
    u = solve_moments(preset.pear, preset.frame, 1, 2 * depth)
    return preset.frame, table, u


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_chebyshev_rows_on_presets(name):
    # sigma rows and Y-coefficient rows, as Fractions, against the oracles to depth 40
    frame, table, u = _preset_gram_inputs(name, 40)
    coeffs = classical._chebyshev_rows(table, 40, frame)
    assert [[F(c, den) for c in row] for row, den in coeffs] == [
        ref.to_y_basis(p, frame) for p in table.polys[:41]
    ]
    sigma = sigma_rows(u, table, 40)
    for k in (1, 40):  # every row is compared at depth <= 6 in TestAgainstOracles
        assert sigma[k] == [ref.pair(u, ref.mul(table.polys[k], y_basis(l, frame)))
                            for l in range(81 - k)], k


# pairs and frames with tall, unrelated denominators, regular to depth 30
TALL_PAIRS = [
    (PearsonPair(F(7, 11), F(-5, 13), F(3, 17), F(-19, 23), F(2, 29)), HahnFrame(F(31, 37), F(5, 41))),
    (PearsonPair(F(-3, 19), F(11, 7), F(-13, 31), F(17, 43), F(-23, 47)), HahnFrame(F(53, 59), F(-2, 61))),
]


def tall_id(case):
    return f"q={case[1].q}"


@pytest.mark.parametrize("case", TALL_PAIRS, ids=tall_id)
@pytest.mark.parametrize("depth, rows", [(8, range(9)), (20, (0, 1, 2, 10, 19, 20))])
def test_chebyshev_rows_on_tall_pairs(case, depth, rows):
    pear, frame = case
    table = recurrence(pear, frame, depth)
    polys = ref.recurrence_polys(table.beta, table.gamma)
    u = solve_moments(pear, frame, 1, 2 * depth)
    # sigma rows are not divided by their content: read by value, they are the mixed moments
    sigma = sigma_rows(u, table, depth)
    for k in rows:
        assert sigma[k] == [ref.pair(u, ref.mul(polys[k], ref.y_basis(l, frame)))
                            for l in range(2 * depth - k + 1)], k
    # Y-coefficient rows, and the monomial rows that table.polys wraps, are the canonical form of P_k
    for got, expected in ((classical._chebyshev_rows(table, depth, frame), [ref.to_y_basis(p, frame) for p in polys]),
                          (classical._chebyshev_rows(table, depth + 1, None), [list(p.coeffs) for p in polys])):
        for k, (row, den) in enumerate(got):
            assert den > 0 and gcd(den, *row) == 1 and row[-1], k
            assert [F(c, den) for c in row] == expected[k], k


@pytest.mark.parametrize("case", TALL_PAIRS, ids=tall_id)
@pytest.mark.parametrize("depth", [12, 20])
def test_gram_suite_on_tall_pairs(case, depth):
    pear, frame = case
    # clean; a moment the residual and the Gram checks read; one only the Gram checks read
    for fuzz in (None, 7, 2 * depth - 1):
        assert gram_suite(pear, frame, depth, F(1), fuzz) == ref.gram_suite(pear, frame, depth, F(1), fuzz), fuzz


DIAGONAL_CASES = {"tall": TALL_PAIRS[0], **{name: (PRESETS[name].pear, PRESETS[name].frame)
                                             for name in ("al-salam-carlitz", "charlier")}}


@pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
@pytest.mark.parametrize("depth", [12, 20, 40])
def test_gram_diagonal_fault_named_as_by_fractions(name, depth, monkeypatch):
    # a fault on sigma_{N/2,N/2} is named at n = N/2 by the cross-multiplied check, and by the
    # reduced-Fraction check it replaced, read off the same faulted rows
    pear, frame = DIAGONAL_CASES[name]
    half, faulted = depth // 2, []

    def fault(table, rows_depth, rows_frame, moments=None):
        rows = classical._chebyshev_rows(table, rows_depth, rows_frame, moments)
        if moments is not None:
            row, den = rows[half]
            rows[half] = (row[:half] + [row[half] + den] + row[half + 1:], den)
            faulted.append(rows)
        return rows

    monkeypatch.setattr(verify, "_chebyshev_rows", fault)
    checks = gram_suite(pear, frame, depth)
    product, named = F(1), None
    for n, ((row, den), gamma) in enumerate(zip(faulted[0], recurrence(pear, frame, depth).gamma)):
        product *= gamma
        if F(row[n], den) != product or gamma == 0:
            named = n
            break
    assert named == half
    assert [c.detail for c in checks] == ["", "", f"diagonal mismatch at n={half}"]


@pytest.mark.parametrize("fuzz", [0, 3, 12])
def test_gram_suite_fuzz_adds_one(fuzz, monkeypatch):
    # every check is linear in the change to y_fuzz, so only the table the rows read shows its size
    preset = PRESETS["al-salam-carlitz"]
    tables = []

    def spy(table, depth, frame, moments=None):
        tables.append(moments)
        return classical._chebyshev_rows(table, depth, frame, moments)

    monkeypatch.setattr(verify, "_chebyshev_rows", spy)
    gram_suite(preset.pear, preset.frame, 6, F(1), fuzz)
    expected = list(solve_moments(preset.pear, preset.frame, 1, 12).moments)
    expected[fuzz] += 1
    nums, den = tables[0]
    assert [F(n, den) for n in nums] == expected


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gram_suite_fuzz_every_index(name):
    preset = PRESETS[name]
    for fuzz in [None, *range(max(2 * 10, 21) + 1)]:
        assert gram_suite(preset.pear, preset.frame, 10, F(1), fuzz) == ref.gram_suite(
            preset.pear, preset.frame, 10, F(1), fuzz
        ), fuzz


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gram_suite_forms_no_gram_matrix(name, monkeypatch):
    preset = PRESETS[name]
    runs = [(8, None), (8, 3), (8, 15), (12, 0), (12, 23)]
    expected = [ref.gram_suite(preset.pear, preset.frame, depth, F(1), fuzz) for depth, fuzz in runs]
    assert any(not checks[1].passed for checks in expected)  # the failure path is reached

    def unread(*args):
        raise AssertionError("gram_suite read the Gram matrix or the expanded polynomials")

    monkeypatch.setattr(classical, "gram_matrix", unread)
    monkeypatch.setattr(RecurrenceTable, "polys", property(unread))
    got = [gram_suite(preset.pear, preset.frame, depth, F(1), fuzz) for depth, fuzz in runs]
    assert got == expected


# 500-2000-bit numerators and denominators, of either sign, and zeros
big_int_st = st.integers(500, 2000).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2 ** bits))
big_coeff_st = st.just(F(0)) | st.builds(
    lambda n, d, sign: F(sign * n, d), big_int_st, big_int_st, st.sampled_from((-1, 1))
)
big_poly_st = st.lists(big_coeff_st, max_size=7).map(Poly)
big_table_st = st.lists(big_coeff_st, min_size=1, max_size=8)
# negative q (so q - 1 and 1/(q - 1) are negative), negative omega (so the root
# -omega/(q - 1) changes sign), q = 1 (D divides by the constant omega), and a frame of large height
SIGNED_FRAMES = [
    HahnFrame(F(-2), F(-3, 7)),
    HahnFrame(F(-2), F(5)),
    HahnFrame(F(-1, 3), F(5, 2)),
    HahnFrame(F(-1, 3), F(-2, 9)),
    HahnFrame(F(7, 4), F(-11, 3)),
    HahnFrame(F(1), F(-7, 3)),
    HahnFrame(F(1), F(-(3 ** 700), 2 ** 900 + 1)),
    HahnFrame(F(-(2 ** 600 + 1), 3 ** 400), F(-(5 ** 300), 7 ** 200)),
]
heavy = settings(deadline=None, max_examples=10)


def signed_frame_id(frame):
    return ",".join(f"{k}={v if len(str(v)) < 12 else 'big'}" for k, v in (("q", frame.q), ("omega", frame.omega)))


@pytest.mark.parametrize("frame", SIGNED_FRAMES, ids=signed_frame_id)
class TestAtLargeHeight:
    @heavy
    @given(big_poly_st, big_poly_st)
    def test_poly_kernels(self, frame, f, g):
        assert to_y_basis(f, frame) == ref.to_y_basis(f, frame)
        assert op_L(f, frame) == ref.op_L(f, frame)
        assert op_L_star(f, frame) == ref.op_L_star(f, frame)
        assert op_D(f, frame) == ref.op_D(f, frame)
        assert op_D_star(f, frame) == ref.op_D_star(f, frame)
        assert f * g == ref.mul(f, g)

    @heavy
    @given(big_table_st, big_poly_st)
    def test_moment_kernels(self, frame, values, f):
        u = MomentFunctional(frame, tuple(values))
        for name in DIST_OPS:
            fast, slow = getattr(functional, name)(u), getattr(ref, name)(u)
            assert (fast.max_degree, fast.moments) == (slow.max_degree, slow.moments), name
        assert u.power_moments() == ref.power_moments(u)
        fast = outcome(functional.left_multiply, f, u)
        slow = outcome(ref.left_multiply, f, u)
        if isinstance(slow, MomentFunctional):
            assert (fast.max_degree, fast.moments) == (slow.max_degree, slow.moments)
        else:
            assert fast == slow

    @heavy
    @given(big_coeff_st, big_table_st)
    def test_zero_and_constant(self, frame, c, values):
        u = MomentFunctional(frame, tuple(values))
        g = Poly([1, c])
        for f in (Poly(), Poly([c])):
            k = f.coeff(0)  # c, or 0 for the zero polynomial
            assert f.compose_affine(frame.q, frame.omega) == f
            assert op_D(f, frame) == Poly() and op_D_star(f, frame) == Poly()
            assert to_y_basis(f, frame) == list(f.coeffs)
            assert f * g == g * f == Poly([k, k * c])
            assert functional.left_multiply(f, u).moments == tuple(k * m for m in u.moments)


# the integer L f - f of op_D: negative q and omega, q = 3/5, q = 1 with omega < 0
OP_D_FRAMES = [
    HahnFrame(F(-2), F(-3, 7)),
    HahnFrame(F(-2), F(4)),
    HahnFrame(F(3, 5), F(-2)),
    HahnFrame(F(3, 5), F(0)),
    HahnFrame(F(1), F(-7, 3)),
    HahnFrame(F(1), F(-(3 ** 700), 2 ** 900 + 1)),
]


@pytest.mark.parametrize("frame", OP_D_FRAMES, ids=signed_frame_id)
class TestIntegerOpD:
    @heavy
    @given(big_poly_st)
    def test_against_oracle(self, frame, f):
        assert op_D(f, frame) == ref.op_D(f, frame)
        assert op_D_star(f, frame) == ref.op_D_star(f, frame)

    @heavy
    @given(big_coeff_st)
    def test_zero_and_constant(self, frame, c):
        for f in (Poly(), Poly([c])):
            assert op_D(f, frame) == ref.op_D(f, frame) == Poly()
        # D x = 1 and D (c x) = c on every frame
        assert op_D(Poly([c, c]), frame) == ref.op_D(Poly([c, c]), frame) == Poly([c])


# default frames, q = 5/2, q = -3, and a frame with 64-bit q and omega
RESIDUAL_FRAMES = FRAMES + [
    HahnFrame(F(5, 2), F(1, 3)),
    HahnFrame(F(-3), F(2, 7)),
    HahnFrame(F(2 ** 64 - 59, 2 ** 63 + 29), F(-(3 ** 40), 2 ** 61 - 1)),
]
# unrelated denominators up to 2^64
tall_coeff_st = st.builds(F, st.integers(-(2 ** 64), 2 ** 64), st.integers(1, 2 ** 64))


@st.composite
def residual_pair(draw):
    """A random pair, with a = 0, d = 0, phi = 0 or psi = 0 forced in four of five draws."""
    a, b, c, d, e = (draw(coeff_st) for _ in range(5))
    zero = draw(st.sampled_from(("", "a", "d", "phi", "psi")))
    if zero in ("a", "phi"):
        a = F(0)
    if zero == "phi":
        b = c = F(0)
    if zero in ("d", "psi"):
        d = F(0)
    if zero == "psi":
        e = F(0)
    assume(any((a, b, c, d, e)))
    return PearsonPair(a, b, c, d, e)


@pytest.mark.parametrize("frame", RESIDUAL_FRAMES, ids=signed_frame_id)
@settings(deadline=None, max_examples=25)
@given(residual_pair(), st.lists(coeff_st | tall_coeff_st, min_size=1, max_size=24))
def test_pearson_residual_against_whole_table_route(frame, pear, values):
    # equal entries, or the same error type and message, at every depth from -1 to M + 1
    u = MomentFunctional(frame, tuple(values))
    for depth in range(-1, u.max_degree + 2):
        assert outcome(functional.pearson_residual, pear, u, depth) == outcome(
            ref.pearson_residual, pear, u, depth
        ), depth


def test_recurrence_polys_al_salam_carlitz_80():
    preset = PRESETS["al-salam-carlitz"]
    table = recurrence(preset.pear, preset.frame, 80)
    assert table.polys == ref.recurrence_polys(table.beta, table.gamma)


def test_power_moments_al_salam_carlitz_80():
    # omega = 0 and q = 1/2: every Y node is 0, so the x-shift of power_moments runs over t = 1
    preset = PRESETS["al-salam-carlitz"]
    u = solve_moments(preset.pear, preset.frame, 1, 80)
    assert u.power_moments() == ref.power_moments(u)


# the default frames, and q = 5/2 and q = -3 on the same omegas
ENTRY_FRAMES = FRAMES + [HahnFrame(q, omega) for q in (F(5, 2), F(-3)) for omega in verify.FRAME_OMEGA_VALUES]
# y_0..y_24 on the first tall pair: tall, unrelated denominators
TALL_TABLE = solve_moments(*TALL_PAIRS[0], 1, 24).moments
entry_table_st = table_st | st.integers(1, 25).map(lambda k: TALL_TABLE[:k])
FRACTION_ROUTES = {"dist_L": ref.fraction_dist_L, "dist_L_star": ref.fraction_dist_L_star,
                   "dist_D": ref.fraction_dist_D, "dist_D_star": ref.fraction_dist_D_star}


def assert_same_entries(fast, slow, name):
    # equal Fractions entry by entry, and the integer form canonical: lowest terms, dens > 0, zero as (0, 1)
    assert fast.moments == slow.moments, name
    assert (fast.nums, fast.dens) == (slow.nums, slow.dens), name
    assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(fast.nums, fast.dens)), name


@pytest.mark.parametrize("frame", ENTRY_FRAMES, ids=signed_frame_id)
@checked
@given(entry_table_st, entry_table_st, poly_st, coeff_st)
def test_integer_entries_against_fraction_route(frame, values, other, f, c):
    u, v = MomentFunctional(frame, values), MomentFunctional(frame, other)
    for name, route in FRACTION_ROUTES.items():
        assert_same_entries(getattr(functional, name)(u), route(u), name)
    assert_same_entries(u.scale(c), ref.fraction_scale(u, c), "scale")
    assert_same_entries(u + v, ref.fraction_add(u, v), "add")
    fast, slow = outcome(functional.left_multiply, f, u), outcome(ref.fraction_left_multiply, f, u)
    if isinstance(slow, MomentFunctional):
        assert_same_entries(fast, slow, "left_multiply")
    else:
        assert fast == slow
