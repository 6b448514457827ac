"""Exact verification suites: operator identities, Gram orthogonality,
Rodrigues, and Hahn's property with its norm laws as recurrence identities.

Every check is an exact equality over the rationals; a suite returns a
list of Check records, one per identity, with the failure detail when an
equality breaks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qnum import HahnFrame, PearsonPair, d_n, e_n, q_binomial, q_bracket
from .poly import (
    Poly,
    _iterates,
    op_D,
    op_D_star,
    op_L,
    op_L_star,
    phi_poly,
    psi_poly,
    y_basis,
)
from .functional import (
    InsufficientMomentsError,
    MomentFunctional,
    _moment_table,
    _residual_ints,
    _rhs,
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
from . import classical
from .classical import (
    _chebyshev_rows,
    derivative_sequence,
    psi_k,
    r_polynomial,
    recurrence,
    theta2,
)

# frames used by the randomized identity suite; excluded points are
# filtered at construction time
FRAME_Q_VALUES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5), Fraction(-2)]
FRAME_OMEGA_VALUES = [Fraction(0), Fraction(1), Fraction(-1, 3)]
# the Gram suite's Pearson residual reaches Y-degree 20
RESIDUAL_DEPTH = 20
# the suites `verify --suite all` runs, in the order its JSON lists them
SUITES = ("gram", "rodrigues", "norms", "identities")


class SuiteArgumentError(ValueError):
    """A suite argument lies outside the range the suite can act on."""


@dataclass(frozen=True)
class Check:
    """One named identity; detail says where it broke, and is empty exactly when it held."""

    name: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return not self.detail

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# built once, so the frames keep the operator constants they build for every suite that reads them
_DEFAULT_FRAMES = tuple(HahnFrame(q, omega) for q in FRAME_Q_VALUES for omega in FRAME_OMEGA_VALUES
                        if not (q == 1 and omega == 0))


def default_frames() -> list[HahnFrame]:
    """The 14 frames of FRAME_Q_VALUES x FRAME_OMEGA_VALUES but (1, 0), as one shared set of frame objects."""
    return list(_DEFAULT_FRAMES)


def random_poly(rng: random.Random, max_degree: int) -> Poly:
    """A polynomial of random degree <= max_degree: draws p/r, |p| <= 6, r <= 4, then a leading 0 < |p| <= 3, r <= 3."""
    deg = rng.randint(0, max_degree)
    draws = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    draws.append((rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    den = math.lcm(*(d for _, d in draws))
    return Poly._from_ints([n * (den // d) for n, d in draws], den)


def random_functional(rng: random.Random, frame: HahnFrame, depth: int) -> MomentFunctional:
    """A table y_0..y_depth of draws p/r, |p| <= 9 and r <= 5."""
    draws = [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(depth + 1)]
    return MomentFunctional._from_ints(frame, (n for n, _ in draws), (d for _, d in draws))


def _op_D_monomial(f: Poly, frame: HahnFrame) -> Poly:
    """op_D through its action on monomials, D x^n = sum_k [n,k]_{q,omega} x^{n-1-k}.

    [n,k]_{q,omega} = omega^k sum_{j=0}^{n-1-k} C(k+j,j) q^j. With q = r/s it is
    omega^k T_k(n) / s^(n-1-k) for the integer Pascal table T_0(n) = s^(n-1) [n]_q,
    T_k(n) = T_{k-1}(n-1) + r T_k(n-1), zero for n <= k. The power of s depends on the
    output degree m = n-1-k alone, so coefficient m is brought over cd (wd s)^(deg-1) by s^(deg-1-m).
    """
    r, s = frame.q.numerator, frame.q.denominator
    cs, cd = f.nums, f.den
    deg = len(cs) - 1
    if deg < 1:
        return Poly()
    wn, wd = frame.omega.numerator, frame.omega.denominator
    weights = [wn**k * wd ** (deg - 1 - k) for k in range(deg)]  # omega^k over wd^(deg-1)
    out = [0] * deg
    row, sn = [], 1  # row[k] = T_k(n), sn = s^(n-1)
    for n in range(1, deg + 1):
        row = [sn + r * row[0] if row else sn] + [a + r * b for a, b in zip(row, row[1:] + [0])]
        sn *= s
        if cs[n]:
            for k, t in enumerate(row):
                out[n - 1 - k] += cs[n] * weights[k] * t
    return Poly._from_ints([c * s ** (deg - 1 - m) for m, c in enumerate(out)], cd * (wd * s) ** (deg - 1))


def _iterates_from(op, x, image, n: int, *args) -> list:
    """_iterates(op, x, n, *args) from the image = op(x, *args) already held, so op runs one time fewer."""
    return [x, *_iterates(op, image, n - 1, *args)][: n + 1]


def _leibniz(product, dh: list, frame: HahnFrame, iterates: list):
    """The q-Leibniz sum for D^n(h g): sum_j [n choose j]_q product(L^j D^{n-j} h, D^j g).

    dh holds D^0 h, ..., D^n h of a polynomial h, and iterates holds D^0 g, ..., D^n g; g is a
    polynomial with product operator.mul, or a functional with product left_multiply.
    L^j is op_L applied j times, so a fault in op_L reaches the sum.
    """
    n = len(iterates) - 1
    terms = (product(_iterates(op_L, dh[n - j], j, frame)[-1], g_j).scale(q_binomial(n, j, frame.q))
             for j, g_j in enumerate(iterates))
    return functools.reduce(operator.add, terms)


def identities_suite(
    frames: Optional[list[HahnFrame]] = None,
    cases: int = 200,
    seed: int = 20240817,
) -> list[Check]:
    """Randomized exact checks of the operator calculus.

    Covers the inverse pair L/L*, iterated-L substitution, the three
    commutation laws, the product rules, both Leibniz formulas, the
    monomial expansion of the divided difference, and the functional
    identities L*L = I, D*L = qD on random moment tables.
    A case computes each image once: every iterate list starts from the
    image the case already holds, and the Leibniz sums read the D-iterates
    of both factors.
    frames=None runs default_frames(); an empty list or cases < 1 raises SuiteArgumentError.
    """
    frames = default_frames() if frames is None else frames
    if not frames or cases < 1:
        raise SuiteArgumentError(
            f"identities_suite needs a frame and cases >= 1, got {len(frames)} frames and cases={cases}")
    rng = random.Random(seed)
    details: dict[str, str] = {}  # check name -> its first failure, "" while it holds; in first-seen order

    def record(name: str, ok: bool, detail: str):
        details.setdefault(name, "")
        if not ok and not details[name]:
            details[name] = detail

    for case in range(cases):
        fr = frames[case % len(frames)]
        q = fr.q
        f = random_poly(rng, 10)
        g = random_poly(rng, 6)
        detail = f"case {case}: frame q={fr.q}, omega={fr.omega}"

        lf, sf, df, lg = op_L(f, fr), op_L_star(f, fr), op_D(f, fr), op_L(g, fr)
        fg = f * g
        dg, dfg = op_D(g, fr), op_D(fg, fr)
        record("P2_L_star_L_identity", op_L_star(lf, fr) == f and op_L(sf, fr) == f, detail)
        n = rng.randint(0, 8)
        record("P1_iterated_L_substitution",
               _iterates_from(op_L, f, lf, n, fr)[-1]
               == f.compose_affine(q**n, fr.omega * q_bracket(n, q)), detail)
        m = rng.randint(1, 4)
        record("P1_negative_powers",
               _iterates_from(op_L_star, f, sf, m, fr)[-1]
               == f.compose_affine(q**-m, fr.omega * q_bracket(-m, q)), detail)
        record("P3_D_star_D_commutation",
               op_D_star(df, fr) == op_D(op_D_star(f, fr), fr).scale(q), detail)
        record("P3_D_L_star_commutation", op_D(sf, fr) == op_L_star(df, fr).scale(1 / q), detail)
        record("P3_D_L_commutation", op_D(lf, fr) == op_L(df, fr).scale(q), detail)
        record("P4_D_star_L", op_D_star(lf, fr) == df.scale(q), detail)
        record("P4a_L_multiplicative", op_L(fg, fr) == lf * lg, detail)
        record("P5_product_rule", dfg == df * lg + f * dg, detail)
        k = rng.randint(0, 4)
        record("leibniz_polynomial",
               _leibniz(operator.mul, _iterates_from(op_D, f, df, k, fr), fr, _iterates_from(op_D, g, dg, k, fr))
               == _iterates_from(op_D, fg, dfg, k, fr)[-1], detail)
        record("D_division_vs_monomial", df == _op_D_monomial(f, fr), detail)
        nb = rng.randint(0, 12)
        record("D_y_basis_diagonal",
               op_D(y_basis(nb, fr), fr)
               == (Poly() if nb == 0 else y_basis(nb - 1, fr).scale(q_bracket(nb, q))), detail)

        u = random_functional(rng, fr, 10)
        h = random_poly(rng, 3)
        lu, du, hu = dist_L(u), dist_D(u), left_multiply(h, u)
        dh, lh = op_D(h, fr), op_L(h, fr)
        record("P2_functional_L_star_L",
               dist_L_star(lu).agrees_with(u) and dist_L(dist_L_star(u)).agrees_with(u), detail)
        dslu = dist_D_star(lu)  # <D* v, f> = -q <v, D f> is its defining pairing
        record("P4_functional_D_star_L",
               dslu.agrees_with(du.scale(q)) and pair(dslu, f) == -q * pair(lu, df), detail)
        record("P4a_functional_L_of_fu", dist_L(hu).agrees_with(left_multiply(lh, lu)), detail)
        dhu = dist_D(hu)
        record("P6_functional_product_rule",
               dhu.agrees_with(left_multiply(dh, lu) + left_multiply(h, du))
               and dhu.agrees_with(left_multiply(dh, u) + left_multiply(lh, du)), detail)
        nl = rng.randint(0, 3)
        lhs = _iterates_from(dist_D, hu, dhu, nl)[-1]
        rhs = _leibniz(left_multiply, _iterates_from(op_D, h, dh, nl, fr), fr, _iterates_from(dist_D, u, du, nl))
        record("leibniz_functional", lhs.truncate(min(7, lhs.max_degree)).agrees_with(rhs), detail)

    return [Check(name, detail) for name, detail in details.items()]


def gram_suite(
    pear: PearsonPair,
    frame: HahnFrame,
    depth: int = 10,
    y0: Fraction = Fraction(1),
    fuzz_moment: Optional[int] = None,
) -> list[Check]:
    """Moment/Pearson equivalence plus the Favard-direction Gram oracle.

    The moment table is read as integers over one denominator (_moment_table), and both
    Gram checks are decided from integer rows of the mixed moments
    sigma_{k,l} = <u, P_k Y_l>, in O(depth^2), and no Gram matrix is formed:
    G is diagonal iff sigma_{k,l} = 0 for l < k, and then G[n][n] = sigma_{n,n}.
    A failure names the first four nonzero off-diagonal cells, row by row, each
    a dot product G[m][n] = sum_{l <= m} c^(m)_l sigma_{n,l} (m <= n) with the
    Y-basis coefficients c^(m) of P_m, which come from the same recurrence.
    """
    if depth < 0:
        raise SuiteArgumentError(f"depth must be >= 0, got {depth}")
    checks = []
    # residual entry n reads y_{n+1}; the Gram checks read y_0..y_{2 depth}
    table_depth = max(2 * depth, RESIDUAL_DEPTH + 1)
    if fuzz_moment is not None and not 0 <= fuzz_moment <= table_depth:
        raise SuiteArgumentError(
            f"fuzz_moment {fuzz_moment} is outside the moments the checks read, 0..{table_depth}"
        )
    nums, den = _moment_table(pear, frame, y0, table_depth)
    if fuzz_moment is not None:
        nums[fuzz_moment] += den
    residual = _residual_ints(phi_poly(pear), psi_poly(pear), frame, nums, den, RESIDUAL_DEPTH)
    bad = [i for i, (r, _) in enumerate(residual) if r]
    checks.append(Check(
        "pearson_residual_zero", f"nonzero residual at Y-degrees {bad[:4]} (cell {bad[0]})" if bad else ""
    ))
    table = recurrence(pear, frame, depth, y0)
    sigma = _chebyshev_rows(table, depth, frame, (nums[: 2 * depth + 1], den))
    if not any(any(row[:k]) for k, (row, _) in enumerate(sigma)):
        off = []
        diagonal = [(row[k], den) for k, (row, den) in enumerate(sigma)]
    else:
        coeffs = _chebyshev_rows(table, depth, frame)

        def gram(lo: int, hi: int) -> int:  # G[lo][hi] = <u, P_lo P_hi> times coeffs[lo][1] sigma[hi][1]
            return sum(map(operator.mul, coeffs[lo][0], sigma[hi][0]))

        cells = ((m, n) for m in range(depth + 1) for n in range(depth + 1) if m != n)
        off = list(itertools.islice((cell for cell in cells if gram(*sorted(cell))), 4))
        diagonal = [(gram(n, n), coeffs[n][1] * sigma[n][1]) for n in range(depth + 1)]
    checks.append(Check("gram_off_diagonal_zero", f"nonzero off-diagonal cells {off[:4]}" if off else ""))
    # gamma[0] holds y0, so G[n][n] = num / den should be gamma_0 gamma_1 ... gamma_n = en / ed with
    # no factor 0; the product is kept unreduced and compared across, so no gcd is taken
    detail = ""
    en = ed = 1
    for nn, ((num, den), gamma) in enumerate(zip(diagonal, table.gamma)):
        en, ed = en * gamma.numerator, ed * gamma.denominator
        if num * ed != en * den or gamma == 0:
            detail = f"diagonal mismatch at n={nn}"
            break
    checks.append(Check("gram_diagonal_product_of_gammas", detail))
    return checks


def moment_depth_for(pear: PearsonPair, n: int, test_degree: int) -> int:
    """Smallest moment-table degree on which P_n u and the right-hand side both reach test_degree."""
    deg_phi = phi_poly(pear).degree() or 0
    # lhs consumes deg P_n = n; rhs consumes n*deg(phi) then regains n via (D*)^n, and Phi(.; n) L^n u,
    # like each u^[j] = L(phi u^[j-1]), must keep y_0, so the table reaches n*deg(phi) even at small test_degree
    return max(test_degree + max(n, n * deg_phi - n), n * deg_phi)


def rodrigues_suite(
    pear: PearsonPair,
    frame: HahnFrame,
    n_max: int = 5,
    test_degree: int = 8,
    require_regular: bool = True,
) -> list[Check]:
    """The Rodrigues identity P_n u = k_n (D*)^n u^[n] for n <= n_max.

    P_n u is row n of the mixed moments sigma_{n,l} = <u, P_n Y_l> of the Gram check.
    The right-hand side differentiates the closed form Phi(.; n) L^n u of u^[n],
    Phi(x; n) = prod_{j=1}^n phi(q^j x + omega [j]_q), and check rodrigues_n{n} also
    requires it to agree with the library's u^[n] = L(phi u^[n-1]) on their shared
    window. Walking n upward, each of u^[n], L^n u and Phi(.; n) costs one step per n.
    """
    for name, value in (("n_max", n_max), ("test_degree", test_degree)):
        if value < 0:
            raise SuiteArgumentError(f"{name} must be >= 0, got {value}")
    # row n of sigma reads y_0..y_{test_degree + n}, and its right-hand side y_0..y_{moment_depth_for(.., n, ..)}
    u = solve_moments(pear, frame, 1, moment_depth_for(pear, n_max, test_degree))  # nondecreasing in n
    # rows 0..n_max read beta_0..beta_{n_max-1} and gamma_0..gamma_{n_max-1} only
    table = recurrence(pear, frame, max(n_max - 1, 0), require_regular=require_regular)
    sigma = _chebyshev_rows(table, n_max, frame, u._over_lcm())
    phi = phi_poly(pear)
    iterated = shifted = u
    product = Poly([1])
    checks = []
    for n, (row, den) in enumerate(sigma):
        if n:
            iterated = derived_functional(pear, iterated, 1)
            shifted = dist_L(shifted)
            product = product * phi.compose_affine(frame.q**n, frame.omega * q_bracket(n, frame.q))
        closed = left_multiply(product, shifted)
        rhs = _rhs(pear, closed, n)
        if test_degree > min(len(row) - 1, rhs.max_degree):
            raise InsufficientMomentsError(
                f"test degree {test_degree} exceeds valid window "
                f"(lhs {len(row) - 1}, rhs {rhs.max_degree}); enlarge the moment table"
            )
        problems = []
        # sigma_{n,l} = row[l] / den against the entry nums[l] / dens[l] of the right-hand side
        mismatch = _first_difference((m * d for m, d in zip(row[: test_degree + 1], rhs.dens)),
                                     (n * den for n in rhs.nums))
        if mismatch is not None:
            problems.append(f"first mismatch at Y-degree {mismatch}")
        split = _first_difference(zip(closed.nums, closed.dens), zip(iterated.nums, iterated.dens))
        if split is not None:
            problems.append(f"derived-functional routes disagree at Y-degree {split}")
        checks.append(Check(f"rodrigues_n{n}", "; ".join(problems)))
    return checks


def _first_difference(a, b) -> Optional[int]:
    """The first index, on their shared length, where iterables a and b differ."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _psi_k_recursive(pear: PearsonPair, frame: HahnFrame, k: int) -> Poly:
    """psi^[k] by iterating psi^[k] = D phi + q L psi^[k-1] from psi^[0] = psi."""
    out = psi_poly(pear)
    dphi = op_D(phi_poly(pear), frame)
    for _ in range(k):
        out = dphi + frame.q * op_L(out, frame)
    return out


def _theta2_definitional(pear: PearsonPair, frame: HahnFrame, n: int) -> Poly:
    """theta_2(x; n) from its defining combination d_{2n} phi + q psi^[n] psi^[n-1], for n >= 1."""
    return d_n(pear, frame, 2 * n) * phi_poly(pear) + frame.q * (
        psi_k(pear, frame, n) * psi_k(pear, frame, n - 1)
    )


def norms_suite(pear: PearsonPair, frame: HahnFrame) -> list[Check]:
    """Hahn's property for k <= 3 as identities between recurrence tables; psi^[k]/theta2 dual routes, gamma_1^[n].

    u^[k] = L(phi u^[k-1]) solves the derived pair (phi, psi^[k]) = (a, b, c, d_{2k}, e_k) with <u^[k], 1> = y0^[k],
    y0^[k+1] = y0^[k] (d_{2k}/d_{2k+1}) phi(-e_k/d_{2k}), so its monic sequence is the table T_k of that pair.
    For k = 1..3: the monic D step of T_{k-1} is T_k; the norm relation <u^[k], (P^[k]_n)^2> =
    (-1)^k q^{-k(2n+k-1)/2} prod_{j<=k} d_{n+k+j-2}/[n+j]_q <u, P_{n+k}^2> holds on the gamma products;
    and the library's u^[k], derived_functional(u, k), has y_0 = y0^[k] and a zero residual against the derived pair.
    For k <= 6, gamma_1 of the derived pair is gamma_1 = (y_2 + omega y_1)/y_0 - (y_1/y_0)^2 on the moments of u^[k].
    """
    q, phi = frame.q, phi_poly(pear)
    # the window: y_0..y_16 and the recurrence to 7, P_0..P_8; T_k runs to 7 - k, u^[k] to y_{16 - k deg phi} >= y_4
    walk = _iterates(lambda v: derived_functional(pear, v, 1), solve_moments(pear, frame, 1, 16), 6)
    table = recurrence(pear, frame, 7)
    norms = list(itertools.accumulate(table.gamma, operator.mul))  # <u, P_n^2>, as gamma_0 = y_0 = 1
    derived = [PearsonPair(pear.a, pear.b, pear.c, d_n(pear, frame, 2 * k), e_n(pear, frame, k)) for k in range(7)]
    broken = []  # (k, n, detail) of each identity that fails, in the order checked
    y0 = Fraction(1)
    for k in range(1, 4):
        y0 *= derived[k - 1].d / d_n(pear, frame, 2 * k - 1) * phi(-derived[k - 1].e / derived[k - 1].d)
        stepped = derivative_sequence(table, frame, 1)
        table = recurrence(derived[k], frame, 7 - k, y0, require_regular=False)
        broken += [(k, n, f"D step broke at (k,n)=({k},{n})")
                   for n, (p, monic) in enumerate(itertools.zip_longest(stepped, table.polys)) if p != monic]
        for n, norm in enumerate(itertools.accumulate(table.gamma, operator.mul)):
            factor = math.prod(d_n(pear, frame, n + k + j - 2) / q_bracket(n + j, q) for j in range(1, k + 1))
            if norm != (-1) ** k * q ** (-k * (2 * n + k - 1) // 2) * factor * norms[n + k]:
                broken.append((k, n, f"norm relation broke at (k,n)=({k},{n})"))
        uk = walk[k]
        if uk.moments[0] != y0 or any(pearson_residual(derived[k], uk, uk.max_degree - 1)):
            broken.append((k, 0, f"u^[{k}] is not the functional of the derived pair"))
    # the k = 1 identities decide derivative_orthogonality_k1, and norm_relation_k_le_3 reads all but the
    # k = 1 ones at n >= 6, which only the first-derivative check reaches; each check names its first failure
    first = next((detail for k, n, detail in broken if k == 1), "")
    rest = next((detail for k, n, detail in broken if k > 1 or n < 6), "")
    checks = [Check("derivative_orthogonality_k1", first), Check("norm_relation_k_le_3", rest)]

    bad = [k for k in range(11) if psi_k(pear, frame, k) != _psi_k_recursive(pear, frame, k)]
    checks.append(Check("psi_k_closed_form_vs_recursion", f"mismatch at k={bad[0]}" if bad else ""))

    bad = [n for n in range(1, 9) if theta2(pear, frame, n) != _theta2_definitional(pear, frame, n)]
    checks.append(Check("theta2_dual_computation", f"mismatch at n={bad[0]}" if bad else ""))

    # x^2 = Y_2 + omega Y_1, so gamma_1 y_0^2 = (y_2 + omega y_1) y_0 - y_1^2; a zero y_0 leaves gamma_1 undefined
    bad = [n for n, (pp, (m0, m1, m2)) in enumerate(zip(derived, (v.moments[:3] for v in walk)))
           if not m0 or classical.gamma_coefficient(pp, frame, 0) * m0 * m0 != (m2 + frame.omega * m1) * m0 - m1 * m1]
    checks.append(Check("gamma1_of_derived_functional", f"gamma_1^[n] mismatch at n={bad[0]}" if bad else ""))

    rng = random.Random(7)
    rs = [r_polynomial(pear, frame, Poly.monomial(n) + (random_poly(rng, n - 1) if n else Poly())) for n in range(7)]
    bad = [n for n, r in enumerate(rs) if r.degree() != n + 1 or r.leading() != q ** (1 - n) * d_n(pear, frame, n)]
    checks.append(Check("r_polynomial_leading_coefficient",
                        f"R_{{n+1}} leading coefficient wrong at n={bad[0]}" if bad else ""))
    return checks
