"""Basis-expansion routes for the moment-space kernels, kept as test oracles.

Every dual operation here expands Y-basis polynomials as Poly objects,
independently of the banded recurrences in hahnpoly.functional and of the
synthetic-division to_y_basis. Y_n itself is the `mul` product of its Fraction
factors x - omega [j]_q, so no oracle rests on hahnpoly.poly.y_basis or its
Newton nodes; the affine substitution is Horner's rule over
Poly products, and the Gram suite reads the full Gram matrix. The products,
L, L* and D here run on Fractions (`mul`, and D through `poly_divmod`), so no
oracle rests on the integer-numerator kernels of hahnpoly.poly; `horner` is the
Fraction evaluation that Poly.__call__, on integers, is checked against.
tests/test_kernels.py requires exact equality. from_y_basis and the Hankel
determinant serve tests/test_poly.py and tests/test_classical.py.

The Pearson residual oracle keeps the whole-table route through the
library's entry-wise dist_D and left_multiply, which the oracles above check;
the reference gram_suite reads it instead of hahnpoly.functional.pearson_residual.

solve_moments_fractions runs the moment recurrence as one reduced Fraction step per
moment, where hahnpoly.functional runs it on integers; tests/test_sequences.py
compares both forms of that integer table with it, and the reference gram_suite reads it.

The fraction_* routes are the Fraction-entry moment kernels that the per-entry
integer (nums, dens) kernels of hahnpoly.functional replaced: the same banded
recurrences, with each entry one reduced Fraction. tests/test_kernels.py requires
equal moments and canonical (nums, dens) from the integer kernels.

The per-index routes of the engine live here too: the regularity scan, the
moment recurrence, beta_n and gamma_n call d_n, e_n and q_bracket once per
index read and combine them in Fraction steps, and P_n is expanded by Poly
products. tests/test_sequences.py compares them with the engine, which reads
the integer sequences of hahnpoly.qnum.pearson_sequences.

phi_product is the Phi(.; n) of the closed form Phi(.; n) L^n u of the derived
functional; tests/test_rodrigues.py compares that closed form with
hahnpoly.functional.rodrigues_rhs, which reads the iterated derived_functional.

The q-numbers are the Fraction definitions: [n]_q = (q^n - 1)/(q - 1), [n]_q! as a
product of brackets and the q-binomial as a ratio of factorials. hahnpoly.qnum forms
each as one Fraction over the integer bracket sequence of hahnpoly.qnum._brackets;
tests/test_qnum.py compares the two. d_n = d q^n + a [n]_q and e_n are the Fraction
closed forms over this q_bracket, and rodrigues_constant divides by them one factor at
a time; hahnpoly.qnum reads all three off pearson_sequences, and tests/test_sequences.py
compares the two. The per-index oracles below read these d_n, e_n and q_bracket, so
none of them rests on the library's q-numbers. _hahn_number is the closed sum behind
the monomial expansion of D, the oracle of the Pascal table in hahnpoly.verify._op_D_monomial.

derivative_sequence is the bracket-product route to the monic derivatives,
D^k P_{n+k} / prod_{j<=k} [n+j]_q with D and [n]_q from this module; the library takes
one monic D step per k, and tests/test_classical.py requires equal sequences.

recurrence_payload is the `recurrence` JSON payload as each coefficient's Fraction and its
str(); tests/test_cli.py holds the CLI's text, written from the integer rows, against it.

random_poly_fractions and random_functional_fractions are the identities suite's random draws
built as one Fraction per coefficient, through Poly(...) and MomentFunctional(...);
tests/test_identities.py requires hahnpoly.verify's integer draws to equal them, seed by seed,
so the suite checks the same cases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Optional, Sequence

from hahnpoly import classical, functional
from hahnpoly.classical import D_ZERO, PHI_ROOT, RegularityReport
from hahnpoly.functional import InsufficientMomentsError, MomentFunctional
from hahnpoly import poly
from hahnpoly.poly import Poly, phi_poly, psi_poly
from hahnpoly.qnum import AdmissibilityError, HahnFrame, PearsonPair, ScalarLike, _ints, as_scalar, pearson_sequences
from hahnpoly.verify import RESIDUAL_DEPTH, Check, SuiteArgumentError


def q_bracket(n: int, q: ScalarLike) -> Fraction:
    """[n]_q = (q^n - 1)/(q - 1), or n itself at q = 1; n < 0 needs q != 0."""
    q = as_scalar(q)
    if q == 1:
        return Fraction(n)
    if n < 0 and q == 0:
        raise ValueError("q_bracket with n < 0 needs q != 0")
    return (q**n - 1) / (q - 1)


def q_factorial(n: int, q: ScalarLike) -> Fraction:
    """[1]_q [2]_q ... [n]_q, one Fraction product per factor."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= q_bracket(j, q)
    return out


def q_binomial(n: int, k: int, q: ScalarLike) -> Fraction:
    """[n]_q! / ([k]_q! [n-k]_q!), 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    return q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))


def d_n(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """d_n = d q^n + a [n]_q over the Fraction q_bracket above; any n, with d_{-m} through [-m]_q."""
    return pear.d * frame.q**n + pear.a * q_bracket(n, frame.q)


def e_n(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """e_n = e q^n + (omega d_n + b) [n]_q over the Fraction q_bracket above."""
    return pear.e * frame.q**n + (frame.omega * d_n(pear, frame, n) + pear.b) * q_bracket(n, frame.q)


def rodrigues_constant(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """k_n = q^{n(n-3)/2} prod_{j=0}^{n-1} 1/d_{n+j-1}, one Fraction step per factor d_n above.

    Raises AdmissibilityError at the first vanishing factor.
    """
    if n < 0:
        raise ValueError("rodrigues_constant needs n >= 0")
    out = frame.q ** (n * (n - 3) // 2)
    for j in range(n - 1, 2 * n - 1):
        dj = d_n(pear, frame, j)
        if dj == 0:
            raise AdmissibilityError(j)
        out /= dj
    return out


def _hahn_number(n: int, k: int, q: ScalarLike, omega: ScalarLike) -> Fraction:
    """The coefficient [n,k]_{q,omega} = omega^k * sum_{j=0}^{n-1-k} C(k+j,j) q^j.

    Zero whenever n <= k (empty sum); [n,0] reduces to [n]_q.
    """
    if n < 0 or k < 0:
        raise ValueError("hahn_number needs n, k >= 0")
    q = as_scalar(q)
    omega = as_scalar(omega)
    total = Fraction(0)
    for j in range(n - k):
        total += math.comb(k + j, j) * q**j
    return omega**k * total


# the oracles ask for the same Y_n many times, so each is multiplied out once per (n, q, omega)
def y_basis(n: int, frame) -> Poly:
    """Y_n = prod_{j<n} (x - omega [j]_q), as the mul product of its Fraction factors."""
    if n < 0:
        raise ValueError("y_basis needs n >= 0")
    return _y_basis(n, frame.q, frame.omega)


@lru_cache(maxsize=None)
def _y_basis(n: int, q: Fraction, omega: Fraction) -> Poly:
    if n == 0:
        return Poly([1])
    return mul(_y_basis(n - 1, q, omega), Poly([-omega * q_bracket(n - 1, q), 1]))


def mul(f: Poly, g: Poly) -> Poly:
    """f g by the convolution of the Fraction coefficient lists."""
    if f.is_zero() or g.is_zero():
        return Poly()
    fc, gc = f.coeffs, g.coeffs  # each read builds the Fractions afresh
    out = [Fraction(0)] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] += a * b
    return Poly(out)


def horner(f: Poly, x: ScalarLike) -> Fraction:
    """f(x) by Horner's rule on the Fraction coefficients."""
    x, out = as_scalar(x), Fraction(0)
    for c in reversed(f.coeffs):
        out = out * x + c
    return out


def compose_affine(f: Poly, alpha, beta) -> Poly:
    """f(alpha x + beta) by Horner's rule over the linear image."""
    sub = Poly([beta, alpha])
    out = Poly()
    for c in reversed(f.coeffs):
        out = mul(out, sub) + Poly([c])
    return out


def op_L(f: Poly, frame) -> Poly:
    return compose_affine(f, frame.q, frame.omega)


def op_L_star(f: Poly, frame) -> Poly:
    return compose_affine(f, 1 / frame.q, -frame.omega / frame.q)


def poly_divmod(f: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Long division over the rationals: (quotient, remainder)."""
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dd, ds = divisor.degree(), divisor.coeffs
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - dd - 1, -1, -1):
        quot[i] = c = rem[i + dd] / ds[-1]
        for j, d in enumerate(ds):
            rem[i + j] -= c * d
    return Poly(quot), Poly(rem[:dd])


def op_D(f: Poly, frame) -> Poly:
    """(L f - f) divided by (q-1)x + omega through poly_divmod."""
    quot, rem = poly_divmod(op_L(f, frame) - f, Poly([frame.omega, frame.q - 1]))
    if not rem.is_zero():
        raise ArithmeticError("divided difference left a nonzero remainder")
    return quot


def op_D_star(f: Poly, frame) -> Poly:
    """op_D in the frame (1/q, -omega/q), built from its definition rather than by frame.reciprocal()."""
    return op_D(f, HahnFrame(1 / frame.q, -frame.omega / frame.q))


def derivative_sequence(table: classical.RecurrenceTable, frame, k: int) -> list[Poly]:
    """P_n^[k] = D^k P_{n+k} / prod_{j<=k} [n+j]_q, for n + k <= N + 1; k > N + 1 raises, as no n is left."""
    if k > table.depth + 1:
        raise ValueError(f"derivative_sequence needs k <= {table.depth + 1} at depth {table.depth}, got k={k}")
    out = []
    for n in range(len(table.polys) - k):
        p, norm = table.polys[n + k], Fraction(1)
        for j in range(1, k + 1):
            p, norm = op_D(p, frame), norm * q_bracket(n + j, frame.q)
        out.append(p.scale(1 / norm))
    return out


def to_y_basis(f: Poly, frame) -> list[Fraction]:
    """Coefficients c with f = sum_k c_k Y_k, by monic back-substitution."""
    if f.is_zero():
        return []
    out = [Fraction(0)] * (f.degree() + 1)
    rem = f
    while not rem.is_zero():
        k = rem.degree()
        c = rem.leading()
        out[k] = c
        rem = rem - c * y_basis(k, frame)
        if not (rem.is_zero() or rem.degree() < k):
            raise ArithmeticError("back-substitution did not lower the degree")
    return out


def from_y_basis(coeffs: Sequence[ScalarLike], frame) -> Poly:
    """sum_k c_k Y_k, the inverse of to_y_basis."""
    out = Poly()
    for k, c in enumerate(coeffs):
        out = out + as_scalar(c) * y_basis(k, frame)
    return out


def pair(u: MomentFunctional, f: Poly) -> Fraction:
    """<u, f> through the back-substitution expansion."""
    if f.is_zero():
        return Fraction(0)
    if f.degree() > u.max_degree:
        raise InsufficientMomentsError(
            f"pairing needs moments up to degree {f.degree()}, table stops at {u.max_degree}"
        )
    coeffs, moments = to_y_basis(f, u.frame), u.moments  # moments builds its Fractions on each read
    return sum((c * moments[k] for k, c in enumerate(coeffs)), Fraction(0))


def power_moments(u: MomentFunctional) -> list[Fraction]:
    """u_n = <u, x^n> by pairing each monomial."""
    return [pair(u, Poly.monomial(n)) for n in range(u.max_degree + 1)]


def left_multiply(f: Poly, u: MomentFunctional) -> MomentFunctional:
    """<f u, Y_n> = <u, f Y_n>, one pairing per entry."""
    if f.is_zero():
        return MomentFunctional(u.frame, (Fraction(0),) * (u.max_degree + 1))
    top = u.max_degree - f.degree()
    if top < 0:
        raise InsufficientMomentsError(
            f"left_multiply by degree {f.degree()} exhausts a table of degree {u.max_degree}"
        )
    moments = tuple(pair(u, mul(f, y_basis(n, u.frame))) for n in range(top + 1))
    return MomentFunctional(u.frame, moments)


@lru_cache(maxsize=None)
def _y_image_coeffs(op_name: str, frame, n: int) -> tuple[Fraction, ...]:
    """Y-basis coefficients of op(Y_n)."""
    op = {"D": op_D, "D*": op_D_star, "L": op_L, "L*": op_L_star}[op_name]
    return tuple(to_y_basis(op(y_basis(n, frame), frame), frame))


def _dual_apply(u: MomentFunctional, op_name: str, factor: Fraction, extend: int) -> MomentFunctional:
    moments, y = [], u.moments
    for n in range(u.max_degree + 1 + extend):
        coeffs = _y_image_coeffs(op_name, u.frame, n)
        moments.append(factor * sum((c * y[k] for k, c in enumerate(coeffs)), Fraction(0)))
    return MomentFunctional(u.frame, tuple(moments))


def dist_D(u: MomentFunctional) -> MomentFunctional:
    """<D u, f> = -q^{-1} <u, D* f>."""
    return _dual_apply(u, "D*", -1 / u.frame.q, extend=1)


def dist_D_star(u: MomentFunctional) -> MomentFunctional:
    """<D* u, f> = -q <u, D f>."""
    return _dual_apply(u, "D", -u.frame.q, extend=1)


def dist_L(u: MomentFunctional) -> MomentFunctional:
    """<L u, f> = q^{-1} <u, L* f>."""
    return _dual_apply(u, "L*", 1 / u.frame.q, extend=0)


def dist_L_star(u: MomentFunctional) -> MomentFunctional:
    """<L* u, f> = q <u, L f>."""
    return _dual_apply(u, "L", u.frame.q, extend=0)


def fraction_scale(u: MomentFunctional, c: ScalarLike) -> MomentFunctional:
    """c times each moment, one Fraction product per entry."""
    return MomentFunctional(u.frame, tuple(as_scalar(c) * m for m in u.moments))


def fraction_add(u: MomentFunctional, v: MomentFunctional) -> MomentFunctional:
    """The entrywise sum on the shared valid range, one Fraction sum per entry."""
    if u.frame != v.frame:
        raise ValueError("cannot add functionals over different frames")
    return MomentFunctional(u.frame, tuple(a + b for a, b in zip(u.moments, v.moments)))


def fraction_left_multiply(f: Poly, u: MomentFunctional) -> MomentFunctional:
    """Horner's rule over the x-shift on the table over one lcm, then one Fraction per entry."""
    if f.is_zero():
        return MomentFunctional(u.frame, (Fraction(0),) * (u.max_degree + 1))
    if u.max_degree < f.degree():
        raise InsufficientMomentsError(
            f"left_multiply by degree {f.degree()} exhausts a table of degree {u.max_degree}"
        )
    y, den = _ints(u.moments)
    out, power = functional._horner(f.nums, y, *poly._y_node_ints(u.frame, u.max_degree))
    return MomentFunctional(u.frame, tuple(Fraction(m, den * f.den * power) for m in out))


def fraction_dual_D(v: MomentFunctional, factor: Fraction) -> MomentFunctional:
    """Entries factor * [n]_q v_{n-1}, [n]_q = b_n / qd^(n-1), b_{n+1} = qd^n + qn b_n: one Fraction product each."""
    qn, qd = v.frame.q.numerator, v.frame.q.denominator
    out, b = [Fraction(0)], 1
    for m, p in zip(v.moments, poly._powers(qd, v.max_degree)):
        out.append(m * Fraction(factor.numerator * b, factor.denominator * p))
        b = qd * p + qn * b
    return MomentFunctional(v.frame, tuple(out))


def _fraction_lincomb(an: int, ad: int, x: Fraction, bn: int, bd: int, y: Fraction) -> Fraction:
    """(an/ad) x + (bn/bd) y as one Fraction, over ad bd lcm(x.denominator, y.denominator)."""
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    g = math.gcd(b, d)
    return Fraction(an * a * bd * (d // g) + bn * c * ad * (b // g), ad * bd * b * (d // g))


def fraction_dist_L(u: MomentFunctional) -> MomentFunctional:
    """<L u, Y_n> = q^{-n-1} y_n - q^{-1} node_n <L u, Y_{n-1}>, one Fraction per entry."""
    size = u.max_degree + 1
    q, (nodes, t) = u.frame.q, poly._y_node_ints(u.frame, size)
    qnp, qdp = poly._powers(q.numerator, size), poly._powers(q.denominator, size)
    out = [Fraction(0)]
    for n, (m, node) in enumerate(zip(u.moments, nodes)):
        out.append(_fraction_lincomb(qdp[n + 1], qnp[n + 1], m, -node * q.denominator, t * q.numerator, out[-1]))
    return MomentFunctional(u.frame, tuple(out[1:]))


def fraction_dist_L_star(u: MomentFunctional) -> MomentFunctional:
    """<L* u, Y_n> = q^{n+1} y_n + q^n omega [n]_q y_{n-1}, one Fraction per entry."""
    size = u.max_degree + 1
    qnp, qdp = poly._powers(u.frame.q.numerator, size), poly._powers(u.frame.q.denominator, size)
    (nodes, t), prev = poly._y_node_ints(u.frame, size), (Fraction(0),) + u.moments
    return MomentFunctional(u.frame, tuple(
        _fraction_lincomb(qnp[n + 1], qdp[n + 1], m, qnp[n] * node, qdp[n] * t, prev[n])
        for n, (m, node) in enumerate(zip(u.moments, nodes))
    ))


def fraction_dist_D(u: MomentFunctional) -> MomentFunctional:
    """<D u, Y_n> = -[n]_q <L u, Y_{n-1}>, on the Fraction-entry L."""
    return fraction_dual_D(fraction_dist_L(u), Fraction(-1))


def fraction_dist_D_star(u: MomentFunctional) -> MomentFunctional:
    """<D* u, Y_n> = -q [n]_q y_{n-1}."""
    return fraction_dual_D(u, -u.frame.q)


def gram_matrix(u: MomentFunctional, polys, depth: int) -> list[list[Fraction]]:
    """G[m][n] = <u, P_m P_n>, one pairing per entry."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth + 1 > len(polys):
        raise ValueError("not enough polynomials for the requested Gram depth")
    return [
        [pair(u, mul(polys[m], polys[n])) for n in range(depth + 1)]
        for m in range(depth + 1)
    ]


def hankel_determinant(u: MomentFunctional, order: int) -> Fraction:
    """det [u_{i+j}]_{i,j=0}^{order-1} from the power moments, by exact elimination."""
    power = u.power_moments()
    if 2 * order - 2 > len(power) - 1:
        raise InsufficientMomentsError(f"Hankel order {order} needs moments up to {2 * order - 2}")
    mat = [[power[i + j] for j in range(order)] for i in range(order)]
    det = Fraction(1)
    for col in range(order):
        pivot = next((r for r in range(col, order) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, order):
            factor = mat[r][col] * inv
            if factor:
                for cc in range(col, order):
                    mat[r][cc] -= factor * mat[col][cc]
    return det


def pearson_residual(pear: PearsonPair, u: MomentFunctional, depth: int) -> list[Fraction]:
    """hahnpoly.functional.pearson_residual over the whole table: dist_D(phi u) - psi u, read to depth.

    It composes the library's entry-wise dist_D and left_multiply (checked against the
    basis-expansion routes above). On a table too short for depth, the error names the least
    table degree at which this route accepts depth, found by trying zero tables of rising degree;
    on a table long enough for it, a negative depth raises ValueError.
    """
    def residual(v: MomentFunctional) -> list[Fraction]:
        lhs = functional.dist_D(functional.left_multiply(phi_poly(pear), v))
        rhs = functional.left_multiply(psi_poly(pear), v)
        if depth > min(lhs.max_degree, rhs.max_degree):
            raise InsufficientMomentsError("residual window exceeds the table")
        return [a - b for a, b in zip(lhs.moments[: depth + 1], rhs.moments)]

    def accepts(degree: int) -> bool:
        try:
            residual(MomentFunctional(u.frame, (Fraction(0),) * (degree + 1)))
        except InsufficientMomentsError:
            return False
        return True

    try:
        out = residual(u)
    except InsufficientMomentsError:
        need = next(m for m in count() if accepts(m))
        raise InsufficientMomentsError(
            f"residual to depth {depth} needs a moment table of degree >= {need}"
        ) from None
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return out


def gram_suite(
    pear: PearsonPair,
    frame: HahnFrame,
    depth: int = 10,
    y0: Fraction = Fraction(1),
    fuzz_moment: Optional[int] = None,
) -> list[Check]:
    """hahnpoly.verify.gram_suite with both Gram checks read off the full Gram matrix."""
    checks = []
    table_depth = max(2 * depth, RESIDUAL_DEPTH + 1)
    if fuzz_moment is not None and not 0 <= fuzz_moment <= table_depth:
        raise SuiteArgumentError(
            f"fuzz_moment {fuzz_moment} is outside the moments the checks read, 0..{table_depth}"
        )
    u = solve_moments_fractions(pear, frame, y0, table_depth)
    if fuzz_moment is not None:
        moments = list(u.moments)
        moments[fuzz_moment] += 1
        u = MomentFunctional(frame, tuple(moments))
    residual = pearson_residual(pear, u, RESIDUAL_DEPTH)
    bad = [i for i, r in enumerate(residual) if r != 0]
    checks.append(Check(
        "pearson_residual_zero", f"nonzero residual at Y-degrees {bad[:4]} (cell {bad[0]})" if bad else ""
    ))
    table = classical.recurrence(pear, frame, depth, y0)
    gram = classical.gram_matrix(u, table.polys, depth)
    off = [(m, n) for m in range(depth + 1) for n in range(depth + 1)
           if m != n and gram[m][n] != 0]
    checks.append(Check("gram_off_diagonal_zero", f"nonzero off-diagonal cells {off[:4]}" if off else ""))
    detail = ""
    expected = y0
    for nn in range(depth + 1):
        if nn:
            expected *= table.gamma[nn]
        if gram[nn][nn] != expected or table.gamma[nn] == 0:
            detail = f"diagonal mismatch at n={nn}"
            break
    checks.append(Check("gram_diagonal_product_of_gammas", detail))
    return checks


def check_regular_per_index(pear: PearsonPair, frame: HahnFrame, depth: int) -> RegularityReport:
    """hahnpoly.classical.check_regular with d_n and e_n evaluated per index."""
    d_through = 2 * depth + 1
    d_failure = next((m for m in range(d_through + 1) if d_n(pear, frame, m) == 0), None)
    phi = phi_poly(pear)
    phi_failure = None
    n_limit = depth if d_failure is None else min(depth, d_failure - 1)
    for n in range(n_limit + 1):
        d2n = d_n(pear, frame, 2 * n)
        if d2n != 0 and phi(-e_n(pear, frame, n) / d2n) == 0:
            phi_failure = n
            break
    failure = None
    if d_failure is not None and (phi_failure is None or d_failure <= phi_failure):
        failure = (d_failure, D_ZERO)
    elif phi_failure is not None:
        failure = (phi_failure, PHI_ROOT)
    return RegularityReport(d_failure is None, d_failure, depth, failure, pear.d != 0, d_through)


def solve_moments_per_index(
    pear: PearsonPair, frame: HahnFrame, y0: ScalarLike = 1, depth: int = 24
) -> MomentFunctional:
    """hahnpoly.functional.solve_moments with d_n, e_n and [n]_q evaluated per index."""
    q, omega = frame.q, frame.omega
    y = [as_scalar(y0)]
    for n in range(depth):
        dn = d_n(pear, frame, n)
        if dn == 0:
            raise AdmissibilityError(n)
        acc = (e_n(pear, frame, n) + omega * q_bracket(n, q) * d_n(pear, frame, n - 1)) * y[n]
        if n >= 1:
            acc += q_bracket(n, q) * (pear.c + omega * e_n(pear, frame, n - 1)) * y[n - 1]
        y.append(-acc / dn)
    return MomentFunctional(frame, tuple(y))


def solve_moments_fractions(
    pear: PearsonPair, frame: HahnFrame, y0: ScalarLike = 1, depth: int = 24
) -> MomentFunctional:
    """hahnpoly.functional.solve_moments as one reduced Fraction step per moment.

    The recurrence y_{n+1} = A_n y_n + B_n y_{n-1} reads the integer sequences of
    pearson_sequences, with A_n = -(E_n + s W K_n D_{n-1}) / (M S_n D_n) and
    B_n = -K_n (pc M^2 S_{n-1}^2 + W E_{n-1}) / (M^2 S_{n-1}^2 D_n), phi = [pa, pb, pc],
    each one Fraction, and every y_n is reduced as it is formed.
    """
    top = max(depth - 1, 0)
    s = pearson_sequences(pear, frame, top, top)
    c, M, W, mm = s.phi[2], s.M, s.W, s.M * s.M
    y = [as_scalar(y0)]
    for n in range(depth):
        dn = s.d[n]
        if dn == 0:
            raise AdmissibilityError(n, moment_degree=depth)
        if n == 0:  # the d_{-1} term carries the factor [0]_q = 0
            y.append(Fraction(-s.e[0], M * dn) * y[0])
            continue
        bracket, sq = s.bracket[n], s.s_pow[n - 1] ** 2
        first = Fraction(-(s.e[n] + s.s_pow[1] * W * bracket * s.d[n - 1]), M * s.s_pow[n] * dn)
        second = Fraction(-bracket * (c * mm * sq + W * s.e[n - 1]), mm * sq * dn)
        y.append(first * y[n] + second * y[n - 1])
    return MomentFunctional(frame, tuple(y))


def beta_per_index(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """beta_n = omega [n]_q + [n]_q e_{n-1}/d_{2n-2} - [n+1]_q e_n/d_{2n}, in Fraction steps per index."""
    q = frame.q
    out = -q_bracket(n + 1, q) * e_n(pear, frame, n) / d_n(pear, frame, 2 * n)
    if n >= 1:
        bracket = q_bracket(n, q)
        out += frame.omega * bracket + bracket * e_n(pear, frame, n - 1) / d_n(pear, frame, 2 * n - 2)
    return out


def gamma_per_index(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """gamma_{n+1} = -q^n [n+1]_q d_{n-1} / (d_{2n-1} d_{2n+1}) phi(-e_n/d_{2n}), in Fraction steps per index.

    At n = 0 the factor d_{-1} cancels against d_{2n-1}: gamma_1 = -phi(-e/d) / d_1.
    """
    root_value = phi_poly(pear)(-e_n(pear, frame, n) / d_n(pear, frame, 2 * n))
    if n == 0:
        return -root_value / d_n(pear, frame, 1)
    factor = frame.q**n * q_bracket(n + 1, frame.q) * d_n(pear, frame, n - 1)
    return -factor / (d_n(pear, frame, 2 * n - 1) * d_n(pear, frame, 2 * n + 1)) * root_value


def phi_product(pear: PearsonPair, frame: HahnFrame, n: int) -> Poly:
    """Phi(x; n) = prod_{j=1}^n phi(q^j x + omega [j]_q), Phi(.; 0) = 1, in Poly products.

    Phi(.; n) L^n u is the closed form of the n-th derived functional u^[n], which
    hahnpoly.functional.derived_functional builds as L(phi u^[n-1]).
    """
    if n < 0:
        raise ValueError("phi_product needs n >= 0")
    out = Poly([1])
    for j in range(1, n + 1):
        out = mul(out, compose_affine(phi_poly(pear), frame.q**j, frame.omega * q_bracket(j, frame.q)))
    return out


def recurrence_polys(beta: Sequence[Fraction], gamma: Sequence[Fraction]) -> tuple[Poly, ...]:
    """P_0..P_{N+1} by P_{n+1} = (x - beta_n) P_n - gamma_n P_{n-1}, in Poly products."""
    x = Poly([0, 1])
    polys = [Poly([1]), x - Poly([beta[0]])]
    for n in range(1, len(beta)):
        polys.append(mul(x - Poly([beta[n]]), polys[n]) - gamma[n] * polys[n - 1])
    return tuple(polys)


def recurrence_payload(beta: Sequence[Fraction], gamma: Sequence[Fraction]) -> dict:
    """The `recurrence` JSON payload built from reduced Fractions and str(), over the Poly-product P_n."""
    return {
        "beta": [str(b) for b in beta],
        "gamma": [str(g) for g in gamma],
        "polynomials": [[str(c) for c in p.coeffs] for p in recurrence_polys(beta, gamma)],
    }


def random_poly_fractions(rng, max_degree: int) -> Poly:
    """verify.random_poly from the same rng calls, one Fraction per coefficient, through Poly(...)."""
    deg = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    return Poly(coeffs)


def random_functional_fractions(rng, frame: HahnFrame, depth: int) -> MomentFunctional:
    """verify.random_functional from the same rng calls, one Fraction per moment, through MomentFunctional(...)."""
    return MomentFunctional(frame, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(depth + 1)))
