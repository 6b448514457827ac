"""Moment functionals as finite tables of Y-basis moments.

A functional u is represented by y[n] = <u, Y_n> for 0 <= n <= max_degree.
Every distributional operation computes the exact validity window of its
result; pairing beyond the window raises, it never silently returns zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .qnum import (
    AdmissibilityError, HahnFrame, PearsonPair, ScalarLike, _ints, as_scalar, pearson_sequences,
    rodrigues_constant,
)
from .poly import Poly, _fracs, _iterates, _powers, _y_node_ints, phi_poly, psi_poly, to_y_basis

DEFAULT_DEPTH = 24


class InsufficientMomentsError(ValueError):
    """Asked to pair against a degree beyond the valid moment table."""


@dataclass(frozen=True)
class MomentFunctional:
    frame: HahnFrame
    moments: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(as_scalar(m) for m in self.moments))
        if not self.moments:
            raise ValueError("a moment table needs at least y_0")

    @classmethod
    def _trusted(cls, frame: HahnFrame, moments: tuple[Fraction, ...]) -> "MomentFunctional":
        """Wrap a nonempty tuple of Fractions that the kernels built: no as_scalar."""
        out = object.__new__(cls)
        object.__setattr__(out, "frame", frame)
        object.__setattr__(out, "moments", moments)
        return out

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    def truncate(self, max_degree: int) -> "MomentFunctional":
        if max_degree > self.max_degree:
            raise InsufficientMomentsError(
                f"cannot extend table of degree {self.max_degree} to {max_degree}"
            )
        return MomentFunctional(self.frame, self.moments[: max_degree + 1])

    def scale(self, c: ScalarLike) -> "MomentFunctional":
        c = as_scalar(c)
        return MomentFunctional._trusted(self.frame, tuple(c * m for m in self.moments))

    def __add__(self, other: "MomentFunctional") -> "MomentFunctional":
        if self.frame != other.frame:
            raise ValueError("cannot add functionals over different frames")
        n = min(self.max_degree, other.max_degree)
        return MomentFunctional._trusted(
            self.frame, tuple(self.moments[k] + other.moments[k] for k in range(n + 1))
        )

    def power_moments(self) -> list[Fraction]:
        """Derived view u_n = <u, x^n> = <x^n u, Y_0>, for n up to max_degree."""
        v, den = _ints(self.moments)
        nodes, t = _y_node_ints(self.frame, self.max_degree)
        nums = [v[0]]
        while len(v) > 1:
            v = _x_shift(v, nodes, t)
            nums.append(v[0])
        return _fracs(nums, [den * p for p in _powers(t, self.max_degree)])

    def agrees_with(self, other: "MomentFunctional") -> bool:
        """Entrywise equality on the shared valid range."""
        n = min(self.max_degree, other.max_degree)
        return self.moments[: n + 1] == other.moments[: n + 1]

    def to_json_dict(self) -> dict:
        return {
            "frame": {"q": str(self.frame.q), "omega": str(self.frame.omega)},
            "basis": "Y",
            "moments": [str(m) for m in self.moments],
            "maxDegree": self.max_degree,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MomentFunctional":
        frame = HahnFrame(Fraction(data["frame"]["q"]), Fraction(data["frame"]["omega"]))
        return MomentFunctional(frame, tuple(Fraction(m) for m in data["moments"]))


def pair(u: MomentFunctional, f: Poly) -> Fraction:
    """<u, f> via the Y-basis expansion of f."""
    if f.is_zero():
        return Fraction(0)
    if f.degree() > u.max_degree:
        raise InsufficientMomentsError(
            f"pairing needs moments up to degree {f.degree()}, table stops at {u.max_degree}"
        )
    coeffs = to_y_basis(f, u.frame)
    return sum((c * u.moments[k] for k, c in enumerate(coeffs)), Fraction(0))


def solve_moments(
    pear: PearsonPair, frame: HahnFrame, y0: ScalarLike = 1, depth: int = DEFAULT_DEPTH
) -> MomentFunctional:
    """Moment table of the functional solving D(phi u) = psi u, <u, 1> = y0.

    Uses the equivalent three-term recurrence in the Y-basis moments,
    d_n y_{n+1} + (e_n + omega [n]_q d_{n-1}) y_n + [n]_q (c + omega e_{n-1}) y_{n-1} = 0,
    which is first order in y_{n+1} whenever all d_n are nonzero; see _moment_steps.
    Entry n is the one Fraction N_n / (h_0 h_1 ... h_n).
    """
    nums, steps = _moment_steps(pear, frame, y0, depth)
    return MomentFunctional._trusted(frame, tuple(_fracs(nums, accumulate(steps, mul))))


def _moment_table(pear: PearsonPair, frame: HahnFrame, y0: Fraction, depth: int) -> tuple[list[int], int]:
    """The moments y_0..y_depth of solve_moments as integers over one denominator, h_0 h_1 ... h_depth.

    Entry n is N_n times the suffix product h_{n+1} ... h_depth. No gcd is taken: the steps
    of _moment_steps already keep that denominator close to the least one.
    """
    nums, steps = _moment_steps(pear, frame, y0, depth)
    tail = 1
    for n in range(depth, -1, -1):
        nums[n] *= tail
        tail *= steps[n]
    return nums, tail


def _moment_steps(pear: PearsonPair, frame: HahnFrame, y0: ScalarLike, depth: int) -> tuple[list[int], list[int]]:
    """Numerators N_n and positive steps h_n with y_n = N_n / (h_0 h_1 ... h_n), 0 <= n <= depth.

    Over -d_n the recurrence reads y_{n+1} = A_n y_n + B_n y_{n-1}, with one Fraction each on the
    integer sequences: A_n = -(E_n + s W K_n D_{n-1}) / (M S_n D_n) and
    B_n = -K_n (c' M^2 L S_{n-1}^2 + c'' W E_{n-1}) / (c'' M^2 S_{n-1}^2 D_n), c = c'/c''.
    Over h = lcm(M S_n, c'' M^2 S_{n-1}^2) |D_n| both are integers, a_n = A_n h and b_n = B_n h, so
    y_{n+1} = N / (h_0 ... h_n h) with N = a_n N_n + b_n h_n N_{n-1}. The step then drops the
    factor g = gcd(N, h): N_{n+1} = N / g and h_{n+1} = h / g. That gcd pairs a tall integer with
    one of O(n) bits, so it costs about one multiplication, and it keeps h_0 ... h_n close to the
    reduced denominator of y_n, which shortens the one full gcd per entry of solve_moments.
    At n = 0 the d_{-1} term carries the factor [0]_q = 0, so h = M |D_0|.
    """
    top = max(depth - 1, 0)
    s = pearson_sequences(pear, frame, top, top)
    c, cd, M, W, mm = s.phi[2], s.C, s.M, s.W, s.M * s.M
    y0 = as_scalar(y0)
    nums, steps = [y0.numerator], [y0.denominator]
    for n in range(depth):
        dn = s.d[n]
        if dn == 0:
            raise AdmissibilityError(n, moment_degree=depth)
        sign = -1 if dn > 0 else 1  # the sign of -1 / D_n
        if n == 0:
            h, nxt = M * abs(dn), sign * s.e[0] * nums[0]
        else:
            bracket, sq = s.bracket[n], s.s_pow[n - 1] ** 2
            over_a, over_b = M * s.s_pow[n], cd * mm * sq
            common = lcm(over_a, over_b)
            a = sign * (common // over_a) * (s.e[n] + s.s_pow[1] * W * bracket * s.d[n - 1])
            b = sign * (common // over_b) * bracket * (c * mm * s.L * sq + cd * W * s.e[n - 1])
            h = common * abs(dn)
            nxt = a * nums[n] + b * steps[n] * nums[n - 1]
        g = gcd(nxt, h)
        steps.append(h // g)
        nums.append(nxt // g)
    return nums, steps


def _x_shift(v: Sequence[int], nodes: Sequence[int], t: int) -> list[int]:
    """Moments of x*u from the moments of u: <u, x Y_l> = v_{l+1} + node_l v_l.

    On numerators over s (v) and t (nodes), the result is over s t. It is one
    entry shorter than v; nodes needs len(v) - 1 entries.
    """
    return [t * v[l + 1] + nodes[l] * v[l] for l in range(len(v) - 1)]


def _horner(cs: Sequence[int], y: Sequence[int], nodes: Sequence[int], t: int) -> tuple[list[int], int]:
    """Moments of f*u from those of u, f = sum_k cs[k] x^k, by Horner's rule over the x-shift.

    On y over s, cs over c and nodes over t, the result is over s c p, where p = t^deg f
    is returned with it; it is deg f entries shorter than y. O(deg f * len(y)) integer work.
    """
    out = [cs[-1] * m for m in y]
    power = 1
    for c in reversed(cs[:-1]):
        out = _x_shift(out, nodes, t)
        power *= t
        if c:
            out = [a + c * power * m for a, m in zip(out, y)]
    return out, power


def left_multiply(f: Poly, u: MomentFunctional) -> MomentFunctional:
    """The functional f*u, with <f u, g> = <u, f g>."""
    if f.is_zero():
        return MomentFunctional._trusted(u.frame, (Fraction(0),) * (u.max_degree + 1))
    if u.max_degree < f.degree():
        raise InsufficientMomentsError(
            f"left_multiply by degree {f.degree()} exhausts a table of degree {u.max_degree}"
        )
    y, den = _ints(u.moments)
    out, power = _horner(f.nums, y, *_y_node_ints(u.frame, u.max_degree))
    return MomentFunctional._trusted(u.frame, tuple(_fracs(out, [den * f.den * power] * len(out))))


def _dual_D(v: MomentFunctional, factor: Fraction) -> MomentFunctional:
    """Entries factor * [n]_q v_{n-1} for 0 <= n <= len(v.moments): the dual of D Y_n = [n]_q Y_{n-1}.

    The small factor runs on integers, [n]_q = b_n / qd^(n-1) with
    b_{n+1} = qd^n + qn b_n; each entry is then one Fraction product, whose
    cross-cancellation stays cheap however tall v_{n-1} is.
    """
    qn, qd = v.frame.q.numerator, v.frame.q.denominator
    out, b = [Fraction(0)], 1
    for m, p in zip(v.moments, _powers(qd, len(v.moments))):
        out.append(m * Fraction(factor.numerator * b, factor.denominator * p))
        b = qd * p + qn * b
    return MomentFunctional._trusted(v.frame, tuple(out))


def dist_D(u: MomentFunctional) -> MomentFunctional:
    """Distributional Hahn derivative: <D u, f> = -q^{-1} <u, D* f>.

    By identity P4 this is q^{-1} D*(L u), so <D u, Y_n> = -[n]_q <L u, Y_{n-1}>.
    D* lowers degree by one, so the result is valid one index further.
    """
    return _dual_D(dist_L(u), Fraction(-1))


def dist_D_star(u: MomentFunctional) -> MomentFunctional:
    """The starred derivative, i.e. dist_D in the reciprocal frame.

    Unfolding the definition at (1/q, -omega/q) gives
    <D* u, f> = -q <u, D f>, and D Y_n = [n]_q Y_{n-1} makes it
    <D* u, Y_n> = -q [n]_q y_{n-1}.
    """
    return _dual_D(u, -u.frame.q)


def _lincomb(an: int, ad: int, x: Fraction, bn: int, bd: int, y: Fraction) -> Fraction:
    """(an/ad) x + (bn/bd) y as one Fraction, over ad bd lcm(x.denominator, y.denominator)."""
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    g = gcd(b, d)
    return Fraction(an * a * bd * (d // g) + bn * c * ad * (b // g), ad * bd * b * (d // g))


def dist_L(u: MomentFunctional) -> MomentFunctional:
    """<L u, f> = q^{-1} <u, L* f>; degree-preserving.

    Forward substitution through the bidiagonal system of dist_L_star:
    <L u, Y_n> = q^{-n-1} y_n - q^{-1} node_n <L u, Y_{n-1}>.
    """
    q, (nodes, t) = u.frame.q, _y_node_ints(u.frame, len(u.moments))
    qnp, qdp = _powers(q.numerator, len(u.moments)), _powers(q.denominator, len(u.moments))
    out = [Fraction(0)]
    for n, (m, node) in enumerate(zip(u.moments, nodes)):
        out.append(_lincomb(qdp[n + 1], qnp[n + 1], m, -node * q.denominator, t * q.numerator, out[-1]))
    return MomentFunctional._trusted(u.frame, tuple(out[1:]))


def dist_L_star(u: MomentFunctional) -> MomentFunctional:
    """Inverse of dist_L; unfolds to <L* u, f> = q <u, L f>.

    L Y_n = q^n Y_n + q^{n-1} omega [n]_q Y_{n-1}, so
    <L* u, Y_n> = q^{n+1} y_n + q^n omega [n]_q y_{n-1}.
    """
    qnp, qdp = _powers(u.frame.q.numerator, len(u.moments)), _powers(u.frame.q.denominator, len(u.moments))
    (nodes, t), prev = _y_node_ints(u.frame, len(u.moments)), (Fraction(0),) + u.moments
    return MomentFunctional._trusted(u.frame, tuple(
        _lincomb(qnp[n + 1], qdp[n + 1], m, qnp[n] * node, qdp[n] * t, prev[n])
        for n, (m, node) in enumerate(zip(u.moments, nodes))
    ))


def pearson_residual(pear: PearsonPair, u: MomentFunctional, depth: int) -> list[Fraction]:
    """Entry n is <D(phi u) - psi u, Y_n>, for 0 <= n <= depth; it reads y_0..y_{depth+1}."""
    phi, psi = phi_poly(pear), psi_poly(pear)
    dp, ds = phi.degree() or 0, psi.degree() or 0
    need = max(depth + dp - 1, depth + ds, dp, ds)  # D(phi u) reads one entry less of phi u than psi u
    if need > u.max_degree:
        raise InsufficientMomentsError(f"residual to depth {depth} needs a moment table of degree >= {need}")
    if depth < 0:
        return []
    return _residual_ints(phi, psi, u.frame, *_ints(u.moments[: depth + 2]), depth)


def _residual_ints(
    phi: Poly, psi: Poly, frame: HahnFrame, y: Sequence[int], den: int, depth: int
) -> list[Fraction]:
    """pearson_residual on the moments y[k] / den, which must reach the degree it checks; reads y_0..y_{depth+1}.

    On integers: V_n, W_n are the numerators of phi u, psi u from _horner, N_n/t the nodes and
    q = qn/qd. dist_L's forward substitution gives <L(phi u), Y_n> = O_n/(qn^(n+1) t^n S_V) with
    O_n = qd^(n+1) t^n V_n - qd N_n O_{n-1}, and _dual_D's [n]_q = b_n/qd^(n-1) then gives D(phi u).
    """
    cd = lcm(phi.den, psi.den)
    y = y[: depth + 2]
    nodes, t = _y_node_ints(frame, len(y) - 1)
    v, pv = _horner([c * (cd // phi.den) for c in phi.nums or (0,)], y, nodes, t)
    w, pw = _horner([c * (cd // psi.den) for c in psi.nums or (0,)], y, nodes, t)
    qn, qd = frame.q.numerator, frame.q.denominator
    scale = den * cd * pv * pw
    out = [Fraction(-w[0] * pv, scale)]
    o, b, a, g, qp = 0, 1, 1, qn, qd  # a = (qd t)^n, g = qn^(n+1), qp = qd^(n+1), b = b_{n+1}
    for n in range(depth):
        o = qd * (a * v[n] - nodes[n] * o)
        out.append(Fraction(-b * o * pw - w[n + 1] * a * g * pv, a * g * scale))
        a, g, b, qp = a * qd * t, g * qn, qp + qn * b, qp * qd
    return out


def derived_functional(pear: PearsonPair, u: MomentFunctional, k: int) -> MomentFunctional:
    """The k-th derived functional u^[k] = L(phi u^[k-1]), u^[0] = u, in the frame of u."""
    if k < 0:
        raise ValueError("derived_functional needs k >= 0")
    phi = phi_poly(pear)
    return _iterates(lambda v: dist_L(left_multiply(phi, v)), u, k)[-1]


def rodrigues_rhs(pear: PearsonPair, u: MomentFunctional, n: int) -> MomentFunctional:
    """k_n (D*)^n u^[n], all in the frame of u: the right-hand side of the Rodrigues identity."""
    return _rhs(pear, derived_functional(pear, u, n), n)


def _rhs(pear: PearsonPair, derived: MomentFunctional, n: int) -> MomentFunctional:
    """k_n (D*)^n derived, for derived the n-th derived functional of u; k_n and D* are in derived.frame."""
    return _iterates(dist_D_star, derived, n)[-1].scale(rodrigues_constant(pear, derived.frame, n))
