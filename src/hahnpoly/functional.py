"""Moment functionals as finite tables of Y-basis moments.

A functional u is represented by y[n] = <u, Y_n> for 0 <= n <= max_degree.
Entry n is stored as integers, nums[n] / dens[n] in lowest terms with
dens[n] > 0 and zero as (0, 1), so equal tables have equal (nums, dens) and
==, hash and agrees_with compare integers. The kernels read and return that
form, taking per entry the gcd that Fraction arithmetic would take but none of
its object cost; ``moments`` builds the reduced Fractions on read. Each entry
keeps its own denominator: one denominator for the whole table is as tall as
the lcm of all of them, and on tall, unrelated denominators that form ran
`verify --suite rodrigues` up to 1.45x slower.

Every distributional operation computes the exact validity window of its
result; pairing beyond the window raises, it never silently returns zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .qnum import (
    AdmissibilityError, HahnFrame, PearsonPair, ScalarLike, _brackets, _powers, as_scalar, pearson_sequences,
    rodrigues_constant,
)
from .poly import Poly, _fracs, _iterates, _to_y_ints, _y_node_ints, phi_poly, psi_poly

DEFAULT_DEPTH = 24


class InsufficientMomentsError(ValueError):
    """Asked to pair against a degree beyond the valid moment table."""


@dataclass(frozen=True, init=False)
class MomentFunctional:
    """A moment table over a frame: entry n is nums[n] / dens[n] in lowest terms, with dens[n] > 0."""

    frame: HahnFrame
    nums: tuple[int, ...]
    dens: tuple[int, ...]

    def __new__(cls, frame: HahnFrame, moments: Iterable[ScalarLike]):
        moments = [as_scalar(m) for m in moments]
        if not moments:
            raise ValueError("a moment table needs at least y_0")
        return cls._wrap(frame, [m.numerator for m in moments], [m.denominator for m in moments])

    @classmethod
    def _wrap(cls, frame: HahnFrame, nums: Iterable[int], dens: Iterable[int]) -> "MomentFunctional":
        """A table over nonempty entries nums[n] / dens[n] that a kernel has already put in lowest terms."""
        out = object.__new__(cls)
        object.__setattr__(out, "frame", frame)
        object.__setattr__(out, "nums", tuple(nums))
        object.__setattr__(out, "dens", tuple(dens))
        return out

    @classmethod
    def _from_ints(cls, frame: HahnFrame, nums: Iterable[int], dens: Iterable[int]) -> "MomentFunctional":
        """The table of entries nums[n] / dens[n], dens[n] > 0, each put in lowest terms by one gcd."""
        out_n, out_d = [], []
        for n, d in zip(nums, dens):
            g = gcd(n, d)
            out_n.append(n // g)
            out_d.append(d // g)
        return cls._wrap(frame, out_n, out_d)

    def __reduce__(self):
        # copy and pickle rebuild the table from its integers; __new__ takes moments
        return MomentFunctional._wrap, (self.frame, self.nums, self.dens)

    @property
    def moments(self) -> tuple[Fraction, ...]:
        """The moments y_0..y_max_degree as reduced Fractions, built on each read."""
        return tuple(map(Fraction, self.nums, self.dens))

    @property
    def max_degree(self) -> int:
        return len(self.nums) - 1

    def _over_lcm(self, count: int | None = None) -> tuple[list[int], int]:
        """Entries 0..count-1 (all by default) as integer numerators over the lcm of their denominators."""
        nums, dens = self.nums[:count], self.dens[:count]
        den = lcm(*dens)
        return [n * (den // d) for n, d in zip(nums, dens)], den

    def truncate(self, max_degree: int) -> "MomentFunctional":
        if max_degree > self.max_degree:
            raise InsufficientMomentsError(
                f"cannot extend table of degree {self.max_degree} to {max_degree}"
            )
        if max_degree < 0:
            raise ValueError("a moment table needs at least y_0")
        return MomentFunctional._wrap(self.frame, self.nums[: max_degree + 1], self.dens[: max_degree + 1])

    def scale(self, c: ScalarLike) -> "MomentFunctional":
        c = as_scalar(c)
        return MomentFunctional._wrap(
            self.frame, *_times(self.nums, self.dens, repeat(c.numerator), repeat(c.denominator)))

    def __add__(self, other: "MomentFunctional") -> "MomentFunctional":
        """Entrywise sum on the shared valid range, by _lincomb with both factors 1."""
        if self.frame != other.frame:
            raise ValueError("cannot add functionals over different frames")
        entries = (_lincomb(1, 1, x, 1, 1, y) for x, y in zip(zip(self.nums, self.dens), zip(other.nums, other.dens)))
        return MomentFunctional._wrap(self.frame, *zip(*entries))

    def power_moments(self) -> list[Fraction]:
        """Derived view u_n = <u, x^n> = <x^n u, Y_0>, n <= max_degree: over den t^n (t of the nodes), reduced once."""
        v, den = self._over_lcm()
        nodes, t = _y_node_ints(self.frame, self.max_degree)
        nums = [v[0]]
        while len(v) > 1:
            v = _x_shift(v, nodes, t)
            nums.append(v[0])
        return _fracs(nums, [den * p for p in _powers(t, self.max_degree)])

    def agrees_with(self, other: "MomentFunctional") -> bool:
        """Entrywise equality on the shared valid range."""
        n = min(self.max_degree, other.max_degree) + 1
        return self.nums[:n] == other.nums[:n] and self.dens[:n] == other.dens[:n]

    def to_json_dict(self) -> dict:
        return {
            "frame": {"q": str(self.frame.q), "omega": str(self.frame.omega)},
            "basis": "Y",
            "moments": [str(n) if d == 1 else f"{n}/{d}" for n, d in zip(self.nums, self.dens)],
            "maxDegree": self.max_degree,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MomentFunctional":
        """The table that to_json_dict wrote: a frame of strings q and omega, basis "Y", moments a list of strings,
        maxDegree len(moments) - 1, each rational 'p' or 'p/q'. Any other shape raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {data!r}")
        frame, moments = data.get("frame"), data.get("moments")
        if not (isinstance(frame, dict) and all(isinstance(frame.get(k), str) for k in ("q", "omega"))):
            raise ValueError(f"frame: expected an object with strings q and omega, got {frame!r}")
        if not (isinstance(moments, list) and all(isinstance(m, str) for m in moments)):
            raise ValueError(f"moments: expected a list of strings, got {moments!r:.80}")
        top, basis = data.get("maxDegree"), data.get("basis")
        if basis != "Y" or type(top) is not int or top != len(moments) - 1:
            raise ValueError(f"expected basis 'Y' and maxDegree {len(moments) - 1}, got {basis!r} and {top!r}")
        return MomentFunctional(HahnFrame(frame["q"], frame["omega"]), moments)


def _times(nums: Iterable[int], dens: Iterable[int], cns: Iterable[int], cds: Iterable[int]) -> tuple[list, list]:
    """The products (nums[n] / dens[n]) (cns[n] / cds[n]) of entries in lowest terms, in lowest terms.

    Fraction's cross-cancellation: gcd(a, d) and gcd(c, b) pair each entry with a small factor,
    so no gcd of two tall integers is taken.
    """
    out_n, out_d = [], []
    for a, b, c, d in zip(nums, dens, cns, cds):
        g1, g2 = gcd(a, d), gcd(c, b)
        out_n.append((a // g1) * (c // g2))
        out_d.append((b // g2) * (d // g1))
    return out_n, out_d


def pair(u: MomentFunctional, f: Poly) -> Fraction:
    """<u, f> = sum_k c_k y_k over the Y-basis expansion of f, summed on integers.

    With c_k = g_k / (f.den t^(m-k)) from _to_y_ints and y_k = Y_k / s over the lcm s of
    y_0..y_m, it is (sum_k g_k t^k Y_k) / (f.den t^m s): one Fraction.
    """
    if f.is_zero():
        return Fraction(0)
    if f.degree() > u.max_degree:
        raise InsufficientMomentsError(
            f"pairing needs moments up to degree {f.degree()}, table stops at {u.max_degree}"
        )
    g, t = _to_y_ints(f, u.frame)
    y, den = u._over_lcm(len(g))
    acc = 0
    for gk, yk in zip(reversed(g), reversed(y)):
        acc = acc * t + gk * yk
    return Fraction(acc, f.den * t ** (len(g) - 1) * den)


def solve_moments(
    pear: PearsonPair, frame: HahnFrame, y0: ScalarLike = 1, depth: int = DEFAULT_DEPTH
) -> MomentFunctional:
    """Moment table of the functional solving D(phi u) = psi u, <u, 1> = y0.

    Uses the equivalent three-term recurrence in the Y-basis moments,
    d_n y_{n+1} + (e_n + omega [n]_q d_{n-1}) y_n + [n]_q (c + omega e_{n-1}) y_{n-1} = 0,
    which is first order in y_{n+1} whenever all d_n are nonzero; see _moment_steps.
    Entry n is N_n / (h_0 h_1 ... h_n), reduced by one gcd.
    """
    nums, steps = _moment_steps(pear, frame, y0, depth)
    return MomentFunctional._from_ints(frame, nums, accumulate(steps, mul))


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
    integer sequences, where lam cancels: A_n = -(E_n + s W K_n D_{n-1}) / (M S_n D_n) and
    B_n = -K_n (pc M^2 S_{n-1}^2 + W E_{n-1}) / (M^2 S_{n-1}^2 D_n), phi = [pa, pb, pc].
    Over h = lcm(M S_n, M^2 S_{n-1}^2) |D_n| both are integers, a_n = A_n h and b_n = B_n h, so
    y_{n+1} = N / (h_0 ... h_n h) with N = a_n N_n + b_n h_n N_{n-1}. The step then drops the
    factor g = gcd(N, h): N_{n+1} = N / g and h_{n+1} = h / g. That gcd pairs a tall integer with
    one of O(n) bits, so it costs about one multiplication, and it keeps h_0 ... h_n close to the
    reduced denominator of y_n, which shortens the one full gcd per entry of solve_moments.
    At n = 0 the d_{-1} term carries the factor [0]_q = 0, so h = M |D_0|.
    """
    if depth < 0:
        raise ValueError(f"a moment table needs depth >= 0, got {depth}")
    top = max(depth - 1, 0)
    s = pearson_sequences(pear, frame, top, top)
    c, M, W, mm = s.phi[2], s.M, s.W, s.M * s.M
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
            over_a, over_b = M * s.s_pow[n], mm * sq
            common = lcm(over_a, over_b)
            a = sign * (common // over_a) * (s.e[n] + s.s_pow[1] * W * bracket * s.d[n - 1])
            b = sign * (common // over_b) * bracket * (c * mm * sq + W * s.e[n - 1])
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
        return MomentFunctional._wrap(u.frame, repeat(0, len(u.nums)), repeat(1, len(u.nums)))
    if u.max_degree < f.degree():
        raise InsufficientMomentsError(
            f"left_multiply by degree {f.degree()} exhausts a table of degree {u.max_degree}"
        )
    y, den = u._over_lcm()
    out, power = _horner(f.nums, y, *_y_node_ints(u.frame, u.max_degree))
    return MomentFunctional._from_ints(u.frame, out, repeat(den * f.den * power))


def _dual_D(v: MomentFunctional, factor: Fraction) -> MomentFunctional:
    """Entries factor * [n]_q v_{n-1} for 0 <= n <= len(v.nums): the dual of D Y_n = [n]_q Y_{n-1}.

    The small factor runs on integers, [n]_q = b_n / qd^(n-1) over the b_n of _brackets,
    reduced by one short gcd; each entry is then the cross-cancelled product of _times,
    which stays cheap however tall v_{n-1} is.
    """
    cns, cds = [], []
    for b, p in zip(_brackets(v.frame.q, len(v.nums))[1:], _powers(v.frame.q.denominator, v.max_degree)):
        c, d = factor.numerator * b, factor.denominator * p
        g = gcd(c, d)
        cns.append(c // g)
        cds.append(d // g)
    nums, dens = _times(v.nums, v.dens, cns, cds)
    return MomentFunctional._wrap(v.frame, [0, *nums], [1, *dens])


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


def _lincomb(an: int, ad: int, x: tuple[int, int], bn: int, bd: int, y: tuple[int, int]) -> tuple[int, int]:
    """(an/ad) x + (bn/bd) y for entries x = a/b, y = c/d: over ad bd lcm(b, d), then one gcd.

    Returns the sum in lowest terms with a positive denominator; ad and bd may be negative.
    """
    (a, b), (c, d) = x, y
    g = gcd(b, d)
    num, den = an * a * bd * (d // g) + bn * c * ad * (b // g), ad * bd * b * (d // g)
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def dist_L(u: MomentFunctional) -> MomentFunctional:
    """<L u, f> = q^{-1} <u, L* f>; degree-preserving.

    Forward substitution through the bidiagonal system of dist_L_star:
    <L u, Y_n> = q^{-n-1} y_n - q^{-1} node_n <L u, Y_{n-1}>.
    """
    size = len(u.nums)
    q, (nodes, t) = u.frame.q, _y_node_ints(u.frame, size)
    qnp, qdp = _powers(q.numerator, size), _powers(q.denominator, size)
    out = [(0, 1)]
    for n, (m, node) in enumerate(zip(zip(u.nums, u.dens), nodes)):
        out.append(_lincomb(qdp[n + 1], qnp[n + 1], m, -node * q.denominator, t * q.numerator, out[-1]))
    return MomentFunctional._wrap(u.frame, *zip(*out[1:]))


def dist_L_star(u: MomentFunctional) -> MomentFunctional:
    """Inverse of dist_L; unfolds to <L* u, f> = q <u, L f>.

    L Y_n = q^n Y_n + q^{n-1} omega [n]_q Y_{n-1}, so
    <L* u, Y_n> = q^{n+1} y_n + q^n omega [n]_q y_{n-1}.
    """
    size, entries = len(u.nums), list(zip(u.nums, u.dens))
    qnp, qdp = _powers(u.frame.q.numerator, size), _powers(u.frame.q.denominator, size)
    (nodes, t), prev = _y_node_ints(u.frame, size), [(0, 1), *entries]
    return MomentFunctional._wrap(u.frame, *zip(*(
        _lincomb(qnp[n + 1], qdp[n + 1], m, qnp[n] * node, qdp[n] * t, prev[n])
        for n, (m, node) in enumerate(zip(entries, nodes))
    )))


def pearson_residual(pear: PearsonPair, u: MomentFunctional, depth: int) -> list[Fraction]:
    """Entry n is <D(phi u) - psi u, Y_n>, for 0 <= n <= depth; it reads y_0..y_{depth+1}."""
    phi, psi = phi_poly(pear), psi_poly(pear)
    dp, ds = phi.degree() or 0, psi.degree() or 0
    need = max(depth + dp - 1, depth + ds, dp, ds)  # D(phi u) reads one entry less of phi u than psi u
    if need > u.max_degree:
        raise InsufficientMomentsError(f"residual to depth {depth} needs a moment table of degree >= {need}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return [Fraction(n, d) for n, d in _residual_ints(phi, psi, u.frame, *u._over_lcm(depth + 2), depth)]


def _residual_ints(
    phi: Poly, psi: Poly, frame: HahnFrame, y: Sequence[int], den: int, depth: int
) -> list[tuple[int, int]]:
    """pearson_residual on the moments y[k] / den, which must reach the degree it checks; reads y_0..y_{depth+1}.

    Entry n is an unreduced (num, den), so a zero test reads num alone and takes no gcd.
    On integers: V_n, W_n are the numerators of phi u, psi u from _horner, N_n/t the nodes and
    q = qn/qd. dist_L's forward substitution gives <L(phi u), Y_n> = O_n/(qn^(n+1) t^n S_V) with
    O_n = qd^(n+1) t^n V_n - qd N_n O_{n-1}, and [n]_q = b_n/qd^(n-1) over the b_n of _brackets then gives
    D(phi u), as in _dual_D.
    """
    cd = lcm(phi.den, psi.den)
    y = y[: depth + 2]
    nodes, t = _y_node_ints(frame, len(y) - 1)
    v, pv = _horner([c * (cd // phi.den) for c in phi.nums or (0,)], y, nodes, t)
    w, pw = _horner([c * (cd // psi.den) for c in psi.nums or (0,)], y, nodes, t)
    qn, qd = frame.q.numerator, frame.q.denominator
    scale = den * cd * pv * pw
    out = [(-w[0] * pv, scale)]
    o, a, g = 0, 1, qn  # a = (qd t)^n, g = qn^(n+1)
    for n, b in enumerate(_brackets(frame.q, depth)[1:]):  # b = b_{n+1}
        o = qd * (a * v[n] - nodes[n] * o)
        out.append((-b * o * pw - w[n + 1] * a * g * pv, a * g * scale))
        a, g = a * qd * t, g * qn
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
