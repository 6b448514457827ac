"""Dense exact polynomials and the Hahn operator calculus on them.

A Poly is stored as integer numerators over one denominator: coefficient k,
lowest degree first, is nums[k] / den, with den > 0, gcd(den, *nums) == 1 and
no trailing zero, so equal polynomials have equal (nums, den). The zero
polynomial is ((), 1) and reports ``degree() is None``. The kernels read and
return that form; ``coeffs`` builds the reduced Fractions on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .qnum import HahnFrame, PearsonPair, ScalarLike, _ints, _powers, as_scalar


def _fracs(nums: Iterable[int], dens: Iterable[int]) -> list[Fraction]:
    """The reduced Fractions nums[k] / dens[k]: the kernels' one way back from integers."""
    return list(map(Fraction, nums, dens))


@dataclass(frozen=True, init=False)
class Poly:
    """Immutable univariate polynomial over exact rationals: a frozen dataclass over (nums, den) in lowest terms."""

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()):
        return cls._from_ints(*_ints([as_scalar(c) for c in coeffs]))

    @classmethod
    def _from_ints(cls, nums: list[int], den: int) -> "Poly":
        """sum_k nums[k] x^k / den in canonical form: strips trailing zeros in place, divides out the content."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        return cls._wrap(tuple(nums) if g == 1 else tuple(n // g for n in nums), den // g)

    @classmethod
    def _wrap(cls, nums: tuple[int, ...], den: int) -> "Poly":
        """A Poly over (nums, den) that is already canonical, such as the content-free rows of the row engine."""
        out = object.__new__(cls)
        object.__setattr__(out, "nums", nums)
        object.__setattr__(out, "den", den)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, lowest degree first."""
        return tuple(map(Fraction, self.nums, repeat(self.den)))

    @staticmethod
    def constant(c: ScalarLike) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(n: int, c: ScalarLike = 1) -> "Poly":
        if n < 0:
            raise ValueError(f"monomial needs n >= 0, got {n}")
        return Poly([0] * n + [c])

    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __call__(self, x: ScalarLike) -> Fraction:
        """Horner on integers: with x = xn/xd, sum_k nums[k] xn^k xd^(m-k) over den xd^m."""
        x = as_scalar(x)
        acc, power = 0, 1
        for n in reversed(self.nums):
            acc = acc * x.numerator + n * power
            power *= x.denominator
        return Fraction(acc * x.denominator, self.den * power)

    def __add__(self, other: "Poly") -> "Poly":
        g = gcd(self.den, other.den)
        a, b = [n * (other.den // g) for n in self.nums], [n * (self.den // g) for n in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly._from_ints(a, self.den // g * other.den)

    def __neg__(self) -> "Poly":
        return Poly._from_ints([-n for n in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.nums or not other.nums:
                return Poly()
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, x in enumerate(self.nums):
                if x:
                    for j, y in enumerate(other.nums):
                        out[i + j] += x * y
            return Poly._from_ints(out, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c: ScalarLike) -> "Poly":
        c = as_scalar(c)
        return Poly._from_ints([c.numerator * n for n in self.nums], c.denominator * self.den)

    def compose_affine(self, alpha: ScalarLike, beta: ScalarLike) -> "Poly":
        """Substitute x -> alpha*x + beta: an integer Taylor shift, O(deg^2) integer work.

        On the numerators of f, m = deg f, alpha = an/ad and beta = bn/bd, h(x) = sum_k nums[k] bd^(m-k) x^k
        is bd^m f(x/bd), so h(x + bn) is rounds of synthetic addition h_j += bn h_{j+1} (von zur Gathen and
        Gerhard 1997), and coefficient k of f(alpha x + beta) is
        h_k an^k / (bd^(m-k) ad^k) = h_k (an bd)^k ad^(m-k) / (bd^m ad^m), over den bd^m ad^m in all.
        """
        alpha, beta = as_scalar(alpha), as_scalar(beta)
        m, bd = len(self.nums) - 1, beta.denominator
        nums, den = _taylor_shift(self.nums, beta.numerator, _powers(bd, m), _powers(alpha.numerator * bd, m),
                                  _powers(alpha.denominator, m))
        return Poly._from_ints(nums, self.den * den)

    def __repr__(self):
        if not self.nums:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(terms) + ")"


def _taylor_shift(nums: Sequence[int], bn: int, bd_pows: Sequence[int], abd_pows: Sequence[int],
                  ad_pows: Sequence[int]) -> tuple[list[int], int]:
    """The Taylor shift of Poly.compose_affine, over the powers bd^k, (an bd)^k and ad^k for k < len(nums) at least."""
    m = len(nums) - 1
    h = [n * p for n, p in zip(nums, bd_pows[m::-1])]
    if bn:
        for i in range(m):
            for j in range(m - 1, i - 1, -1):
                h[j] += bn * h[j + 1]
    top = max(m, 0)
    return list(map(mul, h, map(mul, abd_pows, ad_pows[m::-1]))), bd_pows[top] * ad_pows[top]


def _shift_ints(nums: Sequence[int], frame: HahnFrame) -> tuple[list[int], int]:
    """L f = f(q x + omega) on integers, as Poly.compose_affine(q, omega), over the powers of frame._tables."""
    qd, od, qn_od, _ = frame._tables(len(nums) - 1)
    return _taylor_shift(nums, frame.omega.numerator, od, qn_od, qd)


def phi_poly(pear: PearsonPair) -> Poly:
    """phi(x) = a x^2 + b x + c."""
    return Poly([pear.c, pear.b, pear.a])


def psi_poly(pear: PearsonPair) -> Poly:
    """psi(x) = d x + e."""
    return Poly([pear.e, pear.d])


def op_L(f: Poly, frame: HahnFrame) -> Poly:
    """L f(x) = f(q x + omega)."""
    nums, den = _shift_ints(f.nums, frame)
    return Poly._from_ints(nums, f.den * den)


def op_L_star(f: Poly, frame: HahnFrame) -> Poly:
    """L* f(x) = f((x - omega)/q), the inverse of op_L: op_L in the reciprocal frame (1/q, -omega/q)."""
    return op_L(f, frame.reciprocal())


def op_D(f: Poly, frame: HahnFrame) -> Poly:
    """The divided difference (f(qx + omega) - f(x)) / ((q-1)x + omega).

    L f - f is brought over den bd^m ad^m on integers, where f has numerators
    over den and (q, omega) = (an/ad, bn/bd). At q = 1 the divisor is the
    constant omega. Otherwise it is (q-1)(x - r), r = rn/rd = -omega/(q-1), and
    the quotient is one synthetic division run on the integer polynomial
    rd^m den num(X/rd), whose root is rn. A nonzero remainder raises ArithmeticError.
    r and c = 1/(q-1) are the frame's _divisor.
    """
    lf, common = _shift_ints(f.nums, frame)
    nums = [a - n * common for a, n in zip(lf, f.nums)]
    den = f.den * common
    if not any(nums):
        return Poly()
    if frame.q == 1:
        return Poly._from_ints([n * frame.omega.denominator for n in nums], den * frame.omega.numerator)
    rn, rd, cn, cd = frame._divisor
    m = len(nums) - 1
    rd_pows = _powers(rd, m)
    acc, quot = 0, []  # Horner from the top: G_{m-1}, ..., G_0, then the remainder
    for n, p in zip(reversed(nums), rd_pows):
        acc = acc * rn + n * p
        quot.append(acc)
    if quot.pop():
        raise ArithmeticError("divided difference left a nonzero remainder")
    # quotient coefficient k is c G_k / (den rd^(m-1-k)) = cn G_k rd^k / (den rd^(m-1) cd)
    return Poly._from_ints([g * cn * p for g, p in zip(reversed(quot), rd_pows)], den * rd_pows[m - 1] * cd)


def op_D_star(f: Poly, frame: HahnFrame) -> Poly:
    """The divided difference D* = op_D in the reciprocal frame (1/q, -omega/q), whose constants that frame keeps."""
    return op_D(f, frame.reciprocal())


def _iterates(op, x, n: int, *args) -> list:
    """[x, op(x, *args), ..., op^n(x, *args)]; the n-th iterate is [-1]."""
    return list(accumulate(range(n), lambda acc, _: op(acc, *args), initial=x))


def _y_node_ints(frame: HahnFrame, n: int) -> tuple[list[int], int]:
    """The nodes omega [j]_q of Y_n, j < n, as integers N_j over one t > 0, gcd(t, *N_j) = 1 (t = 1 at omega = 0).

    Node j is omega b_j / qd^(j-1) over the b_j of _brackets, brought over t = od qd^(n-2); node 0 is 0.
    Both factors of N_j = on b_j qd^(n-1-j) are slices of the qd^k and on b_k of frame._tables.
    """
    top = max(n - 2, 0)
    qd, _, _, on_b = frame._tables(top + 1)
    nodes = list(map(mul, on_b[:n], qd[top + 1::-1]))
    t = frame.omega.denominator * qd[top]
    g = gcd(t, *nodes)  # over od qd^(n-2) they need not be in lowest terms
    return [node // g for node in nodes], t // g


def y_basis(n: int, frame: HahnFrame) -> Poly:
    """The monic Newton-type basis Y_n = prod_{j<n} (x - node_j), over the nodes of _y_node_ints.

    The divided difference acts diagonally on it: D Y_n = [n]_q Y_{n-1}.
    """
    if n < 0:
        raise ValueError("y_basis needs n >= 0")
    nodes, t = _y_node_ints(frame, n)
    c = [1]
    for node in nodes:
        # times (t x - N_j), so Y_n = c / t^n: coefficient k becomes t c_{k-1} - N_j c_k
        c = [-node * c[0]] + [t * a - node * b for a, b in zip(c, c[1:])] + [t * c[-1]]
    return Poly._from_ints(c, t**n)


def to_y_basis(f: Poly, frame: HahnFrame) -> list[Fraction]:
    """Coefficients c with f = sum_k c_k Y_k, by repeated synthetic division; see _to_y_ints."""
    g, t = _to_y_ints(f, frame)
    return _fracs(g, [f.den * p for p in reversed(_powers(t, len(g) - 1))])


def _to_y_ints(f: Poly, frame: HahnFrame) -> tuple[list[int], int]:
    """The Y coefficients of f on integers: c_k = g[k] / (f.den t^(m-k)), m = deg f, for the returned t.

    Dividing by (x - node_0), then the quotient by (x - node_1), and so on,
    leaves c_0, c_1, ... as the successive remainders: O(deg^2) integer work.
    With f = sum_k n_k x^k / den and nodes N_j / t, g(X) = sum_k n_k t^(m-k) X^k
    is t^m den f(X/t), its nodes are the integers N_j, and c_k = G_k / (den t^(m-k)).
    """
    nums = f.nums
    nodes, t = _y_node_ints(frame, len(nums))
    rem = [n * p for n, p in zip(nums, reversed(_powers(t, len(nums) - 1)))]
    out = []
    for node in nodes:
        if node:
            for k in range(len(rem) - 2, -1, -1):
                rem[k] += node * rem[k + 1]
        out.append(rem.pop(0))
    return out, t
