"""Exact q-combinatorics over the rationals.

Everything here is exact (:class:`fractions.Fraction`, or integers over shared
denominators), so all identities downstream can be asserted with ``==``.
With q = r/s, [n]_q = b_n / s^(n-1) for the one integer sequence b_n of
_brackets, and [n]_q! and the q-binomial are each one reduced Fraction over
prefix products of b_n and powers of s; d_n and e_n read pearson_sequences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Union

ScalarLike = Union[Fraction, int, str]
# the one rational grammar, of as_scalar and so of every rational CLI flag; Fraction alone also
# reads 1e200000 (a 664,386-bit numerator), 0.5, ' 1_0 ' and other scripts' digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class AdmissibilityError(ValueError):
    """A required d_n factor vanished; carries the offending index.

    A moment table raises it with moment_degree, the top degree it was solving for.
    """

    def __init__(self, index: int, moment_degree: int | None = None):
        self.index = index
        self.moment_degree = moment_degree
        super().__init__(f"admissibility failure: d_{index} = 0")


def as_scalar(x: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or 'p' or 'p/q' string to an exact rational.

    A string is decimal digits with an optional sign, over an optional denominator of
    digits (_RATIONAL); any other string, and a zero denominator, raise ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass Fraction, int, or 'p/q' string")
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"{x!r} is not a rational (expected 'p' or 'p/q')")
        num, _, den = x.partition("/")
        try:  # int() raises ValueError past 4300 digits, as Fraction(x) does
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    return Fraction(x)


@dataclass(frozen=True)
class HahnFrame:
    """The parameter pair (q, omega) of the divided-difference operator.

    Rejected frames: q = 0, q = -1 (the rational roots of unity other
    than 1), and the degenerate point q = 1, omega = 0 where the
    operator is undefined.

    A frame builds the integer constants its operators read once, on first
    use, and keeps them on the instance: the reciprocal frame, the root and
    factor of op_D's divisor (_divisor), and one set of power and bracket
    tables (_tables). They are not fields, so ==, hash and repr
    read (q, omega) alone, copy and pickle carry (q, omega) alone, and the
    constants live and die with the frame. Its memory is O(the longest length
    asked of it).
    """

    q: Fraction
    omega: Fraction

    def __post_init__(self):
        q = as_scalar(self.q)
        omega = as_scalar(self.omega)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "omega", omega)
        if q == 0:
            raise ValueError("q must be nonzero")
        if q == -1:
            raise ValueError("q = -1 is excluded (root of unity)")
        if q == 1 and omega == 0:
            raise ValueError("(q, omega) = (1, 0) is excluded: the operator is undefined")

    def __reduce__(self):
        # copy and pickle rebuild the frame from (q, omega); a clone builds its constants afresh
        return HahnFrame, (self.q, self.omega)

    @property
    def omega0(self) -> Fraction:
        """omega / (1 - q); only defined away from q = 1."""
        if self.q == 1:
            raise ValueError("omega0 is undefined at q = 1")
        return self.omega / (1 - self.q)

    def reciprocal(self) -> "HahnFrame":
        """The frame (1/q, -omega/q) of the starred operators: one object per frame, whose reciprocal is this frame."""
        return self._reciprocal

    @cached_property
    def _reciprocal(self) -> "HahnFrame":
        out = HahnFrame(1 / self.q, -self.omega / self.q)
        out.__dict__["_reciprocal"] = self  # (1/(1/q), -(-omega/q)/(1/q)) is (q, omega)
        return out

    @cached_property
    def _divisor(self) -> tuple[int, int, int, int]:
        """(rn, rd, cn, cd) in lowest terms, for the root rn/rd = -omega/(q-1) and the factor cn/cd = 1/(q-1) of op_D.

        Defined for q != 1 only; at q = 1 op_D divides by the constant omega.
        """
        r, c = -self.omega / (self.q - 1), 1 / (self.q - 1)
        return r.numerator, r.denominator, c.numerator, c.denominator

    def _tables(self, top: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """qd^k, od^k, (qn od)^k and on b_k for k <= top at least, at q = qn/qd, omega = on/od.

        The powers of the Taylor shift of L and D, and the factors of the Newton nodes over
        the bracket sequence b_k of _brackets. A set too short for top is rebuilt, all four
        tables together, at twice the length asked, 2 (top + 1), so each rebuild at least
        doubles it and the frame holds at most twice the longest length asked of it. Callers
        slice the tables and never write to them.
        """
        tables = self.__dict__.get("_table_set")
        if tables is None or len(tables[0]) <= top:
            k, qn, od = 2 * top + 1, self.q.numerator, self.omega.denominator
            tables = (_powers(self.q.denominator, k), _powers(od, k), _powers(qn * od, k),
                      [self.omega.numerator * b for b in _brackets(self.q, k)])
            object.__setattr__(self, "_table_set", tables)
        return tables


@dataclass(frozen=True)
class PearsonPair:
    """Coefficients of phi(x) = a x^2 + b x + c and psi(x) = d x + e."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if not any((self.a, self.b, self.c, self.d, self.e)):
            raise ValueError("phi and psi cannot both be the zero polynomial")


def _ints(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: xs[k] == nums[k] / den."""
    xs = list(xs)
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def _powers(base: int, top: int) -> list[int]:
    """[base^0, base^1, ..., base^top]."""
    return list(accumulate(repeat(base, top), mul, initial=1))


def _brackets(q: Fraction, top: int) -> list[int]:
    """The integers b_0..b_top with [n]_q = b_n / s^(n-1) at q = r/s: b_0 = 0, b_{n+1} = s^n + r b_n.

    b_n = sum_{j<n} r^j s^(n-1-j), so b_n = n at q = 1; every integer [n]_q of the kernels reads this sequence.
    """
    r = q.numerator
    return list(accumulate(_powers(q.denominator, top)[:top], lambda b, p: p + r * b, initial=0))


def q_bracket(n: int, q: ScalarLike) -> Fraction:
    """[n]_q = (q^n - 1)/(q - 1), or n itself at q = 1: b_n / s^(n-1) over the b_n of _brackets, at q = r/s.

    Negative n reads [-m]_q = -q^(-m) [m]_q, which needs q != 0.
    """
    q = as_scalar(q)
    if n < 0:
        if q == 0:
            raise ValueError("q_bracket with n < 0 needs q != 0")
        return -q**n * q_bracket(-n, q)
    return Fraction(q.denominator * _brackets(q, n)[n], q.denominator**n)


def q_factorial(n: int, q: ScalarLike) -> Fraction:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    q = as_scalar(q)
    return Fraction(prod(_brackets(q, n)[1:]), q.denominator ** (n * (n - 1) // 2))


def q_binomial(n: int, k: int, q: ScalarLike) -> Fraction:
    """The q-binomial [n]_q! / ([k]_q! [n-k]_q!), 0 <= k <= n.

    With q = r/s and [m]_q! = F_m / s^(m(m-1)/2) over the prefix products F_m = b_1 ... b_m,
    most powers of s cancel, leaving one Fraction: F_n / (F_k F_{n-k} s^(k(n-k))).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    q = as_scalar(q)
    f = list(accumulate(_brackets(q, n)[1:], mul, initial=1))
    return Fraction(f[n], f[k] * f[n - k] * q.denominator ** (k * (n - k)))


class PearsonSequences(NamedTuple):
    """Unreduced integer numerators of q^n, [n]_q, d_n (0 <= n <= m) and e_n (0 <= n <= m_e), and of the pair.

    The pair is scaled once to integers, (a, b, c, d, e) = (pa, pb, pc, pd, pe)/lam with lam the lcm of
    their denominators; D(phi u) = psi u is homogeneous in (phi, psi), so lam cancels from every ratio
    and zero test. With q = r/s: q^n = R_n/S_n, [n]_q = K_n/S_n, lam d_n = D_n/S_n,
    lam e_n = E_n/(M S_n^2), omega = W/M in lowest terms, and phi = [pa, pb, pc].
    """

    r_pow: list[int]
    s_pow: list[int]
    bracket: list[int]
    d: list[int]
    e: list[int]
    lam: int
    M: int
    W: int
    phi: list[int]


def pearson_sequences(pear: PearsonPair, frame: HahnFrame, m: int, m_e: int) -> PearsonSequences:
    """The one formula of d_n and e_n, by O(m) integer work: K_n = s b_n over the b_n of _brackets,
    D_n = pd R_n + pa K_n and E_n = M (pe R_n S_n + pb S_n K_n) + W D_n K_n.
    """
    if not 0 <= m_e <= m:
        raise ValueError(f"pearson_sequences needs 0 <= m_e <= m, got m={m}, m_e={m_e}")
    (a, b, c, d, e), lam = _ints((pear.a, pear.b, pear.c, pear.d, pear.e))
    M, W, s = frame.omega.denominator, frame.omega.numerator, frame.q.denominator
    r_pow, s_pow, bracket = _powers(frame.q.numerator, m), _powers(s, m), [s * k for k in _brackets(frame.q, m)]
    ds = [d * rn + a * kn for rn, kn in zip(r_pow, bracket)]
    es = [M * (e * r_pow[n] + b * bracket[n]) * s_pow[n] + W * ds[n] * bracket[n] for n in range(m_e + 1)]
    return PearsonSequences(r_pow, s_pow, bracket, ds, es, lam, M, W, [a, b, c])


def d_n(pair: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """d_n = d q^n + a [n]_q, n >= 0: D_n / (lam S_n) of pearson_sequences."""
    if n < 0:
        raise ValueError("d_n needs n >= 0")
    seq = pearson_sequences(pair, frame, n, 0)
    return Fraction(seq.d[n], seq.lam * seq.s_pow[n])


def e_n(pair: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """e_n = e q^n + (omega d_n + b) [n]_q, n >= 0: E_n / (M lam S_n^2) of pearson_sequences."""
    if n < 0:
        raise ValueError("e_n needs n >= 0")
    seq = pearson_sequences(pair, frame, n, n)
    return Fraction(seq.e[n], seq.M * seq.lam * seq.s_pow[n] ** 2)


def rodrigues_constant(pair: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """k_n = q^{n(n-3)/2} * prod_{j=0}^{n-1} 1/d_{n+j-1}, over the D_j of one pearson_sequences call.

    Raises AdmissibilityError if any factor in the product vanishes.
    """
    if n < 0:
        raise ValueError("rodrigues_constant needs n >= 0")
    seq = pearson_sequences(pair, frame, max(2 * n - 2, 0), 0)
    ds = seq.d[n - 1:2 * n - 1]  # d_j = D_j / (lam S_j) for j = n-1 .. 2n-2; empty at n = 0
    for j, dj in enumerate(ds, n - 1):
        if dj == 0:
            raise AdmissibilityError(j)
    return frame.q ** (n * (n - 3) // 2) * Fraction(seq.lam**n * prod(seq.s_pow[n - 1:2 * n - 1]), prod(ds))
