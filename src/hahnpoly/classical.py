"""Classification and generation engine.

Given phi(x) = a x^2 + b x + c and psi(x) = d x + e, decides admissibility
(d_n != 0) and regularity (additionally phi(-e_n/d_{2n}) != 0) up to a
finite horizon, and generates the monic orthogonal sequence from the
closed-form recurrence coefficients beta_n, gamma_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from typing import Optional, Sequence

from .qnum import (
    HahnFrame,
    PearsonPair,
    PearsonSequences,
    ScalarLike,
    as_scalar,
    d_n,
    e_n,
    pearson_sequences,
)
from .poly import Poly, _y_node_ints, op_D, op_D_star, phi_poly, psi_poly
from .functional import MomentFunctional, pair

D_ZERO = "admissibility"
PHI_ROOT = "phi_root_condition"


@dataclass(frozen=True)
class RegularityReport:
    admissible: bool
    first_admissibility_failure: Optional[int]
    regular_up_to: int
    first_regularity_failure: Optional[tuple[int, str]]
    psi_degree_one: bool
    checked_d_through: int

    @property
    def regular(self) -> bool:
        return self.first_regularity_failure is None

    def to_json_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "firstAdmissibilityFailure": self.first_admissibility_failure,
            "regularUpTo": self.regular_up_to,
            "regular": self.regular,
            "firstRegularityFailure": (
                None
                if self.first_regularity_failure is None
                else {"index": self.first_regularity_failure[0], "condition": self.first_regularity_failure[1]}
            ),
            "psiDegreeOne": self.psi_degree_one,
            "checkedDThrough": self.checked_d_through,
        }


class RegularityError(ValueError):
    """Generation was requested for a pair that fails the regularity check."""

    def __init__(self, report: RegularityReport):
        self.report = report
        index, condition = report.first_regularity_failure
        super().__init__(f"regularity failure: {condition} at n={index}")


def check_regular(pear: PearsonPair, frame: HahnFrame, depth: int) -> RegularityReport:
    """Check the two regularity conditions for 0 <= n <= depth.

    Generating the recurrence to depth N consumes d-indices through
    2N + 1, so the admissibility scan goes that far.
    """
    return _scan(pear, frame, depth)[0]


def _scan(pear: PearsonPair, frame: HahnFrame, depth: int) -> tuple[RegularityReport, PearsonSequences]:
    """check_regular's report, with the sequences it scanned: d_n through 2N + 1, e_n through N."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    d_through = 2 * depth + 1
    s = pearson_sequences(pear, frame, d_through, depth)
    d_failure = next((m for m, dm in enumerate(s.d) if dm == 0), None)
    n_limit = depth if d_failure is None else min(depth, d_failure - 1)
    # at d_{2n} = 0 the condition is not evaluable and the d-scan has failed; a phi failure comes before d_failure
    phi_failure = next((n for n in range(n_limit + 1) if s.d[2 * n] != 0 and _phi_root(s, n) == 0), None)
    failure = next(((n, c) for n, c in ((phi_failure, PHI_ROOT), (d_failure, D_ZERO)) if n is not None), None)
    report = RegularityReport(
        admissible=d_failure is None,
        first_admissibility_failure=d_failure,
        regular_up_to=depth,
        first_regularity_failure=failure,
        psi_degree_one=pear.d != 0,
        checked_d_through=d_through,
    )
    return report, s


def psi_k(pear: PearsonPair, frame: HahnFrame, k: int) -> Poly:
    """psi^[k](x) = d_{2k} x + e_k, the Pearson partner of u^[k]."""
    if k < 0:
        raise ValueError("psi_k needs k >= 0")
    return Poly([e_n(pear, frame, k), d_n(pear, frame, 2 * k)])


def theta2(pear: PearsonPair, frame: HahnFrame, n: int) -> Poly:
    """theta_2(x; n) in explicit coefficient form.

    Leading coefficient d_{2n} d_{2n-1}, middle coefficient
    d_{2n-1}((1+q)e_n - omega d_{2n}), constant c d_{2n} + q e_n e_{n-1}.
    """
    if n < 1:
        raise ValueError("theta2 needs n >= 1")
    q, omega = frame.q, frame.omega
    d2n = d_n(pear, frame, 2 * n)
    d2n1 = d_n(pear, frame, 2 * n - 1)
    en = e_n(pear, frame, n)
    en1 = e_n(pear, frame, n - 1)
    return Poly([
        pear.c * d2n + q * en * en1,
        d2n1 * ((1 + q) * en - omega * d2n),
        d2n * d2n1,
    ])


def _phi_root(s: PearsonSequences, n: int) -> int:
    """Phi_n = lam (M D_{2n})^2 phi(-e_n/d_{2n}), since -e_n/d_{2n} = -E_n/(M D_{2n})."""
    a, b, c = s.phi
    e, md = s.e[n], s.M * s.d[2 * n]
    return (a * e - b * md) * e + c * md * md


def _beta(s: PearsonSequences, n: int) -> Fraction:
    """beta_n as one Fraction: s K_n D_{2n} (W D_{2n-2} + E_{n-1}) - K_{n+1} E_n D_{2n-2}
    over M S_{n+1} D_{2n-2} D_{2n}, or -K_1 E_0 over M S_1 D_0 at n = 0 (see beta_coefficient)."""
    num, den = -s.bracket[n + 1] * s.e[n], s.M * s.s_pow[n + 1] * s.d[2 * n]
    if n:
        prev = s.d[2 * n - 2]
        num = num * prev + s.s_pow[1] * s.bracket[n] * s.d[2 * n] * (s.W * prev + s.e[n - 1])
        den *= prev
    return Fraction(num, den)


def _gamma(s: PearsonSequences, n: int) -> Fraction:
    """gamma_{n+1} = -R_n K_{n+1} D_{n-1} S_n Phi_n / (M^2 D_{2n-1} D_{2n+1} D_{2n}^2) as one Fraction;
    D_{n-1}/D_{2n-1} is 1 at n = 0 (see gamma_coefficient)."""
    md = s.M * s.d[2 * n]
    num = -s.r_pow[n] * s.bracket[n + 1] * s.s_pow[n] * _phi_root(s, n)
    den = md * md * s.d[2 * n + 1]
    if n:
        num, den = num * s.d[n - 1], den * s.d[2 * n - 1]
    return Fraction(num, den)


def beta_coefficient(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """beta_n = omega [n]_q + [n]_q e_{n-1}/d_{2n-2} - [n+1]_q e_n/d_{2n}."""
    if n < 0:
        raise ValueError("beta_coefficient needs n >= 0")
    return _beta(pearson_sequences(pear, frame, 2 * n + 1, n), n)


def gamma_coefficient(pear: PearsonPair, frame: HahnFrame, n: int) -> Fraction:
    """gamma_{n+1} for the given n >= 0.

    gamma_{n+1} = -q^n [n+1]_q d_{n-1} / (d_{2n-1} d_{2n+1}) * phi(-e_n/d_{2n}).
    At n = 0 the factor d_{-1} cancels against d_{2n-1}, leaving
    gamma_1 = -phi(-e/d) / d_1.
    """
    if n < 0:
        raise ValueError("gamma_coefficient needs n >= 0")
    return _gamma(pearson_sequences(pear, frame, 2 * n + 1, n), n)


@dataclass(frozen=True)
class RecurrenceTable:
    """beta_0..beta_N and gamma_0..gamma_N; the monic P_0..P_{N+1} on first read.

    gamma[0] holds <u, 1> (default 1) so the diagonal Gram entries factor
    uniformly as gamma_0 gamma_1 ... gamma_n.
    """

    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.gamma) != len(self.beta):
            raise ValueError(f"beta and gamma need equal lengths, got {len(self.beta)} and {len(self.gamma)}")

    @property
    def depth(self) -> int:
        return len(self.beta) - 1

    @cached_property
    def polys(self) -> tuple[Poly, ...]:
        """P_0..P_{N+1} by P_{n+1} = (x - beta_n) P_n - gamma_n P_{n-1}.

        _chebyshev_rows builds each row as one integer vector over one denominator,
        P_n = C_n / D_n, and divides it by its content, so D_n is the least common
        denominator of P_n and (C_n, D_n) is wrapped as the canonical form of P_n with no second gcd.
        """
        rows = _chebyshev_rows(self, self.depth + 1, None)
        return tuple(Poly._wrap(tuple(row), den) for row, den in rows)


def recurrence(
    pear: PearsonPair,
    frame: HahnFrame,
    depth: int,
    y0: ScalarLike = 1,
    require_regular: bool = True,
) -> RecurrenceTable:
    """Generate beta_n, gamma_n for n <= depth; the table expands P_0..P_{depth+1}.

    With require_regular=False only admissibility is enforced, and the
    generated simple set may have vanishing gamma (no longer an OPS).
    """
    report, s = _scan(pear, frame, depth)
    if report.first_admissibility_failure is not None or (require_regular and not report.regular):
        raise RegularityError(report)
    beta = tuple(_beta(s, n) for n in range(depth + 1))
    gamma = (as_scalar(y0),) + tuple(_gamma(s, n) for n in range(depth))
    return RecurrenceTable(beta, gamma)


def derivative_sequence(table: RecurrenceTable, frame: HahnFrame, k: int) -> list[Poly]:
    """The monic k-th Hahn derivatives, P^[0]_n = P_n and P^[k]_n = monic(D P^[k-1]_{n+1}).

    D P^[k-1]_{n+1} has leading coefficient [n+1]_q, so P^[k]_n = D^k P_{n+k} / prod_{j<=k} [n+j]_q.
    P_0..P_{N+1} reach k <= N + 1 only; past that no P^[k]_n exists, and the call raises.
    """
    if k < 0:
        raise ValueError("derivative_sequence needs k >= 0")
    if k > table.depth + 1:
        raise ValueError(f"derivative_sequence needs k <= {table.depth + 1} at depth {table.depth}, got k={k}")
    seq = list(table.polys)
    for _ in range(k):
        derivatives = [op_D(p, frame) for p in seq[1:]]
        seq = [dp.scale(1 / dp.leading()) for dp in derivatives]
    return seq


def r_polynomial(pear: PearsonPair, frame: HahnFrame, q_n: Poly) -> Poly:
    """R_{n+1} = phi * D* Q_n + q psi Q_n, of degree n+1 when d_n != 0."""
    return phi_poly(pear) * op_D_star(q_n, frame) + frame.q * (psi_poly(pear) * q_n)


def gram_matrix(u: MomentFunctional, polys: Sequence[Poly], depth: int) -> list[list[Fraction]]:
    """G[m][n] = <u, P_m P_n> for m, n <= depth: the definition, one pair per entry.

    The first entry, row by row, whose product passes u.max_degree raises pair's InsufficientMomentsError.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth + 1 > len(polys):
        raise ValueError("not enough polynomials for the requested Gram depth")
    polys = polys[: depth + 1]
    return [[pair(u, pm * pn) for pn in polys] for pm in polys]


def _chebyshev_rows(
    table: RecurrenceTable,
    depth: int,
    frame: Optional[HahnFrame],
    moments: Optional[tuple[list[int], int]] = None,
) -> list[tuple[list[int], int]]:
    """Rows r_0..r_depth of r_k[l] = r_{k-1}[l+shift] + (t_l - beta_{k-1}) r_{k-1}[l] - gamma_{k-1} r_{k-2}[l].

    This is P_k = (x - beta_{k-1}) P_{k-1} - gamma_{k-1} P_{k-2} in the Y basis,
    where x Y_l = Y_{l+1} + t_l Y_l. Without moments, r_0 = [1] and shift = -1, so
    row k holds the Y coefficients of P_k; with moments y_l = nums[l] / den, r_0 = (nums, den)
    and shift = +1, so row k holds the mixed moments sigma_{k,l} = <u, P_k Y_l>,
    l <= len(nums) - 1 - k: the modified Chebyshev algorithm (Gautschi 2004;
    Wheeler 1974) with the Y basis as auxiliary family.
    The nodes t_l are those of _y_node_ints(frame), or all 0 (the monomials) at
    frame None. Each row is an integer vector over one positive denominator: the three
    terms are brought over the lcm of theirs. A Y-coefficient row is then divided by its
    content, so it is the canonical form of P_k; a sigma row is not, and is read by value.
    Its denominators nest, den_k = den_{k-1} r_k, so den_k = den_{k-2} lcm(r_{k-1} t b_den, g_den).
    """
    first, shift = (moments, 1) if moments is not None else (([1], 1), -1)
    count = max(len(first[0]) - 1, depth + 1)  # the nodes the longest row after r_0 reads
    nodes, t = ([0] * count, 1) if frame is None else _y_node_ints(frame, count)
    prev, prev_d = [], 1
    cur, cur_d = first
    r = cur_d  # den_0 over the den_{-1} = 1 of the empty row
    rows = [first]
    for k in range(1, depth + 1):
        b = table.beta[k - 1]
        g = table.gamma[k - 1] if k >= 2 else 0
        if moments is None:
            den = lcm(cur_d * t * b.denominator, prev_d * g.denominator)
            f, sg = den // (cur_d * t * b.denominator), den // (prev_d * g.denominator) * g.numerator
        else:
            m = lcm(r * t * b.denominator, g.denominator)
            f, sg, den, r = m // (r * t * b.denominator), m // g.denominator * g.numerator, prev_d * m, m // r
        # (t_l - beta) r[l] over den is r[l] (nodes[l] nb - bt), r[l + shift] is r[l + shift] s; sg is 0 at k = 1
        nb, bt, s = f * b.denominator, f * b.numerator * t, f * t * b.denominator
        ahead = cur[1:] if shift > 0 else [0] + cur
        nxt = [s * a + (node * nb - bt) * c - sg * p
               for a, node, c, p in zip(ahead, nodes, cur + [0], chain(prev, repeat(0)))]
        if moments is None:
            content = gcd(den, *nxt)
            nxt, den = [c // content for c in nxt], den // content
        rows.append((nxt, den))
        prev, prev_d, cur, cur_d = cur, cur_d, nxt, den
    return rows


@dataclass(frozen=True)
class Preset:
    name: str
    pear: PearsonPair
    frame: HahnFrame
    description: str


# Rational-parameter catalog. The recurrence values quoted in tests are all
# derived by running this engine and confirmed against the Gram oracle.
PRESETS: dict[str, Preset] = {
    p.name: p
    for p in [
        Preset(
            "charlier", PearsonPair(0, 1, 0, -1, Fraction(1, 2)), HahnFrame(1, 1),
            "q=1, omega=1, phi=x, psi=1/2-x; forward-difference lattice, beta_n=n+1/2, gamma_{n+1}=(n+1)/2",
        ),
        Preset(
            "meixner", PearsonPair(0, 1, 2, -1, Fraction(1, 3)), HahnFrame(1, 1),
            "q=1, omega=1, phi=x+2, psi=1/3-x; Charlier with mu = 7/3 in x + 2: "
            "beta_n = n + 1/3, gamma_{n+1} = 7(n+1)/3",
        ),
        Preset(
            "al-salam-carlitz", PearsonPair(1, -3, 2, -4, 1), HahnFrame(Fraction(1, 2), 0),
            "q=1/2, omega=0, phi=(x-1)(x-2), psi=-4x+1; quadratic phi on the q-lattice; regular, not positive-definite "
            "(gamma_2 = -144/5); not the Al-Salam-Carlitz family",
        ),
        Preset(
            "little-q-laguerre", PearsonPair(0, 1, 0, -1, Fraction(1, 2)), HahnFrame(Fraction(1, 2), 0),
            "q=1/2, omega=0, phi=x, psi=1/2-x; degree-one phi on the q-lattice",
        ),
    ]
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
