"""The distributional Rodrigues-type identity and its verification.

The identity under test: P_n u equals k_n applied n times through the
reciprocal-frame derivative of Phi(.; n) L^n u, as an exact equality of
Y-basis moment vectors on the analytically valid window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qnum import HahnFrame, PearsonPair, q_bracket, rodrigues_constant
from .poly import Poly, phi_poly
from .functional import (
    MomentFunctional,
    InsufficientMomentsError,
    dist_D_star,
    dist_iter,
    dist_L,
    left_multiply,
)
from .classical import RecurrenceTable


@dataclass(frozen=True)
class RodriguesWitness:
    n: int
    lhs_moments: tuple[Fraction, ...]
    rhs_moments: tuple[Fraction, ...]

    @property
    def match(self) -> bool:
        return self.lhs_moments == self.rhs_moments

    @property
    def first_mismatch(self) -> Optional[int]:
        for k, (a, b) in enumerate(zip(self.lhs_moments, self.rhs_moments)):
            if a != b:
                return k
        return None


def phi_product(pear: PearsonPair, frame: HahnFrame, n: int) -> Poly:
    """Phi(x; n) = prod_{j=1}^n phi(q^j x + omega [j]_q); Phi(.; 0) = 1."""
    if n < 0:
        raise ValueError("phi_product needs n >= 0")
    phi = phi_poly(pear)
    out = Poly([1])
    for j in range(1, n + 1):
        out = out * _phi_factor(phi, frame, j)
    return out


def _phi_factor(phi: Poly, frame: HahnFrame, j: int) -> Poly:
    """phi(q^j x + omega [j]_q), so that Phi(.; j) = Phi(.; j-1) times this."""
    return phi.compose_affine(frame.q**j, frame.omega * q_bracket(j, frame.q))


def rodrigues_rhs(
    pear: PearsonPair, frame: HahnFrame, u: MomentFunctional, n: int
) -> MomentFunctional:
    """k_n (D*)^n of the n-th derived functional, in the closed form Phi(.; n) L^n u."""
    return _rhs(pear, frame, left_multiply(phi_product(pear, frame, n), dist_iter(dist_L, u, n)), n)


def _rhs(pear: PearsonPair, frame: HahnFrame, derived: MomentFunctional, n: int) -> MomentFunctional:
    """k_n (D*)^n derived, for derived the n-th derived functional of u."""
    return dist_iter(dist_D_star, derived, n).scale(rodrigues_constant(pear, frame, n))


def verify_rodrigues(
    pear: PearsonPair,
    frame: HahnFrame,
    u: MomentFunctional,
    table: RecurrenceTable,
    n: int,
    test_degree: int = 8,
) -> RodriguesWitness:
    """Compare <P_n u, Y_m> with the Rodrigues right-hand side for m <= test_degree."""
    if n >= len(table.polys):
        raise ValueError(f"recurrence table has no P_{n}")
    lhs = left_multiply(table.polys[n], u)
    return _witness(n, lhs, rodrigues_rhs(pear, frame, u, n), test_degree)


def _witness(
    n: int, lhs: MomentFunctional, rhs: MomentFunctional, test_degree: int
) -> RodriguesWitness:
    if test_degree > min(lhs.max_degree, rhs.max_degree):
        raise InsufficientMomentsError(
            f"test degree {test_degree} exceeds valid window "
            f"(lhs {lhs.max_degree}, rhs {rhs.max_degree}); enlarge the moment table"
        )
    return RodriguesWitness(
        n,
        tuple(lhs.moments[: test_degree + 1]),
        tuple(rhs.moments[: test_degree + 1]),
    )


def moment_depth_for(pear: PearsonPair, n: int, test_degree: int) -> int:
    """Smallest moment-table degree letting verify_rodrigues reach test_degree."""
    phi = phi_poly(pear)
    deg_phi = phi.degree() or 0
    # lhs consumes deg P_n = n; rhs consumes n*deg(phi) then regains n via (D*)^n
    return test_degree + max(n, n * deg_phi - n)
