"""The distributional Rodrigues-type identity, as formulas.

The identity: P_n u equals k_n applied n times through the
reciprocal-frame derivative of Phi(.; n) L^n u, as an exact equality of
Y-basis moment vectors on the analytically valid window. The check lives
in verify.rodrigues_suite.
"""

from __future__ import annotations

from .qnum import HahnFrame, PearsonPair, q_bracket, rodrigues_constant
from .poly import Poly, phi_poly
from .functional import MomentFunctional, dist_D_star, dist_iter, dist_L, left_multiply


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


def moment_depth_for(pear: PearsonPair, n: int, test_degree: int) -> int:
    """Smallest moment-table degree on which P_n u and the right-hand side both reach test_degree."""
    phi = phi_poly(pear)
    deg_phi = phi.degree() or 0
    # lhs consumes deg P_n = n; rhs consumes n*deg(phi) then regains n via (D*)^n
    return test_degree + max(n, n * deg_phi - n)
