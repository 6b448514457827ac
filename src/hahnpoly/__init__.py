"""Exact classification and generation of orthogonal polynomial sequences
for the Hahn divided-difference operator.

All arithmetic is over exact rationals (fractions.Fraction); identities
are checked with equality, never tolerances.
"""

from types import ModuleType as _ModuleType

from .qnum import (
    AdmissibilityError,
    HahnFrame,
    PearsonPair,
    as_scalar,
    d_n,
    e_n,
    q_binomial,
    q_bracket,
    q_factorial,
    rodrigues_constant,
)
from .poly import (
    Poly,
    op_D,
    op_D_star,
    op_L,
    op_L_star,
    to_y_basis,
)
from .functional import (
    InsufficientMomentsError,
    MomentFunctional,
    derived_functional,
    dist_D,
    dist_D_star,
    dist_L,
    dist_L_star,
    left_multiply,
    pair,
    pearson_residual,
    rodrigues_rhs,
    solve_moments,
)
from .classical import (
    PRESETS,
    Preset,
    RecurrenceTable,
    RegularityError,
    RegularityReport,
    check_regular,
    derivative_sequence,
    get_preset,
    gram_matrix,
    phi_poly,
    psi_k,
    psi_poly,
    r_polynomial,
    recurrence,
    theta2,
)

# the from-imports above also bind the submodules (classical, poly, ...) as names
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
