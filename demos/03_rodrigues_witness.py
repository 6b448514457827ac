"""Verify the distributional Rodrigues-type identity moment by moment.

P_n u = k_n (D*)^n (Phi(.; n) L^n u), checked as equality of Y-basis
moment vectors.  `verify --suite rodrigues` also checks the closed form
Phi(.; n) L^n u against the iterated derived functional u^[n].
"""

from hahnpoly import get_preset, recurrence, solve_moments, verify_rodrigues
from hahnpoly.rodrigues import moment_depth_for

preset = get_preset("little-q-laguerre")
pear, frame = preset.pear, preset.frame

depth = moment_depth_for(pear, 5, 8) + 12
u = solve_moments(pear, frame, 1, depth)
table = recurrence(pear, frame, 6)

for n in range(6):
    witness = verify_rodrigues(pear, frame, u, table, n, test_degree=8)
    print(f"n={n}: match={witness.match}")
    if n == 2:
        print("  lhs:", witness.lhs_moments[:5])
        print("  rhs:", witness.rhs_moments[:5])
