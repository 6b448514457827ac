"""Verify the distributional Rodrigues-type identity moment by moment.

P_n u = k_n (D*)^n u^[n], checked as equality of Y-basis moment vectors.
`verify.rodrigues_suite` (behind `verify --suite rodrigues`) also checks
the closed form Phi(.; n) L^n u of u^[n] against the iterated derived
functional u^[n] = L(phi u^[n-1]), which `rodrigues_rhs` reads.
"""

from hahnpoly import get_preset, left_multiply, recurrence, rodrigues_rhs, solve_moments
from hahnpoly.verify import moment_depth_for, rodrigues_suite

preset = get_preset("little-q-laguerre")
pear, frame = preset.pear, preset.frame

for check in rodrigues_suite(pear, frame, n_max=5, test_degree=8):
    print(f"{check.name}: passed={check.passed}")

# the two sides at n = 2, on a window wide enough for Y-degree 8
u = solve_moments(pear, frame, 1, moment_depth_for(pear, 2, 8))
lhs = left_multiply(recurrence(pear, frame, 2).polys[2], u)
rhs = rodrigues_rhs(pear, u, 2)
print("  lhs:", lhs.moments[:5])
print("  rhs:", rhs.moments[:5])
