"""Solve the Pearson moment recurrence and confirm exact orthogonality.

The Gram matrix <u, P_m P_n> of a regular pair is exactly diagonal with
entries u_0 * gamma_1 * ... * gamma_n -- no tolerances involved.
"""

import sys

from hahnpoly import (
    get_preset,
    gram_matrix,
    pearson_residual,
    recurrence,
    solve_moments,
)

preset = get_preset("al-salam-carlitz")
pear, frame = preset.pear, preset.frame

u = solve_moments(pear, frame, 1, 22)
print("first Y-basis moments:", u.moments[:6])
print("residual of D(phi u) - psi u up to degree 12:", pearson_residual(pear, u, 12))

table = recurrence(pear, frame, 6)
gram = gram_matrix(u, table.polys, 6)

print("\nGram matrix (exact):")
for row in gram:
    print(["0" if x == 0 else str(x) for x in row])

expected = u.moments[0]
for n in range(1, 7):
    expected *= table.gamma[n]
    if gram[n][n] != expected:
        sys.exit(f"diagonal mismatch at n={n}: {gram[n][n]} != {expected}")
print("\ndiagonal equals u_0 * gamma_1..gamma_n: confirmed")
