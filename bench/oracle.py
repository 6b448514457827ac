"""Independent checks of benchmark op results.

Nothing here imports hahnpoly: the classification rules, closed forms and
pairings are re-derived from the definitions on plain coefficient lists, so
a fault on the timed route cannot also hide in the check. Pairs are tuples
(a, b, c, d, e) for phi = a x^2 + b x + c and psi = d x + e; frames are
tuples (q, omega).
"""

from __future__ import annotations

from fractions import Fraction

# The default residual and Gram check names of `hahnpoly verify --suite gram`.
GRAM_CHECKS = ("pearson_residual_zero", "gram_off_diagonal_zero", "gram_diagonal_product_of_gammas")
RODRIGUES_CHECKS = tuple(f"rodrigues_n{n}" for n in range(6))
IDENTITY_CHECKS = frozenset({
    "P2_L_star_L_identity", "P1_iterated_L_substitution", "P1_negative_powers",
    "P3_D_star_D_commutation", "P3_D_L_star_commutation", "P3_D_L_commutation",
    "P4_D_star_L", "P4a_L_multiplicative", "P5_product_rule", "leibniz_polynomial",
    "D_division_vs_monomial", "D_y_basis_diagonal", "P2_functional_L_star_L",
    "P4_functional_D_star_L", "P4a_functional_L_of_fu", "P6_functional_product_rule",
    "leibniz_functional",
})

# How many leading entries the cross-checks cover; small, so that checking
# costs little next to the op.
PREFIX = 6


def bracket(n: int, q: Fraction) -> Fraction:
    return Fraction(n) if q == 1 else (q**n - 1) / (q - 1)


def phi_at(pear, x: Fraction) -> Fraction:
    a, b, c, _, _ = pear
    return (a * x + b) * x + c


def sequences(pear, frame, through: int):
    """Lists d_0..d_through and e_0..e_through, built incrementally."""
    a, b, _, d, e = pear
    q, omega = frame
    ds, es = [], []
    qn, br = Fraction(1), Fraction(0)
    for _ in range(through + 1):
        dn = d * qn + a * br
        ds.append(dn)
        es.append(e * qn + (omega * dn + b) * br)
        br = br * q + 1
        qn *= q
    return ds, es


def classify(pear, frame, depth: int):
    """(regular, failure) by the paper's two conditions up to `depth`.

    The d-scan runs through 2*depth + 1 because generating to depth N uses
    those indices; failure is (index, condition) or None, and the earlier
    failure wins, ties going to the d-condition.
    """
    ds, es = sequences(pear, frame, 2 * depth + 1)
    d_fail = next((n for n, dn in enumerate(ds) if dn == 0), None)
    limit = depth if d_fail is None else min(depth, d_fail - 1)
    phi_fail = next(
        (n for n in range(limit + 1) if ds[2 * n] != 0 and phi_at(pear, -es[n] / ds[2 * n]) == 0), None
    )
    if d_fail is not None and (phi_fail is None or d_fail <= phi_fail):
        return False, (d_fail, "admissibility")
    if phi_fail is not None:
        return False, (phi_fail, "phi_root_condition")
    return True, None


# --- dense polynomials as coefficient lists, lowest degree first ---------

def poly_mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def poly_sub(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def monic_from_recurrence(beta, gamma, count: int):
    """P_0 .. P_{count-1} from P_{n+1} = (x - beta_n) P_n - gamma_n P_{n-1}."""
    polys = [[Fraction(1)], [-beta[0], Fraction(1)]]
    for n in range(1, count - 1):
        polys.append(poly_sub(poly_mul([-beta[n], Fraction(1)], polys[n]), [gamma[n] * c for c in polys[n - 1]]))
    return polys[:count]


def y_power_table(frame, top: int):
    """Row n holds the Y-basis coordinates of x^n, for n <= top."""
    q, omega = frame
    ys = [[Fraction(1)]]
    for k in range(top):
        ys.append(poly_mul(ys[k], [-omega * bracket(k, q), Fraction(1)]))
    rows = []
    for n in range(top + 1):
        rem = [Fraction(0)] * n + [Fraction(1)]
        coords = [Fraction(0)] * (n + 1)
        for k in range(n, -1, -1):
            c = rem[k] if k < len(rem) else Fraction(0)
            coords[k] = c
            if c:
                rem = poly_sub(rem, [c * y for y in ys[k]])
        rows.append(coords)
    return rows


def power_from_y(y, frame, top: int):
    return [sum(c * y[k] for k, c in enumerate(row)) for row in y_power_table(frame, top)]


def pairing(power, f) -> Fraction:
    return sum(c * power[i] for i, c in enumerate(f))


# --- per-op verdicts; each returns None when the result is accepted ------

def check_classify(payload: dict, regular: bool, failure, depth: int):
    if payload.get("regular") is not regular or payload.get("regularUpTo") != depth:
        return f"classify reported regular={payload.get('regular')}, expected {regular}"
    got = payload.get("firstRegularityFailure")
    want = None if failure is None else {"index": failure[0], "condition": failure[1]}
    if got != want:
        return f"classify reported failure {got}, expected {want}"
    return None


def check_moments(payload: dict, pear, frame, depth: int):
    """Table lengths, y_0 = 1, y_1 = -e/d, and the power moments on a prefix."""
    y = [Fraction(m) for m in payload["moments"]]
    power = [Fraction(m) for m in payload["powerMoments"]]
    if len(y) != depth + 1 or len(power) != depth + 1 or payload.get("maxDegree") != depth:
        return "moment table has the wrong length"
    _, _, _, d, e = pear
    if y[0] != 1 or y[1] != -e / d:
        return "y_0 or y_1 disagrees with the Pearson recurrence"
    top = min(2 * PREFIX, depth)
    if power[: top + 1] != power_from_y(y, frame, top):
        return "power moments disagree with the Y-basis moments"
    return None


def check_recurrence(payload: dict, moments_payload: dict, pear, frame, depth: int):
    """Closed forms for beta_0, gamma_1, and a Gram cross-check on a prefix.

    The Gram cross-check pairs the P_n built from the reported beta/gamma
    against the reported power moments: <u, P_m P_n> must vanish off the
    diagonal and equal gamma_1 ... gamma_n on it. That ties the closed-form
    recurrence to the independently solved moment table.
    """
    beta = [Fraction(v) for v in payload["beta"]]
    gamma = [Fraction(v) for v in payload["gamma"]]
    polys = payload["polynomials"]
    if len(beta) != depth + 1 or len(gamma) != depth + 1 or len(polys) != depth + 2:
        return "recurrence table has the wrong length"
    _, _, _, d, e = pear
    if beta[0] != -e / d or gamma[1] != -phi_at(pear, -e / d) / sequences(pear, frame, 1)[0][1]:
        return "beta_0 or gamma_1 disagrees with its closed form"
    mine = monic_from_recurrence(beta, gamma, PREFIX + 1)
    for n, p in enumerate(mine):
        if [Fraction(c) for c in polys[n]] != p:
            return f"P_{n} disagrees with the reported beta/gamma"
    if moments_payload is None:
        return None
    power = [Fraction(m) for m in moments_payload["powerMoments"]]
    norm = Fraction(1)
    for n in range(PREFIX + 1):
        if n:
            norm *= gamma[n]
        for m in range(n + 1):
            want = norm if m == n else 0
            if pairing(power, poly_mul(mine[m], mine[n])) != want:
                return f"<u, P_{m} P_{n}> != {'gamma product' if m == n else 0}"
    return None


def check_verify(payload: dict, names, fuzzed: bool):
    """A clean run passes every named check; a fuzzed run fails at least one."""
    # the CLI prefixes each check name with the pair's label, e.g. "pair:"
    checks = {c["name"].rsplit(":", 1)[-1]: c["passed"] for c in payload.get("checks", [])}
    if not set(names) <= set(checks):
        return f"verify is missing checks {sorted(set(names) - set(checks))}"
    if fuzzed:
        return None if not all(checks.values()) else "fuzzed moment table passed every check"
    failed = [n for n, ok in checks.items() if not ok]
    return f"checks failed: {failed}" if failed else None


def check_identities(checks) -> str | None:
    names = {c.name for c in checks}
    if not IDENTITY_CHECKS <= names:
        return f"identities_suite is missing {sorted(IDENTITY_CHECKS - names)}"
    failed = [c.name for c in checks if not c.passed]
    return f"identities failed: {failed}" if failed else None


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among rational strings."""
    best = 0
    for v in values:
        f = Fraction(v)
        best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best
