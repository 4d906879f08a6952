"""Independent cross-checks used by the unit tests.

Everything here is computed from first principles (integer linear algebra,
brute-force enumeration) without calling into the package's own machinery,
so agreement is evidence rather than tautology.
"""

import itertools
from fractions import Fraction

# Coxeter numbers; |R^+| = rank * h / 2.
COXETER_NUMBER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5,
    "B2": 4, "B3": 6, "C3": 6, "D4": 6,
}

# Invariant factors of the coweight/coroot quotient, from the standard
# determinant computations: det A = n+1 for A_n, 2 for B/C, 4 for D_n.
INVARIANT_FACTORS = {
    "A1": (2,), "A2": (3,), "A3": (4,), "A4": (5,),
    "B2": (2,), "B3": (2,), "C3": (2,), "D4": (2, 2),
}


def smith_invariant_factors(mat):
    """Nontrivial invariant factors of an integer matrix."""
    m = [list(row) for row in mat]
    n = len(m)
    k = len(m[0]) if m else 0
    factors = []
    r = 0
    while r < min(n, k):
        # Pivot: smallest nonzero entry in the remaining block.
        pivot = None
        for i in range(r, n):
            for j in range(r, k):
                if m[i][j] != 0 and (pivot is None
                                     or abs(m[i][j]) < abs(pivot[2])):
                    pivot = (i, j, m[i][j])
        if pivot is None:
            break
        pi, pj, _ = pivot
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[r], row[pj] = row[pj], row[r]
        dirty = True
        while dirty:
            dirty = False
            for i in range(r + 1, n):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for j in range(k):
                        m[i][j] -= q * m[r][j]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        dirty = True
            for j in range(r + 1, k):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(n):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(n):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        dirty = True
        r += 1
    for i in range(r):
        factors.append(abs(m[i][i]))
    # Normalize divisibility d1 | d2 | ... by gcd/lcm sweeps.
    from math import gcd
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return tuple(f for f in factors if f > 1)


def rational_solve(mat, rhs):
    """Solve mat x = rhs exactly; mat square and invertible."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def coweight_order_in_quotient(cartan, coords):
    """Order of a coweight's class modulo the coroot lattice.

    The coroot lattice inside coweight coordinates is spanned by the rows
    of the Cartan matrix, so k * coords must solve A^T c = k * coords with
    integral c.
    """
    n = len(cartan)
    at = [[cartan[j][i] for j in range(n)] for i in range(n)]
    base = rational_solve(at, list(coords))
    k = 1
    while True:
        if all((k * c).denominator == 1 for c in base):
            return k
        k += 1


def brute_min_coset_rep(weyl_all, subgroup, w, mul, length):
    """Minimal-length element of the coset w W_P by direct search."""
    best = None
    for u in subgroup:
        cand = mul(w, u)
        if best is None or length(cand) < length(best):
            best = cand
    return best


def brute_orbit_size(apply_step, start, is_start):
    """Iterate apply_step until the start recurs; returns the step count."""
    cur = apply_step(start)
    steps = 1
    while not is_start(cur):
        cur = apply_step(cur)
        steps += 1
        if steps > 64:
            raise RuntimeError("orbit failed to close")
    return steps


# -- a windowed brute force for the parabolic projection ----------------------
#
# Weyl elements are root-lattice matrices stored by columns (cols[j] is the
# image of the simple root alpha_j), built here from the Cartan matrix alone.
# Coweights are in fundamental-coweight coordinates, so <lambda, alpha> is a
# dot product and alpha_k_vee is row k of the Cartan matrix.


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _apply_cols(cols, vec):
    out = [0] * len(vec)
    for j, c in enumerate(vec):
        for k, a in enumerate(cols[j]):
            out[k] += c * a
    return tuple(out)


def _compose(a, b):
    return tuple(_apply_cols(a, col) for col in b)


def _reflection_cols(cartan, i):
    """s_i(alpha_j) = alpha_j - A[i][j] alpha_i, for a 0-based node i."""
    n = len(cartan)
    return tuple(tuple(int(t == j) - cartan[i][j] * int(t == i) for t in range(n))
                 for j in range(n))


def weyl_cols_from_word(cartan, word):
    """Columns of s_{word[0]} s_{word[1]} ... (1-based letters)."""
    n = len(cartan)
    cols = tuple(tuple(int(t == j) for t in range(n)) for j in range(n))
    for i in word:
        cols = _compose(cols, _reflection_cols(cartan, i - 1))
    return cols


def _subgroup(cartan, gens):
    """All (g, g^-1) of the group generated by the given simple reflections."""
    n = len(cartan)
    eye = tuple(tuple(int(t == j) for t in range(n)) for j in range(n))
    seen = {eye: eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for g in frontier:
            for i in gens:
                s = _reflection_cols(cartan, i)
                h = _compose(g, s)
                if h not in seen:
                    seen[h] = _compose(s, seen[g])
                    nxt.append(h)
        frontier = nxt
    return list(seen.items())


def windowed_pi_p(cartan, word, lam, nodes, radius):
    """Every factorization x = x1 (u t_mu) of x = w t_lam with u in W_P,
    mu = sum c_k alpha_k_vee over the nodes off `nodes`, |c_k| <= radius,
    and x1 = w u^-1 t_{u(lam - mu)} in (W^P)_aff, i.e.
    <u(lam - mu), alpha> = 0 if w u^-1(alpha) > 0 and -1 otherwise, for every
    positive root alpha of the Levi subsystem. Returns [(x1 columns, nu)].
    """
    n = len(cartan)
    off = [k for k in range(n) if k + 1 not in nodes]
    group = _subgroup(cartan, off)
    levi = set()
    for g, _ in group:
        for k in off:
            r = g[k]
            if all(a >= 0 for a in r):
                levi.add(r)
    w = weyl_cols_from_word(cartan, word)
    window = list(itertools.product(range(-radius, radius + 1), repeat=len(off)))
    hits = []
    for u, u_inv in group:
        v = _compose(w, u_inv)
        # <u(lam - mu), alpha> = <lam - mu, u^-1(alpha)>
        conds = []
        for alpha in levi:
            r = _apply_cols(u_inv, alpha)
            target = 0 if any(a > 0 for a in _apply_cols(v, alpha)) else -1
            conds.append(([_dot(cartan[k], r) for k in off], _dot(lam, r) - target))
        for cs in window:
            if all(_dot(cs, pair) == want for pair, want in conds):
                rest = [lam[t] - sum(c * cartan[k][t] for c, k in zip(cs, off))
                        for t in range(n)]
                # <u(rest), alpha_i> = <rest, u^-1(alpha_i)>
                hits.append((v, tuple(_dot(rest, col) for col in u_inv)))
    return hits
