"""Independent cross-checks used by the unit tests.

Everything here is computed from first principles (integer linear algebra,
brute-force enumeration) without calling into the package's own machinery,
so agreement is evidence rather than tautology.
"""

import functools
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


# -- Weyl matrices, and a windowed brute force for the parabolic projection ---
#
# Weyl elements are root-lattice matrices stored by columns (cols[j] is the
# image of the simple root alpha_j), built here from the Cartan matrix alone.
# Coweights are in fundamental-coweight coordinates, so <lambda, alpha> is a
# dot product and alpha_k_vee is row k of the Cartan matrix.


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def apply_cols(cols, vec):
    out = [0] * len(vec)
    for j, c in enumerate(vec):
        for k, a in enumerate(cols[j]):
            out[k] += c * a
    return tuple(out)


def compose_cols(a, b):
    return tuple(apply_cols(a, col) for col in b)


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
        cols = compose_cols(cols, _reflection_cols(cartan, i - 1))
    return cols


def longest_word_by_descent(cartan, nodes):
    """A reduced word of the longest element of the subgroup generated by
    s_i, i in `nodes` (1-based).

    Greedy descent from the sum of the fundamental coweights of `nodes`, which
    is regular for that subgroup: while some node i pairs to c > 0 with the
    coweight, apply s_i (subtract c times alpha_i_vee, row i of the Cartan
    matrix) and put s_i in front of the word. It stops in the antidominant
    chamber, one letter per positive root of the subgroup.
    """
    m = [int(k + 1 in nodes) for k in range(len(cartan))]
    word = []
    while True:
        i = next((i for i in nodes if m[i - 1] > 0), None)
        if i is None:
            return tuple(word)
        c = m[i - 1]
        m = [a - c * b for a, b in zip(m, cartan[i - 1])]
        word.insert(0, i)


def subgroup_cols(cartan, gens):
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
                h = compose_cols(g, s)
                if h not in seen:
                    seen[h] = compose_cols(s, seen[g])
                    nxt.append(h)
        frontier = nxt
    return list(seen.items())


def _levi_positive(group, off):
    """Positive roots of the Levi subsystem: the positive images of its simple
    roots (0-based nodes `off`) under its Weyl group."""
    levi = set()
    for g, _ in group:
        for k in off:
            r = g[k]
            if all(a >= 0 for a in r):
                levi.add(r)
    return levi


def windowed_pi_p(cartan, word, lam, nodes, radius):
    """Every factorization x = x1 (u t_mu) of x = w t_lam with u in W_P,
    mu = sum c_k alpha_k_vee over the nodes off `nodes`, |c_k| <= radius,
    and x1 = w u^-1 t_{u(lam - mu)} in (W^P)_aff, i.e.
    <u(lam - mu), alpha> = 0 if w u^-1(alpha) > 0 and -1 otherwise, for every
    positive root alpha of the Levi subsystem. Returns [(x1 columns, nu)].
    """
    n = len(cartan)
    off = [k for k in range(n) if k + 1 not in nodes]
    group = subgroup_cols(cartan, off)
    levi = _levi_positive(group, off)
    w = weyl_cols_from_word(cartan, word)
    window = list(itertools.product(range(-radius, radius + 1), repeat=len(off)))
    hits = []
    for u, u_inv in group:
        v = compose_cols(w, u_inv)
        # <u(lam - mu), alpha> = <lam - mu, u^-1(alpha)>
        conds = []
        for alpha in levi:
            r = apply_cols(u_inv, alpha)
            target = 0 if any(a > 0 for a in apply_cols(v, alpha)) else -1
            conds.append(([_dot(cartan[k], r) for k in off], _dot(lam, r) - target))
        for cs in window:
            if all(_dot(cs, pair) == want for pair, want in conds):
                rest = [lam[t] - sum(c * cartan[k][t] for c, k in zip(cs, off))
                        for t in range(n)]
                # <u(rest), alpha_i> = <rest, u^-1(alpha_i)>
                hits.append((v, tuple(_dot(rest, col) for col in u_inv)))
    return hits


def pi_p_by_candidates(cartan, word, lam, nodes):
    """pi_P of x = w t_lam by one exact linear solve per u in W_P.

    For each u, mu = sum c_k alpha_k_vee over the nodes off `nodes` is pinned
    by <u(lam - mu), alpha_j> = 0 if w u^-1(alpha_j) > 0 and -1 otherwise, for
    the Levi simple roots alpha_j: a square system in the base u^-1(alpha_j)
    of the Levi roots. The first u whose solution is integral and whose
    x1 = w u^-1 t_{u(lam - mu)} meets the same condition on every positive
    Levi root gives the answer, returned as (x1 columns, u(lam - mu)).
    """
    n = len(cartan)
    off = [k for k in range(n) if k + 1 not in nodes]
    group = subgroup_cols(cartan, off)
    levi = _levi_positive(group, off)
    simple = [tuple(int(t == j) for t in range(n)) for j in off]
    w = weyl_cols_from_word(cartan, word)
    for _, u_inv in group:
        v = compose_cols(w, u_inv)

        def target(alpha):
            return 0 if any(a > 0 for a in apply_cols(v, alpha)) else -1

        rows = [u_inv[j] for j in off]  # u^-1(alpha_j)
        sol = rational_solve([[_dot(cartan[k], r) for k in off] for r in rows],
                             [_dot(lam, r) - target(alpha)
                              for r, alpha in zip(rows, simple)])
        if any(c.denominator != 1 for c in sol):
            continue
        rest = [lam[t] - sum(int(c) * cartan[k][t] for c, k in zip(sol, off))
                for t in range(n)]
        nu = tuple(_dot(rest, col) for col in u_inv)
        if all(_dot(nu, alpha) == target(alpha) for alpha in levi):
            return v, nu
    raise RuntimeError("no candidate factorization")


def antidominant_coset_points(cartan, coroot_coords, quantum_nodes, radius):
    """Coroot coordinates of every antidominant point of the coset
    coroot_coords + Q_vee_P: coordinates on the quantum nodes (1-based) kept,
    the others over [-radius, radius], and <nu, alpha_i> <= 0 for every i.
    """
    n = len(cartan)
    free = [k for k in range(n) if k + 1 not in quantum_nodes]
    points = []
    for cs in itertools.product(range(-radius, radius + 1), repeat=len(free)):
        c = list(coroot_coords)
        for k, v in zip(free, cs):
            c[k] = v
        if all(sum(c[k] * cartan[k][i] for k in range(n)) <= 0 for i in range(n)):
            points.append(tuple(c))
    return points


def minreps_by_reduction(weyl_all, reduce):
    """W^P by reducing every element of W: the distinct minimal factors
    reduce(w) = w^P of w = w^P u, in the order of weyl_all."""
    out = []
    seen = set()
    for w in weyl_all:
        wp = reduce(w)
        if wp not in seen:
            seen.add(wp)
            out.append(wp)
    return tuple(out)


def affine_word_by_root_action(cartan, theta, theta_coweight, word, lam):
    """Affine reduced word of x = w t_lam by right-descent peeling on roots.

    w is s_word[0] s_word[1] ... (1-based letters) and lam a coroot-lattice
    coweight; theta is the highest root and theta_coweight the coweight
    coordinates of its coroot. Each step applies x to the affine simple roots
    alpha_0 = delta - theta, alpha_1, ..., alpha_n, by x(alpha + m delta) =
    w(alpha) + (m - <lam, alpha>) delta, and takes the smallest i whose image
    is negative; x becomes x s_i, with s_i t_{s_i lam} for i >= 1 and
    s_theta t_{s_theta lam - theta_vee} for i = 0. The letters are returned
    left to right, and the peeling must end on the identity.
    """
    n = len(cartan)
    eye = tuple(tuple(int(t == j) for t in range(n)) for j in range(n))
    s_theta = tuple(tuple(int(t == j) - theta_coweight[j] * theta[t] for t in range(n))
                    for j in range(n))
    simples = [(tuple(-a for a in theta), 1)] + [(eye[i], 0) for i in range(n)]
    cols, lam = weyl_cols_from_word(cartan, word), list(lam)
    letters = []

    def negative(alpha, m):
        level = m - _dot(lam, alpha)
        return level < 0 or (level == 0 and not any(a > 0 for a in apply_cols(cols, alpha)))

    while True:
        i = next((i for i, (alpha, m) in enumerate(simples) if negative(alpha, m)), None)
        if i is None:
            break
        if i == 0:
            c = _dot(lam, theta) + 1
            lam = [a - c * b for a, b in zip(lam, theta_coweight)]
            cols = compose_cols(cols, s_theta)
        else:
            c = lam[i - 1]
            lam = [a - c * b for a, b in zip(lam, cartan[i - 1])]
            cols = compose_cols(cols, _reflection_cols(cartan, i - 1))
        letters.append(i)
        if len(letters) > 10_000:
            raise RuntimeError("descent peeling did not stop")
    if cols != eye or any(lam):
        raise RuntimeError("descent peeling stopped off the identity")
    return tuple(reversed(letters))


def inversions_by_level_sweep(x):
    """The affine inversion count of x = w t_lam by the exhaustive level sweep.

    Every real root gamma + n delta > 0 with n up to max |<lam, alpha>| + 1
    over alpha > 0 is imaged as w(gamma) + (n - <lam, gamma>) delta, and
    counted when that image is negative; no level is skipped. The finite part
    comes from WeylElt.act_root, the pairing from a plain dot product.
    """
    rs = x.rs
    bound = max((abs(_dot(x.lam, a)) for a in rs.pos_roots), default=0) + 1
    count = 0
    for gamma in rs.roots:
        image = x.w.act_root(gamma)
        shift = -_dot(x.lam, gamma)
        for n in range(0 if max(gamma) > 0 else 1, bound + 1):
            level = n + shift
            if level < 0 or (level == 0 and max(image) <= 0):
                count += 1
    return count


# -- the quantum Chevalley formula, root by root -------------------------------


@functools.lru_cache(maxsize=None)
def _root_reflection(rs, alpha):
    """s_alpha as a Weyl element, its root permutation built from the Cartan
    matrix alone: s_alpha(beta) = beta - <beta, alpha_vee> alpha, with
    <beta, alpha_vee> = sum_{s,t} c_s A[s][t] b_t for alpha_vee = sum_s c_s alpha_s_vee
    and A[s][t] = <alpha_t, alpha_s_vee>."""
    from qseidel.weyl import _elt

    n, cv = rs.rank, rs.coroot_of(alpha)
    row = [sum(cv[s] * rs.cartan[s][t] for s in range(n)) for t in range(n)]
    return _elt(rs, tuple(
        rs.root_index[tuple(b - _dot(row, beta) * a for a, b in zip(alpha, beta))]
        for beta in rs.roots))


def chevalley_by_roots(j, c, equivariant=False):
    """Terms of D_j c by the Fulton-Woodward sum, recomputed per input term.

    For each term (w, d) and each positive root alpha outside the parabolic
    with m = <varpi_j, alpha_vee> nonzero: m sigma(w s_alpha) q^d when
    w s_alpha lies in W^P one step above w, and m sigma((w s_alpha)^P)
    q^{d + eta_P(alpha_vee)} when (w s_alpha)^P is n_alpha - 1 steps below it,
    n_alpha = <2 rho - 2 rho_P, alpha_vee>, the sum of the positive roots outside
    the parabolic paired with alpha_vee. The equivariant operator adds
    (varpi_j - w(varpi_j)) sigma(w) q^d. Uses the Weyl group's element
    arithmetic, but no reflection, operator table or memo of the package: s_alpha
    comes from _root_reflection, the rest of the per-root data is rebuilt on
    every call, n_alpha is paired through the Cartan matrix, and coset
    reductions bypass their cache.
    """
    from qseidel.poly import SPoly
    from qseidel.weyl import coset_reduce, is_minrep, w_mul

    p = c.p
    rs = p.rs
    inside = set(p.rp_pos)
    outside = [a for a in rs.pos_roots if a not in inside]
    wj = tuple(int(t == j - 1) for t in range(rs.rank))
    out = {}

    def put(key, v):
        prev = out.pop(key, None)
        if prev is not None:
            v = prev + v
        if v:
            out[key] = v

    rho_out = tuple(map(sum, zip(*outside)))  # 2 rho - 2 rho_P, root coordinates
    n = rs.rank
    roots = []  # (s_alpha, m, n_alpha, eta_P(alpha_vee)) with m nonzero
    for alpha in outside:
        cv = rs.coroot_of(alpha)
        if cv[j - 1]:
            # <beta, alpha_vee> = sum_{s,t} c_s A[s][t] b_t, A[s][t] = <alpha_t, alpha_s_vee>
            n_alpha = sum(cv[s] * rs.cartan[s][t] * rho_out[t]
                          for s in range(n) for t in range(n))
            roots.append((_root_reflection(rs, alpha), cv[j - 1], n_alpha,
                          tuple(cv[i - 1] for i in p.nodes)))
    for (w, d), coeff in c.terms.items():
        for s_alpha, mult, n_alpha, eta in roots:
            w2 = w_mul(w, s_alpha)
            if w2.length == w.length + 1 and is_minrep(w2, p):
                put((w2, d), coeff * mult)
            w2p = coset_reduce.__wrapped__(w2, p)
            if w2p.length == w.length + 1 - n_alpha:
                put((w2p, tuple(a + b for a, b in zip(d, eta))), coeff * mult)
        if equivariant:
            diag = SPoly.weight(wj) - SPoly.weight(w.act_weight(wj))
            if diag:
                put((w, d), coeff * diag)
    return out


# -- the nil Hecke product by the two-branch recursion -------------------------


def reflection_data(cartan, theta, i):
    """alpha_i and <w_k, alpha_i_vee> for k = 1..n, i in 0..n.

    Weights are in fundamental-weight coordinates, so alpha_i has coordinates
    cartan[k][i-1]; alpha_0 reads as -theta and alpha_0_vee as -theta_vee.
    <w_k, theta_vee> = 2 theta_k l_k / (theta, theta), with the half squared
    lengths l_k propagated along the diagram by l_j cartan[j][k] =
    l_k cartan[k][j].
    """
    n = len(cartan)
    if i:
        root = [cartan[k][i - 1] for k in range(n)]
        pair = [int(k == i - 1) for k in range(n)]
    else:
        half = [None] * n
        half[0] = Fraction(1)
        todo = [0]
        while todo:
            j = todo.pop()
            for k in range(n):
                if cartan[j][k] and half[k] is None:
                    half[k] = half[j] * cartan[j][k] / cartan[k][j]
                    todo.append(k)
        norm = sum(theta[j] * theta[k] * half[j] * cartan[j][k]
                   for j in range(n) for k in range(n))
        pair = [-2 * theta[k] * half[k] / norm for k in range(n)]
        if any(c.denominator != 1 for c in pair):
            raise RuntimeError("<w_k, theta_vee> is not an integer")
        root = [-_dot(cartan[k], theta) for k in range(n)]
    return root, [int(c) for c in pair]


def reflection_weight_images(cartan, theta, i):
    """s_i(w_k) = w_k - <w_k, alpha_i_vee> alpha_i for k = 1..n, i in 0..n."""
    root, pair = reflection_data(cartan, theta, i)
    n = len(cartan)
    return tuple(tuple(int(t == k) - pair[k] * root[t] for t in range(n))
                 for k in range(n))


def exact_quotient(terms, root):
    """terms / sum_k root[k] w_k for a dict {exponents: int}, by long division
    in lex order; raises ArithmeticError when the quotient is not an integer
    polynomial."""
    t = next(k for k, a in enumerate(root) if a)  # the lex-leading variable
    rem = dict(terms)
    quot = {}
    while rem:
        m = max(rem)  # the lex-leading monomial of the remainder
        q, r = divmod(rem[m], root[t])
        if r or not m[t]:
            raise ArithmeticError("the linear form does not divide the polynomial")
        qm = tuple(e - int(k == t) for k, e in enumerate(m))
        quot[qm] = q
        for k, a in enumerate(root):
            if a:
                _put(rem, tuple(e + int(s == k) for s, e in enumerate(qm)), -q * a)
    return quot


def _put(out, key, v):
    prev = out.pop(key, None)
    if prev is not None:
        v = prev + v
    if v:
        out[key] = v


def _aword_times_poly(rs, word, g):
    """A_word g as {z: c_z} with A_word g = sum c_z A_z, by peeling the last
    letter: A_i g = s_i(g) A_i + d_i(g), where d_i(g) is g - s_i(g) divided
    exactly by alpha_i."""
    from qseidel.affine import aff_length, aff_mul, affine_simple_ext, identity_aff
    from qseidel.poly import SPoly

    if not g:
        return {}
    if not word:
        return {identity_aff(rs): g}
    head, last = word[:-1], word[-1]
    images = [SPoly.weight(v)
              for v in reflection_weight_images(rs.cartan, rs.theta, last)]
    reflected = g.subst(images)
    root, _ = reflection_data(rs.cartan, rs.theta, last)
    quotient = SPoly(rs.rank, exact_quotient((g - reflected).terms, root))
    s_last = affine_simple_ext(rs, last)
    out = {}
    for z, c in _aword_times_poly(rs, head, reflected).items():
        z2 = aff_mul(z, s_last)
        if aff_length(z2) == aff_length(z) + 1:
            _put(out, z2, c)
    for z, c in _aword_times_poly(rs, head, quotient).items():
        _put(out, z, c)
    return out


def nh_mul_by_recursion(a, b):
    """(f A_h tau)(g A_y) = sum_z f c_z A_{z tau y} over A_h tau(g) = sum_z c_z A_z,
    keeping a term when lengths add; every pair of terms is expanded on its
    own. tau acts on g through the weight images of its finite part. Uses the
    affine group arithmetic and polynomial arithmetic of the package, but none
    of its nil Hecke products, scalar actions or divided differences."""
    from qseidel.affine import (
        CentralElt, aff_inv, aff_length, aff_mul, reduced_word_affine)
    from qseidel.nilhecke import NilHeckeElt
    from qseidel.poly import SPoly

    rs = a.rs
    n = rs.rank
    out = {}
    for x, f in a.terms.items():
        t = CentralElt(rs, rs.minuscule_class_node(x.lam))
        word = reduced_word_affine(aff_mul(x, aff_inv(t)))
        twist = [SPoly.weight(t.w.act_weight(tuple(int(s == k) for s in range(n))))
                 for k in range(n)]
        for y, g in b.terms.items():
            ty = aff_mul(t, y)
            for z, c in _aword_times_poly(rs, word, g.subst(twist)).items():
                zy = aff_mul(z, ty)
                if aff_length(zy) == aff_length(z) + aff_length(ty):
                    _put(out, zy, f * c)
    return NilHeckeElt(rs, out)


def embed_by_products(x):
    """The group embedding as a product of factors s_i = 1 - alpha_i A_i over a
    reduced word of the hat part, times A_tau, multiplied out by
    nh_mul_by_recursion."""
    from qseidel.affine import (
        CentralElt, aff_inv, aff_mul, affine_simple_ext, identity_aff,
        reduced_word_affine)
    from qseidel.nilhecke import NilHeckeElt
    from qseidel.poly import SPoly

    rs = x.rs
    n = rs.rank
    one = SPoly.one(n)
    t = CentralElt(rs, rs.minuscule_class_node(x.lam))
    acc = NilHeckeElt(rs, {identity_aff(rs): one})
    for i in reduced_word_affine(aff_mul(x, aff_inv(t))):
        root = ([-_dot(rs.cartan[k], rs.theta) for k in range(n)] if i == 0
                else [rs.cartan[k][i - 1] for k in range(n)])
        factor = NilHeckeElt(rs, {identity_aff(rs): one,
                                  affine_simple_ext(rs, i): -SPoly.weight(root)})
        acc = nh_mul_by_recursion(acc, factor)
    return nh_mul_by_recursion(acc, NilHeckeElt(rs, {t: one}))
