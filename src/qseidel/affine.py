"""Extended affine Weyl group elements w * t_lambda and their factorizations.

Conventions, fixed once and used everywhere:

* multiplication: (w t_lambda)(v t_mu) = wv t_{v^-1(lambda) + mu};
* action on real affine roots: (w t_lambda)(alpha + n delta) =
  w(alpha) + (n - <lambda, alpha>) delta, a group homomorphism under the
  multiplication above;
* lambda is stored in fundamental-coweight coordinates, so membership in the
  coroot lattice is an integer mat-vec with the adjugate of the transposed
  Cartan matrix and a divisibility test by its denominator;
* the sign rule: for x = w t_lambda and alpha > 0, e_alpha(x) = <lambda,
  alpha> + [w(alpha) < 0]; x(alpha + n delta) < 0 exactly when n < e, and
  x(-alpha + n delta) < 0 exactly when n <= -e. Every sign the module reads
  is read off e (at a simple root, <lambda, alpha_i> = lambda_i), while
  aff_act_root and inversion_count_oracle evaluate the action as the check;
* length: sum_{alpha > 0} |e_alpha(x)|, the number of positive real affine
  roots sent negative, which also covers translations by general coweights
  (the hat part has the same length, asserted in tests);
* s_0 = s_theta t_{-theta_vee}, and affine reduced words use letters 0..n;
  reduced_word_affine walks the raw (w.perm, lambda), one descent read and
  one permutation composition per letter, and builds no element. Each
  letter moves the length by exactly one, so after length(x) letters the
  walk is on the identity exactly when every letter was a descent: the end
  is checked, not each letter.

Central elements are the length-zero elements v_i t_{-varpi_i_vee} attached to
the minuscule nodes; they realize the coweight classes modulo the coroot
lattice and act on the affine Dynkin diagram by rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .rootsys import (
    AffineRoot,
    RootSystem,
    Vec,
    dot,
    int_inverse,
    is_positive_vec,
    mat_vec,
    vadd,
    vneg,
    vsub,
)
from .weyl import (
    ParabolicSet,
    WeylElt,
    coset_reduce,
    identity,
    involution,
    reflection,
    simple_reflection,
    v_element,
    w_inv,
    w_mul,
)

# reduced_word_affine refuses a word longer than this before its first letter.
# The length grows linearly in lambda: on A2, lambda = (10**9, 0) has a hat
# part of length 2 * 10**9.
AFFINE_WORD_CAP = 4096


class ExtAffElt:
    """w t_lambda with lambda a coweight in fundamental-coweight coordinates.

    Elements are never mutated: they key caches, and == and hash use (w, lam);
    the hash is taken once, when the element is made.
    """

    __slots__ = ("w", "lam", "_hash")

    def __init__(self, w: WeylElt, lam: Vec):
        self.w = w
        self.lam = lam
        self._hash = hash((w, lam))

    @property
    def rs(self) -> RootSystem:
        return self.w.rs

    def is_identity(self) -> bool:
        return self.w.is_identity() and not any(self.lam)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtAffElt):
            return NotImplemented
        return self.lam == other.lam and self.w == other.w

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Aff({self.w!r}, t{list(self.lam)})"


def ext(w: WeylElt) -> ExtAffElt:
    return ExtAffElt(w, (0,) * w.rs.rank)


def translation(rs: RootSystem, m: Vec) -> ExtAffElt:
    if len(m) != rs.rank:
        raise ValueError("coweight has wrong rank")
    return ExtAffElt(identity(rs), tuple(m))


@lru_cache(maxsize=None)
def identity_aff(rs: RootSystem) -> ExtAffElt:
    return ext(identity(rs))


def aff_mul(x: ExtAffElt, y: ExtAffElt) -> ExtAffElt:
    """(w_x t_{lambda_x})(w_y t_{lambda_y}) = w_x w_y t_{w_y^-1(lambda_x) + lambda_y}.

    When lambda_x = 0 (x = ext(w), as in ext(w) * pi_P(...)) the product is
    w_x w_y t_{lambda_y}, read without acting on the zero coweight."""
    if x.rs is not y.rs:
        raise ValueError("mixed root systems")
    if not any(x.lam):
        return ExtAffElt(w_mul(x.w, y.w), y.lam)
    return ExtAffElt(w_mul(x.w, y.w), vadd(y.w.inv_act_coweight(x.lam), y.lam))


def aff_inv(x: ExtAffElt) -> ExtAffElt:
    return ExtAffElt(w_inv(x.w), vneg(x.w.act_coweight(x.lam)))


def aff_act_root(x: ExtAffElt, beta: AffineRoot) -> AffineRoot:
    return AffineRoot(x.w.act_root(beta.finite), beta.level - dot(x.lam, beta.finite))


def aff_length(x: ExtAffElt) -> int:
    rs = x.rs
    big = len(rs.pos_roots)
    # sum of |e_alpha(x)|: alpha = roots[k] for k < N, [w(alpha) < 0] is perm[k] >= N
    return sum(abs((k >= big) + c)
               for k, c in zip(x.w.perm, rs.pos_root_pairings(x.lam)))


def inversion_count_oracle(x: ExtAffElt) -> int:
    """Count inverted positive real affine roots directly, level by level.

    x fixes delta, so x(gamma + n delta) = x(gamma) + n delta: with image =
    x(gamma) = beta + m delta, the root gamma + n delta is sent to beta +
    (m + n) delta, whose sign is monotone in n and positive once n > |m|.
    Each root's sweep runs from its first positive level to |m| + 1 and stops
    at its first positive image, so it is exhaustive and counts every
    inversion. Any coweight lambda will do: every level <lambda, gamma> is an integer.
    """
    rs = x.rs
    big = len(rs.pos_roots)
    count = 0
    for k, gamma in enumerate(rs.roots):  # gamma > 0 exactly when k < N
        image = aff_act_root(x, AffineRoot(gamma, 0))
        m = image.level
        beta_positive = is_positive_vec(image.finite)
        for n in range(0 if k < big else 1, abs(m) + 2):
            if m + n > 0 or (m + n == 0 and beta_positive):
                break
            count += 1
    return count


def _affine_descent(rs: RootSystem, perm: tuple[int, ...], lam: Vec,
                    affine: bool = True) -> Optional[int]:
    """For x = w t_lambda with w.perm = perm, the smallest i in 0..n with
    x(alpha_i) < 0, or None: i = 0 when e_theta < 0, i >= 1 when e =
    lambda_i + [w(alpha_i) < 0] > 0. With affine=False, i = 0 is not read."""
    big = len(rs.pos_roots)
    if affine and dot(lam, rs.theta) + (perm[rs.root_index[rs.theta]] >= big) < 0:
        return 0
    for i, (c, k) in enumerate(zip(lam, rs.simple_index), 1):
        if c + (perm[k] >= big) > 0:
            return i
    return None


def is_waff_minus(x: ExtAffElt) -> bool:
    """Minimal length in its right W-coset: e <= 0 at every alpha_i."""
    return _affine_descent(x.rs, x.w.perm, x.lam, affine=False) is None


def is_wpaff(x: ExtAffElt, p: ParabolicSet) -> bool:
    """x sends every positive root of (W_P)_aff positive: e = 0 over R_P^+."""
    big = len(p.rs.pos_roots)
    perm, lam = x.w.perm, x.lam
    for k, alpha in zip(p.rp_index, p.rp_pos):
        if dot(lam, alpha) + (perm[k] >= big):
            return False
    return True


# -- central elements --------------------------------------------------------


@dataclass(frozen=True)
class CentralElt:
    """Length-zero element: identity (node None) or v_i t_{-varpi_i_vee}."""

    rs: RootSystem
    node: Optional[int]

    def __post_init__(self):
        if self.node is not None and self.node not in self.rs.minuscule_nodes:
            raise ValueError(f"node {self.node} is not minuscule in {self.rs.name()}")

    def to_ext(self) -> ExtAffElt:
        if self.node is None:
            return identity_aff(self.rs)
        return ExtAffElt(v_element(self.rs, self.node),
                         vneg(self.rs.fund_coweight(self.node)))

    def is_identity(self) -> bool:
        return self.node is None

    def __repr__(self) -> str:
        return f"Central({self.rs.name()}, {self.node})"


def central_elements(rs: RootSystem) -> tuple[CentralElt, ...]:
    return (CentralElt(rs, None),) + tuple(CentralElt(rs, i) for i in rs.minuscule_nodes)


def hat_decompose(x: ExtAffElt) -> tuple[CentralElt, ExtAffElt]:
    """x = tau * hat(x) with tau central and hat(x) in the non-extended group.

    For lambda = -varpi_i_vee + (coroot lattice part) the hat is
    v_{f(i)} w t_{lambda - w^-1(varpi_{f(i)}_vee)}; the reconstruction and the
    integrality of the hat translation are asserted on every call.
    """
    rs = x.rs
    i = rs.minuscule_class_node(x.lam)
    if i is None:
        return CentralElt(rs, None), x
    fi = involution(rs)[i - 1]
    what = w_mul(v_element(rs, fi), x.w)
    lam_hat = vsub(x.lam, x.w.inv_act_coweight(rs.fund_coweight(fi)))
    hat = ExtAffElt(what, lam_hat)
    tau = CentralElt(rs, i)
    if not rs.in_coroot_lattice(lam_hat):
        raise AssertionError("hat translation left the coroot lattice")
    if aff_mul(tau.to_ext(), hat) != x:
        raise AssertionError("hat decomposition does not recompose")
    return tau, hat


def central_mul(z1: CentralElt, z2: CentralElt) -> CentralElt:
    if z1.is_identity():
        return z2
    if z2.is_identity():
        return z1
    tau, hat = hat_decompose(aff_mul(z1.to_ext(), z2.to_ext()))
    if not hat.is_identity():
        raise AssertionError("product of central elements has a non-identity hat part")
    return tau


def central_order(z: CentralElt) -> int:
    order = 1
    cur = z
    while not cur.is_identity():
        cur = central_mul(cur, z)
        order += 1
        if order > len(z.rs.roots):
            raise AssertionError("central element order runaway")
    return order


def central_dynkin_action(z: CentralElt, i: int) -> int:
    """Index j with tau(alpha_i) = alpha_j on the affine Dynkin diagram."""
    rs = z.rs
    image = aff_act_root(z.to_ext(), rs.affine_simple(i))
    for j in range(rs.rank + 1):
        if image == rs.affine_simple(j):
            return j
    raise AssertionError("central element did not permute the affine simple roots")


# -- affine reduced words -----------------------------------------------------


@lru_cache(maxsize=None)
def affine_simple_ext(rs: RootSystem, i: int) -> ExtAffElt:
    if i == 0:
        return ExtAffElt(reflection(rs, rs.theta),
                         vneg(rs.coroot_to_coweight(rs.theta_coroot)))
    return ext(simple_reflection(rs, i))


def left_ascent(y: ExtAffElt, i: int) -> bool:
    """Whether l(s_i y) > l(y), i.e. y^-1(alpha_i) > 0: the left-hand twin of
    _affine_descent. For gamma = alpha_i (theta if i = 0) and beta = w^-1(gamma),
    e = e_gamma(y^-1) = [beta < 0] - <lambda, beta>, read without forming y^-1."""
    rs = y.rs
    k = y.w.perm.index(rs.root_index[rs.theta if i == 0 else rs.simple_root(i)])
    e = (k >= len(rs.pos_roots)) - dot(y.lam, rs.roots[k])  # beta = roots[k]
    return e >= 0 if i == 0 else e <= 0


def reduced_word_affine(x: ExtAffElt) -> tuple[int, ...]:
    """Reduced word over letters 0..n (left-to-right composition), lambda in Q_vee.

    Each step peels the smallest right descent. The word has aff_length(x)
    letters, which grows linearly in lambda; above AFFINE_WORD_CAP it is
    refused before the first letter is computed. The walk (module docstring)
    runs on (perm, lambda): x s_i = w s_i t_{lambda - lambda_i alpha_i_vee},
    x s_0 = w s_theta t_{lambda - (<lambda, theta> + 1) theta_vee}.
    """
    rs = x.rs
    if not rs.in_coroot_lattice(x.lam):
        raise ValueError("affine reduced words need a coroot-lattice translation")
    length = aff_length(x)
    if length > AFFINE_WORD_CAP:
        raise ValueError(f"affine word of length {length} exceeds the cap of "
                         f"{AFFINE_WORD_CAP} letters")
    perm, lam = x.w.perm, x.lam
    rev: list[int] = []
    for _ in range(length):
        i = _affine_descent(rs, perm, lam)
        if i is None:
            raise AssertionError("positive-length element without an affine descent")
        s = affine_simple_ext(rs, i)
        perm = itemgetter(*s.w.perm)(perm)
        if i:  # alpha_i_vee in coweight coordinates is row i of the Cartan matrix
            c, coroot = lam[i - 1], rs.cartan[i - 1]
        else:  # s_0 = s_theta t_{-theta_vee}
            c, coroot = -dot(lam, rs.theta) - 1, s.lam
        if c:
            lam = tuple(a - c * b for a, b in zip(lam, coroot))
        rev.append(i)
    if perm != identity(rs).perm or any(lam):
        raise AssertionError("affine descent walk did not end on the identity")
    return tuple(reversed(rev))


# -- parabolic factorizations -------------------------------------------------


def in_parabolic_aff(x: ExtAffElt, p: ParabolicSet) -> bool:
    """Membership in (W_P)_aff = W_P semidirect Q_vee_P.

    w lies in W_P exactly when every inversion of w is a root of R_P^+.
    """
    big = len(p.rs.pos_roots)
    perm = x.w.perm
    if x.w.length != sum(perm[k] >= big for k in p.rp_index):
        return False
    try:
        c = x.rs.coroot_coords(x.lam)
    except ValueError:  # lambda is off the coroot lattice
        return False
    return all(c[i - 1] == 0 for i in p.nodes)


@lru_cache(maxsize=None)
def _levi(p: ParabolicSet) -> tuple:
    """alpha_j_vee for j off I_P, adj / d inverting the Levi Cartan block
    M[j][k] = <alpha_k_vee, alpha_j>, (alpha, alpha_vee, s_alpha) over R_P^+
    in the order of p.rp_pos, and rho_P_vee = sum of varpi_i_vee over I_P,
    whose stabiliser is W_P; coroots in coweight coordinates."""
    rs = p.rs
    rows = tuple(rs.cartan[j - 1] for j in p.wp_nodes)
    adj, d = int_inverse([[row[j - 1] for row in rows] for j in p.wp_nodes])
    roots = tuple((alpha, rs.coroot_to_coweight(rs.coroot_of(alpha)), reflection(rs, alpha))
                  for alpha in p.rp_pos)
    rho = tuple(int(i in p.nodes) for i in range(1, rs.rank + 1))
    return rows, adj, d, roots, rho


def _same_coset(x1: ExtAffElt, x: ExtAffElt, p: ParabolicSet) -> bool:
    """Whether x1^-1 x = u t_{lambda_x - u^-1 lambda_1}, u = w_1^-1 w_x, lies
    in (W_P)_aff, read without forming it: u fixes rho_P_vee (W_P is its
    stabiliser), and lambda_x - lambda_1 lies in Q_vee_P (u in W_P moves
    any coweight only by elements of Q_vee_P)."""
    try:
        c = x.rs.coroot_coords(vsub(x.lam, x1.lam))
    except ValueError:  # lambda_x - lambda_1 is off the coroot lattice
        return False
    if any(c[i - 1] for i in p.nodes):
        return False
    rho = _levi(p)[4]
    return x1.w.act_coweight(rho) == x.w.act_coweight(rho)


@lru_cache(maxsize=None)
def pi_P(x: ExtAffElt, p: ParabolicSet) -> ExtAffElt:
    """The (W^P)_aff factor of x = x1 * x2, x2 in (W_P)_aff, for any x in the extended group.

    x1 is the unique element of x (W_P)_aff sending every positive root of
    (W_P)_aff positive, the minimal one (Dyer). A translation by mu0 in
    Q_vee_P, the floor of the Levi solve of <lambda, alpha_j> over j off I_P,
    bounds every Levi pairing by the type. Then, while e = e_alpha(x) != 0
    for some alpha in R_P^+, x becomes x s_alpha if e > 0 (x(alpha) < 0) or
    x s_{delta - alpha} = x s_alpha t_{-alpha_vee} if e < 0 (x(delta - alpha)
    < 0); the loop stops exactly when is_wpaff(x) holds. Each step lowers the
    number sum |e| over R_P^+ of positive roots of (W_P)_aff that x inverts,
    so that number bounds the steps, and a step past it is an AssertionError.
    The residual x1^-1 x is checked by _same_coset, without being formed.

    lambda may be any coweight: mu0 lies in Q_vee_P, each step is the group
    law, and a length-zero tau permutes the positive affine roots, so x = tau
    hat(x) inverts what hat(x) inverts and descends to tau pi_P(hat(x)).
    """
    rs = x.rs
    if p.rs is not rs:
        raise ValueError("mixed root systems")
    rows, adj, d, roots, _ = _levi(p)
    lam = x.lam
    for c, row in zip(mat_vec(adj, [lam[j - 1] for j in p.wp_nodes]), rows):
        c //= d
        if c:
            lam = tuple(a - c * b for a, b in zip(lam, row))
    w = x.w
    perm = w.perm
    big = len(rs.pos_roots)
    budget = 0
    for k, alpha in zip(p.rp_index, p.rp_pos):
        budget += abs(dot(lam, alpha) + (perm[k] >= big))
    for steps in range(budget + 1):
        for k, (alpha, coroot, s) in zip(p.rp_index, roots):
            c = dot(lam, alpha)
            e = c + (perm[k] >= big)
            if e:
                break
        else:  # e = 0 over R_P^+: x is in (W^P)_aff
            break
        if steps == budget:
            raise AssertionError(f"pi_P descent passed its budget of {budget} steps")
        c += e < 0
        w = w_mul(w, s)
        perm = w.perm
        lam = tuple(a - c * b for a, b in zip(lam, coroot))
    x1 = ExtAffElt(w, lam)
    if not _same_coset(x1, x, p):
        raise AssertionError("pi_P residual escaped (W_P)_aff")
    return x1


def eta_P(m: Vec, p: ParabolicSet) -> Vec:
    """Coroot coordinates of a coroot-lattice coweight, restricted to the quantum nodes."""
    c = p.rs.coroot_coords(m)
    return tuple(c[i - 1] for i in p.nodes)


def is_antidominant(m: Vec) -> bool:
    return all(c <= 0 for c in m)


@lru_cache(maxsize=None)
def peterson_decompose(y: ExtAffElt, p: ParabolicSet) -> tuple[WeylElt, Vec]:
    """y = w * pi_P(t_nu) with w in W^P and nu antidominant in Q_vee.

    w is the minimal representative of y.w W_P, so w^-1 y = u t_lambda with
    u in W_P, and pi_P(t_nu) = w^-1 y exactly for nu in u(lambda) + Q_vee_P.
    Antidominant coweights have coroot coordinates <= 0 and, the Cartan matrix
    having off-diagonal entries <= 0, those of the coset are closed under the
    coordinatewise max. nu is the greatest of them: starting from coordinate 0
    on every node off I_P, lowering c_j by ceil(m_j / 2) while some j off I_P
    has m_j = <nu, alpha_j> > 0 never passes it and stops on it. Requires y in
    W_aff^- intersect (W^P)_aff.
    """
    rs = y.rs
    if p.rs is not rs:
        raise ValueError("mixed root systems")
    if not is_waff_minus(y):
        raise ValueError("peterson_decompose needs a minimal coset representative")
    if not is_wpaff(y, p):
        raise ValueError("peterson_decompose needs membership in (W^P)_aff")
    w = coset_reduce(y.w, p)
    u = w_mul(w_inv(w), y.w)
    c = rs.coroot_coords(u.act_coweight(y.lam))
    nu = rs.coroot_to_coweight(tuple(c[i - 1] if i in p.nodes else 0
                                     for i in range(1, rs.rank + 1)))
    while True:
        j = next((j for j in p.wp_nodes if nu[j - 1] > 0), None)
        if j is None:
            break
        step = (nu[j - 1] + 1) // 2
        nu = tuple(a - step * b for a, b in zip(nu, rs.cartan[j - 1]))
    if not is_antidominant(nu):
        raise AssertionError("Peterson decomposition has no antidominant translation")
    if aff_mul(ext(w), pi_P(translation(rs, nu), p)) != y:
        raise AssertionError("Peterson decomposition does not recompose")
    return w, nu
