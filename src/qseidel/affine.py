"""Extended affine Weyl group elements w * t_lambda and their factorizations.

Conventions, fixed once and used everywhere:

* multiplication: (w t_lambda)(v t_mu) = wv t_{v^-1(lambda) + mu};
* action on real affine roots: (w t_lambda)(alpha + n delta) =
  w(alpha) + (n - <lambda, alpha>) delta, a group homomorphism under the
  multiplication above;
* lambda is stored in fundamental-coweight coordinates, so membership in the
  coroot lattice is an integer mat-vec with the adjugate of the transposed
  Cartan matrix and a divisibility test by its denominator;
* length: number of positive real affine roots sent negative, computed by the
  closed formula sum_{alpha > 0} |chi(w(alpha) < 0) + <lambda, alpha>|, which
  also covers translations by general coweights (the hat part has the same
  length, asserted in tests);
* s_0 = s_theta t_{-theta_vee}, and affine reduced words use letters 0..n.

Central elements are the length-zero elements v_i t_{-varpi_i_vee} attached to
the minuscule nodes; they realize the coweight classes modulo the coroot
lattice and act on the affine Dynkin diagram by rotation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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
    enumerate_minreps,
    enumerate_parabolic_subgroup,
    identity,
    reflection,
    simple_reflection,
    v_element,
    w_inv,
    w_mul,
)


@dataclass(frozen=True)
class ExtAffElt:
    """w t_lambda with lambda a coweight in fundamental-coweight coordinates."""

    w: WeylElt
    lam: Vec

    @property
    def rs(self) -> RootSystem:
        return self.w.rs

    def is_identity(self) -> bool:
        return self.w.is_identity() and not any(self.lam)

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
    if x.rs is not y.rs:
        raise ValueError("mixed root systems")
    return ExtAffElt(w_mul(x.w, y.w), vadd(y.w.inv_act_coweight(x.lam), y.lam))


def aff_inv(x: ExtAffElt) -> ExtAffElt:
    return ExtAffElt(w_inv(x.w), vneg(x.w.act_coweight(x.lam)))


def aff_act_root(x: ExtAffElt, beta: AffineRoot) -> AffineRoot:
    return AffineRoot(x.w.act_root(beta.finite), beta.level - dot(x.lam, beta.finite))


def aff_length(x: ExtAffElt) -> int:
    total = 0
    for alpha in x.rs.pos_roots:
        chi = 0 if is_positive_vec(x.w.act_root(alpha)) else 1
        total += abs(chi + dot(x.lam, alpha))
    return total


def inversion_count_oracle(x: ExtAffElt) -> int:
    """Count inverted positive real affine roots directly, up to a level bound.

    Only levels below max |<lambda, alpha>| + 1 can change sign, so the finite
    sweep is exhaustive. Requires lambda in the coroot lattice.
    """
    rs = x.rs
    if not rs.in_coroot_lattice(x.lam):
        raise ValueError("inversion oracle needs a coroot-lattice translation")
    bound = max((abs(dot(x.lam, a)) for a in rs.pos_roots), default=0) + 1
    count = 0
    for gamma in rs.roots:
        start = 0 if is_positive_vec(gamma) else 1
        for level in range(start, bound + 1):
            if not aff_act_root(x, AffineRoot(gamma, level)).is_positive():
                count += 1
    return count


def is_waff_minus(x: ExtAffElt) -> bool:
    """Minimal length in its right W-coset: x(alpha_i) affine-positive for all i."""
    rs = x.rs
    for i in range(rs.rank):
        c = x.lam[i]
        if c > 0:
            return False
        if c == 0 and not is_positive_vec(x.w.images[i]):
            return False
    return True


def is_wpaff(x: ExtAffElt, p: ParabolicSet) -> bool:
    """<lambda, alpha> = 0 where w(alpha) > 0 and -1 where w(alpha) < 0, over R_P^+."""
    for alpha in p.rp_pos:
        target = 0 if is_positive_vec(x.w.act_root(alpha)) else -1
        if dot(x.lam, alpha) != target:
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


@lru_cache(maxsize=None)
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
    fi = rs.involution[i - 1]
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


def central_inv(z: CentralElt) -> CentralElt:
    if z.is_identity():
        return z
    tau, hat = hat_decompose(aff_inv(z.to_ext()))
    if not hat.is_identity():
        raise AssertionError("inverse of a central element has a non-identity hat part")
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


def reduced_word_affine(x: ExtAffElt) -> tuple[int, ...]:
    """Reduced word over letters 0..n (left-to-right composition), lambda in Q_vee."""
    rs = x.rs
    if not rs.in_coroot_lattice(x.lam):
        raise ValueError("affine reduced words need a coroot-lattice translation")
    rev: list[int] = []
    cur = x
    cur_len = aff_length(cur)
    while cur_len:
        i = next((i for i in range(rs.rank + 1)
                  if not aff_act_root(cur, rs.affine_simple(i)).is_positive()), None)
        if i is None:
            raise AssertionError("positive-length element without an affine descent")
        cur = aff_mul(cur, affine_simple_ext(rs, i))
        nxt_len = aff_length(cur)
        if nxt_len != cur_len - 1:
            raise AssertionError("affine descent did not drop the length by one")
        cur_len = nxt_len
        rev.append(i)
    if not cur.is_identity():
        raise AssertionError("length-zero non-extended element is not the identity")
    return tuple(reversed(rev))


def from_word_affine(rs: RootSystem, word) -> ExtAffElt:
    x = identity_aff(rs)
    for i in word:
        x = aff_mul(x, affine_simple_ext(rs, i))
    return x


# -- parabolic factorizations -------------------------------------------------


def _parabolic_coweight(p: ParabolicSet, coeffs) -> Vec:
    """sum c_k alpha_k_vee over the parabolic nodes, in coweight coordinates."""
    rs = p.rs
    m = [0] * rs.rank
    for k, c in zip(p.wp_nodes, coeffs):
        if c:
            row = rs.cartan[k - 1]
            for t in range(rs.rank):
                m[t] += c * row[t]
    return tuple(m)


def in_parabolic_aff(x: ExtAffElt, p: ParabolicSet) -> bool:
    """Membership in (W_P)_aff = W_P semidirect Q_vee_P."""
    if x.w not in _parabolic_set(p):
        return False
    if not x.rs.in_coroot_lattice(x.lam):
        return False
    c = x.rs.coroot_coords(x.lam)
    return all(c[i - 1] == 0 for i in p.nodes)


@lru_cache(maxsize=None)
def _parabolic_set(p: ParabolicSet) -> frozenset[WeylElt]:
    return frozenset(enumerate_parabolic_subgroup(p))


@lru_cache(maxsize=None)
def _candidate_systems(p: ParabolicSet) -> tuple:
    """Per u in W_P: (u, u^-1, rows u^-1(alpha_j) over j off I_P, adj, d).

    The k x k matrix <alpha_k_vee, u^-1(alpha_j)> pairs the parabolic coroots
    with the base u^-1(Delta_P) of R_P, so it is invertible; adj / d is its
    inverse, and each pi_P candidate solve is then one integer mat-vec.
    """
    rs = p.rs
    coroot_rows = [rs.cartan[j - 1] for j in p.wp_nodes]  # alpha_j_vee as coweights
    out = []
    for u in enumerate_parabolic_subgroup(p):
        rows = tuple(u.inv_act_root(rs.simple_root(j)) for j in p.wp_nodes)
        adj, d = int_inverse([[dot(c, r) for c in coroot_rows] for r in rows])
        out.append((u, w_inv(u), rows, adj, d))
    return tuple(out)


@lru_cache(maxsize=None)
def pi_P(x: ExtAffElt, p: ParabolicSet) -> ExtAffElt:
    """The (W^P)_aff factor of x = x1 * x2, x2 in (W_P)_aff, for x in W_aff.

    Per candidate u = finite part of x2, the translation shift in Q_vee_P is
    pinned by the simple-root constraints <u(lambda - mu), alpha_j> in {0, -1},
    an invertible integer system; the full membership conditions are then
    verified before returning. Existence failures raise: they would mean the
    factorization theory is violated, not bad input.
    """
    rs = x.rs
    if not rs.in_coroot_lattice(x.lam):
        raise ValueError("pi_P over W_aff needs a coroot-lattice translation; "
                         "use pi_P_ext for general coweights")
    lam = x.lam
    act = x.w.act_root
    for u, u_inv, rows, adj, d in _candidate_systems(p):
        # rhs_j = <lambda, r_j> - target_j, target_j = 0 if x.w(r_j) > 0 else -1
        rhs = [dot(lam, r) + (0 if is_positive_vec(act(r)) else 1) for r in rows]
        sol = mat_vec(adj, rhs)
        if any(c % d for c in sol):
            continue
        mu = _parabolic_coweight(p, (c // d for c in sol))
        x1 = ExtAffElt(w_mul(x.w, u_inv), u.act_coweight(vsub(lam, mu)))
        if not is_wpaff(x1, p):
            continue
        x2 = aff_mul(aff_inv(x1), x)
        if not in_parabolic_aff(x2, p):
            raise AssertionError("pi_P residual escaped (W_P)_aff")
        return x1
    raise AssertionError("no parabolic factorization found")


def pi_P_ext(x: ExtAffElt, p: ParabolicSet) -> ExtAffElt:
    """Extension tau * pi_P(hat(x)) to the extended group."""
    tau, hat = hat_decompose(x)
    return aff_mul(tau.to_ext(), pi_P(hat, p))


def eta_P(rs: RootSystem, m: Vec, p: ParabolicSet) -> Vec:
    """Coroot coordinates of a coroot-lattice coweight, restricted to the quantum nodes."""
    c = rs.coroot_coords(m)
    return tuple(c[i - 1] for i in p.nodes)


def is_antidominant(m: Vec) -> bool:
    return all(c <= 0 for c in m)


@lru_cache(maxsize=None)
def peterson_decompose(y: ExtAffElt, p: ParabolicSet) -> tuple[WeylElt, Vec]:
    """y = w * pi_P(t_nu) with w in W^P and nu antidominant in Q_vee.

    The Weyl part is unique; nu is unique exactly up to antidominant directions
    of Q_vee_P that pi_P cannot see, so the search asserts a single w and
    returns the deterministically smallest nu. Requires y in
    W_aff^- intersect (W^P)_aff.
    """
    rs = y.rs
    if not is_waff_minus(y):
        raise ValueError("peterson_decompose needs a minimal coset representative")
    if not is_wpaff(y, p):
        raise ValueError("peterson_decompose needs membership in (W^P)_aff")
    solutions: list[tuple[WeylElt, Vec]] = []
    for w in enumerate_minreps(rs, p):
        z = aff_mul(ext(w_inv(w)), y)
        if z.w not in _parabolic_set(p) or not is_wpaff(z, p):
            continue
        # t_nu = z * (z.w^-1 t_mu) demands nu = z.w(lambda_z) + mu, mu in Q_vee_P;
        # any antidominant hit makes pi_P(t_nu) = z by uniqueness of factorization.
        nu0 = z.w.act_coweight(z.lam)
        base = rs.coroot_coords(nu0)
        radius = max(3, max(abs(c) for c in base) + 2)
        for shift in itertools.product(range(-radius, radius + 1), repeat=len(p.wp_nodes)):
            nu = vadd(nu0, _parabolic_coweight(p, shift))
            if is_antidominant(nu):
                solutions.append((w, nu))
    if not solutions:
        raise AssertionError("no Peterson decomposition found in the search window")
    ws = {w for w, _ in solutions}
    if len(ws) != 1:
        raise AssertionError("Peterson decomposition found two distinct Weyl parts")
    etas = {eta_P(rs, nu, p) for _, nu in solutions}
    if len(etas) != 1:
        raise AssertionError("Peterson decomposition found two distinct eta classes")
    w = ws.pop()
    nu = min((nu for _, nu in solutions),
             key=lambda v: (sum(abs(c) for c in rs.coroot_coords(v)), v))
    if aff_mul(ext(w), pi_P(translation(rs, nu), p)) != y:
        raise AssertionError("Peterson decomposition does not recompose")
    return w, nu
