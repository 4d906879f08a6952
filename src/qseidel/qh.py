"""Quantum cohomology classes of G/P and the operators acting on them.

A class is a finite sum of terms (w, q-exponents) with polynomial coefficients,
w a minimal coset representative and one quantum exponent per quantum node.
Two families of operators are exposed:

* seidel_multiply(i, -): exact multiplication by the class of v_i; a single
  term maps to a single term, with quantum exponent the quantum-node part of
  varpi_i_vee - w^-1(varpi_i_vee);
* chevalley_multiply(j, -): multiplication by the degree-two class sigma(s_j),
  the classical/quantum two-part sum over roots outside the parabolic, with an
  optional equivariant diagonal term (w_j - w(w_j)) sigma(w).

No general product of two arbitrary classes is exposed; everything the package
verifies is reachable through these operators plus the Peterson dictionary
psi_P, which reads a quantum class off an affine Schubert class via
peterson_decompose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .affine import (
    CentralElt,
    ExtAffElt,
    central_elements,
    eta_P,
    is_antidominant,
    peterson_decompose,
)
from .poly import SPoly, add_terms
from .rootsys import (
    RootSystem,
    Vec,
    build_root_system,
    dot,
    strict_ints,
    strict_keys,
    vadd,
    vsub,
)
from .weyl import (
    ParabolicSet,
    WeylElt,
    coset_reduce,
    enumerate_minreps,
    from_word,
    identity,
    involution,
    is_minrep,
    parabolic,
    reduced_word,
    reflection,
    v_element,
    w_mul,
)

QKey = tuple[WeylElt, Vec]


@dataclass
class QHClass:
    p: ParabolicSet
    terms: dict[QKey, SPoly] = field(default_factory=dict)

    def __post_init__(self):
        for w, d in self.terms:
            if w.rs is not self.p.rs:
                raise ValueError("mixed root systems")
            if not is_minrep(w, self.p):
                raise ValueError("class keys must be minimal coset representatives")
            if len(d) != len(self.p.nodes):
                raise ValueError("quantum exponent has wrong arity")
        self.terms = {k: v for k, v in self.terms.items() if v}

    @classmethod
    def _of(cls, p: ParabolicSet, terms: dict) -> "QHClass":
        """Wrap `terms` as they are: a zero-free dict keyed by minimal
        representatives with one exponent per quantum node, such as add_terms
        returns over keys an operator produced. Nothing is checked."""
        c = object.__new__(cls)
        c.p = p
        c.terms = terms
        return c

    @property
    def rs(self) -> RootSystem:
        return self.p.rs

    def __eq__(self, other) -> bool:
        return (isinstance(other, QHClass) and self.p == other.p
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_keys(self) -> list[QKey]:
        if len(self.terms) < 2:
            return list(self.terms)
        return sorted(self.terms, key=lambda k: (k[1], reduced_word(k[0])))

    def __repr__(self) -> str:
        return f"QH[{qh_text(self)}]"


def unit_class(p: ParabolicSet) -> QHClass:
    return sigma(p, identity(p.rs))


def sigma(p: ParabolicSet, w: WeylElt, q: Vec | None = None,
          coeff: SPoly | int = 1) -> QHClass:
    """The class of w, coset-reduced if needed, with optional exponent and coefficient."""
    wp = coset_reduce(w, p)
    if q is None:
        q = (0,) * len(p.nodes)
    if isinstance(coeff, int):
        coeff = SPoly.const(p.rs.rank, coeff)
    return QHClass(p, {(wp, tuple(q)): coeff})


def qh_add(a: QHClass, b: QHClass) -> QHClass:
    if a.p != b.p:
        raise ValueError("mixed parabolic contexts")
    return QHClass(a.p, add_terms(b.terms.items(), a.terms))


def qh_sub(a: QHClass, b: QHClass) -> QHClass:
    return qh_add(a, qh_scale(b, -1))


def qh_scale(a: QHClass, c: SPoly | int) -> QHClass:
    return QHClass(a.p, {k: v * c for k, v in a.terms.items()})


def q_shift(a: QHClass, d: Vec) -> QHClass:
    """Multiply by the quantum monomial with exponent d (entries may be negative)."""
    return QHClass(a.p, {(w, vadd(e, tuple(d))): v for (w, e), v in a.terms.items()})


# -- Seidel operators ----------------------------------------------------------


@lru_cache(maxsize=None)
def _seidel_term(i: int, w: WeylElt, p: ParabolicSet) -> QKey:
    """Where seidel_multiply(i, -) sends sigma(w): the Weyl part (v_i w)^P and
    the q-shift eta_P(varpi_i_vee - w^-1(varpi_i_vee)). Memoised per (i, w, P),
    so an operator is worked out once per element of W^P it reaches."""
    rs = p.rs
    cw = rs.fund_coweight(i)
    diff = vsub(cw, w.inv_act_coweight(cw))  # in the coroot lattice
    return coset_reduce(w_mul(v_element(rs, i), w), p), eta_P(diff, p)


def seidel_multiply(i: int, c: QHClass) -> QHClass:
    """Exact multiplication by the class of v_i for a minuscule node i."""
    p = c.p
    rs = p.rs
    if i not in rs.minuscule_nodes:
        raise ValueError(f"node {i} is not minuscule in {rs.name()}")
    pairs = []
    for (w, d), coeff in c.terms.items():
        w2, e = _seidel_term(i, w, p)
        pairs.append(((w2, vadd(d, e)), coeff))
    return QHClass._of(p, add_terms(pairs))


def seidel_table(p: ParabolicSet) -> list[tuple[CentralElt, WeylElt, QHClass]]:
    """(z, w, seidel_apply(z, sigma(p, w))) for every central z and w in W^P,
    each product read as one term off the memoised Seidel operator."""
    rs = p.rs
    f = involution(rs)
    zero = (0,) * len(p.nodes)
    one = SPoly.one(rs.rank)
    rows = []
    for z in central_elements(rs):
        for w in enumerate_minreps(rs, p):
            key = (w, zero) if z.is_identity() else _seidel_term(f[z.node - 1], w, p)
            rows.append((z, w, QHClass._of(p, {key: one})))
    return rows


def seidel_element(z: CentralElt, p: ParabolicSet) -> QHClass:
    """The image of a central element: the class of v_{f(i)} (the unit for identity)."""
    if z.is_identity():
        return unit_class(p)
    rs = p.rs
    return sigma(p, v_element(rs, involution(rs)[z.node - 1]))


def seidel_apply(z: CentralElt, c: QHClass) -> QHClass:
    """Multiply by seidel_element(z), i.e. the v_{f(i)} operator."""
    if z.is_identity():
        return c
    return seidel_multiply(involution(z.rs)[z.node - 1], c)


def seidel_orbit(i: int, p: ParabolicSet) -> tuple[list[QHClass], Vec]:
    """Iterate seidel_multiply(i, -) on the unit class until the Weyl part returns
    to the identity; returns the classes after each step and the closure exponent."""
    rs = p.rs
    steps: list[QHClass] = []
    cur = unit_class(p)
    for _ in range(len(rs.roots) + 2):
        cur = seidel_multiply(i, cur)
        steps.append(cur)
        ((w, d),) = cur.terms.keys()
        if w.is_identity():
            return steps, d
    raise AssertionError("Seidel orbit did not close")


# -- Chevalley operators -------------------------------------------------------


@lru_cache(maxsize=None)
def _chevalley_data(p: ParabolicSet):
    """Per root alpha outside the parabolic: (s_alpha, coroot, n_alpha, eta_P(alpha_vee))."""
    rs = p.rs
    rp = set(p.rp_pos)
    outside = [a for a in rs.pos_roots if a not in rp]
    data = []
    for alpha in outside:
        cv = rs.coroot_of(alpha)
        mcw = rs.coroot_to_coweight(cv)
        n_alpha = sum(dot(mcw, beta) for beta in outside)
        eta = tuple(cv[i - 1] for i in p.nodes)
        data.append((reflection(rs, alpha), cv, n_alpha, eta))
    return tuple(data)


@lru_cache(maxsize=None)
def _chevalley_row(j: int, w: WeylElt, p: ParabolicSet):
    """(row, diag) for D_j sigma(w). row holds the non-equivariant terms
    (w', q-shift, multiplicity): w s_alpha with a zero shift when it lies in
    W^P one step up, and (w s_alpha)^P with shift eta_P(alpha_vee) when its
    length drops by n_alpha - 1. diag is the equivariant diagonal coefficient
    w_j - w(w_j), one linear SPoly (zero when w fixes w_j). Memoised per
    (j, w, P), so an operator is worked out once per element of W^P it
    reaches, and plain and equivariant calls share the entry. The Weyl part
    is the object coset_reduce returns in both branches, shared with its
    cache."""
    zero = (0,) * len(p.nodes)
    lw = w.length
    row = []
    for s_alpha, cv, n_alpha, eta in _chevalley_data(p):
        mult = cv[j - 1]  # <w_j, alpha_vee>
        if not mult:
            continue
        w2 = w_mul(w, s_alpha)
        w2p = coset_reduce(w2, p)
        if w2.length == lw + 1 and is_minrep(w2, p):
            row.append((w2p, zero, mult))
        if w2p.length == lw + 1 - n_alpha:
            row.append((w2p, eta, mult))
    # <w(w_j), alpha_k_vee> = <w_j, w^-1(alpha_k)_vee>: the j-th coroot
    # coordinate of w^-1(alpha_k)
    coroot_of = p.rs.coroot_of
    wj = (0,) * (j - 1) + (1,) + (0,) * (p.rs.rank - j)
    return tuple(row), SPoly.weight(vsub(wj, [coroot_of(col)[j - 1] for col in w.inv_images]))


def chevalley_multiply(j: int, c: QHClass, equivariant: bool = False) -> QHClass:
    """Multiplication by sigma(s_j) for a quantum node j, by the two-part root sum."""
    p = c.p
    if j not in p.nodes:
        raise ValueError(f"node {j} is not a quantum node of {p!r}")
    return QHClass._of(p, add_terms(_chevalley_terms(j, c, equivariant)))


def _chevalley_terms(j: int, c: QHClass, equivariant: bool):
    """The (key, coefficient) terms of chevalley_multiply, repeats not yet summed."""
    p = c.p
    for (w, d), coeff in c.terms.items():
        row, diag = _chevalley_row(j, w, p)
        for w2, e, m in row:
            # results share coefficients, as in seidel_multiply: nothing
            # changes an SPoly in place
            yield (w2, vadd(d, e)), coeff if m == 1 else coeff * m
        if equivariant and diag:
            yield (w, d), coeff * diag


# -- the Peterson dictionary ---------------------------------------------------


def psi_P(y: ExtAffElt, mu: Vec, p: ParabolicSet) -> QHClass:
    """Class of xi_y relative to the reference xi_{pi_P(t_mu)}: q^{eta_P(nu-mu)} sigma(w).

    y must lie in W_aff^- intersect (W^P)_aff and mu must be an antidominant
    coroot-lattice coweight; (w, nu) is the Peterson decomposition of y,
    which checks y on every miss (a memo hit means y was checked before).
    """
    rs = y.rs
    if not is_antidominant(mu):
        raise ValueError("reference coweight must be antidominant")
    if not rs.in_coroot_lattice(mu):
        raise ValueError("reference coweight must be in the coroot lattice")
    w, nu = peterson_decompose(y, p)
    d = eta_P(vsub(nu, tuple(mu)), p)
    return QHClass._of(p, {(w, d): SPoly.one(rs.rank)})


# -- rendering -----------------------------------------------------------------


def word_text(w: WeylElt) -> str:
    """A reduced word of w as s[i.j...], or 1 for the identity."""
    word = reduced_word(w)
    return "s[" + ".".join(map(str, word)) + "]" if word else "1"


def q_text(p: ParabolicSet, d: Vec) -> str:
    bits = []
    for node, e in zip(p.nodes, d):
        if e == 1:
            bits.append(f"q{node}")
        elif e:
            bits.append(f"q{node}^{e}")
    return " ".join(bits)


def qh_text(c: QHClass) -> str:
    if not c.terms:
        return "0"
    one = {(0,) * c.rs.rank: 1}
    bits = []
    for w, d in c.sorted_keys():
        coeff = c.terms[(w, d)]
        parts = []
        if coeff.terms != one:
            t = coeff.to_text()
            parts.append(f"({t})" if (len(coeff.terms) > 1 or coeff.degree() > 0) else t)
        qt = q_text(c.p, d)
        if qt:
            parts.append(qt)
        parts.append(word_text(w))
        bits.append("*".join(parts))
    return " + ".join(bits)


def qh_to_json(c: QHClass) -> dict:
    return {
        "type": c.rs.name(),
        "parabolic": list(c.p.nodes),
        "terms": [
            {"w": list(reduced_word(w)), "q": list(d),
             "coeff": c.terms[(w, d)].to_json()}
            for w, d in c.sorted_keys()
        ],
    }


def qh_from_json(data: dict) -> QHClass:
    strict_keys(data, ("type", "parabolic", "terms"), "class")
    if not isinstance(data["type"], str):
        raise ValueError(f"type must be a string, got {data['type']!r}")
    rs = build_root_system(data["type"])
    p = parabolic(rs, strict_ints(data["parabolic"], "parabolic"))
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list) or not all(isinstance(t, dict) for t in raw_terms):
        raise ValueError("terms must be a list of objects")
    pairs = []
    for t in raw_terms:
        strict_keys(t, ("w", "q", "coeff"), "term")
        w = from_word(rs, strict_ints(t["w"], "w"))
        if not is_minrep(w, p):
            raise ValueError("term Weyl part is not a minimal coset representative")
        q = strict_ints(t["q"], "q")
        if len(q) != len(p.nodes):
            raise ValueError("q needs one exponent per quantum node")
        raw = t.get("coeff")
        if raw is not None and not isinstance(raw, dict):
            raise ValueError(f"coeff must be an object, got {raw!r}")
        coeff = SPoly.from_json(rs.rank, raw) if raw is not None else SPoly.one(rs.rank)
        pairs.append(((w, q), coeff))
    return QHClass(p, add_terms(pairs))
