"""The affine nil Hecke ring of the extended affine Weyl group, in the A_x normal form.

Elements are finite sums  f A_x  with x in the extended affine Weyl group and f
an integer polynomial in the equivariant parameters on the left. Writing
x = h tau with tau central (length zero) and h in the affine Weyl group,
A_x = A_h tau; the key relations driving multiplication are

* A_i f = s_i(f) A_i + d_i(f), with d_i the divided difference (f - s_i f)/alpha_i,
  realized by the twisted Leibniz recursion so coefficients stay integral;
* A_i A_y = A_{s_i y} when the length goes up and 0 otherwise;
* tau f = tau(f) tau, with tau acting on scalars through its finite Weyl part
  (delta maps to zero on S, so translations act trivially there and the
  node-0 letters act through s_theta with alpha_0 read as -theta).

Every product is built one letter at a time: f A_h tau times an element
twists the element by tau and then applies A_i for each letter of a reduced
word of h, right to left. A letter acts on coefficients through rows memoised
per (i, monomial), the images s_i(w^e) and d_i(w^e). Whether it raises the
length of a key y is read in affine (left_ascent, by its sign rule). Group
elements embed through s_i = 1 - alpha_i A_i, applied the same way to tau; the
embedding is memoised per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .affine import (
    CentralElt,
    ExtAffElt,
    aff_length,
    aff_inv,
    aff_mul,
    affine_simple_ext,
    identity_aff,
    is_waff_minus,
    left_ascent,
    reduced_word_affine,
)
from .poly import SPoly, add_terms
from .rootsys import RootSystem, mat_vec
from .weyl import WeylElt

EXPANSION_CAP = 8


# -- scalar actions of the affine letters -------------------------------------


@lru_cache(maxsize=None)
def scalar_root(rs: RootSystem, i: int) -> SPoly:
    """alpha_i as a weight-lattice polynomial; the node 0 letter reads as -theta."""
    return SPoly.weight(mat_vec(rs.cartan, rs.affine_simple(i).finite))


@lru_cache(maxsize=None)
def _weight_images(w: WeylElt) -> tuple[SPoly, ...]:
    """w(varpi_k) for k = 1..n as linear polynomials."""
    n = w.rs.rank
    return tuple(SPoly.weight(w.act_weight(tuple(int(t == k) for t in range(n))))
                 for k in range(n))


def weyl_act_poly(w: WeylElt, f: SPoly) -> SPoly:
    """A finite Weyl element acting on S by its weight-lattice matrix."""
    return f.subst(list(_weight_images(w)))


@lru_cache(maxsize=None)
def _letter_rows(rs: RootSystem, i: int, e: tuple[int, ...]) -> tuple[dict, dict]:
    """The term dicts of s_i(w^e) and d_i(w^e) for one monomial w^e, i in 0..n.

    s_i acts by its weight images (s_0 as s_theta). d_i is the divided
    difference (f - s_i f)/alpha_i, by the twisted Leibniz recursion
    d_i(w_k g) = <w_k, alpha_i_vee> g + s_i(w_k) d_i(g), so the quotient is
    assembled without any polynomial division and integrality is structural;
    the tail d_i(g) is itself a row. Memoised per (i, monomial): the dicts are
    shared, so they are only read, never changed or kept in a result.
    """
    n = rs.rank
    s_i = affine_simple_ext(rs, i).w
    # len(e), not n: subst refuses a key of another length
    image = weyl_act_poly(s_i, SPoly._of(len(e), {e: 1})).terms
    k = next((t for t in range(n) if e[t]), None)
    if k is None:
        return image, {}
    rest = tuple(x - int(t == k) for t, x in enumerate(e))
    head = SPoly(n, {rest: rs.coroot_of(rs.affine_simple(i).finite)[k]})
    tail = _letter_rows(rs, i, rest)[1]
    diff = head + _weight_images(s_i)[k] * SPoly._of(n, tail) if tail else head
    return image, diff.terms


def _by_rows(rs: RootSystem, i: int, f: SPoly, side: int) -> SPoly:
    """The linear extension of one side of the letter rows to f."""
    return SPoly._of(rs.rank, add_terms(
        (m, c * d) for e, c in f.terms.items()
        for m, d in _letter_rows(rs, i, e)[side].items()))


def reflect_poly(rs: RootSystem, i: int, f: SPoly) -> SPoly:
    """s_i acting on S, i in 0..n (s_0 acts as s_theta)."""
    return _by_rows(rs, i, f, 0)


def central_act_poly(z: CentralElt, f: SPoly) -> SPoly:
    """Central elements act on S through their finite part (delta |-> 0)."""
    if z.node is None:
        return f
    return weyl_act_poly(z.to_ext().w, f)


def divdiff(rs: RootSystem, i: int, f: SPoly) -> SPoly:
    """Divided difference (f - s_i f)/alpha_i, read off the memoised rows."""
    return _by_rows(rs, i, f, 1)


# -- elements ------------------------------------------------------------------


@dataclass
class NilHeckeElt:
    """Finite map x -> f from the extended affine Weyl group to SPoly: sum f A_x.

    An element is never changed in place: embed_group hands one shared result
    to every caller of the same group element, and products share coefficients.
    """

    rs: RootSystem
    terms: dict[ExtAffElt, SPoly] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {k: v for k, v in self.terms.items() if v}

    def __eq__(self, other) -> bool:
        return (isinstance(other, NilHeckeElt) and self.rs is other.rs
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "NH(0)"
        bits = [f"({self.terms[x].to_text()})*A_{x!r}"
                for x in sorted(self.terms, key=aff_length)]
        return "NH[" + " + ".join(bits) + "]"


def nh_one(rs: RootSystem) -> NilHeckeElt:
    return NilHeckeElt(rs, {identity_aff(rs): SPoly.one(rs.rank)})


def nh_basis(x: ExtAffElt) -> NilHeckeElt:
    """The basis operator A_x."""
    return NilHeckeElt(x.rs, {x: SPoly.one(x.rs.rank)})


@lru_cache(maxsize=None)
def _split(x: ExtAffElt) -> tuple[tuple[int, ...], CentralElt]:
    """x = h tau with tau central: a reduced word of h = x tau^-1, and tau.

    Memoised per element; a refusal raises and is not cached.
    """
    tau = CentralElt(x.rs, x.rs.minuscule_class_node(x.lam))
    h = x if tau.node is None else aff_mul(x, aff_inv(tau.to_ext()))
    if aff_length(h) > EXPANSION_CAP:  # refused before any letter is peeled
        raise ValueError(f"nil Hecke expansion beyond length {EXPANSION_CAP}")
    return reduced_word_affine(h), tau


def _letter_times(rs: RootSystem, i: int,
                  terms: dict[ExtAffElt, SPoly]) -> dict[ExtAffElt, SPoly]:
    """A_i * sum g A_y = sum s_i(g) A_{s_i y} (where the length goes up) + d_i(g) A_y."""
    s_i = affine_simple_ext(rs, i)
    pairs = []
    for y, g in terms.items():
        if left_ascent(y, i):
            pairs.append((aff_mul(s_i, y), reflect_poly(rs, i, g)))
        pairs.append((y, divdiff(rs, i, g)))
    return add_terms(pairs)


def nh_mul(a: NilHeckeElt, b: NilHeckeElt) -> NilHeckeElt:
    """(f A_h tau) b = f A_h (tau b): twist b by tau, then apply the letters of h."""
    rs = a.rs
    if b.rs is not rs:
        raise ValueError("mixed root systems")
    one = SPoly.one(rs.rank)
    pairs = []
    for x, f in a.terms.items():
        word, tau = _split(x)
        terms = b.terms
        if tau.node is not None:
            # tau g A_y = tau(g) A_{tau y}, and y -> tau y is injective
            t = tau.to_ext()
            terms = {aff_mul(t, y): central_act_poly(tau, g) for y, g in terms.items()}
        for i in reversed(word):
            terms = _letter_times(rs, i, terms)
        # coefficients are shared, never changed in place; a basis operand
        # has the constant 1 on the left, which needs no product
        pairs.extend(terms.items() if f == one else
                     ((z, f * c) for z, c in terms.items()))
    return NilHeckeElt(rs, add_terms(pairs))


@lru_cache(maxsize=None)
def embed_group(x: ExtAffElt) -> NilHeckeElt:
    """Multiplicative inclusion of the extended affine Weyl group, s_i = 1 - alpha_i A_i.

    Memoised per element, so every caller of one x shares one result.
    """
    rs = x.rs
    word, tau = _split(x)
    terms = {tau.to_ext(): SPoly.one(rs.rank)}
    for i in reversed(word):
        minus_root = -scalar_root(rs, i)
        terms = add_terms(((y, minus_root * g) for y, g in
                           _letter_times(rs, i, terms).items()), terms)
    return NilHeckeElt(rs, terms)


def nh_mod_Jtilde(a: NilHeckeElt) -> NilHeckeElt:
    """Reduction modulo the annihilator of the fundamental class: keep minimal-coset keys."""
    return NilHeckeElt(a.rs, {x: v for x, v in a.terms.items() if is_waff_minus(x)})


# -- the homology module -------------------------------------------------------


def act_on_xi(x: ExtAffElt, v: NilHeckeElt) -> NilHeckeElt:
    """A_x acting basis-by-basis on a xi-vector: xi_y |-> xi_{xy} when lengths
    add and xy stays minimal.

    A xi-vector is a nil Hecke element keyed in W~_aff^-, as nh_mod_Jtilde
    returns. Extended S-linearly; the central twist falls on the operator
    scalar, which is 1 for a pure group basis element, so coefficients ride
    along unchanged.
    """
    if not all(map(is_waff_minus, v.terms)):
        raise ValueError("xi basis keys must be minimal coset representatives")
    lx = aff_length(x)
    out: dict[ExtAffElt, SPoly] = {}
    for y, c in v.terms.items():
        xy = aff_mul(x, y)
        if aff_length(xy) == lx + aff_length(y) and is_waff_minus(xy):
            out[xy] = c  # y -> xy is injective, so no key repeats
    return NilHeckeElt(x.rs, out)
