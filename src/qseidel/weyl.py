"""Finite Weyl groups as permutations of the root system.

A group element w is stored as the permutation `perm` of the indices of
`rs.roots`, with w(roots[k]) = roots[perm[k]]. Positive roots come first and
root k + N is -root k, N = |R^+|. This is the representation of CHEVIE/GAP
(Geck-Hiss-Luebeck-Malle-Pfeiffer 1996): it needs no enumeration of W, so
elements of E7 and E8 cost no more than those of D4.

* product:   (ab).perm[k] = a.perm[b.perm[k]], one tuple composition;
* inverse:   the inverse permutation;
* length:    the number of positive indices k < N with perm[k] >= N;
* descents:  s_j is a right descent of w iff perm[simple_index[j-1]] >= N;
* on roots:  an index lookup; act_root takes roots only.

The images of the simple roots under w and under w^-1 (the columns of the
root-lattice matrices) are read off perm; they carry the other actions:

* on coweights:  <w(lambda), alpha_i> = <lambda, w^-1(alpha_i)>
* on weights:    <w(mu), alpha_i_vee> = <mu, (w^-1(alpha_i))_vee>

Every reduced word in this module composes left to right (word [1, 2] means
s_1 s_2, apply s_2 first).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .rootsys import RootSystem, Vec, dot, mat_vec, strict_int

# Enumerations build at most this many root-permutation entries (elements
# times |R|): all of W up to B7/C7, D7, E6 and A8, but not B8, D8, E7 or E8.
ENUM_CAP = 2**26


class _lazy:
    """A read-once attribute: the first read runs the method and stores its
    value on the instance, which later reads find before this descriptor.

    functools.cached_property without the lock it takes on every first read
    under Python 3.11; values here are pure functions of immutable fields, so
    a race could only compute one twice.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


class WeylElt:
    """An element of W by its root permutation `perm` (see the module docstring).

    w_mul, w_inv, from_word and the reflections build elements directly from
    permutations (`_elt`). WeylElt(rs, images, inv_images) is kept for callers
    that hold the images of the simple roots under w and under w^-1 (the
    perfbench micro timing is the one left outside the tests): it refuses
    images that do not permute the roots, a root permutation outside W (a
    diagram automorphism) and inv_images that are not those of the inverse.
    Elements are never mutated: they key caches, and == and hash use
    (rs, perm); the hash is taken once, when the element is made.
    """

    def __init__(self, rs: RootSystem, images, inv_images):
        # w(root k) for k < N through the image matrix; root k + N is -root k
        rows = tuple(zip(*images))
        big = len(rs.pos_roots)
        pos = [rs.root_index.get(mat_vec(rows, r), -1) for r in rs.pos_roots]
        perm = tuple(pos) + tuple((k + big) % (2 * big) for k in pos)
        if -1 in pos or len(set(perm)) != len(perm):
            raise ValueError("images do not permute the roots")
        self.rs = rs
        self.perm = perm
        if _peel(self, range(1, rs.rank + 1))[0] != identity(rs).perm:
            raise ValueError("images permute the roots but are not in W")
        self._hash = hash((rs, perm))
        if self.inv_images != tuple(map(tuple, inv_images)):
            raise ValueError("inv_images are not the images of the inverse")

    @_lazy
    def images(self) -> tuple[Vec, ...]:
        """w(alpha_j) for j = 1..n."""
        roots, perm = self.rs.roots, self.perm
        return tuple(roots[perm[k]] for k in self.rs.simple_index)

    @_lazy
    def inv_images(self) -> tuple[Vec, ...]:
        """w^-1(alpha_j) for j = 1..n."""
        roots, perm = self.rs.roots, self.perm
        return tuple(roots[perm.index(k)] for k in self.rs.simple_index)

    def act_root(self, root: Vec) -> Vec:
        """w(root), an index lookup; ValueError when `root` is not a root."""
        rs = self.rs
        k = rs.root_index.get(root)
        if k is None:
            raise ValueError(f"not a root: {root}")
        return rs.roots[self.perm[k]]

    def act_coweight(self, m: Vec) -> Vec:
        return mat_vec(self.inv_images, m)

    def inv_act_coweight(self, m: Vec) -> Vec:
        return mat_vec(self.images, m)

    def act_weight(self, a: Vec) -> Vec:
        """Action on the weight lattice in fundamental-weight coordinates."""
        coroot_of = self.rs.coroot_of
        return tuple([dot(a, coroot_of(col)) for col in self.inv_images])

    @_lazy
    def length(self) -> int:
        rs = self.rs
        return len(rs.negative_indices.intersection(self.perm[:len(rs.pos_roots)]))

    def is_identity(self) -> bool:
        return self.perm == identity(self.rs).perm

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElt):
            return NotImplemented
        return self.perm == other.perm and self.rs is other.rs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        word = reduced_word(self)
        return "W[e]" if not word else "W[" + ".".join(map(str, word)) + "]"


def _elt(rs: RootSystem, perm: tuple[int, ...]) -> WeylElt:
    w = object.__new__(WeylElt)
    w.rs = rs
    w.perm = perm
    w._hash = hash((rs, perm))
    return w


@lru_cache(maxsize=None)
def identity(rs: RootSystem) -> WeylElt:
    return _elt(rs, tuple(range(len(rs.roots))))


# typed: True and 1.0 miss the entry of node 1 and are refused, never served it
@lru_cache(maxsize=None, typed=True)
def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    strict_int(i, "simple reflection index")
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple reflection index out of range: {i}")
    return reflection(rs, rs.simple_root(i))


@lru_cache(maxsize=None)
def reflection(rs: RootSystem, root: Vec) -> WeylElt:
    """The reflection s_alpha for any root alpha."""
    if root not in rs.root_index:
        raise ValueError(f"not a root: {root}")
    cw = rs.coroot_to_coweight(rs.coroot_of(root))  # alpha_vee as coweight
    perm = []
    for beta in rs.roots:
        # s_alpha(beta) = beta - <beta, alpha_vee> alpha
        c = dot(cw, beta)
        perm.append(rs.root_index[tuple(b - c * a for a, b in zip(root, beta))])
    return _elt(rs, tuple(perm))


@lru_cache(maxsize=None)
def _right_simple(rs: RootSystem) -> tuple[itemgetter, ...]:
    """Per node j, the map w.perm -> (w s_j).perm."""
    return tuple(itemgetter(*simple_reflection(rs, j).perm) for j in range(1, rs.rank + 1))


def w_mul(a: WeylElt, b: WeylElt) -> WeylElt:
    if a.rs is not b.rs:
        raise ValueError("mixed root systems")
    return _elt(a.rs, itemgetter(*b.perm)(a.perm))


def w_inv(a: WeylElt) -> WeylElt:
    inv = [0] * len(a.perm)
    for k, img in enumerate(a.perm):
        inv[img] = k
    return _elt(a.rs, tuple(inv))


def from_word(rs: RootSystem, word) -> WeylElt:
    """s_i1 s_i2 ... for word [i1, i2, ...]: one right map per letter on the
    raw permutation, one element per word. Letters are ints in 1..rank."""
    right, rank = _right_simple(rs), rs.rank
    perm = identity(rs).perm
    for i in word:
        if type(i) is not int or not 1 <= i <= rank:
            simple_reflection(rs, i)  # raises the ValueError naming the letter
        perm = right[i - 1](perm)
    return _elt(rs, perm)


def _peel(w: WeylElt, nodes) -> tuple[tuple[int, ...], list[int]]:
    """Right-descent peeling over `nodes`: (perm of w s_j1 s_j2 ..., [j1, j2, ...]).

    Each step takes the first node of `nodes` that is a right descent of the
    current element, until none is left.
    """
    rs = w.rs
    big = len(rs.pos_roots)
    simple = rs.simple_index
    right = _right_simple(rs)
    perm = w.perm
    letters: list[int] = []
    while True:
        for j in nodes:
            if perm[simple[j - 1]] >= big:
                break
        else:
            return perm, letters
        perm = right[j - 1](perm)
        letters.append(j)


@lru_cache(maxsize=None)
def reduced_word(w: WeylElt) -> tuple[int, ...]:
    """Lexicographically smallest-at-each-peel reduced word, right descent peeling."""
    perm, letters = _peel(w, range(1, w.rs.rank + 1))
    if perm != identity(w.rs).perm:
        raise AssertionError("descent peeling stalled off the identity")
    return tuple(reversed(letters))


def height_product(roots) -> int:
    """prod (ht alpha + 1) / ht alpha over the positive roots given.

    Over R^+ this is |W| (Macdonald 1972); over R_P^+ it is |W_P|, and over
    R^+ minus R_P^+ it is |W^P| = |W| / |W_P|.
    """
    num = den = 1
    for r in roots:
        num *= sum(r) + 1
        den *= sum(r)
    return num // den


def _closure(rs: RootSystem, roots) -> tuple[WeylElt, ...]:
    """The elements reached from e by left multiplication by simple reflections,
    where s_j w is kept when w^-1(alpha_j) lies in `roots`; in length order,
    each length sorted by reduced word.

    With roots R^+ this is W, with R_P^+ it is W_P, and with R^+ minus R_P^+
    it is W^P: the step adds one to the length and stays in the set, and every
    nontrivial element of the set has a left descent whose removal stays in it
    (Bjorner-Brenti ch. 2). The set has height_product(roots) elements; it is
    refused before any is built when it would take more than ENUM_CAP
    root-permutation entries.
    """
    size = height_product(roots)
    if size * len(rs.roots) > ENUM_CAP:
        raise ValueError(f"{size} elements of W({rs.name()}) exceed the enumeration "
                         f"cap of {ENUM_CAP} root-permutation entries")
    keep = {rs.root_index[r] for r in roots}
    left = [(k, simple_reflection(rs, j).perm) for j, k in enumerate(rs.simple_index, 1)]
    level = [identity(rs)]
    order = list(level)
    while level:
        nxt = dict.fromkeys(itemgetter(*w.perm)(s) for w in level
                            for k, s in left if w.perm.index(k) in keep)
        level = sorted((_elt(rs, perm) for perm in nxt), key=reduced_word)
        order.extend(level)
    if len(order) != size:
        raise AssertionError("enumeration size differs from the height product")
    return tuple(order)


@lru_cache(maxsize=None)
def enumerate_weyl(rs: RootSystem) -> tuple[WeylElt, ...]:
    """All of W in length order."""
    return _closure(rs, rs.pos_roots)


def longest_element(rs: RootSystem) -> WeylElt:
    """The longest element w0, by right multiplication with s_j while some s_j
    is a right ascent (perm[simple_index[j-1]] < N): each step adds one to the
    length, and w0 is the only element with no right ascent.
    """
    big = len(rs.pos_roots)
    right = _right_simple(rs)
    perm = identity(rs).perm
    while True:
        j = next((j for j, k in enumerate(rs.simple_index) if perm[k] < big), None)
        if j is None:
            return _elt(rs, perm)
        perm = right[j](perm)


@lru_cache(maxsize=None)
def involution(rs: RootSystem) -> tuple[int, ...]:
    """f with alpha_f(i) = -w0(alpha_i), read off w0's root permutation:
    w0.perm[simple_index[i-1]] = simple_index[f(i)-1] + N."""
    w0, big = longest_element(rs), len(rs.pos_roots)
    return tuple(rs.simple_index.index(w0.perm[k] - big) + 1 for k in rs.simple_index)


@dataclass(frozen=True)
class ParabolicSet:
    """A choice of quantum nodes I_P; W_P is generated by the complement.
    The one home of the node rules: any iterable of distinct ints in 1..rank,
    non-empty (P = G is degenerate), stored sorted so one set is one value."""

    rs: RootSystem
    nodes: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.nodes, Iterable):
            raise ValueError(f"parabolic nodes must be a list of integers, got {self.nodes!r}")
        # True would hash equal to node 1 and share its memo entries
        given = [strict_int(i, "parabolic node") for i in self.nodes]
        nodes = tuple(sorted(given))
        if not nodes:
            raise ValueError("parabolic nodes must be non-empty, got []")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"parabolic nodes must be distinct, got {given}")
        if not 1 <= nodes[0] <= nodes[-1] <= self.rs.rank:
            raise ValueError(f"parabolic nodes must lie in 1..{self.rs.rank} "
                             f"for {self.rs.name()}, got {given}")
        object.__setattr__(self, "nodes", nodes)
        # The dataclass hash, taken once: parabolic sets key the element caches.
        object.__setattr__(self, "_hash", hash((self.rs, self.nodes)))

    def __hash__(self) -> int:
        return self._hash

    @_lazy
    def wp_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.rs.rank + 1) if i not in self.nodes)

    @_lazy
    def wp_index(self) -> tuple[int, ...]:
        """Indices in rs.roots of the simple roots of W_P."""
        return tuple(self.rs.simple_index[j - 1] for j in self.wp_nodes)

    @_lazy
    def rp_pos(self) -> tuple[Vec, ...]:
        """Positive roots of the parabolic subsystem (support off the quantum nodes)."""
        return tuple(r for r in self.rs.pos_roots
                     if all(r[i - 1] == 0 for i in self.nodes))

    @_lazy
    def rp_index(self) -> tuple[int, ...]:
        """Indices of rp_pos in rs.roots."""
        return tuple(self.rs.root_index[r] for r in self.rp_pos)

    def __repr__(self) -> str:
        return f"ParabolicSet({self.rs.name()}, {list(self.nodes)})"


def parabolic(rs: RootSystem, nodes) -> ParabolicSet:
    """The parabolic set with quantum nodes `nodes`; ParabolicSet checks them."""
    return ParabolicSet(rs, nodes)


def is_minrep(w: WeylElt, p: ParabolicSet) -> bool:
    perm, big = w.perm, len(w.rs.pos_roots)
    return all(perm[k] < big for k in p.wp_index)


@lru_cache(maxsize=None)
def coset_reduce(w: WeylElt, p: ParabolicSet) -> WeylElt:
    """The minimal element wP of w*W_P; w = wP * u with u in W_P, lengths additive."""
    if w.rs is not p.rs:
        raise ValueError("mixed root systems")
    perm, letters = _peel(w, p.wp_nodes)
    if not letters:
        return w
    cur = _elt(w.rs, perm)
    if cur.length + len(letters) != w.length:
        raise AssertionError("coset reduction lost length additivity")
    return cur


def enumerate_parabolic_subgroup(p: ParabolicSet) -> tuple[WeylElt, ...]:
    """Elements of W_P in length order."""
    return _closure(p.rs, p.rp_pos)


@lru_cache(maxsize=None)
def enumerate_minreps(rs: RootSystem, p: ParabolicSet) -> tuple[WeylElt, ...]:
    """Minimal coset representatives W^P in length order."""
    if p.rs is not rs:
        raise ValueError("mixed root systems")
    return _closure(rs, [r for r in rs.pos_roots if r not in p.rp_pos])


@lru_cache(maxsize=None)
def v_element(rs: RootSystem, i: int) -> WeylElt:
    """v_i = w0 * w0^{P_i} for a minuscule node i, read as the coset reduction
    of w0 modulo W_{P_i}: w0 = v_i * w0^{P_i} with lengths adding.

    Sends varpi_i_vee where w0 sends it, and is the minimal coset representative
    of its class modulo the stabilizer of varpi_i_vee, hence the unique
    minimal-length element with that action.
    """
    if i not in rs.minuscule_nodes:
        raise ValueError(f"node {i} is not minuscule in {rs.name()}")
    w0 = longest_element(rs)
    p = parabolic(rs, (i,))
    v = coset_reduce(w0, p)
    cw = rs.fund_coweight(i)
    if v.act_coweight(cw) != w0.act_coweight(cw):
        raise AssertionError("v element does not track w0 on the fundamental coweight")
    if not is_minrep(v, p):
        raise AssertionError("v element is not a minimal coset representative")
    return v
