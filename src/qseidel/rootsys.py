"""Finite root systems in simple-root coordinates, with exact integer arithmetic.

Everything downstream (Weyl matrices, affine translations, quantum exponents)
is bookkeeping over a handful of integer lattices attached to a Cartan matrix:

* roots live in the root lattice and are stored as tuples of simple-root
  coordinates;
* coroots are stored as tuples of simple-coroot coordinates, carried along
  during root generation so that alpha -> alpha_vee never needs a symmetrizer;
* coweights are stored as tuples of fundamental-coweight coordinates, i.e.
  lambda = sum m_i varpi_i_vee with m_i = <lambda, alpha_i>, so the pairing of
  a coweight against a root is a plain dot product.

Simple roots are numbered 1..n following Bourbaki (see README for the table).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub
from typing import Optional

Vec = tuple[int, ...]

# Valid (letter, rank) pairs up to the supported rank bound.
MAX_RANK = 8
_VALID_RANKS = {
    "A": range(1, MAX_RANK + 1),
    "B": range(2, MAX_RANK + 1),
    "C": range(2, MAX_RANK + 1),
    "D": range(4, MAX_RANK + 1),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}

# Default working catalog: every acceptance sweep runs over these.
CATALOG = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4")


def dot(u: Vec, v: Vec) -> int:
    return sum(map(mul, u, v))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def strict_int(value, what: str) -> int:
    """value itself if it is an int; ValueError for bool, float, str and the rest.

    Lattice tests are `x % d`, which a float passes or fails silently, so
    every integer read from outside the program goes through here.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def strict_ints(values, what: str) -> Vec:
    """A JSON list of integers as a tuple; ValueError for anything else."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return tuple(strict_int(v, what) for v in values)


def strict_keys(data: dict, allowed, what: str) -> None:
    """ValueError for the first key of a JSON object outside `allowed`."""
    for k in data:
        if k not in allowed:
            raise ValueError(f"unknown {what} key {k!r}")


def is_positive_vec(u: Vec) -> bool:
    """Sign of a root vector: roots have all coordinates >= 0 or all <= 0."""
    return max(u, default=0) > 0


def _bourbaki_edges(letter: str, n: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, a_ij, a_ji) of the Dynkin diagram, a_ij = <alpha_j, alpha_i_vee>."""
    chain = [(i, i + 1, -1, -1) for i in range(1, n)]
    if letter == "A":
        return chain
    if letter == "B":
        # alpha_n short: <alpha_n, alpha_{n-1}_vee> = -1, <alpha_{n-1}, alpha_n_vee> = -2
        return chain[:-1] + [(n - 1, n, -1, -2)]
    if letter == "C":
        # alpha_n long
        return chain[:-1] + [(n - 1, n, -2, -1)]
    if letter == "D":
        return chain[:-1] + [(n - 2, n, -1, -1)]
    if letter == "E":
        # Bourbaki: chain 1-3-4-...-n with node 2 hanging off node 4
        edges = [(1, 3, -1, -1), (2, 4, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(3, n)]
        return edges
    if letter == "F":
        return [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    if letter == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1_vee> = -3
        return [(1, 2, -3, -1)]
    raise AssertionError(letter)


def cartan_matrix(letter: str, n: int) -> tuple[Vec, ...]:
    """Rows A[i] with A[i][j] = <alpha_j, alpha_i_vee> (1-based i, j in math)."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j, aij, aji in _bourbaki_edges(letter, n):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return tuple(tuple(row) for row in a)


def int_inverse(mat) -> tuple[tuple[Vec, ...], int]:
    """(adj, d) with d > 0 and mat^-1 = adj / d, by fraction-free elimination.

    Bareiss' Gauss-Jordan form: each row update is divided exactly by the
    previous pivot, so every entry stays an integer minor and the left block
    ends as det * I. The pair is reduced by the gcd of all its entries.
    Raises ValueError on a singular matrix.
    """
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], pivot_row)]
        prev = p
    sign = 1 if prev > 0 else -1
    g = gcd(prev, *(x for row in aug for x in row[n:]))
    adj = tuple(tuple(sign * x // g for x in row[n:]) for row in aug)
    return adj, abs(prev) // g


def mat_vec(mat, v: Vec) -> Vec:
    """The integer product mat . v, for a matrix given by its rows."""
    return tuple([sum(map(mul, row, v)) for row in mat])


class AffineRoot:
    """Real affine root alpha + n*delta with finite part a root and integer level n.

    Never mutated; == and hash use (finite, level).
    """

    __slots__ = ("finite", "level")

    def __init__(self, finite: Vec, level: int):
        self.finite = finite
        self.level = level

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineRoot):
            return NotImplemented
        return self.level == other.level and self.finite == other.finite

    def __hash__(self) -> int:
        return hash((self.finite, self.level))

    def __repr__(self) -> str:
        return f"AffineRoot(finite={self.finite!r}, level={self.level!r})"


class RootSystem:
    """Immutable container for one simple type; build via build_root_system()."""

    def __init__(self, letter: str, rank: int):
        if letter not in _VALID_RANKS or rank not in _VALID_RANKS[letter]:
            raise ValueError(f"not a valid simple type: {letter}{rank}")
        self.letter = letter
        self.rank = rank
        self.cartan = cartan_matrix(letter, rank)
        # Cartan^T maps coroot to coweight coordinates, and its inverse
        # adj / denom maps them back.
        self._cartan_t: tuple[Vec, ...] = tuple(zip(*self.cartan))
        self._adj, self._denom = int_inverse(self._cartan_t)
        self._generate_roots()
        self._find_theta()
        self._find_minuscule()
        self._central_class_table()

    # -- construction ---------------------------------------------------

    def _generate_roots(self) -> None:
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        # Pairs (root, coroot); reflecting a root reflects its coroot, so the
        # coroot of every root comes out of the same closure for free.
        known: dict[Vec, Vec] = {simple[i]: simple[i] for i in range(n)}
        frontier = list(known)
        while frontier:
            nxt = []
            for r in frontier:
                c = known[r]
                for i in range(n):
                    # s_i(r) = r - <r, alpha_i_vee> alpha_i
                    k = dot(self.cartan[i], r)
                    r2 = tuple(x - k * int(j == i) for j, x in enumerate(r))
                    # s_i(c) = c - <c_as_coroot, alpha_i> e_i
                    k2 = dot(self._cartan_t[i], c)
                    c2 = tuple(x - k2 * int(j == i) for j, x in enumerate(c))
                    if r2 not in known:
                        known[r2] = c2
                        nxt.append(r2)
            frontier = nxt
        pos = sorted((r for r in known if is_positive_vec(r)), key=lambda r: (sum(r), r))
        self.pos_roots: tuple[Vec, ...] = tuple(pos)
        self.roots: tuple[Vec, ...] = tuple(pos) + tuple(vneg(r) for r in pos)
        self.root_set = frozenset(self.roots)
        # Root k + N is -root k (N = |R^+|); Weyl elements permute these indices.
        self.root_index: dict[Vec, int] = {r: k for k, r in enumerate(self.roots)}
        self.simple_index: tuple[int, ...] = tuple(self.root_index[r] for r in simple)
        self.negative_indices = frozenset(range(len(pos), len(self.roots)))
        self._coroot = {r: known[r] for r in self.roots}
        if len(self.roots) != 2 * len(self.pos_roots):
            raise AssertionError("root closure produced asymmetric sign sets")

    def _find_theta(self) -> None:
        cands = [r for r in self.pos_roots
                 if all(all(x >= 0 for x in vsub(r, s)) for s in self.pos_roots)]
        if len(cands) != 1:
            raise AssertionError("highest root is not unique")
        self.theta: Vec = cands[0]
        self.theta_coroot: Vec = self._coroot[self.theta]

    def _find_minuscule(self) -> None:
        n = self.rank
        by_theta = tuple(i + 1 for i in range(n) if self.theta[i] == 1)
        # Cross-check: i is minuscule iff every positive root has i-coordinate 0 or 1.
        by_pairing = tuple(i + 1 for i in range(n)
                           if all(r[i] in (0, 1) for r in self.pos_roots))
        if by_theta != by_pairing:
            raise AssertionError("minuscule characterizations disagree")
        self.minuscule_nodes: tuple[int, ...] = by_theta

    def _central_class_table(self) -> None:
        """Map each nontrivial coset of the coweight lattice mod Q_vee to its minuscule node."""
        table: dict[Vec, int] = {}
        for i in self.minuscule_nodes:
            m = tuple(-int(k == i - 1) for k in range(self.rank))  # -varpi_i_vee
            table[self.coweight_class(m)] = i
        self._class_to_minuscule = table

    # -- lattice arithmetic ----------------------------------------------

    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    def coroot_of(self, root: Vec) -> Vec:
        return self._coroot[root]

    def simple_root(self, i: int) -> Vec:
        return tuple(int(k == i - 1) for k in range(self.rank))

    def fund_coweight(self, i: int) -> Vec:
        return tuple(int(k == i - 1) for k in range(self.rank))

    def coroot_to_coweight(self, c: Vec) -> Vec:
        """Coroot coordinates -> fundamental-coweight coordinates (transpose Cartan)."""
        return mat_vec(self._cartan_t, c)

    def _scaled_coroot(self, m: Vec) -> Vec:
        """d * (coroot coordinates of m), an integer vector."""
        return mat_vec(self._adj, m)

    def coweight_to_coroot(self, m: Vec) -> tuple[Fraction, ...]:
        """Rational coroot coordinates of any coweight (a view; not used internally)."""
        return tuple(Fraction(x, self._denom) for x in self._scaled_coroot(m))

    def in_coroot_lattice(self, m: Vec) -> bool:
        d = self._denom
        return all(x % d == 0 for x in self._scaled_coroot(m))

    def coroot_coords(self, m: Vec) -> Vec:
        d = self._denom
        c = self._scaled_coroot(m)
        if any(x % d for x in c):
            raise ValueError("coweight is not in the coroot lattice")
        return tuple(x // d for x in c)

    def coweight_class(self, m: Vec) -> Vec:
        """Residue of a coweight modulo the coroot lattice: adj * m mod d."""
        d = self._denom
        return tuple(x % d for x in self._scaled_coroot(m))

    def minuscule_class_node(self, m: Vec) -> Optional[int]:
        """Node i in I_m with [m] = [-varpi_i_vee], or None when m is in Q_vee."""
        cls = self.coweight_class(m)
        if not any(cls):
            return None
        i = self._class_to_minuscule.get(cls)
        if i is None:
            raise AssertionError("coset without minuscule representative")
        return i

    def affine_simple(self, i: int) -> AffineRoot:
        """alpha_0 = delta - theta, alpha_i the finite simple roots."""
        if i == 0:
            return AffineRoot(vneg(self.theta), 1)
        return AffineRoot(self.simple_root(i), 0)

    def __repr__(self) -> str:
        return f"RootSystem({self.name()})"


@lru_cache(maxsize=None)
def build_root_system(name: str) -> RootSystem:
    """Build (and cache) a root system from a name like 'D4'.

    The cache makes root systems singletons, so identity comparison of the
    .rs attribute across derived objects is sound.
    """
    name = name.strip()
    if len(name) < 2 or not name[0].isalpha():
        raise ValueError(f"bad root system name: {name!r}")
    letter = name[0].upper()
    try:
        rank = int(name[1:])
    except ValueError:
        raise ValueError(f"bad root system name: {name!r}") from None
    return RootSystem(letter, rank)
