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

Simple roots are numbered 1..n following Bourbaki (see README for the table),
node 0 is the affine node, and RootSystem.node is the one check of a node.

Every integer matrix-vector product runs through generated code, compiled
from integers only:

* `mat_vec` dispatches on the length of the vector to a kernel per rank
  0..MAX_RANK, compiled on its first use, that unpacks the vector and each
  row into local names and sums their products (rank 0 gives a zero per
  row);
* each RootSystem compiles its three fixed maps, Cartan^T (coroot to
  coweight coordinates), its adjugate (`_scaled_coroot`, behind the coroot
  lattice tests) and the pairing of a coweight with R^+, with the matrix
  entries folded in: zero terms are dropped and an entry +-1 is a sign.

Only integer literals the library computed itself and fixed names enter the
generated source; `fold_maps` refuses any other entry before it builds any.
A vector or row of the wrong length raises ValueError from the unpacking.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub
from typing import Callable, Optional

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
# (letter, rank) by the type's one accepted name, as RootSystem.name() prints it
_BY_NAME = {f"{letter}{rank}": (letter, rank)
            for letter, ranks in _VALID_RANKS.items() for rank in ranks}

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
    for v in values:
        if type(v) is not int:
            strict_int(v, what)  # raises, naming v
    return tuple(values)


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


def _compile(source: str) -> dict:
    """The names defined by generated source (see the module docstring)."""
    scope: dict = {}
    exec(compile(source, "<qseidel.rootsys kernels>", "exec"), scope)
    return scope


def _targets(prefix: str, n: int) -> str:
    """An assignment target unpacking exactly n items: 'v0, v1,' or '()'."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + "," if n else "()"


def _rank_kernel(n: int) -> Callable:
    """mat_vec for vectors of length n, with the sum unrolled."""
    if n > MAX_RANK:
        raise ValueError(f"no kernel for vectors of length {n}")
    terms = " + ".join(f"r{i} * v{i}" for i in range(n)) or "0"
    return _compile(f"def mat_vec_{n}(mat, v):\n"
                    f"    {_targets('v', n)} = v\n"
                    f"    return tuple([{terms} for {_targets('r', n)} in mat])\n")[f"mat_vec_{n}"]


# rank -> kernel, each compiled on first use and never replaced
_RANK_KERNELS: dict[int, Callable] = {}


def mat_vec(mat, v: Vec) -> Vec:
    """The integer product mat . v, for a matrix given by its rows.

    ValueError when a row's length is not len(v), or len(v) > MAX_RANK.
    """
    try:
        kernel = _RANK_KERNELS[len(v)]
    except KeyError:
        kernel = _RANK_KERNELS[len(v)] = _rank_kernel(len(v))
    return kernel(mat, v)


def _folded_row(row: Vec) -> str:
    """sum(a * v_i for a, v_i in row), zero terms dropped and +-1 a sign."""
    out = ""
    for i, a in enumerate(row):
        if a:
            term = f"v{i}" if abs(a) == 1 else f"{abs(a)} * v{i}"
            if out:
                out += f" - {term}" if a < 0 else f" + {term}"
            else:
                out = f"-{term}" if a < 0 else term
    return out or "0"


def fold_maps(n: int, **mats) -> tuple[Callable[[Vec], Vec], ...]:
    """v -> mat . v for each integer matrix with rows of length n, compiled
    with its entries folded in, in keyword order; each keyword names its map.

    ValueError for an entry that is not an int (bool included) or a row not
    of length n, before any source is built.
    """
    for mat in mats.values():
        for row in mat:
            if len(row) != n:
                raise ValueError(f"matrix row {row!r} does not have length {n}")
            for a in row:
                strict_int(a, "matrix entry")
    scope = _compile("".join(
        f"def {name}(v):\n"
        f"    {_targets('v', n)} = v\n"
        f"    return ({''.join(_folded_row(row) + ', ' for row in mat)})\n"
        for name, mat in mats.items()))
    return tuple(scope[name] for name in mats)


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
    """Immutable container for one simple type; build via build_root_system().

    Its three fixed linear maps are compiled attributes (see the module
    docstring): coroot_to_coweight(c) maps coroot to fundamental-coweight
    coordinates (Cartan^T), _scaled_coroot(m) is d times the coroot
    coordinates of m (the adjugate of Cartan^T, d = its denominator), and
    pos_root_pairings(lam) is (<lam, alpha> for alpha in pos_roots).
    """

    def __init__(self, letter: str, rank: int):
        if type(rank) is not int or rank not in _VALID_RANKS.get(letter, ()):
            raise ValueError(f"not a valid simple type: {letter!r}, rank {rank!r}")
        self.letter = letter
        self.rank = rank
        self.cartan = cartan_matrix(letter, rank)
        # Cartan^T maps coroot to coweight coordinates, and its inverse
        # adj / denom maps them back.
        self._cartan_t: tuple[Vec, ...] = tuple(zip(*self.cartan))
        self._adj, self._denom = int_inverse(self._cartan_t)
        # unit vectors: alpha_i in root, varpi_i_vee in coweight coordinates
        self._units = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        self._generate_roots()
        self.coroot_to_coweight, self._scaled_coroot, self.pos_root_pairings = fold_maps(
            rank, coroot_to_coweight=self._cartan_t, scaled_coroot=self._adj,
            pos_root_pairings=self.pos_roots)
        self._find_theta()
        self._find_minuscule()
        self._central_class_table()

    # -- construction ---------------------------------------------------

    def _generate_roots(self) -> None:
        n = self.rank
        simple = self._units
        # Pairs (root, coroot); reflecting a root reflects its coroot, so the
        # coroot of every root comes out of the same closure for free.
        known: dict[Vec, Vec] = {e: e for e in simple}
        frontier = list(known)
        while frontier:
            nxt = []
            for r in frontier:
                c = known[r]
                for i in range(n):
                    # s_i(r) = r - <r, alpha_i_vee> alpha_i
                    k = dot(self.cartan[i], r)
                    r2 = tuple(x - k * e for x, e in zip(r, simple[i]))
                    # s_i(c) = c - <c_as_coroot, alpha_i> e_i
                    k2 = dot(self._cartan_t[i], c)
                    c2 = tuple(x - k2 * e for x, e in zip(c, simple[i]))
                    if r2 not in known:
                        known[r2] = c2
                        nxt.append(r2)
            frontier = nxt
        pos = sorted((r for r in known if is_positive_vec(r)), key=lambda r: (sum(r), r))
        self.pos_roots: tuple[Vec, ...] = tuple(pos)
        self.roots: tuple[Vec, ...] = tuple(pos) + tuple(vneg(r) for r in pos)
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
            table[self.coweight_class(vneg(self._units[i - 1]))] = i  # -varpi_i_vee
        self._class_to_minuscule = table

    # -- lattice arithmetic ----------------------------------------------

    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    def coroot_of(self, root: Vec) -> Vec:
        return self._coroot[root]

    def node(self, i: int, low: int = 1) -> int:
        """i if it is an int in low..rank (low=0 admits node 0); else ValueError."""
        if type(i) is not int or not low <= i <= self.rank:
            raise ValueError(f"node must be an integer in {low}..{self.rank}, got {i!r}")
        return i

    def simple_root(self, i: int) -> Vec:
        return self._units[self.node(i) - 1]

    def fund_coweight(self, i: int) -> Vec:
        return self._units[self.node(i) - 1]

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
        if self.node(i, 0):
            return AffineRoot(self._units[i - 1], 0)
        return AffineRoot(vneg(self.theta), 1)

    def __repr__(self) -> str:
        return f"RootSystem({self.name()})"


@lru_cache(maxsize=None)
def build_root_system(name: str) -> RootSystem:
    """The root system of a type named exactly as `roots` prints it, like 'D4'.

    Any other spelling ('d4', ' D4', 'D04') raises ValueError, so the cache
    holds one object per type and identity comparison of the .rs attribute
    across derived objects is sound.
    """
    if name not in _BY_NAME:
        raise ValueError(f"bad root system name: {name!r}")
    return RootSystem(*_BY_NAME[name])
