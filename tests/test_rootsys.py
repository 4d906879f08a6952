import itertools
import math
import random
from fractions import Fraction

import pytest

from qseidel.rootsys import (
    CATALOG,
    build_root_system,
    cartan_matrix,
    dot,
    int_inverse,
    is_positive_vec,
    vadd,
    vneg,
)
from qseidel.weyl import involution

from oracles import (
    COXETER_NUMBER,
    INVARIANT_FACTORS,
    rational_solve,
    smith_invariant_factors,
)


def test_catalog_builds():
    for name in CATALOG:
        rs = build_root_system(name)
        assert rs.name() == name
        assert len(rs.cartan) == rs.rank


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("E9")
    with pytest.raises(ValueError):
        build_root_system("A0")


def test_cartan_diagonal_and_symmetry():
    for name in CATALOG:
        a = cartan_matrix(name[0], int(name[1:]))
        n = len(a)
        for i in range(n):
            assert a[i][i] == 2
            for j in range(n):
                if i != j:
                    assert a[i][j] <= 0
                    # off-diagonal zeros come in pairs
                    assert (a[i][j] == 0) == (a[j][i] == 0)


def test_positive_root_count_matches_coxeter_number():
    for name in CATALOG:
        rs = build_root_system(name)
        h = COXETER_NUMBER[name]
        assert len(rs.pos_roots) == rs.rank * h // 2
        assert len(rs.roots) == rs.rank * h


def test_roots_closed_under_negation():
    for name in CATALOG:
        rs = build_root_system(name)
        for r in rs.roots:
            assert vneg(r) in rs.root_set
        for r in rs.pos_roots:
            assert is_positive_vec(r)
            assert not is_positive_vec(vneg(r))


def test_theta_is_highest():
    # theta + alpha_i is never a root
    for name in CATALOG:
        rs = build_root_system(name)
        assert rs.theta in rs.root_set
        for i in range(1, rs.rank + 1):
            assert vadd(rs.theta, rs.simple_root(i)) not in rs.root_set


def test_theta_values():
    assert build_root_system("A2").theta == (1, 1)
    assert build_root_system("B2").theta == (1, 2)
    assert build_root_system("C3").theta == (2, 2, 1)
    assert build_root_system("D4").theta == (1, 2, 1, 1)


def test_pairing_against_cartan():
    # <alpha_j, alpha_i^vee> is the Cartan entry A[i][j]
    for name in CATALOG:
        rs = build_root_system(name)
        for i in range(1, rs.rank + 1):
            for j in range(1, rs.rank + 1):
                cw = rs.coroot_to_coweight(rs.coroot_of(rs.simple_root(i)))
                assert dot(cw, rs.simple_root(j)) == rs.cartan[i - 1][j - 1]


def test_coroot_coordinate_round_trip():
    for name in CATALOG:
        rs = build_root_system(name)
        for r in rs.roots:
            c = rs.coroot_of(r)
            cw = rs.coroot_to_coweight(c)
            assert rs.coroot_coords(cw) == c
            assert rs.in_coroot_lattice(cw)
            assert dot(cw, r) == 2


def test_fundamental_coweight_duality():
    for name in CATALOG:
        rs = build_root_system(name)
        for i in range(1, rs.rank + 1):
            cw = rs.fund_coweight(i)
            for j in range(1, rs.rank + 1):
                assert dot(cw, rs.simple_root(j)) == (1 if i == j else 0)


def test_minuscule_nodes():
    # <varpi_i, alpha> in {0, 1} over all positive roots, and only there
    for name in CATALOG:
        rs = build_root_system(name)
        expected = []
        for i in range(1, rs.rank + 1):
            cw = rs.fund_coweight(i)
            vals = {dot(cw, r) for r in rs.pos_roots}
            if vals <= {0, 1}:
                expected.append(i)
        assert list(rs.minuscule_nodes) == expected


def test_minuscule_tables():
    assert build_root_system("A3").minuscule_nodes == (1, 2, 3)
    assert build_root_system("B3").minuscule_nodes == (1,)
    assert build_root_system("C3").minuscule_nodes == (3,)
    assert build_root_system("D4").minuscule_nodes == (1, 3, 4)


def test_coweight_quotient_structure():
    # invariant factors of the Cartan matrix give the lattice quotient
    for name in CATALOG:
        rs = build_root_system(name)
        assert smith_invariant_factors(rs.cartan) == INVARIANT_FACTORS[name]


def test_involution_is_an_involution():
    for name in CATALOG:
        rs = build_root_system(name)
        f = involution(rs)
        assert sorted(f) == list(range(1, rs.rank + 1))
        for i in range(1, rs.rank + 1):
            assert f[f[i - 1] - 1] == i


def test_involution_tables():
    # Bourbaki, Lie Groups ch. VI plates: -w0 is the diagram automorphism
    # i -> n+1-i on A_n, swaps n-1 and n on D_n for odd n, swaps 1<->6 and
    # 3<->5 on E6, and is the identity on every other type
    types = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])
    assert len(types) == 32
    for name in types:
        rs = build_root_system(name)
        n = rs.rank
        want = list(range(1, n + 1))
        if rs.letter == "A":
            want.reverse()
        elif rs.letter == "D" and n % 2:
            want[n - 2], want[n - 1] = n, n - 1
        elif name == "E6":
            want = [6, 2, 5, 4, 3, 1]
        assert involution(rs) == tuple(want), name


def test_affine_simple_root():
    # node 0 is the affine root: -theta + delta
    for name in CATALOG:
        rs = build_root_system(name)
        a0 = rs.affine_simple(0)
        assert a0.finite == vneg(rs.theta)
        assert a0.level == 1
        for i in range(1, rs.rank + 1):
            ai = rs.affine_simple(i)
            assert ai.finite == rs.simple_root(i)
            assert ai.level == 0


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def test_int_inverse_against_rational_solve():
    rng = random.Random(11)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _leibniz_det(m) == 0:
            singular += 1
            with pytest.raises(ValueError):
                int_inverse(m)
            continue
        adj, d = int_inverse(m)
        assert d > 0
        for j in range(n):
            col = rational_solve(m, [int(i == j) for i in range(n)])
            assert [Fraction(adj[i][j], d) for i in range(n)] == col
    assert singular > 0
    assert int_inverse([]) == ((), 1)


def _lattice_probe(rs):
    """A box of coweights: all of [-2, 2]^n up to rank 4, else [-1, 1]^n
    (rank 6) or 400 random points of [-2, 2]^n (ranks 7 and 8)."""
    n = rs.rank
    if n <= 4:
        return list(itertools.product(range(-2, 3), repeat=n))
    if n <= 6:
        return list(itertools.product(range(-1, 2), repeat=n))
    rng = random.Random(n)
    return [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(400)]


@pytest.mark.parametrize("name", CATALOG + ("F4", "G2", "E6", "E7", "E8"))
def test_coroot_lattice_arithmetic_against_rational_solve(name):
    rs = build_root_system(name)
    n = rs.rank
    at = [[rs.cartan[j][i] for j in range(n)] for i in range(n)]
    # columns of (Cartan^T)^-1, one rational solve per unit vector
    inv_cols = [rational_solve(at, [int(i == j) for i in range(n)]) for j in range(n)]
    class_of_frac: dict = {}
    frac_of_class: dict = {}
    for m in _lattice_probe(rs):
        exact = [sum(inv_cols[j][i] * m[j] for j in range(n)) for i in range(n)]
        integral = all(x.denominator == 1 for x in exact)
        assert rs.coweight_to_coroot(m) == tuple(exact)
        assert rs.in_coroot_lattice(m) == integral
        if integral:
            assert rs.coroot_coords(m) == tuple(int(x) for x in exact)
        else:
            with pytest.raises(ValueError):
                rs.coroot_coords(m)
        cls = rs.coweight_class(m)
        assert (not any(cls)) == integral
        frac = tuple(x - math.floor(x) for x in exact)
        assert class_of_frac.setdefault(frac, cls) == cls
        assert frac_of_class.setdefault(cls, frac) == frac
        node = rs.minuscule_class_node(m)
        if integral:
            assert node is None
        else:
            # [m] = [-varpi_node_vee]: m + varpi_node_vee is in the coroot lattice
            assert node in rs.minuscule_nodes
            shifted = [exact[i] + inv_cols[node - 1][i] for i in range(n)]
            assert all(x.denominator == 1 for x in shifted)
    # the probe meets every class of the coweight lattice mod Q_vee
    assert len(class_of_frac) == math.prod(smith_invariant_factors(rs.cartan))
