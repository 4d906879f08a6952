import inspect
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qseidel import affine, nilhecke, qh, rootsys, weyl
from qseidel.affine import inversion_count_oracle
from qseidel.poly import SPoly
from qseidel.rootsys import (
    CATALOG,
    build_root_system,
    cartan_matrix,
    dot,
    fold_maps,
    int_inverse,
    is_positive_vec,
    mat_vec,
    vadd,
    vneg,
)
from qseidel.suites import suite_pi_p
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


@pytest.mark.parametrize("letter, rank", [("A", True), ("A", 2.0), ("A", "2"), ("B", 1),
                                          ("Q", 2)])
def test_root_system_refuses_a_rank_that_is_not_an_int_of_its_type(letter, rank):
    # RootSystem("A", True) once built a type named ATrue, and rank 2.0 raised
    # TypeError deep inside the construction
    with pytest.raises(ValueError, match=f"not a valid simple type: '{letter}', rank"):
        rootsys.RootSystem(letter, rank)


@pytest.mark.parametrize("name", ["a2", " A2", "A2 ", "A02", "A+2", "A 2", "B\u0663", "A", ""])
def test_only_the_printed_name_builds_a_root_system(name):
    # a second spelling would build a second root system of the same type,
    # and a second entry in every memo keyed by it
    with pytest.raises(ValueError, match="bad root system name"):
        build_root_system(name)


def test_each_type_has_one_root_system():
    for name in ALL_TYPES:
        rs = build_root_system(name)
        assert rs.name() == name
        assert build_root_system(rs.name()) is rs


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
            assert vneg(r) in rs.root_index
        for r in rs.pos_roots:
            assert is_positive_vec(r)
            assert not is_positive_vec(vneg(r))


def test_theta_is_highest():
    # theta + alpha_i is never a root
    for name in CATALOG:
        rs = build_root_system(name)
        assert rs.theta in rs.root_index
        for i in range(1, rs.rank + 1):
            assert vadd(rs.theta, rs.simple_root(i)) not in rs.root_index


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


@pytest.mark.parametrize("bad", [0, 3, -1, True, 1.0, "1"])
def test_simple_root_refuses_a_node_that_is_not_an_int_in_range(bad):
    # on A2, node 3 once read as the non-root (0, 0) and True as node 1
    rs = build_root_system("A2")
    assert rs.simple_root(1) == (1, 0) and rs.simple_root(2) == (0, 1)
    with pytest.raises(ValueError, match="node must be an integer in 1..2"):
        rs.simple_root(bad)


# Every entry point that takes a node, by the lowest node it admits, the
# message of its refusal and a setup that builds its other arguments (and the
# per-type state a first call makes) for a root system: each reads the node
# through RootSystem.node, or through weyl.v_element when it must be
# minuscule (on A2 both nodes are). chevalley_multiply's class has every node
# quantum, so it refuses exactly what the others do.
RANGE = "node must be an integer in {low}..2, got {i!r}"
MINUSCULE = "node {i!r} is not minuscule in A2"


def _class(rs, nodes):
    return qh.unit_class(weyl.parabolic(rs, nodes))


NODE_TAKERS = {
    "simple_root": (1, RANGE, lambda rs: rs.simple_root),
    "fund_coweight": (1, RANGE, lambda rs: rs.fund_coweight),
    "affine_simple": (0, RANGE, lambda rs: rs.affine_simple),
    "simple_reflection": (1, RANGE, lambda rs: lambda i: weyl.simple_reflection(rs, i)),
    "from_word": (1, RANGE, lambda rs: lambda i, _=weyl.from_word(rs, ()):
                  weyl.from_word(rs, (1, i))),
    "affine_simple_ext": (0, RANGE, lambda rs: lambda i: affine.affine_simple_ext(rs, i)),
    "left_ascent": (0, RANGE, lambda rs: lambda i, y=affine.identity_aff(rs):
                    affine.left_ascent(y, i)),
    "v_element": (1, MINUSCULE, lambda rs: lambda i: weyl.v_element(rs, i)),
    "CentralElt": (1, MINUSCULE, lambda rs: lambda i: affine.CentralElt(rs, i)),
    "seidel_multiply": (1, MINUSCULE, lambda rs: lambda i, c=_class(rs, (1,)):
                        qh.seidel_multiply(i, c)),
    "chevalley_multiply": (1, "node {i!r} is not a quantum node of ParabolicSet(A2, [1, 2])",
                           lambda rs: lambda i, c=_class(rs, (1, 2)):
                           qh.chevalley_multiply(i, c, True)),
    "divdiff": (0, RANGE, lambda rs: lambda i: nilhecke.divdiff(rs, i, SPoly.var(2, 1) ** 2)),
    "reflect_poly": (0, RANGE, lambda rs: lambda i:
                     nilhecke.reflect_poly(rs, i, SPoly.var(2, 1) ** 2)),
    # no row is read for f = 0, and the node is still checked
    "divdiff of 0": (0, RANGE, lambda rs: lambda i: nilhecke.divdiff(rs, i, SPoly.zero(2))),
    "reflect_poly of 0": (0, RANGE, lambda rs: lambda i:
                          nilhecke.reflect_poly(rs, i, SPoly.zero(2))),
    "scalar_root": (0, RANGE, lambda rs: lambda i: nilhecke.scalar_root(rs, i)),
    "central_dynkin_action": (0, RANGE, lambda rs: lambda i, z=affine.CentralElt(rs, 1):
                              affine.central_dynkin_action(z, i)),
}


def _memo_sizes() -> list[int]:
    memos = {id(f): f for module in (rootsys, weyl, affine, nilhecke, qh)
             for f in vars(module).values() if hasattr(f, "cache_info")}
    return [f.cache_info().currsize for f in memos.values()]


@pytest.mark.parametrize("name", sorted(NODE_TAKERS))
def test_every_node_taker_refuses_what_the_node_rule_refuses(name):
    # cold and warm alike: a fresh A2 (not the cached one) starts every memo
    # keyed by it empty, and a warm node 1 (or 0) entry serves no True, 1.0,
    # False or 0.0. Each refusal is the one message of its rule, and stores
    # nothing in any memo of the package.
    low, message, setup = NODE_TAKERS[name]
    rs = rootsys.RootSystem("A", 2)
    call = setup(rs)
    bad = [True, False, 1.0, 0.0, "1", -1, rs.rank + 1] + [0] * low
    for warm in (False, True):
        if warm:
            for i in range(low, 2):
                call(i)
        before = _memo_sizes()
        for i in bad:
            with pytest.raises(ValueError) as refused:
                call(i)
            assert str(refused.value) == message.format(low=low, i=i)
        assert _memo_sizes() == before


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


# Every valid simple type up to MAX_RANK.
ALL_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


def _plain_mat_vec(mat, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat)


def _kernel_probes(n, rng):
    """Seeded integer vectors of length n: small, huge (+-10**15) and as lists."""
    big = 10 ** 15
    vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
    vecs += [tuple(rng.choice((-big, big, rng.randint(-big, big))) for _ in range(n))
             for _ in range(10)]
    vecs += [(0,) * n, (1,) * n]
    return vecs + [list(v) for v in vecs[:8]]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_compiled_maps_against_plain_sums(name):
    rs = build_root_system(name)
    n = rs.rank
    cartan_t = [[rs.cartan[j][i] for j in range(n)] for i in range(n)]
    rng = random.Random(n * 31 + ord(name[0]))
    square = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for v in _kernel_probes(n, rng):
        for mat in (rs.cartan, cartan_t, rs.pos_roots, square):
            assert mat_vec(mat, v) == _plain_mat_vec(mat, v)
        assert rs.coroot_to_coweight(v) == _plain_mat_vec(cartan_t, v)
        assert rs._scaled_coroot(v) == _plain_mat_vec(rs._adj, v)
        pairings = rs.pos_root_pairings(v)
        assert pairings == _plain_mat_vec(rs.pos_roots, v)
        assert pairings == tuple(dot(v, alpha) for alpha in rs.pos_roots)
        # the adjugate inverts Cartan^T up to its denominator
        assert rs._scaled_coroot(rs.coroot_to_coweight(v)) == tuple(rs._denom * c for c in v)


@pytest.mark.parametrize("name", ["A1", "G2", "D4", "E8"])
def test_compiled_maps_refuse_a_vector_of_the_wrong_length(name):
    # zip would drop the extra coordinate, or the missing one, silently
    rs = build_root_system(name)
    v = tuple(range(1, rs.rank + 1))
    maps = (rs.coroot_to_coweight, rs._scaled_coroot, rs.pos_root_pairings,
            lambda u: mat_vec(rs.cartan, u), lambda u: mat_vec(rs.pos_roots, u))
    for f in maps:
        for bad in (v[:-1], v + (0,), list(v) + [0]):
            with pytest.raises(ValueError):
                f(bad)
    with pytest.raises(ValueError):
        mat_vec(((1,) * 9,), (1,) * 9)


def test_rank_zero_gives_a_zero_per_row():
    # the empty Levi of I_P = all nodes
    assert mat_vec(((), (), ()), ()) == (0, 0, 0)
    assert mat_vec((), []) == ()
    with pytest.raises(ValueError):
        mat_vec(((1,),), ())


def test_folded_rows_drop_zeros_and_write_units_as_signs():
    src = rootsys._folded_row
    assert src((0, 1, 0, 0)) == "v1"
    assert src((0, -1, 2, 0)) == "-v1 + 2 * v2"
    assert src((3, 0, -1, -10 ** 15)) == "3 * v0 - v2 - 1000000000000000 * v3"
    assert src((0, 0)) == "0"
    zero, unit = fold_maps(2, zero=((0, 0),), unit=((1, 0), (0, -1)))
    assert zero((5, 7)) == (0,)
    assert unit((5, 7)) == (5, -7)


@pytest.mark.parametrize("entry", [2.0, "2", True])
def test_fold_maps_refuses_a_non_int_entry_before_building_source(entry, monkeypatch):
    built = []
    monkeypatch.setattr(rootsys, "_compile", built.append)
    with pytest.raises(ValueError, match="matrix entry"):
        fold_maps(2, good=((1, 0), (0, 1)), bad=((1, entry), (0, 1)))
    with pytest.raises(ValueError):
        fold_maps(2, short=((1, 0), (1,)))
    assert built == []


def test_oracles_keep_their_own_arithmetic():
    # the brute-force checks must not read the compiled R^+ pairing they check
    oracles = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    for source in (inspect.getsource(inversion_count_oracle), inspect.getsource(suite_pi_p),
                   oracles):
        assert "pos_root_pairings" not in source
    for name in ("coroot_to_coweight", "_scaled_coroot", "fold_maps"):
        assert name not in oracles
