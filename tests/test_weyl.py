import itertools
import random

import pytest

from qseidel import weyl
from qseidel.rootsys import CATALOG, build_root_system, dot, is_positive_vec
from qseidel.weyl import (
    ParabolicSet,
    WeylElt,
    coset_reduce,
    enumerate_minreps,
    enumerate_parabolic_subgroup,
    enumerate_weyl,
    from_word,
    height_product,
    identity,
    involution,
    is_minrep,
    longest_element,
    parabolic,
    reduced_word,
    reflection,
    simple_reflection,
    v_element,
    w_inv,
    w_mul,
)

from oracles import (
    apply_cols,
    brute_min_coset_rep,
    compose_cols,
    longest_word_by_descent,
    minreps_by_reduction,
    subgroup_cols,
    weyl_cols_from_word,
)

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "C3": 48, "D4": 192,
}


def test_group_orders():
    for name in CATALOG:
        rs = build_root_system(name)
        assert height_product(rs.pos_roots) == GROUP_ORDERS[name]
        assert len(enumerate_weyl(rs)) == GROUP_ORDERS[name]
        assert _in_length_then_word_order(enumerate_weyl(rs))


def test_simple_reflection_on_simple_roots():
    # s_i(alpha_j) = alpha_j - <alpha_j, alpha_i^vee> alpha_i
    for name in CATALOG:
        rs = build_root_system(name)
        for i in range(1, rs.rank + 1):
            si = simple_reflection(rs, i)
            assert si.length == 1
            assert w_mul(si, si).is_identity()
            for j in range(1, rs.rank + 1):
                img = si.act_root(rs.simple_root(j))
                expect = list(rs.simple_root(j))
                expect[i - 1] -= rs.cartan[i - 1][j - 1]
                assert img == tuple(expect)


def test_reflection_orders_follow_cartan():
    # order of s_i s_j is 2, 3, 4, 6 as a_ij a_ji = 0, 1, 2, 3
    order_of = {0: 2, 1: 3, 2: 4, 3: 6}
    for name in CATALOG:
        rs = build_root_system(name)
        for i in range(1, rs.rank + 1):
            for j in range(i + 1, rs.rank + 1):
                m = order_of[rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]]
                prod = w_mul(simple_reflection(rs, i), simple_reflection(rs, j))
                acc = identity(rs)
                for k in range(1, m + 1):
                    acc = w_mul(acc, prod)
                    if k < m:
                        assert not acc.is_identity()
                assert acc.is_identity()


def test_length_is_inversion_count():
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        for w in enumerate_weyl(rs):
            inv = sum(1 for r in rs.pos_roots
                      if not is_positive_vec(w.act_root(r)))
            assert w.length == inv


def test_reduced_word_round_trip():
    for name in CATALOG:
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        rng = random.Random(7)
        sample = elems if len(elems) <= 64 else rng.sample(elems, 64)
        for w in sample:
            word = reduced_word(w)
            assert len(word) == w.length
            assert from_word(rs, word) == w


def test_root_reflection_matches_conjugation():
    for name in ("A2", "B2", "C3"):
        rs = build_root_system(name)
        for w in enumerate_weyl(rs):
            for r in rs.pos_roots:
                # w s_r w^-1 = s_{w(r)}
                lhs = w_mul(w_mul(w, reflection(rs, r)), w_inv(w))
                assert lhs == reflection(rs, w.act_root(r))


def test_action_preserves_pairing():
    rng = random.Random(11)
    for name in CATALOG:
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        for _ in range(20):
            w = rng.choice(elems)
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            r = rng.choice(rs.roots)
            assert dot(w.act_coweight(lam), w.act_root(r)) == dot(lam, r)
            assert w_inv(w).act_coweight(w.act_coweight(lam)) == lam


def test_longest_element():
    for name in CATALOG:
        rs = build_root_system(name)
        w0 = longest_element(rs)
        assert w0.length == len(rs.pos_roots)
        assert w_mul(w0, w0).is_identity()
        for r in rs.pos_roots:
            assert not is_positive_vec(w0.act_root(r))


EVERY_TYPE_TO_RANK_8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                        + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                        + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", EVERY_TYPE_TO_RANK_8)
def test_longest_element_matches_the_coweight_descent(name):
    rs = build_root_system(name)
    nodes = tuple(range(1, rs.rank + 1))
    w0 = longest_element(rs)
    assert w0 == from_word(rs, longest_word_by_descent(rs.cartan, nodes))
    assert w0.length == len(rs.pos_roots)


@pytest.mark.parametrize("name", EVERY_TYPE_TO_RANK_8)
def test_v_elements_are_w0_times_the_parabolic_w0(name):
    rs = build_root_system(name)
    w0 = longest_element(rs)
    for i in rs.minuscule_nodes:
        rest = tuple(j for j in range(1, rs.rank + 1) if j != i)
        w0p = from_word(rs, longest_word_by_descent(rs.cartan, rest))
        assert v_element(rs, i) == w_mul(w0, w0p)


def test_longest_element_conjugation_is_involution():
    # -w0(alpha_i) = alpha_{f(i)}
    for name in CATALOG:
        rs = build_root_system(name)
        w0 = longest_element(rs)
        for i in range(1, rs.rank + 1):
            img = w0.act_root(rs.simple_root(i))
            neg = tuple(-c for c in img)
            assert neg == rs.simple_root(involution(rs)[i - 1])


def test_coset_reduce_against_brute_force():
    for name in ("A3", "B3"):
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        rng = random.Random(3)
        for nodes in ((1,), (1, 2), (rs.rank,)):
            p = parabolic(rs, nodes)
            sub = enumerate_parabolic_subgroup(p)
            in_sub = set(sub)
            for w in rng.sample(elems, 12):
                wp = coset_reduce(w, p)
                u = w_mul(w_inv(wp), w)
                assert u in in_sub
                assert is_minrep(wp, p)
                assert wp.length + u.length == w.length
                best = brute_min_coset_rep(elems, sub, w, w_mul, lambda v: v.length)
                assert best.length == wp.length
                assert best == wp


def _in_length_then_word_order(elems):
    return list(elems) == sorted(elems, key=lambda w: (w.length, reduced_word(w)))


def _parabolic_sets(rs):
    for size in range(1, rs.rank + 1):
        for nodes in itertools.combinations(range(1, rs.rank + 1), size):
            yield parabolic(rs, nodes)


def test_minrep_counts():
    # |W^P| and |W_P| as enumerated, as height products over R^+ minus R_P^+
    # and over R_P^+, and against the independent |W| table
    for name in CATALOG:
        rs = build_root_system(name)
        for p in _parabolic_sets(rs):
            reps = enumerate_minreps(rs, p)
            sub = enumerate_parabolic_subgroup(p)
            assert len(reps) * len(sub) == GROUP_ORDERS[name]
            assert len(sub) == height_product(p.rp_pos)
            assert len(reps) == height_product(r for r in rs.pos_roots if r not in p.rp_pos)
            assert all(is_minrep(w, p) for w in reps)
            assert _in_length_then_word_order(reps) and _in_length_then_word_order(sub)


def test_minrep_walk_matches_reduction_of_all_of_w():
    # the walk over W^P against coset_reduce of every element of W,
    # tuple for tuple and in the same order
    sets = 0
    for name in CATALOG + ("G2", "F4", "B4", "C4"):
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        for p in _parabolic_sets(rs):
            want = minreps_by_reduction(elems, lambda w: coset_reduce(w, p))
            assert enumerate_minreps(rs, p) == want, (name, p.nodes)
            sets += 1
    assert sets == 58 + 3 + 3 * 15


def test_v_elements_small():
    rs = build_root_system("A2")
    assert reduced_word(v_element(rs, 1)) == (2, 1)
    assert reduced_word(v_element(rs, 2)) == (1, 2)
    rs = build_root_system("B2")
    # single minuscule node: v_1 has length |R^+| - |R_P^+| = 4 - 1 = 3
    assert v_element(rs, 1).length == 3


def test_v_element_inverse_is_dual():
    for name in CATALOG:
        rs = build_root_system(name)
        for i in rs.minuscule_nodes:
            assert w_inv(v_element(rs, i)) == v_element(
                rs, involution(rs)[i - 1])


# -- the root permutation against the matrix oracle --------------------------


def _oracle_inversions(rs, cols):
    return sum(1 for r in rs.pos_roots if not any(a > 0 for a in apply_cols(cols, r)))


def _assert_matches_oracle(rs, word, other):
    """from_word(word) and its product with from_word(other) against the oracle."""
    cols = weyl_cols_from_word(rs.cartan, word)
    inv_cols = weyl_cols_from_word(rs.cartan, word[::-1])
    w = from_word(rs, word)
    assert w.images == cols and w.inv_images == inv_cols
    assert w.length == _oracle_inversions(rs, cols)
    assert all(w.act_root(r) == apply_cols(cols, r) for r in rs.roots)
    wi = w_inv(w)
    assert wi.images == inv_cols and wi.inv_images == cols
    assert wi.length == w.length
    built = WeylElt(rs, cols, inv_cols)
    assert built == w and hash(built) == hash(w)
    other_cols = weyl_cols_from_word(rs.cartan, other)
    other_inv = weyl_cols_from_word(rs.cartan, other[::-1])
    prod = w_mul(w, from_word(rs, other))
    prod_cols = compose_cols(cols, other_cols)
    assert prod.images == prod_cols
    assert prod.inv_images == compose_cols(other_inv, inv_cols)
    assert prod.length == _oracle_inversions(rs, prod_cols)
    return cols


def test_permutation_matches_matrix_oracle_on_all_of_w():
    for name in CATALOG + ("F4", "G2"):
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        rng = random.Random(5)
        seen = set()
        for w in elems:
            word = reduced_word(w)
            seen.add(_assert_matches_oracle(rs, word, reduced_word(rng.choice(elems))))
        # the closure is all of W: the oracle's own closure gives the same matrices
        assert seen == {g for g, _ in subgroup_cols(rs.cartan, range(rs.rank))}


def test_permutation_matches_matrix_oracle_in_type_e():
    rng = random.Random(17)
    for name in ("E6", "E7", "E8"):
        rs = build_root_system(name)
        words = [tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 40)))
                 for _ in range(201)]
        for word, other in zip(words, words[1:]):
            _assert_matches_oracle(rs, word, other)


def test_compatibility_constructor_rejects_bad_columns():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    with pytest.raises(ValueError):
        WeylElt(rs, ((1, 1), (0, 1)), ((1, -1), (0, 1)))
    with pytest.raises(ValueError):
        WeylElt(rs, s1.images, simple_reflection(rs, 2).images)
    # diagram automorphisms permute the roots, with matching inverse images,
    # but lie outside W: the swap of the two nodes of A2, and of nodes 1 and 3 of D4
    swap = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="not in W"):
        WeylElt(rs, swap, swap)
    d4 = build_root_system("D4")
    swap = tuple(d4.simple_root(i) for i in (3, 2, 1, 4))
    with pytest.raises(ValueError, match="not in W"):
        WeylElt(d4, swap, swap)


def test_act_root_refuses_a_vector_that_is_not_a_root():
    for name in CATALOG + ("G2", "F4"):
        rs = build_root_system(name)
        for w in (identity(rs), longest_element(rs)):
            for vec in (tuple(2 * x for x in rs.simple_root(1)), (0,) * rs.rank):
                with pytest.raises(ValueError, match="not a root"):
                    w.act_root(vec)


@pytest.mark.parametrize("name", ("A3", "B3", "G2"))
def test_equal_elements_hash_equal_however_they_are_built(name):
    rs = build_root_system(name)
    by_perm = {w.perm: w for w in enumerate_weyl(rs)}
    rng = random.Random(29)
    for _ in range(60):
        a = from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 8))])
        b = from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 8))])
        ab = w_mul(a, b)
        built = [ab, from_word(rs, reduced_word(ab)), w_inv(w_inv(ab)),
                 by_perm[ab.perm], WeylElt(rs, ab.images, ab.inv_images)]
        assert all(x == ab and hash(x) == hash(ab) for x in built)
        assert len({*built, ab}) == 1
    p, q = parabolic(rs, (2, 1)), ParabolicSet(rs, (1, 2))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    with pytest.raises(ValueError, match="distinct"):
        parabolic(rs, (1, 2, 1))


def test_parabolic_takes_integer_nodes_only():
    # a bool, float or string node is a usage error, never read as node 1;
    # any iterable of ints still works
    rs = build_root_system("A3")
    want = ParabolicSet(rs, (1, 3))
    for nodes in ((3, 1), [1, 3], {3, 1}, iter((3, 1)), range(1, 4, 2)):
        assert parabolic(rs, nodes) == want
    for bad in ((True,), (1.0,), ("1",), (3, False), (None,)):
        with pytest.raises(ValueError, match="parabolic node must be an integer"):
            parabolic(rs, bad)
    # built directly too: (True,) would hash equal to the node-1 set
    for bad in ((True,), (1.0,), ("1",)):
        with pytest.raises(ValueError, match="parabolic node must be an integer"):
            ParabolicSet(rs, bad)


def test_coset_reduce_refuses_mixed_root_systems():
    # an A2 element modulo a B2 or an A3 parabolic set; the refusal leaves
    # nothing in the memo
    w = from_word(build_root_system("A2"), (1, 2))
    before = coset_reduce.cache_info().currsize
    for name, nodes in (("B2", (2,)), ("A3", (1,))):
        p = parabolic(build_root_system(name), nodes)
        for _ in range(2):
            with pytest.raises(ValueError, match="mixed root systems"):
                coset_reduce(w, p)
    assert coset_reduce.cache_info().currsize == before


def test_parabolic_set_keeps_the_node_rules_and_one_normal_form():
    # every order of one set builds one value, however it is built; an empty
    # set (the degenerate P = G), a bare int, a repeat and a node past the
    # rank are refused by ParabolicSet itself, so parabolic() refuses them too
    rs = build_root_system("A2")
    p, q = ParabolicSet(rs, [2, 1]), parabolic(rs, (1, 2))
    assert p == q and hash(p) == hash(q) and p.nodes == (1, 2)
    for make in (parabolic, ParabolicSet):
        for bad, match in (([], "non-empty"), ((), "non-empty"), (3, "list of integers"),
                           ((2, 2), r"distinct, got \[2, 2\]"),
                           ((3, 1), r"must lie in 1\.\.2 for A2, got \[3, 1\]"),
                           ((0,), r"must lie in 1\.\.2 for A2")):
            with pytest.raises(ValueError, match=match):
                make(rs, bad)


def test_enumerate_minreps_refuses_mixed_root_systems():
    # a B3 parabolic set given with A3 once gave 4 elements of A3; the
    # refusal leaves nothing in the memo
    a3 = build_root_system("A3")
    p = parabolic(build_root_system("B3"), (1,))
    before = enumerate_minreps.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="mixed root systems"):
            enumerate_minreps(a3, p)
    assert enumerate_minreps.cache_info().currsize == before


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4", "E6"))
def test_from_word_is_the_left_to_right_product_of_simple_reflections(name):
    # the reference composes elements: one w_mul per letter, left to right
    rs = build_root_system(name)
    rng = random.Random(31)
    words = [()] + [[rng.randint(1, rs.rank) for _ in range(rng.randint(1, 12))]
                    for _ in range(40)]
    for word in words:
        want = identity(rs)
        for i in word:
            want = w_mul(want, simple_reflection(rs, i))
        got = from_word(rs, word)
        assert got == want and got.perm == want.perm and hash(got) == hash(want), word


def test_from_word_and_simple_reflection_take_int_letters_in_range_only():
    # a float, bool or str letter is a usage error, never read as node 1, and
    # the simple_reflection memo neither serves nor stores one in place of 1
    rs = build_root_system("A2")
    assert from_word(rs, (1, 2)) == w_mul(simple_reflection(rs, 1), simple_reflection(rs, 2))
    before = simple_reflection.cache_info().currsize
    for bad, match in (((1.0,), "must be an integer, got 1.0"),
                       ([True], "must be an integer, got True"),
                       (("1",), "must be an integer, got '1'"),
                       ((1, 2.0), "must be an integer, got 2.0"),
                       ((0,), "out of range: 0"),
                       ((1, 3), "out of range: 3")):
        with pytest.raises(ValueError, match=match):
            from_word(rs, bad)
        with pytest.raises(ValueError, match=match):
            simple_reflection(rs, bad[-1])
    assert simple_reflection.cache_info().currsize == before


def test_from_word_builds_one_element_per_word(monkeypatch):
    # the letters compose raw permutations; only the finished word is an element
    rs = build_root_system("D4")
    from_word(rs, (1,))  # the identity and the right maps are memoised per type
    built = []
    real = weyl._elt
    monkeypatch.setattr(weyl, "_elt", lambda rs, perm: built.append(perm) or real(rs, perm))
    for word in ((), (2,), (1, 2, 3, 4, 2, 1, 3, 2)):
        built.clear()
        w = from_word(rs, word)
        assert built == [w.perm]
