import random

import pytest

from qseidel.affine import (
    aff_length,
    aff_mul,
    affine_simple_ext,
    central_dynkin_action,
    central_elements,
    identity_aff,
    is_waff_minus,
    left_ascent,
    reduced_word_affine,
    translation,
)
from qseidel.nilhecke import (
    EXPANSION_CAP,
    act_on_xi,
    central_act_poly,
    divdiff,
    embed_group,
    nh_basis,
    nh_mod_Jtilde,
    nh_mul,
    nh_one,
    reflect_poly,
    scalar_root,
    weyl_act_poly,
    NilHeckeElt,
    _split,
)
from qseidel.poly import SPoly, add_terms
from qseidel.rootsys import CATALOG, build_root_system
from qseidel.suites import RunConfig, run_suites
from qseidel.weyl import from_word

from oracles import (
    embed_by_products,
    exact_quotient,
    nh_mul_by_recursion,
    reflection_data,
    reflection_weight_images,
)


def from_word_affine(rs, word):
    x = identity_aff(rs)
    for i in word:
        x = aff_mul(x, affine_simple_ext(rs, i))
    return x


def nh_add(a, b):
    return NilHeckeElt(a.rs, add_terms(b.terms.items(), a.terms))


def nh_zero(rs):
    return NilHeckeElt(rs, {})


def nh_scalar(rs, f):
    return NilHeckeElt(rs, {identity_aff(rs): f})


def nh_sub(a, b):
    return nh_add(a, NilHeckeElt(a.rs, {k: -v for k, v in b.terms.items()}))


def xi_unit(rs):
    return nh_basis(identity_aff(rs))


def _aff_words(rs, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for i in range(rs.rank + 1):
                nxt.append(word + (i,))
        frontier = nxt
        out.extend(nxt)
    return out


def _short_elements(rs, max_len):
    seen = {}
    for word in _aff_words(rs, max_len):
        try:
            x = from_word_affine(rs, word)
        except ValueError:
            continue
        seen.setdefault(x, word)
    return list(seen)


def test_divdiff_basics():
    rs = build_root_system("A2")
    x1 = SPoly.var(2, 1)
    # A_i kills constants and satisfies A_i(alpha_i) = 2 - <...> pairing
    for i in range(rs.rank + 1):
        assert divdiff(rs, i, SPoly.one(2)).is_zero()
        a = scalar_root(rs, i)
        assert divdiff(rs, i, a) == SPoly.const(2, 2)
    # twisted Leibniz: A_i(fg) = A_i(f) g + s_i(f) A_i(g)
    rng = random.Random(53)
    for _ in range(30):
        f = SPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                      rng.randint(-3, 3)})
        g = SPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                      rng.randint(-3, 3)})
        for i in range(rs.rank + 1):
            lhs = divdiff(rs, i, f * g)
            rhs = divdiff(rs, i, f) * g + reflect_poly(rs, i, f) * divdiff(
                rs, i, g)
            assert lhs == rhs
    assert divdiff(rs, 1, x1 * x1) == 2 * x1 - scalar_root(rs, 1)


def test_letters_on_linear_polynomials_from_the_cartan_matrix():
    # d_i(w_k) = <w_k, alpha_i_vee>: delta_ik for i >= 1 and -theta_vee_k for
    # i = 0; alpha_i has weight coordinates A[k][i], and -sum_t A[k][t] theta_t
    # for i = 0
    for name in CATALOG + ("G2", "F4"):
        rs = build_root_system(name)
        n, a = rs.rank, rs.cartan
        for i in range(n + 1):
            for k in range(1, n + 1):
                pairing = -rs.theta_coroot[k - 1] if i == 0 else int(k == i)
                assert divdiff(rs, i, SPoly.var(n, k)) == SPoly.const(n, pairing)
            coords = []
            for k in range(n):
                if i == 0:
                    coords.append(-sum(a[k][t] * rs.theta[t] for t in range(n)))
                else:
                    coords.append(a[k][i - 1])
            assert scalar_root(rs, i) == SPoly.weight(coords)


def test_divdiff_squares_to_zero():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        rng = random.Random(59)
        for _ in range(20):
            f = SPoly(rs.rank, {tuple(rng.randint(0, 2)
                                      for _ in range(rs.rank)):
                                rng.randint(-3, 3)})
            for i in range(rs.rank + 1):
                assert divdiff(rs, i, divdiff(rs, i, f)).is_zero()


def test_reflect_poly_is_involution():
    rs = build_root_system("B2")
    rng = random.Random(61)
    for _ in range(20):
        f = SPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                      rng.randint(-3, 3)})
        for i in range(rs.rank + 1):
            assert reflect_poly(rs, i, reflect_poly(rs, i, f)) == f


def test_weyl_act_poly_factors_through_words():
    rs = build_root_system("A2")
    w = from_word(rs, (1, 2))
    f = SPoly.var(2, 1) * SPoly.var(2, 2) + SPoly.var(2, 1)
    by_word = reflect_poly(rs, 1, reflect_poly(rs, 2, f))
    assert weyl_act_poly(w, f) == by_word


def test_reflect_poly_matches_the_reflection_formula():
    # s_i(w_k) = w_k - <w_k, alpha_i_vee> alpha_i with both terms read off the
    # Cartan matrix and theta, and alpha_i d_i(f) = f - s_i(f), for every
    # letter 0..n; s_0 acts as s_theta
    rng = random.Random(73)
    for name in CATALOG + ("G2", "F4"):
        rs = build_root_system(name)
        n = rs.rank
        for i in range(n + 1):
            images = [SPoly.weight(v)
                      for v in reflection_weight_images(rs.cartan, rs.theta, i)]
            for k in range(n):
                assert reflect_poly(rs, i, SPoly.var(n, k + 1)) == images[k]
            root = SPoly.weight(
                [-sum(a * b for a, b in zip(rs.cartan[k], rs.theta)) if i == 0
                 else rs.cartan[k][i - 1] for k in range(n)])
            for _ in range(3):
                f = SPoly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                              rng.randint(-3, 3) for _ in range(3)})
                assert reflect_poly(rs, i, f) == f.subst(images)
                assert root * divdiff(rs, i, f) == f - f.subst(images)


def test_the_oracle_quotient_is_exact_or_refused():
    # the recursion oracle's d_i: alpha f / alpha = f, and a remainder raises,
    # whether it is a monomial outside the ideal or a fractional coefficient
    rs = build_root_system("B2")
    rng = random.Random(89)
    for i in range(rs.rank + 1):
        root, _ = reflection_data(rs.cartan, rs.theta, i)
        alpha = SPoly.weight(root)
        for _ in range(5):
            f = SPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                          rng.randint(-3, 3) for _ in range(3)})
            assert exact_quotient((alpha * f).terms, root) == f.terms
    with pytest.raises(ArithmeticError):
        exact_quotient({(1, 0): 1, (0, 1): 1}, [1, -1])
    with pytest.raises(ArithmeticError):
        exact_quotient({(1, 0): 1}, [2, 0])


def test_embedded_reflections_square_to_one():
    for name in ("A1", "A2"):
        rs = build_root_system(name)
        for i in range(rs.rank + 1):
            s = embed_group(affine_simple_ext(rs, i))
            assert nh_mul(s, s) == nh_one(rs)


def test_braid_relation_a2():
    rs = build_root_system("A2")
    for i, j in ((1, 2), (0, 1), (0, 2)):
        si = embed_group(affine_simple_ext(rs, i))
        sj = embed_group(affine_simple_ext(rs, j))
        lhs = nh_mul(si, nh_mul(sj, si))
        rhs = nh_mul(sj, nh_mul(si, sj))
        assert lhs == rhs


def test_basis_multiplication_matches_word_concatenation():
    # A_x A_y = A_{xy} when lengths add, else 0, on the extended group: every
    # short element also appears times each central element on either side
    rs = build_root_system("A2")
    short = _short_elements(rs, 3)
    taus = [z.to_ext() for z in central_elements(rs)]
    elems = list({e: None for x in short for t in taus
                  for e in (aff_mul(t, x), aff_mul(x, t))})
    assert len(elems) > len(short)
    from qseidel.affine import aff_length
    kept = 0
    for x in elems:
        for y in elems:
            prod = nh_mul(nh_basis(x), nh_basis(y))
            z = aff_mul(x, y)
            if aff_length(z) == aff_length(x) + aff_length(y):
                assert prod == nh_basis(z)
                kept += 1
            else:
                assert prod == nh_zero(rs)
    assert 0 < kept < len(elems) ** 2


def test_central_twist_in_products():
    # tau A_{s_i} tau^-1 = A_{s_{tau(i)}} with tau(i) the diagram rotation
    from qseidel.affine import aff_inv
    rs = build_root_system("A2")
    zs = [z for z in central_elements(rs) if z.node is not None]
    for z in zs:
        for i in range(rs.rank + 1):
            lhs = nh_mul(
                nh_mul(embed_group(z.to_ext()),
                       nh_basis(affine_simple_ext(rs, i))),
                embed_group(aff_inv(z.to_ext())))
            j = central_dynkin_action(z, i)
            assert lhs == nh_basis(affine_simple_ext(rs, j))


def test_scalar_commutation_rule():
    # A_i f = A_i(f) + s_i(f) A_i and tau f = tau(f) tau as operators
    rs = build_root_system("A2")
    zs = central_elements(rs)
    rng = random.Random(67)
    twisted = 0
    for _ in range(15):
        f = SPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                      rng.randint(-2, 2)})
        for i in range(rs.rank + 1):
            ai = nh_basis(affine_simple_ext(rs, i))
            lhs = nh_mul(ai, nh_scalar(rs, f))
            rhs = nh_add(nh_scalar(rs, divdiff(rs, i, f)),
                         nh_mul(nh_scalar(rs, reflect_poly(rs, i, f)), ai))
            assert lhs == rhs
        for z in zs:
            tau = nh_basis(z.to_ext())
            lhs = nh_mul(tau, nh_scalar(rs, f))
            assert lhs == nh_mul(nh_scalar(rs, central_act_poly(z, f)), tau)
            assert lhs == NilHeckeElt(rs, {z.to_ext(): central_act_poly(z, f)})
            twisted += central_act_poly(z, f) != f
    assert twisted > 0


def test_central_act_poly_identity_for_trivial():
    rs = build_root_system("A2")
    triv = next(z for z in central_elements(rs) if z.node is None)
    f = SPoly.var(2, 1) + 2 * SPoly.var(2, 2)
    assert central_act_poly(triv, f) == f


def test_xi_unit_action():
    # acting by x on the unit vector reads off the xi_x coefficient family
    rs = build_root_system("A1")
    s0 = affine_simple_ext(rs, 0)
    s1 = affine_simple_ext(rs, 1)
    v = act_on_xi(s1, xi_unit(rs))
    assert all(is_waff_minus(x) for x in v.terms)
    v2 = act_on_xi(s0, act_on_xi(s1, xi_unit(rs)))
    direct = act_on_xi(aff_mul(s0, s1), xi_unit(rs))
    assert v2.terms == direct.terms


def test_xi_action_refuses_a_key_outside_the_minimal_representatives():
    rs = build_root_system("A1")
    s0 = affine_simple_ext(rs, 0)
    s1 = affine_simple_ext(rs, 1)  # in W, so not minimal in its coset
    assert not is_waff_minus(s1)
    mixed = NilHeckeElt(rs, {identity_aff(rs): SPoly.one(1), s1: SPoly.var(1, 1)})
    for v in (nh_basis(s1), mixed):
        with pytest.raises(ValueError, match="minimal coset representatives"):
            act_on_xi(s0, v)
    assert act_on_xi(s0, xi_unit(rs)) == nh_basis(s0)


def test_module_action_matches_engine():
    # A_x . xi_y via the coefficient rule equals the engine product mod the
    # translation ideal
    rs = build_root_system("A2")
    rng = random.Random(71)
    elems = _short_elements(rs, 3)
    minus = [x for x in elems if is_waff_minus(x)]
    checked = 0
    for _ in range(40):
        x = rng.choice(elems)
        y = rng.choice(minus)
        via_engine = nh_mod_Jtilde(nh_mul(nh_basis(x), nh_basis(y)))
        via_rule = act_on_xi(x, nh_basis(y))
        assert via_engine == via_rule
        checked += 1
    assert checked == 40


def test_nh_linear_structure():
    rs = build_root_system("A1")
    a = nh_basis(affine_simple_ext(rs, 0))
    b = nh_basis(affine_simple_ext(rs, 1))
    assert nh_sub(nh_add(a, b), b) == a
    assert nh_add(a, nh_zero(rs)) == a
    assert nh_mul(nh_one(rs), a) == a
    assert nh_mul(a, nh_one(rs)) == a


def _random_ext(rng, rs, zs, max_len=3):
    """A word of up to max_len random letters, with a central factor on the
    left, on the right or on neither side."""
    x = identity_aff(rs)
    for _ in range(rng.randint(0, max_len)):
        x = aff_mul(x, affine_simple_ext(rs, rng.randint(0, rs.rank)))
    side = rng.randrange(3)
    if side and len(zs) > 1:
        t = rng.choice(zs[1:]).to_ext()
        x = aff_mul(t, x) if side == 1 else aff_mul(x, t)
    return x


def test_products_match_the_recursion():
    # nh_mul and embed_group against the term-by-term two-branch recursion,
    # on basis elements with polynomial coefficients and on embeddings
    twisted = 0
    for name in ("A1", "A2", "B2", "G2", "A3"):
        rs = build_root_system(name)
        n = rs.rank
        zs = central_elements(rs)
        rng = random.Random(79)
        for _ in range(25):
            x, y = _random_ext(rng, rs, zs), _random_ext(rng, rs, zs)
            ex, ey = embed_group(x), embed_group(y)
            assert ex == embed_by_products(x)
            assert ey == embed_by_products(y)
            f = SPoly(n, {tuple(rng.randint(0, 1) for _ in range(n)):
                          rng.randint(-2, 2) for _ in range(2)})
            mixed = NilHeckeElt(rs, add_terms([(x, f), (y, SPoly.var(n, n))]))
            for a, b in ((ex, ey), (ey, ex), (mixed, ey), (ex, mixed),
                         (nh_basis(x), mixed)):
                assert nh_mul(a, b) == nh_mul_by_recursion(a, b)
            twisted += any(rs.minuscule_class_node(e.lam) is not None for e in (x, y))
    assert twisted > 0


def test_one_root_ascent_matches_the_length_comparison():
    # l(s_i y) > l(y) read off the one affine root y^-1(alpha_i), against the
    # two lengths, for every letter 0..n on words of up to 8 letters
    rng = random.Random(83)
    node0 = set()
    for name in CATALOG + ("G2", "F4"):
        rs = build_root_system(name)
        zs = central_elements(rs)
        for _ in range(40):
            y = _random_ext(rng, rs, zs, max_len=8)
            for i in range(rs.rank + 1):
                up = aff_length(aff_mul(affine_simple_ext(rs, i), y)) > aff_length(y)
                assert left_ascent(y, i) == up
                if i == 0:
                    node0.add(up)
    assert node0 == {False, True}


def test_warm_memos_change_no_result():
    # the second round reads embeddings and letter rows the first one cached,
    # so a shared result changed in place would show as a failure or a count
    counts = {}
    for _ in range(2):
        for seed in range(4):
            (res,) = run_suites(RunConfig(suite="nilhecke", seed=seed))
            assert res.failures == []
            assert counts.setdefault(seed, res.checks) == res.checks
    assert counts[0] == 540
    assert embed_group.cache_info().hits > 0
    assert _split.cache_info().hits > 0
    for _ in range(2):
        test_reflect_poly_matches_the_reflection_formula()


def test_a_long_element_is_refused_before_its_word_is_built(monkeypatch):
    # the length is compared with EXPANSION_CAP before any letter is peeled,
    # so refusing a 2,400-letter element builds no word
    _split.cache_clear()
    words = []
    monkeypatch.setattr("qseidel.nilhecke.reduced_word_affine",
                        lambda h: words.append(h) or reduced_word_affine(h))
    rs = build_root_system("A2")
    tau = central_elements(rs)[1].to_ext()
    x = aff_mul(tau, translation(rs, rs.coroot_to_coweight((600, 0))))
    assert aff_length(x) == 2400
    for expand in (embed_group, lambda y: nh_mul(nh_basis(y), nh_one(rs))):
        with pytest.raises(ValueError, match=f"beyond length {EXPANSION_CAP}"):
            expand(x)
    assert words == []
    assert _split.cache_info().currsize == 0  # the refusal was not cached
    # at the cap the word is built, once per element
    y = aff_mul(tau, translation(rs, rs.coroot_to_coweight((2, 0))))
    assert aff_length(y) == EXPANSION_CAP
    for _ in range(2):
        assert nh_mul(nh_basis(y), nh_one(rs)) == nh_basis(y)
    assert len(words) == 1 and aff_length(words[0]) == EXPANSION_CAP
