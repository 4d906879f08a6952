import itertools
import random

import pytest

from qseidel.affine import (
    CentralElt,
    ExtAffElt,
    aff_act_root,
    aff_inv,
    aff_length,
    aff_mul,
    affine_simple_ext,
    central_dynkin_action,
    central_elements,
    central_inv,
    central_mul,
    central_order,
    eta_P,
    ext,
    from_word_affine,
    hat_decompose,
    identity_aff,
    in_parabolic_aff,
    inversion_count_oracle,
    is_antidominant,
    is_waff_minus,
    is_wpaff,
    peterson_decompose,
    pi_P,
    pi_P_ext,
    reduced_word_affine,
    translation,
)
from qseidel.rootsys import CATALOG, build_root_system, dot, vneg
from qseidel.weyl import (
    enumerate_weyl,
    from_word,
    parabolic,
    simple_reflection,
    w_inv,
)

from oracles import INVARIANT_FACTORS, coweight_order_in_quotient, windowed_pi_p


def _random_elt(rs, rng, box=2):
    word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
    lam = tuple(rng.randint(-box, box) for _ in range(rs.rank))
    return ExtAffElt(from_word(rs, word), lam)


def test_group_law_on_translations():
    # t_lam t_mu = t_{lam+mu}; w t_lam w^-1 = t_{w(lam)}
    rng = random.Random(5)
    for name in CATALOG:
        rs = build_root_system(name)
        elems = enumerate_weyl(rs)
        for _ in range(10):
            lam = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            a = aff_mul(translation(rs, lam), translation(rs, mu))
            assert a == translation(rs, tuple(x + y for x, y in zip(lam, mu)))
            w = rng.choice(elems)
            conj = aff_mul(aff_mul(ext(w), translation(rs, lam)),
                           aff_inv(ext(w)))
            assert conj == translation(rs, w.act_coweight(lam))


def test_associativity_and_inverse():
    rng = random.Random(9)
    for name in ("A2", "B2", "C3"):
        rs = build_root_system(name)
        for _ in range(25):
            x, y, z = (_random_elt(rs, rng) for _ in range(3))
            assert aff_mul(aff_mul(x, y), z) == aff_mul(x, aff_mul(y, z))
            assert aff_mul(x, aff_inv(x)) == identity_aff(rs)
            assert aff_mul(aff_inv(x), x) == identity_aff(rs)


def test_affine_action_is_homomorphism():
    rng = random.Random(13)
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        affine_roots = [rs.affine_simple(i) for i in range(rs.rank + 1)]
        for _ in range(25):
            x, y = _random_elt(rs, rng), _random_elt(rs, rng)
            for beta in affine_roots:
                assert aff_act_root(aff_mul(x, y), beta) == aff_act_root(
                    x, aff_act_root(y, beta))


def test_translation_action_on_affine_roots():
    # t_lam(alpha + n delta) = alpha + (n - <lam, alpha>) delta
    for name in CATALOG:
        rs = build_root_system(name)
        lam = tuple(range(1, rs.rank + 1))
        t = translation(rs, lam)
        for i in range(rs.rank + 1):
            beta = rs.affine_simple(i)
            img = aff_act_root(t, beta)
            assert img.finite == beta.finite
            assert img.level == beta.level - dot(lam, beta.finite)


def test_affine_simple_reflections():
    for name in CATALOG:
        rs = build_root_system(name)
        for i in range(rs.rank + 1):
            s = affine_simple_ext(rs, i)
            assert aff_mul(s, s) == identity_aff(rs)
            assert aff_length(s) == 1
        # s_0 is the theta-reflection times t_{-theta^vee}
        s0 = affine_simple_ext(rs, 0)
        tc = rs.coroot_to_coweight(rs.coroot_of(rs.theta))
        assert s0.lam == vneg(tc)


def test_length_matches_inversion_oracle():
    rng = random.Random(17)
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for _ in range(40):
            word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
            coords = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(coords))
            assert aff_length(x) == inversion_count_oracle(x)


def test_translation_length():
    # for antidominant lam, l(t_lam) = -sum_{alpha>0} <lam, alpha>
    for name in CATALOG:
        rs = build_root_system(name)
        lam = tuple(-1 for _ in range(rs.rank))
        total = -sum(dot(lam, r) for r in rs.pos_roots)
        assert aff_length(translation(rs, lam)) == total


def test_affine_word_round_trip():
    rng = random.Random(19)
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        for _ in range(20):
            x = _random_elt(rs, rng, box=1)
            tau, hat = hat_decompose(x)
            word = reduced_word_affine(hat)
            assert len(word) == aff_length(hat)
            assert from_word_affine(rs, word) == hat


def test_central_group_structure():
    for name in CATALOG:
        rs = build_root_system(name)
        zs = central_elements(rs)
        expected_order = 1
        for f in INVARIANT_FACTORS[name]:
            expected_order *= f
        assert len(zs) == expected_order
        # closure and inverses
        table = set(zs)
        for z1 in zs:
            assert central_inv(z1) in table
            assert central_mul(z1, central_inv(z1)).is_identity()
            for z2 in zs:
                assert central_mul(z1, z2) in table


def test_central_order_against_lattice_quotient():
    for name in CATALOG:
        rs = build_root_system(name)
        for z in central_elements(rs):
            if z.node is None:
                assert central_order(z) == 1
                continue
            expect = coweight_order_in_quotient(
                rs.cartan, rs.fund_coweight(z.node))
            assert central_order(z) == expect


def test_central_orders_a_type():
    # the nontrivial classes of A_n all generate: order divides n+1
    rs = build_root_system("A4")
    orders = sorted(central_order(z) for z in central_elements(rs))
    assert orders == [1, 5, 5, 5, 5]
    rs = build_root_system("A3")
    orders = sorted(central_order(z) for z in central_elements(rs))
    assert orders == [1, 2, 4, 4]
    rs = build_root_system("D4")
    orders = sorted(central_order(z) for z in central_elements(rs))
    assert orders == [1, 2, 2, 2]


def test_central_conjugation_permutes_affine_simples():
    # z s_i z^-1 = s_{z(i)} with z(i) the recorded diagram action
    for name in CATALOG:
        rs = build_root_system(name)
        for z in central_elements(rs):
            if z.node is None:
                continue
            zx = z.to_ext()
            for i in range(rs.rank + 1):
                lhs = aff_mul(aff_mul(zx, affine_simple_ext(rs, i)),
                              aff_inv(zx))
                assert lhs == affine_simple_ext(rs, central_dynkin_action(z, i))


def test_central_dynkin_action_a2_table():
    rs = build_root_system("A2")
    zs = {z.node: z for z in central_elements(rs)}
    assert {i: central_dynkin_action(zs[1], i) for i in range(3)} == {
        0: 2, 1: 0, 2: 1}
    assert {i: central_dynkin_action(zs[2], i) for i in range(3)} == {
        0: 1, 1: 2, 2: 0}


def test_hat_decompose_round_trip():
    rng = random.Random(23)
    for name in CATALOG:
        rs = build_root_system(name)
        for _ in range(30):
            x = _random_elt(rs, rng)
            tau, hat = hat_decompose(x)
            assert aff_mul(tau.to_ext(), hat) == x
            assert rs.in_coroot_lattice(hat.lam)
            assert aff_length(x) == aff_length(hat)


def test_waff_minus_translations():
    # t_lam is minimal in W t_lam W exactly when lam is antidominant
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for lam in itertools.product(range(-2, 3), repeat=rs.rank):
            t = translation(rs, lam)
            if rs.in_coroot_lattice(lam):
                assert is_waff_minus(t) == is_antidominant(lam)


def test_wpaff_membership_examples():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    # x in (W^P)_aff: over alpha in R_P^+, <lam, alpha> = 0 if w(alpha) > 0
    # else -1; here R_P^+ = {alpha_2}
    assert is_wpaff(ExtAffElt(from_word(rs, (1, 2)), (-1, -1)), p)
    assert not is_wpaff(ExtAffElt(from_word(rs, (1, 2)), (0, 0)), p)
    assert is_wpaff(identity_aff(rs), p)
    assert not is_wpaff(ext(simple_reflection(rs, 2)), p)


def test_pi_p_properties():
    rng = random.Random(29)
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        nodes_choices = [(1,), tuple(range(1, rs.rank + 1))]
        for nodes in nodes_choices:
            p = parabolic(rs, nodes)
            for _ in range(20):
                x = _random_elt(rs, rng)
                x1 = pi_P_ext(x, p)
                x2 = aff_mul(aff_inv(x1), x)
                assert is_wpaff(x1, p)
                assert in_parabolic_aff(x2, p)
                # projection is idempotent on its image
                assert pi_P_ext(x1, p) == x1


def test_pi_p_matches_windowed_brute_force():
    # general w t_lambda (lambda in Q_vee), not only translations, on every
    # catalog type; the window is wider than any residual shift seen here
    rng = random.Random(41)
    for name in CATALOG:
        rs = build_root_system(name)
        n = rs.rank
        subsets = [s for r in range(1, n + 1)
                   for s in itertools.combinations(range(1, n + 1), r)]
        for _ in range(25):
            word = [rng.randint(1, n) for _ in range(rng.randint(0, 6))]
            c = [rng.randint(-2, 2) for _ in range(n)]
            lam = tuple(sum(c[k] * rs.cartan[k][t] for k in range(n))
                        for t in range(n))
            nodes = rng.choice(subsets)
            x1 = pi_P(ExtAffElt(from_word(rs, word), lam), parabolic(rs, nodes))
            hits = windowed_pi_p(rs.cartan, word, lam, nodes, 6)
            assert hits == [(x1.w.images, x1.lam)], (name, word, lam, nodes)


def test_eta_p_reads_coroot_coordinates():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    theta_cw = rs.coroot_to_coweight(rs.coroot_of(rs.theta))
    assert eta_P(rs, theta_cw, p) == (1,)
    full = parabolic(rs, (1, 2))
    assert eta_P(rs, theta_cw, full) == (1, 1)


def test_peterson_decompose_round_trip():
    rng = random.Random(31)
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for nodes in ((1,), tuple(range(1, rs.rank + 1))):
            p = parabolic(rs, nodes)
            seen = 0
            for _ in range(40):
                coords = tuple(-rng.randint(0, 2) for _ in range(rs.rank))
                lam = rs.coroot_to_coweight(coords)
                if not is_antidominant(lam):
                    continue
                w = from_word(rs, [rng.randint(1, rs.rank)
                                   for _ in range(rng.randint(0, 3))])
                y = aff_mul(ext(w), pi_P_ext(translation(rs, lam), p))
                if not (is_waff_minus(y) and is_wpaff(y, p)):
                    continue
                seen += 1
                u, nu = peterson_decompose(y, p)
                assert is_antidominant(nu)
                assert aff_mul(ext(u), pi_P_ext(translation(rs, nu), p)) == y
                # the recovered eta class agrees with the one we built from
                assert eta_P(rs, nu, p) == eta_P(rs, lam, p)
            assert seen > 0


def test_peterson_decompose_rejects_bad_input():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    with pytest.raises(ValueError):
        peterson_decompose(translation(rs, (1, 1)), p)


def test_identity_and_translation_basics():
    for name in CATALOG:
        rs = build_root_system(name)
        assert identity_aff(rs).is_identity()
        assert aff_length(identity_aff(rs)) == 0
        z = tuple(0 for _ in range(rs.rank))
        assert translation(rs, z) == identity_aff(rs)
