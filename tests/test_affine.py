import itertools
import random

import pytest

from qseidel import affine, rootsys, weyl
from qseidel.affine import (
    _affine_descent,
    CentralElt,
    ExtAffElt,
    aff_act_root,
    aff_inv,
    aff_length,
    aff_mul,
    affine_simple_ext,
    central_dynkin_action,
    central_elements,
    central_mul,
    central_order,
    eta_P,
    ext,
    hat_decompose,
    identity_aff,
    in_parabolic_aff,
    inversion_count_oracle,
    is_antidominant,
    is_waff_minus,
    is_wpaff,
    left_ascent,
    peterson_decompose,
    pi_P,
    reduced_word_affine,
    translation,
)
from qseidel.rootsys import (
    CATALOG,
    AffineRoot,
    build_root_system,
    dot,
    is_positive_vec,
    vadd,
    vneg,
    vsub,
)
from qseidel.weyl import (
    enumerate_parabolic_subgroup,
    enumerate_weyl,
    from_word,
    identity,
    involution,
    longest_element,
    parabolic,
    reduced_word,
    simple_reflection,
    v_element,
    w_inv,
    w_mul,
)

from oracles import (
    INVARIANT_FACTORS,
    affine_word_by_root_action,
    antidominant_coset_points,
    coweight_order_in_quotient,
    inversions_by_level_sweep,
    pi_p_by_candidates,
    windowed_pi_p,
)


def _random_elt(rs, rng, box=2):
    word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
    lam = tuple(rng.randint(-box, box) for _ in range(rs.rank))
    return ExtAffElt(from_word(rs, word), lam)


def _off_lattice_coweight(rs, rng, box):
    """A coweight off the coroot lattice: coroot coordinates in [-box, box]
    plus the fundamental coweight of a minuscule node."""
    c = tuple(rng.randint(-box, box) for _ in range(rs.rank))
    return vadd(rs.coroot_to_coweight(c), rs.fund_coweight(rng.choice(rs.minuscule_nodes)))


def test_elements_and_affine_roots_are_values():
    # equal however they are built, hashed as the pair they hold, printed as
    # before, and with no instance __dict__ to store anything else in
    rs = build_root_system("A2")
    x = ExtAffElt(from_word(rs, (1, 2)), (1, -1))
    y = aff_mul(ext(from_word(rs, (1, 2))), translation(rs, (1, -1)))
    assert x is not y and x == y and hash(x) == hash(y)
    assert hash(x) == hash((x.w, x.lam))
    assert x != (x.w, x.lam) and x != translation(rs, (1, -1))
    assert repr(x) == "Aff(W[1.2], t[1, -1])"
    beta = AffineRoot((1, 0), 1)
    assert beta == AffineRoot((1, 0), 1) != AffineRoot((1, 0), 0)
    assert hash(beta) == hash(((1, 0), 1)) and beta != ((1, 0), 1)
    assert repr(beta) == "AffineRoot(finite=(1, 0), level=1)"
    for value in (x, beta):
        assert not hasattr(value, "__dict__")


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
    # half the left factors have lambda_x = 0, which aff_mul reads without the
    # coweight action; both branches must compose like the action itself
    rng = random.Random(13)
    for name in CATALOG + ("G2", "F4"):
        rs = build_root_system(name)
        affine_roots = [rs.affine_simple(i) for i in range(rs.rank + 1)]
        for alpha in (rs.theta, rs.simple_root(1)):
            affine_roots += [AffineRoot(alpha, 1), AffineRoot(vneg(alpha), 1)]
        for k in range(24):
            x, y = _random_elt(rs, rng), _random_elt(rs, rng)
            if k % 2:
                x = ext(x.w)
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


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4"))
def test_the_inversion_oracle_stops_early_without_losing_a_count(name):
    # the oracle stops each root's sweep at its first positive level; the
    # exhaustive sweep must find the same count, also where pairings reach 5
    rs = build_root_system(name)
    rng = random.Random(31)
    words = [(), reduced_word(longest_element(rs))]
    words += [tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 8)))
              for _ in range(4)]
    coords = [(0,) * rs.rank, (1,) * rs.rank, (-3,) * rs.rank]
    coords += [tuple(rng.randint(-3, 3) for _ in range(rs.rank)) for _ in range(5)]
    widest = 0
    for word in words:
        for c in coords:
            x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(c))
            widest = max(widest, max(abs(dot(x.lam, a)) for a in rs.pos_roots))
            assert inversion_count_oracle(x) == inversions_by_level_sweep(x) == aff_length(x)
    assert widest >= 5
    # off the coroot lattice the oracle counts too, and agrees with the
    # exhaustive sweep and the length; G2 and F4 have no such fundamental
    # coweight
    units = [tuple(int(t == k) for t in range(rs.rank)) for k in range(rs.rank)]
    off = [m for m in units if not rs.in_coroot_lattice(m)]
    assert bool(off) == (name not in ("G2", "F4"))
    for m in off:
        for word in words:
            for lam in (m, vneg(m)):
                x = ExtAffElt(from_word(rs, word), lam)
                assert inversion_count_oracle(x) == inversions_by_level_sweep(x) == aff_length(x)


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
            y = identity_aff(rs)
            for i in word:
                y = aff_mul(y, affine_simple_ext(rs, i))
            assert y == hat


def _hats_of_positive_length(rs, rng, count):
    hats = []
    while len(hats) < count:
        hat = hat_decompose(_random_elt(rs, rng, box=2))[1]
        if aff_length(hat):
            hats.append(hat)
    return hats


def test_reduced_word_affine_walks_without_building_elements(monkeypatch):
    # one aff_length for the cap, then the walk on (perm, lambda): no product
    # and no per-letter length
    rng = random.Random(37)
    cases = [(rs, _hats_of_positive_length(rs, rng, 10))
             for rs in map(build_root_system, ("A2", "B3", "G2"))]
    calls = {"aff_length": 0, "aff_mul": 0}
    for name in calls:
        real = getattr(affine, name)
        monkeypatch.setattr(affine, name, lambda *a, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    for rs, hats in cases:
        for hat in hats:
            calls.update(aff_length=0, aff_mul=0)
            word = reduced_word_affine(hat)
            assert calls == {"aff_length": 1, "aff_mul": 0}, word
            assert len(word) == aff_length(hat)


def test_reduced_word_affine_refuses_a_translation_off_the_coroot_lattice():
    # t_{varpi_1_vee} on A2 is in P_vee but not in Q_vee: no word over 0..n
    rs = build_root_system("A2")
    for x in (translation(rs, (1, 0)), ExtAffElt(from_word(rs, (1,)), (0, -1))):
        with pytest.raises(ValueError, match="coroot-lattice translation"):
            reduced_word_affine(x)


def test_reduced_word_affine_refuses_a_walk_that_takes_an_ascent(monkeypatch):
    # the walk checks its end, not each letter: one letter that is not a
    # descent leaves it two above the identity after aff_length(x) letters.
    # On A1, s_1 walked through s_0 ends on t_{-alpha_vee}, whose permutation
    # is the identity: only its lambda shows the wrong letter.
    rng = random.Random(41)
    real = affine._affine_descent
    a1 = build_root_system("A1")
    cases = [(a1, [affine_simple_ext(a1, 1)])]
    cases += [(rs, _hats_of_positive_length(rs, rng, 10))
              for rs in map(build_root_system, ("A2", "B3", "G2"))]
    for rs, hats in cases:
        for hat in hats:
            ascents = [i for i in range(rs.rank + 1)
                       if aff_length(aff_mul(hat, affine_simple_ext(rs, i))) > aff_length(hat)]
            taken = []

            def descent(rs, perm, lam, ascent=ascents[0]):
                taken.append(ascent)
                return ascent if len(taken) == 1 else real(rs, perm, lam)

            monkeypatch.setattr(affine, "_affine_descent", descent)
            with pytest.raises(AssertionError, match="did not end on the identity"):
                reduced_word_affine(hat)
            assert len(taken) == aff_length(hat)
            monkeypatch.setattr(affine, "_affine_descent", real)
            assert len(reduced_word_affine(hat)) == aff_length(hat)


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4"))
def test_reduced_word_affine_matches_the_root_action_descent(name):
    # The closed-form descent against x applied to each affine simple root,
    # over a box of coroot-lattice translations and a few finite parts.
    rs = build_root_system(name)
    rng = random.Random(23)
    theta_cw = rs.coroot_to_coweight(rs.theta_coroot)
    words = [(), reduced_word(longest_element(rs))]
    words += [tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 6)))
              for _ in range(2)]
    for word in words:
        for coords in itertools.product((-1, 0, 1), repeat=rs.rank):
            lam = rs.coroot_to_coweight(coords)
            want = affine_word_by_root_action(rs.cartan, rs.theta, theta_cw, word, lam)
            assert reduced_word_affine(ExtAffElt(from_word(rs, word), lam)) == want


def central_inv(z):
    if z.is_identity():
        return z
    tau, hat = hat_decompose(aff_inv(z))
    if not hat.is_identity():
        raise AssertionError("inverse of a central element has a non-identity hat part")
    return tau


def test_central_elements_are_the_length_zero_elements_they_name():
    # every type: tau_i is an ExtAffElt of length zero equal to v_i t_{-varpi_i_vee},
    # and tau_i^-1 = tau_{f(i)} with f the diagram involution
    for name in rootsys._BY_NAME:
        rs = build_root_system(name)
        f = involution(rs)
        zs = central_elements(rs)
        assert [z.node for z in zs] == [None, *rs.minuscule_nodes]
        assert zs[0] == identity_aff(rs) and zs[0].is_identity()
        for z in zs[1:]:
            assert isinstance(z, ExtAffElt) and not z.is_identity()
            assert z == ExtAffElt(v_element(rs, z.node), vneg(rs.fund_coweight(z.node)))
            assert hash(z) == hash(ExtAffElt(z.w, z.lam)) and repr(z).startswith("Aff(")
            assert aff_length(z) == 0
            assert aff_inv(z) == CentralElt(rs, f[z.node - 1])


@pytest.mark.parametrize("bad", [True, 1.0, "1", 0, 3])
def test_central_element_refuses_a_node_that_is_not_a_minuscule_int(bad):
    # True and 1.0 were once taken as node 1
    with pytest.raises(ValueError, match="is not minuscule in A2"):
        CentralElt(build_root_system("A2"), bad)


def test_affine_letters_are_ints_in_range():
    # the memo is typed: True and 1.0 miss node 1's entry and are refused,
    # False and 0.0 are not read as node 0, and a letter past the rank is a
    # ValueError, not a KeyError
    rs = build_root_system("A2")
    assert affine_simple_ext(rs, 1) == ext(simple_reflection(rs, 1))
    before = affine_simple_ext.cache_info().currsize
    for bad, match in ((True, "node must be an integer in 0..2, got True"),
                       (1.0, "node must be an integer in 0..2, got 1.0"),
                       (False, "node must be an integer in 0..2, got False"),
                       (0.0, "node must be an integer in 0..2, got 0.0"),
                       (3, "node must be an integer in 0..2, got 3"),
                       (-1, "node must be an integer in 0..2, got -1")):
        with pytest.raises(ValueError, match=match):
            affine_simple_ext(rs, bad)
    assert affine_simple_ext.cache_info().currsize == before
    for bad in (3, True, 1.0):
        with pytest.raises(ValueError, match="node must be an integer in 0..2"):
            left_ascent(identity_aff(rs), bad)


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
            for i in range(rs.rank + 1):
                lhs = aff_mul(aff_mul(z, affine_simple_ext(rs, i)),
                              aff_inv(z))
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
            assert aff_mul(tau, hat) == x
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


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4"))
def test_every_sign_reader_matches_the_root_action(name):
    # each reader of the sign rule against the sign of aff_act_root(...) on
    # extended elements. x(beta + n delta) = x(beta) + n delta, so a positive
    # root of (W_P)_aff stays positive under x once alpha and delta - alpha do.
    # Members of W_aff^- come from a peel by the root action and members of
    # (W^P)_aff from pi_P, so both answers occur for each predicate.
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(name)
    simple = [rs.affine_simple(i) for i in range(n + 1)]
    ps = [parabolic(rs, s) for r in range(1, n + 1)
          for s in itertools.combinations(range(1, n + 1), r)]
    levi = {p: [a for a in rs.pos_roots if not any(a[i - 1] for i in p.nodes)] for p in ps}

    def sends_negative(x, beta):
        # beta + n delta > 0 exactly when n > 0, or n = 0 and beta > 0
        image = aff_act_root(x, beta)
        return image.level < 0 or (image.level == 0 and not is_positive_vec(image.finite))

    def descents(x):
        return [i for i in range(n + 1) if sends_negative(x, simple[i])]

    seen = set()
    for _ in range(20):
        x = ExtAffElt(from_word(rs, [rng.randint(1, n) for _ in range(rng.randint(0, 8))]),
                      tuple(rng.randint(-3, 3) for _ in range(n)))
        minus = x
        while finite := [i for i in descents(minus) if i]:
            minus = aff_mul(minus, affine_simple_ext(rs, finite[0]))
        for y in (x, minus, pi_P(x, rng.choice(ps))):
            down = descents(y)
            assert _affine_descent(y.rs, y.w.perm, y.lam) == (down[0] if down else None), y
            assert is_waff_minus(y) == (down in ([], [0])), y
            seen.add(("W_aff^-", is_waff_minus(y)))
            inv = aff_inv(y)
            for i in range(n + 1):
                assert left_ascent(y, i) != sends_negative(inv, simple[i]), (y, i)
            hat = hat_decompose(y)[1]
            assert aff_length(y) == aff_length(hat) == inversion_count_oracle(hat), y
            for p in ps:
                want = not any(sends_negative(y, AffineRoot(a, 0))
                               or sends_negative(y, AffineRoot(vneg(a), 1)) for a in levi[p])
                assert is_wpaff(y, p) == want, (y, p.nodes)
                seen.add(("(W^P)_aff", want))
    both = {(k, b) for k in ("W_aff^-", "(W^P)_aff") for b in (False, True)}
    # the only I_P of A1 is {1}, which has no Levi roots
    assert seen == both - ({("(W^P)_aff", False)} if n == 1 else set())


def test_pi_p_properties():
    rng = random.Random(29)
    off = 0
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        nodes_choices = [(1,), tuple(range(1, rs.rank + 1))]
        for nodes in nodes_choices:
            p = parabolic(rs, nodes)
            for _ in range(20):
                x = _random_elt(rs, rng)
                x1 = pi_P(x, p)
                x2 = aff_mul(aff_inv(x1), x)
                assert is_wpaff(x1, p)
                assert in_parabolic_aff(x2, p)
                # projection is idempotent on its image
                assert pi_P(x1, p) == x1
                # on the extended group pi_P(tau hat) = tau pi_P(hat), with
                # hat in the non-extended group
                tau, hat = hat_decompose(x)
                assert x1 == aff_mul(tau, pi_P(hat, p)), (x, nodes)
                off += not tau.is_identity()
    assert off > 0


def test_pi_p_matches_windowed_brute_force():
    # general w t_lambda (lambda in Q_vee, then off it), not only
    # translations, on every catalog type; the window is wider than any
    # residual shift seen here
    rng = random.Random(41)
    off_rng = random.Random(43)
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
        # and off the coroot lattice: lambda shifted by the fundamental
        # coweight of a minuscule node, drawn from a second generator so the
        # draws above stay as they were
        for _ in range(15):
            word = [off_rng.randint(1, n) for _ in range(off_rng.randint(0, 6))]
            lam = _off_lattice_coweight(rs, off_rng, 2)
            assert not rs.in_coroot_lattice(lam)
            nodes = off_rng.choice(subsets)
            x1 = pi_P(ExtAffElt(from_word(rs, word), lam), parabolic(rs, nodes))
            hits = windowed_pi_p(rs.cartan, word, lam, nodes, 6)
            assert hits == [(x1.w.images, x1.lam)], (name, word, lam, nodes)


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4"))
def test_pi_p_matches_the_candidate_solve(name):
    # general w t_lambda against the per-u candidate solve of the oracle; the
    # coroot-lattice draws come first, and a second generator adds two draws
    # off the lattice per I_P (G2 and F4 have none)
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(name)
    off_rng = random.Random(name + " off")
    off = 0
    for r in range(1, n + 1):
        for nodes in itertools.combinations(range(1, n + 1), r):
            p = parabolic(rs, nodes)
            draws = []
            for _ in range(3):
                word = [rng.randint(1, n) for _ in range(rng.randint(0, 6))]
                lam = rs.coroot_to_coweight(tuple(rng.randint(-3, 3) for _ in range(n)))
                draws.append((word, lam))
            for _ in range(2 if rs.minuscule_nodes else 0):
                word = [off_rng.randint(1, n) for _ in range(off_rng.randint(0, 6))]
                draws.append((word, _off_lattice_coweight(rs, off_rng, 3)))
            for word, lam in draws:
                x1 = pi_P(ExtAffElt(from_word(rs, word), lam), p)
                want = pi_p_by_candidates(rs.cartan, word, lam, nodes)
                assert (x1.w.images, x1.lam) == want, (name, word, lam, nodes)
                off += not rs.in_coroot_lattice(lam)
    assert bool(off) == (name not in ("G2", "F4"))


@pytest.mark.parametrize("name", CATALOG)
def test_parabolic_membership_reads_the_inversions(name):
    # w in W_P exactly when every inversion of w lies in R_P^+
    rs = build_root_system(name)
    weyl_all = enumerate_weyl(rs)
    for r in range(1, rs.rank + 1):
        for nodes in itertools.combinations(range(1, rs.rank + 1), r):
            p = parabolic(rs, nodes)
            wp = set(enumerate_parabolic_subgroup(p))
            for w in weyl_all:
                assert in_parabolic_aff(ext(w), p) == (w in wp), (name, nodes, w)


def test_pi_p_of_a_huge_translation_takes_few_steps(monkeypatch):
    # without the translation into the Levi alcove the descent would take
    # about 10**6 steps here. Each descent step is one w_mul, and pi_P makes
    # no other, so the counter counts descent steps; an input that the
    # translation already puts in (W^P)_aff takes none
    steps = []

    def counting_w_mul(a, b):
        steps.append(1)
        return w_mul(a, b)

    monkeypatch.setattr("qseidel.affine.w_mul", counting_w_mul)
    rs = build_root_system("B3")
    total = 0
    for nodes in ((1,), (2,), (3,), (1, 3)):
        for word, c in (((), (10**6, -10**6, 3)),
                        ((1, 2, 3, 2), (-10**6, 7, 10**6 - 1))):
            lam = rs.coroot_to_coweight(c)
            assert max(map(abs, lam)) >= 10**6
            steps.clear()
            x = ExtAffElt(from_word(rs, word), lam)
            x1 = pi_P.__wrapped__(x, parabolic(rs, nodes))
            assert len(steps) < 50, (nodes, word, len(steps))
            total += len(steps)
            want = pi_p_by_candidates(rs.cartan, word, lam, nodes)
            assert (x1.w.images, x1.lam) == want, (nodes, word, c)
    assert total > 0  # the counter still sees the descent


def test_a_descent_step_that_does_not_shorten_fails_fast(monkeypatch):
    # with every s_alpha of the Levi roots the identity, a step no longer
    # lowers sum |e| over R_P^+, and without the budget the descent would
    # never end; the budget turns that into an AssertionError
    monkeypatch.setattr(affine, "reflection", lambda rs, alpha: identity(rs))
    affine._levi.cache_clear()
    try:
        for name, word, c, nodes in (("A2", (1,), (1, 0), (2,)),
                                     ("B3", (1, 2, 3), (2, -1, 1), (1,)),
                                     ("D4", (2, 1, 3), (0, 1, -2, 1), (2,))):
            rs = build_root_system(name)
            x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(c))
            with pytest.raises(AssertionError, match="budget"):
                pi_P.__wrapped__(x, parabolic(rs, nodes))
    finally:
        affine._levi.cache_clear()


@pytest.mark.parametrize("name", CATALOG + ("G2", "F4"))
def test_the_stabiliser_criterion_matches_the_formed_residual(name):
    # affine._same_coset(x1, x, p) against the residual it avoids forming,
    # in_parabolic_aff(x1^-1 x, p). x = x1 y with y = u t_mu, u a word in the
    # nodes off I_P and mu in Q_vee_P, is in x1's coset; a quantum node in
    # the word, a coroot at a quantum node in mu, or a fundamental coweight
    # added to mu (off Q_vee on most types) may move it out
    rs = build_root_system(name)
    n = rs.rank
    rng = random.Random(name)
    seen = set()
    for r in range(1, n + 1):
        for nodes in itertools.combinations(range(1, n + 1), r):
            p = parabolic(rs, nodes)
            for kind, _ in itertools.product(range(4), range(3)):
                word = ([rng.choice(p.wp_nodes) for _ in range(rng.randint(0, 4))]
                        if p.wp_nodes else [])
                coords = [0 if i in nodes else rng.randint(-2, 2) for i in range(1, n + 1)]
                if kind == 1:
                    word.insert(rng.randint(0, len(word)), rng.choice(nodes))
                elif kind == 2:
                    coords[rng.choice(nodes) - 1] += rng.choice((-1, 1))
                mu = rs.coroot_to_coweight(tuple(coords))
                if kind == 3:
                    j = rng.randrange(n)
                    mu = tuple(a + (k == j) for k, a in enumerate(mu))
                x1 = _random_elt(rs, rng)
                x = aff_mul(x1, ExtAffElt(from_word(rs, word), mu))
                want = in_parabolic_aff(aff_mul(aff_inv(x1), x), p)
                assert affine._same_coset(x1, x, p) == want, (name, nodes, x1, x)
                assert want or kind, (name, nodes, x1, x)
                seen.add(want)
    assert seen == {False, True}


def _record_the_residual_check(monkeypatch):
    """Wrap affine._same_coset; the list gets (x1, x, p) of each pi_P check."""
    seen = []
    real = affine._same_coset

    def recorded(x1, x, p):
        seen.append((x1, x, p))
        return real(x1, x, p)

    monkeypatch.setattr(affine, "_same_coset", recorded)
    return seen


def test_pi_p_refuses_a_residual_translation_off_q_vee_p(monkeypatch):
    # a seeded fault: the Levi translation subtracts the coroot of a quantum
    # node, so lambda_x - lambda_1 leaves Q_vee_P and the residual escapes
    real = affine._levi

    def rows_from_a_quantum_node(p):
        rows, adj, d, roots, rho = real(p)
        return tuple(p.rs.cartan[p.nodes[0] - 1] for _ in rows), adj, d, roots, rho

    monkeypatch.setattr(affine, "_levi", rows_from_a_quantum_node)
    seen = _record_the_residual_check(monkeypatch)
    for name, word, c, nodes in (("A2", (1,), (0, -2), (2,)),
                                 ("B3", (3,), (-2, 0, -2), (2,)),
                                 ("D4", (1,), (0, -2, 1, 1), (4,))):
        rs = build_root_system(name)
        p = parabolic(rs, nodes)
        x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(c))
        with pytest.raises(AssertionError, match="residual escaped"):
            pi_P.__wrapped__(x, p)
        x1 = seen[-1][0]
        assert not in_parabolic_aff(aff_mul(aff_inv(x1), x), p)
        assert any(rs.coroot_coords(vsub(x.lam, x1.lam))[i - 1] for i in nodes)


def test_pi_p_reports_a_residual_off_the_coroot_lattice_as_an_assertion(monkeypatch):
    # a seeded fault: the Levi translation subtracts varpi_1_vee, off Q_vee
    # in A2, so coroot_coords(lambda_x - lambda_1) raises ValueError inside
    # the check; pi_P must report that as its own failure, not a usage error
    real = affine._levi

    def rows_of_fundamental_coweights(p):
        rows, adj, d, roots, rho = real(p)
        return tuple(p.rs.fund_coweight(j) for j in p.wp_nodes), adj, d, roots, rho

    monkeypatch.setattr(affine, "_levi", rows_of_fundamental_coweights)
    rs = build_root_system("A2")
    x = translation(rs, rs.coroot_to_coweight((1, 0)))
    with pytest.raises(AssertionError, match="residual escaped"):
        pi_P.__wrapped__(x, parabolic(rs, (2,)))


def test_pi_p_refuses_a_descent_reflection_outside_w_p(monkeypatch):
    # a seeded fault: each descent step multiplies by the simple reflection
    # of a quantum node, so w_1 leaves w_x W_P and moves rho_P_vee
    real = affine._levi

    def reflection_of_a_quantum_node(p):
        rows, adj, d, roots, rho = real(p)
        s = simple_reflection(p.rs, p.nodes[0])
        return rows, adj, d, tuple((a, c, s) for a, c, _ in roots), rho

    monkeypatch.setattr(affine, "_levi", reflection_of_a_quantum_node)
    seen = _record_the_residual_check(monkeypatch)
    for name, word, c, nodes in (("A2", (1,), (0, -2), (2,)),
                                 ("B3", (3,), (-2, 0, -2), (2,)),
                                 ("D4", (3,), (-2, 0, 2, 1), (2,))):
        rs = build_root_system(name)
        p = parabolic(rs, nodes)
        x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(c))
        with pytest.raises(AssertionError, match="residual escaped"):
            pi_P.__wrapped__(x, p)
        x1 = seen[-1][0]
        assert not in_parabolic_aff(aff_mul(aff_inv(x1), x), p)
        rho = tuple(int(i in nodes) for i in range(1, rs.rank + 1))
        assert x1.w.act_coweight(rho) != x.w.act_coweight(rho)


def test_pi_p_on_e7_enumerates_no_parabolic_subgroup(monkeypatch):
    # |W_P| = |W(E6)| = 51,840 for I_P = {7}; every enumeration of W, W_P
    # or W^P walks weyl._closure
    walks = []
    real = weyl._closure

    def counted(rs, roots):
        walks.append(len(roots))
        return real(rs, roots)

    monkeypatch.setattr(weyl, "_closure", counted)
    rs = build_root_system("E7")
    p = parabolic(rs, (7,))
    for word, c in (((), (1, 2, 3, 4, 3, 2, 1)),
                    ((7, 6, 5, 4, 2), (0, 0, 0, 0, 0, 10**6, -10**6)),
                    ((1, 3, 4, 5, 6), (-2, 5, 1, 0, -7, 3, 2))):
        x = ExtAffElt(from_word(rs, word), rs.coroot_to_coweight(c))
        x1 = pi_P(x, p)
        assert is_wpaff(x1, p)
        assert in_parabolic_aff(aff_mul(aff_inv(x1), x), p)
    assert walks == []


def test_eta_p_reads_coroot_coordinates():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    theta_cw = rs.coroot_to_coweight(rs.coroot_of(rs.theta))
    assert eta_P(theta_cw, p) == (1,)
    full = parabolic(rs, (1, 2))
    assert eta_P(theta_cw, full) == (1, 1)


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
                y = aff_mul(ext(w), pi_P(translation(rs, lam), p))
                if not (is_waff_minus(y) and is_wpaff(y, p)):
                    continue
                seen += 1
                u, nu = peterson_decompose(y, p)
                assert is_antidominant(nu)
                assert aff_mul(ext(u), pi_P(translation(rs, nu), p)) == y
                # the recovered eta class agrees with the one we built from
                assert eta_P(nu, p) == eta_P(lam, p)
            assert seen > 0


def test_peterson_nu_is_the_greatest_antidominant_coset_point():
    # against the brute-force window: nu is one of the antidominant points of
    # its Q_vee_P coset and >= each of them coordinatewise (a local test that
    # no +alpha_j_vee step fits would not do: in A2, (-1, -1) is locally
    # maximal but not greatest)
    rng = random.Random(53)
    for name in (*CATALOG, "G2", "F4"):
        rs = build_root_system(name)
        n = rs.rank
        subsets = [s for r in range(1, n + 1)
                   for s in itertools.combinations(range(1, n + 1), r)]
        seen = 0
        for _ in range(40):
            p = parabolic(rs, rng.choice(subsets))
            lam = tuple(-rng.randint(0, 2) for _ in range(n))
            if not rs.in_coroot_lattice(lam):
                continue
            w = from_word(rs, [rng.randint(1, n) for _ in range(rng.randint(0, 4))])
            y = aff_mul(ext(w), pi_P(translation(rs, lam), p))
            if not (is_waff_minus(y) and is_wpaff(y, p)):
                continue
            seen += 1
            _, nu = peterson_decompose(y, p)
            c = rs.coroot_coords(nu)
            # if an antidominant x beat nu somewhere, so would max(x, nu),
            # which lies in this box
            radius = max(abs(a) for a in c)
            points = antidominant_coset_points(rs.cartan, c, p.nodes, radius)
            assert c in points, (name, p.nodes, c)
            assert all(a >= b for pt in points for a, b in zip(c, pt)), (name, p.nodes, c)
        assert seen > 0, name


def test_peterson_decompose_in_e6_enumerates_nothing():
    rs = build_root_system("E6")
    p = parabolic(rs, (1, 2, 3, 4, 5))
    before = enumerate_weyl.cache_info().currsize
    lam = vneg(rs.coroot_to_coweight(rs.theta_coroot))
    seen = 0
    for word in ((), (1,), (2, 4, 3)):
        y = aff_mul(ext(from_word(rs, word)), pi_P(translation(rs, lam), p))
        if is_waff_minus(y) and is_wpaff(y, p):
            seen += 1
            w, nu = peterson_decompose(y, p)
            assert aff_mul(ext(w), pi_P(translation(rs, nu), p)) == y
    assert seen > 0
    assert enumerate_weyl.cache_info().currsize == before


def test_peterson_decompose_rejects_bad_input():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    with pytest.raises(ValueError):
        peterson_decompose(translation(rs, (1, 1)), p)


def test_pi_p_and_peterson_refuse_mixed_root_systems():
    # A2 elements against a B2 or an A3 parabolic set: the root system of one
    # does not index the other, and the refusal leaves nothing in either memo
    a2 = build_root_system("A2")
    xs = (ExtAffElt(from_word(a2, (1, 2)), (0, 0)), identity_aff(a2))
    before = (pi_P.cache_info().currsize, peterson_decompose.cache_info().currsize)
    for name, nodes in (("B2", (2,)), ("A3", (1,))):
        p = parabolic(build_root_system(name), nodes)
        for f, x in itertools.product((pi_P, peterson_decompose), xs):
            with pytest.raises(ValueError, match="mixed root systems"):
                f(x, p)
        with pytest.raises(ValueError, match="mixed root systems"):
            aff_mul(xs[0], identity_aff(p.rs))
    assert (pi_P.cache_info().currsize, peterson_decompose.cache_info().currsize) == before


def test_identity_and_translation_basics():
    for name in CATALOG:
        rs = build_root_system(name)
        assert identity_aff(rs).is_identity()
        assert aff_length(identity_aff(rs)) == 0
        z = tuple(0 for _ in range(rs.rank))
        assert translation(rs, z) == identity_aff(rs)


def test_translation_takes_a_list_of_rank_ints_only():
    # (True, 0) was once t[True, 0] of length 2, and (0.5, 0) a TypeError
    # from the pairing kernel
    rs = build_root_system("A2")
    assert translation(rs, [1, -1]) == translation(rs, (1, -1))
    for bad, match in (((True, 0), "coweight must be an integer, got True"),
                       ((0.5, 0), "coweight must be an integer, got 0.5"),
                       (("1", 0), "coweight must be an integer, got '1'"),
                       (5, "coweight must be a list of integers"),
                       ((1,), "coweight has wrong rank"),
                       ((1, 0, 0), "coweight has wrong rank")):
        with pytest.raises(ValueError, match=match):
            translation(rs, bad)
