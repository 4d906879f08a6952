import itertools

import pytest

from qseidel.affine import (
    central_elements,
    central_mul,
    central_order,
    eta_P,
    translation,
)
from qseidel.poly import SPoly
from qseidel.qh import (
    QHClass,
    _chevalley_row,
    _seidel_term,
    chevalley_multiply,
    psi_P,
    q_shift,
    qh_add,
    qh_from_json,
    qh_scale,
    qh_sub,
    qh_text,
    qh_to_json,
    seidel_apply,
    seidel_element,
    seidel_multiply,
    seidel_orbit,
    sigma,
    unit_class,
)
from qseidel.rootsys import CATALOG, build_root_system, vsub
from qseidel.weyl import (
    WeylElt,
    coset_reduce,
    enumerate_minreps,
    from_word,
    identity,
    involution,
    parabolic,
    v_element,
    w_inv,
    w_mul,
)

from oracles import brute_orbit_size, chevalley_by_roots


def _p2():
    rs = build_root_system("A2")
    return rs, parabolic(rs, (1,))


def _catalog_parabolics():
    """Every parabolic set I_P of every catalog type."""
    for name in CATALOG:
        rs = build_root_system(name)
        nodes = range(1, rs.rank + 1)
        for r in nodes:
            for sub in itertools.combinations(nodes, r):
                yield parabolic(rs, sub)


def _eta_by_fractions(i, w, p):
    """eta_P(varpi_i_vee - w^-1(varpi_i_vee)) through the rational coordinate
    view and w^-1 built as an element, neither of which the operator uses."""
    rs = p.rs
    cw = rs.fund_coweight(i)
    coords = rs.coweight_to_coroot(vsub(cw, w_inv(w).act_coweight(cw)))
    assert all(c.denominator == 1 for c in coords)
    return tuple(int(coords[j - 1]) for j in p.nodes)


def test_unit_and_sigma():
    rs, p = _p2()
    one = unit_class(p)
    assert not one.is_zero()
    h = sigma(p, from_word(rs, (1,)))
    assert h != one
    # sigma reduces its argument to the minimal coset representative
    assert sigma(p, from_word(rs, (1, 2))) == h


def test_linear_ops():
    rs, p = _p2()
    h = sigma(p, from_word(rs, (1,)))
    pt = sigma(p, from_word(rs, (2, 1)))
    s = qh_add(h, pt)
    assert qh_sub(s, pt) == h
    assert qh_scale(h, 0).is_zero()
    assert qh_sub(h, h).is_zero()
    shifted = q_shift(h, (2,))
    assert q_shift(shifted, (-2,)) == h


def test_projective_plane_seidel_table():
    # the full 3 x 3 table of central products on P^2
    rs, p = _p2()
    one = unit_class(p)
    h = sigma(p, from_word(rs, (1,)))
    pt = sigma(p, from_word(rs, (2, 1)))
    q1 = q_shift(one, (1,))
    qh_ = q_shift(h, (1,))
    zs = {z.node: z for z in central_elements(rs)}
    basis = [one, h, pt]
    expected = {
        None: [one, h, pt],
        1: [h, pt, q1],
        2: [pt, q1, qh_],
    }
    for node, z in zs.items():
        for c, want in zip(basis, expected[node]):
            assert seidel_apply(z, c) == want


def test_seidel_elements_p2():
    rs, p = _p2()
    zs = {z.node: z for z in central_elements(rs)}
    assert seidel_element(zs[None], p) == unit_class(p)
    assert seidel_element(zs[1], p) == sigma(p, from_word(rs, (1,)))
    assert seidel_element(zs[2], p) == sigma(p, from_word(rs, (2, 1)))


def test_seidel_multiply_validates_node():
    # a node that is not minuscule is refused before the memo is consulted
    before = _seidel_term.cache_info()
    rs, p = _p2()
    with pytest.raises(ValueError):
        seidel_multiply(3, unit_class(p))
    rsb = build_root_system("B3")
    pb = parabolic(rsb, (1,))
    with pytest.raises(ValueError):
        # node 2 of B3 is not minuscule
        seidel_multiply(2, unit_class(pb))
    for name in ("G2", "F4"):  # no minuscule node at all
        rs = build_root_system(name)
        assert rs.minuscule_nodes == ()
        c = unit_class(parabolic(rs, (1,)))
        for i in range(1, rs.rank + 1):
            with pytest.raises(ValueError):
                seidel_multiply(i, c)
            with pytest.raises(ValueError, match=f"node {i} is not minuscule in {name}"):
                v_element(rs, i)
    assert _seidel_term.cache_info() == before


def test_classes_refuse_mixed_root_systems():
    # an A2 key in a class over a B2 or an A3 parabolic set, built directly
    # or through sigma
    w = from_word(build_root_system("A2"), (1, 2))
    for name, nodes in (("B2", (2,)), ("A3", (1,))):
        p = parabolic(build_root_system(name), nodes)
        with pytest.raises(ValueError, match="mixed root systems"):
            QHClass(p, {(w, (0,)): SPoly.one(p.rs.rank)})
        with pytest.raises(ValueError, match="mixed root systems"):
            sigma(p, w)
    # one exponent per quantum node, and a sum within one parabolic set
    rs, p = _p2()
    for d in ((), (0, 0)):
        with pytest.raises(ValueError, match="quantum exponent has wrong arity"):
            QHClass(p, {(identity(rs), d): SPoly.one(2)})
    with pytest.raises(ValueError, match="mixed parabolic contexts"):
        qh_add(unit_class(p), unit_class(parabolic(rs, (2,))))


def test_q_shift_and_qh_scale_take_ints_only():
    # (0.5,) once printed q1^0.5*1, (1, 5) was truncated to q1, True was
    # node 1's exponent, and qh_scale(c, 1.5) raised AttributeError
    rs, p = _p2()
    c = unit_class(p)
    assert q_shift(c, [1]) == q_shift(c, (1,))
    for bad, match in (((0.5,), "quantum exponent must be an integer, got 0.5"),
                       ((True,), "quantum exponent must be an integer, got True"),
                       (1, "quantum exponent must be a list of integers"),
                       ((1, 5), "one entry per quantum node, got \\[1, 5\\]"),
                       ((), "one entry per quantum node, got \\[\\]")):
        with pytest.raises(ValueError, match=match):
            q_shift(c, bad)
    assert qh_scale(c, 2) == qh_scale(c, SPoly.const(2, 2)) == qh_add(c, c)
    for bad in (1.5, True, "2", None):
        with pytest.raises(ValueError, match=f"scalar must be an integer, got {bad!r}"):
            qh_scale(c, bad)


def test_seidel_term_memo_matches_its_formula():
    # the memo hands back what the unwrapped formula computes, for every
    # minuscule node and every w in W^P; over the catalog eta also matches
    # the rational coordinate view
    checked = 0
    for p in _catalog_parabolics():
        for i in p.rs.minuscule_nodes:
            for w in enumerate_minreps(p.rs, p):
                term = _seidel_term(i, w, p)
                assert term == _seidel_term.__wrapped__(i, w, p)
                assert term[1] == _eta_by_fractions(i, w, p)
                checked += 1
    assert checked > 0
    for name, nodes, size in (("E6", (1, 2, 6), 2160), ("E7", (7,), 56)):
        rs = build_root_system(name)
        p = parabolic(rs, nodes)
        reps = enumerate_minreps(rs, p)
        assert len(reps) == size
        for i in rs.minuscule_nodes:
            for w in reps:
                assert _seidel_term(i, w, p) == _seidel_term.__wrapped__(i, w, p)


def test_seidel_multiply_results_share_no_terms():
    # a caller that edits one result leaves the next identical call untouched
    rs, p = _p2()
    c = qh_add(sigma(p, from_word(rs, (1,))), q_shift(unit_class(p), (2,)))
    first = seidel_multiply(1, c)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(from_word(rs, (1,)), (7,))] = SPoly.one(rs.rank)
    again = seidel_multiply(1, c)
    assert again.terms == want
    assert again.terms is not first.terms


def test_public_constructors_still_check_minimal_representatives():
    rs, p = _p2()
    w = from_word(rs, (1, 2))  # s_2 lies in W_P, so w is not minimal
    with pytest.raises(ValueError):
        QHClass(p, {(w, (0,)): SPoly.one(rs.rank)})
    with pytest.raises(ValueError):
        qh_from_json({"type": "A2", "parabolic": [1],
                      "terms": [{"w": [1, 2], "q": [0]}]})
    # a term that a sum would drop is checked all the same
    for term in ({"w": [1, 2], "q": [0], "coeff": {}},
                 {"w": [1], "q": [0, 0], "coeff": {"0,0": 0}}):
        with pytest.raises(ValueError):
            qh_from_json({"type": "A2", "parabolic": [1], "terms": [term]})
    assert sigma(p, w) == sigma(p, from_word(rs, (1,)))


def _bad_class_rows():
    """(parabolic set, terms, message) rows that QHClass(...) refuses, on A2
    with I_P = {1} unless a row says otherwise."""
    rs, p = _p2()
    e, one = identity(rs), SPoly.one(2)
    return [
        (p, {(e, (0.5,)): one}, "quantum exponent must be an integer, got 0.5"),
        (p, {(e, (True,)): one}, "quantum exponent must be an integer, got True"),
        (p, {(e, "0"): one}, "quantum exponent must be a list of integers"),
        (p, {(e, (0, 0)): one}, "wrong arity: one entry per quantum node, got \\[0, 0\\]"),
        (p, {(e, (0, 0)): SPoly.zero(2)}, "wrong arity"),
        (p, {(e,): one}, "class keys must be \\(WeylElt, exponent\\) pairs"),
        (p, {"e0": one}, "class keys must be \\(WeylElt, exponent\\) pairs, got 'e0'"),
        (p, {(e.perm, (0,)): one}, "class keys must be \\(WeylElt, exponent\\) pairs"),
        (p, {(from_word(rs, (2,)), (0,)): one}, "minimal coset representatives"),
        (p, {(identity(build_root_system("B2")), (0,)): one}, "mixed root systems"),
        (p, {(e, (0,)): 1}, "SPolys in 2 variables, got 1"),
        (p, {(e, (0,)): SPoly.one(3)}, "SPolys in 2 variables"),
        (rs, {}, "a class needs a ParabolicSet"),
    ]


@pytest.mark.parametrize("row", range(len(_bad_class_rows())))
def test_qh_class_constructor_refuses_a_malformed_term(row):
    # (e, (0.5,)) once built QH[q1^0.5*1], and seidel_multiply carried it on
    p, terms, match = _bad_class_rows()[row]
    with pytest.raises(ValueError, match=match):
        QHClass(p, terms)


def test_qh_class_constructor_keeps_what_the_operators_build():
    rs, p = _p2()
    c = qh_add(q_shift(sigma(p, from_word(rs, (1,))), [-2]), qh_scale(unit_class(p), 3))
    assert QHClass(p, dict(c.terms)) == c
    assert QHClass(p, {(identity(rs), (0,)): SPoly.zero(2)}) == QHClass(p)
    assert qh_scale(c, 0) == qh_scale(c, SPoly.zero(2)) == QHClass(p)


def test_seidel_orbits_small():
    rs, p = _p2()
    steps, exps = seidel_orbit(1, p)
    assert len(steps) == 3
    assert exps == (2,)
    rs1 = build_root_system("A1")
    b1 = parabolic(rs1, (1,))
    steps, exps = seidel_orbit(1, b1)
    assert len(steps) == 2
    assert exps == (1,)


def test_seidel_orbit_matches_central_order():
    for name in CATALOG:
        rs = build_root_system(name)
        p = parabolic(rs, tuple(range(1, rs.rank + 1)))
        for z in central_elements(rs):
            if z.node is None:
                continue
            i = involution(rs)[z.node - 1]
            steps, _ = seidel_orbit(i, p)
            assert len(steps) == central_order(z)
            # independent orbit size: iterate the operator on the unit
            size = brute_orbit_size(
                lambda c: seidel_apply(z, c), unit_class(p),
                lambda c: next(iter(c.terms))[0].is_identity())
            assert size == len(steps)


def test_the_seidel_representation_is_injective():
    # pi_1(Aut X) -> QH*(X)_loc^x: distinct central elements z give distinct
    # (Weyl part, q-exponent) of z * 1. The orbit orders do not separate
    # tau_1, tau_3 and tau_4 on D4, where P_vee / Q_vee is Z/2 x Z/2.
    cases = [(name, nodes) for name in CATALOG
             for r in range(1, int(name[1:]) + 1)
             for nodes in itertools.combinations(range(1, int(name[1:]) + 1), r)]
    for name, nodes in cases + [("E6", (1,)), ("E6", (6,)), ("E7", (7,))]:
        rs = build_root_system(name)
        p = parabolic(rs, nodes)
        images = set()
        for z in central_elements(rs):
            ((key, coeff),) = seidel_apply(z, unit_class(p)).terms.items()
            assert coeff == SPoly.one(rs.rank)
            images.add(key)
        assert len(images) == len(central_elements(rs)), (name, nodes)


def test_composite_seidel_exponent():
    # S_{z1} S_{z2} = q^e S_{z1 z2} with one global exponent
    for name in ("A2", "A3", "B2"):
        rs = build_root_system(name)
        p = parabolic(rs, tuple(range(1, rs.rank + 1)))
        zs = [z for z in central_elements(rs) if z.node is not None]
        for z1 in zs:
            for z2 in zs:
                z3 = central_mul(z1, z2)
                exps = set()
                for w in enumerate_minreps(rs, p):
                    lhs = seidel_apply(z1, seidel_apply(z2, sigma(p, w)))
                    rhs = seidel_apply(z3, sigma(p, w))
                    # lhs = q^e rhs for a single exponent e
                    (k1, c1), = lhs.terms.items()
                    (k2, c2), = rhs.terms.items()
                    assert c1 == c2
                    assert k1[0] == k2[0]
                    exps.add(tuple(a - b for a, b in zip(k1[1], k2[1])))
                assert len(exps) == 1


def test_chevalley_p2():
    rs, p = _p2()
    one = unit_class(p)
    h = sigma(p, from_word(rs, (1,)))
    pt = sigma(p, from_word(rs, (2, 1)))
    assert chevalley_multiply(1, one) == h
    assert chevalley_multiply(1, h) == pt
    assert chevalley_multiply(1, pt) == q_shift(one, (1,))


def test_chevalley_p3_quantum_power():
    # h^4 = q on P^3
    rs = build_root_system("A3")
    p = parabolic(rs, (1,))
    c = unit_class(p)
    for _ in range(4):
        c = chevalley_multiply(1, c)
    assert c == q_shift(unit_class(p), (1,))


def test_chevalley_operators_commute():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        p = parabolic(rs, tuple(range(1, rs.rank + 1)))
        for w in enumerate_minreps(rs, p):
            c = sigma(p, w)
            for j in range(1, rs.rank + 1):
                for k in range(1, rs.rank + 1):
                    assert chevalley_multiply(j, chevalley_multiply(k, c)) \
                        == chevalley_multiply(k, chevalley_multiply(j, c))


def test_chevalley_equivariant_unit():
    # on the unit, the equivariant operator adds the diagonal weight term
    rs, p = _p2()
    one = unit_class(p)
    plain = chevalley_multiply(1, one)
    eq = chevalley_multiply(1, one, equivariant=True)
    diff = qh_sub(eq, plain)
    # diagonal term (varpi_1 - w(varpi_1)) sigma(w) vanishes at w = e
    assert diff.is_zero()


def test_chevalley_equivariant_diagonal():
    rs, p = _p2()
    h = sigma(p, from_word(rs, (1,)))
    eq = chevalley_multiply(1, h, equivariant=True)
    plain = chevalley_multiply(1, h)
    diff = qh_sub(eq, plain)
    # varpi_1 - s_1(varpi_1) = alpha_1 = 2 varpi_1 - varpi_2 on the diagonal
    expect = QHClass(p, {next(iter(h.terms)): SPoly.weight((2, -1))})
    assert diff == expect


def _chevalley_inputs(p):
    """sigma(w) for each w in W^P, then one class mixing a nonzero q-shift, a
    non-constant coefficient and a repeated Weyl part."""
    rs = p.rs
    reps = enumerate_minreps(rs, p)
    for w in reps:
        yield sigma(p, w)
    shift = tuple(range(1, len(p.nodes) + 1))
    poly = SPoly.weight(range(1, rs.rank + 1)) + SPoly.const(rs.rank, -2)
    yield qh_add(qh_add(qh_scale(q_shift(sigma(p, reps[-1]), shift), poly),
                        qh_scale(sigma(p, reps[len(reps) // 2]), 3)),
                 qh_scale(sigma(p, reps[-1]), poly * poly))


def test_chevalley_multiply_matches_the_root_loop():
    # the memoised rows give what the per-root sum gives, for every catalog
    # I_P, every quantum node j and every w in W^P, plain and equivariant
    checked = 0
    for p in _catalog_parabolics():
        for j in p.nodes:
            for c in _chevalley_inputs(p):
                for eq in (False, True):
                    assert chevalley_multiply(j, c, eq).terms \
                        == chevalley_by_roots(j, c, eq)
                    checked += 1
            for w in enumerate_minreps(p.rs, p):
                assert _chevalley_row(j, w, p) == _chevalley_row.__wrapped__(j, w, p)
    assert checked > 0


def test_chevalley_multiply_results_share_no_terms():
    # a caller that edits one result leaves the next identical call untouched
    rs, p = _p2()
    c = qh_add(sigma(p, from_word(rs, (1,))), q_shift(unit_class(p), (2,)))
    for eq in (False, True):
        first = chevalley_multiply(1, c, eq)
        want = dict(first.terms)
        first.terms.clear()
        first.terms[(from_word(rs, (1,)), (7,))] = SPoly.one(rs.rank)
        again = chevalley_multiply(1, c, eq)
        assert again.terms == want
        assert again.terms is not first.terms


def test_chevalley_multiply_validates_node():
    # a node that is not quantum is refused before the memo is consulted
    before = _chevalley_row.cache_info()
    rs, p = _p2()
    for j in (0, 2, 3):
        for eq in (False, True):
            with pytest.raises(ValueError):
                chevalley_multiply(j, sigma(p, from_word(rs, (1,))), eq)
    assert _chevalley_row.cache_info() == before


def test_the_equivariant_diagonal_is_read_off_the_memo(monkeypatch):
    # the diagonal w_j - w(w_j) is stored in the row: an equivariant call
    # after a plain one is a pure memo hit, and a warm call acts on no weight
    rs = build_root_system("B3")
    p = parabolic(rs, (1, 3))
    c = QHClass(p, {(w, (0, 0)): SPoly.one(rs.rank)
                    for w in enumerate_minreps(rs, p)})
    warm = {}
    for j in p.nodes:
        plain = chevalley_multiply(j, c)
        before = _chevalley_row.cache_info()
        warm[j] = chevalley_multiply(j, c, True)
        after = _chevalley_row.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (len(c.terms), 0)
        assert warm[j] != plain
    calls = []
    act_weight = WeylElt.act_weight
    monkeypatch.setattr(WeylElt, "act_weight",
                        lambda w, a: calls.append(w) or act_weight(w, a))
    for j in p.nodes:
        assert chevalley_multiply(j, c, True) == warm[j]
    assert calls == []


def test_psi_frozen_a1():
    rs = build_root_system("A1")
    b1 = parabolic(rs, (1,))
    from qseidel.affine import affine_simple_ext, identity_aff
    s0 = affine_simple_ext(rs, 0)
    s1cls = sigma(b1, from_word(rs, (1,)))
    assert psi_P(s0, (-2,), b1) == s1cls
    assert psi_P(identity_aff(rs), (-2,), b1) == q_shift(unit_class(b1), (1,))
    # a shallow reference produces a Laurent shift
    assert psi_P(s0, (0,), b1) == q_shift(s1cls, (-1,))


def test_psi_rejects_bad_reference():
    rs = build_root_system("A1")
    b1 = parabolic(rs, (1,))
    from qseidel.affine import affine_simple_ext
    with pytest.raises(ValueError):
        psi_P(affine_simple_ext(rs, 0), (1,), b1)  # dominant reference
    with pytest.raises(ValueError, match="must be in the coroot lattice"):
        psi_P(affine_simple_ext(rs, 0), (-1,), b1)  # -varpi_1_vee is off Q_vee


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_psi_refuses_y_outside_the_intersection_on_every_call(name):
    # psi_P leaves the check of y to peterson_decompose, whose memo keeps
    # only results, so a repeated call is refused as the first one was
    from qseidel.affine import ext, is_waff_minus, is_wpaff, peterson_decompose
    rs = build_root_system(name)
    p = parabolic(rs, (1,))
    mu = tuple(0 for _ in range(rs.rank))
    # s_1 sends alpha_1 negative; t_{-2 rho_vee}, rho_vee the sum of the
    # fundamental coweights, is in W_aff^- but moves alpha_2, in R_P^+
    minus_only = translation(rs, (-2,) * rs.rank)
    assert is_waff_minus(minus_only) and not is_wpaff(minus_only, p)
    for y, match in ((ext(from_word(rs, (1,))), "minimal coset representative"),
                     (minus_only, r"\(W\^P\)_aff")):
        before = peterson_decompose.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                psi_P(y, mu, p)
        assert peterson_decompose.cache_info().currsize == before


def test_psi_representative_independence():
    # shifting (y, mu) by a t_nu fixed by the parabolic leaves psi unchanged
    rs = build_root_system("A2")
    p = parabolic(rs, (1, 2))
    from qseidel.affine import aff_mul, is_waff_minus, is_wpaff, pi_P
    from qseidel.weyl import identity
    checked = 0
    for coords in itertools.product(range(-1, 1), repeat=2):
        lam = rs.coroot_to_coweight(coords)
        y = pi_P(translation(rs, lam), p)
        if not (is_waff_minus(y) and is_wpaff(y, p)):
            continue
        for shift_coords in itertools.product(range(-1, 1), repeat=2):
            nu = rs.coroot_to_coweight(shift_coords)
            if all(c == 0 for c in shift_coords):
                continue
            if not all(x <= 0 for x in nu):
                continue
            y2 = aff_mul(y, translation(rs, nu))
            if not (is_waff_minus(y2) and is_wpaff(y2, p)):
                continue
            assert psi_P(y2, nu, p) == psi_P(y, tuple(0 for _ in nu), p)
            checked += 1
    assert checked > 0


def test_json_round_trip():
    rs, p = _p2()
    h = sigma(p, from_word(rs, (1,)))
    c = qh_add(q_shift(h, (2,)), qh_scale(unit_class(p), 3))
    data = qh_to_json(c)
    assert data["type"] == "A2"
    assert data["parabolic"] == [1]
    assert qh_from_json(data) == c


@pytest.mark.parametrize("data", [
    {"type": "A2", "parabolic": [1], "terms": [], "extra": 1},
    {"type": "A2", "parabolic": [1], "terms": [{"w": [1], "q": [0], "x": 1}]},
    {"type": "A2", "parabolic": [1, 1], "terms": []},
])
def test_json_refuses_unknown_keys_and_repeated_nodes(data):
    with pytest.raises(ValueError):
        qh_from_json(data)


def test_text_rendering():
    rs, p = _p2()
    assert qh_text(unit_class(p)) == "1"
    h = sigma(p, from_word(rs, (1,)))
    assert qh_text(q_shift(h, (1,))) == "q1*s[1]"
    assert qh_text(qh_scale(h, 2)) == "2*s[1]"
    assert qh_text(qh_scale(h, -1)) == "-1*s[1]"
    assert qh_text(qh_add(q_shift(unit_class(p), (1,)), h)) == "s[1] + q1*1"
    assert qh_text(qh_scale(h, SPoly.weight((1, 0)))) == "(w1)*s[1]"
    assert qh_text(qh_scale(h, SPoly.weight((1, -1)) + 1)) == "(1 - w2 + w1)*s[1]"


def test_seidel_vs_group_product():
    # S_z sigma(w) = q^eta sigma((v_i w)^P), i = f(node): the Weyl part is the
    # reduced group product and eta the quantum-node coroot coordinates of
    # varpi_i_vee - w^-1(varpi_i_vee), over every I_P of the catalog
    for p in _catalog_parabolics():
        rs = p.rs
        for z in central_elements(rs):
            if z.node is None:
                continue
            i = involution(rs)[z.node - 1]
            vi = v_element(rs, i)
            for w in enumerate_minreps(rs, p):
                out = seidel_apply(z, sigma(p, w))
                ((w2, d), coeff), = out.terms.items()
                assert w2 == coset_reduce(w_mul(vi, w), p)
                assert d == _eta_by_fractions(i, w, p)
                assert coeff == SPoly.one(rs.rank)
