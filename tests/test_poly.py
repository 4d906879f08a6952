import random

import pytest

from qseidel.affine import affine_simple_ext
from qseidel.nilhecke import NilHeckeElt, nh_basis, nh_one
from qseidel.poly import SPoly, add_terms
from qseidel.qh import qh_add, sigma, unit_class
from qseidel.rootsys import build_root_system
from qseidel.weyl import from_word, parabolic


def _constant_term(p: SPoly) -> int:
    return p.terms.get((0,) * p.nvars, 0)


def _nh_add(a: NilHeckeElt, b: NilHeckeElt) -> NilHeckeElt:
    return NilHeckeElt(a.rs, add_terms(b.terms.items(), a.terms))


def _random_poly(rng, nvars, nterms=3, deg=2, coeff=4):
    p = SPoly.zero(nvars)
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        p = p + SPoly(nvars, {exp: rng.randint(-coeff, coeff)})
    return p


def test_constructors():
    z = SPoly.zero(2)
    assert z.is_zero() and not z
    one = SPoly.one(2)
    assert _constant_term(one) == 1
    assert one.degree() == 0
    x = SPoly.var(2, 1)
    y = SPoly.var(2, 2)
    assert (x * y).degree() == 2
    assert SPoly.const(2, 0).is_zero()
    assert SPoly.weight((3, -1)) == 3 * x - y


def test_ring_axioms_seeded():
    rng = random.Random(41)
    for _ in range(50):
        a = _random_poly(rng, 2)
        b = _random_poly(rng, 2)
        c = _random_poly(rng, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == SPoly.zero(2)


def test_integer_scalars():
    x = SPoly.var(1, 1)
    assert 2 * x == x + x
    assert x * 3 == x + x + x
    assert (x + 1) * (x - 1) == x * x - 1


def test_power():
    x = SPoly.var(1, 1)
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert x ** 0 == SPoly.one(1)


def _as_int(p: SPoly) -> int:
    """The value of a constant polynomial; ValueError for any other."""
    if p.degree() > 0:
        raise ValueError("polynomial has positive-degree terms")
    return _constant_term(p)


def test_as_int():
    assert _as_int(SPoly.const(2, 7)) == 7
    with pytest.raises(ValueError):
        _as_int(SPoly.var(2, 1))


def test_subst():
    # substitution is a ring homomorphism
    x = SPoly.var(2, 1)
    y = SPoly.var(2, 2)
    p = x * x + 2 * x * y - y + 3
    images = [y + 1, x - y]
    q = p.subst(images)
    rng = random.Random(43)
    for _ in range(10):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        # images evaluated at (a, b) are (b + 1, a - b)
        direct = p.subst([SPoly.const(2, b + 1), SPoly.const(2, a - b)])
        via = q.subst([SPoly.const(2, a), SPoly.const(2, b)])
        assert _as_int(direct) == _as_int(via)


def test_json_round_trip():
    rng = random.Random(47)
    for _ in range(20):
        p = _random_poly(rng, 3)
        data = p.to_json()
        assert all(isinstance(v, int) for v in data.values())
        assert SPoly.from_json(3, data) == p
    assert SPoly.zero(3).to_json() == {}
    assert SPoly.from_json(2, {"1,0": 2, "0,0": -1}) == (
        2 * SPoly.var(2, 1) - 1)


def test_text_rendering():
    x = SPoly.var(2, 1)
    y = SPoly.var(2, 2)
    assert SPoly.zero(2).to_text() == "0"
    assert SPoly.one(2).to_text() == "1"
    assert (x + y).to_text() == "w2 + w1"
    assert (2 * x * x - y).to_text() == "-w2 + 2*w1^2"
    assert (x * y - 3).to_text() == "-3 + w1*w2"


def test_mismatched_arity_rejected():
    with pytest.raises(ValueError):
        SPoly.var(2, 1) + SPoly.var(3, 1)


def test_add_terms_drops_cancelled_keys():
    assert add_terms([("a", 2), ("b", 1), ("a", -2)]) == {"b": 1}
    assert add_terms([("a", 1)], {"a": -1}) == {}
    x = SPoly.var(2, 1)
    assert add_terms([("k", x), ("k", -x)]) == {}


def test_add_terms_does_not_store_a_zero_first_value():
    assert add_terms([("a", 0), ("b", 3)]) == {"b": 3}
    assert add_terms([("a", SPoly.zero(2))]) == {}


def test_add_terms_sums_int_and_spoly_values():
    assert add_terms([((0, 1), 2), ((1, 0), 5), ((0, 1), 3)]) == {(0, 1): 5, (1, 0): 5}
    x, y = SPoly.var(2, 1), SPoly.var(2, 2)
    out = add_terms([("k", x), ("j", y), ("k", 2 * y)], {"j": x})
    assert out == {"k": x + 2 * y, "j": x + y}


def test_add_terms_leaves_start_untouched():
    start = {"a": 1, "b": 2}
    assert add_terms([("a", -1), ("b", 1), ("c", 4)], start) == {"b": 3, "c": 4}
    assert start == {"a": 1, "b": 2}
    # through the three sums built on it: the left operand keeps its terms
    x, y = SPoly.var(2, 1), SPoly.var(2, 2)
    a, b = x + y, y - x
    before = dict(a.terms)
    assert a + b == 2 * y
    assert a.terms == before
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    qa = qh_add(unit_class(p), sigma(p, from_word(rs, (1,))))
    qb = sigma(p, from_word(rs, (1,)), coeff=-1)
    before = dict(qa.terms)
    assert qh_add(qa, qb) == unit_class(p)
    assert qa.terms == before
    s1 = affine_simple_ext(rs, 1)
    na = _nh_add(nh_one(rs), nh_basis(s1))
    nb = NilHeckeElt(rs, {s1: -SPoly.one(2)})
    before = dict(na.terms)
    assert _nh_add(na, nb) == nh_one(rs)
    assert na.terms == before
