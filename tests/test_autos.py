import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_hopf_sextuple, random_sextuple, random_unit

from qtriangular.autos import (
    LinearAuto2,
    Sextuple,
    delta_compatible,
    g_compose,
    g_decompose,
    g_inverse,
    g_to_endo,
    is_hopf_auto,
    linear_auto_spec,
    rho_conjugate,
)
from qtriangular.cli import parse_sextuple
from qtriangular.coeff import GaussianRational, ScalarQ, qpow
from qtriangular.qalgebra import Element, is_point
from qtriangular.triangular import build, rho_spec

ONE = ScalarQ.constant(1)
IDENT = Sextuple.identity()


def _endo_equal(s1, s2):
    ut = build(2, True)
    p1, p2 = g_to_endo(s1), g_to_endo(s2)
    return all(p1.apply(ut.gen(g)) == p2.apply(ut.gen(g)) for g in range(3))


def test_sextuple_validation():
    with pytest.raises(ValueError):
        Sextuple(ScalarQ({}), ONE, ONE, 0, 0, 0)
    with pytest.raises(ValueError):
        Sextuple(ONE + qpow(1), ONE, ONE, 0, 0, 0)  # not a unit
    with pytest.raises(TypeError, match="l must be an integer"):
        Sextuple(ONE, ONE, ONE, 0, 0, "1")


def test_sextuple_stores_plain_ints():
    s = Sextuple(1, 1, 1, True, False, 0)
    assert s == Sextuple(1, 1, 1, 1, 0, 0)
    assert [type(x) for x in (s.j, s.k, s.l)] == [int, int, int]
    assert str(s) == "[1,1,1,1,0,0]"
    assert parse_sextuple(str(s)) == s
    assert all(type(e) is int for img in g_to_endo(Sextuple(1, 1, 1, 0, True, True)).images
               for mono in img.terms for e in mono)


def _product_images(s):
    """The images as products of generators, the oracle for the closed form."""
    ut = build(2, True)
    a11, a12, a22 = ut.a(1, 1), ut.a(1, 2), ut.a(2, 2)
    z = a11 * a22.inverse()
    return (
        (z**s.j * a11).scale(s.l11),
        (a11**s.k * a22**s.l * a12).scale(s.l12),
        (z**s.j * a22).scale(s.l22),
    )


def test_g_to_endo_closed_form_matches_products():
    rng = random.Random(38)
    for jkl in product(range(-3, 4), repeat=3):
        for _ in range(2):
            s = Sextuple(random_unit(rng), random_unit(rng), random_unit(rng), *jkl)
            assert g_to_endo(s).images == _product_images(s)


def test_g_to_endo_makes_no_products(monkeypatch):
    calls = []

    def count(name):
        method = getattr(Element, name)

        def counted(*args):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(Element, name, counted)

    for name in ("__mul__", "inverse", "__pow__"):
        count(name)
    s = Sextuple(qpow(1), 2, 3, -2, 3, -1)
    phi = g_to_endo(s)
    assert calls == []
    # the counters do see the product formula
    oracle = _product_images(s)
    assert set(calls) == {"__mul__", "inverse", "__pow__"}
    assert phi.images == oracle


def test_g_to_endo_examples():
    ut = build(2, True)
    assert _endo_equal(IDENT, IDENT)
    ident = g_to_endo(IDENT)
    for g in range(3):
        assert ident.apply(ut.gen(g)) == ut.gen(g)
    z = ut.a(1, 1) * ut.a(2, 2) ** -1
    s = Sextuple(ONE, ONE, ONE, 1, 0, 0)
    phi = g_to_endo(s)
    assert phi.apply(ut.a(1, 1)) == z * ut.a(1, 1)
    assert phi.apply(ut.a(1, 2)) == ut.a(1, 2)
    s = Sextuple(ONE, ONE, ONE, 0, 1, 0)
    phi = g_to_endo(s)
    assert phi.apply(ut.a(1, 2)) == ut.a(1, 1) * ut.a(1, 2)
    assert phi.apply(ut.a(2, 2)) == ut.a(2, 2)


def test_compose_examples():
    s = Sextuple(qpow(1), ScalarQ.constant(2), ONE, 1, 2, 3)
    assert g_compose(s, IDENT) == s
    assert g_compose(IDENT, s) == s
    c = g_compose(Sextuple(ONE, ONE, ONE, 1, 0, 0), Sextuple(ONE, ONE, ONE, 0, 1, 0))
    assert c == Sextuple(ONE, ONE, ONE, 1, 2, -1)
    c = g_compose(
        Sextuple(ONE, ScalarQ.constant(2), ScalarQ.constant(3), 0, 0, 0),
        Sextuple(ONE, ONE, ONE, 1, 0, 0),
    )
    assert c.l11 == ScalarQ.constant(Fraction(4, 3))
    assert c.l22 == ScalarQ.constant(2)


def test_inverse_examples():
    assert g_inverse(IDENT) == IDENT
    assert g_inverse(Sextuple(ONE, ONE, ONE, 1, 0, 0)) == Sextuple(ONE, ONE, ONE, -1, 0, 0)
    assert g_inverse(Sextuple(ONE, ONE, ONE, 0, 2, 1)) == Sextuple(ONE, ONE, ONE, 0, -2, -1)


def _product_compose(s1, s2):
    """The group law through ScalarQ products and powers, the oracle for
    the law on (q-exponent, coefficient) pairs."""
    ratio = s1.l11 * s1.l22.inverse()
    kl2 = s2.k + s2.l
    return Sextuple(
        s1.l12 * s2.l12 * s1.l11**s2.k * s1.l22**s2.l,
        s1.l11 * s2.l11 * ratio**s2.j,
        s1.l22 * s2.l22 * ratio**s2.j,
        s1.j + s2.j,
        s1.k + s2.k + s1.j * kl2,
        s1.l + s2.l - s1.j * kl2,
    )


def _product_inverse(s):
    ratio = s.l11 * s.l22.inverse()
    kl = s.k + s.l
    return Sextuple(
        s.l12.inverse() * s.l11 ** (s.k - s.j * kl) * s.l22 ** (s.l + s.j * kl),
        s.l11.inverse() * ratio**s.j,
        s.l22.inverse() * ratio**s.j,
        -s.j,
        s.j * kl - s.k,
        -s.j * kl - s.l,
    )


def test_law_matches_scalar_product_oracle():
    rng = random.Random(39)
    for jkl in product(range(-3, 4), repeat=3):
        s = Sextuple(random_unit(rng), random_unit(rng), random_unit(rng), *jkl)
        t = random_sextuple(rng)
        assert g_compose(s, t) == _product_compose(s, t)
        assert g_compose(t, s) == _product_compose(t, s)
        assert g_inverse(s) == _product_inverse(s)


class _Refused(Exception):
    pass


def _checked_decompose(s):
    kl = s.k + s.l
    return (Sextuple(ONE, ONE, ONE, s.j, 0, 0),
            Sextuple(ONE, ONE, ONE, 0, s.k - s.j * kl, s.l + s.j * kl),
            Sextuple(s.l12, s.l11, s.l22, 0, 0, 0))


def test_law_makes_no_scalar_products(monkeypatch):
    rng = random.Random(41)
    pairs = [(random_sextuple(rng), random_sextuple(rng)) for _ in range(20)]
    want = [(_product_compose(a, b), _product_inverse(a),
             Sextuple(a.l12, a.l22, a.l11, -a.j, a.l, a.k), _checked_decompose(a)) for a, b in pairs]

    def refuse(*args):
        raise _Refused

    for name in ("__mul__", "__rmul__", "__pow__", "inverse"):
        monkeypatch.setattr(ScalarQ, name, refuse)
    monkeypatch.setattr(Sextuple, "__init__", refuse)
    got = [(g_compose(a, b), g_inverse(a), rho_conjugate(a), g_decompose(a)) for a, b in pairs]
    # the patches do stop the product formula and the checking constructor
    with pytest.raises(_Refused):
        _product_compose(*pairs[0])
    with pytest.raises(_Refused):
        _checked_decompose(pairs[0][0])
    monkeypatch.undo()
    assert got == want


def test_law_results_are_the_same_records():
    rng = random.Random(42)
    for _ in range(40):
        a, b = random_sextuple(rng), random_sextuple(rng)
        results = [g_compose(a, b), g_inverse(a), rho_conjugate(a), Sextuple.identity(),
                   *g_decompose(a)]
        for r in results:
            fields = (r.l12, r.l11, r.l22, r.j, r.k, r.l)
            checked = Sextuple(*fields)
            assert r == checked
            assert hash(r) == hash(checked)
            assert repr(r) == repr(checked)
            back = pickle.loads(pickle.dumps(r))
            assert back == r and repr(back) == repr(r)
            for scale in fields[:3]:
                assert type(scale) is ScalarQ
                ((e, c),) = scale.terms.items()
                assert type(e) is int and type(c) is GaussianRational and c
            assert [type(x) for x in fields[3:]] == [int, int, int]


def test_group_laws_random():
    rng = random.Random(31)
    for _ in range(150):
        a, b, c = (random_sextuple(rng) for _ in range(3))
        assert g_compose(g_compose(a, b), c) == g_compose(a, g_compose(b, c))
        assert g_compose(a, g_inverse(a)) == IDENT
        assert g_compose(g_inverse(a), a) == IDENT
        assert g_compose(a, IDENT) == a == g_compose(IDENT, a)


def test_endomorphism_composition_oracle():
    rng = random.Random(32)
    ut = build(2, True)
    for _ in range(40):
        a, b = random_sextuple(rng, span=2), random_sextuple(rng, span=2)
        outer, inner = g_to_endo(a), g_to_endo(b)
        comp = g_to_endo(g_compose(a, b))
        for g in range(3):
            assert outer.apply(inner.apply(ut.gen(g))) == comp.apply(ut.gen(g))


def test_every_endo_is_a_point_and_invertible():
    rng = random.Random(33)
    ut = build(2, True)
    for _ in range(25):
        s = random_sextuple(rng, span=2)
        phi = g_to_endo(s)
        assert is_point(phi.images, ut)
        inv = g_to_endo(g_inverse(s))
        for g in range(3):
            assert phi.apply(inv.apply(ut.gen(g))) == ut.gen(g)


def test_rho_conjugation():
    s = Sextuple(qpow(2), ScalarQ.constant(2), ScalarQ.constant(3), 1, 4, 5)
    assert rho_conjugate(s) == Sextuple(qpow(2), ScalarQ.constant(3), ScalarQ.constant(2), -1, 5, 4)
    assert rho_conjugate(rho_conjugate(s)) == s
    assert rho_conjugate(IDENT) == IDENT
    rng = random.Random(34)
    for _ in range(60):
        a, b = random_sextuple(rng), random_sextuple(rng)
        assert rho_conjugate(g_compose(a, b)) == g_compose(rho_conjugate(a), rho_conjugate(b))
    # oracle: conjugation by the reflection automorphism
    ut = build(2, True)
    rho = rho_spec(ut)
    for _ in range(10):
        s = random_sextuple(rng, span=2)
        pc = g_to_endo(rho_conjugate(s))
        ps = g_to_endo(s)
        for g in range(3):
            assert pc.apply(ut.gen(g)) == rho.apply(ps.apply(rho.apply(ut.gen(g))))


def test_decompose_examples():
    assert g_decompose(IDENT) == (IDENT, IDENT, IDENT)
    g1, g2, g3 = g_decompose(Sextuple(ONE, ONE, ONE, 1, 2, -1))
    assert (g1, g2, g3) == (
        Sextuple(ONE, ONE, ONE, 1, 0, 0),
        Sextuple(ONE, ONE, ONE, 0, 1, 0),
        IDENT,
    )
    five, two, three = ScalarQ.constant(5), ScalarQ.constant(2), ScalarQ.constant(3)
    g1, g2, g3 = g_decompose(Sextuple(five, two, three, 0, 4, 7))
    assert g1 == IDENT
    assert g2 == Sextuple(ONE, ONE, ONE, 0, 4, 7)
    assert g3 == Sextuple(five, two, three, 0, 0, 0)
    rng = random.Random(35)
    for _ in range(60):
        s = random_sextuple(rng)
        g1, g2, g3 = g_decompose(s)
        assert g_compose(g1, g_compose(g2, g3)) == s
        assert g1.k == g1.l == 0 and g2.j == 0 and (g3.j, g3.k, g3.l) == (0, 0, 0)


def test_hopf_membership_examples():
    lam = qpow(-1, 2)
    assert is_hopf_auto(Sextuple(lam, ONE, ONE, 2, 2, -2))
    assert is_hopf_auto(IDENT)
    assert not is_hopf_auto(Sextuple(ONE, ONE, ONE, 0, 1, 0))
    assert not delta_compatible(Sextuple(ONE, ONE, ONE, 0, 1, 0))


def test_hopf_membership_oracle_and_subgroup():
    rng = random.Random(36)
    for _ in range(40):
        s = random_sextuple(rng, span=2)
        assert is_hopf_auto(s) == delta_compatible(s)
    for _ in range(40):
        h = random_hopf_sextuple(rng, span=2)
        assert is_hopf_auto(h)
        assert delta_compatible(h)
        h2 = random_hopf_sextuple(rng, span=2)
        assert is_hopf_auto(g_compose(h, h2))
        assert is_hopf_auto(g_inverse(h))


def test_linear_auto_examples():
    t2 = build(2)
    zero = ScalarQ({})
    ident = LinearAuto2(ONE, ((ONE, zero), (zero, ONE)))
    spec = linear_auto_spec(ident)
    for g in range(3):
        assert spec.apply(t2.gen(g)) == t2.gen(g)
    anti = LinearAuto2(ONE, ((zero, ONE), (ONE, zero)))
    spec = linear_auto_spec(anti)
    assert spec.apply(t2.a(1, 1)) == t2.a(2, 2)
    assert spec.apply(t2.a(2, 2)) == t2.a(1, 1)
    assert spec.apply(t2.a(1, 2)) == t2.a(1, 2)
    diag = LinearAuto2(qpow(1), ((ScalarQ.constant(2), zero), (zero, ScalarQ.constant(3))))
    spec = linear_auto_spec(diag)
    assert spec.apply(t2.a(1, 2)) == t2.a(1, 2).scale(qpow(1))
    assert spec.apply(t2.a(1, 1)) == t2.a(1, 1).scale(2)
    assert is_point(spec.images, t2)
    with pytest.raises(ValueError):
        linear_auto_spec(LinearAuto2(ONE, ((ONE, ONE), (ONE, ONE))))


def test_linear_auto_composition_homomorphism():
    rng = random.Random(37)
    t2 = build(2)
    zero = ScalarQ({})

    def rand_auto():
        while True:
            mat = ((random_unit(rng), rng.choice([zero, random_unit(rng)])),
                   (rng.choice([zero, random_unit(rng)]), random_unit(rng)))
            cand = LinearAuto2(random_unit(rng), mat)
            if cand.det.is_unit:
                return cand

    for _ in range(25):
        a, b = rand_auto(), rand_auto()
        sa, sb, sab = linear_auto_spec(a), linear_auto_spec(b), linear_auto_spec(a.compose(b))
        for g in range(3):
            assert sa.apply(sb.apply(t2.gen(g))) == sab.apply(t2.gen(g))
