import random
import time
from itertools import product

import pytest

from qtriangular.coeff import ONE, qpow
from qtriangular.deriv import (
    DerivationSpec,
    classify_T2,
    dertypes_expected,
    h1_membership_T2,
    inner_derivation,
    is_derivation,
    monomial_derivation,
    named_derivations,
    utq2_derivation_table,
    _outer_independent,
)
from qtriangular.qalgebra import Element, random_element
from qtriangular.triangular import build, qdet


def test_is_derivation_builds_only_second_halves(monkeypatch):
    # each of the 3 relations builds Da b + a Db in both orders, 2 products
    # each, and no product g_a g_b of the generators themselves
    spec = named_derivations(build(2))["D11"]
    calls = []
    mul = Element.__mul__

    def counted(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert is_derivation(spec)
    assert len(calls) == 12


def test_named_derivations_are_monomial_derivations():
    T2 = build(2)
    named = named_derivations(T2)
    assert list(named) == ["D11", "D12", "D22"]
    for label, nu in (("D11", (1, 0, 0)), ("D12", (0, 1, 0)), ("D22", (0, 0, 1))):
        st = (int(label[1]), int(label[2]))
        assert named[label].algebra is T2
        assert named[label].images == monomial_derivation(st, nu).images


def test_is_derivation_examples():
    assert is_derivation(monomial_derivation((1, 2), (0, 1, 0)))
    T2 = build(2)
    assert is_derivation(DerivationSpec(T2, [T2.zero()] * 3))
    assert not is_derivation(monomial_derivation((1, 2), (1, 0, 0)))


def test_classification_examples():
    assert is_derivation(monomial_derivation((1, 1), (0, 0, 1)))
    assert is_derivation(monomial_derivation((1, 2), (2, 1, 3)))
    assert not is_derivation(monomial_derivation((2, 2), (0, 1, 0)))
    assert dertypes_expected((1, 1), (1, 0, 0))
    assert not dertypes_expected((1, 1), (1, 0, 1))
    assert dertypes_expected((1, 2), (5, 1, 0))


def test_classify_sweep_agrees_with_predicate():
    rows = classify_T2(2)
    assert len(rows) == 3 * 27
    for st, nu, verdict in rows:
        assert verdict == dertypes_expected(st, nu)


def test_classify_validates_input():
    with pytest.raises(ValueError):
        classify_T2(0)
    with pytest.raises(ValueError):
        monomial_derivation((2, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        monomial_derivation((1, 1), (0, -1, 0))


def test_inner_derivation_examples():
    T2 = build(2)
    ad = inner_derivation(T2.a(1, 2))
    assert ad.images[T2.gen_index(1, 1)] == (T2.a(1, 1) * T2.a(1, 2)).scale(qpow(-1) - ONE)
    assert all(not img for img in inner_derivation(T2.one()).images)
    U2 = build(2, True)
    ad_det = inner_derivation(qdet(U2))
    expected = (qdet(U2) * U2.a(1, 2)).scale(ONE - qpow(-2))
    assert ad_det.images[U2.gen_index(1, 2)] == expected


def test_inner_derivations_satisfy_leibniz():
    rng = random.Random(21)
    for alg in (build(2), build(2, True)):
        for _ in range(8):
            assert is_derivation(inner_derivation(random_element(alg, rng)))


def test_leibniz_extension_on_products():
    rng = random.Random(22)
    U2 = build(2, True)
    d = named_derivations(U2)["D12"]
    for _ in range(8):
        u = random_element(U2, rng)
        v = random_element(U2, rng)
        assert d.apply(u * v) == d.apply(u) * v + u * d.apply(v)


def test_commutator_of_derivations_is_derivation():
    T2 = build(2)
    rng = random.Random(23)
    named = named_derivations(T2)
    pool = list(named.values()) + [
        monomial_derivation((1, 1), (0, 0, 1)),
        inner_derivation(random_element(T2, rng)),
    ]
    for a in pool:
        for b in pool:
            assert is_derivation(a.commutator(b))


def test_localized_extension_stays_derivation():
    # a valid derivation of the plain algebra, transported to the
    # localization, still satisfies every relation there
    T2, U2 = build(2), build(2, True)
    for spec in (
        monomial_derivation((1, 2), (1, 1, 2)),
        monomial_derivation((1, 1), (1, 0, 0)),
    ):
        lifted = DerivationSpec(U2, [img.transport(U2) for img in spec.images])
        assert is_derivation(lifted)
        # and the extension rule D(g^-1) = -g^-1 D(g) g^-1 is consistent:
        # applying to g * g^-1 = 1 gives zero
        g = U2.a(1, 1)
        assert lifted.apply(g * g**-1) == U2.zero()


def _linear_power_image(spec, g, k):
    """D(g^k) as the sum of |k| Leibniz terms: the linear oracle for the
    square-and-multiply extension."""
    alg = spec.algebra
    base, dbase = alg.gen(g), spec.images[g]
    if k < 0:
        base = base.inverse()
        dbase = -(base * dbase * base)
    m = abs(k)
    out = alg.zero()
    for t in range(m):
        out = out + base**t * dbase * base ** (m - 1 - t)
    return out


def test_power_images_match_linear_sum():
    rng = random.Random(24)
    for alg in (build(2), build(2, True)):
        specs = list(named_derivations(alg).values()) + [
            inner_derivation(random_element(alg, rng)),
            # not a derivation: the extension rule is applied all the same
            DerivationSpec(alg, [alg.a(1, 2), alg.a(1, 1) + alg.a(2, 2), alg.zero()]),
        ]
        for spec in specs:
            for g in range(alg.ngens):
                ks = range(-6, 10) if alg.invertible[g] else range(0, 10)
                for k in ks:
                    assert spec._image_power(g, k)[1] == _linear_power_image(spec, g, k), (g, k)


def _prefix_suffix_apply(spec, e):
    """The Leibniz rule written out: the sum over terms c x^alpha and
    generators g of c * prefix * D(g^alpha_g) * suffix, with the linear
    D(g^k) above; the oracle for the folded extension."""
    alg = spec.algebra
    n = alg.ngens
    out = alg.zero()
    for mono, c in e.terms.items():
        for g, k in enumerate(mono):
            if k:
                prefix = alg.monomial(mono[:g] + (0,) * (n - g), c)
                suffix = alg.monomial((0,) * (g + 1) + mono[g + 1 :])
                out = out + prefix * _linear_power_image(spec, g, k) * suffix
    return out


def test_apply_matches_prefix_suffix_sum():
    rng = random.Random(25)
    for alg in (build(2), build(2, True)):
        specs = list(named_derivations(alg).values()) + [
            inner_derivation(random_element(alg, rng)),
            DerivationSpec(alg, [alg.a(1, 2), alg.a(1, 1) + alg.a(2, 2), alg.zero()]),
        ]
        elements = [random_element(alg, rng, max_terms=6) for _ in range(6)]
        if alg.invertible[0]:
            assert any(min(mono) < 0 for e in elements for mono in e.terms)
        for spec in specs:
            for e in elements:
                assert spec.apply(e) == _prefix_suffix_apply(spec, e), (spec.images, e)


def test_second_apply_builds_no_new_power(monkeypatch):
    from qtriangular import qalgebra

    U2 = build(2, True)
    e = random_element(U2, random.Random(26), max_terms=6)
    spec = named_derivations(U2)["D11"] + inner_derivation(U2.a(1, 2))
    calls = []
    power = qalgebra._power

    def counted(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(qalgebra, "_power", counted)
    first = spec.apply(e)
    assert calls
    calls.clear()
    assert spec.apply(e) == first
    assert calls == []


def test_linear_operations_reject_foreign_operands():
    d = named_derivations(build(2))["D11"]
    for bad in (lambda: d + 1, lambda: d - 1, lambda: d + "x"):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("k", [100000, -100000])
def test_huge_power_images_are_logarithmic(k):
    U2 = build(2, True)
    x = U2.a(1, 1) ** k
    for spec in (named_derivations(U2)["D11"], inner_derivation(U2.a(1, 2))):
        t0 = time.perf_counter()
        spec.apply(x)
        assert time.perf_counter() - t0 < 1.0
    assert named_derivations(U2)["D11"].apply(x) == x.scale(k)


def test_h1_membership():
    # a proof for every degree: the bound is ignored and costs nothing
    for bound in (1, 3, 10):
        t0 = time.perf_counter()
        rep = h1_membership_T2(bound)
        assert time.perf_counter() - t0 < 0.05
        assert rep.passed, rep.line()
    # quick independence sanity check: ad_{a11}(a11) = 0 while D11(a11) = a11
    T2 = build(2)
    ad = inner_derivation(T2.a(1, 1))
    assert ad.images[T2.gen_index(1, 1)] == T2.zero()


def test_h1_proof_controls():
    five = [
        ("D11", (1, 1), (1, 0, 0)),
        ("D12", (1, 2), (0, 1, 0)),
        ("D22", (2, 2), (0, 0, 1)),
        ("D11,(0,0,1)", (1, 1), (0, 0, 1)),
        ("D22,(1,0,0)", (2, 2), (1, 0, 0)),
    ]
    assert _outer_independent(five).passed
    # a repeated map would share its weight and its target with the first
    rep = _outer_independent(five + [five[0]])
    assert not rep.passed
    assert rep.witness == ("the maps are distinct", "5", "6")
    # a derivation of weight (1, 0, 0) in N^3 minus {0}: ad_{a[1,1]} is
    # (1 - q^-1) times it, so it is inner
    T2 = build(2)
    d = monomial_derivation((1, 2), (1, 1, 0))
    assert is_derivation(d)
    assert inner_derivation(T2.a(1, 1)).images == d.scale(ONE - qpow(-1)).images
    rep = _outer_independent(five + [("D12,(1,1,0)", (1, 2), (1, 1, 0))])
    assert not rep.passed
    assert rep.witness == ("weight of D12,(1,1,0)", "(1, 0, 0)", "outside N^3 minus {0}")
    # a map that is not a derivation is caught before its weight
    rep = _outer_independent(five + [("D11,(1,0,1)", (1, 1), (1, 0, 1))])
    assert not rep.passed
    assert rep.witness == ("D11,(1,0,1) is a derivation", "False", "True")


def test_inner_monomial_derivations_have_their_exponent_as_weight():
    # the proof's premise: every image term of ad_{x^nu} at g has exponent
    # nu + e_g, on the inner derivations the bounded certificate used
    T2 = build(2)
    nus = [nu for nu in product(range(4), repeat=3) if 1 <= sum(nu) <= 3]
    assert len(nus) == 19
    for nu in nus:
        images = inner_derivation(T2.monomial(nu)).images
        assert any(images), nu
        for g, img in enumerate(images):
            shifted = tuple(e + (h == g) for h, e in enumerate(nu))
            assert all(mono == shifted for mono in img.terms), (nu, g)


def test_derivation_table():
    rep = utq2_derivation_table()
    assert rep.passed, rep.line()
    U2 = build(2, True)
    z = U2.a(1, 1) * U2.a(2, 2) ** -1
    zinv = z.inverse()
    dz = DerivationSpec(U2, [U2.zero(), U2.zero(), -(zinv * zinv * U2.a(1, 1))])
    # -z dz sends a22 back to a22
    assert dz.left_mul(-z).images[U2.gen_index(2, 2)] == U2.a(2, 2)


def test_derivation_spec_validation():
    T2 = build(2)
    with pytest.raises(ValueError):
        DerivationSpec(T2, [T2.zero()] * 2)
    with pytest.raises(ValueError):
        DerivationSpec(T2, [build(3).zero()] * 3)
