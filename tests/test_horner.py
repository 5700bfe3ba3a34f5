"""``MorphismSpec.apply`` sums each element's terms in Horner form over a
trie of their image powers.  These tests hold it to the left-to-right loop
(``helpers.left_to_right_apply``) on every kind of spec the library builds,
on a monomial whose trie is one chain through every generator, and to the
product counts that the shared prefixes of a chain sum allow."""

import random

import pytest

from helpers import count_element_ops, left_to_right_apply, random_sextuple, random_unit
from qtriangular.autos import LinearAuto2, g_to_endo, linear_auto_spec
from qtriangular.coeff import ONE, ZERO, qpow
from qtriangular.deriv import monomial_derivation, named_derivations
from qtriangular.qalgebra import MorphismSpec, random_element
from qtriangular.triangular import (
    antipode,
    antipode_spec,
    b_element,
    build,
    coproduct,
    counit_spec,
    delta_spec,
    gamma_spec,
    rho_spec,
    sigma_spec,
    star,
    star_spec,
    theta_spec,
)


def _samples(alg, rng):
    """Seeded random elements, their products (whose terms share factors),
    the chain sum b[1,n], and a staircase whose k-th term is the product of
    the first k generators (up to 5), so that each term's trie path is a
    prefix of the next one's."""
    out = []
    for _ in range(4):
        e = random_element(alg, rng, max_terms=5, pos_range=(0, 2), max_support=3)
        f = random_element(alg, rng, max_terms=3, pos_range=(0, 2), max_support=2)
        out += [e, e * f]
    out.append(b_element(1, alg.n, alg))
    stair, step = alg.zero(), alg.one()
    for g in range(min(alg.ngens, 5)):
        step = step * alg.gen(g)
        stair = stair + step.scale(qpow(g, g + 1))
    out += [stair, alg.zero(), alg.one().scale(qpow(-1, 3))]
    return out


def _triangular_specs(alg):
    specs = {
        "delta": delta_spec(alg),
        "counit": counit_spec(alg),
        "sigma": sigma_spec(alg),
        "sigma^-1": sigma_spec(alg, True),
        "rho": rho_spec(alg),
        "gamma": gamma_spec(alg),
    }
    if alg.n % 2 == 0:
        specs["theta"] = theta_spec(alg)
    if alg.localized:
        specs["S"] = antipode_spec(alg)
        specs["star"] = star_spec(alg)
    return specs


@pytest.mark.parametrize("localized", [False, True])
@pytest.mark.parametrize("n", range(2, 6))
def test_apply_matches_the_left_to_right_loop(n, localized):
    alg = build(n, localized)
    rng = random.Random(100 * n + localized)
    samples = _samples(alg, rng)
    for name, spec in _triangular_specs(alg).items():
        for e in samples:
            assert spec.apply(e) == left_to_right_apply(spec, e), (name, str(e))


@pytest.mark.parametrize("localized", [False, True])
def test_derivations_and_autos_match_the_left_to_right_loop(localized):
    alg = build(2, localized)
    rng = random.Random(7 + localized)
    specs = dict(named_derivations(alg))
    if localized:
        specs.update({f"g_to_endo {k}": g_to_endo(random_sextuple(rng)) for k in range(3)})
    else:
        specs["D12,(2,1,0)"] = monomial_derivation((1, 2), (2, 1, 0))
        specs["linear auto"] = linear_auto_spec(LinearAuto2(random_unit(rng), ((ONE, ONE), (ZERO, ONE))))
    samples = _samples(alg, rng)
    for name, spec in specs.items():
        for e in samples:
            assert spec.apply(e) == left_to_right_apply(spec, e), (name, str(e))


def test_a_zero_image_kills_its_term_before_any_later_power():
    alg = build(2)
    a11, a12, a22 = alg.a(1, 1), alg.a(1, 2), alg.a(2, 2)
    eps = counit_spec(alg)
    # a[1,1]*a[1,2] shares the branch a[1,1] with a[1,1], and dies at a[1,2]
    e = a11 * a12 + a11.scale(qpow(1, 2))
    assert eps.apply(e) == left_to_right_apply(eps, e) == eps.target.scalar(qpow(1, 2))
    # a fresh counit spec: a[2,2]^3 stands after the zero image of a[1,2]
    fresh = MorphismSpec(alg, eps.images, check=False)
    assert fresh.apply(a12 * a22**3) == fresh.target.zero()
    assert (alg.gen_index(2, 2), 3) not in fresh._powers


def test_a_monomial_on_every_generator_applies_without_deep_recursion():
    # 1,035 generators on one trie path
    alg = build(45)
    spec = sigma_spec(alg)
    e = alg.monomial((1,) * alg.ngens)
    got = spec.apply(e)
    # σ scales a[i,j] by q^(2(i-j)), and the ascending product needs no reordering
    assert got == e.scale(qpow(sum(2 * (i - j) for i, j in alg.gen_pairs)))
    assert got == left_to_right_apply(spec, e)


@pytest.mark.parametrize("label, compose", [
    ("S(S(a[1,7]))", lambda x: antipode(antipode(x))),
    ("D(*(a[1,7]))", lambda x: coproduct(star(x))),
])
def test_chain_sums_share_their_prefix_products(monkeypatch, label, compose):
    alg = build(7, True)
    x = alg.a(1, 7)
    # the first pass fills the specs and their power caches
    expected = compose(x)
    calls = count_element_ops(monkeypatch)
    assert compose(x) == expected
    # the left-to-right loop makes 224 here (231 with cold power caches)
    assert calls.count("__mul__") <= 102, label
