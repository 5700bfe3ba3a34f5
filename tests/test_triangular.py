import json
import random
from itertools import combinations, permutations

import pytest

from helpers import count_element_ops

from qtriangular.coeff import GaussianRational, I, ONE, ScalarQ, qpow
from qtriangular.qalgebra import (
    SCALARS,
    MorphismSpec,
    TensorElement,
    is_point,
    quantum_affine,
    random_element,
    random_scalar,
    tensor_square,
)
from qtriangular.triangular import (
    antipode,
    antipode_spec,
    b_element,
    b_recurrence,
    build,
    coproduct,
    counit,
    counit_spec,
    delta_spec,
    gamma_spec,
    qdet,
    rho_spec,
    sigma_spec,
    star,
    star_spec,
    tgen,
    theta_spec,
)


def _exponent(p, r, n):
    """The commutation exponent of a_p and a_r, read off ``build(n).M``."""
    T = build(n)
    return T.M[T.gen_index(*p)][T.gen_index(*r)]


def test_commutation_matrix_examples():
    assert _exponent((2, 2), (1, 2), 2) == 1
    assert _exponent((1, 1), (2, 2), 2) == 0
    assert _exponent((2, 3), (1, 4), 4) == 2
    assert _exponent((1, 4), (2, 3), 4) == -2
    assert _exponent((1, 1), (1, 2), 2) == 1
    with pytest.raises(ValueError):
        _exponent((2, 1), (1, 1), 2)


def _four_family_exponent(p, r):
    """The paper's four relation families, matched against the pair: the
    oracle for the closed form that builds M."""
    (pi, pj), (ri, rj) = p, r
    matches = []
    # same column k: a[j,k] a[i,k] = q a[i,k] a[j,k] for i < j <= k
    if pj == rj and pi != ri:
        matches.append(1 if pi > ri else -1)
    # same row j: a[j,k] a[j,l] = q a[j,l] a[j,k] for j <= k < l
    if pi == ri and pj != rj:
        matches.append(1 if pj < rj else -1)
    if pi != ri and pj != rj:
        if (pi < ri) == (pj < rj):
            # commuting pattern: a[i,k] a[j,l] = a[j,l] a[i,k] for i < j <= l, i <= k < l
            matches.append(0)
        else:
            # nested intervals: a[j,k] a[i,l] = q^2 a[i,l] a[j,k] for i < j <= k < l
            matches.append(2 if pi > ri else -2)
    if len(matches) != 1:
        raise RuntimeError(f"relation families matched {len(matches)} times for {p}, {r}")
    return matches[0]


def test_commutation_matrix_exhaustive_coverage():
    # every ordered pair matches exactly one family, and the matrix M that
    # every product reads agrees with it, antisymmetrically, for all n up to
    # 8 (2,772 pairs)
    count = 0
    for n in range(2, 9):
        M, g = build(n).M, build(n).gen_index
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for p, r in permutations(pairs, 2):
            e = M[g(*p)][g(*r)]
            assert e == _four_family_exponent(p, r), (p, r, n)
            assert e in (-2, -1, 0, 1, 2)
            assert M[g(*r)][g(*p)] == -e
            # the reflection ρ(i,j) = (n+1-j, n+1-i) preserves M
            assert M[g(n + 1 - p[1], n + 1 - p[0])][g(n + 1 - r[1], n + 1 - r[0])] == e
            count += 1
    assert count == 2772


def test_build_examples():
    T2 = build(2)
    assert T2.gen_names == ("a[1,1]", "a[1,2]", "a[2,2]")
    assert T2.M == ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
    assert T2.invertible == (False, False, False)
    U2 = build(2, True)
    assert U2.M == T2.M
    assert U2.invertible == (True, False, True)
    T3 = build(3)
    assert T3.ngens == 6
    with pytest.raises(ValueError):
        build(1)
    for size in (2.5, "3"):
        with pytest.raises(TypeError):
            build(size)  # not truncated to an integer
    assert build(2) is build(2)  # cached identity


def test_coproduct_examples():
    T3 = build(3)
    expected = (
        TensorElement.of(T3.a(1, 1), T3.a(1, 3))
        + TensorElement.of(T3.a(1, 2), T3.a(2, 3))
        + TensorElement.of(T3.a(1, 3), T3.a(3, 3))
    )
    assert coproduct(T3.a(1, 3)) == expected
    # a scalar is a multiple of 1 (x) 1, as it is of 1 for an Element
    unit = TensorElement.of(T3.one(), T3.one())
    assert expected + 1 == expected + unit
    assert expected - 1 == expected - unit
    assert 1 + expected == unit + expected
    for foreign in (lambda: expected + "x", lambda: expected - "x", lambda: "x" + expected):
        with pytest.raises(TypeError):
            foreign()
    for other_algebra in (lambda: expected + T3.a(1, 1), lambda: expected == T3.one()):
        with pytest.raises(ValueError):
            other_algebra()
    assert coproduct(T3.one()) == TensorElement.of(T3.one(), T3.one())
    U2 = build(2, True)
    t = tgen(U2)
    assert coproduct(t) == TensorElement.of(t, t)


def test_tensor_json_reads_back():
    # the [u, v, c] rows that ``delta --json`` prints, through JSON text
    for n in (2, 3, 4):
        for localized in (False, True):
            alg = build(n, localized)
            for i, j in alg.gen_pairs:
                te = coproduct(alg.a(i, j))
                rows = json.loads(json.dumps(te.to_json()))
                assert TensorElement.from_json(te.algebra, rows) == te
    T2, U2 = build(2), build(2, True)
    assert TensorElement.from_json(tensor_square(T2, T2), []) == tensor_square(T2, T2).zero()
    inverse = [[[-1, 0, 0], [0, 0, -1], ONE.to_json()]]
    assert TensorElement.from_json(tensor_square(U2, U2), inverse) == TensorElement.of(
        U2.a(1, 1) ** -1, U2.a(2, 2) ** -1)
    # a negative exponent on a non-invertible generator, on either side
    for square in (tensor_square(T2, U2), tensor_square(U2, T2)):
        with pytest.raises(ValueError, match="inadmissible monomial"):
            TensorElement.from_json(square, inverse)


def test_structure_maps_reject_foreign_algebras():
    x = quantum_affine(2).gen(0)
    for f in (coproduct, counit, antipode, star):
        with pytest.raises(ValueError, match=f"^{f.__name__} is defined on triangular algebras$"):
            f(x)


def test_delta_spec_images_are_points():
    # delta_spec skips the point check at run time; it holds for its images
    for n in (2, 3, 4, 5, 6):
        for localized in (False, True):
            alg = build(n, localized)
            MorphismSpec(alg, delta_spec(alg).images)


def test_coproduct_is_multiplicative():
    rng = random.Random(14)
    for n in (2, 3, 4):
        for localized in (False, True):
            alg = build(n, localized)
            for _ in range(4):
                e = random_element(alg, rng, max_terms=2, inv_range=(-2, 1), pos_range=(0, 1), max_support=4)
                f = random_element(alg, rng, max_terms=2, inv_range=(-2, 1), pos_range=(0, 1), max_support=4)
                assert coproduct(e * f) == coproduct(e) * coproduct(f)


def test_counit_examples():
    T2 = build(2)
    assert counit(T2.a(1, 2)) == ScalarQ({})
    assert counit(T2.a(1, 1) * T2.a(2, 2)) == ONE
    U2 = build(2, True)
    assert counit(tgen(U2) * qdet(U2)) == ONE
    assert counit(tgen(U2)) == ONE


def _counit_by_term_filter(e):
    # the reference: sum the coefficients of the monomials in diagonal generators only
    pairs = e.algebra.gen_pairs
    total = ScalarQ({})
    for mono, c in e.terms.items():
        if all(k == 0 or pairs[g][0] == pairs[g][1] for g, k in enumerate(mono)):
            total = total + c
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("localized", [False, True])
def test_counit_matches_term_filter(n, localized):
    alg = build(n, localized)
    rng = random.Random(300 + 10 * n + localized)
    samples = [random_element(alg, rng, max_terms=6, pos_range=(0, 2)) for _ in range(20)]
    # monomials made of diagonals only, so the filter keeps terms
    diag = [alg.gen_index(i, i) for i in range(1, n + 1)]
    for _ in range(10):
        e = alg.zero()
        for _ in range(rng.randint(1, 4)):
            mono = [0] * alg.ngens
            for g in diag:
                mono[g] = rng.randint(-2, 2) if localized else rng.randint(0, 2)
            e = e + alg.monomial(mono, random_scalar(rng))
        samples.append(e + random_element(alg, rng))
    if localized:
        assert any(k < 0 for e in samples for mono in e.terms for k in mono)
    assert any(_counit_by_term_filter(e) for e in samples)
    for e in samples:
        assert counit(e) == _counit_by_term_filter(e)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counit_spec_is_a_point(n):
    for localized in (False, True):
        alg = build(n, localized)
        eps = counit_spec(alg)
        assert eps.target is SCALARS
        assert is_point(eps.images, alg)


def test_gamma_reuses_rho_images():
    for n in (2, 3, 4):
        for localized in (False, True):
            alg = build(n, localized)
            assert gamma_spec(alg).images == rho_spec(alg).images
            assert gamma_spec(alg).antilinear and not rho_spec(alg).antilinear


def test_qdet_and_t():
    T2 = build(2)
    assert qdet(T2) == T2.a(1, 1) * T2.a(2, 2)
    U2 = build(2, True)
    assert tgen(U2) * qdet(U2) == U2.one()
    with pytest.raises(ValueError):
        tgen(T2)


def test_det_commutation():
    for n in range(2, 6):
        T = build(n)
        det = qdet(T)
        for (i, j) in T.gen_pairs:
            a = T.a(i, j)
            assert det * a == (a * det).scale(qpow(2 * (j - i)))


def test_det_skews_by_sigma_inverse():
    rng = random.Random(4)
    for n in (2, 3):
        T = build(n)
        det = qdet(T)
        si = sigma_spec(T, inverse=True)
        for _ in range(6):
            b = random_element(T, rng)
            assert det * b == si.apply(b) * det


def test_diagonal_product_commutation_rule():
    # a[i,j] * prod_{x in X} a[x,x] = q^m * prod * a[i,j]
    # with m = -2|{x in X : i < x < j}| - |X n {i,j}|
    for n in (2, 3, 4):
        T = build(n)
        for (i, j) in T.gen_pairs:
            if i == j:
                continue
            for size in range(n + 1):
                for X in combinations(range(1, n + 1), size):
                    prod = T.one()
                    for x in X:
                        prod = prod * T.a(x, x)
                    m = -2 * sum(1 for x in X if i < x < j) - len(set(X) & {i, j})
                    assert T.a(i, j) * prod == (prod * T.a(i, j)).scale(qpow(m))


def test_sigma_rho_gamma_theta():
    T2 = build(2)
    assert sigma_spec(T2).apply(T2.a(1, 2)) == T2.a(1, 2).scale(qpow(-2))
    for n in (2, 3, 4):
        T = build(n)
        rho = rho_spec(T)
        for g in range(T.ngens):
            assert rho.apply(rho.apply(T.gen(g))) == T.gen(g)
    T3 = build(3)
    e = T3.a(1, 2).scale(ScalarQ.constant(I))
    assert gamma_spec(T3).apply(e) == T3.a(2, 3).scale(ScalarQ.constant(-I))
    with pytest.raises(ValueError):
        theta_spec(T3)
    for n in (2, 4):
        alg = build(n)
        assert is_point(theta_spec(alg).images, alg)
    U2 = build(2, True)
    t = tgen(U2)
    for spec in (sigma_spec(U2), rho_spec(U2), gamma_spec(U2)):
        assert spec.apply(t) == t


def test_b_element_examples():
    T2 = build(2)
    assert b_element(1, 2, T2) == T2.a(1, 2).scale(qpow(1, -1))
    assert b_element(1, 1, T2) == T2.a(2, 2)
    T3 = build(3)
    expected = (T3.a(1, 2) * T3.a(2, 3)).scale(qpow(2)) - (T3.a(1, 3) * T3.a(2, 2)).scale(qpow(3))
    assert b_element(1, 3, T3) == expected
    with pytest.raises(ValueError):
        b_element(0, 1, T2)
    with pytest.raises(ValueError):
        b_element(2, 1, T2)


def test_diagonal_b_is_the_other_diagonals_product():
    # the oracle is the product b_element computed for i == j before the
    # chain sum took that case over, as the term of the one chain (i)
    for n in range(2, 8):
        for localized in (False, True):
            alg = build(n, localized)
            for i in range(1, n + 1):
                expected = alg.one()
                for k in range(1, n + 1):
                    if k != i:
                        expected = expected * alg.a(k, k)
                b = b_element(i, i, alg)
                assert b == expected, (n, localized, i)
                assert list(b.terms) == list(expected.terms)


def _product_b(i, j, alg):
    """b[i,j] rebuilt the way b_element once did: each chain's term as a
    product of generators, and a running sum of the terms.  The chains come
    from ``combinations``, not from ``_chains``."""
    out = alg.zero()
    interior = range(i + 1, j)
    for size in range(len(interior) + 1):
        for mid in combinations(interior, size):
            chain = [i, *mid, j] if i < j else [i]
            s = len(chain) - 1
            term = alg.scalar(qpow(2 * (j - i) - s, (-1) ** s))
            for u, v in zip(chain, chain[1:]):
                term = term * alg.a(u, v)
            for k in range(1, alg.n + 1):
                if k not in chain:
                    term = term * alg.a(k, k)
            out = out + term
    return out


@pytest.mark.parametrize("localized", [False, True])
@pytest.mark.parametrize("n", range(2, 10))
def test_b_element_is_the_product_chain_sum(n, localized):
    alg = build(n, localized)
    for i, j in alg.gen_pairs:
        b, expected = b_element(i, j, alg), _product_b(i, j, alg)
        assert b == expected, (i, j)
        assert str(b) == str(expected)
        assert sorted(b.terms.items()) == sorted(expected.terms.items())


@pytest.mark.parametrize("localized", [False, True])
@pytest.mark.parametrize("n", range(2, 10))
def test_qdet_is_the_diagonal_product(n, localized):
    alg = build(n, localized)
    expected = alg.one()
    for i in range(1, n + 1):
        expected = expected * alg.a(i, i)
    assert qdet(alg) == expected
    assert str(qdet(alg)) == str(expected)


def test_b_element_and_qdet_make_no_element_product_or_sum(monkeypatch):
    calls = count_element_ops(monkeypatch)
    for n in range(2, 7):
        for localized in (False, True):
            alg = build(n, localized)
            qdet(alg)
            for i, j in alg.gen_pairs:
                b_element.__wrapped__(i, j, alg)
    assert calls == []
    # the counters do see products and sums
    alg.a(1, 2) * alg.a(1, 1) + alg.one()
    assert calls == ["__mul__", "__add__"]


def test_star_spec_makes_no_element_product_or_sum(monkeypatch):
    for n in range(2, 8):
        antipode_spec(build(n, True))
    calls = count_element_ops(monkeypatch)
    for n in range(2, 8):
        star_spec.__wrapped__(build(n, True))
    assert calls == []


def test_b_recurrence_examples():
    U2 = build(2, True)
    assert b_recurrence(1, 2, U2, "left") == U2.a(1, 2).scale(qpow(1, -1))
    U3 = build(3, True)
    assert b_recurrence(1, 3, U3, "left") == b_element(1, 3, U3)
    assert b_recurrence(1, 2, U3, "right") == (U3.a(1, 2) * U3.a(3, 3)).scale(qpow(1, -1))
    with pytest.raises(ValueError):
        b_recurrence(1, 1, U2)
    with pytest.raises(ValueError):
        b_recurrence(1, 2, build(2), "left")
    with pytest.raises(ValueError):
        b_recurrence(1, 2, U2, "middle")


def test_b_recurrence_matches_chain_sum():
    for n in (2, 3, 4):
        U = build(n, True)
        for (i, j) in U.gen_pairs:
            if i < j:
                assert b_recurrence(i, j, U, "left") == b_element(i, j, U)
                assert b_recurrence(i, j, U, "right") == b_element(i, j, U)


def test_b_transport_consistency():
    for n in (2, 3):
        T, U = build(n), build(n, True)
        for (i, j) in T.gen_pairs:
            assert b_element(i, j, T).transport(U) == b_element(i, j, U)


def test_rho_and_sigma_act_on_b():
    for n in range(2, 6):
        T = build(n)
        rho, sig = rho_spec(T), sigma_spec(T)
        for (i, j) in T.gen_pairs:
            b = b_element(i, j, T)
            assert rho.apply(b) == b_element(n + 1 - j, n + 1 - i, T)
            assert sig.apply(b) == b.scale(qpow(2 * (i - j)))
    # γ(b[i,j]) = b[ρ(i,j)] exactly, which makes * the antipode reindexed by ρ
    for n in range(2, 10):
        for alg in (build(n), build(n, True)):
            gamma = gamma_spec(alg)
            for (i, j) in alg.gen_pairs:
                assert gamma.apply(b_element(i, j, alg)) == b_element(n + 1 - j, n + 1 - i, alg)


def test_convolution_identity():
    for n in range(2, 6):
        T = build(n)
        det = qdet(T)
        for (i, j) in T.gen_pairs:
            target = det if i == j else T.zero()
            left = T.zero()
            right = T.zero()
            for k in range(i, j + 1):
                left = left + b_element(i, k, T) * T.a(k, j)
                right = right + (T.a(i, k) * b_element(k, j, T)).scale(qpow(2 * (k - j)))
            assert left == target
            assert right == target


def test_antipode_examples():
    U2 = build(2, True)
    assert antipode(U2.a(1, 1)) == U2.a(1, 1) ** -1
    expected = (U2.a(1, 1) ** -1 * U2.a(1, 2) * U2.a(2, 2) ** -1).scale(-1)
    assert antipode(U2.a(1, 2)) == expected
    assert antipode(U2.one()) == U2.one()
    assert antipode(tgen(U2)) == qdet(U2)
    with pytest.raises(ValueError):
        antipode(build(2).a(1, 2))


def test_antipode_two_sided_form():
    # S(a[i,j]) = t b[i,j] = sigma(b[i,j]) t
    for n in (2, 3):
        U = build(n, True)
        t = tgen(U)
        sig = sigma_spec(U)
        for (i, j) in U.gen_pairs:
            b = b_element(i, j, U)
            assert antipode(U.a(i, j)) == t * b
            assert t * b == sig.apply(b) * t


def test_star_examples():
    U2 = build(2, True)
    assert star(U2.one()) == U2.one()
    assert star(U2.a(1, 1)) == U2.a(2, 2) ** -1
    rng = random.Random(12)
    for alg in (U2, build(3, True)):
        for _ in range(6):
            e = random_element(alg, rng)
            assert star(star(e)) == e
    with pytest.raises(ValueError):
        star(build(2).a(1, 2))
    # the one-pass spec against the two-pass composite γ∘S it replaces,
    # including negative diagonal exponents
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        U = build(n, True)
        for _ in range(4):
            e = random_element(U, rng, max_terms=3, pos_range=(0, 1), max_support=4)
            assert star(e) == gamma_spec(U).apply(antipode(e))
    # the images are S's reindexed by ρ, equal to the γ pass over S's images
    for n in range(2, 10):
        U = build(n, True)
        expected = [gamma_spec(U).apply(x) for x in antipode_spec(U).images]
        for img, exp in zip(star_spec(U).images, expected, strict=True):
            assert img == exp, n
            assert str(img) == str(exp)
            assert sorted(img.terms.items()) == sorted(exp.terms.items())
    # star_spec skips the point check; it holds for its images
    for n in (2, 3, 4, 5, 6):
        U = build(n, True)
        MorphismSpec(U, star_spec(U).images, antimorphism=True, antilinear=True)


def _covector(T, A, i, reflected):
    te = tensor_square(T, A).zero()
    n = T.n
    for j in range(i, n + 1):
        gen = T.a(n + 1 - j, n + 1 - i) if reflected else T.a(i, j)
        te = te + TensorElement.of(gen, A.gen(j - 1))
    return te


def test_coaction_covectors_satisfy_affine_relations():
    # x'_i = sum_j a[i,j] (x) x_j and its reflected variant q-commute like
    # the quantum affine space generators
    for n in (2, 3, 4):
        T = build(n)
        A = quantum_affine(n)
        for reflected in (False, True):
            xs = [_covector(T, A, i, reflected) for i in range(1, n + 1)]
            for i in range(n):
                for j in range(i + 1, n):
                    assert xs[j] * xs[i] == (xs[i] * xs[j]).scale(qpow(1))
