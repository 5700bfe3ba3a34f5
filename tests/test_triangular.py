import random
from itertools import combinations

import pytest

from qtriangular.coeff import GaussianRational, I, ONE, ScalarQ, qpow
from qtriangular.qalgebra import (
    MorphismSpec,
    TensorElement,
    is_point,
    quantum_affine,
    random_element,
    tensor_square,
)
from qtriangular.triangular import (
    antipode,
    b_element,
    b_recurrence,
    build,
    comm_exponent,
    coproduct,
    counit,
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


def test_comm_exponent_examples():
    assert comm_exponent((2, 2), (1, 2), 2) == 1
    assert comm_exponent((1, 1), (2, 2), 2) == 0
    assert comm_exponent((2, 3), (1, 4), 4) == 2
    assert comm_exponent((1, 4), (2, 3), 4) == -2
    assert comm_exponent((1, 1), (1, 2), 2) == 1
    with pytest.raises(ValueError):
        comm_exponent((1, 2), (1, 2), 2)
    with pytest.raises(ValueError):
        comm_exponent((2, 1), (1, 1), 2)


def test_comm_exponent_exhaustive_coverage():
    # every unordered pair matches exactly one family (no exception raised),
    # antisymmetrically, for all n up to 6
    for n in range(2, 7):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for p, r in combinations(pairs, 2):
            e = comm_exponent(p, r, n)
            assert e in (-2, -1, 0, 1, 2)
            assert comm_exponent(r, p, n) == -e


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
