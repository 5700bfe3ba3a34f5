"""Degrees as (vector, dual) pairs and the certificates built on them.

``q_relation`` decides every q-commutation relation of ``is_point`` and the
commutation-lemma lines by the degrees of its sides' term pairs, and builds
products only for a relation the degrees reject.  These tests hold the
certificate to a product-only oracle kept here, check the degree form (one
degree's vector dotted with another's dual) against ``monomial_mul`` in
every kind of presentation and the torus grading against a sign-sum oracle
kept here, count the products and degrees it takes, and check the n-free
degree forms that prove the commutation tables for every n.
"""

import random
import re
from itertools import accumulate, product
from operator import mul

import pytest

from qtriangular.coeff import qpow
from qtriangular.qalgebra import (
    SCALARS,
    Element,
    QAlgebra,
    TensorElement,
    TensorSquare,
    is_point,
    q_relation,
    quantum_affine,
    random_element,
    random_scalar,
    tensor_square,
    term_degrees,
)
from qtriangular.structure import (
    _factor_tuples,
    _lemma_lines,
    _m_bb,
    _m_diag,
    _m_offdiag,
    check_bialgebra,
    check_commutation_lemmas,
    check_point_product,
)
from qtriangular.triangular import (
    TriangularAlgebra,
    _sgn,
    antipode_spec,
    b_element,
    build,
    counit_spec,
    delta_spec,
    rho_spec,
    sigma_spec,
    star_spec,
    tgen,
    theta_spec,
)


def _is_point_by_products(images, algebra, opposite=False):
    """The point check as products only: the oracle for the certificate."""
    sign = -1 if opposite else 1
    for a in range(algebra.ngens):
        if algebra.invertible[a] and not images[a].is_unit:
            return False
        for b in range(a):
            rhs = (images[b] * images[a]).scale(qpow(sign * algebra.M[a][b]))
            if images[a] * images[b] != rhs:
                return False
    return True


def _form(d1, d2) -> int:
    """The degree form: d1's vector dotted with d2's dual."""
    return sum(map(mul, d1[0], d2[1]))


def _sgn_form(x, y) -> int:
    """The sum of x_i * y_k * sgn(i - k) over all i, k, in O(n): each x_i
    meets the y-mass below i minus the y-mass above it.  The oracle for the
    torus degree forms."""
    below = accumulate(y, initial=0)
    return 2 * sum(map(mul, x, below)) + sum(map(mul, x, y)) - sum(x) * sum(y)


def _torus(rows, cols):
    """The torus degree of row and column marginals, straight from its
    definition: (R || C, s(R) || -s(C)) with s(y)_i = sum_k y_k sgn(i - k)."""

    def s(y):
        return tuple(sum(yk * _sgn(i - k) for k, yk in enumerate(y)) for i in range(len(y)))

    return rows + cols, s(rows) + tuple(-x for x in s(cols))


def _marginals(t, mono):
    rows, cols = [0] * t.n, [0] * t.n
    for (i, j), e in zip(t.gen_pairs, mono):
        rows[i - 1] += e
        cols[j - 1] += e
    return tuple(rows), tuple(cols)


def _random_mono(alg, rng):
    return tuple(
        rng.randint(-2, 2) if alg.invertible[g] else rng.randint(0, 2) for g in range(alg.ngens)
    )


def _form_mismatches(pres, draw, trials=200):
    """The pairs among ``trials`` pairs of monomials from ``draw`` whose
    degree form is not the B of x^alpha x^beta = q^B x^beta x^alpha that
    ``monomial_mul`` gives: the oracle for every grading."""
    bad = []
    for _ in range(trials):
        alpha, beta = draw(), draw()
        (w1, _), (w2, _) = pres.monomial_mul(alpha, beta), pres.monomial_mul(beta, alpha)
        if _form(pres.degree(alpha), pres.degree(beta)) != w1 - w2:
            bad.append((alpha, beta))
    return bad


def _squares(alg, rng):
    """``alg``, its tensor square and a nested square, each with a draw of
    random monomials."""

    def draw():
        return _random_mono(alg, rng)

    sq = tensor_square(alg, alg)
    yield alg, draw
    yield sq, lambda: (draw(), draw())
    yield tensor_square(alg, sq), lambda: (draw(), (draw(), draw()))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("localized", [False, True])
def test_degree_form_is_the_q_commutation_exponent(n, localized):
    rng = random.Random(100 * n + localized)
    for pres, draw in _squares(build(n, localized), rng):
        assert _form_mismatches(pres, draw) == [], pres


@pytest.mark.parametrize("alg", [quantum_affine(3), quantum_affine(4), SCALARS], ids=["A3", "A4", "K"])
def test_exponent_grading_gives_the_q_commutation_exponent(alg):
    # QAlgebra.degree is (mono, M mono): every presentation is graded
    rng = random.Random(alg.ngens)
    for pres, draw in _squares(alg, rng):
        assert _form_mismatches(pres, draw) == [], pres
    assert alg.degree(alg.unit_mono()) == (alg.unit_mono(), alg.unit_mono())


def test_a_dual_from_the_transposed_matrix_fails_the_oracle(monkeypatch):
    # M^T = -M negates every degree form, so on quantum affine space, whose
    # forms are mostly nonzero, the oracle rejects this mutant grading
    def transposed(self, mono):
        return mono, tuple(sum(map(mul, col, mono)) for col in zip(*self.M))

    monkeypatch.setattr(QAlgebra, "degree", transposed)
    rng = random.Random(3)
    for alg in (quantum_affine(3), quantum_affine(4)):
        assert _form_mismatches(alg, lambda: _random_mono(alg, rng)) != []


@pytest.mark.parametrize("n", range(2, 10))
def test_degree_vectors_and_duals_match_the_sign_sum_oracle(n):
    # B = <vector(alpha), dual(beta)> is sum R1_i R2_k sgn(i - k) minus the
    # same sum over the columns, in a plain algebra; a square concatenates
    # its factors' vectors and duals, so its form is the sum of theirs
    t = build(n, True)
    sq = tensor_square(t, t)
    nested = tensor_square(t, sq)
    rng = random.Random(n)

    def oracle(alpha, beta):
        (r1, c1), (r2, c2) = _marginals(t, alpha), _marginals(t, beta)
        return _sgn_form(r1, r2) - _sgn_form(c1, c2)

    for _ in range(100):
        m = [_random_mono(t, rng) for _ in range(6)]
        assert t.degree(m[0]) == _torus(*_marginals(t, m[0]))
        want = oracle(m[0], m[1])
        assert _form(t.degree(m[0]), t.degree(m[1])) == want
        (v0, d0), (v2, d2) = t.degree(m[0]), t.degree(m[2])
        assert sq.degree((m[0], m[2])) == (v0 + v2, d0 + d2)
        assert _form(sq.degree((m[0], m[2])), sq.degree((m[1], m[3]))) == want + oracle(m[2], m[3])
        nu, nv = (m[0], (m[2], m[4])), (m[1], (m[3], m[5]))
        assert _form(nested.degree(nu), nested.degree(nv)) == want + oracle(m[2], m[3]) + oracle(m[4], m[5])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_generators_and_b_elements_are_homogeneous(n):
    t = build(n)
    one = [1] * n

    def e(i):
        return tuple(int(k == i) for k in range(1, n + 1))

    for (i, j) in t.gen_pairs:
        assert term_degrees(t.a(i, j)) == frozenset({_torus(e(i), e(j))})
        if i < j:
            want = _torus(tuple(map(int.__sub__, one, e(j))), tuple(map(int.__sub__, one, e(i))))
            assert term_degrees(b_element(i, j, t)) == frozenset({want})
    assert term_degrees(t.zero()) == frozenset()
    assert term_degrees(t.a(1, 1) + t.a(1, 2)) == frozenset({_torus(e(1), e(1)), _torus(e(1), e(2))})
    # D(a[1,2]) = a[1,1] (x) a[1,2] + a[1,2] (x) a[2,2], and a square's
    # degree concatenates its factors' vectors and duals
    (v11, s11), (v12, s12), (v22, s22) = (_torus(e(k), e(l)) for k, l in ((1, 1), (1, 2), (2, 2)))
    want = frozenset({(v11 + v12, s11 + s12), (v12 + v22, s12 + s22)})
    assert term_degrees(delta_spec(t).images[t.gen_index(1, 2)]) == want
    assert term_degrees(SCALARS.one()) == frozenset({((), ())})


def test_degree_forms_against_b_elements_do_not_depend_on_n():
    # b[i,j] has marginals (1 - e_j, 1 - e_i), so the sums over m of
    # sgn(k - m) and sgn(m - l), which carry n, cancel in its degree forms;
    # every generator pair at n = 2..8 (2,891 pairs)
    count = 0
    for n in range(2, 9):
        t = build(n)
        e = {i: tuple(int(m == i) for m in range(1, n + 1)) for i in range(1, n + 1)}
        one = (1,) * n
        a = {p: term_degrees(t.a(*p)) for p in t.gen_pairs}
        b = {p: term_degrees(b_element(*p, t)) for p in t.gen_pairs}
        for (i, j) in t.gen_pairs:
            want = _torus(tuple(map(int.__sub__, one, e[j])), tuple(map(int.__sub__, one, e[i])))
            assert b[i, j] == frozenset({want}), (n, i, j)
        for (k, l), (i, j) in product(t.gen_pairs, repeat=2):
            (da,), (dbkl,), (db,) = a[k, l], b[k, l], b[i, j]
            assert _form(da, db) == 2 * (k - l) - _sgn(k - j) + _sgn(l - i)
            assert _form(dbkl, db) == 2 * (k - l) - 2 * (i - j) + _sgn(l - j) - _sgn(k - i)
            count += 1
    assert count == 2891


def _order_type(xs):
    ranks = sorted(set(xs))
    return tuple(ranks.index(x) for x in xs)


def test_lemma_lines_at_n4_hold_every_order_type():
    # once the σ twists are removed, a table line's truth depends only on
    # the order type of (k, l, i, j); every a- and b-line kind must meet
    # every order type with k <= l and i < j (k = l on the diagonal lines)
    # at n = 4, so that the run there decides every n
    index = re.compile(r"([ab])\[(\d+),(\d+)\](?:s\()?b\[(\d+),(\d+)\]")
    seen = {"a": set(), "b": set()}
    for label, lhs, rhs in _lemma_lines(build(4), _m_diag, _m_offdiag, _m_bb):
        assert lhs == rhs, label
        found = index.match(label)
        if found:
            kind, *ks = found.groups()
            seen[kind].add(_order_type(tuple(map(int, ks))))
    want = {_order_type(x) for x in product(range(4), repeat=4) if x[0] <= x[1] and x[2] < x[3]}
    # the 13 relations of two intervals [k, l] and [i, j], and the 5 places
    # of k = l about i < j
    assert len(want) == 13 + 5
    assert seen == {"a": want, "b": want}


def test_q_relation_decides_cancellation_by_products():
    # (a[1,1], a[1,2]) has degree form 1 != 0, so the degrees reject the
    # relation y*y = y*y, and the products, which are equal, decide it
    t = build(2)
    (d11,), (d12,) = term_degrees(t.a(1, 1)), term_degrees(t.a(1, 2))
    assert _form(d11, d12) == 1
    y = t.a(1, 1) + t.a(1, 2)
    lhs, rhs = q_relation(y, y, 0, term_degrees(y), term_degrees(y))
    assert isinstance(lhs, Element)
    assert lhs == rhs == y * y


def test_q_relation_holds_between_zero_sides():
    # 0 = q^m * 0: a zero side has no term pairs, so the degrees decide it
    t = build(2)
    for y, z in ((t.zero(), t.a(1, 2)), (t.a(1, 1), t.zero()), (t.zero(), t.zero())):
        assert q_relation(y, z, 5, term_degrees(y), term_degrees(z)) == (True, True)
    zero = SCALARS.zero()
    assert term_degrees(zero) == frozenset()
    assert q_relation(zero, zero, 5, term_degrees(zero), term_degrees(zero)) == (True, True)


def _tuples(n, rng):
    """Named image tuples with the source algebra and orientation they are
    meant for: homogeneous one- and multi-term, inhomogeneous, with zeros,
    in a tensor square, in the scalars and in quantum affine space.  Lazily,
    so that the plain generators are compared before any spec is built."""
    t, ut, x = build(n), build(n, True), quantum_affine(n)
    pairs = t.gen_pairs
    yield "generators", [t.gen(g) for g in range(t.ngens)], t, False
    yield "affine generators", [x.gen(g) for g in range(x.ngens)], x, False
    yield "scaled generators", [t.gen(g).scale(random_scalar(rng)) for g in range(t.ngens)], t, False
    yield "diagonal, zeros elsewhere", [t.a(i, j) if i == j else t.zero() for (i, j) in pairs], t, False
    yield "b elements", [b_element(i, j, t) for (i, j) in pairs], t, False
    if n <= 3:
        tt = tgen(ut)
        yield "t*b, plain source", [tt * b_element(i, j, ut) for (i, j) in pairs], t, True
    yield "sigma", sigma_spec(ut).images, ut, False
    yield "rho", rho_spec(t).images, t, False
    if n % 2 == 0:
        yield "theta", theta_spec(t).images, t, False
    yield "S = t*b", antipode_spec(ut).images, ut, True
    yield "star", star_spec(ut).images, ut, True
    yield "Delta", delta_spec(t).images, t, False
    yield "counit", counit_spec(t).images, t, False
    A, B = _factor_tuples(t)
    zero = tensor_square(t, t).zero()
    yield "A", [A[p] for p in pairs], t, False
    yield "B", [B[p] for p in pairs], t, False
    yield "AB", [sum((A[i, k] * B[k, j] for k in range(i, j + 1)), zero) for (i, j) in pairs], t, False


def _corrupt(images, rng):
    """One random change that keeps the images in their target: a swap, a
    q-power or scalar factor, a zero, a sum of two images, or a random
    element in the same target."""
    images = list(images)
    target = images[0].algebra
    a, b = rng.sample(range(len(images)), 2)
    kind = rng.randrange(6)
    if kind == 0:
        images[a], images[b] = images[b], images[a]
    elif kind == 1:
        images[a] = images[a].scale(qpow(rng.choice((-1, 1))))
    elif kind == 2:
        images[a] = images[a].scale(random_scalar(rng))
    elif kind == 3:
        images[a] = target.zero()
    elif kind == 4:
        images[a] = images[a] + images[b]
    elif isinstance(images[a], TensorElement):
        images[a] = TensorElement.of(
            random_element(target.left, rng, max_terms=2, pos_range=(0, 1), inv_range=(-1, 1)),
            random_element(target.right, rng, max_terms=2, pos_range=(0, 1), inv_range=(-1, 1)),
        )
    else:
        images[a] = random_element(target, rng, max_terms=2, pos_range=(0, 1), inv_range=(-1, 1))
    return images


def test_is_point_agrees_with_products():
    rng = random.Random(20)
    verdicts = {}
    for n in (2, 3, 4, 5, 6):
        for name, images, source, opposite in _tuples(n, rng):
            trials = [list(images)] + [_corrupt(images, rng) for _ in range(6)]
            for k, imgs in enumerate(trials):
                for opp in (opposite, not opposite):
                    got = is_point(imgs, source, opposite=opp)
                    want = _is_point_by_products(imgs, source, opposite=opp)
                    assert got == want, (n, name, k, opp)
                    verdicts.setdefault(name, set()).add(got)
    # both verdicts occur, so neither side can pass vacuously
    assert {True, False} <= set().union(*verdicts.values())
    for name in ("generators", "S = t*b", "star", "Delta", "AB", "diagonal, zeros elsewhere"):
        assert True in verdicts[name], name


def test_is_point_of_delta_and_counit_builds_each_degree_once_and_no_product(monkeypatch):
    # Δ's images at n = 7 have 84 terms, whose degrees take 84 square and
    # 168 factor degrees, and each of the 3,360 term pairs of Δ's relations
    # is then one dot product; the counit's relations hold by the degrees
    # of its 7 scalar terms, or vacuously on its zero images
    t = build(7)
    calls = {}

    def counter(key, f):
        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return f(*args)

        return counted

    for cls in (QAlgebra, TriangularAlgebra, TensorSquare):
        monkeypatch.setattr(cls, "degree", counter(cls.__name__, cls.degree))
    for cls in (Element, TensorElement):
        monkeypatch.setattr(cls, "__mul__", counter("product", Element.__mul__))
    assert is_point(delta_spec(t).images, t)
    delta_calls = dict(calls)
    calls.clear()
    assert is_point(counit_spec(t).images, t)
    monkeypatch.undo()
    assert delta_calls == {"TensorSquare": 84, "TriangularAlgebra": 168}
    assert calls == {"QAlgebra": 7}


def test_is_point_rejects_mixed_algebras_as_before():
    t2, t3 = build(2), build(3)
    with pytest.raises(ValueError):
        is_point([t2.a(1, 1), t3.a(1, 1), t2.a(2, 2)], t2)


def test_certificates_multiply_no_two_multiterm_elements(monkeypatch):
    ut = build(6, True)
    images = antipode_spec(ut).images
    assert sum(len(img.terms) > 1 for img in images) == 10
    calls = []
    mul = Element.__mul__

    def counted(self, other):
        if isinstance(other, Element) and len(self.terms) > 1 and len(other.terms) > 1:
            calls.append((len(self.terms), len(other.terms)))
        return mul(self, other)

    # TensorElement binds Element's product under its own name, so both
    # bindings are patched to see the products of tensors too
    monkeypatch.setattr(Element, "__mul__", counted)
    monkeypatch.setattr(TensorElement, "__mul__", counted)
    fresh = antipode_spec.__wrapped__(ut)  # runs the point check again
    reps = [check_commutation_lemmas(6), check_bialgebra(6), check_point_product(6)]
    assert calls == []
    monkeypatch.undo()
    assert fresh.images == images
    assert all(rep.passed for rep in reps)
