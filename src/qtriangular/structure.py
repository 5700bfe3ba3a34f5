"""Verification suites for the bialgebra/Hopf identities.

Each suite mechanically checks one batch of stated identities at a fixed
size n, exactly over the formal scalar ring, and reports the first
counterexample on failure.  No suite samples: each proves its identities
for every element, by an exhaustive table over finitely many indices or by
generators.  Δ, ε, S, σ, ρ, γ and ``*`` are (anti)linear (anti)morphisms,
as their point checks prove, so two composites of them of one kind agree
everywhere once they agree on the generators and inverted diagonals, the
only elements that a suite by generators checks.  The ``seed`` that each
``check_*`` takes is ignored; it is kept for compatibility.

A suite with a negative control draws its identities from a line generator
that takes the map under test: its ``check_*`` passes the real map, and
``negative_controls`` passes one corrupted map, on which the suite must fail.
"""

from __future__ import annotations

from itertools import chain

from .coeff import I, ScalarQ, _add_into, qpow
from .qalgebra import (
    SCALARS,
    MorphismSpec,
    TensorElement,
    _Record,
    is_point,
    q_relation,
    tensor_square,
    term_degrees,
)
from .triangular import (
    TriangularAlgebra,
    _sgn,
    antipode,
    antipode_spec,
    b_element,
    build,
    coproduct,
    counit,
    counit_spec,
    delta_spec,
    gamma_spec,
    qdet,
    rho_spec,
    sigma_spec,
    star_spec,
    tgen,
    theta_spec,
)


class CheckReport(_Record):
    """Outcome of one suite; ``witness`` holds (identity label, lhs, rhs)
    exactly when the suite failed."""

    __slots__ = ("name", "n", "passed", "witness")

    def __init__(self, name: str, n: int, passed: bool, witness: tuple | None = None):
        if passed == (witness is not None):
            raise ValueError("witness must be present exactly on failure")
        self._set(name, n, passed, witness)

    def line(self) -> str:
        if self.passed:
            return f"{self.name}[n={self.n}]: PASS"
        label, lhs, rhs = self.witness
        return f"{self.name}[n={self.n}]: FAIL at {label}: lhs = {lhs}, rhs = {rhs}"


def _run(name: str, n: int, checks) -> CheckReport:
    for label, lhs, rhs in checks:
        if lhs != rhs:
            return CheckReport(name, n, False, (label, str(lhs), str(rhs)))
    return CheckReport(name, n, True)


def _gens_with_inverses(alg: TriangularAlgebra):
    """Generators, plus inverted diagonals in the localized case."""
    out = [(alg.gen_names[g], alg.gen(g)) for g in range(alg.ngens)]
    if alg.localized:
        for i in range(1, alg.n + 1):
            out.append((f"a[{i},{i}]^-1", alg.a(i, i) ** -1))
    return out


def _identity(e):
    return e


def _with_image(spec: MorphismSpec, g: int, image) -> MorphismSpec:
    """``spec`` with generator g sent to ``image`` and no point check: the
    corrupted map of a negative control."""
    images = list(spec.images)
    images[g] = image
    return MorphismSpec(
        spec.source, images, antimorphism=spec.antimorphism, antilinear=spec.antilinear, check=False
    )


def _coassociativity(delta: MorphismSpec, te: TensorElement):
    """The two sides (delta (x) id)(te) and (id (x) delta)(te), both in
    A (x) (A (x) A): the left side's keys ((u, v), w) are rebracketed to
    (u, (v, w))."""
    lhs = te.map_factors(delta.apply, _identity)
    rhs = te.map_factors(_identity, delta.apply)
    return TensorElement._of(rhs.algebra, {(u, (v, w)): c for ((u, v), w), c in lhs.terms.items()}), rhs


def _bialgebra_lines(alg: TriangularAlgebra, delta: MorphismSpec):
    """Coassociativity of ``delta``, the counit laws for it, and the morphism
    property of ``delta`` and the counit, on ``alg``."""
    tag = "UT" if alg.localized else "T"
    eps = counit_spec(alg)
    unit = SCALARS.one()
    for label, e in _gens_with_inverses(alg):
        te = delta.apply(e)
        lhs, rhs = _coassociativity(delta, te)
        yield f"{tag} coassociativity on {label}", lhs, rhs
        left, right = te.map_factors(eps, _identity), te.map_factors(_identity, eps)
        yield f"{tag} left counit law on {label}", left, TensorElement.of(unit, e)
        yield f"{tag} right counit law on {label}", right, TensorElement.of(e, unit)

    yield f"{tag} comultiplication is a morphism", is_point(delta.images, alg), True
    yield f"{tag} counit is a morphism", is_point(eps.images, alg), True
    if alg.localized:
        t = tgen(alg)
        yield f"{tag} coproduct of t is group-like", delta.apply(t), TensorElement.of(t, t)
        yield f"{tag} counit of t", counit(t), ScalarQ.constant(1)


def check_bialgebra(n: int, seed: int = 0) -> CheckReport:
    """Coassociativity, counit laws, and the morphism property of the
    comultiplication and counit, on both the plain and localized algebras;
    by generators, once the point checks show that Δ and ε are morphisms.
    Δ is a point for every n: its term pair a[i,m] (x) a[m,j], a[k,m'] (x)
    a[m',l] has form sgn(i - k) + sgn(m' - m) + sgn(m - m') + sgn(l - j),
    and the sgn(m' - m) terms cancel, leaving the exponent of a[i,j], a[k,l]."""
    algs = (build(n), build(n, True))
    return _run("bialgebra", n, chain.from_iterable(_bialgebra_lines(alg, delta_spec(alg)) for alg in algs))


def _convolve(f, g, e):
    """m(f (x) g)D(e): the sum of c f(u) g(v) over the terms c u (x) v of D(e)."""
    alg = e.algebra
    # a fresh zero that nothing else holds, filled in place
    out = alg.zero()
    for (u, v), c in coproduct(e).terms.items():
        _add_into(out.terms, (f(alg._term(u, c)) * g(alg._term(v))).terms)
    return out


def _b_table(t: TriangularAlgebra) -> dict:
    return {(i, j): b_element(i, j, t) for (i, j) in t.gen_pairs}


def _b_lines(t: TriangularAlgebra, b: dict):
    """The determinant-valued convolution identities for the table ``b`` of
    b elements in the plain algebra t."""
    det = qdet(t)
    for (i, j) in t.gen_pairs:
        target = det if i == j else t.zero()
        lhs = t.zero()
        rhs = t.zero()
        for k in range(i, j + 1):
            lhs = lhs + b[i, k] * t.a(k, j)
            rhs = rhs + (t.a(i, k) * b[k, j]).scale(qpow(2 * (k - j)))
        yield f"T sum b[{i},k]a[k,{j}]", lhs, target
        yield f"T sum q^(2(k-{j}))a[{i},k]b[k,{j}]", rhs, target


def check_antipode(n: int, seed: int = 0) -> CheckReport:
    """Both orientations m(S (x) id)D = m(id (x) S)D = ε(-)1 of the antipode
    convolution identity on the generators and inverted diagonals of the
    localized algebra, and the determinant-valued convolution identities
    for the b elements in the plain algebra (an exhaustive table).  The
    convolution identity is closed under products, so holds everywhere:
    Σ S(x1 y1) x2 y2 = Σ S(y1) S(x1) x2 y2 = ε(x)ε(y), as S reverses them."""

    def convolutions():
        ut = build(n, True)
        for label, e in _gens_with_inverses(ut):
            unit = ut.one().scale(counit(e))
            yield f"UT m(S(x)id)D = e on {label}", _convolve(antipode, _identity, e), unit
            yield f"UT m(id(x)S)D = e on {label}", _convolve(_identity, antipode, e), unit

    t = build(n)
    return _run("antipode", n, chain(convolutions(), _b_lines(t, _b_table(t))))


def _s_squared_lines(ut: TriangularAlgebra, s):
    """S^2 = id for the antipode ``s`` of the localized ut on every
    generator and inverted diagonal."""
    for label, e in _gens_with_inverses(ut):
        yield f"S^2 on {label}", s(s(e)), e


def check_s_squared(n: int, seed: int = 0) -> CheckReport:
    """S^2 = id on every generator and inverted diagonal, so everywhere by
    generators: S^2 is a morphism."""
    return _run("s-squared", n, _s_squared_lines(build(n, True), antipode))


def _m_diag(k, i, j):
    return _sgn(k - i) - _sgn(k - j)


def _m_offdiag(k, l, i, j):
    return _sgn(l - i) - _sgn(k - j)


def _m_bb(k, l, i, j):
    return _sgn(k - i) - _sgn(l - j)


def _lemma_lines(t: TriangularAlgebra, m_diag, m_offdiag, m_bb):
    """The four commutation tables between generators, determinant factors
    and the b elements of the plain algebra t, with the exponents read from
    the tables ``m_diag``, ``m_offdiag`` and ``m_bb`` under test.

    The σ lines come first: σ scales a[k,l] and b[k,l] alike by
    q^(2(k-l)).  So a table line y*s(z) = q^m * z*s(y), with σ on one side,
    both or neither, is the plain relation y*z = q^(m + d - c) * z*y, where
    c and d are the twists of z and y (0 on a side without σ).
    """
    sig = sigma_spec(t).apply
    a = {p: t.a(*p) for p in t.gen_pairs}
    b = _b_table(t)
    for (k, l) in t.gen_pairs:
        e = 2 * (k - l)
        yield f"s(a[{k},{l}]) = q^{e} a[{k},{l}]", sig(a[k, l]), a[k, l].scale(qpow(e))
        yield f"s(b[{k},{l}]) = q^{e} b[{k},{l}]", sig(b[k, l]), b[k, l].scale(qpow(e))

    # (element, degree) for every a[k,l] and b[k,l]
    A = {p: (x, term_degrees(x)) for p, x in a.items()}
    B = {p: (x, term_degrees(x)) for p, x in b.items()}

    def line(label, y, z, m):
        return label, *q_relation(y[0], z[0], m, y[1], z[1])

    offdiag = [(i, j) for (i, j) in t.gen_pairs if i < j]
    for k in range(1, t.n + 1):
        for (i, j) in offdiag:
            m, c = m_diag(k, i, j), 2 * (i - j)
            yield line(f"a[{k},{k}]b[{i},{j}] = q^{m} b[{i},{j}]a[{k},{k}]", A[k, k], B[i, j], m)
            yield line(f"b[{k},{k}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]b[{k},{k}]", B[k, k], B[i, j], -m - c)
    for (k, l) in offdiag:
        d = 2 * (k - l)
        for (i, j) in offdiag:
            m, c = m_offdiag(k, l, i, j), 2 * (i - j)
            yield line(f"a[{k},{l}]b[{i},{j}] = q^{m} b[{i},{j}]s(a[{k},{l}])", A[k, l], B[i, j], m + d)
            m = m_bb(k, l, i, j)
            yield line(f"b[{k},{l}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]s(b[{k},{l}])", B[k, l], B[i, j], -m + d - c)


def check_commutation_lemmas(n: int, seed: int = 0) -> CheckReport:
    """The four commutation tables between generators, determinant factors,
    and the b elements, over every admissible index combination; the run
    at n = 4 proves them for every n.

    After the σ lines, each table line is a plain relation y*z = q^m' * z*y
    (see ``_lemma_lines``) between homogeneous y and z: a[i,j] has
    marginals (e_i, e_j) and b[i,j] has (1 - e_j, 1 - e_i) (see
    ``b_element``), so each has one torus degree.  So
    ``q_relation`` proves it by one evaluation of the degree form, from a
    table of the 2N degrees; a line the degrees reject is witnessed by its
    products.  In the form, each row sum sum_m sgn(k - m) = 2k - 1 - n
    cancels against a column sum sum_m sgn(m - l) = n + 1 - 2l, leaving

        B(a[k,l], b[i,j]) = 2(k - l) - sgn(k - j) + sgn(l - i),
        B(b[k,l], b[i,j]) = 2(k - l) - 2(i - j) + sgn(l - j) - sgn(k - i):

    the σ twists plus ``_m_offdiag`` and -``_m_bb`` (at l = k, ``_m_diag``
    and -``_m_diag``), so every line holds at every n.  Without the twists a
    line's truth depends only on the order type of (k, l, i, j), and all
    order types occur in [1, 4]: the run at n = 4 decides every n for any
    table that reads only the order of its indices.
    """
    return _run("commutation-lemmas", n, _lemma_lines(build(n, False), _m_diag, _m_offdiag, _m_bb))


def _symmetry_lines(alg: TriangularAlgebra, sigma: MorphismSpec):
    """Each of the scaling ``sigma`` under test, ρ and γ commutes with D (up
    to the flip when it reverses the coalgebra), with ε (up to conjugation
    when it is antilinear), and, in the localized algebra, with S, and
    fixes t."""
    tag = "UT" if alg.localized else "T"
    # (name, spec, whether it flips D)
    maps = (("s", sigma, False), ("r", rho_spec(alg), True), ("g", gamma_spec(alg), True))
    for label, e in _gens_with_inverses(alg):
        de, ee = coproduct(e), counit(e)
        for x, f, flips in maps:
            fe = f.apply(e)
            dfe = coproduct(fe)
            yield (
                f"{tag} ({x}(x){x})D = {'flip.D.' if flips else 'D'}{x} on {label}",
                de.map_factors(f.apply, f.apply),
                dfe.flip() if flips else dfe,
            )
            conj = f.antilinear
            rhs = ee.conjugate() if conj else ee
            yield f"{tag} e{x} = {'conj.e' if conj else 'e'} on {label}", counit(fe), rhs

    if alg.n % 2 == 0:
        yield f"{tag} signed reflection is a point", is_point(theta_spec(alg).images, alg), True

    if alg.localized:
        t = tgen(alg)
        for x, f, _ in maps:
            yield f"{tag} {x}(t) = t", f.apply(t), t
        for label, e in _gens_with_inverses(alg):
            se = antipode(e)
            for x, f, _ in maps:
                yield f"{tag} {x}S = S{x} on {label}", f.apply(se), antipode(f.apply(e))


def check_morphism_symmetries(n: int, seed: int = 0) -> CheckReport:
    """Compatibility of the scaling, reflection, and antilinear-reflection
    maps with the coalgebra structure and the antipode, by generators; the
    signed reflection is point-checked when n is even."""
    algs = (build(n), build(n, True))
    lines = (_symmetry_lines(alg, sigma_spec(alg)) for alg in algs)
    return _run("morphism-symmetries", n, chain.from_iterable(lines))


def _star_lines(alg: TriangularAlgebra, st: MorphismSpec):
    """The spec ``st`` on the localized ``alg`` is an antilinear involution,
    a coalgebra morphism over the conjugation-fixed subfield, and satisfies
    (st . S)^2 = id on the generators; and it is an antilinear antimorphism."""
    for label, e in _gens_with_inverses(alg):
        se = st(e)
        yield f"D(*) = (*(x)*)D on {label}", coproduct(se), coproduct(e).map_factors(st, st)
        yield f"** = id on {label}", st(se), e
        yield f"e* = conj.e on {label}", counit(se), counit(e).conjugate()
        yield f"(*S)^2 = id on {label}", st(antipode(st(antipode(e)))), e
    # every term pair of *'s images has the right degree form: no product
    yield "* is an antimorphism", st.antimorphism and is_point(st.images, alg, opposite=True), True
    yield "* is antilinear", st(alg.scalar(I)), alg.scalar(I.conjugate())


def check_star(n: int, seed: int = 0) -> CheckReport:
    """The Hopf *-structure: antilinear involution, coalgebra morphism over
    the conjugation-fixed subfield, and (* . S)^2 = id, by generators once
    the last two lines show that * is an antilinear antimorphism (so are D*
    and (* (x) *)D, since * (x) * reverses the products of A (x) A)."""
    ut = build(n, True)
    return _run("star", n, _star_lines(ut, star_spec(ut)))


def _factor_tuples(t: TriangularAlgebra):
    """A = (a[i,j] (x) 1) and B = (1 (x) a[i,j]), keyed by (i, j)."""
    one = t.one()
    A = {p: TensorElement.of(t.a(*p), one) for p in t.gen_pairs}
    B = {p: TensorElement.of(one, t.a(*p)) for p in t.gen_pairs}
    return A, B


def _point_product_lines(t: TriangularAlgebra, A: dict, B: dict):
    """A and B are points of the tensor square, and so is their matrix
    product AB."""
    pairs = t.gen_pairs
    yield "A is a point", is_point([A[p] for p in pairs], t), True
    yield "B is a point", is_point([B[p] for p in pairs], t), True
    zero = tensor_square(t, t).zero()
    AB = [sum((A[i, k] * B[k, j] for k in range(i, j + 1)), zero) for (i, j) in pairs]
    yield "AB is a point", is_point(AB, t), True


def check_point_product(n: int, seed: int = 0) -> CheckReport:
    """Re-derivation that the comultiplication is well defined: the tuples
    A = (a[i,j] (x) 1) and B = (1 (x) a[i,j]) are points of the tensor
    square, and so is their matrix product AB (exhaustive point checks), for
    every n: AB has the terms of Δ, which cancel as in ``check_bialgebra``."""
    t = build(n)
    return _run("point-product", n, _point_product_lines(t, *_factor_tuples(t)))


SUITES = {
    "bialgebra": check_bialgebra,
    "antipode": check_antipode,
    "s-squared": check_s_squared,
    "commutation-lemmas": check_commutation_lemmas,
    "morphism-symmetries": check_morphism_symmetries,
    "star": check_star,
    "point-product": check_point_product,
}


def negative_controls(n: int = 2) -> list:
    """Run suites on deliberately corrupted maps; every report returned here
    must FAIL with a witness, guarding the suites against vacuous passes.

    The corruptions: Δ sends a[1,2] to the group-like a[1,2] (x) a[1,2];
    b[1,2] changes sign; B's images of a[1,1] and a[1,2] swap; `*` scales
    its image of a[1,1] by q, which still satisfies the relations, so only
    the suite itself can catch it; the commutation table ``_m_diag`` is off
    by one at k = 1, (i, j) = (1, 2), the suite's first table line, which
    the degrees reject and the products then witness; S scales its
    image of a[1,2] by q, so S^2(a[1,2]) = q^2 a[1,2] at the suite's second
    line; and σ scales its image of a[1,1] by q, which D sees at once.
    """
    t, ut = build(n), build(n, True)
    a12, a11 = t.gen_index(1, 2), t.gen_index(1, 1)
    grouplike = TensorElement.of(t.a(1, 2), t.a(1, 2))
    b = _b_table(t)
    b[1, 2] = -b[1, 2]
    A, B = _factor_tuples(t)
    B[1, 1], B[1, 2] = B[1, 2], B[1, 1]

    def times_q(spec, g):
        return _with_image(spec, g, spec.images[g].scale(qpow(1)))

    def m_diag(k, i, j):
        return _m_diag(k, i, j) + ((k, i, j) == (1, 1, 2))

    return [
        _run("bialgebra", n, _bialgebra_lines(t, _with_image(delta_spec(t), a12, grouplike))),
        _run("antipode", n, _b_lines(t, b)),
        _run("point-product", n, _point_product_lines(t, A, B)),
        _run("star", n, _star_lines(ut, times_q(star_spec(ut), a11))),
        _run("commutation-lemmas", n, _lemma_lines(t, m_diag, _m_offdiag, _m_bb)),
        _run("s-squared", n, _s_squared_lines(ut, times_q(antipode_spec(ut), a12))),
        _run("morphism-symmetries", n, _symmetry_lines(t, times_q(sigma_spec(t), a11))),
    ]


def negative_controls_report(n: int = 2) -> CheckReport:
    """Meta-suite: passes iff every mutated structure fails with a witness."""
    for rep in negative_controls(n):
        if rep.passed or not rep.witness:
            return CheckReport(
                "negative-controls", n, False,
                (f"mutated {rep.name} did not fail", rep.line(), "expected FAIL"),
            )
    return CheckReport("negative-controls", n, True)
