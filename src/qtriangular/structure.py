"""Verification suites for the bialgebra/Hopf identities.

Each suite mechanically checks one batch of stated identities at a fixed
size n, exactly over the formal scalar ring, and reports the first
counterexample on failure.  The index tables are enumerated exhaustively;
element-level identities may additionally sample seeded random elements.

A suite with a negative control draws its identities from a line generator
that takes the map under test: its ``check_*`` passes the real map, and
``negative_controls`` passes one corrupted map, on which the suite must fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .coeff import I, ScalarQ, _add_into, qpow
from .qalgebra import (
    SCALARS,
    MorphismSpec,
    TensorElement,
    homogeneous_degree,
    is_point,
    random_element,
    tensor_square,
)
from .triangular import (
    TriangularAlgebra,
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
    star,
    star_spec,
    tgen,
    theta_spec,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one suite; ``witness`` holds (identity label, lhs, rhs)
    exactly when the suite failed."""

    name: str
    n: int
    passed: bool
    witness: tuple | None = None

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly on failure")

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


def _random_profile(n: int) -> dict:
    # coproducts of full-range random monomials blow up combinatorially
    # from n = 4 on; shrink the sample profile there
    if n >= 5:
        return {"max_terms": 2, "inv_range": (-1, 1), "pos_range": (0, 1), "max_support": 4}
    if n == 4:
        return {"max_terms": 2, "inv_range": (-1, 1), "pos_range": (0, 1)}
    return {"max_terms": 4, "inv_range": (-2, 2), "pos_range": (0, 3)}


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
    return TensorElement(rhs.algebra, {(u, (v, w)): c for ((u, v), w), c in lhs.terms.items()}), rhs


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
    comultiplication and counit, on both the plain and localized algebras."""
    algs = (build(n), build(n, True))
    return _run("bialgebra", n, chain.from_iterable(_bialgebra_lines(alg, delta_spec(alg)) for alg in algs))


def _convolve(f, g, e):
    """m(f (x) g)D(e): the sum of c f(u) g(v) over the terms c u (x) v of D(e)."""
    alg = e.algebra
    # a fresh zero that nothing else holds, filled in place
    out = alg.zero()
    for (u, v), c in coproduct(e).terms.items():
        _add_into(out.terms, (f(alg.term(u, c)) * g(alg.term(v))).terms)
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
    for the b elements in the plain algebra."""

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
    """S^2 = id on every generator and inverted diagonal."""
    return _run("s-squared", n, _s_squared_lines(build(n, True), antipode))


def _m_diag(k, i, j):
    # 0 outside [i, j]; 1 on the endpoints; 2 strictly inside
    if k < i or k > j:
        return 0
    if k == i or k == j:
        return 1
    return 2


def _m_offdiag(k, l, i, j):
    if l < i or k > j:
        return 0
    if l == i or k == j:
        return 1
    return 2


def _m_bb(k, l, i, j):
    if (k == i and l < j) or (i < k and l == j):
        return 1
    if i < k and l < j:
        return 2
    if (k == i and j < l) or (k < i and l == j):
        return -1
    if k < i and j < l:
        return -2
    return 0


def _q_ratio(x, y):
    """The c with x = q^c * y, checked term by term, or None if there is
    none or y is zero."""
    if x is y:
        return 0
    if not y.terms or x.terms.keys() != y.terms.keys():
        return None
    c = None
    for mono, cy in y.terms.items():
        cx = x.terms[mono]
        if c is None:
            c = min(cx.terms) - min(cy.terms)
        if cx != cy.q_shift(c):
            return None
    return c


def _lemma_line(label, y, zt, z, yt, m):
    """The line y*zt = q^m * z*yt of a commutation lemma, where yt and zt
    are y and z or their twists by σ.

    Decided by degree when it can be: σ scales each monomial by a q-power,
    so if zt = q^c * z and yt = q^d * y term by term, and y, z are nonzero
    and homogeneous, then y*zt = q^(c + B) * z*y with B the degree form, and
    q^m * z*yt = q^(m + d) * z*y.  The algebra is a domain, so z*y != 0 and
    the line holds exactly when c + B == m + d; it is then reported as the
    equal pair (True, True).  A line this cannot decide, or decides false,
    is built from the products, so its witness is the products' text.
    """
    c, d = _q_ratio(zt, z), _q_ratio(yt, y)
    dy, dz = homogeneous_degree(y), homogeneous_degree(z)
    if None not in (c, d, dy, dz) and c + y.algebra.degree_form(dy, dz) == m + d:
        return label, True, True
    return label, y * zt, (z * yt).scale(qpow(m))


def _lemma_lines(t: TriangularAlgebra, m_diag, m_offdiag, m_bb):
    """The four commutation tables between generators, determinant factors
    and the b elements of the plain algebra t, with the exponents read from
    the tables ``m_diag``, ``m_offdiag`` and ``m_bb`` under test."""
    n = t.n
    sig = sigma_spec(t).apply
    offdiag = [(i, j) for (i, j) in t.gen_pairs if i < j]
    bvals = {(i, j): b_element(i, j, t) for (i, j) in offdiag}
    sbvals = {key: sig(val) for key, val in bvals.items()}

    for k in range(1, n + 1):
        akk = t.a(k, k)
        bkk = b_element(k, k, t)
        for (i, j) in offdiag:
            m = m_diag(k, i, j)
            b = bvals[i, j]
            yield _lemma_line(f"a[{k},{k}]b[{i},{j}] = q^{m} b[{i},{j}]a[{k},{k}]", akk, b, b, akk, m)
            yield _lemma_line(
                f"b[{k},{k}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]b[{k},{k}]", bkk, sbvals[i, j], b, bkk, -m
            )

    for (k, l) in offdiag:
        akl = t.a(k, l)
        sakl = sig(akl)
        for (i, j) in offdiag:
            b = bvals[i, j]
            m = m_offdiag(k, l, i, j)
            yield _lemma_line(f"a[{k},{l}]b[{i},{j}] = q^{m} b[{i},{j}]s(a[{k},{l}])", akl, b, b, sakl, m)
            m = m_bb(k, l, i, j)
            yield _lemma_line(
                f"b[{k},{l}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]s(b[{k},{l}])",
                bvals[k, l], sbvals[i, j], b, sbvals[k, l], -m,
            )


def check_commutation_lemmas(n: int, seed: int = 0) -> CheckReport:
    """The four commutation tables between generators, determinant factors,
    and the b elements, over every admissible index combination.

    Every line is y*zt = q^m * z*yt with y, z homogeneous for the torus
    grading (``TriangularAlgebra.degree``: a[i,j] has degree (e_i, e_j),
    b[i,j] has (1 - e_j, 1 - e_i)) and yt, zt equal to y, z or their σ
    twists.  So each line is proved by one evaluation of the degree form
    plus a termwise check that the twist is a q-power multiple, with no
    product; since the algebra is a domain, a line whose degrees disagree
    is false, and it is then rebuilt from the products for its witness
    (see ``_lemma_line``).
    """
    return _run("commutation-lemmas", n, _lemma_lines(build(n, False), _m_diag, _m_offdiag, _m_bb))


def _symmetry_lines(alg: TriangularAlgebra, sigma: MorphismSpec, seed: int):
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
        rng = random.Random(seed)
        profile = _random_profile(alg.n)
        samples = _gens_with_inverses(alg)
        samples += [(f"random#{k}", random_element(alg, rng, **profile)) for k in range(4)]
        for label, e in samples:
            se = antipode(e)
            for x, f, _ in maps:
                yield f"{tag} {x}S = S{x} on {label}", f.apply(se), antipode(f.apply(e))


def check_morphism_symmetries(n: int, seed: int = 0) -> CheckReport:
    """Compatibility of the scaling, reflection, and antilinear-reflection
    maps with the coalgebra structure and the antipode; the signed
    reflection is point-checked when n is even."""
    algs = (build(n), build(n, True))
    lines = (_symmetry_lines(alg, sigma_spec(alg), seed) for alg in algs)
    return _run("morphism-symmetries", n, chain.from_iterable(lines))


def _star_lines(alg: TriangularAlgebra, st, seed: int):
    """The map ``st`` on the localized ``alg`` is an antilinear involution, a
    coalgebra morphism over the conjugation-fixed subfield, and satisfies
    (st . S)^2 = id; six seeded random samples add to the generators."""
    for label, e in _gens_with_inverses(alg):
        yield (
            f"D(*) = (*(x)*)D on {label}",
            coproduct(st(e)),
            coproduct(e).map_factors(st, st),
        )
        yield f"** = id on {label}", st(st(e)), e
        yield f"e* = conj.e on {label}", counit(st(e)), counit(e).conjugate()

    rng = random.Random(seed)
    profile = _random_profile(alg.n)
    ci = ScalarQ({1: I})
    for k in range(6):
        e = random_element(alg, rng, **profile)
        f = random_element(alg, rng, **profile)
        yield f"** = id on random#{k}", st(st(e)), e
        yield f"antimultiplicative on random#{k}", st(e * f), st(f) * st(e)
        yield f"antilinear on random#{k}", st(e.scale(ci)), st(e).scale(ci.conjugate())
        yield (
            f"(*S)^2 = id on random#{k}",
            st(antipode(st(antipode(e)))),
            e,
        )
        yield (
            f"D(*) = (*(x)*)D on random#{k}",
            coproduct(st(e)),
            coproduct(e).map_factors(st, st),
        )


def check_star(n: int, seed: int = 0) -> CheckReport:
    """The Hopf *-structure: antilinear involution, coalgebra morphism over
    the conjugation-fixed subfield, and (* . S)^2 = id."""
    return _run("star", n, _star_lines(build(n, True), star, seed))


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
    square, and so is their matrix product AB."""
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
    by one at k = 1, (i, j) = (1, 2), the suite's first line, which the
    degree certificate rejects and the products then witness; S scales its
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
        _run("star", n, _star_lines(ut, times_q(star_spec(ut), a11), 0)),
        _run("commutation-lemmas", n, _lemma_lines(t, m_diag, _m_offdiag, _m_bb)),
        _run("s-squared", n, _s_squared_lines(ut, times_q(antipode_spec(ut), a12))),
        _run("morphism-symmetries", n, _symmetry_lines(t, times_q(sigma_spec(t), a11), 0)),
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
