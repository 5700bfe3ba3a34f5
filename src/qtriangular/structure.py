"""Verification suites for the bialgebra/Hopf identities.

Each suite mechanically checks one batch of stated identities at a fixed
size n, exactly over the formal scalar ring, and reports the first
counterexample on failure.  The index tables are enumerated exhaustively;
element-level identities may additionally sample seeded random elements.

The ``_mutate_*`` keywords deliberately corrupt one structure constant so a
suite can be shown to fail; ``negative_controls`` collects those runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coeff import I, ScalarQ, qpow
from .qalgebra import SCALARS, MorphismSpec, TensorElement, is_point, random_element, tensor_square
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


def _coassociativity(delta: MorphismSpec, te: TensorElement):
    """The two sides (delta (x) id)(te) and (id (x) delta)(te), both in
    A (x) (A (x) A): the left side's keys ((u, v), w) are rebracketed to
    (u, (v, w))."""
    lhs = te.map_factors(delta.apply, _identity)
    rhs = te.map_factors(_identity, delta.apply)
    return TensorElement(rhs.algebra, {(u, (v, w)): c for ((u, v), w), c in lhs.terms.items()}), rhs


def check_bialgebra(n: int, seed: int = 0, *, _mutate_a12_grouplike: bool = False) -> CheckReport:
    """Coassociativity, counit laws, and the morphism property of the
    comultiplication and counit, on both the plain and localized algebras.

    The mutation hook replaces the image of a[1,2] by the group-like
    a[1,2] (x) a[1,2], which must break the counit law.
    """

    def checks():
        for localized in (False, True):
            alg = build(n, localized)
            tag = "UT" if localized else "T"
            delta = delta_spec(alg)
            if _mutate_a12_grouplike:
                images = list(delta.images)
                images[alg.gen_index(1, 2)] = TensorElement.of(alg.a(1, 2), alg.a(1, 2))
                delta = MorphismSpec(alg, images, check=False)

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
            if localized:
                t = tgen(alg)
                yield f"{tag} coproduct of t is group-like", delta.apply(t), TensorElement.of(t, t)
                yield f"{tag} counit of t", counit(t), ScalarQ.constant(1)

    return _run("bialgebra", n, checks())


def check_antipode(n: int, seed: int = 0, *, _flip_b12_sign: bool = False) -> CheckReport:
    """Both orientations of the antipode convolution identity in the
    localized algebra, and the determinant-valued convolution identity for
    the b elements in the plain algebra.

    The mutation hook flips the sign of b[1,2] in the plain-algebra
    convolution sums.
    """

    def checks():
        ut = build(n, True)
        spec = antipode_spec(ut)
        one = ut.one()
        for (i, j) in ut.gen_pairs:
            eps = counit(ut.a(i, j))
            lhs = ut.zero()
            rhs = ut.zero()
            for k in range(i, j + 1):
                lhs = lhs + spec.apply(ut.a(i, k)) * ut.a(k, j)
                rhs = rhs + ut.a(i, k) * spec.apply(ut.a(k, j))
            yield f"UT sum S(a[{i},k])a[k,{j}]", lhs, one.scale(eps)
            yield f"UT sum a[{i},k]S(a[k,{j}])", rhs, one.scale(eps)
        for i in range(1, n + 1):
            g = ut.a(i, i) ** -1
            yield (
                f"UT convolution on a[{i},{i}]^-1",
                spec.apply(g) * g,
                one,
            )

        t = build(n, False)

        def bb(i, j):
            e = b_element(i, j, t)
            if _flip_b12_sign and (i, j) == (1, 2):
                e = -e
            return e

        det = qdet(t)
        for (i, j) in t.gen_pairs:
            target = det if i == j else t.zero()
            lhs = t.zero()
            rhs = t.zero()
            for k in range(i, j + 1):
                lhs = lhs + bb(i, k) * t.a(k, j)
                rhs = rhs + (t.a(i, k) * bb(k, j)).scale(qpow(2 * (k - j)))
            yield f"T sum b[{i},k]a[k,{j}]", lhs, target
            yield f"T sum q^(2(k-{j}))a[{i},k]b[k,{j}]", rhs, target

    return _run("antipode", n, checks())


def check_s_squared(n: int, seed: int = 0) -> CheckReport:
    """S^2 = id on every generator and inverted diagonal."""

    def checks():
        ut = build(n, True)
        for label, e in _gens_with_inverses(ut):
            yield f"S^2 on {label}", antipode(antipode(e)), e

    return _run("s-squared", n, checks())


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


def check_commutation_lemmas(n: int, seed: int = 0) -> CheckReport:
    """The four commutation tables between generators, determinant factors,
    and the b elements, over every admissible index combination."""

    def checks():
        t = build(n, False)
        sig = sigma_spec(t).apply
        offdiag = [(i, j) for (i, j) in t.gen_pairs if i < j]
        bvals = {(i, j): b_element(i, j, t) for (i, j) in offdiag}
        sbvals = {key: sig(val) for key, val in bvals.items()}

        for k in range(1, n + 1):
            akk = t.a(k, k)
            bkk = b_element(k, k, t)
            for (i, j) in offdiag:
                m = _m_diag(k, i, j)
                yield (
                    f"a[{k},{k}]b[{i},{j}] = q^{m} b[{i},{j}]a[{k},{k}]",
                    akk * bvals[i, j],
                    (bvals[i, j] * akk).scale(qpow(m)),
                )
                yield (
                    f"b[{k},{k}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]b[{k},{k}]",
                    bkk * sbvals[i, j],
                    (bvals[i, j] * bkk).scale(qpow(-m)),
                )

        for (k, l) in offdiag:
            akl = t.a(k, l)
            sakl = sig(akl)
            for (i, j) in offdiag:
                m = _m_offdiag(k, l, i, j)
                yield (
                    f"a[{k},{l}]b[{i},{j}] = q^{m} b[{i},{j}]s(a[{k},{l}])",
                    akl * bvals[i, j],
                    (bvals[i, j] * sakl).scale(qpow(m)),
                )
                m = _m_bb(k, l, i, j)
                yield (
                    f"b[{k},{l}]s(b[{i},{j}]) = q^{-m} b[{i},{j}]s(b[{k},{l}])",
                    bvals[k, l] * sbvals[i, j],
                    (bvals[i, j] * sbvals[k, l]).scale(qpow(-m)),
                )

    return _run("commutation-lemmas", n, checks())


def check_morphism_symmetries(n: int, seed: int = 0) -> CheckReport:
    """Compatibility of the scaling, reflection, and antilinear-reflection
    maps with the coalgebra structure and the antipode; the signed
    reflection is point-checked when n is even."""

    def checks():
        for localized in (False, True):
            alg = build(n, localized)
            tag = "UT" if localized else "T"
            sig = sigma_spec(alg)
            rho = rho_spec(alg)
            gam = gamma_spec(alg)

            for label, e in _gens_with_inverses(alg):
                de = coproduct(e)
                yield (
                    f"{tag} (s(x)s)D = Ds on {label}",
                    de.map_factors(sig.apply, sig.apply),
                    coproduct(sig.apply(e)),
                )
                yield f"{tag} es = e on {label}", counit(sig.apply(e)), counit(e)
                yield (
                    f"{tag} (r(x)r)D = flip.D.r on {label}",
                    de.map_factors(rho.apply, rho.apply),
                    coproduct(rho.apply(e)).flip(),
                )
                yield f"{tag} er = e on {label}", counit(rho.apply(e)), counit(e)
                yield (
                    f"{tag} (g(x)g)D = flip.D.g on {label}",
                    de.map_factors(gam.apply, gam.apply),
                    coproduct(gam.apply(e)).flip(),
                )
                yield (
                    f"{tag} eg = conj.e on {label}",
                    counit(gam.apply(e)),
                    counit(e).conjugate(),
                )

            if n % 2 == 0:
                yield f"{tag} signed reflection is a point", is_point(theta_spec(alg).images, alg), True

            if localized:
                t = tgen(alg)
                yield f"{tag} s(t) = t", sig.apply(t), t
                yield f"{tag} r(t) = t", rho.apply(t), t
                yield f"{tag} g(t) = t", gam.apply(t), t
                rng = random.Random(seed)
                profile = _random_profile(n)
                samples = [(label, e) for label, e in _gens_with_inverses(alg)]
                samples += [(f"random#{k}", random_element(alg, rng, **profile)) for k in range(4)]
                for label, e in samples:
                    se = antipode(e)
                    yield f"{tag} rS = Sr on {label}", rho.apply(se), antipode(rho.apply(e))
                    yield f"{tag} gS = Sg on {label}", gam.apply(se), antipode(gam.apply(e))
                    yield f"{tag} sS = Ss on {label}", sig.apply(se), antipode(sig.apply(e))

    return _run("morphism-symmetries", n, checks())


def check_star(n: int, seed: int = 0, samples: int = 6, *, _mutate_a11_scale: bool = False) -> CheckReport:
    """The Hopf *-structure: antilinear involution, coalgebra morphism over
    the conjugation-fixed subfield, and (* . S)^2 = id.

    The mutation hook multiplies the image of a[1,1] by q.  The images still
    satisfy the relations, so only the suite itself can catch it, and it must
    break D(*) = (*(x)*)D on a[1,1].
    """

    def checks():
        alg = build(n, True)
        st = star
        if _mutate_a11_scale:
            images = list(star_spec(alg).images)
            g11 = alg.gen_index(1, 1)
            images[g11] = images[g11].scale(qpow(1))
            st = MorphismSpec(alg, images, antimorphism=True, antilinear=True, check=False).apply
        for label, e in _gens_with_inverses(alg):
            yield (
                f"D(*) = (*(x)*)D on {label}",
                coproduct(st(e)),
                coproduct(e).map_factors(st, st),
            )
            yield f"** = id on {label}", st(st(e)), e
            yield f"e* = conj.e on {label}", counit(st(e)), counit(e).conjugate()

        rng = random.Random(seed)
        profile = _random_profile(n)
        ci = ScalarQ({1: I})
        for k in range(samples):
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

    return _run("star", n, checks())


def check_point_product(n: int, seed: int = 0, *, _mutate_swap_images: bool = False) -> CheckReport:
    """Re-derivation that the comultiplication is well defined: the tuples
    A = (a[i,j] (x) 1) and B = (1 (x) a[i,j]) are points of the tensor
    square, and so is their matrix product AB.

    The mutation hook swaps B's images of a[1,1] and a[1,2].
    """

    def checks():
        t = build(n, False)
        one = t.one()
        A = {}
        B = {}
        for (i, j) in t.gen_pairs:
            A[i, j] = TensorElement.of(t.a(i, j), one)
            B[i, j] = TensorElement.of(one, t.a(i, j))
        if _mutate_swap_images:
            B[1, 1], B[1, 2] = B[1, 2], B[1, 1]
        pairs = t.gen_pairs
        yield "A is a point", is_point([A[p] for p in pairs], t), True
        yield "B is a point", is_point([B[p] for p in pairs], t), True
        AB = {}
        for (i, j) in pairs:
            s = tensor_square(t, t).zero()
            for k in range(i, j + 1):
                s = s + A[i, k] * B[k, j]
            AB[i, j] = s
        yield "AB is a point", is_point([AB[p] for p in pairs], t), True

    return _run("point-product", n, checks())


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
    """Run each deliberately corrupted structure; every report returned here
    must FAIL with a witness, guarding the suites against vacuous passes."""
    return [
        check_bialgebra(n, _mutate_a12_grouplike=True),
        check_antipode(n, _flip_b12_sign=True),
        check_point_product(n, _mutate_swap_images=True),
        check_star(n, _mutate_a11_scale=True),
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
