"""Derivations of the n = 2 algebras.

A derivation D is stored by its generator images and extended by the
morphism x |-> (x, D(x)) into Leibniz pairs: D(x^alpha) is the second half of
the ordered product of the pairs (g^k, D(g^k)), which ``MorphismSpec``'s loop
folds from its power cache, with D(g^-1) = -g^-1 D(g) g^-1 as the one
inverse.  Because the defining relations are quadratic, a candidate is a
derivation iff every pairwise relation is Leibniz-compatible, which is what
``is_derivation`` checks exactly.

The classification sweep, the degree-one cohomology membership proof, and
the derivation table of the localized algebra live here.  The membership
proof shows, from the exponent grading, that the five outer derivations
stay linearly independent modulo inner derivations in every degree: their
weights lie outside N^3 minus {0}, and the maps within one weight have
distinct targets.
"""

from __future__ import annotations

from itertools import product as iter_product

from .coeff import _add_into, qpow
from .qalgebra import Element, MorphismSpec
from .structure import CheckReport, _run
from .triangular import build


class _Leibniz(tuple):
    """A pair (a, D(a)) with the Leibniz product (a, Da)(b, Db) = (ab, Da b + a Db);
    ``terms`` are D(a)'s, which is what ``MorphismSpec.apply`` collects."""

    __slots__ = ()

    def __mul__(self, other):
        return _Leibniz((self[0] * other[0], self.d_mul(other)))

    def d_mul(self, other):
        """Da b + a Db, the second half of the product with other = (b, Db)."""
        (a, da), (b, db) = self, other
        d = da * b
        _add_into(d.terms, (a * db).terms)
        return d

    def inverse(self):
        x = self[0].inverse()
        return _Leibniz((x, -(x * self[1] * x)))

    def scale(self, c):
        return _Leibniz((self[0].scale(c), self[1].scale(c)))

    @property
    def terms(self):
        return self[1].terms


class DerivationSpec(MorphismSpec):
    """Generator images of a would-be derivation of one algebra; its cached
    image powers are the Leibniz pairs (g^k, D(g^k)), so D(x^alpha) is the
    second half of their ordered product, folded by ``MorphismSpec``'s loop."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, images):
        super().__init__(algebra, images, check=False)
        if self.target is not algebra:
            raise ValueError("derivation images must live in the same algebra")
        self.algebra = algebra

    def _seed(self):
        one, gen = _Leibniz((self.source.one(), self.source.zero())), self.source.gen
        return one, {(g, 1): _Leibniz((gen(g), img)) for g, img in enumerate(self.images)}

    # MorphismSpec's loop under its own name, so that ``perfbench/layers.py``
    # can time derivations apart from morphisms
    apply = __call__ = MorphismSpec.apply

    def __add__(self, other):
        if not isinstance(other, DerivationSpec):
            return NotImplemented
        if self.algebra is not other.algebra:
            raise ValueError("derivations over different algebras")
        return DerivationSpec(self.algebra, [a + b for a, b in zip(self.images, other.images)])

    def __neg__(self):
        return DerivationSpec(self.algebra, [-a for a in self.images])

    def __sub__(self, other):
        return self + (-other) if isinstance(other, DerivationSpec) else NotImplemented

    def scale(self, c) -> "DerivationSpec":
        return DerivationSpec(self.algebra, [img.scale(c) for img in self.images])

    def left_mul(self, x: Element) -> "DerivationSpec":
        """x * D for a central element x (keeps the derivation property)."""
        return DerivationSpec(self.algebra, [x * img for img in self.images])

    def commutator(self, other) -> "DerivationSpec":
        return DerivationSpec(
            self.algebra,
            [self.apply(other.images[g]) - other.apply(self.images[g]) for g in range(self.algebra.ngens)],
        )


def is_derivation(spec: DerivationSpec) -> bool:
    """Whether every defining relation is Leibniz-compatible: the second
    halves of the generator pairs' products satisfy D(ab) = q^(M[a][b]) D(ba)."""
    alg, pairs = spec.algebra, spec._powers
    for a in range(alg.ngens):
        for b in range(a):
            if pairs[a, 1].d_mul(pairs[b, 1]) != pairs[b, 1].d_mul(pairs[a, 1]).scale(qpow(alg.M[a][b])):
                return False
    return True


def inner_derivation(x: Element) -> DerivationSpec:
    """ad_x : g |-> x g - g x."""
    alg = x.algebra
    return DerivationSpec(alg, [x * alg.gen(g) - alg.gen(g) * x for g in range(alg.ngens)])


# -- the n = 2 classification ---------------------------------------------


_ST = ((1, 1), (1, 2), (2, 2))


def _single_image(alg, st, image) -> DerivationSpec:
    """The map on the size-2 algebra ``alg`` sending a[s,t] to ``image``
    and the other two generators to zero."""
    images = [alg.zero()] * 3
    images[alg.gen_index(*st)] = image
    return DerivationSpec(alg, images)


def monomial_derivation(st, nu) -> DerivationSpec:
    """The map on T_q(2) sending a[s,t] to a[1,1]^nu_11 a[1,2]^nu_12
    a[2,2]^nu_22 and the other two generators to zero; ``alg.monomial``
    rejects a negative or wrongly sized nu."""
    if tuple(st) not in _ST:
        raise ValueError(f"unknown generator {st}")
    alg = build(2)
    return _single_image(alg, st, alg.monomial(nu))


def dertypes_expected(st, nu) -> bool:
    """The classification predicate: diagonal targets need
    nu in {(0,0,1), (1,0,0)}; the off-diagonal target needs nu_12 = 1."""
    if tuple(st) == (1, 2):
        return nu[1] == 1
    return tuple(nu) in ((0, 0, 1), (1, 0, 0))


def classify_T2(bound: int) -> list:
    """Sweep every target generator and exponent triple with entries up to
    ``bound``; returns (st, nu, verdict) rows and raises if any verdict
    disagrees with the classification predicate."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rows = []
    bad = []
    for st in _ST:
        for nu in iter_product(range(bound + 1), repeat=3):
            verdict = is_derivation(monomial_derivation(st, nu))
            rows.append((st, nu, verdict))
            if verdict != dertypes_expected(st, nu):
                bad.append((st, nu, verdict))
    if bad:
        raise ValueError(f"classification disagrees with the predicate at {bad[:3]}")
    return rows


def named_derivations(alg) -> dict:
    """The three Euler-type derivations D11, D12, D22 (each scales its own
    generator) on a size-2 algebra, plain or localized."""
    return {f"D{s}{t}": _single_image(alg, (s, t), alg.a(s, t)) for s, t in _ST}


def _outer_independent(maps) -> CheckReport:
    """Proof that the maps D_{st,nu} of T_q(2), given as (label, st, nu),
    are derivations that stay linearly independent modulo inner
    derivations in every degree.

    Every relation preserves exponent vectors, so ad_{x^nu} has weight nu,
    and the weight-w part of any ad_x is ad_{x_w}: zero unless w is in N^3,
    and zero at w = 0, since ad of a scalar is 0.  D_{st,nu} has weight
    nu - e_st.  So a combination of maps whose weights lie outside N^3
    minus {0} is inner only if each weight's part of it is 0.  Within one
    weight w, nu = w + e_st is fixed by st, so distinct maps have distinct
    targets: their images are nonzero monomials at different generators,
    and a vanishing combination of them has every coefficient 0.  This is
    the method of Osborn and Passman (J. Algebra 176, 1995)."""

    def checks():
        for label, st, nu in maps:
            yield f"{label} is a derivation", is_derivation(monomial_derivation(st, nu)), True
            w = tuple(e - (c == st) for c, e in zip(_ST, nu))
            outer = not any(w) or min(w) < 0
            # the two sides agree exactly when w is an allowed weight
            yield f"weight of {label}", w, w if outer else "outside N^3 minus {0}"
        yield "the maps are distinct", len({(st, nu) for _, st, nu in maps}), len(maps)

    return _run("h1-membership", 2, checks())


def h1_membership_T2(bound: int = 3) -> CheckReport:
    """The five maps spanning the outer part of the degree-one cohomology
    are derivations, and no nontrivial linear combination of them is an
    inner derivation, in any degree: their weights lie outside N^3 minus
    {0}, and the maps of one weight have distinct targets (see
    ``_outer_independent``).  ``bound`` is ignored and kept only for API
    compatibility."""
    return _outer_independent([
        ("D11", (1, 1), (1, 0, 0)),
        ("D12", (1, 2), (0, 1, 0)),
        ("D22", (2, 2), (0, 0, 1)),
        ("D11,(0,0,1)", (1, 1), (0, 0, 1)),
        ("D22,(1,0,0)", (2, 2), (1, 0, 0)),
    ])


def utq2_derivation_table() -> CheckReport:
    """The three basis derivations of the localized size-2 algebra, their
    stated generator values, and the six linear identities tying them to
    the extended D11, D12, D22."""
    ut = build(2, True)
    a11, a12, a22 = ut.a(1, 1), ut.a(1, 2), ut.a(2, 2)
    z = a11 * a22.inverse()
    zinv = z.inverse()

    dbar11 = DerivationSpec(ut, [a11, ut.zero(), a22])
    dbar12 = _single_image(ut, (1, 2), a12)
    dz = _single_image(ut, (2, 2), -(zinv * zinv * a11))
    named = named_derivations(ut)
    d11, d12, d22 = named["D11"], named["D12"], named["D22"]

    # value on the central variable characterizes each row independently of
    # how the generator images were written down
    table = [
        ("dbar11", dbar11, ut.zero()),
        ("dbar12", dbar12, ut.zero()),
        ("dz", dz, ut.one()),
    ]
    identities = [
        ("dbar11 = D11 + D22", dbar11, d11 + d22),
        ("dbar12 = D12", dbar12, d12),
        ("dz = -z^-1 D22", dz, d22.left_mul(-zinv)),
        ("D11 = dbar11 + z dz", d11, dbar11 + dz.left_mul(z)),
        ("D12 = dbar12", d12, dbar12),
        ("D22 = -z dz", d22, dz.left_mul(-z)),
    ]

    def checks():
        for label, d, value_on_z in table:
            yield f"{label} defines a derivation", is_derivation(d), True
            yield f"{label} at z", d.apply(z), value_on_z
        yield "dz at a[2,2]", dz.apply(a22), -(zinv * zinv * a11)
        yield "(-z dz) at a[2,2]", dz.left_mul(-z).apply(a22), a22
        for label, lhs, rhs in identities:
            for g in range(3):
                yield f"{label} at {ut.gen_names[g]}", lhs.images[g], rhs.images[g]

    return _run("derivation-table", 2, checks())
