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
stay linearly independent modulo inner derivations in every degree.
"""

from __future__ import annotations

from itertools import product as iter_product

from .coeff import ZERO, ScalarQ, _add_into, qpow
from .qalgebra import Element, MorphismSpec
from .structure import CheckReport, _run
from .triangular import build


class _Leibniz(tuple):
    """A pair (a, D(a)) with the Leibniz product (a, Da)(b, Db) = (ab, Da b + a Db);
    ``terms`` are D(a)'s, which is what ``MorphismSpec.apply`` collects."""

    __slots__ = ()

    def __mul__(self, other):
        (a, da), (b, db) = self, other
        d = da * b
        _add_into(d.terms, (a * db).terms)
        return _Leibniz((a * b, d))

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
        self._unit = _Leibniz((algebra.one(), algebra.zero()))
        self._powers = {(g, 1): _Leibniz((algebra.gen(g), img)) for g, img in enumerate(self.images)}

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
            ab, ba = pairs[a, 1] * pairs[b, 1], pairs[b, 1] * pairs[a, 1]
            if ab[1] != ba[1].scale(qpow(alg.M[a][b])):
                return False
    return True


def inner_derivation(x: Element) -> DerivationSpec:
    """ad_x : g |-> x g - g x."""
    alg = x.algebra
    return DerivationSpec(alg, [x * alg.gen(g) - alg.gen(g) * x for g in range(alg.ngens)])


# -- the n = 2 classification ---------------------------------------------


_ST = ((1, 1), (1, 2), (2, 2))


def monomial_derivation(st, nu) -> DerivationSpec:
    """The map on T_q(2) sending a[s,t] to a[1,1]^nu_11 a[1,2]^nu_12
    a[2,2]^nu_22 and the other two generators to zero."""
    alg = build(2)
    if tuple(st) not in _ST:
        raise ValueError(f"unknown generator {st}")
    if len(nu) != 3 or any(e < 0 for e in nu):
        raise ValueError("the exponent triple must be nonnegative")
    images = [alg.zero()] * 3
    images[alg.gen_index(*st)] = alg.monomial(tuple(nu))
    return DerivationSpec(alg, images)


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
    out = {}
    for label, st in (("D11", (1, 1)), ("D12", (1, 2)), ("D22", (2, 2))):
        images = [alg.zero()] * 3
        images[alg.gen_index(*st)] = alg.a(*st)
        out[label] = DerivationSpec(alg, images)
    return out


def _rank(rows) -> int:
    """Rank over the fraction field, by fraction-free Bareiss elimination
    with exact division in the scalar ring."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    prev = ScalarQ.constant(1)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            for cc in range(c + 1, ncols):
                rows[i][cc] = (rows[r][c] * rows[i][cc] - rows[i][c] * rows[r][cc]).divexact(prev)
            rows[i][c] = ScalarQ({})
        prev = rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


def _weight(d: DerivationSpec):
    """The w such that every image term of generator g has exponent
    e_g + w, or None if d is zero or not homogeneous."""
    weights = {
        tuple(e - (h == g) for h, e in enumerate(mono))
        for g, img in enumerate(d.images)
        for mono in img.terms
    }
    return weights.pop() if len(weights) == 1 else None


def _outer_independent(maps) -> CheckReport:
    """Proof that the labelled maps of T_q(2) are derivations that stay
    linearly independent modulo inner derivations in every degree.

    Every relation preserves exponent vectors, so ad_{x^nu} has weight nu,
    and the weight-w part of any ad_x is ad_{x_w}: zero unless w is in N^3,
    and zero at w = 0, since ad of a scalar is 0.  So a combination of maps
    whose weights lie outside N^3 minus {0} is inner only if each weight's
    part of it is 0, and that forces it to be 0 once each weight group has
    full column rank, one row per (generator, monomial).  This is the
    method of Osborn and Passman (J. Algebra 176, 1995)."""

    def checks():
        groups = {}
        for label, d in maps:
            yield f"{label} is a derivation", is_derivation(d), True
            w = _weight(d)
            outer = w is not None and (not any(w) or min(w) < 0)
            # the two sides agree exactly when w is an allowed weight
            yield f"weight of {label}", w, w if outer else "outside N^3 minus {0}"
            groups.setdefault(w, []).append(d)
        for w, group in groups.items():
            rows = sorted({(g, m) for d in group for g, img in enumerate(d.images) for m in img.terms})
            rank = _rank([[d.images[g].terms.get(m, ZERO) for d in group] for g, m in rows])
            yield f"rank of the weight-{w} maps", rank, len(group)

    return _run("h1-membership", 2, checks())


def h1_membership_T2(bound: int = 3) -> CheckReport:
    """The five maps spanning the outer part of the degree-one cohomology
    are derivations, and no nontrivial linear combination of them is an
    inner derivation, in any degree (see ``_outer_independent``).
    ``bound`` is ignored and kept only for API compatibility."""
    return _outer_independent([
        ("D11", monomial_derivation((1, 1), (1, 0, 0))),
        ("D12", monomial_derivation((1, 2), (0, 1, 0))),
        ("D22", monomial_derivation((2, 2), (0, 0, 1))),
        ("D11,(0,0,1)", monomial_derivation((1, 1), (0, 0, 1))),
        ("D22,(1,0,0)", monomial_derivation((2, 2), (1, 0, 0))),
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
    dbar12 = DerivationSpec(ut, [ut.zero(), a12, ut.zero()])
    dz = DerivationSpec(ut, [ut.zero(), ut.zero(), -(zinv * zinv * a11)])
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
