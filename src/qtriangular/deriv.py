"""Derivations of the n = 2 algebras.

A derivation is stored by its generator images and extended on demand by
the Leibniz rule; for invertible generators D(g^-1) = -g^-1 D(g) g^-1.
Because the defining relations are quadratic, a candidate is a derivation
iff every pairwise relation is Leibniz-compatible, which is what
``is_derivation`` checks exactly.

The classification sweep, the degree-one cohomology membership oracle, and
the derivation table of the localized algebra live here.  The membership
oracle decides "not inner up to degree d" by an exact rank computation
(fraction-free Bareiss elimination over the scalar ring).
"""

from __future__ import annotations

from itertools import product as iter_product

from .coeff import ScalarQ, _power, qpow
from .qalgebra import Element
from .structure import CheckReport, _run
from .triangular import build


class _Leibniz(tuple):
    """A pair (a, D(a)) with the Leibniz product (a, Da)(b, Db) = (ab, Da b + a Db)."""

    __slots__ = ()

    def __mul__(self, other):
        (a, da), (b, db) = self, other
        return _Leibniz((a * b, da * b + a * db))


class DerivationSpec:
    """Generator images of a would-be derivation of one algebra."""

    __slots__ = ("algebra", "images")

    def __init__(self, algebra, images):
        images = tuple(images)
        if len(images) != algebra.ngens:
            raise ValueError("one image per generator required")
        for img in images:
            if img.algebra is not algebra:
                raise ValueError("derivation images must live in the same algebra")
        self.algebra = algebra
        self.images = images

    def _power_image(self, g: int, k: int) -> Element:
        """D(g^k) as the second half of (x, D(x))^|k| under the Leibniz
        product, with x = g or g^-1: O(log |k|) products."""
        alg = self.algebra
        x, dx = alg.gen(g), self.images[g]
        if k < 0:
            x = x.inverse()
            dx = -(x * dx * x)
        return _power(_Leibniz((alg.one(), alg.zero())), _Leibniz((x, dx)), abs(k))[1]

    def apply(self, e: Element) -> Element:
        """Leibniz extension to an arbitrary element."""
        alg = self.algebra
        if e.algebra is not alg:
            raise ValueError("element does not belong to the derivation's algebra")
        n = alg.ngens
        out = alg.zero()
        for mono, c in e.terms.items():
            for g, k in enumerate(mono):
                if not k:
                    continue
                prefix = alg.monomial(mono[:g] + (0,) * (n - g), c)
                suffix = alg.monomial((0,) * (g + 1) + mono[g + 1 :])
                out = out + prefix * self._power_image(g, k) * suffix
        return out

    __call__ = apply

    def __add__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("derivations over different algebras")
        return DerivationSpec(self.algebra, [a + b for a, b in zip(self.images, other.images)])

    def __neg__(self):
        return DerivationSpec(self.algebra, [-a for a in self.images])

    def __sub__(self, other):
        return self + (-other)

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
    """Whether every defining relation is Leibniz-compatible:
    D(a)b + aD(b) = q^(M[a][b]) (D(b)a + bD(a)) for every generator pair."""
    alg = spec.algebra
    for a in range(alg.ngens):
        ga, da = alg.gen(a), spec.images[a]
        for b in range(a):
            gb, db = alg.gen(b), spec.images[b]
            lhs = da * gb + ga * db
            rhs = (db * ga + gb * da).scale(qpow(alg.M[a][b]))
            if lhs != rhs:
                return False
    return True


def inner_derivation(x: Element) -> DerivationSpec:
    """ad_x : g |-> x g - g x."""
    alg = x.algebra
    return DerivationSpec(alg, [x * alg.gen(g) - alg.gen(g) * x for g in range(alg.ngens)])


# -- the n = 2 classification ---------------------------------------------


_ST = ((1, 1), (1, 2), (2, 2))


def monomial_derivation(st, nu, alg=None) -> DerivationSpec:
    """The map sending a[s,t] to a[1,1]^nu_11 a[1,2]^nu_12 a[2,2]^nu_22 and
    the other two generators to zero."""
    alg = alg or build(2)
    if alg.n != 2:
        raise ValueError("monomial derivations are classified for n = 2 only")
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


def classify_T2(bound: int, alg=None) -> list:
    """Sweep every target generator and exponent triple with entries up to
    ``bound``; returns (st, nu, verdict) rows and raises if any verdict
    disagrees with the classification predicate."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    alg = alg or build(2)
    rows = []
    bad = []
    for st in _ST:
        for nu in iter_product(range(bound + 1), repeat=3):
            verdict = is_derivation(monomial_derivation(st, nu, alg))
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


def _degree_monomials(bound: int):
    for nu in iter_product(range(bound + 1), repeat=3):
        if 1 <= sum(nu) <= bound:
            yield nu


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


def h1_membership_T2(bound: int = 3) -> CheckReport:
    """The five maps spanning the outer part of the degree-one cohomology
    are derivations, and no nontrivial linear combination of them is an
    inner derivation ad_x with x supported on monomials of total degree up
    to ``bound`` (exact rank certificate; the unbounded statement is out of
    reach of finite computation and is not claimed)."""
    alg = build(2)
    five = [
        ("D11", monomial_derivation((1, 1), (1, 0, 0), alg)),
        ("D12", monomial_derivation((1, 2), (0, 1, 0), alg)),
        ("D22", monomial_derivation((2, 2), (0, 0, 1), alg)),
        ("D11,(0,0,1)", monomial_derivation((1, 1), (0, 0, 1), alg)),
        ("D22,(1,0,0)", monomial_derivation((2, 2), (1, 0, 0), alg)),
    ]
    for label, d in five:
        if not is_derivation(d):
            return CheckReport(
                "h1-membership", 2, False, (f"{label} is a derivation", "False", "True")
            )

    inners = [inner_derivation(alg.monomial(nu)) for nu in _degree_monomials(bound)]
    # rows: one per (generator, basis monomial); columns: the five maps,
    # then the inner derivations
    row_index = {}
    rows = []
    width = len(five) + len(inners)

    def slot(g, mono):
        key = (g, mono)
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append([ScalarQ({}) for _ in range(width)])
        return row_index[key]

    for col, (_, d) in enumerate(five):
        for g in range(3):
            for mono, c in d.images[g].terms.items():
                rows[slot(g, mono)][col] += c
    for col, d in enumerate(inners):
        for g in range(3):
            for mono, c in d.images[g].terms.items():
                rows[slot(g, mono)][len(five) + col] += c

    rank_full = _rank(rows)
    rank_inner = _rank([r[len(five) :] for r in rows])
    if rank_full != rank_inner + len(five):
        return CheckReport(
            "h1-membership", 2, False,
            (
                f"rank gap with inner derivations of degree <= {bound}",
                f"rank full = {rank_full}",
                f"rank inner + 5 = {rank_inner + 5}",
            ),
        )
    return CheckReport("h1-membership", 2, True)


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
