"""Automorphism groups of the n = 2 algebras.

The linear automorphisms of the plain algebra are parametrized by a unit
scale on a[1,2] together with an invertible 2x2 matrix mixing the diagonal
generators.  Index-preserving automorphisms of the localized algebra form
the sextuple group: (l12, l11, l22, j, k, l) acts by

    a[1,2] |-> l12 * a[1,1]^k a[2,2]^l a[1,2]
    a[i,i] |-> l_ii * z^j a[i,i]          with z = a[1,1] a[2,2]^-1,

which in normal form (exponents of a[1,1], a[1,2], a[2,2]) is

    a[1,1] |-> l11 * x^(j+1, 0, -j)
    a[1,2] |-> l12 q^l * x^(k, 1, l)
    a[2,2] |-> l22 * x^(j, 0, 1-j).

The product law composes with the FIRST factor outermost; this convention
is pinned by the endomorphism-composition oracle in the test suite.

Every scale is a unit of Q(i)[q, q^-1], that is c * q^e with c != 0, so
the unit group is Q(i)^x times q^Z and products, powers and inverses act on
the pair (e, c) one component at a time.  The law therefore reads each
scale's one (e, c) term, adds and scales the exponents as ints and
multiplies, divides and raises the coefficients in Q(i).  A product,
quotient or integer power of nonzero elements of the field Q(i) is nonzero,
so every scale the law builds is a unit by construction, and its results
skip the unit check of the public constructor (``Sextuple._of``).
"""

from __future__ import annotations

from operator import index

from .coeff import ONE, ScalarQ
from .qalgebra import MorphismSpec, _Record
from .triangular import build, coproduct, counit


def _unit(x) -> ScalarQ:
    s = ScalarQ.coerce(x)
    if not s.is_unit:
        raise ValueError(f"{s} is not a unit of the scalar ring")
    return s


class Sextuple(_Record):
    """An element (l12, l11, l22, j, k, l) of the sextuple group."""

    __slots__ = ("l12", "l11", "l22", "j", "k", "l")

    def __init__(self, l12: ScalarQ, l11: ScalarQ, l22: ScalarQ, j: int, k: int, l: int):
        fields = [_unit(l12), _unit(l11), _unit(l22)]
        for f, x in zip("jkl", (j, k, l)):
            try:
                # a plain int, so True prints and keys monomials as 1
                fields.append(index(x))
            except TypeError:
                raise TypeError(f"{f} must be an integer") from None
        self._set(*fields)

    @staticmethod
    def _of(l12: ScalarQ, l11: ScalarQ, l22: ScalarQ, j: int, k: int, l: int) -> "Sextuple":
        """The sextuple of fields known to be valid: one-term ScalarQ scales
        with nonzero coefficients and plain int exponents, as built from
        fields of checked sextuples by the group law; no check is made."""
        s = object.__new__(Sextuple)
        s._set(l12, l11, l22, j, k, l)
        return s

    @staticmethod
    def identity() -> "Sextuple":
        return Sextuple._of(ONE, ONE, ONE, 0, 0, 0)

    def __str__(self):
        return f"[{self.l12},{self.l11},{self.l22},{self.j},{self.k},{self.l}]"


def g_to_endo(s: Sextuple) -> MorphismSpec:
    """The endomorphism of the localized size-2 algebra encoded by a
    sextuple, with each image written down as its one-term normal form.

    The generators are ordered a[1,1], a[1,2], a[2,2], and M[a11][a22] = 0,
    so z = a[1,1] a[2,2]^-1 = x^(1, 0, -1) commutes with both diagonal
    generators: z^j a[1,1] = x^(j+1, 0, -j) and z^j a[2,2] = x^(j, 0, 1-j).
    M[a22][a12] = 1 gives a[2,2]^l a[1,2] = q^l a[1,2] a[2,2]^l, and
    a[1,1]^k stands first already, so a[1,1]^k a[2,2]^l a[1,2] =
    q^l x^(k, 1, l).  The point check still runs, so a wrong form raises.
    """
    ut = build(2, True)
    j = s.j
    images = (
        ut._term((j + 1, 0, -j), s.l11),
        ut._term((s.k, 1, s.l), s.l12.q_shift(s.l)),
        ut._term((j, 0, 1 - j), s.l22),
    )
    return MorphismSpec(ut, images)


def _pairs(s: Sextuple):
    """The (q-exponent, coefficient) pairs of the scales l12, l11, l22."""
    return (*s.l12.terms.items(), *s.l11.terms.items(), *s.l22.terms.items())


def g_compose(s1: Sextuple, s2: Sextuple) -> Sextuple:
    """Group law: the sextuple of g_to_endo(s1) o g_to_endo(s2).

    With s1's scales c * q^e and ratio = l11 / l22 of s1, the scales are
    l12 = l12 l12' l11^k' l22^l' and l_ii = l_ii l_ii' ratio^j' (primes for
    s2), computed on the (e, c) pairs: exponents as ints, coefficients in
    Q(i).  The coefficients are products and powers of nonzero field
    elements, hence nonzero, so the result needs no unit check."""
    (e12, c12), (e11, c11), (e22, c22) = _pairs(s1)
    (f12, d12), (f11, d11), (f22, d22) = _pairs(s2)
    j1, j2, k2, l2 = s1.j, s2.j, s2.k, s2.l
    kl2 = k2 + l2
    er = (e11 - e22) * j2
    ratio = (c11 / c22) ** j2
    return Sextuple._of(
        ScalarQ._new({e12 + f12 + e11 * k2 + e22 * l2: c12 * d12 * c11**k2 * c22**l2}),
        ScalarQ._new({e11 + f11 + er: c11 * d11 * ratio}),
        ScalarQ._new({e22 + f22 + er: c22 * d22 * ratio}),
        j1 + j2,
        s1.k + k2 + j1 * kl2,
        s1.l + l2 - j1 * kl2,
    )


def g_inverse(s: Sextuple) -> Sextuple:
    """The inverse in the sextuple group, computed on the (e, c) pairs of
    the scales like ``g_compose``, so it needs no unit check either."""
    (e12, c12), (e11, c11), (e22, c22) = _pairs(s)
    j = s.j
    kl = s.k + s.l
    k, l = s.k - j * kl, s.l + j * kl
    er = (e11 - e22) * j
    ratio = (c11 / c22) ** j
    return Sextuple._of(
        ScalarQ._new({e11 * k + e22 * l - e12: c11**k * c22**l / c12}),
        ScalarQ._new({er - e11: ratio / c11}),
        ScalarQ._new({er - e22: ratio / c22}),
        -j,
        -k,
        -l,
    )


def rho_conjugate(s: Sextuple) -> Sextuple:
    """Conjugation by the antidiagonal reflection: swaps the diagonal
    scales, negates j, and swaps k with l.  An order-2 group automorphism."""
    return Sextuple._of(s.l12, s.l22, s.l11, -s.j, s.l, s.k)


def g_decompose(s: Sextuple):
    """The unique factorization g = (j part) * (k,l part) * (scale part),
    with the middle entries corrected to (k - j(k+l), l + j(k+l))."""
    kl = s.k + s.l
    g1 = Sextuple._of(ONE, ONE, ONE, s.j, 0, 0)
    g2 = Sextuple._of(ONE, ONE, ONE, 0, s.k - s.j * kl, s.l + s.j * kl)
    g3 = Sextuple._of(s.l12, s.l11, s.l22, 0, 0, 0)
    return g1, g2, g3


def is_hopf_auto(s: Sextuple) -> bool:
    """Membership in the Hopf-automorphism subgroup: both diagonal scales
    are 1 and (k, l) = (j, -j), so the a[1,2] factor is a power of the
    central z."""
    return s.l11 == ONE and s.l22 == ONE and s.k == s.j and s.l == -s.j


def delta_compatible(s: Sextuple) -> bool:
    """Direct oracle for Hopf membership: the endomorphism commutes with
    the comultiplication and preserves the counit on all generators."""
    ut = build(2, True)
    phi = g_to_endo(s)
    for g in range(ut.ngens):
        e = ut.gen(g)
        img = phi.apply(e)
        if coproduct(img) != coproduct(e).map_factors(phi.apply, phi.apply):
            return False
        if counit(img) != counit(e):
            return False
    return True


class LinearAuto2(_Record):
    """A linear automorphism of the plain size-2 algebra: a unit scale on
    a[1,2] and an invertible matrix whose columns give the images of the
    diagonal generators."""

    __slots__ = ("lam", "mat")

    def __init__(self, lam: ScalarQ, mat: tuple):
        lam = _unit(lam)
        # mat = ((m11, m12), (m21, m22)), columns = images of a11, a22
        rows = tuple(tuple(ScalarQ.coerce(x) for x in row) for row in mat)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("the mixing matrix must be 2x2")
        self._set(lam, rows)

    @property
    def det(self) -> ScalarQ:
        (m11, m12), (m21, m22) = self.mat
        return m11 * m22 - m21 * m12

    def compose(self, other: "LinearAuto2") -> "LinearAuto2":
        """self after other; matrices multiply in the same order."""
        a, b = self.mat, other.mat
        prod = tuple(
            tuple(sum((a[r][t] * b[t][c] for t in range(2)), ScalarQ({})) for c in range(2))
            for r in range(2)
        )
        return LinearAuto2(self.lam * other.lam, prod)


def linear_auto_spec(phi: LinearAuto2) -> MorphismSpec:
    """The endomorphism a[1,1] |-> m11 a11 + m21 a22, a[2,2] |-> m12 a11 +
    m22 a22, a[1,2] |-> lam a12; requires an invertible mixing matrix."""
    if not phi.det.is_unit:
        raise ValueError("the mixing matrix must have unit determinant scalar")
    t2 = build(2, False)
    a11, a12, a22 = t2.a(1, 1), t2.a(1, 2), t2.a(2, 2)
    (m11, m12), (m21, m22) = phi.mat
    images = [
        a11.scale(m11) + a22.scale(m21),
        a12.scale(phi.lam),
        a11.scale(m12) + a22.scale(m22),
    ]
    return MorphismSpec(t2, images)
