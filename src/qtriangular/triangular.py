"""The quantum upper-triangular bialgebra and its Hopf localization.

Generators a[i,j] (1 <= i <= j <= n) are ordered lexicographically; the
commutation exponent of any pair is determined by exactly one of four
relation families (same column, same row, nested index intervals, and the
commuting pattern).  The localized variant inverts the diagonal generators,
which realizes the Hopf algebra with t = det^-1 and antipode
S(a[i,j]) = t * b[i,j] built from signed chain sums.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import ScalarQ, qpow
from .qalgebra import Element, MorphismSpec, QAlgebra, TensorElement, tensor_square


def comm_exponent(p, r, n: int) -> int:
    """The unique e with a_p * a_r = q^e * a_r * a_p.

    Matches the unordered pair against the four relation families and raises
    if the match count is not exactly one (that would indicate a bug, and is
    checked exhaustively in the test suite).
    """
    (pi, pj), (ri, rj) = p, r
    for (i, j) in (p, r):
        if not (1 <= i <= j <= n):
            raise ValueError(f"({i},{j}) is not an upper-triangular index for n={n}")
    if p == r:
        raise ValueError("commutation exponent needs two distinct generators")

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


class TriangularAlgebra(QAlgebra):
    """Quantum upper-triangular algebra of size n; ``localized`` inverts the
    diagonal generators."""

    __slots__ = ("n", "localized", "_index")

    def __init__(self, n: int, localized: bool):
        if n < 2:
            raise ValueError("size must be at least 2")
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        names = [f"a[{i},{j}]" for i, j in pairs]
        inv = [localized and i == j for i, j in pairs]
        M = [
            [0 if p == r else comm_exponent(p, r, n) for r in pairs]
            for p in pairs
        ]
        super().__init__(names, inv, M)
        self.n = n
        self.localized = bool(localized)
        self._index = {pair: g for g, pair in enumerate(pairs)}

    @property
    def gen_pairs(self):
        return tuple(sorted(self._index, key=self._index.get))

    def gen_index(self, i: int, j: int) -> int:
        try:
            return self._index[(i, j)]
        except KeyError:
            raise ValueError(f"no generator a[{i},{j}] for n={self.n}") from None

    def a(self, i: int, j: int) -> Element:
        return self.gen(self.gen_index(i, j))

    def __repr__(self):
        kind = "localized " if self.localized else ""
        return f"<{kind}triangular algebra, n={self.n}>"


@lru_cache(maxsize=None)
def _build(n: int, localized: bool) -> TriangularAlgebra:
    return TriangularAlgebra(n, localized)


def build(n: int, localized: bool = False) -> TriangularAlgebra:
    """Cached construction, so algebra identity is stable across calls."""
    return _build(int(n), bool(localized))


def qdet(alg: TriangularAlgebra) -> Element:
    """The quantum determinant: the product of the diagonal generators."""
    out = alg.one()
    for i in range(1, alg.n + 1):
        out = out * alg.a(i, i)
    return out


def tgen(alg: TriangularAlgebra) -> Element:
    """t = det^-1; defined only in the localized algebra."""
    if not alg.localized:
        raise ValueError("t lives in the localized algebra only")
    return qdet(alg).inverse()


# -- coalgebra structure ------------------------------------------------------


@lru_cache(maxsize=None)
def delta_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The comultiplication as a morphism spec into ``tensor_square(alg,
    alg)``: a[i,j] |-> sum_k a[i,k] (x) a[k,j].

    Its monomials are (u, v) pairs, as the CLI and the benchmark read them
    (see ``TensorSquare``).  No point check runs here: the bialgebra suite's
    "comultiplication is a morphism" line proves it, and running it on
    every construction too would cost about 0.12 s per algebra at n = 7
    (2-core Xeon, Python 3.11).
    """
    sq = tensor_square(alg, alg)
    images = [
        sum((TensorElement.of(alg.a(i, k), alg.a(k, j)) for k in range(i, j + 1)), sq.zero())
        for (i, j) in alg.gen_pairs
    ]
    return MorphismSpec(alg, images, check=False)


def coproduct(e: Element) -> TensorElement:
    """Multiplicative linear extension of a[i,j] |-> sum_k a[i,k] (x) a[k,j],
    i.e. ``delta_spec(alg).apply(e)``, with pair-keyed terms (see there for
    why no point check runs).  Negative diagonal exponents invert the
    group-like tensor a[i,i] (x) a[i,i].
    """
    alg = e.algebra
    if not isinstance(alg, TriangularAlgebra):
        raise ValueError("coproduct is defined on triangular algebras")
    return delta_spec(alg).apply(e)


def counit(e: Element) -> ScalarQ:
    """Multiplicative linear extension of a[i,j] |-> delta_ij; diagonal
    powers of either sign map to 1."""
    alg = e.algebra
    if not isinstance(alg, TriangularAlgebra):
        raise ValueError("counit is defined on triangular algebras")
    pairs = alg.gen_pairs
    total = ScalarQ({})
    for mono, c in e.terms.items():
        if all(e_ == 0 or pairs[g][0] == pairs[g][1] for g, e_ in enumerate(mono)):
            total = total + c
    return total


# -- distinguished (anti)automorphisms ---------------------------------------


@lru_cache(maxsize=None)
def _sigma_spec(alg: TriangularAlgebra, inverse: bool) -> MorphismSpec:
    s = -1 if inverse else 1
    images = [alg.a(i, j).scale(qpow(2 * s * (i - j))) for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images)


def sigma_spec(alg: TriangularAlgebra, inverse: bool = False) -> MorphismSpec:
    """The scaling automorphism a[i,j] |-> q^(2(i-j)) a[i,j] (or its inverse)."""
    return _sigma_spec(alg, bool(inverse))


@lru_cache(maxsize=None)
def rho_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The antidiagonal reflection a[i,j] |-> a[n+1-j, n+1-i], an algebra
    automorphism of order 2."""
    n = alg.n
    images = [alg.a(n + 1 - j, n + 1 - i) for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images)


@lru_cache(maxsize=None)
def theta_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The signed reflection, defined for even n: the image of a[i,j] is
    -a[n+1-j, n+1-i] when i <= n/2 < j and a[n+1-j, n+1-i] otherwise."""
    n = alg.n
    if n % 2:
        raise ValueError("the signed reflection needs even n")
    images = []
    for (i, j) in alg.gen_pairs:
        img = alg.a(n + 1 - j, n + 1 - i)
        if i <= n // 2 < j:
            img = -img
        images.append(img)
    return MorphismSpec(alg, images)


@lru_cache(maxsize=None)
def gamma_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The antilinear reflection a[i,j] |-> a[n+1-j, n+1-i] (conjugates
    scalar coefficients; q itself is fixed)."""
    n = alg.n
    images = [alg.a(n + 1 - j, n + 1 - i) for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images, antilinear=True)


# -- antipode ingredients -----------------------------------------------------


def _chains(i: int, j: int):
    """All increasing chains i = i_0 < ... < i_s = j."""
    interior = range(i + 1, j)
    for mask in range(1 << len(interior)):
        mid = [x for b, x in enumerate(interior) if mask >> b & 1]
        yield [i] + mid + [j]


@lru_cache(maxsize=None)
def b_element(i: int, j: int, alg: TriangularAlgebra) -> Element:
    """The cofactor-like element b[i,j].

    b[i,i] is the product of the other diagonal generators; for i < j it is
    the signed chain sum with coefficient (-1)^s q^(2(j-i)-s) over chains
    i = i_0 < ... < i_s = j, each multiplied by the complementary diagonal
    product.
    """
    if not (1 <= i <= j <= alg.n):
        raise ValueError(f"b[{i},{j}] is out of range for n={alg.n}")
    if i == j:
        out = alg.one()
        for k in range(1, alg.n + 1):
            if k != i:
                out = out * alg.a(k, k)
        return out
    out = alg.zero()
    for chain in _chains(i, j):
        s = len(chain) - 1
        term = alg.scalar(qpow(2 * (j - i) - s, (-1) ** s))
        for u, v in zip(chain, chain[1:]):
            term = term * alg.a(u, v)
        for k in range(1, alg.n + 1):
            if k not in chain:
                term = term * alg.a(k, k)
        out = out + term
    return out


def b_recurrence(i: int, j: int, alg: TriangularAlgebra, side: str = "left") -> Element:
    """Recursive form of b[i,j]; requires i < j and the localized algebra
    (diagonal inverses appear).  ``side`` picks which index is peeled off:

        left:   b[i,j] = - sum_{k=i+1..j} q^(2(k-i)-1) a[i,k] a[i,i]^-1 b[k,j]
        right:  b[i,j] = - sum_{l=i..j-1} q^(2(j-l)-1) a[l,j] a[j,j]^-1 b[i,l]
    """
    if i >= j:
        raise ValueError("the recurrence needs i < j")
    if not alg.localized:
        raise ValueError("the recurrence uses diagonal inverses; localize first")
    out = alg.zero()
    if side == "left":
        aii_inv = alg.a(i, i).inverse()
        for k in range(i + 1, j + 1):
            term = alg.a(i, k).scale(qpow(2 * (k - i) - 1)) * aii_inv * b_element(k, j, alg)
            out = out - term
    elif side == "right":
        ajj_inv = alg.a(j, j).inverse()
        for l in range(i, j):
            term = alg.a(l, j).scale(qpow(2 * (j - l) - 1)) * ajj_inv * b_element(i, l, alg)
            out = out - term
    else:
        raise ValueError("side must be 'left' or 'right'")
    return out


@lru_cache(maxsize=None)
def antipode_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The antipode as an anti-homomorphism spec: a[i,j] |-> t * b[i,j].

    On the diagonal this simplifies to a[i,i] |-> a[i,i]^-1, so group-like
    inversion S(a[i,i]^-1) = a[i,i] follows from the generic extension.
    """
    if not alg.localized:
        raise ValueError("the antipode lives on the localized algebra")
    t = tgen(alg)
    images = [t * b_element(i, j, alg) for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images, antimorphism=True)


def antipode(e: Element) -> Element:
    alg = e.algebra
    if not isinstance(alg, TriangularAlgebra):
        raise ValueError("antipode is defined on triangular algebras")
    return antipode_spec(alg).apply(e)


@lru_cache(maxsize=None)
def star_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The Hopf *-involution as an antilinear antimorphism spec: the
    composite γ∘S of the antipode (an antimorphism) and the antilinear
    reflection (a morphism), fixed by a[i,j] |-> γ(S(a[i,j])).

    No point check runs here: both factors are point-checked when their own
    specs are built, and a composite of (anti)morphisms is one again, so the
    images satisfy the reversed relations by construction.
    """
    gamma = gamma_spec(alg)
    images = [gamma.apply(img) for img in antipode_spec(alg).images]
    return MorphismSpec(alg, images, antimorphism=True, antilinear=True, check=False)


def star(e: Element) -> Element:
    """The Hopf *-involution γ∘S (apply S first), in one pass through
    ``star_spec``, whose images are not point-checked again (see there)."""
    alg = e.algebra
    if not isinstance(alg, TriangularAlgebra):
        raise ValueError("star is defined on triangular algebras")
    return star_spec(alg).apply(e)
