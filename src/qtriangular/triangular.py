"""The quantum upper-triangular bialgebra and its Hopf localization.

Generators a[i,j] (1 <= i <= j <= n) are ordered lexicographically; the
commutation exponent of a[i,j] and a[k,l] is sgn(i - k) + sgn(l - j).  The
localized variant inverts the diagonal generators, which realizes the Hopf
algebra with t = det^-1 and antipode S(a[i,j]) = t * b[i,j] built from
signed chain sums.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress
from operator import index, neg

from .coeff import ZERO, ScalarQ, qpow
from .qalgebra import SCALARS, Element, MorphismSpec, QAlgebra, TensorElement, _Record, _sgn, tensor_square


@lru_cache
def _sgn_dual(y) -> tuple:
    """s(y)_i = sum_k y_k sgn(i - k) = 2 sum_(k<i) y_k + y_i - sum_k y_k,
    in a bounded cache keyed by y: a point check meets few distinct ones."""
    total = sum(y)
    return tuple(2 * below + yi - total for below, yi in zip(accumulate(y, initial=0), y))


class TriangularAlgebra(QAlgebra):
    """Quantum upper-triangular algebra of size n; ``localized`` inverts the
    diagonal generators.  M, read with ``gen_index``, is the one table of
    commutation exponents: a_p a_r = q^e a_r a_p with e = sgn(i - k) +
    sgn(l - j) for p = (i, j), r = (k, l).  This closed form unifies the
    paper's four relation families (same column, same row, nested index
    intervals and the commuting pattern); ``tests/test_triangular.py``
    matches it against them for every pair at n = 2..8."""

    __slots__ = ("n", "localized", "_index", "gen_pairs", "_gens")

    def __init__(self, n: int, localized: bool):
        if n < 2:
            raise ValueError("size must be at least 2")
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        names = [f"a[{i},{j}]" for i, j in pairs]
        inv = [localized and i == j for i, j in pairs]
        M = [[_sgn(i - k) + _sgn(l - j) for (k, l) in pairs] for (i, j) in pairs]
        super().__init__(names, inv, M)
        self.n = n
        self.localized = bool(localized)
        self._index = {pair: g for g, pair in enumerate(pairs)}
        self.gen_pairs = tuple(pairs)
        self._gens = {}

    def gen_index(self, i: int, j: int) -> int:
        try:
            return self._index[(i, j)]
        except KeyError:
            raise ValueError(f"no generator a[{i},{j}] for n={self.n}") from None

    def a(self, i: int, j: int) -> Element:
        """The generator a[i,j], built on first use and shared after it:
        elements are immutable, and two threads that both build it store
        equal values.  The sums that write in place (``_add_into`` in
        ``_convolve``, ``_add_owned`` in ``MorphismSpec._horner``,
        ``_Leibniz`` and ``map_factors``) write only into values they have
        just built, so neither ever writes into a cached generator."""
        gen = self._gens.get((i, j))
        if gen is None:
            gen = self._gens[i, j] = self.gen(self.gen_index(i, j))
        return gen

    def degree(self, mono):
        """The (vector, dual) pair of x^mono in the torus grading, which is
        coarser than ``QAlgebra.degree``'s, with 2n entries instead of N.  It
        is read off the row and column marginals (R, C) of mono, R_i =
        sum_j mono[i,j] and C_j = sum_i mono[i,j], so a[i,j] has (e_i, e_j)
        and an inverted diagonal a[i,i]^-1 has (-e_i, -e_i).

        This is the Z^n x Z^n grading of quantum matrices (Manin; Brown and
        Goodearl, *Lectures on Algebraic Quantum Groups*).  The commutation
        exponent sgn(i - k) + sgn(l - j) of a[i,j] and a[k,l] is bilinear in
        the marginals, so for monomials with marginals (R1, C1) and (R2, C2)

            x^alpha x^beta = q^B x^beta x^alpha,
            B = sum R1_i R2_k sgn(i - k) + sum C1_j C2_l sgn(l - j).

        So B is the dot product of alpha's vector R1 || C1 and beta's dual
        s(R2) || -s(C2), where s(y)_i = sum_k y_k sgn(i - k) (``_sgn_dual``),
        as sgn(l - j) = -sgn(j - l).  σ scales a monomial with marginals
        (R, C) by q^(2(sum_i i R_i - sum_j j C_j)), so a[k,l] and b[k,l]
        alike by q^(2(k - l)).
        """
        rows = [0] * self.n
        cols = [0] * self.n
        pairs = self.gen_pairs
        for g in compress(range(len(mono)), mono):
            i, j = pairs[g]
            rows[i - 1] += mono[g]
            cols[j - 1] += mono[g]
        rows, cols = tuple(rows), tuple(cols)
        return rows + cols, _sgn_dual(rows) + tuple(map(neg, _sgn_dual(cols)))

    def __repr__(self):
        kind = "localized " if self.localized else ""
        return f"<{kind}triangular algebra, n={self.n}>"


@lru_cache(maxsize=None)
def _build(n: int, localized: bool) -> TriangularAlgebra:
    return TriangularAlgebra(n, localized)


def build(n: int, localized: bool = False) -> TriangularAlgebra:
    """Cached construction, so algebra identity is stable across calls;
    n must be an integer (``operator.index``)."""
    return _build(index(n), bool(localized))


def qdet(alg: TriangularAlgebra) -> Element:
    """The quantum determinant: the product of the diagonal generators,
    which is the monomial x^(1 on every diagonal) with coefficient 1, since
    diagonal generators commute with each other."""
    return alg._term(tuple(int(i == j) for i, j in alg.gen_pairs))


def tgen(alg: TriangularAlgebra) -> Element:
    """t = det^-1; defined only in the localized algebra."""
    if not alg.localized:
        raise ValueError("t lives in the localized algebra only")
    return qdet(alg).inverse()


def _triangular(e: Element, what: str) -> TriangularAlgebra:
    """e's algebra, which the map named ``what`` needs to be triangular."""
    if not isinstance(e.algebra, TriangularAlgebra):
        raise ValueError(f"{what} is defined on triangular algebras")
    return e.algebra


# -- coalgebra structure ------------------------------------------------------


@lru_cache(maxsize=None)
def delta_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The comultiplication as a morphism spec into ``tensor_square(alg,
    alg)``: a[i,j] |-> sum_k a[i,k] (x) a[k,j].

    Its monomials are (u, v) pairs, as the CLI and the benchmark read them
    (see ``TensorSquare``).  No point check runs here: the bialgebra suite's
    "comultiplication is a morphism" line proves it.  Building Δ takes
    2-16 ms at n = 7..14; its point check takes 7 ms at n = 7, 0.05 s at
    n = 10 and 0.32-0.37 s at n = 14 (2-core Xeon, Python 3.11), some 20
    times the build, which every CLI command on Δ would pay at large n.
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
    return delta_spec(_triangular(e, "coproduct")).apply(e)


@lru_cache(maxsize=None)
def counit_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The counit a[i,j] |-> delta_ij as a spec into ``SCALARS``; like
    ``delta_spec`` it runs no point check, which the bialgebra suite runs."""
    images = [SCALARS.one() if i == j else SCALARS.zero() for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images, check=False)


def counit(e: Element) -> ScalarQ:
    """``counit_spec(alg).apply(e)`` read as a scalar; diagonal powers of
    either sign map to 1."""
    return counit_spec(_triangular(e, "counit")).apply(e).terms.get((), ZERO)


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
    """The signed reflection, defined for even n: rho's image of a[i,j],
    negated when i <= n/2 < j."""
    n = alg.n
    if n % 2:
        raise ValueError("the signed reflection needs even n")
    reflected = zip(alg.gen_pairs, rho_spec(alg).images)
    return MorphismSpec(alg, [-img if i <= n // 2 < j else img for (i, j), img in reflected])


@lru_cache(maxsize=None)
def gamma_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The antilinear reflection: rho's images, with coefficients conjugated.
    They need no second point check, since conjugation fixes q, so it fixes
    the relations' q-powers."""
    return MorphismSpec(alg, rho_spec(alg).images, antilinear=True, check=False)


# -- antipode ingredients -----------------------------------------------------


def _chains(i: int, j: int):
    """All increasing chains i = i_0 < ... < i_s = j; for i = j, the one
    chain (i), with s = 0."""
    interior = range(i + 1, j)
    for mask in range(1 << len(interior)):
        mid = [x for b, x in enumerate(interior) if mask >> b & 1]
        yield [i] + mid + [j] if i < j else [i]


@lru_cache(maxsize=None)
def b_element(i: int, j: int, alg: TriangularAlgebra) -> Element:
    """The cofactor-like element b[i,j], written as its normal form.

    It is the signed chain sum with coefficient (-1)^s q^(2(j-i)-s) over
    chains i = i_0 < ... < i_s = j, each multiplied by the complementary
    diagonal product: a[i_0,i_1] ... a[i_(s-1),i_s] times a[k,k] for every
    k off the chain, k ascending.  b[i,i] is the term of the one chain (i),
    with s = 0: the product of the other diagonal generators.

    That product is already in normal form, so each chain's term is the
    monomial mu with exponent 1 at each step and at each off-chain
    diagonal, and the coefficient above.  Reordering x^alpha x^beta costs
    q^w with w = sum over placed a > new b of alpha_a beta_b M[a][b] (see
    ``monomial_mul``), and w = 0 at every factor:

    - the steps ascend in the lexicographic generator order, so no placed
      factor comes after a new step;
    - an off-chain a[k,k] comes after a placed step a[u,v] only when u > k
      (u = k is impossible, as k is off the chain); then v > u > k, so
      M = sgn(u - k) + sgn(k - v) = 1 - 1 = 0;
    - diagonal generators commute with each other.

    mu's row and column marginals, which give b[i,j]'s torus degree (see
    ``TriangularAlgebra.degree``), are (1 - e_j, 1 - e_i) for every n: a
    chain fills rows i_0..i_(s-1) and columns i_1..i_s, and its diagonal
    factors fill row and column k for each k off the chain.
    """
    if not (1 <= i <= j <= alg.n):
        raise ValueError(f"b[{i},{j}] is out of range for n={alg.n}")
    terms = {}
    for chain in _chains(i, j):
        s = len(chain) - 1
        mono = [0] * alg.ngens
        for u, v in zip(chain, chain[1:]):
            mono[alg.gen_index(u, v)] = 1
        for k in range(1, alg.n + 1):
            if k not in chain:
                mono[alg.gen_index(k, k)] = 1
        terms[tuple(mono)] = qpow(2 * (j - i) - s, (-1) ** s)
    return Element._of(alg, terms)


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
    return antipode_spec(_triangular(e, "antipode")).apply(e)


@lru_cache(maxsize=None)
def star_spec(alg: TriangularAlgebra) -> MorphismSpec:
    """The Hopf *-involution γ∘S as an antilinear antimorphism spec, whose
    images are the antipode's read through ρ(i, j) = (n+1-j, n+1-i):
    *(a[i,j]) = S(a[ρ(i,j)]), so building it takes no product.

    This holds for every n:

    - ρ preserves M: for p = (i,j), r = (k,l),
      M[ρp][ρr] = sgn(l - j) + sgn(i - k) = M[p][r];
    - γ(t) = t, since ρ permutes the diagonals and the diagonals commute;
    - γ(b[i,j]) = b[ρ(i,j)] exactly.  ρ sends the chain i < ... < j to the
      chain n+1-j < ... < n+1-i with the same s and j - i, so the real
      coefficient (-1)^s q^(2(j-i)-s) is unchanged and conjugation fixes
      it, and the image monomial is the reflected chain's normal-form
      monomial (see ``b_element``).  The only factor pairs of a chain
      monomial with M != 0 are a step (u,v) and an off-chain diagonal k
      with u < k < v; they are in order at the source, (u,v) < (k,k), and
      at the target, (n+1-v, n+1-u) < (n+1-k, n+1-k), so γ picks up no
      reordering shift.

    So *(a[i,j]) = γ(t) γ(b[i,j]) = t b[ρ(i,j)] = S(a[ρ(i,j)]).  No point
    check runs here: S's images pass it when ``antipode_spec`` is built,
    ρ preserves M, and conjugation fixes q.
    """
    n, s_images = alg.n, antipode_spec(alg).images
    images = [s_images[alg.gen_index(n + 1 - j, n + 1 - i)] for (i, j) in alg.gen_pairs]
    return MorphismSpec(alg, images, antimorphism=True, antilinear=True, check=False)


def star(e: Element) -> Element:
    """The Hopf *-involution γ∘S (apply S first), in one pass through
    ``star_spec``, whose images are S's reindexed by ρ (see there)."""
    return star_spec(_triangular(e, "star")).apply(e)


# -- center -------------------------------------------------------------------


class CenterLattice(_Record):
    """The central monomial directions of T_q(n) or UT_q(n), as
    ``center_lattice`` gives them.

    ``kernel_basis`` is the Hermite-normal-form basis of {nu : M nu = 0};
    ``generators`` are its vectors that are admissible monomials, which
    span the center's exponents; ``violations`` are the rest, admissible in
    neither sign.
    """

    __slots__ = ("kernel_basis", "generators", "violations")

    def __init__(self, kernel_basis: tuple, generators: tuple, violations: tuple):
        self._set(kernel_basis, generators, violations)

    @property
    def is_scalar_center(self) -> bool:
        return not self.generators


def center_lattice(alg: TriangularAlgebra) -> CenterLattice:
    """The lattice {nu : M nu = 0} of central monomial directions, in closed
    form for every n: Z(T_q(n)) = K and Z(UT_q(n)) = K[w, w^-1], with
    w = prod_i a[i,i]^((-1)^(i+1)).

    ``kernel_basis`` is w, then v_ij = e[i,j] - e[i,n] - e[j,j] + e[j,n]
    for 1 <= i < j < n in loop order; ``generators`` is (w,) localized and
    () plain; ``violations`` is the rest.

    x^nu q-commutes with every generator (``TriangularAlgebra.degree``),
    so it is central iff M nu = 0, and as q is formal the center is spanned
    by the central monomials (McConnell and Pettit, 1988).  Let (R, C) be
    nu's row and column marginals, s = (1, -1, 1, ...), and
    f(k,l) = sum_i R_i sgn(i - k) + sum_j C_j sgn(l - j), the negative of
    (M nu) at a[k,l].

    1. M nu = 0 iff R = C = r s for an integer r.  If f = 0, then
       f(1,l) - f(1,l+1) = -(C_l + C_(l+1)), f(k,n) - f(k+1,n) =
       R_k + R_(k+1) and f(1,1) = C_1 - R_1 (sum R = sum C) say that C and
       R alternate from R_1 = C_1.  Conversely, for k < l, f(k,l) =
       r (s_k + 2 sum_(k<i<l) s_i + s_l) = r sum_(k<=i<l) (s_i + s_(i+1))
       = 0, and f(k,k) = 0.
    2. w has marginals (s, s), so nu - R_1 w has zero marginals: ker M is
       Zw + ker P, with P nu = (R, C), and the sum is direct.
    3. The v_ij are a lattice basis of ker P.  Each has zero marginals.
       Subtracting sum nu[i,j] v_ij from nu in ker P leaves a zero-marginal
       array on the diagonal and column n; its column j < n holds only the
       diagonal entry, so that is 0, and then its rows are 0.  Each v_ij
       has a unit pivot, its first nonzero entry 1 at a[i,j], where no
       other listed vector (w included) is nonzero, so the list is
       independent, and with the pivots ascending it is the lattice's
       unique Hermite normal form.
    4. The cone.  Let nu in ker M be admissible, so its off-diagonal
       exponents are >= 0.  Column 1 holds only a[1,1], so nu[1,1] = r;
       row 1's off-diagonal exponents then sum to R_1 - r = 0, so they
       vanish.  Column 2 then gives nu[2,2] = -r, and so on down the rows:
       nu = r w.  UT_q(n) inverts the diagonal, so w generates; T_q(n)
       needs r >= 0 and -r >= 0, so r = 0.  Each v_ij has 1 at a[i,j] and
       -1 at a[i,n], both off the diagonal, so it is admissible in neither
       sign, and neither is w in T_q(n).
    """
    if not isinstance(alg, TriangularAlgebra):
        raise ValueError("center_lattice is defined on triangular algebras")
    n = alg.n

    def vector(*entries):
        v = [0] * alg.ngens
        for c, i, j in entries:
            v[alg.gen_index(i, j)] = c
        return tuple(v)

    w = vector(*(((-1) ** (i + 1), i, i) for i in range(1, n + 1)))
    vs = [vector((1, i, j), (-1, i, n), (-1, j, j), (1, j, n)) for i in range(1, n) for j in range(i + 1, n)]
    basis = (w, *vs)
    generators = (w,) if alg.localized else ()
    return CenterLattice(basis, generators, basis[len(generators):])
