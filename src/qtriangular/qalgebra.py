"""Engine for multiparameter q-commutative algebras.

An algebra is presented by ordered generators, per-generator invertibility
flags, and an antisymmetric integer matrix M, with the convention

    g_a * g_b = q^(M[a][b]) * g_b * g_a        for all a, b.

Sorted monomials x^nu = g_1^(nu_1) ... g_N^(nu_N) form a basis (exponents of
non-invertible generators are >= 0, invertible ones range over Z), so every
element has a unique sparse normal form and equality is a dictionary
comparison.  An element is a sparse sum like a scalar, so its sums, powers
and printing are ``coeff._SparseSum``'s; the product stays its own, because
it q-shifts by ``monomial_mul``.  Presentations and values are immutable; all
operations are pure functions, safe for concurrent use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import compress
from operator import add

from .coeff import ONE, ZERO, GaussianRational, ScalarQ, _add_into, _power, _SparseSum, _term_text, qpow


class _Presentation:
    """Constructors shared by QAlgebra and TensorSquare, written once on
    each one's ``term`` and ``unit_mono``.  Element asks a presentation
    for nothing else but ``monomial_mul``, ``canon_mono``, ``mono_is_unit``,
    ``mono_inverse`` and ``mono_text``."""

    __slots__ = ()

    def zero(self) -> "Element":
        return self.term(self.unit_mono(), ZERO)

    def one(self) -> "Element":
        return self.term(self.unit_mono(), ONE)

    def scalar(self, c) -> "Element":
        return self.term(self.unit_mono(), c)


class QAlgebra(_Presentation):
    """Presentation of a q-commutative algebra whose commutation constants
    are integer powers of q."""

    __slots__ = ("gen_names", "invertible", "M")

    def __init__(self, gen_names, invertible, M):
        names = tuple(gen_names)
        inv = tuple(bool(b) for b in invertible)
        mat = tuple(tuple(int(x) for x in row) for row in M)
        if len(inv) != len(names) or len(mat) != len(names):
            raise ValueError("generator metadata lengths disagree")
        for a, row in enumerate(mat):
            if len(row) != len(names):
                raise ValueError("commutation matrix must be square")
            if row[a] != 0:
                raise ValueError("commutation matrix must have zero diagonal")
            for b in range(a):
                if row[b] != -mat[b][a]:
                    raise ValueError("commutation matrix must be antisymmetric")
        self.gen_names = names
        self.invertible = inv
        self.M = mat

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def is_admissible(self, mono) -> bool:
        return len(mono) == self.ngens and all(
            e >= 0 or self.invertible[g] for g, e in enumerate(mono)
        )

    def unit_mono(self):
        return (0,) * len(self.gen_names)

    def canon_mono(self, mono):
        mono = tuple(mono)
        if len(mono) != len(self.gen_names):
            raise ValueError("monomial length does not match algebra")
        return mono

    def mono_is_unit(self, mono) -> bool:
        return all(e == 0 or inv for e, inv in zip(mono, self.invertible))

    def mono_inverse(self, mono):
        return tuple(-e for e in mono)

    def mono_text(self, mono) -> str:
        """``g^2*h`` style text of a monomial; empty for the unit."""
        return "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(self.gen_names, mono) if e
        )

    def degree(self, mono):
        """The degree of x^mono in a grading on which q-commutation factors,
        or None when the presentation has none (as here).  A presentation
        with a grading also has ``degree_form(d1, d2)``, the integer B with
        x^alpha x^beta = q^B x^beta x^alpha whenever alpha and beta have
        degrees d1 and d2; ``is_point`` uses it to skip products."""
        return None

    def monomial_mul(self, alpha, beta):
        """Reorder x^alpha * x^beta into normal form.

        Returns (w, gamma) with x^alpha * x^beta = q^w * x^gamma and
        gamma = alpha + beta; w = sum over a > b of alpha_a * beta_b * M[a][b].

        The Python-level work is O(|supp alpha| * |supp beta|): only support
        pairs b < a are visited.  Finding the supports and adding the tuples
        is O(N) in C.  Monomials stay dense N-tuples, because the CLI JSON,
        the tests and the benchmark's tensor check read them as such.
        """
        M = self.M
        slots = range(len(alpha))
        supp_beta = tuple(compress(slots, beta))
        w = 0
        for a in compress(slots, alpha):
            ea, Ma = alpha[a], M[a]
            for b in supp_beta:
                if b >= a:
                    break
                w += ea * beta[b] * Ma[b]
        return w, tuple(map(add, alpha, beta))

    # -- element constructors -------------------------------------------------

    def term(self, mono, c=ONE) -> "Element":
        return Element(self, {mono: c})

    def gen(self, g: int) -> "Element":
        exps = [0] * self.ngens
        exps[g] = 1
        return self.term(tuple(exps))

    def monomial(self, exps, coeff=1) -> "Element":
        mono = tuple(int(e) for e in exps)
        if not self.is_admissible(mono):
            raise ValueError(f"inadmissible monomial {mono} for {self!r}")
        return self.term(mono, coeff)

    def to_json(self):
        return {
            "names": list(self.gen_names),
            "invertible": list(self.invertible),
            "M": [list(row) for row in self.M],
        }

    def __repr__(self):
        return f"<QAlgebra on {', '.join(self.gen_names)}>"


def quantum_affine(n: int) -> QAlgebra:
    """The uniparameter quantum affine space on x_1..x_n with
    x_i x_j = q x_j x_i for i > j."""
    M = [[(1 if a > b else -1 if a < b else 0) for b in range(n)] for a in range(n)]
    return QAlgebra([f"x{i}" for i in range(1, n + 1)], [False] * n, M)


#: the generator-free algebra K, target of scalar-valued maps such as the counit
SCALARS = QAlgebra((), (), ())


class Element(_SparseSum):
    """A finite linear combination of basis monomials of one algebra.

    ``terms`` maps monomials, in the form the algebra's ``canon_mono``
    gives, to nonzero scalars.  Instances are immutable values; arithmetic
    returns new normal forms of the same type.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        canon_mono = algebra.canon_mono
        canon = {}
        for mono, c in terms.items():
            c = ScalarQ.coerce(c)
            if c:
                canon[canon_mono(mono)] = c
        self.algebra = algebra
        self.terms = canon

    def _new(self, terms):
        """A value of this type and algebra; ``terms`` is already normal."""
        res = object.__new__(type(self))
        res.algebra, res.terms = self.algebra, terms
        return res

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise ValueError("elements belong to different algebras")
            return other
        s = ScalarQ._coerce(other)
        return None if s is None else self.algebra.scalar(s)

    def _one(self):
        return self.algebra.one()

    def scale(self, c) -> "Element":
        c = ScalarQ.coerce(c)
        out = {}
        for mono, s in self.terms.items():
            p = s * c
            if p:
                out[mono] = p
        return self._new(out)

    def __mul__(self, other):
        s = ScalarQ._coerce(other)
        if s is not None:
            return self.scale(s)
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        mm = self.algebra.monomial_mul
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                w, mc = mm(ma, mb)
                c = (ca * cb).q_shift(w)
                acc = out.get(mc)
                acc = c if acc is None else acc + c
                if acc:
                    out[mc] = acc
                elif mc in out:
                    del out[mc]
        return self._new(out)

    def __rmul__(self, other):
        s = ScalarQ._coerce(other)
        if s is not None:
            return self.scale(s)
        return NotImplemented

    @property
    def is_unit(self) -> bool:
        """Units are nonzero scalar units times monomials in invertible
        generators (syntactic check on the normal form)."""
        if len(self.terms) != 1:
            return False
        ((mono, c),) = self.terms.items()
        return c.is_unit and self.algebra.mono_is_unit(mono)

    def inverse(self) -> "Element":
        if not self.is_unit:
            raise ValueError("element is not a unit")
        alg = self.algebra
        ((mono, c),) = self.terms.items()
        inv_mono = alg.mono_inverse(mono)
        w, _ = alg.monomial_mul(mono, inv_mono)
        res = alg.term(inv_mono, c.inverse().q_shift(-w))
        if self * res != alg.one():
            raise ArithmeticError(f"inverse self-check failed for {self}")
        return res

    # the shared power, bound here so that perfbench finds it
    __pow__ = _SparseSum.__pow__

    def transport(self, algebra: QAlgebra) -> "Element":
        """Reinterpret in another algebra with the same generator count
        (e.g. the localization); monomials must stay admissible."""
        out = {}
        for mono, c in self.terms.items():
            if not algebra.is_admissible(mono):
                raise ValueError(f"monomial {mono} not admissible in target algebra")
            out[mono] = c
        return Element(algebra, out)

    def to_json(self):
        return [[list(mono), c.to_json()] for mono, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(algebra: QAlgebra, data) -> "Element":
        terms = {}
        for mono, cjson in data:
            terms[tuple(int(e) for e in mono)] = ScalarQ.from_json(cjson)
        for mono in terms:
            if not algebra.is_admissible(mono):
                raise ValueError(f"inadmissible monomial {mono}")
        return Element(algebra, terms)

    def _term_strings(self):
        text = self.algebra.mono_text
        for mono in sorted(self.terms, reverse=True):
            yield _scalar_times(self.terms[mono], text(mono))


def _scalar_times(c: ScalarQ, body: str):
    """Render c * body as a (negative, text) pair; body may be empty."""
    if len(c.terms) == 1:
        ((k, g),) = c.terms.items()
        neg, ctxt = _term_text(g, k)
        if not body:
            return neg, ctxt
        if ctxt == "1":
            return neg, body
        return neg, f"{ctxt}*{body}"
    ctxt = f"({c})"
    return False, (f"{ctxt}*{body}" if body else ctxt)


class TensorSquare(_Presentation):
    """Presentation of the tensor product A (x) B of two algebras, with the
    componentwise product (u (x) v)(u' (x) v') = uu' (x) vv'.

    The generators of A commute with those of B, so A (x) B is again
    q-commutative: its matrix is block-diagonal on the concatenated
    generators, and the q-exponent of a product is the sum of the factors'.
    So its elements (``TensorElement``) use Element's arithmetic unchanged.
    Monomials stay pairs (u, v) instead of concatenated tuples, because
    ``qtriangular delta --json`` prints ``[u, v, c]`` and the benchmark's
    tensor check reads those pair keys; a nested square such as
    A (x) (A (x) A) nests the pairs.  Build squares through
    ``tensor_square``, so that each square has one identity.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def term(self, mono, c=ONE) -> "TensorElement":
        return TensorElement(self, {mono: c})

    def unit_mono(self):
        return self.left.unit_mono(), self.right.unit_mono()

    def canon_mono(self, mono):
        u, v = mono
        return self.left.canon_mono(u), self.right.canon_mono(v)

    def mono_is_unit(self, mono) -> bool:
        u, v = mono
        return self.left.mono_is_unit(u) and self.right.mono_is_unit(v)

    def mono_inverse(self, mono):
        u, v = mono
        return self.left.mono_inverse(u), self.right.mono_inverse(v)

    def monomial_mul(self, alpha, beta):
        (ua, va), (ub, vb) = alpha, beta
        wl, u = self.left.monomial_mul(ua, ub)
        wr, v = self.right.monomial_mul(va, vb)
        return wl + wr, (u, v)

    def mono_text(self, mono) -> str:
        u, v = mono
        return f"{self.left.mono_text(u) or '1'} (x) {self.right.mono_text(v) or '1'}"

    def degree(self, mono):
        """The pair of the factors' degrees, or None if a factor has none;
        the factors commute, so the form is the sum of theirs."""
        u, v = mono
        du = self.left.degree(u)
        dv = None if du is None else self.right.degree(v)
        return None if dv is None else (du, dv)

    def degree_form(self, d1, d2) -> int:
        (u1, v1), (u2, v2) = d1, d2
        return self.left.degree_form(u1, u2) + self.right.degree_form(v1, v2)


@lru_cache(maxsize=None)
def tensor_square(left, right) -> TensorSquare:
    """The tensor square left (x) right, cached so that each square (nested
    ones included) is one object and its elements can be combined."""
    return TensorSquare(left, right)


class TensorElement(Element):
    """An element of a ``TensorSquare``: ``terms`` maps pairs (u, v) of
    factor monomials to nonzero scalars.  All arithmetic is Element's; only
    the factorwise map, the flip and the `` (x) `` printing live here."""

    __slots__ = ()

    # Element's product under its own name, so that ``perfbench/layers.py``
    # can time tensor products apart from products in a single algebra
    __mul__ = Element.__mul__

    @staticmethod
    def of(u: Element, v: Element) -> "TensorElement":
        """The simple tensor u (x) v, expanded bilinearly."""
        terms = {(mu, mv): cu * cv for mu, cu in u.terms.items() for mv, cv in v.terms.items()}
        return TensorElement(tensor_square(u.algebra, v.algebra), terms)

    def flip(self) -> "TensorElement":
        """The flip map u (x) v -> v (x) u."""
        sq = self.algebra
        return TensorElement(tensor_square(sq.right, sq.left), {(v, u): c for (u, v), c in self.terms.items()})

    def map_factors(self, f, g) -> "TensorElement":
        """Apply Element maps f and g factorwise; the coefficient rides on
        the left factor, so antilinear f conjugates it.  The result, even
        for the zero tensor, lives in the square of f's and g's targets."""
        sq = self.algebra
        # a fresh zero of that square, which nothing else holds, filled in place
        out = TensorElement.of(f(sq.left.zero()), g(sq.right.zero()))
        for (mu, mv), c in self.terms.items():
            _add_into(out.terms, TensorElement.of(f(sq.left.term(mu, c)), g(sq.right.term(mv))).terms)
        return out

    def _term_strings(self):
        sq = self.algebra
        for mu, mv in sorted(self.terms, reverse=True):
            neg, ltxt = _scalar_times(self.terms[mu, mv], sq.left.mono_text(mu))
            yield neg, f"{ltxt} (x) {sq.right.mono_text(mv) or '1'}"


def homogeneous_degree(e: Element):
    """The degree shared by every term of e, or None when e is zero, is not
    homogeneous, or lives in a presentation without a grading."""
    degree = e.algebra.degree
    degrees = {degree(mono) for mono in e.terms}
    return degrees.pop() if len(degrees) == 1 else None


def is_point(images, algebra: QAlgebra, *, opposite: bool = False) -> bool:
    """Whether a tuple of images (one per generator) satisfies the defining
    relations of ``algebra`` in its target, i.e. encodes an algebra morphism.

    With ``opposite=True`` the relations are checked with M negated, which is
    the condition for extending an anti-homomorphism.  Images of invertible
    generators must additionally be units.  Images may live in any
    presentation, e.g. a ``TensorSquare`` (whose keys stay pairs; see
    there).  ``delta_spec`` builds the comultiplication without this check,
    which the bialgebra suite runs instead, once per size.

    Each relation y*z = q^m * z*y is decided by degree first.  If y and z
    are nonzero and homogeneous of degrees d and e in a graded target, then
    y*z = q^B * z*y with B = ``degree_form(d, e)``, since q-commutation of
    monomials depends on their degrees alone.  The target is a q-commutative
    algebra over the domain Q(i)[q, q^-1], hence a domain, so z*y != 0 and
    the relation holds exactly when B == m.  A pair with a zero or
    inhomogeneous image (such as a coproduct image), or in a target without
    a grading (such as ``SCALARS``), is decided by expanding both products.
    """
    images = list(images)
    if len(images) != algebra.ngens:
        raise ValueError("one image per generator required")
    sign = -1 if opposite else 1
    # degrees only within one target; a stray image takes the product path,
    # which rejects mixed algebras
    target = images[0].algebra if images else None
    degrees = [homogeneous_degree(img) if img.algebra is target else None for img in images]
    for a in range(algebra.ngens):
        if algebra.invertible[a] and not images[a].is_unit:
            return False
        da = degrees[a]
        for b in range(a):
            m = sign * algebra.M[a][b]
            db = degrees[b]
            if da is not None and db is not None:
                if target.degree_form(da, db) != m:
                    return False
            elif images[a] * images[b] != (images[b] * images[a]).scale(qpow(m)):
                return False
    return True


class MorphismSpec:
    """Generator images plus (anti)multiplicativity and (anti)linearity
    flags; ``apply`` extends the images to whole elements.

    The images must pass the point check (reversed relations for an
    antimorphism), which is verified at construction unless ``check=False``.
    ``apply`` folds cached image powers, seeded by the images as the k = 1
    powers and by ``_unit`` as every k = 0 power; it asks of them only a
    product, ``scale``, ``inverse``, truth and ``terms``, so a derivation
    folds its Leibniz pairs through the same loop (see ``deriv``).
    """

    __slots__ = ("source", "target", "images", "antimorphism", "antilinear", "_unit", "_powers")

    def __init__(self, source: QAlgebra, images, *, antimorphism=False, antilinear=False, check=True):
        images = tuple(images)
        if len(images) != source.ngens:
            raise ValueError("one image per generator required")
        target = images[0].algebra if images else source
        for img in images:
            if img.algebra is not target:
                raise ValueError("images must live in a single target algebra")
        self.source = source
        self.target = target
        self.images = images
        self.antimorphism = bool(antimorphism)
        self.antilinear = bool(antilinear)
        self._unit = target.one()
        self._powers = {(g, 1): img for g, img in enumerate(images)}
        if check:
            for g in range(source.ngens):
                if source.invertible[g] and not images[g].is_unit:
                    raise ValueError(
                        f"image of invertible generator {source.gen_names[g]} is not a unit"
                    )
            if not is_point(images, source, opposite=self.antimorphism):
                kind = "antimorphism" if self.antimorphism else "morphism"
                raise ValueError(f"images do not satisfy the relations required of a {kind}")

    def _image_power(self, g: int, k: int) -> Element:
        cached = self._powers.get((g, k))
        if cached is None:
            if k == -1:
                # the one inversion per generator; every k < -1 reuses it
                cached = self._powers[g, 1].inverse()
            else:
                cached = _power(self._unit, self._image_power(g, 1 if k >= 0 else -1), abs(k))
            self._powers[(g, k)] = cached
        return cached

    def apply(self, e: Element) -> Element:
        if e.algebra is not self.source:
            raise ValueError("element does not belong to the source algebra")
        order = range(self.source.ngens)
        if self.antimorphism:
            order = reversed(order)
        order = tuple(order)
        # a fresh zero that nothing else holds, filled in place
        out = self.target.zero()
        for mono, c in e.terms.items():
            powers = []
            for g in order:
                if mono[g]:
                    p = self._image_power(g, mono[g])
                    if not p:
                        # a zero image power kills the term before any
                        # further power, scale or product
                        break
                    powers.append(p)
            else:
                if self.antilinear:
                    c = c.conjugate()
                acc = (powers[0] if powers else self._unit).scale(c)
                for p in powers[1:]:
                    acc = acc * p
                _add_into(out.terms, acc.terms)
        return out

    __call__ = apply


@dataclass(frozen=True)
class CenterLattice:
    """Result of the monomial-center computation.

    ``kernel_basis`` is a Hermite-normal-form basis of {nu : M nu = 0};
    ``generators`` are the basis vectors admissible as monomials (sign chosen
    inside the cone), so an empty tuple means the center is K on monomials;
    ``violations`` are basis vectors with no admissible sign.
    """

    kernel_basis: tuple
    generators: tuple
    violations: tuple

    @property
    def is_scalar_center(self) -> bool:
        return not self.generators


def _integer_echelon(rows, ncols=None):
    """In-place integer row echelon via gcd elimination, pivoting on the
    first ``ncols`` columns only; returns the pivot count."""
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # gcd-eliminate column c below row r
        while True:
            pivots = [i for i in range(r, nrows) if rows[i][c]]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c]:
                    qq = rows[i][c] // rows[r][c]
                    if qq:
                        rows[i] = [x - qq * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c]:
                        done = False
            if done:
                break
        if any(rows[i][c] for i in range(r, nrows)):
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            r += 1
    return r


def _hnf(rows):
    """Hermite normal form (row style, positive pivots, reduced above)."""
    rows = [list(r) for r in rows]
    rank = _integer_echelon(rows)
    rows = rows[:rank]
    # reduce entries above each pivot
    for i in range(rank):
        c = next(j for j, x in enumerate(rows[i]) if x)
        p = rows[i][c]
        for k in range(i):
            qq = rows[k][c] // p
            if qq:
                rows[k] = [x - qq * y for x, y in zip(rows[k], rows[i])]
    return [tuple(r) for r in rows]


def integer_kernel(M) -> list:
    """HNF basis of the integer null space {nu : M nu = 0}."""
    n = len(M)
    if n == 0:
        return []
    # row-reduce [M^T | I] on the left block; rows whose left part vanishes
    # carry a kernel basis in the right block
    work = [
        [M[b][a] for b in range(n)] + [1 if b == a else 0 for b in range(n)]
        for a in range(n)
    ]
    rank = _integer_echelon(work, ncols=n)
    return _hnf([row[n:] for row in work[rank:]])


def center_lattice(algebra: QAlgebra) -> CenterLattice:
    """Basis of the lattice of central monomial directions.

    A monomial x^nu is central iff M nu = 0; the admissibility cone keeps
    exponents of non-invertible generators nonnegative.  Basis vectors that
    fit the cone in neither sign are reported as violations rather than
    generators.
    """
    basis = integer_kernel(algebra.M)
    admissible = algebra.is_admissible
    gens = []
    bad = []
    for v in basis:
        if admissible(v):
            gens.append(tuple(v))
        elif admissible([-e for e in v]):
            gens.append(tuple(-e for e in v))
        else:
            bad.append(tuple(v))
    return CenterLattice(tuple(tuple(v) for v in basis), tuple(gens), tuple(bad))


#: coefficient pool for seeded random elements
_COEFF_POOL = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-2, 3)),
    GaussianRational(0, 1),
    GaussianRational(1, 1),
    GaussianRational(1, -1),
)


def random_scalar(rng: random.Random) -> ScalarQ:
    return qpow(rng.randint(-2, 2), rng.choice(_COEFF_POOL))


def random_element(
    algebra: QAlgebra,
    rng: random.Random,
    max_terms: int = 4,
    inv_range=(-2, 2),
    pos_range=(0, 3),
    max_support=None,
) -> Element:
    """Seeded random element: at most ``max_terms`` monomials, exponents in
    ``inv_range`` for invertible generators and ``pos_range`` otherwise,
    coefficients from a small Gaussian-rational pool times a q-power.
    ``max_support`` caps how many generators appear in each monomial."""
    out = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        support = range(algebra.ngens)
        if max_support is not None and algebra.ngens > max_support:
            support = rng.sample(support, max_support)
        mono = [0] * algebra.ngens
        for g in support:
            mono[g] = rng.randint(*inv_range) if algebra.invertible[g] else rng.randint(*pos_range)
        out = out + Element(algebra, {tuple(mono): random_scalar(rng)})
    return out
