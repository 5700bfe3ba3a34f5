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

No center is computed here for a general presentation: the central monomials
of T_q(n) and UT_q(n) come in closed form from ``triangular.center_lattice``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress
from operator import add, attrgetter, index, mul, neg

from .coeff import (
    ONE, ZERO, GaussianRational, ScalarQ, _add_into, _distinct, _power, _reduced, _SparseSum, _term_text, _times, qpow,
)


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


class _Presentation:
    """Constructors shared by QAlgebra and TensorSquare, written once on
    each one's ``_term`` and ``unit_mono``.  Element asks a presentation
    for nothing else but ``monomial_mul``, ``_checked_mono`` (in its
    public constructor only), ``mono_is_unit``, ``mono_inverse`` and
    ``mono_text``."""

    __slots__ = ()

    def zero(self) -> "Element":
        return self._term(self.unit_mono(), ZERO)

    def one(self) -> "Element":
        return self._term(self.unit_mono())

    def scalar(self, c) -> "Element":
        return self._term(self.unit_mono(), ScalarQ.coerce(c))


class QAlgebra(_Presentation):
    """Presentation of a q-commutative algebra whose commutation constants
    are integer powers of q."""

    __slots__ = ("gen_names", "invertible", "M")

    def __init__(self, gen_names, invertible, M):
        names = tuple(gen_names)
        inv = tuple(bool(b) for b in invertible)
        mat = tuple(tuple(map(index, row)) for row in M)
        if len(inv) != len(names) or len(mat) != len(names):
            raise ValueError("generator metadata lengths disagree")
        if any(len(row) != len(names) for row in mat):
            raise ValueError("commutation matrix must be square")
        # antisymmetry forces the zero diagonal
        if any(tuple(map(neg, col)) != row for row, col in zip(mat, zip(*mat))):
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
        """The degree of x^mono as a hashable pair (vector, dual) such that
        x^alpha x^beta = q^B x^beta x^alpha, with B the dot product of
        alpha's vector and beta's dual; ``q_relation`` decides relations
        by it.  Here it is (mono, M mono): by ``monomial_mul``, B = w(alpha,
        beta) - w(beta, alpha) sums alpha_a beta_b M[a][b] over a > b and,
        as M is antisymmetric, over a < b too, so B = alpha^T M beta.  So
        every presentation is graded, ``SCALARS`` too (by ((), ()))."""
        return mono, tuple(sum(map(mul, row, mono)) for row in self.M)

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

    def _term(self, mono, c=ONE) -> "Element":
        """c * x^mono by the trusted path: mono is admissible and c a
        ``ScalarQ``, so only a zero c is dropped."""
        return Element._of(self, {mono: c} if c else {})

    def gen(self, g: int) -> "Element":
        exps = [0] * self.ngens
        exps[g] = 1
        return self._term(tuple(exps))

    def monomial(self, exps, coeff=1) -> "Element":
        return Element(self, {tuple(exps): coeff})

    def _checked_mono(self, mono):
        """``mono`` as a tuple, whose exponents must be integers
        (``operator.index``) and which must be admissible here: the one key
        check, which only the public constructor runs."""
        mono = tuple(map(index, mono))
        if not self.is_admissible(mono):
            raise ValueError(f"inadmissible monomial {mono} for {self!r}")
        return mono

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
    M = [[_sgn(a - b) for b in range(n)] for a in range(n)]
    return QAlgebra([f"x{i}" for i in range(1, n + 1)], [False] * n, M)


#: the generator-free algebra K, target of scalar-valued maps such as the counit
SCALARS = QAlgebra((), (), ())


class Element(_SparseSum):
    """A finite linear combination of basis monomials of one algebra.

    ``terms`` maps admissible monomials to nonzero scalars.  Instances are
    immutable values; arithmetic returns new normal forms of the same type.

    ``Element(algebra, terms)`` is the one public constructor, and it
    checks every key with the algebra's ``_checked_mono``: integer
    exponents, the right length, and no negative exponent on a generator
    that is not invertible.  It coerces each coefficient and drops the
    zeros.  Code whose terms are already normal builds through ``_of``
    (or a presentation's ``_term``), which checks nothing.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        checked = algebra._checked_mono
        canon = {}
        for mono, c in terms.items():
            mono, c = checked(mono), ScalarQ.coerce(c)
            if c:
                canon[mono] = c
        self.algebra = algebra
        self.terms = canon

    @classmethod
    def _of(cls, algebra, terms):
        """The trusted constructor: a value of this type that wraps
        ``terms``, which is already normal and which nothing else holds."""
        res = object.__new__(cls)
        res.algebra, res.terms = algebra, terms
        return res

    def _new(self, terms):
        return self._of(self.algebra, terms)

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
        # Q(i)[q, q^-1] has no zero divisors, so a nonzero c zeroes no term
        return self._new({mono: s * c for mono, s in self.terms.items()} if c else {})

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
        res = alg._term(inv_mono, c.inverse().q_shift(-w))
        if self * res != alg.one():
            raise ArithmeticError(f"inverse self-check failed for {self}")
        return res

    def _add_owned(self, other) -> "Element":
        """self + other, written into self, which nothing else may hold."""
        _add_into(self.terms, other.terms)
        return self

    # the shared power, bound here so that perfbench finds it
    __pow__ = _SparseSum.__pow__

    def transport(self, algebra: QAlgebra) -> "Element":
        """Reinterpret in another algebra with the same generator count
        (e.g. the localization); monomials must stay admissible."""
        return Element(algebra, self.terms)

    def to_json(self):
        return [[list(mono), c.to_json()] for mono, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(algebra: QAlgebra, data) -> "Element":
        pairs = ((tuple(mono), ScalarQ.from_json(cjson)) for mono, cjson in data)
        return Element(algebra, _distinct(pairs, "monomial"))

    def _term_strings(self):
        text = self.algebra.mono_text
        for mono in sorted(self.terms, reverse=True):
            yield _scalar_times(self.terms[mono], text(mono))


def _scalar_times(c: ScalarQ, body: str):
    """Render c * body as a (negative, text) pair; body may be empty."""
    if len(c.terms) == 1:
        ((k, g),) = c.terms.items()
        neg, ctxt = _term_text(g, k)
    else:
        neg, ctxt = False, f"({c})"
    return neg, _times(ctxt, body)


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

    def _term(self, mono, c=ONE) -> "TensorElement":
        return TensorElement._of(self, {mono: c} if c else {})

    def unit_mono(self):
        return self.left.unit_mono(), self.right.unit_mono()

    def _checked_mono(self, mono):
        """(u, v) with u checked in the left factor and v in the right."""
        u, v = mono
        return self.left._checked_mono(u), self.right._checked_mono(v)

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
        """The factors' vectors and their duals, each concatenated: the
        factors commute, so B is the sum of theirs."""
        (vu, du), (vv, dv) = self.left.degree(mono[0]), self.right.degree(mono[1])
        return vu + vv, du + dv


@lru_cache(maxsize=None)
def tensor_square(left, right) -> TensorSquare:
    """The tensor square left (x) right, cached so that each square (nested
    ones included) is one object and its elements can be combined."""
    return TensorSquare(left, right)


class TensorElement(Element):
    """An element of a ``TensorSquare``: ``terms`` maps pairs (u, v) of
    factor monomials to nonzero scalars.  All arithmetic is Element's; only
    the factorwise map, the flip, the ``[u, v, c]`` JSON rows and the
    `` (x) `` printing live here."""

    __slots__ = ()

    # Element's product under its own name, so that ``perfbench/layers.py``
    # can time tensor products apart from products in a single algebra
    __mul__ = Element.__mul__

    @staticmethod
    def of(u: Element, v: Element) -> "TensorElement":
        """The simple tensor u (x) v, expanded bilinearly."""
        terms = {(mu, mv): cu * cv for mu, cu in u.terms.items() for mv, cv in v.terms.items()}
        return TensorElement._of(tensor_square(u.algebra, v.algebra), terms)

    def flip(self) -> "TensorElement":
        """The flip map u (x) v -> v (x) u."""
        sq = self.algebra
        return TensorElement._of(tensor_square(sq.right, sq.left), {(v, u): c for (u, v), c in self.terms.items()})

    def map_factors(self, f, g) -> "TensorElement":
        """Apply Element maps f and g factorwise; the coefficient rides on
        the left factor, so antilinear f conjugates it.  The result, even
        for the zero tensor, lives in the square of f's and g's targets."""
        sq = self.algebra
        out = None
        for (mu, mv), c in self.terms.items():
            # each ``of`` is new, so the first image holds the sum in place
            image = TensorElement.of(f(sq.left._term(mu, c)), g(sq.right._term(mv)))
            out = image if out is None else out._add_owned(image)
        if out is None:
            # only the empty tensor maps zeros, to learn the square of the targets
            out = TensorElement.of(f(sq.left.zero()), g(sq.right.zero()))
        return out

    def to_json(self):
        """``[u, v, c]`` rows, the ``terms`` that ``delta --json`` prints."""
        return [[list(u), list(v), c.to_json()] for (u, v), c in sorted(self.terms.items())]

    @staticmethod
    def from_json(square: TensorSquare, rows) -> "TensorElement":
        """The tensor of ``[u, v, c]`` rows as ``to_json`` writes them; u
        must be admissible in the left factor and v in the right."""
        pairs = (((tuple(u), tuple(v)), ScalarQ.from_json(c)) for u, v, c in rows)
        return TensorElement(square, _distinct(pairs, "pair"))

    def _term_strings(self):
        sq = self.algebra
        for mu, mv in sorted(self.terms, reverse=True):
            neg, ltxt = _scalar_times(self.terms[mu, mv], sq.left.mono_text(mu))
            yield neg, f"{ltxt} (x) {sq.right.mono_text(mv) or '1'}"


def term_degrees(e: Element):
    """The frozenset of the degrees of e's terms, empty for zero."""
    return frozenset(map(e.algebra.degree, e.terms))


def q_relation(y: Element, z: Element, m: int, dy, dz):
    """The two sides of the relation y*z = q^m * z*y, as a pair that is
    equal exactly when the relation holds.

    ``dy`` and ``dz`` are the term degrees of y and z (``term_degrees``).
    Write y and z as sums of terms y_k and z_l.  Monomials q-commute by
    their degrees alone, so a term pair of degrees (v, _) and (_, d) has
    y_k z_l = q^B z_l y_k with B the dot product of v and d (see
    ``QAlgebra.degree``).  When B == m for every pair, summing over the
    pairs gives y*z = q^m * z*y, and the pair is (True, True); a zero side
    has no terms, and 0 = q^m * 0.  Otherwise the pair is the products
    (y*z, q^m * z*y), which decide the relation exactly, even one that
    holds only by cancellation, so a relation that fails is witnessed by
    two products that differ.
    """
    if all(sum(map(mul, v, d)) == m for v, _ in dy for _, d in dz):
        return True, True
    return y * z, (z * y).scale(qpow(m))


def _image_tuple(images, source: QAlgebra):
    """``(images, target)``: the images as a tuple, one per generator of
    ``source``, and the one algebra they all live in (``source`` if none)."""
    images = tuple(images)
    if len(images) != source.ngens:
        raise ValueError("one image per generator required")
    target = images[0].algebra if images else source
    for img in images:
        if img.algebra is not target:
            raise ValueError("images must live in a single target algebra")
    return images, target


def is_point(images, algebra: QAlgebra, *, opposite: bool = False) -> bool:
    """Whether a tuple of images (one per generator) satisfies the defining
    relations of ``algebra`` in its target, i.e. encodes an algebra morphism.

    With ``opposite=True`` the relations are checked with M negated, which is
    the condition for extending an anti-homomorphism.  Images of invertible
    generators must additionally be units.  Images may live in any
    presentation, e.g. a ``TensorSquare`` (whose keys stay pairs; see
    there).  ``delta_spec`` builds the comultiplication without this check,
    which the bialgebra suite runs instead, once per size.

    Each image's term degrees are built once, and ``q_relation`` decides
    every relation: by one dot product per term pair of two images, and by
    products only for a relation the degrees reject.
    """
    images, _ = _image_tuple(images, algebra)
    sign = -1 if opposite else 1
    degrees = [term_degrees(img) for img in images]
    for a in range(algebra.ngens):
        if algebra.invertible[a] and not images[a].is_unit:
            return False
        for b in range(a):
            lhs, rhs = q_relation(images[a], images[b], sign * algebra.M[a][b], degrees[a], degrees[b])
            if lhs != rhs:
                return False
    return True


class MorphismSpec:
    """Generator images plus (anti)multiplicativity and (anti)linearity
    flags; ``apply`` extends the images to whole elements.

    The images must pass the point check (reversed relations for an
    antimorphism), which is verified at construction unless ``check=False``.
    ``apply`` sums cached image powers in Horner form (``_horner``), which
    ``_seed`` starts with the images as the k = 1 powers and ``_unit`` as
    every k = 0 power; it asks of them only a product, ``scale``,
    ``inverse``, truth and ``_add_owned``, an in-place sum into a value that
    nothing else holds, so a derivation seeds Leibniz pairs and sums them
    through the same walk (see ``deriv``).
    """

    __slots__ = ("source", "target", "images", "antimorphism", "antilinear", "_unit", "_powers")

    def __init__(self, source: QAlgebra, images, *, antimorphism=False, antilinear=False, check=True):
        images, target = _image_tuple(images, source)
        self.source = source
        self.target = target
        self.images = images
        self.antimorphism = bool(antimorphism)
        self.antilinear = bool(antilinear)
        self._unit, self._powers = self._seed()
        if check and not is_point(images, source, opposite=self.antimorphism):
            kind = "antimorphism" if self.antimorphism else "morphism"
            raise ValueError(f"images do not satisfy the relations and unit conditions of a {kind}")

    def _seed(self):
        return self.target.one(), {(g, 1): img for g, img in enumerate(self.images)}

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
        total = self._horner(e)
        return self.target.zero() if total is None else total

    __call__ = apply

    def _horner(self, e):
        """The sum over e's terms of c times the ordered product of the
        term's image powers, or None when no term survives, in Horner form:
        the terms sit on a trie keyed by their (g, k) powers in product
        order, so a prefix that many terms share is multiplied once, by the
        sum of its suffixes.  The sum is new, and nothing else holds it."""
        if e.algebra is not self.source:
            raise ValueError("element does not belong to the source algebra")
        order = range(self.source.ngens)
        if self.antimorphism:
            order = reversed(order)
        order = tuple(order)
        power = self._image_power
        # a node is [coefficient of the term that ends there or None, branches]
        root = [None, {}]
        for mono, c in e.terms.items():
            keys = []
            for g in order:
                k = mono[g]
                if k:
                    if not power(g, k):
                        # a zero image power kills the term before any further power
                        break
                    keys.append((g, k))
            else:
                node = root
                for key in keys:
                    branches = node[1]
                    node = branches.get(key)
                    if node is None:
                        node = branches[key] = [None, {}]
                node[0] = c.conjugate() if self.antilinear else c
        # A node's value is c + the sum over its branches (g, k) of P(g, k)
        # times the branch's value.  The walk keeps one frame per open node,
        # [its power, its sum so far or None, branches left], on its own
        # stack, so its depth never tracks the support.
        powers, unit = self._powers, self._unit
        frames = [[None, None if root[0] is None else unit.scale(root[0]), iter(root[1].items())]]
        while True:
            frame = frames[-1]
            for key, (c, branches) in frame[2]:
                if branches:
                    frames.append([powers[key], None if c is None else unit.scale(c), iter(branches.items())])
                    break
                value = powers[key].scale(c)
                # every value here is new, so sums accumulate in place
                frame[1] = value if frame[1] is None else frame[1]._add_owned(value)
            else:
                frames.pop()
                if not frames:
                    return frame[1]
                value, up = frame[0] * frame[1], frames[-1]
                up[1] = value if up[1] is None else up[1]._add_owned(value)


class _Record:
    """An immutable record of the fields in ``__slots__``, valued like a
    frozen dataclass: equal to one of its own class with equal fields
    (``NotImplemented`` otherwise), hashed, printed and pickled by them.
    A subclass's ``__init__`` stores its checked fields with ``_set``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the field tuple of a record, read in C: r._fields(r)
        cls._fields = attrgetter(*cls.__slots__)

    def _set(self, *values, _setattr=object.__setattr__):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._fields(self)))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


#: coefficient pool for seeded random elements
_COEFF_POOL = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    _reduced(1, 0, 2),
    _reduced(-2, 0, 3),
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
