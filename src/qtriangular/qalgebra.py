"""Engine for multiparameter q-commutative algebras.

An algebra is presented by ordered generators, per-generator invertibility
flags, and an antisymmetric integer matrix M, with the convention

    g_a * g_b = q^(M[a][b]) * g_b * g_a        for all a, b.

Sorted monomials x^nu = g_1^(nu_1) ... g_N^(nu_N) form a basis (exponents of
non-invertible generators are >= 0, invertible ones range over Z), so every
element has a unique sparse normal form and equality is a dictionary
comparison.  Presentations and values are immutable; all operations are pure
functions, safe for concurrent use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add

from .coeff import _NUMBER, GaussianRational, ScalarQ, _power, qpow


def _as_scalar_or_none(x):
    if isinstance(x, ScalarQ):
        return x
    if isinstance(x, _NUMBER):
        return ScalarQ.coerce(x)
    return None


class QAlgebra:
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

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {(0,) * self.ngens: ScalarQ.constant(1)})

    def scalar(self, c) -> "Element":
        return Element(self, {(0,) * self.ngens: ScalarQ.coerce(c)})

    def gen(self, g: int) -> "Element":
        exps = [0] * self.ngens
        exps[g] = 1
        return Element(self, {tuple(exps): ScalarQ.constant(1)})

    def monomial(self, exps, coeff=1) -> "Element":
        mono = tuple(int(e) for e in exps)
        if not self.is_admissible(mono):
            raise ValueError(f"inadmissible monomial {mono} for {self!r}")
        return Element(self, {mono: ScalarQ.coerce(coeff)})

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


class Element:
    """A finite linear combination of basis monomials of one algebra.

    ``terms`` maps exponent tuples to nonzero scalars.  Instances are
    immutable values; arithmetic returns new normal forms.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: QAlgebra, terms):
        canon = {}
        for mono, c in terms.items():
            c = ScalarQ.coerce(c)
            if c:
                if len(mono) != algebra.ngens:
                    raise ValueError("monomial length does not match algebra")
                canon[tuple(mono)] = c
        self.algebra = algebra
        self.terms = canon

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise ValueError("elements belong to different algebras")
            return other
        s = _as_scalar_or_none(other)
        if s is None:
            return None
        return Element(self.algebra, {(0,) * self.algebra.ngens: s})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in o.terms.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s:
                out[mono] = s
            else:
                del out[mono]
        res = Element.__new__(Element)
        res.algebra, res.terms = self.algebra, out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Element.__new__(Element)
        res.algebra = self.algebra
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Element":
        c = ScalarQ.coerce(c)
        out = {}
        for mono, s in self.terms.items():
            p = s * c
            if p:
                out[mono] = p
        res = Element.__new__(Element)
        res.algebra, res.terms = self.algebra, out
        return res

    def __mul__(self, other):
        s = _as_scalar_or_none(other)
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
        res = Element.__new__(Element)
        res.algebra, res.terms = self.algebra, out
        return res

    def __rmul__(self, other):
        s = _as_scalar_or_none(other)
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
        if not c.is_unit:
            return False
        return all(e == 0 or self.algebra.invertible[g] for g, e in enumerate(mono))

    def inverse(self) -> "Element":
        if not self.is_unit:
            raise ValueError("element is not a unit")
        ((mono, c),) = self.terms.items()
        inv_mono = tuple(-e for e in mono)
        w, _ = self.algebra.monomial_mul(mono, inv_mono)
        res = Element(self.algebra, {inv_mono: c.inverse().q_shift(-w)})
        if self * res != self.algebra.one():
            raise ArithmeticError(f"inverse self-check failed for {self}")
        return res

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return _power(self.algebra.one(), self if n >= 0 else self.inverse(), abs(n))

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
        names = self.algebra.gen_names
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            body = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, mono)
                if e
            )
            yield _scalar_times(c, body)

    def __str__(self):
        if not self.terms:
            return "0"
        from .coeff import _join_signed

        return _join_signed(self._term_strings())

    __repr__ = __str__


def _scalar_times(c: ScalarQ, body: str):
    """Render c * body as a (negative, text) pair; body may be empty."""
    from .coeff import _term_text

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


class TensorElement:
    """An element of the tensor square A (x) B of two q-commutative algebras,
    with the componentwise product (u (x) v)(u' (x) v') = uu' (x) vv'.

    ``terms`` maps pairs of exponent tuples to nonzero scalars; each factor
    is kept in its own normal form.
    """

    __slots__ = ("left", "right", "terms")

    def __init__(self, left: QAlgebra, right: QAlgebra, terms):
        canon = {}
        for (mu, mv), c in terms.items():
            c = ScalarQ.coerce(c)
            if c:
                canon[(tuple(mu), tuple(mv))] = c
        self.left = left
        self.right = right
        self.terms = canon

    @staticmethod
    def of(u: Element, v: Element) -> "TensorElement":
        """The simple tensor u (x) v, expanded bilinearly."""
        terms = {}
        for mu, cu in u.terms.items():
            for mv, cv in v.terms.items():
                terms[(mu, mv)] = cu * cv
        return TensorElement(u.algebra, v.algebra, terms)

    def _check(self, other):
        if self.left is not other.left or self.right is not other.right:
            raise ValueError("tensor elements over different algebra pairs")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                del out[key]
        res = TensorElement.__new__(TensorElement)
        res.left, res.right, res.terms = self.left, self.right, out
        return res

    def __neg__(self):
        res = TensorElement.__new__(TensorElement)
        res.left, res.right = self.left, self.right
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other) if isinstance(other, TensorElement) else NotImplemented

    def scale(self, c) -> "TensorElement":
        c = ScalarQ.coerce(c)
        out = {}
        for key, s in self.terms.items():
            p = s * c
            if p:
                out[key] = p
        res = TensorElement.__new__(TensorElement)
        res.left, res.right, res.terms = self.left, self.right, out
        return res

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            s = _as_scalar_or_none(other)
            if s is not None:
                return self.scale(s)
            return NotImplemented
        self._check(other)
        mmL = self.left.monomial_mul
        mmR = self.right.monomial_mul
        out = {}
        for (ua, va), ca in self.terms.items():
            for (ub, vb), cb in other.terms.items():
                wl, uc = mmL(ua, ub)
                wr, vc = mmR(va, vb)
                c = (ca * cb).q_shift(wl + wr)
                key = (uc, vc)
                acc = out.get(key)
                acc = c if acc is None else acc + c
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        res = TensorElement.__new__(TensorElement)
        res.left, res.right, res.terms = self.left, self.right, out
        return res

    def __rmul__(self, other):
        s = _as_scalar_or_none(other)
        if s is not None:
            return self.scale(s)
        return NotImplemented

    @property
    def is_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        (((mu, mv), c),) = self.terms.items()
        if not c.is_unit:
            return False
        okl = all(e == 0 or self.left.invertible[g] for g, e in enumerate(mu))
        okr = all(e == 0 or self.right.invertible[g] for g, e in enumerate(mv))
        return okl and okr

    def inverse(self) -> "TensorElement":
        if not self.is_unit:
            raise ValueError("tensor element is not a unit")
        (((mu, mv), c),) = self.terms.items()
        wl, _ = self.left.monomial_mul(mu, tuple(-e for e in mu))
        wr, _ = self.right.monomial_mul(mv, tuple(-e for e in mv))
        inv = TensorElement(
            self.left,
            self.right,
            {(tuple(-e for e in mu), tuple(-e for e in mv)): c.inverse().q_shift(-wl - wr)},
        )
        return inv

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return _power(tensor_one(self.left, self.right), self if n >= 0 else self.inverse(), abs(n))

    def flip(self) -> "TensorElement":
        """The flip map u (x) v -> v (x) u."""
        return TensorElement(self.right, self.left, {(v, u): c for (u, v), c in self.terms.items()})

    def map_factors(self, f, g) -> "TensorElement":
        """Apply Element maps f and g factorwise; the coefficient rides on
        the left factor, so antilinear f conjugates it."""
        out = None
        for (mu, mv), c in self.terms.items():
            lt = f(Element(self.left, {mu: c}))
            rt = g(Element(self.right, {mv: ScalarQ.constant(1)}))
            piece = TensorElement.of(lt, rt)
            out = piece if out is None else out + piece
        if out is None:
            return TensorElement(self.left, self.right, {})
        return out

    def contract_left(self, functional) -> Element:
        """Apply a scalar-valued functional to the left factor; returns the
        resulting element of the right algebra."""
        out = self.right.zero()
        for (mu, mv), c in self.terms.items():
            s = functional(Element(self.left, {mu: c}))
            out = out + Element(self.right, {mv: s})
        return out

    def contract_right(self, functional) -> Element:
        out = self.left.zero()
        for (mu, mv), c in self.terms.items():
            s = functional(Element(self.right, {mv: ScalarQ.constant(1)}))
            out = out + Element(self.left, {mu: c * s})
        return out

    def _term_strings(self):
        lnames = self.left.gen_names
        rnames = self.right.gen_names
        for mu, mv in sorted(self.terms, reverse=True):
            c = self.terms[(mu, mv)]
            lbody = "*".join(
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(lnames, mu) if e
            )
            rbody = "*".join(
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(rnames, mv) if e
            ) or "1"
            neg, ltxt = _scalar_times(c, lbody)
            yield neg, f"{ltxt} (x) {rbody}"

    def __str__(self):
        if not self.terms:
            return "0"
        from .coeff import _join_signed

        return _join_signed(self._term_strings())

    __repr__ = __str__


def tensor_one(left: QAlgebra, right: QAlgebra) -> TensorElement:
    key = ((0,) * left.ngens, (0,) * right.ngens)
    return TensorElement(left, right, {key: ScalarQ.constant(1)})


def is_point(images, algebra: QAlgebra, *, opposite: bool = False) -> bool:
    """Whether a tuple of images (one per generator) satisfies the defining
    relations of ``algebra`` in its target, i.e. encodes an algebra morphism.

    With ``opposite=True`` the relations are checked with M negated, which is
    the condition for extending an anti-homomorphism.  Images of invertible
    generators must additionally be units.  Images may be Element or
    TensorElement values.
    """
    images = list(images)
    if len(images) != algebra.ngens:
        raise ValueError("one image per generator required")
    sign = -1 if opposite else 1
    for a in range(algebra.ngens):
        if algebra.invertible[a] and not images[a].is_unit:
            return False
        for b in range(a):
            m = sign * algebra.M[a][b]
            lhs = images[a] * images[b]
            rhs = (images[b] * images[a]).scale(qpow(m))
            if lhs != rhs:
                return False
    return True


class MorphismSpec:
    """Generator images plus (anti)multiplicativity and (anti)linearity
    flags; ``apply`` extends the images to whole elements.

    The images must pass the point check (reversed relations for an
    antimorphism), which is verified at construction unless ``check=False``.
    """

    __slots__ = ("source", "target", "images", "antimorphism", "antilinear", "_powers")

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
        self._powers = {}
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
                cached = self.images[g].inverse()
            else:
                base = self.images[g] if k >= 0 else self._image_power(g, -1)
                cached = _power(self.target.one(), base, abs(k))
            self._powers[(g, k)] = cached
        return cached

    def apply(self, e: Element) -> Element:
        if e.algebra is not self.source:
            raise ValueError("element does not belong to the source algebra")
        order = range(self.source.ngens)
        if self.antimorphism:
            order = reversed(order)
        order = tuple(order)
        out = self.target.zero()
        for mono, c in e.terms.items():
            if self.antilinear:
                c = c.conjugate()
            acc = self.target.scalar(c)
            for g in order:
                k = mono[g]
                if k:
                    acc = acc * self._image_power(g, k)
            out = out + acc
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

    def admissible(v):
        return all(e >= 0 or algebra.invertible[g] for g, e in enumerate(v))

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
