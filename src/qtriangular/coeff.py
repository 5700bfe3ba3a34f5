"""Exact scalar arithmetic: Laurent polynomials in a formal parameter q
over the Gaussian rationals.

The coefficient field is Q(i) with complex conjugation; its fixed subfield Q
plays the role of the real ground field.  A scalar is a finite sum

    sum_k  c_k * q^k

with integer exponents k and c_k in Q(i), stored sparsely with no zero
coefficients.  Canonical form makes equality exact: two scalars are equal
iff their term maps are identical.  q is formally invertible, so working
with a formal q automatically avoids roots of unity.

A scalar (exponent -> coefficient) and an algebra element (monomial ->
scalar) are both sparse sums, so their sums, powers and printing are written
once, in ``_SparseSum``.  Products stay with each type: a scalar product adds
exponents, while an element product reorders monomials with a q-shift.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _power(one, base, n: int):
    """base**n for n >= 0 by square-and-multiply: O(log n) products, none by one."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _gr(r: int, s: int, d: int) -> "GaussianRational":
    """The value (r + s*i)/d from integers that are already normalized."""
    x = object.__new__(GaussianRational)
    x.r, x.s, x.d = r, s, d
    return x


def _reduced(r: int, s: int, d: int) -> "GaussianRational":
    """The value (r + s*i)/d for d > 0, divided through by gcd(r, s, d)."""
    if d != 1:
        g = gcd(r, s, d)
        if g != 1:
            return _gr(r // g, s // g, d // g)
    return _gr(r, s, d)


class GaussianRational:
    """An element re + im*i of Q(i), stored as integers (r + s*i)/d with
    d > 0 and gcd(r, s, d) = 1, so equal values have equal fields.

    Values are immutable: ``r``, ``s`` and ``d`` must not be assigned after
    construction.  ``re`` and ``im`` give the parts as reduced fractions.
    """

    __slots__ = ("r", "s", "d")

    def __init__(self, re=0, im=0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        # with both fractions reduced, scaling to the lcm of the denominators
        # leaves gcd(r, s, d) = 1
        d = lcm(re.denominator, im.denominator)
        self.r = re.numerator * (d // re.denominator)
        self.s = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.r, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.s, self.d)

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int:  # not bool, so r is always a true int
            return _gr(x, 0, 1)
        return GaussianRational(x)

    def conjugate(self) -> "GaussianRational":
        return _gr(self.r, -self.s, self.d)

    def inverse(self) -> "GaussianRational":
        r, s = self.r, self.s
        n = r * r + s * s
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d = self.d
        return _reduced(d * r, -d * s, n)

    def __bool__(self):
        return bool(self.r or self.s)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.r == other.r and self.s == other.s and self.d == other.d
        if isinstance(other, int):
            return self.s == 0 and self.d == 1 and self.r == other
        if isinstance(other, Fraction):
            return self.s == 0 and self.r == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.s == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return self + GaussianRational(other) if isinstance(other, _NUMBER) else NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.r + other.r, self.s + other.s, d1)
        return _reduced(self.r * d2 + other.r * d1, self.s * d2 + other.s * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self.r, -self.s, self.d)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _NUMBER) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _NUMBER) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return self * GaussianRational(other) if isinstance(other, _NUMBER) else NotImplemented
        r1, s1, r2, s2 = self.r, self.s, other.r, other.s
        return _reduced(r1 * r2 - s1 * s2, r1 * s2 + s1 * r2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _NUMBER):
            return NotImplemented
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return other * self.inverse() if isinstance(other, _NUMBER) else NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return _power(_ONE_GR, self if n >= 0 else self.inverse(), abs(n))

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        if im == 1:
            imtxt = "+i"
        elif im == -1:
            imtxt = "-i"
        elif im > 0:
            imtxt = f"+{im}*i"
        else:
            imtxt = f"-{-im}*i"
        return f"({re}{imtxt})"

    __repr__ = __str__


#: the operand types GaussianRational arithmetic accepts
_NUMBER = (int, Fraction, GaussianRational)
_ZERO_GR = GaussianRational(0)
_ONE_GR = GaussianRational(1)

#: the imaginary unit of the coefficient field
I = GaussianRational(0, 1)


def _term_text(c: GaussianRational, k: int):
    """Render c*q^k as (negative, body) with the sign factored out when c is
    purely real or purely imaginary."""
    neg = False
    if c.s == 0 and c.r < 0:
        neg, c = True, -c
    elif c.r == 0 and c.s < 0:
        neg, c = True, -c
    if k == 0:
        qtxt = ""
    elif k == 1:
        qtxt = "q"
    else:
        qtxt = f"q^{k}"
    if not qtxt:
        return neg, str(c)
    if c == 1:
        return neg, qtxt
    return neg, f"{c}*{qtxt}"


def _join_signed(parts) -> str:
    """Join (negative, body) pairs into a signed sum."""
    out = []
    for neg, body in parts:
        if not out:
            out.append(("- " if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _add_into(out: dict, terms: dict) -> None:
    """Add the sparse sum ``terms`` into ``out`` in place, dropping zero sums."""
    for k, c in terms.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            del out[k]


class _SparseSum:
    """Sums, negation, equality, powers and printing of a sparse sum
    ``terms`` (key -> nonzero value).  A subclass gives ``_coerce`` (None for
    a foreign operand), ``_new`` (wraps a normal dict it owns), ``_one``,
    ``inverse``, its product and ``_term_strings``.  ``perfbench/layers.py``
    hooks methods found in ``vars(cls)``, so a subclass rebinds the hooked
    ones it inherits."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, o.terms)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (-self) + o

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return _power(self._one(), self if n >= 0 else self.inverse(), abs(n))

    def __str__(self):
        return _join_signed(self._term_strings()) if self.terms else "0"

    __repr__ = __str__


class ScalarQ(_SparseSum):
    """A sparse Laurent polynomial in q.

    ``terms`` maps integer exponents to nonzero Gaussian-rational
    coefficients.  Instances are immutable; every operation returns a new
    canonical value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for k, c in terms.items():
                k = index(k)  # rejects 1.5 instead of truncating it to 1
                c = GaussianRational.coerce(c)
                if c:
                    canon[k] = c
        self.terms = canon

    @staticmethod
    def constant(c) -> "ScalarQ":
        return ScalarQ({0: GaussianRational.coerce(c)})

    @staticmethod
    def _coerce(x):
        """``x`` as a scalar, or None for an operand of a foreign type."""
        if isinstance(x, ScalarQ):
            return x
        return ScalarQ.constant(x) if isinstance(x, _NUMBER) else None

    @staticmethod
    def coerce(x) -> "ScalarQ":
        s = ScalarQ._coerce(x)
        if s is None:
            raise TypeError(f"cannot interpret {x!r} as a scalar")
        return s

    @staticmethod
    def _new(terms) -> "ScalarQ":
        res = object.__new__(ScalarQ)
        res.terms = terms
        return res

    def _one(self):
        return ONE

    def __hash__(self):
        # a constant hashes like its coefficient (and zero like 0), as it
        # compares equal to it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(frozenset(self.terms.items()))

    # the shared sum and power, bound here so that perfbench finds them
    __add__ = __radd__ = _SparseSum.__add__
    __pow__ = _SparseSum.__pow__

    def __mul__(self, other):
        if not isinstance(other, ScalarQ):
            return self * ScalarQ.constant(other) if isinstance(other, _NUMBER) else NotImplemented
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = ka + kb
                c = ca * cb
                s = out.get(k)
                s = c if s is None else s + c
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return self._new(out)

    __rmul__ = __mul__

    def q_shift(self, w: int) -> "ScalarQ":
        """Multiply by q^w (exponent shift)."""
        if w == 0:
            return self
        return self._new({k + w: c for k, c in self.terms.items()})

    @property
    def is_unit(self) -> bool:
        """Units of the Laurent ring are single terms c*q^k with c != 0."""
        return len(self.terms) == 1

    def inverse(self) -> "ScalarQ":
        if not self.is_unit:
            raise ValueError(f"{self} is not a unit of the scalar ring")
        ((k, c),) = self.terms.items()
        return ScalarQ({-k: c.inverse()})

    def conjugate(self) -> "ScalarQ":
        """Coefficient-wise Gaussian conjugation; q is fixed."""
        return self._new({k: c.conjugate() for k, c in self.terms.items()})

    def eval_at(self, q0) -> GaussianRational:
        """Exact evaluation at q = q0; q0 must be a unit (nonzero)."""
        q0 = GaussianRational.coerce(q0)
        if not q0:
            raise ValueError("q must be evaluated at a nonzero value")
        total = _ZERO_GR
        for k, c in self.terms.items():
            total = total + c * q0**k
        return total

    def divexact(self, other: "ScalarQ") -> "ScalarQ":
        """Exact division in the Laurent ring; raises if not divisible."""
        other = ScalarQ.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if not self:
            return ZERO
        if other.is_unit:
            return self * other.inverse()
        num = dict(self.terms)
        quo = {}
        b_top = max(other.terms)
        b_lead = other.terms[b_top]
        floor = min(self.terms) - min(other.terms)
        while num:
            e = max(num)
            t_exp = e - b_top
            if t_exp < floor:
                raise ValueError(f"{other} does not divide {self} exactly")
            t = num[e] / b_lead
            quo[t_exp] = t
            for k, c in other.terms.items():
                kk = t_exp + k
                s = num.get(kk, _ZERO_GR) - t * c
                if s:
                    num[kk] = s
                elif kk in num:
                    del num[kk]
        return ScalarQ(quo)

    def to_json(self):
        """List of [exponent, re_num, re_den, im_num, im_den], sorted by exponent."""
        out = []
        for k, c in sorted(self.terms.items()):
            re, im = c.re, c.im
            out.append([k, re.numerator, re.denominator, im.numerator, im.denominator])
        return out

    @staticmethod
    def from_json(data) -> "ScalarQ":
        terms = {}
        for k, rn, rd, imn, imd in data:
            terms[int(k)] = GaussianRational(Fraction(rn, rd), Fraction(imn, imd))
        return ScalarQ(terms)

    def _term_strings(self):
        return (_term_text(c, k) for k, c in sorted(self.terms.items()))


ZERO = ScalarQ({})
ONE = ScalarQ.constant(1)
Q = ScalarQ({1: GaussianRational(1)})


def qpow(k: int, coeff=1) -> ScalarQ:
    """The scalar coeff * q^k."""
    return ScalarQ({k: GaussianRational.coerce(coeff)})
