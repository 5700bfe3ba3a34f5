from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qtriangular.coeff import GaussianRational, I, ONE, Q, ScalarQ, ZERO, qpow
from qtriangular.triangular import build

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, fracs, fracs)
scalars = st.builds(ScalarQ, st.dictionaries(st.integers(-4, 4), gaussians, max_size=4))


def test_add_examples():
    assert Q + (-Q) == ZERO
    assert (ONE + Q) + qpow(-1) == ScalarQ({-1: 1, 0: 1, 1: 1})
    assert ScalarQ.constant(GaussianRational(2, 3)) + ScalarQ.constant(GaussianRational(-2, -3)) == ZERO


def test_mul_examples():
    assert Q * qpow(-1) == ONE
    assert (ONE - Q) * (ONE + Q) == ONE - Q * Q
    assert ScalarQ.constant(I) * ScalarQ.constant(I) == ScalarQ.constant(-1)


def test_conj_examples():
    assert qpow(1, I).conjugate() == qpow(1, -I)
    assert (Q * Q).conjugate() == Q * Q
    mixed = ScalarQ({0: GaussianRational(1, 1), 1: GaussianRational(1, -1)})
    assert mixed.conjugate() == ScalarQ({0: GaussianRational(1, -1), 1: GaussianRational(1, 1)})


def test_eval_examples():
    assert (Q * Q - ONE).eval_at(2) == GaussianRational(3)
    assert qpow(-1).eval_at(Fraction(1, 2)) == GaussianRational(2)
    assert ZERO.eval_at(7) == GaussianRational(0)
    with pytest.raises(ValueError):
        Q.eval_at(0)


def test_scalar_rejects_non_integer_exponents():
    for k in (1.5, 2.0, Fraction(3, 2), "1"):
        with pytest.raises(TypeError):
            ScalarQ({k: 1})
    assert ScalarQ({True: 1}).terms == {1: GaussianRational(1)}


def test_canonical_form():
    assert ScalarQ({2: 0, 1: 1}) == Q
    assert not ScalarQ({0: Fraction(1, 2) - Fraction(1, 2)})
    assert ScalarQ({1: 1, 0: 2}).terms == {1: GaussianRational(1), 0: GaussianRational(2)}


def test_units_and_inverse():
    s = qpow(-3, GaussianRational(2, 1))
    assert s.is_unit
    assert s * s.inverse() == ONE
    assert not (ONE + Q).is_unit
    with pytest.raises(ValueError):
        (ONE + Q).inverse()
    assert Q**-2 == qpow(-2)


def test_gaussian_arithmetic():
    x = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert x * x.inverse() == GaussianRational(1)
    assert (x / x) == GaussianRational(1)
    assert x**-2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_divexact():
    a = (ONE + Q) * (ONE - Q) * qpow(-2, Fraction(3, 4))
    assert a.divexact(ONE + Q) == (ONE - Q) * qpow(-2, Fraction(3, 4))
    assert a.divexact(qpow(-2, Fraction(3, 4))) == (ONE + Q) * (ONE - Q)
    assert ZERO.divexact(ONE + Q) == ZERO
    with pytest.raises(ValueError):
        (ONE + Q).divexact(ONE + Q * Q)
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(ZERO)


def test_gaussian_text():
    G = GaussianRational
    cases = [
        (G(Fraction(3, 2)), "3/2"),
        (G(0, 1), "i"),
        (G(0, -1), "-i"),
        (G(0, Fraction(2, 3)), "2/3*i"),
        (G(1, 1), "(1+i)"),
        (G(Fraction(1, 2), 2), "(1/2+2*i)"),
        (G(-1, -3), "(-1-3*i)"),
    ]
    for g, text in cases:
        assert str(g) == text


def test_json_roundtrip():
    s = ScalarQ({-2: GaussianRational(Fraction(1, 3), 2), 5: GaussianRational(-1)})
    assert ScalarQ.from_json(s.to_json()) == s


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_conjugation_is_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars, scalars)
def test_eval_is_ring_homomorphism(a, b):
    q0 = GaussianRational(Fraction(3, 2))
    assert (a * b).eval_at(q0) == a.eval_at(q0) * b.eval_at(q0)
    assert (a + b).eval_at(q0) == a.eval_at(q0) + b.eval_at(q0)


@given(scalars, scalars)
def test_divexact_inverts_multiplication(a, b):
    if b:
        assert (a * b).divexact(b) == a


# -- the integer representation against a reference pair of Fractions --------

# denominators may be negative, as in GaussianRational(Fraction(1, -3), 2)
signed_fracs = st.builds(
    Fraction,
    st.integers(-30, 30),
    st.integers(-12, 12).filter(bool),
)
parts = st.one_of(st.integers(-9, 9), signed_fracs)
# zero, purely real, purely imaginary and mixed values
gaussian_parts = st.one_of(
    st.just((0, 0)),
    st.tuples(parts, st.just(0)),
    st.tuples(st.just(0), parts),
    st.tuples(parts, parts),
)


def _ref(x: GaussianRational):
    return (x.re, x.im)


def _check_normal(x: GaussianRational):
    assert isinstance(x.r, int) and isinstance(x.s, int) and isinstance(x.d, int)
    assert x.d > 0
    assert gcd(x.r, x.s, x.d) == 1
    assert x.re == Fraction(x.r, x.d) and x.im == Fraction(x.s, x.d)


def _ref_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    imtxt = {1: "+i", -1: "-i"}.get(im, f"+{im}*i" if im > 0 else f"-{-im}*i")
    return f"({re}{imtxt})"


_A11 = build(2).a(1, 1)


@given(gaussian_parts, gaussian_parts)
def test_gaussian_matches_fraction_reference(p, q):
    (a, b), (c, d) = (tuple(Fraction(v) for v in p), tuple(Fraction(v) for v in q))
    x, y = GaussianRational(*p), GaussianRational(*q)
    _check_normal(x)
    _check_normal(y)
    assert _ref(x) == (a, b)
    results = {
        "add": (x + y, (a + c, b + d)),
        "sub": (x - y, (a - c, b - d)),
        "mul": (x * y, (a * c - b * d, a * d + b * c)),
        "neg": (-x, (-a, -b)),
        "conj": (x.conjugate(), (a, -b)),
    }
    norm = c * c + d * d
    if norm:
        results["div"] = (x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm))
        results["inv"] = (y.inverse(), (c / norm, -d / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    for name, (got, want) in results.items():
        _check_normal(got)
        assert _ref(got) == want, name
        assert got == GaussianRational(*want), name
        assert str(got) == _ref_str(*want), name
        assert hash(got) == (hash(want[0]) if want[1] == 0 else hash(want)), name
    assert (x == y) == ((a, b) == (c, d))
    assert bool(x) == bool(a or b)
    # a ScalarQ operand is left to ScalarQ's reflected methods, in either order
    sy = ScalarQ.constant(y)
    for got, want in ((x + sy, x + y), (sy + x, x + y), (x - sy, x - y), (sy - x, y - x),
                      (x * sy, x * y), (sy * x, x * y)):
        assert isinstance(got, ScalarQ) and got == want and hash(got) == hash(want)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__"):
        assert getattr(x, op)(sy) is NotImplemented, op
        assert getattr(x, op)("x") is NotImplemented, op
    with pytest.raises(TypeError):
        x + "x"
    # an Element operand is left to Element's reflected methods, in either order
    e = _A11 + x
    ey = _A11.algebra.one().scale(sy)
    for got, want in ((sy + e, ey + e), (e + sy, e + ey), (sy - e, ey - e), (e - sy, e - ey),
                      (sy * e, e.scale(sy)), (e * sy, e.scale(sy))):
        assert got.terms == want.terms
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(sy, op)(e) is NotImplemented, op
    # a foreign operand gets NotImplemented from Element too
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(e, op)("x") is NotImplemented, op
    with pytest.raises(TypeError):
        "x" - e
    with pytest.raises(TypeError):
        sy + "x"
    if b == 0:
        assert x == a and hash(x) == hash(a)
        if a.denominator == 1:
            assert x == int(a) and hash(x) == hash(int(a))
    else:
        assert x != a


@given(st.dictionaries(st.integers(-4, 4), gaussian_parts, max_size=4))
def test_scalar_json_matches_fraction_reference(raw):
    s = ScalarQ({k: GaussianRational(*v) for k, v in raw.items()})
    want = []
    for k, (re, im) in sorted(raw.items()):
        re, im = Fraction(re), Fraction(im)
        if re or im:
            want.append([k, re.numerator, re.denominator, im.numerator, im.denominator])
    assert s.to_json() == want
    back = ScalarQ.from_json(want)
    assert back == s and hash(back) == hash(s)
    for c in back.terms.values():
        _check_normal(c)


def test_negative_denominator_inputs():
    x = GaussianRational(Fraction(1, -3), 2)
    assert (x.r, x.s, x.d) == (-1, 6, 3)
    assert str(x) == "(-1/3+2*i)"
    assert GaussianRational(Fraction(-2, 6), Fraction(-4, -2)) == x
    assert x * x.inverse() == 1


# -- the hash contract ---------------------------------------------------------

numbers = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(GaussianRational, st.integers(-3, 3), st.integers(-1, 1)),
)
plain_or_constant = st.one_of(numbers, numbers.map(ScalarQ.constant))


@given(plain_or_constant, plain_or_constant)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    # mixed arithmetic works in both orders and keeps the contract
    for left, right in ((a + b, b + a), (a * b, b * a), (a - b, -(b - a))):
        assert left == right and hash(left) == hash(right)
    # and with an Element, whose constants compare equal to the scalars
    one = _A11.algebra.one()
    for left, right in ((a + _A11, _A11 + a), (a * _A11, _A11 * a), (a - _A11, -(_A11 - a)),
                        (a + one, one + a)):
        assert left == right
    assert (a * one == a) and (a * one == b) == (a == b)


def test_constant_scalars_hash_like_numbers():
    assert ScalarQ.constant(1) in {1}
    assert ZERO in {0}
    assert ScalarQ.constant(Fraction(1, 2)) in {Fraction(1, 2)}
    assert ScalarQ.constant(I) in {I}
    assert len({ScalarQ.constant(2), 2, Fraction(2), GaussianRational(2)}) == 1


@pytest.mark.parametrize("x", [7, 0, -1, True])
def test_coerce_int_matches_constructor(x):
    g = GaussianRational.coerce(x)
    assert g == GaussianRational(x) and hash(g) == hash(GaussianRational(x))
    assert (g.r, g.s, g.d) == (int(x), 0, 1)
    assert type(g.r) is int
    assert str(g) == str(GaussianRational(x))
    assert ScalarQ.constant(x).to_json() == ScalarQ({0: GaussianRational(x)}).to_json()


# -- powers ----------------------------------------------------------------------


@given(gaussians, st.integers(-6, 9))
def test_gaussian_pow_matches_repeated_product(x, n):
    if n < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    want = GaussianRational(1)
    for _ in range(abs(n)):
        want = want * x
    if n < 0:
        want = want.inverse()
    assert x**n == want


@given(scalars, st.integers(0, 6))
def test_scalar_pow_matches_repeated_product(s, n):
    want = ONE
    for _ in range(n):
        want = want * s
    assert s**n == want
    if s.is_unit:
        assert s**-n == want.inverse()


def test_large_exponents():
    assert Q**1000000 == qpow(1000000)
    assert (Q + ONE) ** 64 == ((Q + ONE) ** 32) * ((Q + ONE) ** 32)
    assert GaussianRational(1, 1) ** 4000 == GaussianRational(-4) ** 1000
    assert qpow(3, GaussianRational(0, 2)) ** -5001 == qpow(-15003, GaussianRational(0, 2) ** -5001)
