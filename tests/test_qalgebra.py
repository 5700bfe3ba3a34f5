import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qtriangular
from qtriangular.coeff import GaussianRational, ONE, ScalarQ, qpow
from qtriangular.qalgebra import (
    SCALARS,
    Element,
    MorphismSpec,
    QAlgebra,
    TensorElement,
    is_point,
    quantum_affine,
    random_element,
    tensor_square,
)
from qtriangular.triangular import antipode_spec, build, center_lattice, counit_spec, sigma_spec

from helpers import random_sextuple


def test_presentation_validation():
    with pytest.raises(ValueError):
        QAlgebra(["x", "y"], [False, False], [[0, 1], [1, 0]])  # not antisymmetric
    with pytest.raises(ValueError):
        QAlgebra(["x"], [False], [[1]])  # nonzero diagonal
    with pytest.raises(ValueError):
        QAlgebra(["x", "y"], [False], [[0, 1], [-1, 0]])  # length mismatch
    with pytest.raises(ValueError):
        QAlgebra(["x", "y"], [False, False], [[0, 1], [-1]])  # ragged row
    with pytest.raises(TypeError):
        QAlgebra(["x", "y"], [False, False], [[0, 1.5], [-1.5, 0]])  # not an integer


def test_monomial_mul_examples():
    A2 = quantum_affine(2)
    assert A2.M[1][0] == 1
    assert A2.monomial_mul((0, 1), (1, 0)) == (1, (1, 1))  # x2 * x1 = q x1 x2
    assert A2.monomial_mul((2, 1), (0, 0)) == (0, (2, 1))
    T2 = build(2)
    g12, g22 = T2.gen_index(1, 2), T2.gen_index(2, 2)
    e22 = tuple(1 if g == g22 else 0 for g in range(3))
    e12 = tuple(1 if g == g12 else 0 for g in range(3))
    assert T2.monomial_mul(e22, e12) == (1, (0, 1, 1))


def test_element_mul_examples():
    T2 = build(2)
    a = T2.a
    assert a(1, 1) * a(1, 2) == (a(1, 2) * a(1, 1)).scale(qpow(1))
    e = a(1, 2) + a(2, 2) ** 2
    assert e * T2.one() == e
    # by hand: a12 a11 = q^-1 a11 a12, applied twice
    assert a(1, 2) ** 2 * a(1, 1) == T2.monomial((1, 2, 0), qpow(-2))


def test_element_add_scale_examples():
    T2 = build(2)
    a12 = T2.a(1, 2)
    assert a12 + a12.scale(-1) == T2.zero()
    assert a12.scale(qpow(1)) + a12 == a12.scale(ONE + qpow(1))
    assert a12.scale(0) == T2.zero()
    assert 2 * a12 == a12 + a12


def test_mismatched_algebras_raise():
    with pytest.raises(ValueError):
        build(2).a(1, 1) * build(3).a(1, 1)
    with pytest.raises(ValueError):
        build(2).a(1, 1) + build(2, True).a(1, 1)


def test_tensor_mul_examples():
    T2 = build(2)
    one = T2.one()
    lhs = TensorElement.of(T2.a(1, 1), one) * TensorElement.of(one, T2.a(1, 2))
    assert lhs == TensorElement.of(T2.a(1, 1), T2.a(1, 2))
    s = TensorElement.of(T2.a(1, 2), T2.a(2, 2))
    assert tensor_square(T2, T2).one() * s == s
    lhs = TensorElement.of(T2.a(1, 2), one) * TensorElement.of(T2.a(1, 1), one)
    assert lhs == TensorElement.of(T2.a(1, 1) * T2.a(1, 2), one).scale(qpow(-1))


def test_is_point_examples():
    T2 = build(2)
    assert is_point([T2.gen(g) for g in range(3)], T2)
    T3 = build(3)
    deltas = [T3.one() if i == j else T3.zero() for (i, j) in T3.gen_pairs]
    assert is_point(deltas, T3)
    swapped = [T2.a(1, 2), T2.a(1, 1), T2.a(2, 2)]
    assert not is_point(swapped, T2)


def test_apply_morphism_examples():
    T2 = build(2)
    assert sigma_spec(T2).apply(T2.a(1, 2)) == T2.a(1, 2).scale(qpow(-2))
    ident = MorphismSpec(T2, [T2.gen(g) for g in range(3)])
    rng = random.Random(3)
    for _ in range(5):
        e = random_element(T2, rng)
        assert ident.apply(e) == e
    from qtriangular.triangular import rho_spec

    T3 = build(3)
    assert rho_spec(T3).apply(T3.a(1, 2)) == T3.a(2, 3)


def test_image_powers_invert_each_image_once(monkeypatch):
    U2 = build(2, True)
    powers = [U2.a(1, 1) ** k for k in (-1, -2, -3)]
    spec = MorphismSpec(U2, antipode_spec(U2).images, antimorphism=True)
    calls = []
    inverse = Element.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Element, "inverse", counted)
    assert [spec.apply(p) for p in powers] == [U2.a(1, 1) ** -k for k in (-1, -2, -3)]
    assert len(calls) == 1


def test_morphism_spec_rejects_bad_images():
    T2 = build(2)
    with pytest.raises(ValueError):
        MorphismSpec(T2, [T2.a(1, 2), T2.a(1, 1), T2.a(2, 2)])
    U2 = build(2, True)
    with pytest.raises(ValueError):
        # image of an invertible generator must be a unit
        MorphismSpec(U2, [U2.a(1, 1) + U2.one(), U2.a(1, 2), U2.a(2, 2)])


def test_units_and_inverse():
    U2 = build(2, True)
    u = (U2.a(1, 1) ** 2 * U2.a(2, 2) ** -1).scale(qpow(3, GaussianRational(0, 1)))
    assert u.is_unit
    assert u * u.inverse() == U2.one()
    assert u.inverse() * u == U2.one()
    assert not U2.a(1, 2).is_unit
    with pytest.raises(ValueError):
        U2.a(1, 2).inverse()
    T2 = build(2)
    assert not T2.a(1, 1).is_unit  # diagonal not invertible before localization
    with pytest.raises(ValueError):
        T2.monomial((-1, 0, 0))
    with pytest.raises(TypeError):
        T2.monomial((1.5, 0, 0))  # not truncated to a[1,1]


# (maker, wrap): maker(alg, mono) builds through a public, checked
# constructor, and wrap(x) is what it builds from the monomial of x
_CHECKED_MAKERS = [
    (lambda alg, m: Element(alg, {m: 1}), lambda x: x),
    (lambda alg, m: alg.monomial(m), lambda x: x),
    (lambda alg, m: Element.from_json(alg, [[list(m), ONE.to_json()]]), lambda x: x),
    (lambda alg, m: TensorElement(tensor_square(alg, alg), {(m, alg.unit_mono()): 1}),
     lambda x: TensorElement.of(x, x.algebra.one())),
    (lambda alg, m: TensorElement(tensor_square(alg, alg), {(alg.unit_mono(), m): 1}),
     lambda x: TensorElement.of(x.algebra.one(), x)),
    (lambda alg, m: TensorElement.from_json(tensor_square(alg, alg), [[list(m), list(alg.unit_mono()), ONE.to_json()]]),
     lambda x: TensorElement.of(x, x.algebra.one())),
]


@pytest.mark.parametrize("make, wrap", _CHECKED_MAKERS, ids=[
    "Element", "monomial", "Element.from_json", "TensorElement-left", "TensorElement-right", "TensorElement.from_json"])
def test_public_constructors_check_every_monomial(make, wrap):
    T2, U2 = build(2), build(2, True)
    with pytest.raises(TypeError):
        make(T2, (1.5, 0, 0))  # not a[1,1]^1.5
    with pytest.raises(ValueError, match="inadmissible monomial"):
        make(T2, (-1, 0, 0))  # a[1,1]^-1 lives in UT_q(2) alone
    for wrong_length in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            make(T2, wrong_length)
    assert make(U2, (-1, 0, 0)) == wrap(U2.a(1, 1) ** -1)


def test_public_constructors_drop_zero_coefficients():
    T2 = build(2)
    assert Element(T2, {(1, 0, 0): 0, (0, 1, 0): 2}) == T2.a(1, 2).scale(2)
    assert T2.monomial((1, 0, 0), 0) == T2.zero()
    assert TensorElement(tensor_square(T2, T2), {((1, 0, 0), (0, 0, 0)): 0}) == tensor_square(T2, T2).zero()
    with pytest.raises(ValueError):
        Element(T2, {(-1, 0, 0): 0})  # checked though its coefficient is zero
    with pytest.raises(ValueError):
        T2.a(1, 1).transport(build(3))  # the wrong length


def test_center_lattice_examples():
    assert center_lattice(build(2)).generators == ()
    assert center_lattice(build(2, True)).generators == ((1, 0, -1),)


def test_monomial_centrality_matches_kernel():
    for alg in (build(2), build(2, True)):
        kernel = {tuple(v) for v in center_lattice(alg).kernel_basis}
        for mono in [(1, 0, -1), (1, 0, 0), (0, 1, 0), (2, 0, -2), (1, 1, -1)]:
            if not alg.is_admissible(mono):
                continue
            x = alg.monomial(mono)
            central = all(x * alg.gen(g) == alg.gen(g) * x for g in range(3))
            in_kernel = all(
                sum(alg.M[a][b] * mono[b] for b in range(3)) == 0 for a in range(3)
            )
            assert central == in_kernel


def test_mul_associative_on_random_elements():
    rng = random.Random(11)
    for alg in (build(2), build(3, True)):
        for _ in range(25):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            c = random_element(alg, rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _reference_q_exponent(alg, alpha, beta):
    # the dense double loop over the strict lower triangle
    w = 0
    for a in range(alg.ngens):
        for b in range(a):
            w += alpha[a] * beta[b] * alg.M[a][b]
    return w


def test_grading_is_additive():
    rng = random.Random(5)
    algebras = [quantum_affine(4)] + [build(n, loc) for n in range(2, 9) for loc in (False, True)]
    for alg in algebras:
        N = alg.ngens

        def draw(support):
            mono = [0] * N
            for g in support:
                mono[g] = rng.choice([-3, -2, -1, 1, 2, 3]) if alg.invertible[g] else rng.randint(1, 3)
            return tuple(mono)

        zero = (0,) * N
        cases = [(zero, zero)]
        for g in range(N):
            full = draw(range(N))
            cases += [(draw([g]), full), (full, draw([g])), (draw([g]), zero)]
        for _ in range(30):
            sa, sb = rng.randint(0, N), rng.randint(0, N)
            cases.append((draw(rng.sample(range(N), sa)), draw(rng.sample(range(N), sb))))
        for alpha, beta in cases:
            w, gamma = alg.monomial_mul(alpha, beta)
            assert gamma == tuple(x + y for x, y in zip(alpha, beta))
            assert w == _reference_q_exponent(alg, alpha, beta), (alg, alpha, beta)


def test_sigma_inverse_roundtrip():
    alg = build(3, True)
    rng = random.Random(6)
    s, si = sigma_spec(alg), sigma_spec(alg, inverse=True)
    for _ in range(10):
        e = random_element(alg, rng)
        assert si.apply(s.apply(e)) == e


def test_antimorphism_extension_reverses_products():
    alg = build(2, True)
    spec = antipode_spec(alg)
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        assert spec.apply(a * b) == spec.apply(b) * spec.apply(a)


def test_counit_contractions_recover_elements():
    # the counit laws (eps (x) id)D = 1 (x) id and (id (x) eps)D = id (x) 1
    alg = build(3)
    from qtriangular.triangular import coproduct

    eps = counit_spec(alg)
    unit = SCALARS.one()
    rng = random.Random(8)
    for _ in range(6):
        e = random_element(alg, rng)
        te = coproduct(e)
        assert te.map_factors(eps, lambda x: x) == TensorElement.of(unit, e)
        assert te.map_factors(lambda x: x, eps) == TensorElement.of(e, unit)


def test_map_factors_of_zero_lands_in_the_target_square():
    from qtriangular.triangular import coproduct, delta_spec

    alg = build(2)
    zero = coproduct(alg.zero())
    eps = counit_spec(alg)
    assert zero.map_factors(eps, lambda x: x) == TensorElement.of(SCALARS.one(), alg.zero())
    assert zero.map_factors(lambda x: x, eps) == TensorElement.of(alg.zero(), SCALARS.one())
    delta = delta_spec(alg)
    lhs = zero.map_factors(delta, lambda x: x)
    assert lhs.algebra is tensor_square(tensor_square(alg, alg), alg) and not lhs
    te = coproduct(alg.a(1, 2)).map_factors(delta, lambda x: x)
    assert te + lhs == te


def test_map_factors_and_apply_do_not_copy_the_running_sum(monkeypatch):
    # each collects its result in one dict; adding each piece with
    # Element.__add__ would copy the whole running sum every time
    from qtriangular.deriv import named_derivations
    from qtriangular.structure import _convolve, _identity
    from qtriangular.triangular import antipode, coproduct, counit, delta_spec

    alg = build(4)
    x = alg.a(1, 4) + alg.a(1, 3) + alg.a(2, 4)
    te, e = coproduct(x**4), x**3
    assert len(te.terms) >= 700 and len(e.terms) > 1
    delta = delta_spec(alg)
    want = delta.apply(e)
    U2 = build(2, True)
    u = (U2.a(1, 1) + U2.a(1, 2) + U2.a(2, 2) ** -1) ** 4
    assert len(u.terms) >= 10
    # built before the count, as are the cached Δ and S specs they use
    want_conv, want_du = _convolve(antipode, _identity, u), named_derivations(U2)["D12"].apply(u)
    assert want_conv == U2.one().scale(counit(u))
    calls = []
    add = Element.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(Element, "__add__", counted)
    mapped = te.map_factors(lambda y: y, lambda y: y)
    image = delta.apply(e)
    conv = _convolve(antipode, _identity, u)
    # a fresh spec, so that its power cache is built inside the count too
    du = named_derivations(U2)["D12"].apply(u)
    assert len(calls) == 0
    monkeypatch.undo()
    assert mapped == te and image == want
    assert conv == want_conv and du == want_du


def test_apply_drops_a_term_with_a_zero_image_power(monkeypatch):
    # the counit sends a[1,2] to 0, so the whole term is dropped before
    # any product of its image powers
    alg = build(4)
    eps = counit_spec(alg)
    x = Element(alg, {(1, 1, 0, 0, 2, 0, 0, 1, 0, 0): 3})  # a[1,1]*a[1,2]*a[2,2]^2*a[3,3]
    assert x.terms and eps.images[alg.gen_index(1, 2)] == SCALARS.zero()
    calls = []
    mul = Element.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    image = eps.apply(x)
    assert len(calls) == 0
    monkeypatch.undo()
    assert image == SCALARS.zero()
    assert eps.apply(x + alg.a(1, 1) ** 2) == SCALARS.one()


def test_tensor_flip_is_involutive():
    alg = build(2)
    rng = random.Random(9)
    te = TensorElement.of(random_element(alg, rng), random_element(alg, rng))
    assert te.flip().flip() == te


def test_json_roundtrips():
    alg = build(2, True)
    rng = random.Random(10)
    e = random_element(alg, rng)
    assert Element.from_json(alg, e.to_json()) == e
    blob = alg.to_json()
    assert blob["names"][0] == "a[1,1]"
    assert blob["invertible"] == [True, False, True]
    assert blob["M"] == [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
    neg = alg.a(1, 1) ** -1
    with pytest.raises(ValueError):
        Element.from_json(build(2), neg.to_json())  # negative exponents inadmissible
    with pytest.raises(TypeError):
        Element.from_json(alg, [[[1.9, 0, 0], ONE.to_json()]])  # not truncated to 1


def test_from_json_rejects_a_repeated_key():
    T2 = build(2)
    c1, c2 = ONE.to_json(), qpow(1).to_json()
    with pytest.raises(ValueError, match="repeated monomial"):
        Element.from_json(T2, [[[1, 0, 0], c1], [[1, 0, 0], c2]])
    with pytest.raises(ValueError, match="repeated pair"):
        TensorElement.from_json(tensor_square(T2, T2), [[[1, 0, 0], [0, 0, 1], c1], [[1, 0, 0], [0, 0, 1], c2]])
    with pytest.raises(ValueError, match="repeated exponent"):
        ScalarQ.from_json([[1, 1, 1, 0, 1], [1, 2, 1, 0, 1]])
    # the same keys once each still read
    assert Element.from_json(T2, [[[1, 0, 0], c1], [[0, 0, 1], c2]]) == T2.a(1, 1) + T2.a(2, 2).scale(qpow(1))


def test_transport():
    T2, U2 = build(2), build(2, True)
    e = T2.a(1, 1) * T2.a(1, 2)
    assert e.transport(U2) == U2.a(1, 1) * U2.a(1, 2)
    with pytest.raises(ValueError):
        (U2.a(1, 1) ** -1).transport(T2)


def test_single_term_powers_match_repeated_products():
    rng = random.Random(12)
    for alg in (build(2), build(3, True), quantum_affine(3)):
        for _ in range(20):
            e = random_element(alg, rng, max_terms=1)
            for n in range(-4, 7):
                if n < 0 and not e.is_unit:
                    with pytest.raises(ValueError):
                        e**n
                    continue
                want = alg.one()
                for _ in range(abs(n)):
                    want = want * (e if n >= 0 else e.inverse())
                assert e**n == want


def test_inverse_self_check_survives_optimize():
    # a ScalarQ.inverse off by a factor of 2 must be caught by Element.inverse
    # even under -O, which strips assert statements
    code = (
        "from qtriangular.coeff import ScalarQ\n"
        "from qtriangular.triangular import build\n"
        "good = ScalarQ.inverse\n"
        "ScalarQ.inverse = lambda s: good(s) * 2\n"
        "try:\n"
        "    build(2, True).a(1, 1).inverse()\n"
        "except ArithmeticError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# Runs in a fresh interpreter, so that no cache is warm: counts the
# elements built through the checked Element.__init__, per call.
_COUNT_CHECKED = r"""
import contextlib, io, json
from qtriangular import cli
from qtriangular.qalgebra import Element
from qtriangular.structure import SUITES, negative_controls_report

built = []
init = Element.__init__

def counted(self, algebra, terms):
    built.append(type(self).__name__)
    init(self, algebra, terms)

Element.__init__ = counted
counts = {}

def count(label, run):
    del built[:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run() in (True, 0, 1), label
    counts[label] = len(built)

for name, suite in SUITES.items():
    count(name, lambda: suite(4).passed)
count("negative-controls", lambda: negative_controls_report(4).passed)
for argv in ARGVS:
    count(" ".join(argv), lambda: cli.main(argv))
print(json.dumps(counts))
"""

# the README's normalize, equal, delta, counit, antipode, star, b and autos
# commands, and one classification sweep
_README_ARGVS = [
    ["normalize", "a[2,2]*a[1,2] - q*a[1,2]*a[2,2]"],
    ["equal", "a[2,2]*a[1,2]", "q*a[1,2]*a[2,2]"],
    ["--n", "3", "delta", "a[1,3]"],
    ["counit", "a[1,1]*a[2,2]"],
    ["--localized", "antipode", "a[1,2]"],
    ["--localized", "star", "a[1,1]"],
    ["--n", "3", "b", "1", "3"],
    ["autos", "compose", "[1,1,1,1,0,0]", "[1,1,1,0,1,0]"],
    ["autos", "is-hopf", "[q,1,1,2,2,-2]"],
    ["derivations", "classify", "--bound", "3"],
]


def test_library_builds_through_the_trusted_constructor():
    # every suite of check all at n = 4, the negative controls and the
    # README's commands build only through Element._of; the classification
    # sweep builds through the checked monomial once per row, by design
    from qtriangular.structure import SUITES

    code = _COUNT_CHECKED.replace("ARGVS", repr(_README_ARGVS))
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    rows = counts.pop("derivations classify --bound 3")
    assert rows == 3 * 4**3
    assert counts == dict.fromkeys([*SUITES, "negative-controls", *map(" ".join, _README_ARGVS[:-1])], 0)


def test_map_factors_maps_no_zero(monkeypatch):
    from qtriangular.autos import delta_compatible
    from qtriangular.structure import check_bialgebra

    empty = []
    map_factors = TensorElement.map_factors

    def watch(h):
        def watched(x):
            if not x.terms:
                empty.append(x)
            return h(x)
        return watched

    monkeypatch.setattr(TensorElement, "map_factors", lambda self, f, g: map_factors(self, watch(f), watch(g)))
    rng = random.Random(5)
    for _ in range(3):
        delta_compatible(random_sextuple(rng))
    assert check_bialgebra(3).passed
    assert empty == []
    # only the empty tensor maps zeros, to land in the square of the targets
    T2 = build(2)
    image = tensor_square(T2, T2).zero().map_factors(counit_spec(T2), lambda x: x)
    assert image.algebra is tensor_square(SCALARS, T2) and not image
    assert len(empty) == 2


def test_is_point_rejects_a_mixed_target_tuple():
    # a[1,1]'s image is not a unit, but the stray target is refused first
    ut = build(2, True)
    with pytest.raises(ValueError, match="single target algebra"):
        is_point([ut.a(1, 2), build(3, True).a(1, 1), ut.a(2, 2)], ut)


def test_morphism_spec_and_is_point_share_the_image_tuple_errors():
    T2, T3 = build(2), build(3)
    bad = {
        "one image per generator required": [T2.a(1, 1), T2.a(2, 2)],
        "images must live in a single target algebra": [T2.a(1, 1), T3.a(1, 2), T2.a(2, 2)],
    }
    for message, images in bad.items():
        for check in (lambda: MorphismSpec(T2, images), lambda: is_point(images, T2)):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message


def _scale_samples():
    rng = random.Random(29)
    for n, localized in ((2, False), (2, True), (3, True)):
        alg = build(n, localized)
        e = random_element(alg, rng)
        yield e
        yield TensorElement.of(e, random_element(alg, rng))


def test_scale_by_zero_is_the_zero_of_the_same_type():
    for e in _scale_samples():
        assert e.terms
        for zero in (0, GaussianRational(0, 0), qpow(3) - qpow(3)):
            z = e.scale(zero)
            assert type(z) is type(e) and z.algebra is e.algebra
            assert z.terms == {} and z == e.algebra.zero()


def test_scale_by_a_nonzero_multiterm_scalar_keeps_every_key():
    i = qpow(0, GaussianRational(0, 1))
    for c in (ONE + qpow(1), i - qpow(2)):
        for e in _scale_samples():
            scaled = e.scale(c)
            assert type(scaled) is type(e)
            assert scaled.terms == {mono: s * c for mono, s in e.terms.items()}
