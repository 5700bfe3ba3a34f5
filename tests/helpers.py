"""Shared samplers for the randomized tests, a counter of ``Element``
products and sums, and the left-to-right reference for ``MorphismSpec.apply``."""

import random
from fractions import Fraction

from qtriangular.coeff import GaussianRational, I, ScalarQ, _add_into, qpow
from qtriangular.autos import Sextuple
from qtriangular.qalgebra import Element, TensorElement

UNIT_POOL = [
    ScalarQ.constant(1),
    ScalarQ.constant(-1),
    ScalarQ.constant(2),
    ScalarQ.constant(Fraction(1, 2)),
    ScalarQ.constant(3),
    ScalarQ.constant(I),
    qpow(1),
    qpow(-1, 2),
    qpow(2, Fraction(-2, 3)),
    qpow(-2, GaussianRational(1, 1)),
]


def random_unit(rng: random.Random) -> ScalarQ:
    return rng.choice(UNIT_POOL)


def random_sextuple(rng: random.Random, span: int = 3) -> Sextuple:
    return Sextuple(
        random_unit(rng),
        random_unit(rng),
        random_unit(rng),
        rng.randint(-span, span),
        rng.randint(-span, span),
        rng.randint(-span, span),
    )


def random_hopf_sextuple(rng: random.Random, span: int = 3) -> Sextuple:
    one = ScalarQ.constant(1)
    j = rng.randint(-span, span)
    return Sextuple(random_unit(rng), one, one, j, j, -j)


def count_element_ops(monkeypatch):
    """A list that records every ``Element`` product (a ``TensorElement``'s
    too, which binds its own) and sum from now on."""
    calls = []
    for cls, name in ((Element, "__mul__"), (TensorElement, "__mul__"), (Element, "__add__")):
        original = getattr(cls, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(cls, name, counted)
    return calls


def left_to_right_apply(spec, e):
    """``spec.apply(e)`` by the plain loop: each term's image powers, taken
    from the spec's cache in product order, multiplied left to right after
    the coefficient, and the terms summed.  A zero power kills its term
    before any later power is computed.  For a ``DerivationSpec`` the
    powers are Leibniz pairs, whose second half is the derivative."""
    order = range(spec.source.ngens)
    if spec.antimorphism:
        order = reversed(order)
    order = tuple(order)
    out = spec.target.zero()
    for mono, c in e.terms.items():
        powers = []
        for g in order:
            if mono[g]:
                p = spec._image_power(g, mono[g])
                if not p:
                    break
                powers.append(p)
        else:
            if spec.antilinear:
                c = c.conjugate()
            acc = (powers[0] if powers else spec._unit).scale(c)
            for p in powers[1:]:
                acc = acc * p
            _add_into(out.terms, (acc[1] if isinstance(acc, tuple) else acc).terms)
    return out
