"""Shared samplers for the randomized tests, and a counter of ``Element``
products and sums."""

import random
from fractions import Fraction

from qtriangular.coeff import GaussianRational, I, ScalarQ, qpow
from qtriangular.autos import Sextuple
from qtriangular.qalgebra import Element

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
    """A list that records every ``Element`` product and sum from now on."""
    calls = []
    for name in ("__mul__", "__add__"):
        original = getattr(Element, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Element, name, counted)
    return calls
