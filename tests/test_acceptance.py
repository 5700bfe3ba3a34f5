"""Acceptance criteria, one test per criterion.

Every identity is exact (coefficients in Q(i), formal q, zero tolerance);
each test prints a PASS line with its runtime and asserts the stated bound.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from helpers import random_hopf_sextuple, random_sextuple

from qtriangular.autos import (
    delta_compatible,
    g_compose,
    g_decompose,
    g_inverse,
    g_to_endo,
    is_hopf_auto,
    rho_conjugate,
)
from qtriangular.cli import format_element, parse
from qtriangular.deriv import (
    classify_T2,
    dertypes_expected,
    h1_membership_T2,
    is_derivation,
    monomial_derivation,
    utq2_derivation_table,
)
from qtriangular.qalgebra import center_lattice, random_element
from qtriangular.structure import (
    check_antipode,
    check_bialgebra,
    check_commutation_lemmas,
    check_s_squared,
    check_star,
    negative_controls,
)
from qtriangular.triangular import antipode_spec, b_element, b_recurrence, build, counit, star, antipode
from qtriangular.coeff import GaussianRational


@contextmanager
def criterion(num, label, limit):
    t0 = time.perf_counter()
    holder = {}
    yield holder
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:2d} ({label}): PASS ({dt:.2f}s, limit {limit}s)")
    assert dt < limit, f"criterion {num} exceeded its time bound: {dt:.2f}s >= {limit}s"


def test_criterion_01_bialgebra_suite():
    for n in (2, 3, 4):
        with criterion(1, f"bialgebra n={n}", 5):
            rep = check_bialgebra(n)
            assert rep.passed, rep.line()


def test_criterion_02_antipode_suite():
    for n in (2, 3, 4):
        with criterion(2, f"antipode n={n}", 10):
            rep = check_antipode(n)
            assert rep.passed, rep.line()


def test_criterion_03_antipode_squared():
    for n in (2, 3, 4):
        with criterion(3, f"S^2 = id n={n}", 10):
            rep = check_s_squared(n)
            assert rep.passed, rep.line()


def test_criterion_04_commutation_tables():
    for n in (2, 3, 4, 5):
        with criterion(4, f"commutation tables n={n}", 60):
            rep = check_commutation_lemmas(n)
            assert rep.passed, rep.line()


def test_criterion_05_b_recurrences():
    with criterion(5, "b recurrences n<=5", 30):
        for n in (2, 3, 4, 5):
            ut = build(n, True)
            for (i, j) in ut.gen_pairs:
                if i < j:
                    b = b_element(i, j, ut)
                    assert b_recurrence(i, j, ut, "left") == b
                    assert b_recurrence(i, j, ut, "right") == b


def test_criterion_06_centers():
    with criterion(6, "central monomials", 1):
        for n in (2, 3, 4, 5):
            assert center_lattice(build(n)).generators == ()
        assert center_lattice(build(2, True)).generators == ((1, 0, -1),)


def test_criterion_07_derivation_classification():
    with criterion(7, "derivation classification + H1 membership", 30):
        rows = classify_T2(3)
        assert len(rows) == 3 * 64
        assert all(verdict == dertypes_expected(st, nu) for st, nu, verdict in rows)
        five = [
            monomial_derivation((1, 1), (1, 0, 0)),
            monomial_derivation((1, 2), (0, 1, 0)),
            monomial_derivation((2, 2), (0, 0, 1)),
            monomial_derivation((1, 1), (0, 0, 1)),
            monomial_derivation((2, 2), (1, 0, 0)),
        ]
        assert all(is_derivation(d) for d in five)
        rep = h1_membership_T2(3)
        assert rep.passed, rep.line()


def test_criterion_08_derivation_table():
    with criterion(8, "localized derivation table", 5):
        rep = utq2_derivation_table()
        assert rep.passed, rep.line()


def test_criterion_09_sextuple_group():
    with criterion(9, "sextuple group laws + composition oracle", 10):
        from qtriangular.autos import Sextuple

        rng = random.Random(2024)
        ident = Sextuple.identity()
        for _ in range(1000):
            a, b, c = (random_sextuple(rng) for _ in range(3))
            assert g_compose(g_compose(a, b), c) == g_compose(a, g_compose(b, c))
            assert g_compose(a, g_inverse(a)) == ident
            assert g_compose(g_inverse(a), a) == ident
            assert rho_conjugate(g_compose(a, b)) == g_compose(rho_conjugate(a), rho_conjugate(b))
            assert rho_conjugate(rho_conjugate(a)) == a
            g1, g2, g3 = g_decompose(a)
            assert g_compose(g1, g_compose(g2, g3)) == a
        ut = build(2, True)
        gens = [ut.gen(g) for g in range(3)]
        for _ in range(1000):
            a, b = random_sextuple(rng, span=2), random_sextuple(rng, span=2)
            outer, inner = g_to_endo(a), g_to_endo(b)
            comp = g_to_endo(g_compose(a, b))
            for g in gens:
                assert outer.apply(inner.apply(g)) == comp.apply(g)


def test_criterion_10_hopf_subgroup():
    with criterion(10, "Hopf-automorphism subgroup", 10):
        rng = random.Random(2025)
        for k in range(500):
            s = random_hopf_sextuple(rng, span=2) if k % 2 else random_sextuple(rng, span=2)
            assert is_hopf_auto(s) == delta_compatible(s)
        for _ in range(100):
            h1, h2 = random_hopf_sextuple(rng), random_hopf_sextuple(rng)
            assert is_hopf_auto(g_compose(h1, h2))
            assert is_hopf_auto(g_inverse(h1))


def test_criterion_11_star_structure():
    with criterion(11, "Hopf *-structure, 200 random elements", 10):
        # six random samples per seed: 20 * 6 + 14 * 6 = 204 elements
        for n, seeds in ((2, 20), (3, 14)):
            for s in range(seeds):
                rep = check_star(n, seed=s)
                assert rep.passed, rep.line()


def test_criterion_12_negative_controls():
    with criterion(12, "negative controls", 10):
        reports = negative_controls(2)
        assert len(reports) == 7
        for rep in reports:
            assert not rep.passed
            assert rep.witness is not None
            label, lhs, rhs = rep.witness
            assert label and lhs != rhs


def test_criterion_13_parser_roundtrips():
    with criterion(13, "1000 parser round-trips", 5):
        count = 0
        for n in (2, 3, 4):
            for localized in (False, True):
                alg = build(n, localized)
                rng = random.Random(31337 + 10 * n + localized)
                for _ in range(167):
                    e = random_element(alg, rng)
                    assert parse(format_element(e), alg) == e
                    count += 1
        assert count >= 1000


def _eval_terms(e, q0):
    out = {}
    for mono, c in e.terms.items():
        v = c.eval_at(q0)
        if v:
            out[mono] = v
    return out


def test_criterion_14_numeric_spot_check():
    with criterion(14, "numeric spot check at q=2", 1):
        ut = build(3, True)
        spec = antipode_spec(ut)
        q0 = GaussianRational(2)
        for (i, j) in ut.gen_pairs:
            target = ut.one().scale(counit(ut.a(i, j)))
            left = ut.zero()
            right = ut.zero()
            for k in range(i, j + 1):
                left = left + spec.apply(ut.a(i, k)) * ut.a(k, j)
                right = right + ut.a(i, k) * spec.apply(ut.a(k, j))
            assert _eval_terms(left, q0) == _eval_terms(target, q0)
            assert _eval_terms(right, q0) == _eval_terms(target, q0)
