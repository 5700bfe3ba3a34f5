import random

import pytest

from qtriangular import structure
from qtriangular.coeff import qpow
from qtriangular.qalgebra import MorphismSpec, QAlgebra, TensorElement
from qtriangular.structure import (
    CheckReport,
    SUITES,
    _coassociativity,
    _lemma_lines,
    _m_bb,
    _m_diag,
    _m_offdiag,
    _run,
    _star_lines,
    _with_image,
    check_bialgebra,
    check_commutation_lemmas,
    negative_controls,
    negative_controls_report,
)
from qtriangular.triangular import TriangularAlgebra, _sgn, build, delta_spec, sigma_spec, star_spec


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("n", [2, 3])
def test_suites_pass(name, n):
    rep = SUITES[name](n)
    assert rep.passed, rep.line()
    assert rep.witness is None
    assert rep.n == n


def test_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("x", 2, True, ("label", "l", "r"))
    with pytest.raises(ValueError):
        CheckReport("x", 2, False, None)
    rep = CheckReport("x", 2, False, ("label", "l", "r"))
    assert "FAIL" in rep.line() and "label" in rep.line()


def test_m_tables_spot_values():
    assert _m_diag(2, 1, 3) == 2
    assert _m_diag(1, 1, 2) == 1
    assert _m_diag(4, 2, 3) == 0
    assert _m_offdiag(1, 2, 1, 2) == 2
    assert _m_offdiag(1, 2, 2, 3) == 1  # l = i
    assert _m_offdiag(3, 4, 1, 2) == 0  # k > j
    assert _m_bb(2, 3, 1, 4) == 2  # i<k<l<j
    assert _m_bb(1, 2, 1, 3) == 1  # k=i<l<j
    assert _m_bb(1, 3, 1, 2) == -1  # i=k<j<l
    assert _m_bb(1, 4, 2, 3) == -2  # k<i<j<l
    assert _m_bb(1, 2, 1, 2) == 0


def _case_m_diag(k, i, j):
    # 0 outside [i, j]; 1 on the endpoints; 2 strictly inside
    if k < i or k > j:
        return 0
    if k == i or k == j:
        return 1
    return 2


def _case_m_offdiag(k, l, i, j):
    if l < i or k > j:
        return 0
    if l == i or k == j:
        return 1
    return 2


def _case_m_bb(k, l, i, j):
    if (k == i and l < j) or (i < k and l == j):
        return 1
    if i < k and l < j:
        return 2
    if (k == i and j < l) or (k < i and l == j):
        return -1
    if k < i and j < l:
        return -2
    return 0


def test_closed_form_tables_match_the_case_oracles():
    # the case tables by order of indices are the oracle for the closed
    # forms, at every index the suite reads (k any, k < l, i < j), n = 2..9
    count = 0
    for n in range(2, 10):
        offdiag = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for (i, j) in offdiag:
            for k in range(1, n + 1):
                assert _m_diag(k, i, j) == _case_m_diag(k, i, j), (k, i, j)
            for (k, l) in offdiag:
                assert _m_offdiag(k, l, i, j) == _case_m_offdiag(k, l, i, j), (k, l, i, j)
                assert _m_bb(k, l, i, j) == _case_m_bb(k, l, i, j), (k, l, i, j)
                count += 1
    assert count == sum((n * (n - 1) // 2) ** 2 for n in range(2, 10))


# Each closed form with its signs misplaced, and the first table line it
# fails.  The _m_bb mutant agrees with _m_bb when (k, l) = (i, j), and
# (1, 2) is the only off-diagonal pair at n = 2, so it passes there: a run
# at n = 2 does not cover every n, while n = 4 holds every order type.
TABLE_MUTANTS = {
    "m_diag": (
        "a[1,1]b[1,2] = q^-1 b[1,2]a[1,1]",
        (lambda k, i, j: _sgn(k - i) + _sgn(k - j), _m_offdiag, _m_bb),
    ),
    "m_offdiag": (
        "a[1,2]b[1,2] = q^0 b[1,2]s(a[1,2])",
        (_m_diag, lambda k, l, i, j: _sgn(l - j) - _sgn(k - i), _m_bb),
    ),
    "m_bb": (
        "b[1,2]s(b[1,3]) = q^1 b[1,3]s(b[1,2])",
        (_m_diag, _m_offdiag, lambda k, l, i, j: _sgn(l - j) - _sgn(k - i)),
    ),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("table", sorted(TABLE_MUTANTS))
def test_closed_form_mutants_fail_at_pinned_lines(table, n):
    label, tables = TABLE_MUTANTS[table]
    rep = _run("commutation-lemmas", n, _lemma_lines(build(n), *tables))
    if n == 2 and table == "m_bb":
        assert rep.passed
    else:
        assert not rep.passed
        assert rep.witness[0] == label


def _control(name, n=2):
    return next(rep for rep in negative_controls(n) if rep.name == name)


def test_mutated_coproduct_fails():
    rep = _control("bialgebra")
    assert not rep.passed
    assert rep.witness is not None
    label, lhs, rhs = rep.witness
    assert label == "T left counit law on a[1,2]"
    assert lhs != rhs


@pytest.mark.parametrize("n", [2, 3, 5])
def test_coassociativity_check_can_fail(n):
    # a[1,2] |-> a[1,1] (x) a[1,2] + a[1,2] (x) a[1,2] is not coassociative
    alg = build(n)
    delta = delta_spec(alg)
    images = list(delta.images)
    images[alg.gen_index(1, 2)] = TensorElement.of(alg.a(1, 1) + alg.a(1, 2), alg.a(1, 2))
    bad = MorphismSpec(alg, images, check=False)
    lhs, rhs = _coassociativity(bad, bad.apply(alg.a(1, 2)))
    assert lhs != rhs
    lhs, rhs = _coassociativity(delta, delta.apply(alg.a(1, 2)))
    assert lhs == rhs


def test_mutated_antipode_fails_at_offdiagonal():
    rep = _control("antipode")
    assert not rep.passed
    assert "b[1,k]a[k,2]" in rep.witness[0]
    assert rep.witness[1] != "0"


def test_mutated_point_product_fails():
    rep = _control("point-product")
    assert not rep.passed
    assert rep.witness is not None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mutated_star_fails_at_a11(n):
    rep = _control("star", n)
    assert not rep.passed
    assert rep.witness[0] == "D(*) = (*(x)*)D on a[1,1]"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_star_mutants_fail_at_pinned_lines(n):
    ut = build(n, True)
    spec = star_spec(ut)
    a11, a12 = ut.gen_index(1, 1), ut.gen_index(1, 2)
    mutants = {
        # these two pass every generator line, since the generators' images
        # have real coefficients: only the kind lines catch them
        "* is antilinear": MorphismSpec(ut, spec.images, antimorphism=True, check=False),
        "* is an antimorphism": MorphismSpec(ut, spec.images, antilinear=True, check=False),
        "D(*) = (*(x)*)D on a[1,2]": _with_image(spec, a12, spec.images[a12] + spec.images[a11]),
        "** = id on a[1,2]": _with_image(spec, a12, spec.images[a12].scale(qpow(1))),
    }
    for label, mutant in mutants.items():
        rep = _run("star", n, _star_lines(ut, mutant))
        assert not rep.passed
        assert rep.witness[0] == label


def test_no_suite_draws_random_numbers(monkeypatch):
    def no_random(*args, **kwargs):
        raise AssertionError("a suite drew random numbers")

    monkeypatch.setattr(random, "Random", no_random)
    for name, fn in SUITES.items():
        assert fn(3).passed, name
    assert all(not rep.passed for rep in negative_controls(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_mutated_lemma_table_fails_alike_by_degree_and_by_products(n, monkeypatch):
    by_torus = _control("commutation-lemmas", n)
    # the finer exponent grading decides the same lines
    monkeypatch.setattr(TriangularAlgebra, "degree", QAlgebra.degree)
    by_exponents = _control("commutation-lemmas", n)
    monkeypatch.undo()
    # and so do products alone
    monkeypatch.setattr(structure, "q_relation", lambda y, z, m, dy, dz: (y * z, (z * y).scale(qpow(m))))
    by_products = _control("commutation-lemmas", n)
    assert not by_torus.passed
    assert by_torus.witness[0] == "a[1,1]b[1,2] = q^2 b[1,2]a[1,1]"
    assert by_torus.line() == by_exponents.line() == by_products.line()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sigma_mutant_fails_the_lemma_suite_at_its_twist_line(n, monkeypatch):
    # every table line relies on the σ lines, so a σ that scales a[1,2]
    # wrongly must fail before any table line
    spec = sigma_spec(build(n))
    a12 = spec.source.gen_index(1, 2)
    mutant = _with_image(spec, a12, spec.images[a12].scale(qpow(1)))
    monkeypatch.setattr(structure, "sigma_spec", lambda alg: mutant)
    rep = check_commutation_lemmas(n)
    assert not rep.passed
    assert rep.witness[0] == "s(a[1,2]) = q^-2 a[1,2]"


def test_lemma_suite_computes_each_degree_once(monkeypatch):
    calls = []
    degree = structure.term_degrees

    def counted(e):
        calls.append(e)
        return degree(e)

    monkeypatch.setattr(structure, "term_degrees", counted)
    assert check_commutation_lemmas(8).passed
    assert len(calls) == 2 * 8 * 9 // 2


CONTROL_LINES_N2 = [
    "bialgebra[n=2]: FAIL at T left counit law on a[1,2]: lhs = 0, rhs = 1 (x) a[1,2]",
    "antipode[n=2]: FAIL at T sum b[1,k]a[k,2]: lhs = 2*q*a[1,2]*a[2,2], rhs = 0",
    "point-product[n=2]: FAIL at B is a point: lhs = False, rhs = True",
    "star[n=2]: FAIL at D(*) = (*(x)*)D on a[1,1]: "
    "lhs = q*a[2,2]^-1 (x) a[2,2]^-1, rhs = q^2*a[2,2]^-1 (x) a[2,2]^-1",
    "commutation-lemmas[n=2]: FAIL at a[1,1]b[1,2] = q^2 b[1,2]a[1,1]: "
    "lhs = - q*a[1,1]*a[1,2], rhs = - q^2*a[1,1]*a[1,2]",
    "s-squared[n=2]: FAIL at S^2 on a[1,2]: lhs = q^2*a[1,2], rhs = a[1,2]",
    "morphism-symmetries[n=2]: FAIL at T (s(x)s)D = Ds on a[1,1]: "
    "lhs = q^2*a[1,1] (x) a[1,1], rhs = q*a[1,1] (x) a[1,1]",
]

CONTROL_LABELS = [
    "T left counit law on a[1,2]",
    "T sum b[1,k]a[k,2]",
    "B is a point",
    "D(*) = (*(x)*)D on a[1,1]",
    "a[1,1]b[1,2] = q^2 b[1,2]a[1,1]",
    "S^2 on a[1,2]",
    "T (s(x)s)D = Ds on a[1,1]",
]


def test_negative_control_witnesses_are_pinned():
    assert [rep.line() for rep in negative_controls(2)] == CONTROL_LINES_N2
    for n in (2, 3, 4, 5, 6, 7):
        assert [rep.witness[0] for rep in negative_controls(n)] == CONTROL_LABELS


def test_negative_controls_all_fail():
    reports = negative_controls(2)
    assert len(reports) == 7
    for rep in reports:
        assert not rep.passed
        assert rep.witness
    assert negative_controls_report(2).passed


def test_suites_are_deterministic():
    a = check_bialgebra(3)
    b = check_bialgebra(3)
    assert a == b
