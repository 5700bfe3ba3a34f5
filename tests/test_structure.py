import pytest

from qtriangular.qalgebra import MorphismSpec, TensorElement
from qtriangular.structure import (
    CheckReport,
    SUITES,
    _coassociativity,
    _m_bb,
    _m_diag,
    _m_offdiag,
    check_bialgebra,
    negative_controls,
    negative_controls_report,
)
from qtriangular.triangular import TriangularAlgebra, build, delta_spec


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_mutated_lemma_table_fails_alike_by_degree_and_by_products(n, monkeypatch):
    by_degree = _control("commutation-lemmas", n)
    # without a grading every lemma line is built from its products
    monkeypatch.setattr(TriangularAlgebra, "degree", lambda self, mono: None)
    by_products = _control("commutation-lemmas", n)
    assert not by_degree.passed
    assert by_degree.witness[0] == "a[1,1]b[1,2] = q^2 b[1,2]a[1,1]"
    assert by_degree.line() == by_products.line()


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
