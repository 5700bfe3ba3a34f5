import pytest

from qtriangular.qalgebra import MorphismSpec, TensorElement
from qtriangular.structure import (
    CheckReport,
    SUITES,
    _coassociativity,
    _m_bb,
    _m_diag,
    _m_offdiag,
    check_antipode,
    check_bialgebra,
    check_point_product,
    check_star,
    negative_controls,
    negative_controls_report,
)
from qtriangular.triangular import build, delta_spec


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


def test_mutated_coproduct_fails():
    rep = check_bialgebra(2, _mutate_a12_grouplike=True)
    assert not rep.passed
    assert rep.witness is not None
    label, lhs, rhs = rep.witness
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
    rep = check_antipode(2, _flip_b12_sign=True)
    assert not rep.passed
    assert "b[1,k]a[k,2]" in rep.witness[0]
    assert rep.witness[1] != "0"


def test_mutated_point_product_fails():
    rep = check_point_product(2, _mutate_swap_images=True)
    assert not rep.passed
    assert rep.witness is not None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mutated_star_fails_at_a11(n):
    rep = check_star(n, _mutate_a11_scale=True)
    assert not rep.passed
    assert rep.witness[0] == "D(*) = (*(x)*)D on a[1,1]"


def test_negative_controls_all_fail():
    reports = negative_controls(2)
    assert len(reports) == 4
    for rep in reports:
        assert not rep.passed
        assert rep.witness
    assert negative_controls_report(2).passed


def test_suites_are_deterministic():
    a = check_bialgebra(3)
    b = check_bialgebra(3)
    assert a == b
