"""Full desk-scale verification of every identity, one test per criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a report.
All comparisons are exact integer equalities at the stated caps.
"""

from types import SimpleNamespace

import pytest

from macmahon import acceptance
from macmahon.motivic import MotivicClass
from macmahon.series import FactorProduct


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def test_criterion_1_macmahon_baseline():
    rep = acceptance.check_macmahon_baseline(order=8)
    assert rep["enumerated"] == rep["expanded"] == [1, 1, 3, 6, 13, 24, 48, 86, 160]
    _report("1 macmahon baseline s<=8", rep["match"])


def test_criterion_2_weighted_identity():
    rep = acceptance.check_vuletic(s_order=6, q_order=6, t_order=6)
    assert rep["num_partitions"] == 96
    _report("2 weighted identity s,q,t<=6", rep["match"])


def test_criterion_3_limit_class_equals_t0_weight():
    rep = acceptance.check_limit_class(max_weight=5, l_order=20)
    assert rep["num_partitions"] == 48
    _report("3 limit class = t0 weight, |pi|<=5, L<=20", rep["match"])


def test_criterion_4_refined_macmahon():
    rep = acceptance.check_refined_macmahon()
    ranks = [c["r"] for c in rep["cases"]]
    assert ranks == [1, 2, 3, "inf"]
    _report("4 refined identity r in {1,2,3} and limit", rep["match"])


def test_criterion_5_limit_class_series():
    rep = acceptance.check_limit_series()
    assert (rep["t_order"], rep["l_order"]) == (6, 10)
    _report("5 limit class series t<=6, L<=10", rep["match"])


def test_criterion_6_attracting_cell_identity():
    rep = acceptance.check_bb()
    assert len(rep["cases"]) == 18
    _report("6 attracting-cell identity r<=3, n<=5", rep["match"])


def test_criterion_7_tangent_dimension_and_alpha_stability():
    rep = acceptance.check_tangent(r_max=3, n_max=5)
    _report("7 tangent dimension 2rn and d+ closed form", rep["match"])


def test_criterion_8_finite_field_oracle():
    rep = acceptance.check_oracle()
    assert rep["grids_checked"] > 0 and rep["chains_checked"] > 0
    assert rep["h_variants"] > 0
    _report("8 finite-field oracle |pi|<=4, chains mu1<=3, p in {2,3}", rep["match"])


def test_criterion_9_class_structure():
    rep = acceptance.check_class_structure()
    assert rep["num_classes"] > 0
    _report("9 certified polynomial classes, nonneg, constant term 1", rep["match"])


@pytest.mark.parametrize(
    "planted, poly",
    [
        # no FactorProduct has constant term 2, so this class is a stand-in
        (SimpleNamespace(polynomial=lambda: {0: 2, 1: 1}), [[0, "2"], [1, "1"]]),
        (MotivicClass(FactorProduct.from_factor({"L": 1})), [[0, "1"], [1, "-1"]]),
    ],
    ids=["constant-term-2", "negative-coefficient"],
)
def test_criterion_9_fails_on_a_bad_class(monkeypatch, planted, poly):
    # each half of the predicate alone makes the check fail and name the class
    real = acceptance.fixed_component_class

    def one_bad(r, pi):
        return planted if (r, pi.to_lists()) == (2, [[1, 1]]) else real(r, pi)

    monkeypatch.setattr(acceptance, "fixed_component_class", one_bad)
    rep = acceptance.check_class_structure()
    assert rep["match"] is False
    assert rep["failures"] == [{"r": 2, "partition": [[1, 1]], "poly": poly}]
