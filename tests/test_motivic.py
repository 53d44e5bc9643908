from itertools import product

import pytest
from reference import reference_box_factorial_ratio, reference_chain_class

from macmahon import acceptance, motivic
from macmahon.cli import main
from macmahon.motivic import (
    MotivicClass,
    bb_identity_check,
    commuting_grid_class,
    fixed_component_class,
    limit_class,
    limit_series_check,
    limit_series_lhs,
    moduli_space_class,
    refined_macmahon_check,
    refined_macmahon_lhs,
    refined_macmahon_rhs,
    surjective_chain_class,
)
from macmahon.partitions import PlanePartition, enumerate_plane_partitions
from macmahon.series import FactorProduct, NotPolynomialError, TruncationProfile, gl_class, q_factorial
from macmahon.torus import attracting_dimension
from macmahon.vuletic import little_f, vuletic_weight_t0


def test_empty_partition_class_is_one():
    for r in (1, 2, 5):
        assert fixed_component_class(r, PlanePartition()).polynomial() == {0: 1}


def test_rank_one_components_are_points():
    # rank 1: the fixed components are isolated points, class 1
    for n in range(7):
        for pi in enumerate_plane_partitions(n, max_first_entry=1):
            assert fixed_component_class(1, pi).polynomial() == {0: 1}


def test_rank_three_single_box():
    cls = fixed_component_class(3, PlanePartition([[1]]))
    assert cls.polynomial() == {0: 1, 1: 1, 2: 1}
    assert cls.evaluate(2) == 7


def test_box_factorial_ratio_equals_q_factorial_reference():
    for n in range(9):
        for pi in enumerate_plane_partitions(n):
            assert motivic.limit_class(pi) == reference_box_factorial_ratio(pi), pi


# each class formula with one rank or order argument set to the value, and
# a class evaluated at the value
CLASS_FORMULAS = {
    "fixed_component_class": lambda x: fixed_component_class(x, PlanePartition([[1]])),
    "MotivicClass.evaluate": lambda x: fixed_component_class(3, PlanePartition([[1]])).evaluate(x),
    "moduli_space_class-r": lambda x: moduli_space_class(x, 2),
    "moduli_space_class-n": lambda x: moduli_space_class(2, x),
    "attracting_dimension": lambda x: attracting_dimension(PlanePartition([[1]]), x),
    "q_factorial": q_factorial,
    "little_f-n": lambda x: little_f(x, 0),
    "little_f-m": lambda x: little_f(0, x),
}


@pytest.mark.parametrize("value", [True, 1.5, 2.0])
@pytest.mark.parametrize("build", CLASS_FORMULAS.values(), ids=CLASS_FORMULAS)
def test_class_formulas_refuse_non_integer_ranks_and_orders(build, value):
    with pytest.raises(ValueError, match="expected an integer"):
        build(value)


def _geometry_class_domain():
    """(r, pi) over the class domains of the geometry benchmark: r <= 8
    with |pi| <= 9 (class structure), then r = 6 with |pi| <= 11 (bb)."""
    for r in range(1, 9):
        for w in range(10):
            for pi in enumerate_plane_partitions(w, max_first_entry=r):
                yield r, pi
    for w in range(12):
        for pi in enumerate_plane_partitions(w, max_first_entry=6):
            yield 6, pi


def test_shared_classes_equal_an_uncached_reference():
    # one partition meets many ranks, and many partitions share a tally
    # whose top multiplicities are 0, so a cache key that drops r or pi00
    # hands some (r, pi) another component's class
    motivic._component_class.cache_clear()
    for r, pi in _geometry_class_domain():
        expected = FactorProduct.prod(
            (q_factorial(r, "L"), reference_box_factorial_ratio(pi)),
            (q_factorial(r - pi.first_entry, "L"),),
        )
        cls = fixed_component_class(r, pi)
        assert cls.factors == expected, (r, pi)
        assert cls.polynomial() == expected.to_polynomial()[1], (r, pi)


def test_class_cache_holds_one_entry_per_key(capsys):
    motivic._component_class.cache_clear()
    assert main(["classes", "--r", "4", "--n", "14"]) == 0
    capsys.readouterr()
    listed = list(enumerate_plane_partitions(14, max_first_entry=4))
    keys = {(4, pi.first_entry, motivic._box_tally(pi)) for pi in listed}
    assert len(listed) == 2882
    assert 0 < motivic._component_class.cache_info().currsize <= len(keys)


def test_shared_answers_stay_unchanged():
    pi = PlanePartition([[2, 1], [1]])
    poly = fixed_component_class(3, pi).polynomial()
    expected = dict(poly)
    poly[0] = 99
    assert fixed_component_class(3, pi).polynomial() == expected
    assert fixed_component_class(3, pi).evaluate(1) == sum(expected.values())
    with pytest.raises(TypeError):
        limit_class(pi).factors[(0, 0, 0, 1)] = 5
    assert limit_class(pi) is limit_class(PlanePartition([[2, 1], [1]]))


@pytest.fixture
def clear_class_caches():
    motivic._component_class.cache_clear()
    motivic._tally_product.cache_clear()
    yield
    motivic._component_class.cache_clear()
    motivic._tally_product.cache_clear()


def test_class_that_does_not_divide_is_no_usage_error(monkeypatch, clear_class_caches):
    # a wrong box tally is a formula defect, which no CLI input can cause:
    # [2]!/[1]! (1 - L)^-3 = (1 + L)/(1 - L)^2 at [[1]] is not a polynomial
    monkeypatch.setattr(motivic, "_box_tally", lambda pi: (-3,) * pi.first_entry)
    with pytest.raises(NotPolynomialError, match="does not divide exactly"):
        main(["classes", "--r", "2", "--n", "2"])


def test_class_in_a_foreign_variable_refused():
    with pytest.raises(NotPolynomialError, match="unexpected variable 'q'"):
        MotivicClass(FactorProduct.from_factor({"q": 1}))


def test_corner_entry_above_rank_rejected():
    with pytest.raises(ValueError):
        fixed_component_class(1, PlanePartition([[2]]))


def test_class_structure_small():
    for r in (1, 2, 3):
        for n in range(5):
            for pi in enumerate_plane_partitions(n, max_first_entry=r):
                poly = fixed_component_class(r, pi).polynomial()
                assert poly.get(0, 0) == 1
                assert all(c >= 0 for c in poly.values())


def test_limit_class_values():
    assert limit_class(PlanePartition()) == FactorProduct()
    series = limit_class(PlanePartition([[1]])).expand(TruncationProfile(L=6))
    assert sorted(series.coeffs.items()) == [((k,), 1) for k in range(7)]


def test_limit_class_series_has_nonnegative_coefficients():
    for n in range(6):
        for pi in enumerate_plane_partitions(n):
            series = limit_class(pi).expand(TruncationProfile(L=12))
            assert all(c >= 0 for c in series.coeffs.values())
            assert series.coefficient({}) == 1


def test_limit_class_matches_t0_weight():
    for n in range(5):
        for pi in enumerate_plane_partitions(n):
            lhs = vuletic_weight_t0(pi).rename("q", "L")
            rhs = limit_class(pi)
            assert lhs == rhs  # factored forms coincide box by box
    report = acceptance.check_limit_class(4, 12)
    assert report["match"]
    assert report["factored_matches"] == report["num_partitions"]


def test_finite_rank_stabilizes_to_limit():
    # agreement through degree r - corner entry
    for pi in [PlanePartition([[2, 1], [1]]), PlanePartition([[3, 1]]), PlanePartition([[1], [1], [1]])]:
        lim = limit_class(pi)
        for r in range(pi.first_entry, 9):
            cap = r - pi.first_entry
            finite = fixed_component_class(r, pi).factors.expand(TruncationProfile(L=cap))
            assert finite == lim.expand(TruncationProfile(L=cap))


def test_chain_class_examples():
    assert surjective_chain_class((1,), (1,)).polynomial() == {0: -1, 1: 1}
    assert surjective_chain_class((2,), (1,)).polynomial() == {0: -1, 2: 1}
    assert surjective_chain_class((1, 1), (0, 0)).polynomial() == {0: -1, 1: 1}
    assert surjective_chain_class((2,), (1,)).evaluate(2) == 3
    assert surjective_chain_class((2,), (1,)).evaluate(3) == 8


def test_chain_class_validation():
    with pytest.raises(ValueError):
        surjective_chain_class((1,), (2,))
    with pytest.raises(ValueError):
        surjective_chain_class((1, 2), (0, 0))
    with pytest.raises(ValueError):
        surjective_chain_class((2, 2), (1, 2))
    with pytest.raises(ValueError):
        surjective_chain_class((), ())
    # nu may be longer than mu by zero stages only
    assert surjective_chain_class((2,), (1, 0, 0)).polynomial() == {0: -1, 2: 1}
    with pytest.raises(ValueError, match="nu is longer than mu"):
        surjective_chain_class((2,), (1, 1))


def chain_shapes(stages: int, top: int) -> list:
    """Every (mu, nu) with `stages` stages and dimensions <= top."""
    decreasing = [s for s in product(range(top + 1), repeat=stages) if all(a >= b for a, b in zip(s, s[1:]))]
    return [(mu, nu) for mu in decreasing for nu in decreasing if all(m >= v for m, v in zip(mu, nu))]


def test_derived_chain_classes_equal_the_stage_by_stage_product():
    chains = [c for k in (1, 2) for c in chain_shapes(k, 5)] + [c for k in (3, 4) for c in chain_shapes(k, 3)]
    assert len(chains) == 882
    for mu, nu in chains:
        assert surjective_chain_class(mu, nu).factors == reference_chain_class(mu, nu), (mu, nu)


def test_chain_class_cache_holds_one_entry_per_normalized_chain():
    motivic._chain_class.cache_clear()
    cls = surjective_chain_class((2,), (1, 0, 0))
    assert surjective_chain_class([2], [1]) is cls
    assert surjective_chain_class((2,), (1,)) is cls
    assert motivic._chain_class.cache_info().currsize == 1


def test_grid_class_examples():
    for n in range(1, 5):
        assert commuting_grid_class(PlanePartition([[n]])).polynomial() == {0: 1}
    assert commuting_grid_class(PlanePartition([[1, 1]])).polynomial() == {0: -1, 1: 1}
    # (1 - L^2)^2
    assert commuting_grid_class(PlanePartition([[2, 1], [1]])).polynomial() == {0: 1, 2: -2, 4: 1}
    assert commuting_grid_class(PlanePartition([[1, 1], [1, 1]])).evaluate(3) == (3 - 1) ** 3


def test_shared_grid_classes_equal_an_uncached_reference():
    # 8 of the 16 (corner, tally) pairs with |pi| <= 6 carry more than one
    # entry multiset, so a key without the entries hands some pi another
    # grid's class
    motivic._grid_class.cache_clear()
    for pi in (pi for w in range(7) for pi in enumerate_plane_partitions(w)):
        expected = FactorProduct.prod(
            [q_factorial(pi.first_entry, "L"), reference_box_factorial_ratio(pi)]
            + [gl_class(pi.entry(i, j)) for i, j in pi.support()],
            (gl_class(pi.first_entry),),
        )
        cls = commuting_grid_class(pi)
        assert cls.factors == expected, pi
        assert cls.polynomial() == expected.to_polynomial()[1], pi


def test_grid_class_cache_holds_one_entry_per_key():
    motivic._grid_class.cache_clear()
    grids = [pi for w in range(9) for pi in enumerate_plane_partitions(w)]
    for pi in grids:
        commuting_grid_class(pi)
    keys = {(pi.first_entry, motivic._box_tally(pi), tuple(sorted(pi.entry(i, j) for i, j in pi.support())))
            for pi in grids}
    assert (len(grids), len(keys)) == (342, 103)
    assert motivic._grid_class.cache_info().currsize == 103
    # a grid and its transpose share one key, so one class
    assert commuting_grid_class(PlanePartition([[2, 1]])) is commuting_grid_class(PlanePartition([[2], [1]]))


def chain_bookkeeping_identity(r, pi):
    """Exact factored-form consistency between the two class formulas:

    fixed component class = grid class * (class of surjections from rank r
    onto the corner stage) / prod over boxes of [GL_a].
    """
    a = pi.first_entry
    surj = q_factorial(r, "L") * gl_class(a)
    surj = surj / (q_factorial(a, "L") * q_factorial(r - a, "L"))
    expected = commuting_grid_class(pi).factors * surj
    for i, j in pi.support():
        expected = expected / gl_class(pi.entry(i, j))
    return expected == fixed_component_class(r, pi).factors


def test_chain_bookkeeping_identity():
    for n in range(5):
        for pi in enumerate_plane_partitions(n):
            for r in range(max(pi.first_entry, 1), pi.first_entry + 3):
                assert chain_bookkeeping_identity(r, pi)


def test_moduli_space_class_values():
    assert moduli_space_class(1, 0) == {0: 1}
    assert moduli_space_class(3, 0) == {0: 1}
    assert moduli_space_class(1, 1) == {2: 1}
    assert moduli_space_class(2, 1) == {3: 1, 4: 1}


def test_bb_identity_small():
    rep = bb_identity_check(1, 1)
    assert rep["match"] and rep["lhs"] == {2: 1}
    for r in (1, 2):
        for n in range(4):
            assert bb_identity_check(r, n)["match"]


def test_bb_identity_needs_finite_rank():
    with pytest.raises(ValueError, match="bb verification needs a finite rank"):
        bb_identity_check(None, 3)


def test_refined_macmahon_first_coefficient():
    lhs = refined_macmahon_lhs(1, 3, 6)
    # t^1 coefficient collapses to q
    assert lhs.coefficient({"t": 1, "q": 1}) == 1
    assert all(lhs.coefficient({"t": 1, "q": k}) == 0 for k in (0, 2, 3, 4, 5, 6))


def test_refined_macmahon_small():
    assert refined_macmahon_check(1, 4, 6)["match"]
    assert refined_macmahon_check(2, 3, 6)["match"]
    assert refined_macmahon_check(None, 3, 6)["match"]


def test_limit_series_small():
    assert limit_series_check(3, 6)["match"]
    lhs = limit_series_lhs(2, 5)
    # t^1 coefficient is the single-box limit class 1/(1 - L)
    assert all(lhs.coefficient({"t": 1, "L": k}) == 1 for k in range(6))


def test_limit_series_report_payload():
    report = limit_series_check(2, 4)
    assert set(report) >= {"t_order", "l_order", "match"}


def test_rank_ratio_is_the_factorial_quotient():
    for r in range(1, 8):
        for k in range(r + 1):
            for var in ("q", "L"):
                assert motivic._rank_ratio(r, k, var) == q_factorial(r, var) / q_factorial(r - k, var)


def test_refined_rhs_stops_at_the_q_cap():
    # every m up to r, as the product reads, against the m <= q cap product
    for r, t_order, q_order in [(7, 4, 3), (3, 3, 5), (5, 2, 5)]:
        full = FactorProduct.prod((), (
            FactorProduct.from_factor({"q": m, "t": k})
            for k in range(1, t_order + 1) for m in range(1, r + 1)
        )).expand(TruncationProfile(q=q_order, t=t_order))
        assert refined_macmahon_rhs(r, t_order, q_order) == full
