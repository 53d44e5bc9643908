import pytest

from macmahon.motivic import (
    bb_identity_check,
    commuting_grid_class,
    fixed_component_class,
    limit_class,
    limit_class_check,
    limit_series_check,
    limit_series_lhs,
    moduli_space_class,
    refined_macmahon_check,
    refined_macmahon_lhs,
    surjective_chain_class,
)
from macmahon.partitions import PlanePartition, enumerate_plane_partitions
from macmahon.series import TruncationProfile, gl_class, q_factorial
from macmahon.vuletic import vuletic_weight_t0


def test_empty_partition_class_is_one():
    for r in (1, 2, 5):
        assert fixed_component_class(r, PlanePartition()).polynomial() == {0: 1}


def test_rank_one_components_are_points():
    # rank 1: the fixed components are isolated points, class 1
    for n in range(7):
        for pi in enumerate_plane_partitions(n, max_first_entry=1):
            assert fixed_component_class(1, pi).polynomial() == {0: 1}


def test_rank_three_single_box():
    poly = fixed_component_class(3, PlanePartition([[1]])).polynomial()
    assert poly == {0: 1, 1: 1, 2: 1}


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
    assert limit_class(PlanePartition()).factors.is_one()
    series = limit_class(PlanePartition([[1]])).factors.expand(TruncationProfile(L=6))
    assert sorted(series.coeffs.items()) == [((k,), 1) for k in range(7)]


def test_limit_class_series_has_nonnegative_coefficients():
    for n in range(6):
        for pi in enumerate_plane_partitions(n):
            series = limit_class(pi).factors.expand(TruncationProfile(L=12))
            assert all(c >= 0 for c in series.coeffs.values())
            assert series.coefficient({}) == 1


def test_limit_class_matches_t0_weight():
    for n in range(5):
        for pi in enumerate_plane_partitions(n):
            lhs = vuletic_weight_t0(pi).rename("q", "L")
            rhs = limit_class(pi).factors
            assert lhs == rhs  # factored forms coincide box by box
    report = limit_class_check(4, 12)
    assert report["match"]
    assert report["factored_matches"] == report["num_partitions"]


def test_finite_rank_stabilizes_to_limit():
    # agreement through degree r - corner entry
    for pi in [PlanePartition([[2, 1], [1]]), PlanePartition([[3, 1]]), PlanePartition([[1], [1], [1]])]:
        lim = limit_class(pi)
        for r in range(pi.first_entry, 9):
            cap = r - pi.first_entry
            finite = fixed_component_class(r, pi).factors.expand(TruncationProfile(L=cap))
            assert finite == lim.factors.expand(TruncationProfile(L=cap))


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


def test_grid_class_examples():
    for n in range(1, 5):
        assert commuting_grid_class(PlanePartition([[n]])).polynomial() == {0: 1}
    assert commuting_grid_class(PlanePartition([[1, 1]])).polynomial() == {0: -1, 1: 1}
    # (1 - L^2)^2
    assert commuting_grid_class(PlanePartition([[2, 1], [1]])).polynomial() == {0: 1, 2: -2, 4: 1}
    assert commuting_grid_class(PlanePartition([[1, 1], [1, 1]])).evaluate(3) == (3 - 1) ** 3


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
