import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import arm, leg, reference_chi, transpose

from macmahon.partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_diagram_tuples,
    enumerate_plane_partitions,
)
from macmahon.series import FactorProduct, TruncationProfile


def _series_counts(order):
    # independent oracle: coefficients of prod_k (1 - s^k)^-k
    fp = FactorProduct()
    for k in range(1, order + 1):
        fp = fp * FactorProduct.from_factor({"s": k}, -k)
    series = fp.expand(TruncationProfile(s=order))
    return [series.coefficient({"s": n}) for n in range(order + 1)]


def test_enumeration_counts_match_series_oracle():
    counts = [sum(1 for _ in enumerate_plane_partitions(n)) for n in range(15)]
    assert counts == _series_counts(14)
    assert counts[:9] == [1, 1, 3, 6, 13, 24, 48, 86, 160]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10))
def test_enumeration_is_valid_distinct_descending_and_filters_by_corner(n, r):
    full = list(enumerate_plane_partitions(n))
    rows = [pi.rows for pi in full]
    for pi in rows:
        assert sum(map(sum, pi)) == n
        assert all(row and min(row) >= 1 for row in pi)
        assert all(a >= b for row in pi for a, b in zip(row, row[1:]))
        assert all(
            len(lower) <= len(upper) and all(a >= b for a, b in zip(upper, lower))
            for upper, lower in zip(pi, pi[1:])
        )
    assert len(set(rows)) == len(rows)
    assert all(a > b for a, b in zip(rows, rows[1:]))
    restricted = list(enumerate_plane_partitions(n, max_first_entry=r))
    assert restricted == [pi for pi in full if pi.first_entry <= r]


def test_weight_zero_yields_only_empty():
    pps = list(enumerate_plane_partitions(0))
    assert len(pps) == 1
    assert pps[0] == PlanePartition()
    assert pps[0].weight == 0


def test_weight_two_golden_order():
    pps = [p.to_lists() for p in enumerate_plane_partitions(2)]
    assert pps == [[[2]], [[1, 1]], [[1], [1]]]


def test_max_first_entry_restricts_to_diagrams():
    pps = list(enumerate_plane_partitions(6, max_first_entry=1))
    assert len(pps) == 11  # 0/1 plane partitions of weight 6 = partitions of 6
    assert len(pps) == sum(1 for _ in enumerate_diagram_tuples(1, 6))
    assert all(p.first_entry <= 1 for p in pps)


@pytest.mark.parametrize("n, bound", [(3, 1.5), (3, True), (2.5, None)])
def test_enumeration_rejects_non_integers(n, bound):
    # a bound of 1.5 ran as 1 before
    with pytest.raises(ValueError, match="expected an integer"):
        list(enumerate_plane_partitions(n, max_first_entry=bound))


@pytest.mark.parametrize("r, n", [(True, 2), (2.0, 1), (1, 1.5), (1, True)])
def test_tuple_enumeration_rejects_non_integers(r, n):
    # (True, 2) and (2.0, 1) each yielded 2 tuples before
    with pytest.raises(ValueError, match="expected an integer"):
        list(enumerate_diagram_tuples(r, n))


def test_enumeration_is_restartable_and_deterministic():
    first = [p.to_lists() for p in enumerate_plane_partitions(5)]
    second = [p.to_lists() for p in enumerate_plane_partitions(5)]
    assert first == second


def test_enumerated_partitions_are_valid_and_unique():
    # the enumerator stores its rows unchecked, so every partition with
    # n <= 9, unrestricted and at every corner bound <= 9, must equal its
    # rebuild through the validating constructor, rows and all
    for bound in (None, *range(10)):
        for n in range(10):
            seen = set()
            for pi in enumerate_plane_partitions(n, max_first_entry=bound):
                assert pi.weight == n
                rebuilt = PlanePartition(pi.to_lists())
                assert pi.rows == rebuilt.rows and pi == rebuilt
                assert all(type(row) is tuple for row in pi.rows)
                assert pi not in seen
                seen.add(pi)


def test_plane_partition_validation():
    with pytest.raises(ValueError):
        PlanePartition([[1, 2]])  # row increases
    with pytest.raises(ValueError):
        PlanePartition([[1], [2]])  # column increases
    with pytest.raises(ValueError):
        PlanePartition([[2, 1], [1, -1]])
    # trailing zeros trim to canonical form
    assert PlanePartition([[2, 1, 0], [1, 0], [0]]).to_lists() == [[2, 1], [1]]


def test_diagram_tuple_enumeration():
    r1 = [t.to_lists() for t in enumerate_diagram_tuples(1, 2)]
    assert r1 == [[[2]], [[1, 1]]]
    r2 = [t.to_lists() for t in enumerate_diagram_tuples(2, 1)]
    assert r2 == [[[1], []], [[], [1]]]
    # oracle: coefficient of x^2 in prod_k (1 - x^k)^-2
    fp = FactorProduct()
    for k in range(1, 3):
        fp = fp * FactorProduct.from_factor({"s": k}, -2)
    expected = fp.expand(TruncationProfile(s=2)).coefficient({"s": 2})
    assert sum(1 for _ in enumerate_diagram_tuples(2, 2)) == expected == 5


def _partitions(n, head):
    # every partition of n with parts at most head, naively
    if n == 0:
        return [()]
    return [(v,) + rest for v in range(1, min(n, head) + 1) for rest in _partitions(n - v, v)]


def test_diagrams_in_descending_lexicographic_order():
    for n in range(8):
        rows = [t.diagrams[0].rows for t in enumerate_diagram_tuples(1, n)]
        assert rows == sorted(_partitions(n, n), reverse=True)


def test_chi_values():
    assert chi(PlanePartition()) == 0
    assert chi(PlanePartition([[1]])) == 1
    assert chi(PlanePartition([[2, 1], [1]])) == 2 * 1 + 1 * 1 + 1 * 1


def test_chi_equals_per_box_reference():
    # chi is not transpose-invariant, so this tells rows from columns
    assert chi(PlanePartition([[1, 1]])) == 1 and chi(PlanePartition([[1], [1]])) == 2
    for n in range(9):
        for pi in enumerate_plane_partitions(n):
            assert chi(pi) == reference_chi(pi), pi


def test_chi_positive_except_empty():
    for n in range(7):
        for pi in enumerate_plane_partitions(n):
            if pi == PlanePartition():
                assert chi(pi) == 0
            else:
                assert chi(pi) > 0


def test_transpose():
    assert transpose(PlanePartition([[1]])).to_lists() == [[1]]
    assert transpose(PlanePartition([[2, 1]])).to_lists() == [[2], [1]]
    assert transpose(PlanePartition()) == PlanePartition()
    for n in range(7):
        for pi in enumerate_plane_partitions(n):
            assert transpose(transpose(pi)) == pi
            assert transpose(pi).weight == pi.weight


def test_arm_leg():
    y = YoungDiagram([1])
    assert (arm(y, 0, 0), leg(y, 0, 0)) == (0, 0)
    y = YoungDiagram([3, 1])
    assert (arm(y, 0, 0), leg(y, 0, 0)) == (2, 1)
    assert (arm(y, 0, 2), leg(y, 0, 2)) == (0, 0)
    assert (arm(y, 1, 1), leg(y, 1, 1)) == (-1, -1)
    empty = YoungDiagram()
    assert (arm(empty, 0, 0), leg(empty, 0, 0)) == (-1, -1)


def test_young_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram([1, 2])
    with pytest.raises(ValueError):
        YoungDiagram([2, -1])
    assert YoungDiagram([3, 1, 0, 0]).rows == (3, 1)
    assert YoungDiagram().weight == 0
