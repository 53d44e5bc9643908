from collections import Counter
from types import SimpleNamespace

import pytest
from reference import reference_partition_of_tuple, tangent_terms

from macmahon import acceptance, torus
from macmahon.partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_diagram_tuples,
)
from macmahon.series import BudgetExceededError
from macmahon.torus import (
    attracting_dimension,
    positive_weight_count,
    tangent_character,
)


def test_single_box_character():
    ch = tangent_character(DiagramTuple([YoungDiagram([1])]))
    assert ch == Counter({(1, 1, 0, 1): 1, (1, 1, 1, 0): 1})


def test_row_of_two_character():
    # hand evaluation: boxes (0,0) and (0,1) of the single diagram (2)
    ch = tangent_character(DiagramTuple([YoungDiagram([2])]))
    assert ch == Counter(
        {(1, 1, 0, 2): 1, (1, 1, 0, 1): 1, (1, 1, 1, -1): 1, (1, 1, 1, 0): 1}
    )


def test_rank_two_cross_terms():
    ch = tangent_character(DiagramTuple([YoungDiagram([1]), YoungDiagram()]))
    assert ch == Counter(
        {(1, 1, 0, 1): 1, (1, 1, 1, 0): 1, (1, 2, 1, 1): 1, (2, 1, 0, 0): 1}
    )
    assert ch.total() == 4


def test_character_size_is_2rn():
    for r in (1, 2, 3):
        for n in range(6):
            for tup in enumerate_diagram_tuples(r, n):
                assert tangent_character(tup).total() == 2 * r * n


# Rows (1, 2) increase, so this is no Young diagram: box (1, 1) has arm 0 and
# leg -1 (column 1 holds one box), so its kind-1 weight is the trivial
# (1, 1, 0, 0). The stand-in carries only what the kernel reads, bypassing
# YoungDiagram's checks.
NOT_A_DIAGRAM = SimpleNamespace(rows=(1, 2))
NOT_A_TUPLE = SimpleNamespace(diagrams=(NOT_A_DIAGRAM,), rank=1, total_weight=3)


def test_trivial_weights_rejected():
    with pytest.raises(ValueError, match="trivial weight"):
        tangent_character(NOT_A_TUPLE)


def test_positive_count_single_box():
    assert positive_weight_count(tangent_character(DiagramTuple([YoungDiagram([1])])), 3) == 2


def test_positive_count_matches_closed_form():
    for r in (1, 2, 3):
        for n in range(6):
            for tup in enumerate_diagram_tuples(r, n):
                pi = reference_partition_of_tuple(tup)
                expected = r * n + chi(pi)
                assert positive_weight_count(tangent_character(tup), n + 2) == expected
                assert expected == attracting_dimension(pi, r)


def test_alpha_stability():
    for r in (1, 2):
        for n in range(5):
            for tup in enumerate_diagram_tuples(r, n):
                character = tangent_character(tup)
                counts = {positive_weight_count(character, a) for a in range(n + 2, 2 * n + 5)}
                assert len(counts) == 1


def test_no_nontrivial_zero_pairings():
    # terms with (k1, k2) = (0, 0) do occur across framing indices; all
    # others must pair strictly away from zero for stable alpha
    for r in (1, 2, 3):
        for n in range(5):
            for tup in enumerate_diagram_tuples(r, n):
                ch = tangent_character(tup)
                for a in range(n + 2, 2 * n + 5):
                    for (_, _, k1, k2) in ch:
                        if (k1, k2) != (0, 0):
                            assert k1 + a * k2 != 0


def test_attracting_dimension_examples():
    assert attracting_dimension(PlanePartition([[1]]), 1) == 2
    assert attracting_dimension(PlanePartition([[1]]), 2) == 3
    # row of two: chi = 1; column of two: chi = 2
    assert attracting_dimension(PlanePartition([[1, 1]]), 1) == 3
    assert attracting_dimension(PlanePartition([[1], [1]]), 1) == 4


def test_attracting_dimension_validation():
    with pytest.raises(ValueError):
        attracting_dimension(PlanePartition([[2]]), 1)
    with pytest.raises(ValueError):
        attracting_dimension(PlanePartition([[1]]), 0)
    with pytest.raises(ValueError):
        positive_weight_count(tangent_character(DiagramTuple([YoungDiagram([1])])), 0)


@pytest.mark.parametrize(
    "diagrams",
    [[[1000000]], [[1] * 4000], [[]] * 3000, [[1] * 708]],
    ids=["long-row", "tall-column", "many-empty", "column-past-the-limit"],
)
def test_large_characters_refused_before_building(diagrams):
    tup = DiagramTuple([YoungDiagram(rows) for rows in diagrams])
    with pytest.raises(BudgetExceededError, match="over the limit"):
        tangent_character(tup)


def test_largest_admitted_column():
    # 2 * 707^2 + 1 steps, inside the limit: 2rn weights
    assert tangent_character(DiagramTuple([YoungDiagram([1] * 707)])).total() == 2 * 707


def test_kernel_equals_per_box_reference():
    for r in (1, 2, 3):
        for n in range(7):
            for tup in enumerate_diagram_tuples(r, n):
                assert tangent_character(tup) == tangent_terms(tup)


def _kernel_partitions(tuples, r, n):
    # the plane partitions of the kernel's own table, through the validating
    # constructor
    return [PlanePartition(table.tolist()) for table in torus._tangent_weights(tuples, r, n)[4]]


def test_kernel_table_examples():
    empty = DiagramTuple([YoungDiagram(), YoungDiagram(), YoungDiagram()])
    assert _kernel_partitions([empty], 3, 0) == [PlanePartition()]
    # a row and a column of two are each other's transpose: rows are not columns
    row, column = DiagramTuple([YoungDiagram([2])]), DiagramTuple([YoungDiagram([1, 1])])
    assert [pi.to_lists() for pi in _kernel_partitions([row, column], 1, 2)] == [[[1, 1]], [[1], [1]]]
    mixed = DiagramTuple([YoungDiagram([2]), YoungDiagram([1, 1])])
    assert _kernel_partitions([mixed], 2, 4)[0].to_lists() == [[2, 1], [1]]


def test_kernel_table_equals_reference_partition():
    # every tuple's table is a valid plane partition (the constructor checks
    # it) of weight n and corner entry at most r, equal to the per-box count
    for r in (1, 2, 3):
        for n in range(9):
            tuples = list(enumerate_diagram_tuples(r, n))
            for tup, pi in zip(tuples, _kernel_partitions(tuples, r, n), strict=True):
                assert pi == reference_partition_of_tuple(tup), tup
                assert pi.weight == n
                assert pi.first_entry <= r


@pytest.mark.parametrize(
    "diagrams", [[[1] * 707], [[1]] + [[]] * 99], ids=["largest-column", "box-beside-empties"]
)
def test_kernel_equals_per_box_reference_at_extremes(diagrams):
    tup = DiagramTuple([YoungDiagram(rows) for rows in diagrams])
    assert tangent_character(tup) == tangent_terms(tup)


def test_check_tangent_report_independent_of_chunking(monkeypatch):
    report = acceptance.check_tangent(3, 5)
    assert report == {"name": "tangent", "num_tuples": 287, "failures": [], "match": True}
    monkeypatch.setattr(acceptance, "_TANGENT_CHUNK_WEIGHTS", 1)
    assert acceptance.check_tangent(3, 5) == report


@pytest.mark.parametrize("chunk_weights", [1, 1 << 12])
def test_check_tangent_failures_in_enumeration_order(monkeypatch, chunk_weights):
    # a corner entry one too large at rank 2 moves chi: every rank-2 tuple
    # with a box fails, in order (the empty tuple's table has no box to move)
    def perturbed(tuples, r, n):
        *weights, pp = torus._tangent_weights(tuples, r, n)
        pp[:, 0, 0] += r == 2
        return *weights, pp

    monkeypatch.setattr(acceptance, "_TANGENT_CHUNK_WEIGHTS", chunk_weights)
    monkeypatch.setattr(acceptance, "_tangent_weights", perturbed)
    report = acceptance.check_tangent(2, 3)
    assert report["failures"] == [
        {"tuple": tup.to_lists(), "r": 2, "n": n}
        for n in range(1, 4)
        for tup in enumerate_diagram_tuples(2, n)
    ]
    assert report["num_tuples"] == 7 + 18


def test_check_tangent_builds_no_plane_partition(monkeypatch):
    built = []
    init = PlanePartition.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlanePartition, "__init__", counted)
    assert acceptance.check_tangent(3, 5)["match"]
    assert built == []
    PlanePartition([[1]])
    assert len(built) == 1


def test_check_tangent_refuses_a_trivial_weight(monkeypatch):
    # the rule lives in the kernel, so check_tangent meets it there
    with pytest.raises(ValueError, match="trivial weight"):
        torus._tangent_weights([NOT_A_TUPLE], 1, 3)
    monkeypatch.setattr(
        acceptance,
        "enumerate_diagram_tuples",
        lambda r, n: iter([NOT_A_TUPLE]) if (r, n) == (1, 3) else enumerate_diagram_tuples(r, n),
    )
    with pytest.raises(ValueError, match="trivial weight"):
        acceptance.check_tangent(1, 3)
