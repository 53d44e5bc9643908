from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from reference import reference_partition_of_tuple, tangent_terms

from macmahon import acceptance, torus
from macmahon.partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_diagram_tuples,
    enumerate_plane_partitions,
)
from macmahon.series import BudgetExceededError
from macmahon.torus import (
    attracting_dimension,
    positive_weight_count,
    tangent_character,
)


def _tuple(*rows):
    return DiagramTuple([YoungDiagram(r) for r in rows])


def _batch_counters(i, j, k1, k2, *_):
    # each tuple's weights as a multiset {(i, j, k1, k2): multiplicity}
    return [Counter(zip(*(x[t].ravel().tolist() for x in (i, j, k1, k2)))) for t in range(len(i))]


def _character(tup):
    return _batch_counters(*tangent_character([tup], tup.rank, tup.total_weight))[0]


def _d_plus(tup, alpha):
    _, _, k1, k2, _ = tangent_character([tup], tup.rank, tup.total_weight)
    return int(positive_weight_count(k1, k2, alpha)[0])


def test_single_box_character():
    ch = _character(DiagramTuple([YoungDiagram([1])]))
    assert ch == Counter({(1, 1, 0, 1): 1, (1, 1, 1, 0): 1})


def test_row_of_two_character():
    # hand evaluation: boxes (0,0) and (0,1) of the single diagram (2)
    ch = _character(DiagramTuple([YoungDiagram([2])]))
    assert ch == Counter(
        {(1, 1, 0, 2): 1, (1, 1, 0, 1): 1, (1, 1, 1, -1): 1, (1, 1, 1, 0): 1}
    )


def test_rank_two_cross_terms():
    ch = _character(DiagramTuple([YoungDiagram([1]), YoungDiagram()]))
    assert ch == Counter(
        {(1, 1, 0, 1): 1, (1, 1, 1, 0): 1, (1, 2, 1, 1): 1, (2, 1, 0, 0): 1}
    )
    assert ch.total() == 4


def test_character_size_is_2rn():
    for r in (1, 2, 3):
        for n in range(6):
            tuples = list(enumerate_diagram_tuples(r, n))
            *weights, table = tangent_character(tuples, r, n)
            assert [x.shape for x in weights] == [(len(tuples), 2, n, r)] * 4
            assert table.shape == (len(tuples), n + 1, n + 1)


# Rows (1, 2) increase, so this is no Young diagram: box (1, 1) has arm 0 and
# leg -1 (column 1 holds one box), so its kind-1 weight is the trivial
# (1, 1, 0, 0). The stand-in carries only what the kernel reads, bypassing
# YoungDiagram's checks.
NOT_A_DIAGRAM = SimpleNamespace(rows=(1, 2))
NOT_A_TUPLE = SimpleNamespace(diagrams=(NOT_A_DIAGRAM,), rank=1, total_weight=3)


def test_trivial_weights_rejected():
    with pytest.raises(ValueError, match="trivial weight"):
        tangent_character([NOT_A_TUPLE], 1, 3)


def test_positive_count_single_box():
    assert _d_plus(DiagramTuple([YoungDiagram([1])]), 3) == 2


def test_positive_count_matches_closed_form():
    for r in (1, 2, 3):
        for n in range(6):
            tuples = list(enumerate_diagram_tuples(r, n))
            _, _, k1, k2, _ = tangent_character(tuples, r, n)
            expected = [r * n + chi(reference_partition_of_tuple(tup)) for tup in tuples]
            assert positive_weight_count(k1, k2, n + 2).tolist() == expected
            assert expected == [attracting_dimension(reference_partition_of_tuple(tup), r) for tup in tuples]


def test_alpha_stability():
    for r in (1, 2):
        for n in range(5):
            tuples = list(enumerate_diagram_tuples(r, n))
            _, _, k1, k2, _ = tangent_character(tuples, r, n)
            counts = [positive_weight_count(k1, k2, a).tolist() for a in range(n + 2, 2 * n + 5)]
            assert counts == counts[:1] * len(counts)


@pytest.mark.parametrize("alpha", [10**20, 2**70, 2**31, 2**31 + 1, 2**63])
def test_positive_count_exact_past_int64(alpha):
    # against Python ints, weight by weight
    for r in (1, 2):
        for n in range(5):
            tuples = list(enumerate_diagram_tuples(r, n))
            _, _, k1, k2, _ = tangent_character(tuples, r, n)
            expected = [
                sum(a + alpha * b > 0 for a, b in zip(k1[t].ravel().tolist(), k2[t].ravel().tolist()))
                for t in range(len(tuples))
            ]
            assert positive_weight_count(k1, k2, alpha).tolist() == expected


@pytest.mark.parametrize("alpha", [0, -1, 1.5, 3.0, True])
def test_positive_count_refuses_a_nonpositive_or_non_int_alpha(alpha):
    _, _, k1, k2, _ = tangent_character([_tuple([1])], 1, 1)
    with pytest.raises(ValueError, match="alpha must be positive|expected an integer"):
        positive_weight_count(k1, k2, alpha)


def test_no_nontrivial_zero_pairings():
    # terms with (k1, k2) = (0, 0) do occur across framing indices; all
    # others must pair strictly away from zero for stable alpha
    for r in (1, 2, 3):
        for n in range(5):
            for tup in enumerate_diagram_tuples(r, n):
                ch = _character(tup)
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
        _d_plus(DiagramTuple([YoungDiagram([1])]), 0)


@pytest.mark.parametrize(
    "diagrams",
    [[[1000000]], [[1] * 4000], [[]] * 3000, [[1] * 708]],
    ids=["long-row", "tall-column", "many-empty", "column-past-the-limit"],
)
def test_large_characters_refused_before_building(diagrams):
    tup = DiagramTuple([YoungDiagram(rows) for rows in diagrams])
    with pytest.raises(BudgetExceededError, match="over the limit"):
        tangent_character([tup], tup.rank, tup.total_weight)


def test_refusal_message_and_batch_steps():
    with pytest.raises(BudgetExceededError) as refused:
        tangent_character([_tuple(*[[]] * 3000)], 3000, 0)
    assert str(refused.value) == (
        "the tangent character of rank 3000 and weight 0 takes 9000000 steps, over the limit 1000000"
    )
    # 2 * 600^2 + 1 steps apiece is admitted alone, but not twice over
    column = _tuple([1] * 600)
    assert tangent_character([column], 1, 600)[2].shape == (1, 2, 600, 1)
    with pytest.raises(BudgetExceededError, match="takes 1440002 steps for 2 tuples, over the limit"):
        tangent_character([column, column], 1, 600)


def test_largest_admitted_column():
    # 2 * 707^2 + 1 steps, inside the limit: 2rn weights
    assert _character(DiagramTuple([YoungDiagram([1] * 707)])).total() == 2 * 707


@pytest.mark.parametrize(
    "tuples, r, n",
    [
        ([], 1, 1),
        # mixed weight: [2] would lend the empty tuple its second box
        ([_tuple([2]), _tuple([])], 1, 1),
        ([_tuple([2]), _tuple([])], 1, 2),
        ([_tuple([1]), _tuple([1], [])], 1, 1),  # mixed rank
        ([_tuple([1]), _tuple([1], [])], 2, 1),
        ([_tuple([1], [])], 1, 1),  # one tuple of another rank
        ([_tuple([1])], 1, 2),  # or of another weight
        ([_tuple([1])], 1, 0),
        ([_tuple([1, 1, 1])], 1, 1),  # more rows than the weight
        ([_tuple([10**30])], 1, 1),  # a row past int64
    ],
    ids=["empty", "mixed-weight-1", "mixed-weight-2", "mixed-rank-1", "mixed-rank-2",
         "rank", "heavier", "lighter", "tall", "past-int64"],
)
def test_batch_of_another_rank_or_weight_refused(tuples, r, n):
    with pytest.raises(ValueError, match="no diagram tuples|must have rank"):
        tangent_character(tuples, r, n)


def test_kernel_equals_per_box_reference():
    for r in (1, 2, 3):
        for n in range(7):
            tuples = list(enumerate_diagram_tuples(r, n))
            assert _batch_counters(*tangent_character(tuples, r, n)) == [tangent_terms(t) for t in tuples]


def _kernel_partitions(tuples, r, n):
    # the plane partitions of the kernel's own table, through the validating
    # constructor
    return [PlanePartition(table.tolist()) for table in tangent_character(tuples, r, n)[4]]


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
    assert _character(tup) == tangent_terms(tup)


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
        *weights, pp = torus.tangent_character(tuples, r, n)
        pp[:, 0, 0] += r == 2
        return *weights, pp

    monkeypatch.setattr(acceptance, "_TANGENT_CHUNK_WEIGHTS", chunk_weights)
    monkeypatch.setattr(acceptance, "tangent_character", perturbed)
    report = acceptance.check_tangent(2, 3)
    assert report["failures"] == [
        {"tuple": tup.to_lists(), "r": 2, "n": n}
        for n in range(1, 4)
        for tup in enumerate_diagram_tuples(2, n)
    ]
    assert report["num_tuples"] == 7 + 18


def test_check_tangent_builds_no_plane_partition(monkeypatch):
    # both constructors count: the checked one and the enumerator's own
    built = []
    init, trusted = PlanePartition.__init__, PlanePartition._trusted

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_trusted(cls, rows):
        built.append(rows)
        return trusted(rows)

    monkeypatch.setattr(PlanePartition, "__init__", counted)
    monkeypatch.setattr(PlanePartition, "_trusted", classmethod(counted_trusted))
    assert acceptance.check_tangent(3, 5)["match"]
    assert built == []
    PlanePartition([[1]])
    next(enumerate_plane_partitions(1))
    assert len(built) == 2


def test_check_tangent_flags_a_nontrivial_zero_pairing(monkeypatch):
    # one weight with k2 < 0 of the first tuple at r = 2, n = 3 becomes
    # (-(2n + 4), 1): it pairs to zero at the last alpha alone and is never
    # positive, so the counts and the closed form still hold and only the
    # zero-pairing mask can flag the tuple
    def swapped(tuples, r, n):
        i, j, k1, k2, pp = torus.tangent_character(tuples, r, n)
        k1, k2 = k1.copy(), k2.copy()
        if (r, n) == (2, 3):
            at = tuple(np.argwhere(k2[0] < 0)[0])
            k1[0][at], k2[0][at] = -(2 * n + 4), 1
        return i, j, k1, k2, pp

    monkeypatch.setattr(acceptance, "tangent_character", swapped)
    report = acceptance.check_tangent(2, 3)
    assert report["failures"] == [{"tuple": next(enumerate_diagram_tuples(2, 3)).to_lists(), "r": 2, "n": 3}]
    assert report["num_tuples"] == 7 + 18


def test_check_tangent_refuses_a_trivial_weight(monkeypatch):
    # the rule lives in the kernel, so check_tangent meets it there
    with pytest.raises(ValueError, match="trivial weight"):
        tangent_character([NOT_A_TUPLE], 1, 3)
    monkeypatch.setattr(
        acceptance,
        "enumerate_diagram_tuples",
        lambda r, n: iter([NOT_A_TUPLE]) if (r, n) == (1, 3) else enumerate_diagram_tuples(r, n),
    )
    with pytest.raises(ValueError, match="trivial weight"):
        acceptance.check_tangent(1, 3)


def test_check_tangent_reaches_the_kernel_through_its_public_names(monkeypatch):
    # torus's own bindings refuse, so every call goes through the names
    # acceptance imported; r <= 2, n <= 3 is one chunk per (r, n), each
    # counted at n + 3 alphas
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("tangent_character", "positive_weight_count"):
        monkeypatch.setattr(acceptance, name, counted(name, getattr(torus, name)))
        monkeypatch.setattr(torus, name, lambda *args: pytest.fail("reached torus directly"))
    assert acceptance.check_tangent(2, 3)["match"]
    assert calls == {"tangent_character": 8, "positive_weight_count": 2 * (3 + 4 + 5 + 6)}


@pytest.mark.parametrize(
    "r_max, n_max", [(0, 5), (-1, 2), (3, -1), (True, 2), (2.0, 2), (2, 2.5), (2, None)]
)
def test_check_tangent_refuses_an_empty_or_non_int_range(r_max, n_max):
    with pytest.raises(ValueError):
        acceptance.check_tangent(r_max, n_max)
