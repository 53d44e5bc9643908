from functools import reduce

import pytest
from reference import (
    factor_inverse,
    factor_mul,
    one,
    reference_box_weight,
    reference_partition_sum,
    transpose,
)

from macmahon import motivic, series, vuletic
from macmahon.partitions import PlanePartition, enumerate_plane_partitions
from macmahon.series import FactorProduct, TruncationProfile, q_factorial
from macmahon.vuletic import (
    box_weight,
    little_f,
    vuletic_lhs,
    vuletic_rhs,
    vuletic_weight,
    vuletic_weight_t0,
)


def test_little_f_base_cases():
    assert little_f(0, 5) == FactorProduct()
    expected = FactorProduct.from_factor({"t": 1}) / FactorProduct.from_factor({"q": 1})
    assert little_f(1, 0) == expected


def test_little_f_2_1():
    expected = FactorProduct()
    expected = expected * FactorProduct.from_factor({"t": 2})
    expected = expected * FactorProduct.from_factor({"q": 1, "t": 2})
    expected = expected / FactorProduct.from_factor({"q": 1, "t": 1})
    expected = expected / FactorProduct.from_factor({"q": 2, "t": 1})
    assert little_f(2, 1) == expected


def test_little_f_rejects_negative():
    with pytest.raises(ValueError):
        little_f(-1, 0)
    with pytest.raises(ValueError):
        little_f(1, -2)


def test_box_weight_single_box():
    assert box_weight(PlanePartition([[1]]), 0, 0) == little_f(1, 0)


def test_box_weight_row_end():
    assert box_weight(PlanePartition([[1, 1]]), 0, 1) == little_f(1, 0)


def test_box_weight_outside_support():
    with pytest.raises(ValueError):
        box_weight(PlanePartition([[1]]), 1, 0)


def test_box_weight_equals_diagonal_slice_reference():
    # entries read straight off the diagonals, cut at the positive entries of
    # the box's own diagonal, against the slices cut at their longest, with
    # one level past that cut multiplied in
    boxes = 0
    for n in range(9):
        for pi in enumerate_plane_partitions(n):
            for i, j in pi.support():
                assert box_weight(pi, i, j) == reference_box_weight(pi, i, j), (pi, i, j)
                boxes += 1
    assert boxes == 1570


def test_unstable_cutoff_raises():
    # a positive entry right of a zero diagonal entry makes the level of box
    # (0, 0) past its cut f(1, 1) f(0, 1) / (f(1, 1) f(1, 1)), which is not 1;
    # the array is planted unchecked, and the refusal holds under -O
    planted = PlanePartition._trusted(((1,), (0, 0, 1)))
    with pytest.raises(RuntimeError, match="cutoff unstable at box \\(0, 0\\)"):
        box_weight(planted, 0, 0)
    with pytest.raises(RuntimeError, match="cutoff unstable at box \\(0, 0\\)"):
        vuletic_weight(planted)
    # with one more such entry below it, that level is f(1, 1) f(0, 1) /
    # (f(1, 1) f(0, 1)): its tally cancels, so it is 1 and nothing is refused
    cancelling = PlanePartition._trusted(((1,), (0, 0, 1), (0, 0, 1)))
    assert box_weight(cancelling, 0, 0) == little_f(1, 0)


def test_weight_is_product_of_reference_box_weights():
    # the one tally over all boxes against the diagonal-slice transcription,
    # box by box, multiplied pairwise
    weights = 0
    for n in range(9):
        for pi in enumerate_plane_partitions(n):
            expected = reduce(factor_mul, (reference_box_weight(pi, i, j) for i, j in pi.support()),
                              FactorProduct())
            assert vuletic_weight(pi) == expected, pi
            weights += 1
    assert weights == 342


def test_weight_of_empty_partition():
    assert vuletic_weight(PlanePartition()) == FactorProduct()


def test_weight_transpose_symmetry():
    # transposing swaps the below/right diagonal slices; the weight is symmetric
    for n in range(7):
        for pi in enumerate_plane_partitions(n):
            assert vuletic_weight(transpose(pi)) == vuletic_weight(pi)


def test_weight_constant_term_is_one():
    # q = t = 0 degenerates every factor to 1
    profile = TruncationProfile(q=0, t=0)
    for n in range(6):
        for pi in enumerate_plane_partitions(n):
            assert vuletic_weight(pi).expand(profile) == one(profile)


def test_weight_t0_values():
    assert vuletic_weight_t0(PlanePartition()) == FactorProduct()
    assert vuletic_weight_t0(PlanePartition([[1]])) == FactorProduct.from_factor({"q": 1}, -1)
    assert vuletic_weight_t0(PlanePartition([[1, 1]])) == FactorProduct.from_factor({"q": 1}, -1)


def test_little_f_t0_is_inverse_q_factorial():
    for n in range(6):
        assert little_f(n, 0).substitute_zero("t") == factor_inverse(q_factorial(n))
        for m in range(1, 4):
            assert little_f(n, m).substitute_zero("t") == FactorProduct()


def test_lhs_low_coefficients():
    profile = TruncationProfile(s=2, q=3, t=3)
    lhs = vuletic_lhs(2, profile)
    assert lhs.coefficient({}) == 1
    # s^1 coefficient is (1 - t) / (1 - q): coefficient of s q^k is 1, of s q^k t is -1
    for k in range(4):
        assert lhs.coefficient({"s": 1, "q": k}) == 1
        assert lhs.coefficient({"s": 1, "q": k, "t": 1}) == -1


def test_rhs_macmahon_specializations():
    # t-cap 0 kills every numerator factor, leaving prod (1 - s^n q^k)^-n
    profile = TruncationProfile(s=3, q=3, t=0)
    rhs = vuletic_rhs(3, profile)
    expected = FactorProduct()
    for n in range(1, 4):
        for k in range(4):
            expected = expected * FactorProduct.from_factor({"s": n, "q": k}, -n)
    assert rhs == expected.expand(profile)
    # with q also capped at 0 the s-coefficients are the classical counts
    profile0 = TruncationProfile(s=6, q=0, t=0)
    rhs0 = vuletic_rhs(6, profile0)
    assert [rhs0.coefficient({"s": n}) for n in range(7)] == [1, 1, 3, 6, 13, 24, 48]


def test_identity_small_caps():
    profile = TruncationProfile(s=4, q=4, t=4)
    assert vuletic_lhs(4, profile) == vuletic_rhs(4, profile)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        vuletic_lhs(3, TruncationProfile(s=4, q=4, t=4))
    with pytest.raises(ValueError):
        vuletic_rhs(5, TruncationProfile(s=4, q=4, t=4))


@pytest.fixture
def summed(monkeypatch):
    """Each partition_sum call's arguments and result, as the LHS builders
    make them."""
    calls, partition_sum = [], vuletic.partition_sum

    def recording(*args):
        result = partition_sum(*args)
        calls.append((args, result))
        return result

    for module in (vuletic, motivic):
        monkeypatch.setattr(module, "partition_sum", recording)
    return calls


def test_partition_sum_equals_per_partition_reference(summed):
    for s in range(7):
        vuletic_lhs(s, TruncationProfile(s=s, q=4, t=4))
    for t in range(8):
        for r in (1, 3, None):
            motivic.refined_macmahon_lhs(r, t, 6)
        motivic.limit_series_lhs(t, 8)
    assert len(summed) == 7 + 4 * 8
    for args, result in summed:
        assert result == reference_partition_sum(*args), args


def test_partition_sum_expands_each_factor_multiset_once(monkeypatch):
    # the 1,124 terms of size <= 10 are 252 distinct products with 103
    # distinct factor multisets, and the kernel's per-group step runs once
    # for each multiset
    terms = [vuletic_weight(pi) * FactorProduct.monomial({"s": pi.weight})
             for w in range(11) for pi in enumerate_plane_partitions(w)]
    multisets = {frozenset(fp.factors.items()) for fp in terms}
    assert (len(terms), len(set(terms)), len(multisets)) == (1124, 252, 103)
    group, groups = series._expand_group, []

    def counting(*args):
        groups.append(args)
        return group(*args)

    monkeypatch.setattr(series, "_expand_group", counting)
    vuletic_lhs(10, TruncationProfile(s=10, q=6, t=6))
    assert len(groups) == 103
