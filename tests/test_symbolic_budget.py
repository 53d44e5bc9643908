"""Budget refusals of symbolic runs and the read-only products shared by the
memoized builders; every guard here is a raise, so it holds under -O."""

import json
import time

import pytest

from macmahon import acceptance, fforacle, motivic, series, vuletic
from macmahon.cli import main
from macmahon.series import (
    BudgetExceededError,
    FactorProduct,
    TruncationProfile,
    gl_class,
    q_factorial,
)
from macmahon.vuletic import little_f


def test_budget_error_is_shared():
    assert fforacle.BudgetExceededError is BudgetExceededError


def test_profile_over_cell_limit_refused():
    side = 1000  # 1000^2 cells is the limit itself
    assert TruncationProfile(q=side - 1, t=side - 1).cells == series.CELL_LIMIT
    with pytest.raises(BudgetExceededError, match="cells"):
        TruncationProfile(q=side - 1, t=side)
    with pytest.raises(BudgetExceededError):
        TruncationProfile(L=100_000_000)


def test_expand_over_work_limit_refused_before_allocation(monkeypatch):
    # (1 - q)^4 on 5 cells is 4 slice updates of 5 cells: 20
    fp = FactorProduct.from_factor({"q": 1}, 4)
    profile = TruncationProfile(q=4)
    monkeypatch.setattr(series, "EXPAND_LIMIT", 20)
    assert sorted(fp.expand(profile).coeffs.items()) == [((0,), 1), ((1,), -4), ((2,), 6), ((3,), -4), ((4,), 1)]

    def no_array(*args, **kwargs):
        raise AssertionError("the array was allocated")

    monkeypatch.setattr(series.np, "zeros", no_array)
    monkeypatch.setattr(series, "EXPAND_LIMIT", 19)
    with pytest.raises(BudgetExceededError, match="slice updates"):
        fp.expand(profile)


def test_partition_sum_counts_from_macmahon_series(monkeypatch):
    # 1,124 plane partitions of size <= 10 (OEIS A000219), one cell each
    profile = TruncationProfile(s=0)
    monkeypatch.setattr(vuletic, "SUM_LIMIT", 1124)
    vuletic.check_partition_sum(10, profile)
    monkeypatch.setattr(vuletic, "SUM_LIMIT", 1123)
    with pytest.raises(BudgetExceededError, match="1124 or more plane partitions"):
        vuletic.check_partition_sum(10, profile)
    # the count stops once it passes: 1 + 1 + 3 + 6 > 10
    monkeypatch.setattr(vuletic, "SUM_LIMIT", 10)
    with pytest.raises(BudgetExceededError, match="^11 or more"):
        vuletic.check_partition_sum(10**9, profile)


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("partitions were enumerated")

    for module in (vuletic, motivic, acceptance):
        monkeypatch.setattr(module, "enumerate_plane_partitions", refuse)


@pytest.mark.parametrize(
    "call",
    [
        lambda: vuletic.vuletic_lhs(30, TruncationProfile(s=30, q=6, t=4)),
        lambda: vuletic.vuletic_lhs(12, TruncationProfile(s=12, q=20, t=20)),
        lambda: acceptance.check_vuletic(100_000, 0, 0),
        lambda: motivic.refined_macmahon_lhs(None, 30, 4),
        lambda: motivic.limit_series_lhs(30, 4),
        lambda: motivic.limit_class_check(40, 8),
        lambda: acceptance.check_macmahon_baseline(100_000),
        lambda: motivic.bb_identity_check(3, 40),
    ],
    ids=["vuletic-s30", "vuletic-wide", "vuletic-huge-s", "refined", "limit-series",
         "limit-class", "macmahon", "bb"],
)
def test_partition_sum_refused_before_enumeration(no_enumeration, call):
    with pytest.raises(BudgetExceededError, match="plane partitions"):
        call()


def test_stretch_sizes_inside_the_limits():
    # the largest sums the README, `macmahon all` and the benchmark run
    for order, profile in [
        (10, TruncationProfile(s=10, q=6, t=6)),
        (8, TruncationProfile(s=8, q=8, t=8)),
        (10, TruncationProfile(q=14, t=10)),
        (10, TruncationProfile(t=10, L=14)),
        (5, TruncationProfile(L=20)),
    ]:
        vuletic.check_partition_sum(order, profile)
    profile = TruncationProfile(s=10, q=6, t=6)
    assert vuletic.vuletic_rhs(10, profile).coefficient({}) == 1


def test_enumeration_bounds():
    # `enumerate pp` and `classes` count one cell: size 28 enumerates, 29 is refused
    vuletic.check_partition_sum(28, TruncationProfile())
    with pytest.raises(BudgetExceededError):
        vuletic.check_partition_sum(29, TruncationProfile())
    # bb counts the cells of its moduli profile; the benchmark's largest case fits
    vuletic.check_partition_sum(11, TruncationProfile(t=11, L=2 * 6 * 11))


def test_product_building_is_linear():
    # 20,000 factors merged in one pass, then the expansion is refused
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="slice updates"):
        motivic.limit_series_rhs(4, 5000)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "vuletic", "--s-order", "30"],
        ["verify", "limit-series", "--l-order", "100000000"],
        ["verify", "macmahon", "--s-order", "100000"],
    ],
)
def test_cli_refuses_symbolic_runs_fast(capsys, argv):
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["outcome"] == "error"
    assert elapsed < 1.0


def test_shared_products_are_read_only():
    with pytest.raises(TypeError):
        little_f(2, 0).factors[(1, 0, 0, 0)] = 5
    with pytest.raises(TypeError):
        del q_factorial(3).factors[(1, 0, 0, 0)]


@pytest.mark.parametrize("cached, args", [(q_factorial, (3,)), (gl_class, (2,)), (little_f, (2, 1))])
def test_arithmetic_leaves_cached_values_unchanged(cached, args):
    fresh = cached.__wrapped__(*args)
    value = cached(*args)
    assert cached(*args) is value
    other = FactorProduct.from_factor({"L": 1, "q": 1}, -2) * FactorProduct.monomial({"t": 1})
    for result in (value * other, value / other, other / value, value * value, value / value,
                   FactorProduct() / value, FactorProduct.prod((value, other), (value,)),
                   value.substitute_zero("t"), value.rename("s", "s")):
        assert isinstance(result, FactorProduct)
    assert cached(*args) is value
    assert value == fresh


def test_memoized_builders_refuse_non_integers():
    # the caches are typed: 2.0 is not served the value cached for 2
    little_f(2, 0)
    q_factorial(2)
    with pytest.raises(TypeError):
        little_f(2.0, 0)
    with pytest.raises(TypeError):
        q_factorial(2.0)
