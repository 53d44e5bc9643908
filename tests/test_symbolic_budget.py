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


def test_expand_limit_counts_doublings_and_refuses_before_any_slice(monkeypatch):
    # (1 - q)^-1 on 5 cells is one slice add per doubling q, q^2, q^4 that
    # fits: 3 updates of 5 cells, 15, so a count off by one fails
    fp = FactorProduct.from_factor({"q": 1}, -1)
    profile = TruncationProfile(q=4)
    monkeypatch.setattr(series, "EXPAND_LIMIT", 15)
    assert sorted(fp.expand(profile).coeffs.items()) == [((e,), 1) for e in range(5)]

    def no_slice(*args, **kwargs):
        raise AssertionError("a slice was built")

    monkeypatch.setattr(series, "slice", no_slice, raising=False)
    monkeypatch.setattr(series.np, "zeros", no_slice)
    monkeypatch.setattr(series, "EXPAND_LIMIT", 14)
    with pytest.raises(BudgetExceededError, match="^3 slice updates of 5 cells exceed the limit 14$"):
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
        lambda: acceptance.check_limit_class(40, 8),
        lambda: acceptance.check_macmahon_baseline(100_000),
        lambda: motivic.bb_identity_check(3, 40),
    ],
    ids=["vuletic-s30", "vuletic-wide", "vuletic-huge-s", "refined", "limit-series",
         "limit-class", "macmahon", "bb"],
)
def test_partition_sum_refused_before_enumeration(no_enumeration, call):
    with pytest.raises(BudgetExceededError, match="plane partitions"):
        call()


def test_refused_partition_sum_builds_no_term():
    def term(pi):
        raise AssertionError("a term was built")

    with pytest.raises(BudgetExceededError, match="plane partitions"):
        vuletic.partition_sum(30, TruncationProfile(s=30, q=6, t=4), term)
    with pytest.raises(ValueError, match="^weight must be nonnegative$"):
        vuletic.partition_sum(-1, TruncationProfile(s=0), term)


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


def test_product_building_is_linear(monkeypatch):
    # 4 (l_order + 1) factors merged in one pass, then the expansion is
    # refused; twice the factors must take well under the 4x of a quadratic
    # build. The first refusal is at the real limit and warms up the caches;
    # the timed ones, best of five taken in turn on this process's CPU clock
    # (other load on the machine does not count), use a lower limit, so that
    # l_order 2,500 is refused too.
    with pytest.raises(BudgetExceededError, match="slice updates"):
        motivic.limit_series_rhs(4, 5000)
    monkeypatch.setattr(series, "EXPAND_LIMIT", 10**8)
    times = {2500: [], 5000: []}
    for _ in range(5):
        for l_order, taken in times.items():
            started = time.process_time()
            with pytest.raises(BudgetExceededError, match="slice updates"):
                motivic.limit_series_rhs(4, l_order)
            taken.append(time.process_time() - started)
    assert min(times[5000]) / min(times[2500]) < 3


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
    with pytest.raises(ValueError, match="expected an integer"):
        little_f(2.0, 0)
    with pytest.raises(ValueError, match="expected an integer"):
        q_factorial(2.0)
