from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import is_surjective, rank_mod_p

from macmahon import fforacle
from macmahon.fforacle import (
    BudgetExceededError,
    ChainInstance,
    GridInstance,
    canonical_surjection,
    chain_entry_count,
    count_chain_points,
    count_grid_points,
    grid_entry_count,
    oracle_vs_class,
    surjective_h_choices,
)
from macmahon.motivic import commuting_grid_class, surjective_chain_class
from macmahon.partitions import PlanePartition, enumerate_plane_partitions


def test_chain_examples():
    assert count_chain_points(ChainInstance((1,), (1,)), 2) == 1
    assert count_chain_points(ChainInstance((2,), (1,)), 2) == 3
    assert count_chain_points(ChainInstance((2,), (1,)), 3) == 8
    # full-rank chain with no surjection constraints below
    assert count_chain_points(ChainInstance((1, 1), (0, 0)), 2) == 1
    assert count_chain_points(ChainInstance((1, 1), (0, 0)), 3) == 2


def test_grid_examples():
    for n in (1, 2, 3):
        assert count_grid_points(GridInstance(PlanePartition([[n]])), 2) == 1
    assert count_grid_points(GridInstance(PlanePartition([[1, 1]])), 2) == 1
    assert count_grid_points(GridInstance(PlanePartition([[1, 1]])), 3) == 2
    # two independent surjective 1x2 maps, no commuting constraint
    assert count_grid_points(GridInstance(PlanePartition([[2, 1], [1]])), 2) == 9
    assert count_grid_points(GridInstance(PlanePartition([[2, 1], [1]])), 3) == 64


def test_grid_commuting_constraint():
    # four invertible scalars with b*c = d*a: (p-1)^3 solutions
    for p in (2, 3):
        assert count_grid_points(GridInstance(PlanePartition([[1, 1], [1, 1]])), p) == (p - 1) ** 3


def test_oracle_matches_class():
    for p in (2, 3):
        rep = oracle_vs_class(GridInstance(PlanePartition([[1, 1]])), p)
        assert rep["match"], rep
        rep = oracle_vs_class(ChainInstance((2, 1), (1, 1)), p)
        assert rep["match"], rep
        rep = oracle_vs_class(ChainInstance((3, 2), (2, 1)), p)
        assert rep["match"], rep


def test_oracle_vs_class_weight_three_grids():
    for pi in enumerate_plane_partitions(3):
        for p in (2, 3):
            count = count_grid_points(GridInstance(pi), p)
            assert count == commuting_grid_class(pi).evaluate(p)


def test_h_independence():
    for p in (2, 3):
        counts = {
            count_chain_points(ChainInstance((2, 2), (2, 1), (h,)), p)
            for h in surjective_h_choices(1, 2, p)
        }
        assert len(counts) == 1
        assert counts.pop() == surjective_chain_class((2, 2), (2, 1)).evaluate(p)
    counts = {
        count_chain_points(ChainInstance((2, 2), (2, 2), (h,)), 2)
        for h in surjective_h_choices(2, 2, 2)
    }
    assert len(counts) == 1


def test_non_surjective_h_rejected():
    zero_h = ((0, 0),)
    with pytest.raises(ValueError):
        count_chain_points(ChainInstance((2, 2), (2, 1), (zero_h,)), 2)
    with pytest.raises(ValueError):
        count_chain_points(ChainInstance((2, 2), (2, 1), ((0,),)), 2)  # wrong shape
    with pytest.raises(ValueError):
        count_chain_points(ChainInstance((2, 2), (2, 1), (((1.0, 0),),)), 2)  # not an int
    with pytest.raises(ValueError):
        count_chain_points(ChainInstance((2, 2), (2, 1), (((True, 0),),)), 2)


def test_entry_counts():
    assert chain_entry_count((2,), (1,)) == 2
    assert chain_entry_count((2, 2), (2, 1)) == 4 + 4 + 2
    assert grid_entry_count(PlanePartition([[2, 1], [1]])) == 4
    assert grid_entry_count(PlanePartition([[1, 1], [1, 1]])) == 4


def test_composite_field_rejected():
    with pytest.raises(ValueError):
        count_grid_points(GridInstance(PlanePartition([[1, 1]])), 4)
    with pytest.raises(ValueError):
        count_chain_points(ChainInstance((1,), (1,)), 1)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_grid_points(GridInstance(PlanePartition([[3, 3], [3, 3]])), 2)
    with pytest.raises(BudgetExceededError):
        count_chain_points(ChainInstance((2, 2), (2, 1), budget=10), 2)
    with pytest.raises(BudgetExceededError):
        oracle_vs_class(GridInstance(PlanePartition([[1, 1]]), budget=1), 3)


def test_determinism():
    inst = ChainInstance((3, 2), (2, 1))
    assert count_chain_points(inst, 2) == count_chain_points(inst, 2)
    ginst = GridInstance(PlanePartition([[2, 1], [1]]))
    assert count_grid_points(ginst, 3) == count_grid_points(ginst, 3)


def test_canonical_surjection():
    assert canonical_surjection(1, 2) == ((1, 0),)
    assert canonical_surjection(0, 3) == ()
    assert is_surjective(canonical_surjection(2, 3), 2)
    with pytest.raises(ValueError):
        canonical_surjection(3, 2)


def test_surjective_h_choices_counts():
    assert len(surjective_h_choices(1, 1, 2)) == 1
    assert len(surjective_h_choices(1, 1, 3)) == 2
    assert len(surjective_h_choices(1, 2, 2)) == 3
    assert len(surjective_h_choices(2, 2, 2)) == 6  # invertible 2x2 over F_2
    assert len(surjective_h_choices(4, 4, 2)) == 20160  # |GL_4(F_2)|


def test_maps_with_four_rows():
    # one free 4x4 (or 4x5) g: the rank test on four rows
    for inst, p, count in [
        (ChainInstance((4,), (4,)), 2, 20160),
        (GridInstance(PlanePartition([[4, 4]])), 2, 20160),
        (ChainInstance((5,), (4,)), 2, 624960),
    ]:
        rep = oracle_vs_class(inst, p)
        assert rep["count"] == rep["predicted"] == count


SPACE_LIMIT = 50_000  # matrices per space of the exhaustive rank test


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_test_on_every_small_space(p):
    # every a x b space with a <= 4, b <= 5 and p^(ab) <= SPACE_LIMIT,
    # zero rows and more rows than columns included
    for a in range(5):
        for b in range(6):
            n = p ** (a * b)
            if n > SPACE_LIMIT:
                continue
            mats = np.array(list(iproduct(range(p), repeat=a * b)), dtype=np.int64).reshape(n, a, b)
            expected = [is_surjective(m, p) for m in mats.tolist()]
            assert fforacle._surjective_mask(mats, p).tolist() == expected, (a, b, p)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3 * 10^24
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in bases:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _largest_admitted_prime(a: int, b: int) -> int:
    """The largest prime p with p^(ab) < 2^62, the most _space_chunks enumerates."""
    p = int(2 ** (62 / (a * b))) + 1
    while p ** (a * b) >= 1 << 62:
        p -= 1
    while not _is_prime(p):
        p -= 1
    return p


SHAPES = [(a, b) for a in range(1, 5) for b in range(a, 6)]


@st.composite
def stacks_at_the_largest_prime(draw):
    a, b = draw(st.sampled_from(SHAPES))
    p = _largest_admitted_prime(a, b)
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))
    rows = st.lists(st.lists(entry, min_size=b, max_size=b), min_size=a, max_size=a)
    return draw(st.lists(rows, min_size=1, max_size=20)), p


@settings(max_examples=100, deadline=None)
@given(stacks_at_the_largest_prime())
def test_rank_test_at_the_largest_enumerated_prime(case):
    # int64 minors stay exact: below 2^33 for two or more rows, the entry itself for one
    mats, p = case
    mask = fforacle._surjective_mask(np.array(mats, dtype=np.int64), p)
    assert mask.tolist() == [is_surjective(m, p) for m in mats]


def test_given_h_ranked_exactly_past_int64():
    p = 4294967311  # the least prime above 2^32: entry products pass 2^63
    singular = ((p - 1, 1), (1, p - 1))  # determinant p (p - 2)
    invertible = ((p - 1, p - 2), (p - 3, p - 1))  # determinant -5
    assert [rank_mod_p(singular, p), rank_mod_p(invertible, p)] == [1, 2]
    stack = np.array([singular, invertible], dtype=object)
    assert fforacle._surjective_mask(stack, p).tolist() == [False, True]
    with pytest.raises(ValueError, match="not surjective"):
        count_chain_points(ChainInstance((2, 2), (2, 2), (singular,), budget=10**120), p)
    with pytest.raises(BudgetExceededError, match="64-bit counts"):
        count_chain_points(ChainInstance((2, 2), (2, 2), (invertible,), budget=10**120), p)


def _all_matrices(rows, cols, p):
    # every rows x cols matrix over F_p, entry by entry
    if rows * cols == 0:
        return [tuple(tuple() for _ in range(rows))]
    out = []
    for entries in iproduct(range(p), repeat=rows * cols):
        out.append(tuple(entries[r * cols : (r + 1) * cols] for r in range(rows)))
    return out


def _mul(a, b, p):
    if not a:
        return ()
    if not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    return tuple(
        tuple(sum(x * b[t][c] for t, x in enumerate(row)) % p for c in range(cols))
        for row in a
    )


def _naive_chain_count(mu, nu, h, p):
    # dumb odometer over every entry of every map, one tuple at a time
    k = len(mu)
    shapes = [(mu[i + 1], mu[i]) for i in range(k - 1)] + [(nu[i], mu[i]) for i in range(k)]
    count = 0
    for combo in iproduct(*(_all_matrices(r, c, p) for r, c in shapes)):
        fs, gs = combo[: k - 1], combo[k - 1 :]
        if not all(is_surjective(m, p) for m in combo):
            continue
        if all(_mul(gs[i + 1], fs[i], p) == _mul(h[i], gs[i], p) for i in range(k - 1)):
            count += 1
    return count


def _naive_grid_count(pi, p):
    # dumb odometer over every entry of every map, one tuple at a time; the
    # map from box (i, j) down is ("B1", i, j), the map to the right ("B2", i, j)
    shapes = {}
    for i, j in pi.support():
        if pi.entry(i + 1, j):
            shapes["B1", i, j] = (pi.entry(i + 1, j), pi.entry(i, j))
        if pi.entry(i, j + 1):
            shapes["B2", i, j] = (pi.entry(i, j + 1), pi.entry(i, j))
    squares = [(i, j) for i, j in pi.support() if pi.entry(i + 1, j + 1)]
    surjective = {}
    count = 0
    for combo in iproduct(*(_all_matrices(r, c, p) for r, c in shapes.values())):
        m = dict(zip(shapes, combo))
        for mat in combo:
            if mat not in surjective:
                surjective[mat] = is_surjective(mat, p)
        if not all(surjective[mat] for mat in combo):
            continue
        if all(
            _mul(m["B1", i, j + 1], m["B2", i, j], p) == _mul(m["B2", i + 1, j], m["B1", i, j], p)
            for i, j in squares
        ):
            count += 1
    return count


def test_bucketed_count_equals_naive_odometer():
    cases = [
        ((2,), (1,)),
        ((2,), (2,)),
        ((1, 1), (1, 1)),
        ((2, 1), (1, 1)),
        ((2, 1), (2, 1)),
        ((2, 2), (1, 1)),
        ((2, 1), (1, 0)),
    ]
    for mu, nu in cases:
        for p in (2, 3):
            if p ** chain_entry_count(mu, nu) > 50000:
                continue
            for h in ([None] if len(mu) == 1 else surjective_h_choices(nu[1], nu[0], p)):
                inst = ChainInstance(mu, nu, None if h is None else (h,))
                expected = _naive_chain_count(
                    mu, nu, [] if h is None else [h], p
                )
                assert count_chain_points(inst, p) == expected, (mu, nu, p, h)


RAW_LIMIT = 50_000  # tuples the naive odometer visits per instance


def _decreasing(dims) -> bool:
    return list(dims) == sorted(dims, reverse=True)


# every chain shape with 1-3 stages and dimensions <= 3, zero stages included
CHAIN_SHAPES = [
    (mu, nu)
    for k in (1, 2, 3)
    for mu in iproduct(range(4), repeat=k)
    if _decreasing(mu)
    for nu in iproduct(range(4), repeat=k)
    if _decreasing(nu) and all(v <= m for v, m in zip(nu, mu))
]


@st.composite
def chain_instances(draw):
    """A chain shape whose raw search space fits RAW_LIMIT at p in {2, 3, 5},
    with a random surjective intertwining map at each stage boundary."""
    p = draw(st.sampled_from((2, 3, 5)))
    shapes = [s for s in CHAIN_SHAPES if p ** chain_entry_count(*s) <= RAW_LIMIT]
    mu, nu = draw(st.sampled_from(shapes))
    k = len(mu)
    h = []
    for i in range(k - 1):
        rows, cols = nu[i + 1], nu[i]
        entries = st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
        flat = draw(
            entries.map(lambda e: tuple(tuple(e[r * cols : (r + 1) * cols]) for r in range(rows)))
            .filter(lambda m: is_surjective(m, p))
        )
        h.append(flat)
    return tuple(mu), tuple(nu), tuple(h), p


@settings(max_examples=30, deadline=None)
@given(chain_instances())
def test_staged_count_equals_naive_odometer(case):
    mu, nu, h, p = case
    assert p ** chain_entry_count(mu, nu) <= RAW_LIMIT
    inst = ChainInstance(mu, nu, h if len(mu) > 1 else None)
    assert count_chain_points(inst, p) == _naive_chain_count(mu, nu, list(h), p)


# every plane partition with |pi| <= 8, each a grid shape for the property test
GRID_SHAPES = [pi for w in range(9) for pi in enumerate_plane_partitions(w)]


@st.composite
def grid_instances(draw):
    """A plane partition whose grid's raw search space fits RAW_LIMIT at p in
    {2, 3, 5}."""
    p = draw(st.sampled_from((2, 3, 5)))
    pi = draw(st.sampled_from([pi for pi in GRID_SHAPES if p ** grid_entry_count(pi) <= RAW_LIMIT]))
    return pi, p


@settings(max_examples=30, deadline=None)
@given(grid_instances())
def test_grid_count_equals_naive_odometer(case):
    pi, p = case
    assert count_grid_points(GridInstance(pi), p) == _naive_grid_count(pi, p)


@pytest.mark.parametrize("chunk", [1, 40])
def test_transfer_across_chunk_boundaries(monkeypatch, chunk):
    # one f per chunk; then 5 per chunk against the 8 surjective g and the
    # 48 invertible f of the first case, so its last chunk is partial
    monkeypatch.setattr(fforacle, "_CHUNK_KEYS", chunk)
    for mu, nu, p in [((2, 2), (1, 1), 3), ((3, 2), (2, 1), 2), ((2, 1, 1), (1, 1, 1), 3)]:
        count = count_chain_points(ChainInstance(mu, nu), p)
        assert count == surjective_chain_class(mu, nu).evaluate(p)


def test_transfer_over_many_default_chunks():
    # 26 surjective g times 11232 invertible f over F_3: nine chunks of keys
    g = len(surjective_h_choices(1, 3, 3))
    f = len(surjective_h_choices(3, 3, 3))
    assert g * f > 8 * fforacle._CHUNK_KEYS
    count = count_chain_points(ChainInstance((3, 3), (1, 1)), 3)
    assert count == surjective_chain_class((3, 3), (1, 1)).evaluate(3)


def test_memoized_spaces_are_read_only():
    mats = fforacle._surjective_space(2, 2, 3)
    assert not mats.flags.writeable
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 2
    assert fforacle._surjective_space(2, 2, 3) is mats
    assert surjective_h_choices(2, 2, 3) == [tuple(map(tuple, m)) for m in mats.tolist()]


def test_oversized_stage_refused(monkeypatch):
    fforacle._surjective_space.cache_clear()
    monkeypatch.setattr(fforacle, "_TABLE_LIMIT", 8)
    try:
        with pytest.raises(BudgetExceededError):
            count_chain_points(ChainInstance((2, 1), (1, 1)), 5)
        # with the 2x2 spaces over F_2 already memoized, only the squares'
        # product tables of 2^4 entries meet the limit
        grid = GridInstance(PlanePartition([[2, 2], [2, 2]]))
        monkeypatch.setattr(fforacle, "_TABLE_LIMIT", 64)
        expected = count_grid_points(grid, 2)
        monkeypatch.setattr(fforacle, "_TABLE_LIMIT", 15)
        with pytest.raises(BudgetExceededError, match="2x2 over F_2"):
            count_grid_points(grid, 2)
        monkeypatch.setattr(fforacle, "_TABLE_LIMIT", 16)
        assert count_grid_points(grid, 2) == expected
    finally:
        fforacle._surjective_space.cache_clear()


# every plane partition with |pi| <= 10 whose squares close a cycle
CYCLE_GRIDS = [pi for w in range(11) for pi in enumerate_plane_partitions(w) if pi.entry(2, 2) > 0]


@pytest.mark.parametrize("pi", CYCLE_GRIDS, ids=lambda pi: str(pi.to_lists()).replace(" ", ""))
def test_grid_with_cycle_of_squares(pi):
    assert len(CYCLE_GRIDS) == 4
    assert count_grid_points(GridInstance(pi), 2) == _naive_grid_count(pi, 2)
    assert count_grid_points(GridInstance(pi), 3) == commuting_grid_class(pi).evaluate(3)
