"""Brute-force point counts of surjection varieties over small prime fields.

The oracle is deliberately independent of the class formulas: it counts the
matrix tuples over F_p that satisfy the defining conditions (commuting
squares, full surjectivity). Nothing is sampled and nothing is pruned.
Chains and grids are both lists of maps and commuting squares for one
counter, `_count_points`; every matrix of every free map is visited, and
its integer tables of products only reorder the exact count. A free map in
no square is counted by streaming its whole space, once per process per
(rows, cols, p), and that count is reused. One rank test,
`_surjective_mask`, decides surjectivity everywhere: some a x a minor is
nonzero mod p, each minor a cofactor expansion over a batch of matrices.

Counts are exact int64 sums; the budget guard refuses instances whose raw
search space p^(number of free entries) exceeds the instance budget, and
any table too large to hold is refused rather than mis-counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .motivic import _normalize_chain, commuting_grid_class, surjective_chain_class
from .partitions import PlanePartition, exact_ints
from .series import BudgetExceededError

DEFAULT_BUDGET = 10**8

# Most int64 values materialized in one array (matrices x entries of a space,
# or a product table's length); in-budget instances needing more are refused.
_TABLE_LIMIT = 1 << 22

# Matrices decoded per chunk of a streamed (never materialized) space. At 2^16
# the 3x4 space over F_3 peaked 16 MB higher than at 2^13, and ran slower.
_CHUNK_MATRICES = 1 << 13

# Products formed per batch of a square's table fill or lookup. Peak memory
# stays flat at 2^15; 2^20 raised the peak RSS of `macmahon all` by 10 MB.
_CHUNK_KEYS = 1 << 15

Matrix = tuple[tuple[int, ...], ...]


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


@dataclass(frozen=True, slots=True)
class ChainInstance:
    """Chain data: maps f_i between the mu-stages and g_i onto the nu-stages,
    intertwined over fixed surjections h_i between the nu-stages."""

    mu: tuple[int, ...]
    nu: tuple[int, ...]
    h: tuple[Matrix, ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        _check_budget(self.budget)


@dataclass(frozen=True, slots=True)
class GridInstance:
    """Commuting grid of surjections with stage dimensions from a plane partition."""

    partition: PlanePartition
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        _check_budget(self.budget)


def chain_entry_count(mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Free matrix entries of a chain instance."""
    mu, nu = _normalize_chain(mu, nu)
    total = sum(a * b for a, b in zip(mu[1:], mu))
    total += sum(a * b for a, b in zip(nu, mu))
    return total


def grid_entry_count(pi: PlanePartition) -> int:
    """Free matrix entries of a grid instance."""
    total = 0
    for i, j in pi.support():
        total += pi.entry(i + 1, j) * pi.entry(i, j)
        total += pi.entry(i, j + 1) * pi.entry(i, j)
    return total


def canonical_surjection(rows: int, cols: int) -> Matrix:
    """The block surjection [I | 0]; requires rows <= cols."""
    if rows > cols:
        raise ValueError("no surjection onto a larger space")
    return tuple(tuple(1 if c == r else 0 for c in range(cols)) for r in range(rows))


def _check_search(p: int, entries: int, budget: int) -> None:
    """Refuse a raw search space p^entries over the budget, then require p
    prime. Trial division runs to isqrt(p), so it is refused as well when
    those divisions alone would exceed the budget."""
    # 2^entries > budget already decides p >= 2 without forming p^entries
    if p >= 2 and (entries > budget.bit_length() or p**entries > budget):
        raise BudgetExceededError(f"{p}^{entries} tuples exceed the budget {budget}")
    last = math.isqrt(max(p, 0))
    if last - 1 > budget:
        raise BudgetExceededError(
            f"testing {p} for primality takes {last - 1} trial divisions, "
            f"over the budget {budget}"
        )
    if p < 2 or any(p % d == 0 for d in range(2, last + 1)):
        raise ValueError(f"point counting needs a prime field, got {p}")


def _tabulated_size(a: int, b: int, p: int, width: int) -> int:
    # p^(ab) rows of `width` values each
    size = p ** (a * b)
    if size * width > _TABLE_LIMIT:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} is too large to tabulate ({size * width} values)"
        )
    return size


def _space_chunks(a: int, b: int, p: int):
    size = p ** (a * b)
    if size >= 1 << 62:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} does not fit 64-bit enumeration"
        )
    for start in range(0, size, _CHUNK_MATRICES):
        codes = np.arange(start, min(start + _CHUNK_MATRICES, size), dtype=np.int64)
        mats = np.empty((len(codes), a * b), dtype=np.int64)
        # row-major odometer: the (0, 0) entry is the most significant digit
        for idx in range(a * b - 1, -1, -1):
            mats[:, idx] = codes % p
            codes //= p
        yield mats.reshape(len(mats), a, b)


def _det(mats: np.ndarray, cols: tuple[int, ...], row: int = 0) -> np.ndarray:
    """Determinant of every matrix's minor on rows row, row + 1, ... and the
    columns `cols`, by cofactor expansion along row `row`; the minor is never
    copied out. Entries lie in [0, p), so an a x a minor of an int64 stack
    from _space_chunks (p^(ab) < 2^62, a <= b) is at most a! (p - 1)^a < 2^33
    in size for a >= 2; a 1 x 1 minor is the entry itself."""
    if len(cols) == 1:
        return mats[:, row, cols[0]]
    det = 0
    for k, c in enumerate(cols):
        term = mats[:, row, c] * _det(mats, cols[:k] + cols[k + 1 :], row + 1)
        det = det - term if k % 2 else det + term
    return det


def _surjective_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of the (n, a, b) stack have rank a mod p: those with
    some nonzero a x a minor."""
    n, a, b = mats.shape
    if a == 0:
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    for cols in combinations(range(b), a):
        mask |= _det(mats, cols) % p != 0
        if mask.all():
            break
    return mask


@lru_cache(maxsize=64)
def _surjective_space(a: int, b: int, p: int) -> np.ndarray:
    """Every surjective a x b matrix over F_p, in odometer order, as one
    read-only (n, a, b) array shared by all callers."""
    _tabulated_size(a, b, p, a * b)
    mats = np.concatenate([m[_surjective_mask(m, p)] for m in _space_chunks(a, b, p)])
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def _surjective_count(a: int, b: int, p: int) -> int:
    """How many a x b matrices over F_p are surjective: the space streamed
    through the rank test and summed, once per process per (a, b, p)."""
    return sum(int(_surjective_mask(mats, p).sum()) for mats in _space_chunks(a, b, p))


def _validated_h(
    mu: tuple[int, ...], nu: tuple[int, ...], h: tuple[Matrix, ...] | None, p: int
) -> tuple[Matrix, ...]:
    k = len(mu)
    if h is None:
        return tuple(canonical_surjection(nu[i + 1], nu[i]) for i in range(k - 1))
    if not isinstance(h, (tuple, list)):
        raise ValueError(f"expected a list of {k - 1} intertwining maps, got {h!r}")
    if len(h) != k - 1:
        raise ValueError(f"expected {k - 1} intertwining maps, got {len(h)}")
    out = []
    for i, mat in enumerate(h):
        rows, cols = nu[i + 1], nu[i]
        if not isinstance(mat, (tuple, list)) or len(mat) != rows:
            raise ValueError(f"map {i} must be {rows}x{cols}")
        reduced = tuple(tuple(v % p for v in exact_ints(row)) for row in mat)
        if any(len(row) != cols for row in reduced):
            raise ValueError(f"map {i} must be {rows}x{cols}")
        if not _surjective_mask(np.array(reduced, dtype=object).reshape(1, rows, cols), p)[0]:
            raise ValueError(f"intertwining map {i} is not surjective mod {p}")
        out.append(reduced)
    return tuple(out)


def _product_keys(whole: np.ndarray, part: np.ndarray, whole_left: bool, powers: np.ndarray, p: int):
    """Yields (start, keys) in batches of about _CHUNK_KEYS: keys[i, j] is the
    code (digit weights `powers`) of whole[i] part[start + j], or of
    part[start + j] whole[i] when not whole_left."""
    step = max(1, _CHUNK_KEYS // len(whole))
    for start in range(0, len(part), step):
        chunk = part[None, start : start + step]
        prods = np.matmul(whole[:, None], chunk) if whole_left else np.matmul(chunk, whole[:, None])
        prods %= p
        yield start, prods.reshape(*prods.shape[:2], len(powers)) @ powers


def _square_vector(square, out: int, spaces: dict, weights: dict, p: int) -> np.ndarray:
    """Entry k: the sum, over the choices of the square's other maps that
    make it commute with map `out` at its k-th matrix, of the product of
    their weights. The side without `out` fills a table of its products
    (np.add.at, integer weights); the other side's products look it up."""
    a, b, c, d = square
    (x, y), (left, right) = ((a, b), (c, d)) if out in (c, d) else ((c, d), (a, b))
    rows, cols = spaces[x].shape[1], spaces[y].shape[2]
    table = np.zeros(_tabulated_size(rows, cols, p, 1), dtype=np.int64)
    # the codes index that table, so they fit int64
    powers = p ** np.arange(rows * cols - 1, -1, -1, dtype=np.int64)
    for start, keys in _product_keys(spaces[x], spaces[y], True, powers, p):
        w = weights[x][:, None] * weights[y][start : start + keys.shape[1]]
        # raveled: np.add.at on 2-D indices took about twice as long
        np.add.at(table, keys.ravel(), w.ravel())
    other = right if left == out else left
    vec = np.zeros(len(spaces[out]), dtype=np.int64)
    for start, keys in _product_keys(spaces[out], spaces[other], left == out, powers, p):
        vec += table.take(keys) @ weights[other][start : start + keys.shape[1]]
    return vec


def _check_counts(p: int, entries: int) -> None:
    """Refuse a count that could pass int64: one of p^entries tuples."""
    if p**entries >= 1 << 63:
        raise BudgetExceededError(f"{p}^{entries} tuples do not fit 64-bit counts")


def _count_points(maps: list, squares: list, p: int) -> int:
    """Choices of a surjective matrix for every free map with every square
    commuting. maps: (rows, cols, fixed), fixed one given matrix or None for
    a free map; squares: (a, b, c, d) for maps[a] maps[b] = maps[c] maps[d].

    A free map in no square is streamed, never held, once per process per
    (rows, cols, p); later instances reuse its count (with no rows it has its
    one matrix). Squares sharing a free map are walked depth first from each
    component's last square; a shared map leading back to a square already
    reached closes a cycle and is fixed to each of its matrices in turn. Each
    other square scales the weights of the map it shares with its parent; a
    root sums onto its first free map.
    """
    shared: dict[int, list[int]] = {}
    for s, square in enumerate(squares):
        for m in square:
            shared.setdefault(m, []).append(s)
    _check_counts(p, sum(maps[m][0] * maps[m][1] for m in shared if maps[m][2] is None))

    order = []  # (square, the map it shares with its parent or None), parents first
    seen = set()
    for top in reversed(range(len(squares))):
        if top in seen:
            continue
        seen.add(top)
        stack = [(top, None)]
        while stack:
            s, link = stack.pop()
            order.append((s, link))
            for m in squares[s]:
                if m == link or maps[m][2] is not None:
                    continue
                for t in shared[m]:
                    if t == s:
                        continue
                    if t in seen:
                        rows, cols, _ = maps[m]
                        return sum(
                            _count_points([*maps[:m], (rows, cols, mat), *maps[m + 1 :]], squares, p)
                            for mat in _surjective_space(rows, cols, p)
                        )
                    seen.add(t)
                    stack.append((t, m))

    total = 1
    spaces, weights = {}, {}
    for m, (rows, cols, fixed) in enumerate(maps):
        if m in shared:
            if fixed is None:
                spaces[m] = _surjective_space(rows, cols, p)
            else:
                spaces[m] = np.asarray(fixed, dtype=np.int64).reshape(1, rows, cols)
            weights[m] = np.ones(len(spaces[m]), np.int64)
        elif fixed is None and rows:
            total *= _surjective_count(rows, cols, p)
    for s, link in reversed(order):
        if link is None:
            out = next(m for m in squares[s] if maps[m][2] is None)
            total *= int(_square_vector(squares[s], out, spaces, weights, p) @ weights[out])
        else:
            weights[link] = weights[link] * _square_vector(squares[s], link, spaces, weights, p)
    return total


def _chain_maps(inst: ChainInstance, p: int) -> tuple[list, list]:
    # g_i at position i, f_i at k + i, h_i (given or canonical) at 2k - 1 + i
    mu, nu = _normalize_chain(inst.mu, inst.nu)
    k = len(mu)
    maps = [(nu[i], mu[i], None) for i in range(k)]
    maps += [(mu[i + 1], mu[i], None) for i in range(k - 1)]
    _check_search(p, chain_entry_count(mu, nu), inst.budget)
    maps += [(nu[i + 1], nu[i], h) for i, h in enumerate(_validated_h(mu, nu, inst.h, p))]
    return maps, [(i + 1, k + i, 2 * k - 1 + i, i) for i in range(k - 1)]


def count_chain_points(inst: ChainInstance, p: int) -> int:
    """Exact number of chain tuples ((f_i), (g_i)) over F_p satisfying
    g_{i+1} f_i = h_i g_i with every f_i and g_i surjective: the path of
    squares (g_{i+1}, f_i, h_i, g_i), each h_i fixed."""
    return _count_points(*_chain_maps(inst, p), p)


def sweep_chain_h(inst: ChainInstance, p: int) -> tuple[np.ndarray, np.ndarray]:
    """A two-stage chain counted for every surjective h in one pass: h's
    space, and at entry k the count with h its k-th matrix. The chain's one
    square has four free maps; the products g_1 f_0 fill one table for all h."""
    maps, squares = _chain_maps(inst, p)
    if len(squares) != 1:
        raise ValueError(f"sweeping h needs a two-stage chain, not {len(squares) + 1} stages")
    _check_counts(p, sum(rows * cols for rows, cols, _ in maps))
    spaces = {m: _surjective_space(rows, cols, p) for m, (rows, cols, _) in enumerate(maps)}
    weights = {m: np.ones(len(space), np.int64) for m, space in spaces.items()}
    return spaces[3], _square_vector(squares[0], 3, spaces, weights, p)


def count_grid_points(inst: GridInstance, p: int) -> int:
    """Exact number of grid tuples (B1, B2 maps) over F_p with every map
    surjective and every square B1(i, j+1) B2(i, j) = B2(i+1, j) B1(i, j)
    commuting. Maps sit by position on the bounding rectangle of the support,
    every B1 (box (i, j) onto (i+1, j)) before every B2 (onto (i, j+1)); a map
    onto an empty box has 0 rows and its one matrix.
    """
    pi = inst.partition
    height = len(pi.rows)
    width = len(pi.rows[0]) if pi.rows else 0

    def at(kind: int, i: int, j: int) -> int:
        return (kind * height + i) * width + j

    maps = [
        (pi.entry(i + 1 - kind, j + kind), pi.entry(i, j), None)
        for kind in (0, 1)
        for i in range(height)
        for j in range(width)
    ]
    squares = [
        (at(0, i, j + 1), at(1, i, j), at(1, i + 1, j), at(0, i, j))
        for i, j in pi.support()
        if pi.entry(i + 1, j + 1) > 0
    ]
    _check_search(p, grid_entry_count(pi), inst.budget)
    return _count_points(maps, squares, p)


def oracle_vs_class(inst: ChainInstance | GridInstance, p: int) -> dict:
    """Count points and compare with the class polynomial evaluated at p."""
    if isinstance(inst, ChainInstance):
        count = count_chain_points(inst, p)
        predicted = surjective_chain_class(inst.mu, inst.nu).evaluate(p)
        report = {"kind": "chain", "mu": list(inst.mu), "nu": list(inst.nu)}
    elif isinstance(inst, GridInstance):
        count = count_grid_points(inst, p)
        predicted = commuting_grid_class(inst.partition).evaluate(p)
        report = {"kind": "grid", "partition": inst.partition.to_lists()}
    else:
        raise TypeError(f"unknown instance type {type(inst).__name__}")
    report.update({"p": p, "count": count, "predicted": predicted, "match": count == predicted})
    return report


def oracle_json(report: dict) -> dict:
    """An `oracle_vs_class` report ready for JSON: the point count and the
    class value are unbounded, so they ride as decimal strings."""
    return {**report, "count": str(report["count"]), "predicted": str(report["predicted"])}
