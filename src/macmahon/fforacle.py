"""Brute-force point counts of surjection varieties over small prime fields.

The oracle is deliberately independent of the class formulas: it enumerates
matrix tuples over F_p exhaustively and counts those satisfying the defining
conditions (intertwining / commuting squares, full surjectivity). Nothing is
sampled and nothing is pruned. Chains are counted by a staged transfer: one
integer table per stage, indexed by the encoded boundary product h_i g_i,
carries the number of partial tuples to the next stage, and every pair of
surjective matrices (g, f) of a stage is looked up in it. Every matrix of
every map is still visited. Grids use the plain product enumeration over
per-map matrix lists.

Counts are exact int64 sums; the budget guard refuses instances whose raw
search space p^(number of free entries) exceeds the instance budget, and
any table too large to hold is refused rather than mis-counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .motivic import _normalize_chain, commuting_grid_class, surjective_chain_class
from .partitions import PlanePartition, exact_ints

DEFAULT_BUDGET = 10**8

# Most int64 values materialized in one array (matrices x entries, or a stage
# table's length); in-budget instances needing more are refused, not run.
_TABLE_LIMIT = 1 << 22

# Matrices decoded per chunk of a streamed (never materialized) space.
_CHUNK_MATRICES = 1 << 16

# (g, f) keys formed per batched lookup of a stage transfer. Peak memory
# stays flat at 2^15; 2^20 raised the peak RSS of `macmahon all` by 10 MB.
_CHUNK_KEYS = 1 << 15

Matrix = tuple[tuple[int, ...], ...]


class BudgetExceededError(RuntimeError):
    """The raw search space exceeds the instance budget."""


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


@dataclass(frozen=True)
class ChainInstance:
    """Chain data: maps f_i between the mu-stages and g_i onto the nu-stages,
    intertwined over fixed surjections h_i between the nu-stages."""

    mu: tuple[int, ...]
    nu: tuple[int, ...]
    h: tuple[Matrix, ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        _check_budget(self.budget)


@dataclass(frozen=True)
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


def _rank_mod_p(mat: list[list[int]], p: int) -> int:
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][c] % p != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c] % p, -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][c] % p:
                f = a[r][c] % p
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def is_surjective(mat: Matrix, p: int) -> bool:
    """Rank equals the target dimension, by exact elimination mod p."""
    rows = len(mat)
    if rows == 0:
        return True
    return _rank_mod_p([list(r) for r in mat], p) == rows


def _decode(codes: np.ndarray, a: int, b: int, p: int) -> np.ndarray:
    # Row-major odometer: the (0,0) entry is the most significant digit.
    n = a * b
    out = np.empty((len(codes), n), dtype=np.int64)
    rest = codes.copy()
    for idx in range(n - 1, -1, -1):
        out[:, idx] = rest % p
        rest //= p
    return out.reshape(len(codes), a, b)


def _tabulated_size(a: int, b: int, p: int, width: int) -> int:
    # p^(ab) rows of `width` values each
    size = p ** (a * b)
    if size * width > _TABLE_LIMIT:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} is too large to tabulate ({size * width} values)"
        )
    return size


def _matrix_space(a: int, b: int, p: int) -> np.ndarray:
    size = _tabulated_size(a, b, p, a * b)
    if a * b == 0:
        return np.zeros((1, a, b), dtype=np.int64)
    return _decode(np.arange(size, dtype=np.int64), a, b, p)


def _space_chunks(a: int, b: int, p: int):
    size = p ** (a * b)
    if size >= 1 << 62:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} does not fit 64-bit enumeration"
        )
    if a * b == 0:
        yield np.zeros((1, a, b), dtype=np.int64)
        return
    for start in range(0, size, _CHUNK_MATRICES):
        codes = np.arange(start, min(start + _CHUNK_MATRICES, size), dtype=np.int64)
        yield _decode(codes, a, b, p)


def _det_nonzero(m: np.ndarray, p: int) -> np.ndarray:
    # square blocks of side 1, 2 or 3 only; _surjective_mask ranks larger ones
    if m.shape[1] == 1:
        return m[:, 0, 0] % p != 0
    if m.shape[1] == 2:
        return (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % p != 0
    det = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )
    return det % p != 0


def _surjective_mask(mats: np.ndarray, p: int) -> np.ndarray:
    n, a, b = mats.shape
    if a == 0:
        return np.ones(n, dtype=bool)
    if a > b:
        return np.zeros(n, dtype=bool)
    if a > 3:
        return np.array([_rank_mod_p(m.tolist(), p) == a for m in mats], dtype=bool)
    mask = np.zeros(n, dtype=bool)
    for cols in combinations(range(b), a):
        sub = mats[:, :, cols]
        mask |= _det_nonzero(sub, p)
        if mask.all():
            break
    return mask


def _encode(mats: np.ndarray, p: int) -> np.ndarray:
    # Row-major odometer code of each matrix in the last two axes.
    digits = mats.shape[-2] * mats.shape[-1]
    if p**digits >= 1 << 62:
        raise BudgetExceededError(
            f"product keys with {digits} digits over F_{p} do not fit 64 bits"
        )
    powers = p ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    return mats.reshape(*mats.shape[:-2], digits) @ powers


@lru_cache(maxsize=64)
def _surjective_space(a: int, b: int, p: int) -> np.ndarray:
    """Every surjective a x b matrix over F_p, in odometer order, as one
    read-only (n, a, b) array shared by all callers."""
    space = _matrix_space(a, b, p)
    mats = space[_surjective_mask(space, p)]
    mats.flags.writeable = False
    return mats


def _transfer(table: np.ndarray, g: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    """out[i] = sum of table[key(g_i f_j mod p)] over every f_j."""
    out = np.zeros(len(g), dtype=np.int64)
    step = max(1, _CHUNK_KEYS // len(g))
    for start in range(0, len(f), step):
        prods = np.matmul(g[:, None], f[None, start : start + step])
        prods %= p
        out += table[_encode(prods, p)].sum(axis=1)
    return out


def _validated_h(
    mu: tuple[int, ...], nu: tuple[int, ...], h: tuple[Matrix, ...] | None, p: int
) -> tuple[Matrix, ...]:
    k = len(mu)
    if h is None:
        return tuple(canonical_surjection(nu[i + 1], nu[i]) for i in range(k - 1))
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
        if not is_surjective(reduced, p):
            raise ValueError(f"intertwining map {i} is not surjective mod {p}")
        out.append(reduced)
    return tuple(out)


def count_chain_points(inst: ChainInstance, p: int) -> int:
    """Exact number of chain tuples ((f_i), (g_i)) over F_p satisfying
    g_{i+1} f_i = h_i g_i with every f_i and g_i surjective.

    The sum over tuples is a staged transfer. The stage-0 table counts the
    surjective g_0 by the value of h_0 g_0. At stage i every pair of
    surjective (g_i, f_{i-1}) looks up the product g_i f_{i-1} in the
    previous table, which gives the number of partial tuples ending in g_i;
    those numbers fill the next table, keyed by h_i g_i. Every matrix of
    every map is enumerated; the tables only reorder the exact count.
    """
    mu, nu = _normalize_chain(inst.mu, inst.nu)
    entries = chain_entry_count(mu, nu)
    _check_search(p, entries, inst.budget)
    h = _validated_h(mu, nu, inst.h, p)
    k = len(mu)

    if k == 1:
        total = 0
        for mats in _space_chunks(nu[0], mu[0], p):
            total += int(_surjective_mask(mats, p).sum())
        return total

    if p**entries >= 1 << 63:
        raise BudgetExceededError(f"{p}^{entries} tuples do not fit 64-bit counts")
    g = _surjective_space(nu[0], mu[0], p)
    weights = np.ones(len(g), dtype=np.int64)
    for stage in range(1, k):
        h_prev = np.array(h[stage - 1], dtype=np.int64).reshape(nu[stage], nu[stage - 1])
        table = np.zeros(_tabulated_size(nu[stage], mu[stage - 1], p, 1), dtype=np.int64)
        np.add.at(table, _encode(np.matmul(h_prev, g) % p, p), weights)
        g = _surjective_space(nu[stage], mu[stage], p)
        weights = _transfer(table, g, _surjective_space(mu[stage], mu[stage - 1], p), p)
    return int(weights.sum())


def _mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(row[x] * b[x][c] for x in range(inner)) % p for c in range(cols))
        for row in a
    )


def count_grid_points(inst: GridInstance, p: int) -> int:
    """Exact number of grid tuples (B1, B2 maps) over F_p with every map
    surjective and every square commuting.

    Each map has a position in the walk (every B1, from box (i, j) onto
    (i+1, j), then every B2, onto (i, j+1)) and the surjective matrices of its
    space as candidates. Every tuple of the product is tested on each square
    B1(i, j+1) B2(i, j) = B2(i+1, j) B1(i, j), a quadruple of positions.
    """
    pi = inst.partition
    _check_search(p, grid_entry_count(pi), inst.budget)
    position: dict[tuple[str, int, int], int] = {}
    candidates: list[list[Matrix]] = []
    for kind, di, dj in (("B1", 1, 0), ("B2", 0, 1)):
        for i, j in pi.support():
            rows = pi.entry(i + di, j + dj)
            if rows > 0:
                position[kind, i, j] = len(candidates)
                space = _matrix_space(rows, pi.entry(i, j), p)
                # per matrix: one tolist() of the whole space raised peak RSS
                candidates.append(
                    [tuple(map(tuple, m.tolist())) for m in space[_surjective_mask(space, p)]]
                )
    squares = [
        (position["B1", i, j + 1], position["B2", i, j],
         position["B2", i + 1, j], position["B1", i, j])
        for i, j in pi.support()
        if pi.entry(i + 1, j + 1) > 0
    ]
    count = 0
    for combo in product(*candidates):
        for a, b, c, d in squares:
            if _mat_mul(combo[a], combo[b], p) != _mat_mul(combo[c], combo[d], p):
                break
        else:
            count += 1
    return count


def surjective_h_choices(rows: int, cols: int, p: int) -> list[Matrix]:
    """All surjective rows x cols matrices over F_p, in odometer order."""
    return [tuple(map(tuple, m)) for m in _surjective_space(rows, cols, p).tolist()]


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
