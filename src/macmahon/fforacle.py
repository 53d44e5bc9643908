"""Brute-force point counts of surjection varieties over small prime fields.

The oracle is deliberately independent of the class formulas: it enumerates
matrix tuples over F_p exhaustively and counts those satisfying the defining
conditions (intertwining / commuting squares, full surjectivity). Nothing is
sampled and nothing is pruned. For chains the enumeration is reorganized --
exactly, by bucketing tuples on a shared boundary product -- so that large
in-budget instances finish quickly; every matrix of every map is still
visited. Grids use the plain product enumeration over per-map matrix lists.

Counts are exact; the budget guard refuses instances whose raw search space
p^(number of free entries) exceeds the instance budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .motivic import _normalize_chain, commuting_grid_class, surjective_chain_class
from .partitions import PlanePartition

DEFAULT_BUDGET = 10**8

# Largest matrix space materialized as one array; in-budget instances whose
# intermediate tables would exceed this are refused rather than mis-counted.
_TABLE_LIMIT = 1 << 22

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


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
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


def _space_size(a: int, b: int, p: int) -> int:
    return p ** (a * b)


def _decode(codes: np.ndarray, a: int, b: int, p: int) -> np.ndarray:
    # Row-major odometer: the (0,0) entry is the most significant digit.
    n = a * b
    out = np.empty((len(codes), n), dtype=np.int64)
    rest = codes.copy()
    for idx in range(n - 1, -1, -1):
        out[:, idx] = rest % p
        rest //= p
    return out.reshape(len(codes), a, b)


def _matrix_space(a: int, b: int, p: int) -> np.ndarray:
    size = _space_size(a, b, p)
    if size > _TABLE_LIMIT:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} is too large to tabulate ({size} matrices)"
        )
    if a * b == 0:
        return np.zeros((1, a, b), dtype=np.int64)
    return _decode(np.arange(size, dtype=np.int64), a, b, p)


def _space_chunks(a: int, b: int, p: int, chunk: int = 1 << 16):
    size = _space_size(a, b, p)
    if size >= 1 << 62:
        raise BudgetExceededError(
            f"matrix space {a}x{b} over F_{p} does not fit 64-bit enumeration"
        )
    if a * b == 0:
        yield np.zeros((1, a, b), dtype=np.int64)
        return
    for start in range(0, size, chunk):
        codes = np.arange(start, min(start + chunk, size), dtype=np.int64)
        yield _decode(codes, a, b, p)


def _det_nonzero(mats: np.ndarray, p: int) -> np.ndarray:
    a = mats.shape[1]
    if a == 1:
        return mats[:, 0, 0] % p != 0
    if a == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        return det % p != 0
    if a == 3:
        m = mats
        det = (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        )
        return det % p != 0
    return np.array([_rank_mod_p(m.tolist(), p) == a for m in mats], dtype=bool)


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
    n = mats.shape[0]
    flat = mats.reshape(n, -1)
    digits = flat.shape[1]
    if digits == 0:
        return np.zeros(n, dtype=np.int64)
    if p**digits >= 1 << 62:
        raise BudgetExceededError(
            f"product keys with {digits} digits over F_{p} do not fit 64 bits"
        )
    powers = p ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    return flat @ powers


class _Bucket:
    """Sorted-key multiset of int64 keys with integer weights."""

    __slots__ = ("keys", "weights")

    def __init__(self, keys: np.ndarray, weights: np.ndarray):
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.weights = weights[order]

    @classmethod
    def from_stream(cls, pairs) -> "_Bucket":
        acc: dict[int, int] = {}
        for keys, weights in pairs:
            for key, w in zip(keys.tolist(), weights.tolist()):
                acc[key] = acc.get(key, 0) + w
        items = sorted(acc.items())
        return cls(
            np.array([k for k, _ in items], dtype=np.int64),
            np.array([w for _, w in items], dtype=np.int64),
        )

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        if len(self.keys) == 0:
            return np.zeros(len(keys), dtype=np.int64)
        idx = np.searchsorted(self.keys, keys)
        idx = np.clip(idx, 0, len(self.keys) - 1)
        hit = self.keys[idx] == keys
        return np.where(hit, self.weights[idx], 0)


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
        well_formed = len(mat) == rows and all(
            isinstance(row, (tuple, list)) and len(row) == cols for row in mat
        )
        if not well_formed:
            raise ValueError(f"map {i} must be {rows}x{cols}")
        reduced = tuple(tuple(int(v) % p for v in row) for row in mat)
        if not is_surjective(reduced, p):
            raise ValueError(f"intertwining map {i} is not surjective mod {p}")
        out.append(reduced)
    return tuple(out)


def count_chain_points(inst: ChainInstance, p: int) -> int:
    """Exact number of chain tuples ((f_i), (g_i)) over F_p satisfying
    g_{i+1} f_i = h_i g_i with every f_i and g_i surjective.

    The sum over tuples is organized stage by stage: tuples are grouped by
    the value of the boundary product h_i g_i, which determines admissibility
    of the next stage. Every matrix of every map is enumerated; the grouping
    only reorders the exact count.
    """
    _require_prime(p)
    mu, nu = _normalize_chain(inst.mu, inst.nu)
    h = _validated_h(mu, nu, inst.h, p)
    entries = chain_entry_count(mu, nu)
    if p**entries > inst.budget:
        raise BudgetExceededError(
            f"p^{entries} = {p ** entries} tuples exceeds the budget {inst.budget}"
        )
    k = len(mu)

    if k == 1:
        total = 0
        for mats in _space_chunks(nu[0], mu[0], p):
            total += int(_surjective_mask(mats, p).sum())
        return total

    # bucket over the first stage, keyed by h_0 g_0
    h0 = np.array(h[0], dtype=np.int64).reshape(nu[1], nu[0])

    def first_stage():
        for mats in _space_chunks(nu[0], mu[0], p):
            mask = _surjective_mask(mats, p)
            prods = np.matmul(h0, mats[mask]) % p
            yield _encode(prods, p), np.ones(int(mask.sum()), dtype=np.int64)

    bucket = _Bucket.from_stream(first_stage())

    for stage in range(1, k):
        g_space = _matrix_space(nu[stage], mu[stage], p)
        g_mask = _surjective_mask(g_space, p)
        acc = np.zeros(len(g_space), dtype=np.int64)
        for f_mats in _space_chunks(mu[stage], mu[stage - 1], p):
            f_mask = _surjective_mask(f_mats, p)
            for f in f_mats[f_mask]:
                prods = np.matmul(g_space, f) % p
                acc += bucket.lookup(_encode(prods, p))
        if stage == k - 1:
            return int(acc[g_mask].sum())
        h_next = np.array(h[stage], dtype=np.int64).reshape(nu[stage + 1], nu[stage])
        keys = _encode(np.matmul(h_next, g_space[g_mask]) % p, p)
        bucket = _Bucket.from_stream([(keys, acc[g_mask])])
    raise AssertionError("unreachable")


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

    Enumerates, for each map, its full matrix space (keeping the surjective
    ones, since non-surjective choices contribute zero), then walks the
    product in canonical map order and tests the commuting squares.
    """
    _require_prime(p)
    pi = inst.partition
    entries = grid_entry_count(pi)
    if p**entries > inst.budget:
        raise BudgetExceededError(
            f"p^{entries} = {p ** entries} tuples exceeds the budget {inst.budget}"
        )
    map_specs: list[tuple[str, int, int, int, int]] = []
    for i, j in pi.support():
        if pi.entry(i + 1, j) > 0:
            map_specs.append(("B1", i, j, pi.entry(i + 1, j), pi.entry(i, j)))
    for i, j in pi.support():
        if pi.entry(i, j + 1) > 0:
            map_specs.append(("B2", i, j, pi.entry(i, j + 1), pi.entry(i, j)))

    candidates: list[list[Matrix]] = []
    for _, _, _, rows, cols in map_specs:
        space = _matrix_space(rows, cols, p)
        mask = _surjective_mask(space, p)
        candidates.append(
            [tuple(tuple(int(v) for v in row) for row in m) for m in space[mask]]
        )

    squares = [(i, j) for i, j in pi.support() if pi.entry(i + 1, j + 1) > 0]
    if not map_specs:
        return 1

    keys = [(kind, i, j) for kind, i, j, _, _ in map_specs]
    count = 0
    for combo in product(*candidates):
        chosen = dict(zip(keys, combo))
        ok = True
        for i, j in squares:
            left = _mat_mul(chosen[("B1", i, j + 1)], chosen[("B2", i, j)], p)
            right = _mat_mul(chosen[("B2", i + 1, j)], chosen[("B1", i, j)], p)
            if left != right:
                ok = False
                break
        count += ok
    return count


def surjective_h_choices(rows: int, cols: int, p: int) -> list[Matrix]:
    """All surjective rows x cols matrices over F_p, in odometer order."""
    space = _matrix_space(rows, cols, p)
    mask = _surjective_mask(space, p)
    return [tuple(tuple(int(v) for v in row) for row in m) for m in space[mask]]


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
