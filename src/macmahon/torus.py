"""Tangent weights at big-torus fixed points and attracting-set dimensions.

A fixed point of the full (r+2)-dimensional torus is indexed by an r-tuple
of Young diagrams. Each tangent weight is recorded as (i, j, k1, k2),
meaning e_j e_i^{-1} t1^k1 t2^k2 with 1-based framing indices; terms form a
multiset and are never deduplicated.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .partitions import DiagramTuple, PlanePartition, chi, exact_int
from .series import CELL_LIMIT, BudgetExceededError


def tangent_character(tuples: Sequence[DiagramTuple], r: int, n: int) -> tuple[np.ndarray, ...]:
    """Tangent weights (I, J, k1, k2) of T tuples, each of rank r and weight
    n, as arrays of shape (T, 2, n, r), and each tuple's plane partition as a
    table of shape (T, n+1, n+1) whose entry (a, b) counts the diagrams
    holding box (a, b). The weights are the one transcription of

        sum_{i,j} e_j e_i^{-1} ( sum_{s in D_i} t1^(-leg_{D_j}(s)) t2^(arm_{D_i}(s) + 1)
                               + sum_{s in D_j} t1^(leg_{D_i}(s) + 1) t2^(-arm_{D_j}(s)) ).

    Kind 0 pairs box s = (a, b) of its owner D_i with every D_j: k1 = a + 1 -
    col_j(b), k2 = row_i(a) - b. Kind 1 pairs box s of its owner D_j with
    every D_i: k1 = col_i(b) - a, k2 = b + 1 - row_j(a). Arms and legs are
    taken across diagrams, so they can be negative. A trivial weight (i = j,
    k1 = k2 = 0) would make the fixed point non-isolated and is refused.

    The largest array holds the column heights, read off a table of r(n+1)^2
    cells per tuple (row a of diagram i against column b). A batch with
    T(r^2 + 2rn^2) past CELL_LIMIT is refused first, which keeps that table
    within it. An empty batch, or a tuple of another rank or weight, is a
    ValueError.
    """
    steps = len(tuples) * (r * r + 2 * r * n * n)
    if steps > CELL_LIMIT:
        batch = f" for {len(tuples)} tuples" if len(tuples) > 1 else ""
        raise BudgetExceededError(
            f"the tangent character of rank {r} and weight {n} takes {steps} steps{batch},"
            f" over the limit {CELL_LIMIT}"
        )
    if not tuples:
        raise ValueError("no diagram tuples to take the tangent character of")
    # each diagram's first n + 1 rows: a diagram of weight n has no more, and
    # one with more still sums past n
    pad = (0,) * (n + 1)
    try:
        rows = np.array([[(d.rows + pad)[: n + 1] for d in tup.diagrams] for tup in tuples], np.int64)
    except (ValueError, OverflowError):  # ranks that differ, or a row past int64
        rows = None
    if rows is None or rows.shape != (len(tuples), r, n + 1) or (rows.sum(axis=(1, 2)) != n).any():
        raise ValueError(f"every diagram tuple must have rank {r} and weight {n}")
    # inside[t, i, a, b]: box (a, b) lies in diagram i of tuple t
    inside = rows[..., None] > np.arange(n + 1)
    cols = inside.sum(axis=2)
    # every tuple's n boxes: owner, row a, column b
    t, own, a, b = (x.reshape(len(tuples), n) for x in inside.nonzero())
    col_all = cols.transpose(0, 2, 1)[t, b]
    row_own = rows[t, own, a]
    k1 = np.stack([a[..., None] + 1 - col_all, col_all - a[..., None]], axis=1)
    k2 = np.broadcast_to(np.stack([row_own - b, b + 1 - row_own], axis=1)[..., None], k1.shape)
    owner = np.broadcast_to((own + 1)[:, None, :, None], (len(tuples), 1, n, r))
    other = np.broadcast_to(np.arange(1, r + 1), owner.shape)
    i, j = np.concatenate([owner, other], 1), np.concatenate([other, owner], 1)
    if ((i == j) & (k1 == 0) & (k2 == 0)).any():
        raise ValueError("trivial weight: fixed points must be isolated")
    return i, j, k1, k2, inside.sum(axis=1)


def positive_weight_count(k1: np.ndarray, k2: np.ndarray, alpha: int) -> np.ndarray:
    """Per tuple, the number of tangent weights with k1 + alpha * k2 > 0, for
    the (T, 2, n, r) arrays of tangent_character.

    The framing directions carry no pairing: terms are classified purely by
    (k1, k2). Once alpha exceeds every |k1| (at most n <= 707 in any
    character tangent_character admits) each sign is k2's, or k1's where
    k2 = 0, so alpha is capped at 2^31 and stays exact past int64.
    """
    if exact_int(alpha) < 1:
        raise ValueError("alpha must be positive")
    return (k1 + min(alpha, 1 << 31) * k2 > 0).sum(axis=(1, 2, 3))


def attracting_dimension(pi: PlanePartition, r: int) -> int:
    """Closed form for the attracting-fiber dimension: r * |pi| + chi(pi)."""
    if exact_int(r) < 1:
        raise ValueError("rank must be positive")
    if pi.first_entry > r:
        raise ValueError(f"corner entry {pi.first_entry} exceeds rank {r}")
    return r * pi.weight + chi(pi)
