"""Tangent weights at big-torus fixed points and attracting-set dimensions.

A fixed point of the full (r+2)-dimensional torus is indexed by an r-tuple
of Young diagrams. Each tangent weight is recorded as (i, j, k1, k2),
meaning e_j e_i^{-1} t1^k1 t2^k2 with 1-based framing indices; terms form a
multiset and are never deduplicated.
"""

from __future__ import annotations

from collections import Counter

from .partitions import DiagramTuple, PlanePartition, chi
from .series import CELL_LIMIT, BudgetExceededError


class TangentCharacter:
    """Multiset of tangent weights at a fixed point."""

    __slots__ = ("terms",)

    def __init__(self, terms: Counter):
        for (i, j, k1, k2), mult in terms.items():
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if i == j and k1 == 0 and k2 == 0:
                raise ValueError("trivial weight: fixed points must be isolated")
        self.terms = Counter(terms)

    def size(self) -> int:
        """Total multiplicity; equals twice rank times weight."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, int, int, int], int]]:
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TangentCharacter) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"TangentCharacter({self.size()} weights)"


def tangent_character(tup: DiagramTuple) -> TangentCharacter:
    """Tangent weights at the fixed point of a diagram tuple:

        sum_{i,j} e_j e_i^{-1} ( sum_{s in D_i} t1^(-leg_{D_j}(s)) t2^(arm_{D_i}(s) + 1)
                               + sum_{s in D_j} t1^(leg_{D_i}(s) + 1) t2^(-arm_{D_j}(s)) ).

    Arms and legs are taken across diagrams, so they can be negative. The
    r^2 pairs of diagrams and the 2rn weights, each leg read off a column of
    up to n boxes, take r^2 + 2rn^2 steps: past CELL_LIMIT, refused first.
    """
    r, n = tup.rank, tup.total_weight
    steps = r * r + 2 * r * n * n
    if steps > CELL_LIMIT:
        raise BudgetExceededError(
            f"the tangent character of rank {r} and weight {n} takes {steps} steps,"
            f" over the limit {CELL_LIMIT}"
        )
    # each diagram's boxes listed once, not once per pair
    slots = [(d, list(d.boxes())) for d in tup.diagrams]
    terms: Counter = Counter()
    for i0, (di, boxes_i) in enumerate(slots, start=1):
        for j0, (dj, boxes_j) in enumerate(slots, start=1):
            for (a, b) in boxes_i:
                terms[(i0, j0, -dj.leg(a, b), di.arm(a, b) + 1)] += 1
            for (a, b) in boxes_j:
                terms[(i0, j0, di.leg(a, b) + 1, -dj.arm(a, b))] += 1
    return TangentCharacter(terms)


def positive_weight_count(character: TangentCharacter, alpha: int) -> int:
    """Number of tangent weights with k1 + alpha * k2 > 0.

    The framing directions carry no pairing: terms are classified purely by
    (k1, k2). For alpha > total weight + 1 the count is independent of
    alpha, since every |k1| is at most the total weight.
    """
    if alpha < 1:
        raise ValueError("alpha must be positive")
    return sum(
        mult for (_, _, k1, k2), mult in character.terms.items() if k1 + alpha * k2 > 0
    )


def attracting_dimension(pi: PlanePartition, r: int) -> int:
    """Closed form for the attracting-fiber dimension: r * |pi| + chi(pi)."""
    if r < 1:
        raise ValueError("rank must be positive")
    if pi.first_entry > r:
        raise ValueError(f"corner entry {pi.first_entry} exceeds rank {r}")
    return r * pi.weight + chi(pi)
