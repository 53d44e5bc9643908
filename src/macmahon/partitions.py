"""Young diagrams, plane partitions, and r-tuples of diagrams.

Boxes are (row, column) pairs, zero-indexed. Entries read outside the
stored support are 0, so every object behaves as if extended by zeros in
all directions. All types are frozen dataclasses: a field write raises
FrozenInstanceError (an AttributeError), and equal values hash equally.
All operations are pure; enumerators are restartable and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


def exact_int(value) -> int:
    """The value itself if its type is int. Input is never coerced: 1.5 or
    True is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def exact_ints(values) -> list[int]:
    """The entries of a list or tuple of ints, as a new list; a dict in place
    of the list, or an entry that exact_int rejects, is a ValueError."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {values!r}")
    for v in values:
        if type(v) is not int:  # exact_int's test, inline on this hot path
            raise ValueError(f"expected an integer, got {v!r}")
    return list(values)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class YoungDiagram:
    """Weakly decreasing finite sequence of positive row lengths."""

    rows: tuple[int, ...]

    def __init__(self, rows: Sequence[int] = ()):
        cleaned = exact_ints(rows)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(f"row lengths must be weakly decreasing: {list(rows)}")
        if cleaned and cleaned[-1] < 1:
            raise ValueError(f"row lengths must be positive: {list(rows)}")
        object.__setattr__(self, "rows", tuple(cleaned))

    @property
    def weight(self) -> int:
        return sum(self.rows)

    def to_list(self) -> list[int]:
        return list(self.rows)

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self.rows)})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PlanePartition:
    """2-D array of nonnegative integers with nonincreasing rows and columns.

    Stored dense, with trailing zero rows and columns trimmed to a canonical
    form. Out-of-range reads return 0.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int]] = ()):
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"expected a list of rows, got {rows!r}")
        trimmed: list[tuple[int, ...]] = []
        for raw in rows:
            row = exact_ints(raw)
            while row and row[-1] == 0:
                row.pop()
            trimmed.append(tuple(row))
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        for row in trimmed:
            if any(v < 0 for v in row):
                raise ValueError("entries must be nonnegative")
            if any(a < b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must be weakly decreasing: {row}")
            if not row:
                raise ValueError("interior all-zero row")
        for upper, lower in zip(trimmed, trimmed[1:]):
            if len(lower) > len(upper):
                raise ValueError("columns must be weakly decreasing")
            if any(a < b for a, b in zip(upper, lower)):
                raise ValueError("columns must be weakly decreasing")
        object.__setattr__(self, "rows", tuple(trimmed))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> PlanePartition:
        """Rows the package built already trimmed and valid, stored unchecked;
        input from outside the package goes through the checks of __init__."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "rows", rows)
        return pi

    def entry(self, i: int, j: int) -> int:
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    @property
    def weight(self) -> int:
        return sum(sum(row) for row in self.rows)

    @property
    def first_entry(self) -> int:
        """The corner entry; bounds every other entry."""
        return self.entry(0, 0)

    def support(self) -> Iterator[tuple[int, int]]:
        """Boxes with a positive entry, in row-major order."""
        for i, row in enumerate(self.rows):
            for j in range(len(row)):
                yield (i, j)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"PlanePartition({self.to_lists()})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class DiagramTuple:
    """Ordered tuple of Young diagrams; indexes a big-torus fixed point."""

    diagrams: tuple[YoungDiagram, ...]

    def __init__(self, diagrams: Sequence[YoungDiagram]):
        if not diagrams:
            raise ValueError("a diagram tuple needs at least one slot")
        object.__setattr__(self, "diagrams", tuple(diagrams))

    @property
    def rank(self) -> int:
        return len(self.diagrams)

    @property
    def total_weight(self) -> int:
        return sum(d.weight for d in self.diagrams)

    def to_lists(self) -> list[list[int]]:
        return [d.to_list() for d in self.diagrams]

    def __repr__(self) -> str:
        return f"DiagramTuple({self.to_lists()})"


def _decreasing_rows(
    bound: tuple[int, ...] | None, head_cap: int, budget: int
) -> Iterator[tuple[int, ...]]:
    # Nonempty weakly decreasing positive rows, pointwise below `bound`
    # (None = no bound), first entry <= head_cap, sum <= budget.
    # Emitted in descending lexicographic order.
    if budget == 0 or head_cap == 0:
        return
    if bound is not None and (not bound or bound[0] == 0):
        return
    top = min(head_cap, budget)
    if bound is not None:
        top = min(top, bound[0])
    tail_bound = bound[1:] if bound is not None else None
    for v in range(top, 0, -1):
        for rest in _decreasing_rows(tail_bound, v, budget - v):
            yield (v,) + rest
        yield (v,)


def enumerate_plane_partitions(
    n: int, max_first_entry: int | None = None
) -> Iterator[PlanePartition]:
    """All plane partitions of weight exactly n, each exactly once.

    With max_first_entry given, only partitions whose corner entry is at
    most that bound are produced. Order is deterministic: descending
    lexicographic on the tuple of rows, so the largest entries come first
    ([[2]], [[1,1]], [[1],[1]] for n = 2).
    """
    if exact_int(n) < 0:
        raise ValueError("weight must be nonnegative")
    if max_first_entry is not None and exact_int(max_first_entry) < 0:
        raise ValueError("max_first_entry must be nonnegative")
    cap = n if max_first_entry is None else min(max_first_entry, n)

    def rec(prev: tuple[int, ...] | None, remaining: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if remaining == 0:
            yield ()
            return
        head = cap if prev is None else remaining
        for row in _decreasing_rows(prev, head, remaining):
            for tail in rec(row, remaining - sum(row)):
                yield (row,) + tail

    for rows in rec(None, n):
        yield PlanePartition._trusted(rows)


def enumerate_diagram_tuples(r: int, n: int) -> Iterator[DiagramTuple]:
    """All r-tuples of Young diagrams with total weight n, each exactly once.

    Deterministic order: weight of the leading diagram descends first, then
    diagrams in descending lexicographic order, then the remaining slots
    recursively.
    """
    if exact_int(r) < 1:
        raise ValueError("rank must be positive")
    if exact_int(n) < 0:
        raise ValueError("weight must be nonnegative")
    # every diagram of size <= n, grouped by size, each group in descending
    # lexicographic order
    by_weight = {0: [YoungDiagram(())]}
    for rows in _decreasing_rows(None, n, n):
        by_weight.setdefault(sum(rows), []).append(YoungDiagram(rows))

    def rec(slots: int, remaining: int) -> Iterator[tuple[YoungDiagram, ...]]:
        if slots == 1:
            for d in by_weight[remaining]:
                yield (d,)
            return
        for w in range(remaining, -1, -1):
            for d in by_weight[w]:
                for rest in rec(slots - 1, remaining - w):
                    yield (d,) + rest

    for diagrams in rec(r, n):
        yield DiagramTuple(diagrams)


def chi(pi: PlanePartition) -> int:
    """Sum of entry * (entry - right neighbor) over all boxes."""
    return sum(a * (a - b) for row in pi.rows for a, b in zip(row, row[1:] + (0,)))
