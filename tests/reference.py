"""Naive references and helpers that only the tests use: the dict
convolution of truncated series (the reference of the dense expansion
kernel), the pairwise merge of factored products (the reference of
FactorProduct.prod), the transpose of a plane partition, scalar
elimination mod p (the reference of the oracle's batched rank test), the
oracle's surjective spaces as tuples, arms, legs and the per-box loop
of the tangent character (the reference of its batched weight kernel), the
diagonal-slice transcription of the box weight (the reference of the one
level tally, box by box and over a whole partition), the per-box
membership count of a diagram tuple's plane partition, the q-factorial
transcription of the box-factorial ratio, the stage-by-stage product of
the chain class (the reference of its derivation from the grid class),
the per-box entry reads of chi,
and the per-partition expansion of a sum over plane partitions, one term at
a time (the reference of partition_sum's counted terms, expanded by
expand_sum one factor multiset at a time). Also the rows of the README's
"Library layout" table, the one list of the package's public names."""

from collections import Counter
from functools import reduce
from pathlib import Path

from macmahon import fforacle
from macmahon.partitions import DiagramTuple, PlanePartition, YoungDiagram, enumerate_plane_partitions
from macmahon.motivic import _normalize_chain
from macmahon.series import FactorProduct, TruncatedSeries, TruncationProfile, gl_class, q_factorial
from macmahon.vuletic import little_f

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows():
    """(module, contents) of each row of the README's "Library layout" table."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`macmahon."):
            yield cells[0].strip("`"), cells[1]


def one(profile: TruncationProfile) -> TruncatedSeries:
    return TruncatedSeries(profile, {(0,) * len(profile.vars): 1})


def monomial(profile: TruncationProfile, exponents, coeff: int = 1) -> TruncatedSeries:
    """coeff times one monomial; the zero series past the caps."""
    vec = profile.vector(exponents)
    return TruncatedSeries(profile, {vec: coeff} if coeff and vec is not None else {})


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Every pair of terms, products past the caps dropped."""
    if a.profile != b.profile:
        raise ValueError(f"profile mismatch: {a.profile!r} vs {b.profile!r}")
    caps = a.profile.caps
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            vec = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= c for x, c in zip(vec, caps)):
                out[vec] = out.get(vec, 0) + c1 * c2
    return TruncatedSeries(a.profile, {v: c for v, c in out.items() if c})


def factor_mul(a: FactorProduct, b: FactorProduct) -> FactorProduct:
    """b's multiplicities merged into a copy of a's, one factor at a time."""
    factors = dict(a.factors)
    for key, m in b.factors.items():
        total = factors.get(key, 0) + m
        if total:
            factors[key] = total
        else:
            del factors[key]
    mono = tuple(x + y for x, y in zip(a.mono, b.mono))
    return FactorProduct(a.coeff * b.coeff, mono, factors)


def factor_inverse(a: FactorProduct) -> FactorProduct:
    return FactorProduct(a.coeff, tuple(-e for e in a.mono), {k: -m for k, m in a.factors.items()})


def transpose(pi: PlanePartition) -> PlanePartition:
    rows = pi.to_lists()
    width = len(rows[0]) if rows else 0
    return PlanePartition([[pi.entry(i, j) for i in range(len(rows))] for j in range(width)])


def rank_mod_p(mat, p: int) -> int:
    """Rank of a matrix (a sequence of rows of ints) by Gauss-Jordan
    elimination mod p, one pivot at a time."""
    a = [[v % p for v in row] for row in mat]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def is_surjective(mat, p: int) -> bool:
    """Rank equals the number of rows."""
    return rank_mod_p(mat, p) == len(mat)


def surjective_h_choices(rows: int, cols: int, p: int) -> list:
    """All surjective rows x cols matrices over F_p, in odometer order, as
    tuples of row tuples."""
    return [tuple(map(tuple, m)) for m in fforacle._surjective_space(rows, cols, p).tolist()]


def arm(d: YoungDiagram, i: int, j: int) -> int:
    """Signed distance to the right edge: the length of row i, less j + 1;
    negative outside."""
    return (d.rows[i] if i < len(d.rows) else 0) - j - 1


def leg(d: YoungDiagram, i: int, j: int) -> int:
    """Signed distance to the bottom edge: column(j) - i - 1; negative outside."""
    return sum(1 for v in d.rows if v > j) - i - 1


def tangent_terms(tup: DiagramTuple) -> Counter:
    """The tangent character's weights, one Counter increment per weight:

        sum_{i,j} e_j e_i^{-1} ( sum_{s in D_i} t1^(-leg_{D_j}(s)) t2^(arm_{D_i}(s) + 1)
                               + sum_{s in D_j} t1^(leg_{D_i}(s) + 1) t2^(-arm_{D_j}(s)) )."""
    slots = [
        (d, [(a, b) for a, length in enumerate(d.rows) for b in range(length)])
        for d in tup.diagrams
    ]
    terms: Counter = Counter()
    for i0, (di, boxes_i) in enumerate(slots, start=1):
        for j0, (dj, boxes_j) in enumerate(slots, start=1):
            for (a, b) in boxes_i:
                terms[(i0, j0, -leg(dj, a, b), arm(di, a, b) + 1)] += 1
            for (a, b) in boxes_j:
                terms[(i0, j0, leg(di, a, b) + 1, -arm(dj, a, b))] += 1
    return terms


def diagonal_partitions(pi: PlanePartition, i: int, j: int) -> tuple[YoungDiagram, ...]:
    """Diagonal slices through (i, j) and through its two neighbors:
    (through, below, right) are the entries (pi[i,j], pi[i+1,j+1], ...),
    (pi[i+1,j], pi[i+2,j+1], ...) and (pi[i,j+1], pi[i+1,j+2], ...) up to the
    first zero. The box must lie in the support."""
    if pi.entry(i, j) <= 0:
        raise ValueError(f"box ({i}, {j}) outside the support")

    def slice_from(i0: int, j0: int) -> YoungDiagram:
        vals = []
        while pi.entry(i0 + len(vals), j0 + len(vals)) > 0:
            vals.append(pi.entry(i0 + len(vals), j0 + len(vals)))
        return YoungDiagram(vals)

    return slice_from(i, j), slice_from(i + 1, j), slice_from(i, j + 1)


def reference_box_weight(pi: PlanePartition, i: int, j: int) -> FactorProduct:
    """The box weight from the diagonal slices lam, mu, nu, with the cut
    max(len(lam), len(mu), len(nu)): the pairwise product of the levels

        f(a - mu_{m+1}, m) f(a - nu_{m+1}, m) / (f(a - lam_{m+1}, m) f(a - lam_{m+2}, m))

    for m up to and including the cut, so a level past the cut that is not 1
    shows as a different weight."""
    slices = diagonal_partitions(pi, i, j)
    cut = max(len(d.rows) for d in slices)
    lam, mu, nu = (d.rows + (0,) * (cut + 2 - len(d.rows)) for d in slices)
    a = lam[0]
    levels = [
        reduce(factor_mul, [little_f(a - mu[m], m), little_f(a - nu[m], m),
                            factor_inverse(little_f(a - lam[m], m)),
                            factor_inverse(little_f(a - lam[m + 1], m))])
        for m in range(cut + 1)
    ]
    return reduce(factor_mul, levels)


def reference_partition_of_tuple(tup: DiagramTuple) -> PlanePartition:
    """Entry (a, b) counts the diagrams that hold box (a, b), box by box."""
    held = Counter((a, b) for d in tup.diagrams for a, length in enumerate(d.rows)
                   for b in range(length))
    depth = 1 + max((a for a, _ in held), default=-1)
    width = 1 + max((b for _, b in held), default=-1)
    return PlanePartition([[held[(a, b)] for b in range(width)] for a in range(depth)])


def reference_box_factorial_ratio(pi: PlanePartition) -> FactorProduct:
    """prod over the boxes of [a - diag]! / ([a - below]! [a - right]!) with
    a = pi[i,j], one q-factorial in L per order."""
    boxes = list(pi.support())
    return FactorProduct.prod(
        (q_factorial(pi.entry(i, j) - pi.entry(i + 1, j + 1), "L") for i, j in boxes),
        (q_factorial(pi.entry(i, j) - pi.entry(i + di, j + dj), "L")
         for i, j in boxes for di, dj in ((1, 0), (0, 1))),
    )


def reference_chain_class(mu, nu) -> FactorProduct:
    """The chain class stage by stage:

        [mu1]! [GL_nu1] / ([nu1]! [mu1-nu1]!)
        * prod_i [mu_i - nu_{i+1}]! [GL_{mu_{i+1}}] / ([mu_i - mu_{i+1}]! [mu_{i+1} - nu_{i+1}]!)
    """
    mu_t, nu_t = _normalize_chain(mu, nu)
    stages = list(zip(mu_t, mu_t[1:], nu_t[1:]))  # (mu_i, mu_{i+1}, nu_{i+1})
    return FactorProduct.prod(
        [q_factorial(mu_t[0], "L"), gl_class(nu_t[0])]
        + [f for a, b, v in stages for f in (q_factorial(a - v, "L"), gl_class(b))],
        [q_factorial(d, "L") for d in (nu_t[0], mu_t[0] - nu_t[0])]
        + [q_factorial(d, "L") for a, b, v in stages for d in (a - b, b - v)],
    )


def reference_chi(pi: PlanePartition) -> int:
    """Sum of entry * (entry - right neighbor) over the boxes, three entry
    reads per box."""
    return sum(pi.entry(i, j) * (pi.entry(i, j) - pi.entry(i, j + 1)) for i, j in pi.support())


def reference_partition_sum(order: int, profile: TruncationProfile, term,
                            max_first_entry: int | None = None) -> TruncatedSeries:
    """Every partition's term expanded on its own and added to the total."""
    total = TruncatedSeries(profile)
    for w in range(order + 1):
        for pi in enumerate_plane_partitions(w, max_first_entry):
            total = total + term(pi).expand(profile)
    return total
