"""Naive references and helpers that only the tests use: the dict
convolution of truncated series (the reference of the dense expansion
kernel), the pairwise merge of factored products (the reference of
FactorProduct.prod), the transpose of a plane partition, and scalar
elimination mod p (the reference of the oracle's batched rank test)."""

from macmahon.partitions import PlanePartition
from macmahon.series import FactorProduct, TruncatedSeries, TruncationProfile


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
