"""Vuletic's two-variable box weights for plane partitions and the two
sides of the weighted MacMahon identity

    sum_pi F_pi(q, t) s^|pi|  =  prod_{n>=1} prod_{k>=0} ((1 - t s^n q^k) / (1 - s^n q^k))^n.

Weights are kept in factored form end to end; expansion happens only at the
identity-verification boundary, from memoized, shared read-only products.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from functools import lru_cache

from .partitions import PlanePartition, enumerate_plane_partitions, exact_int
from .series import BudgetExceededError, FactorProduct, TruncatedSeries, TruncationProfile, expand_sum

# Most work a sum over plane partitions may do: the partitions of size at
# most the order times the cells of the profile (605,836 at s10 q6 t6), an
# upper bound on the expansion work, since each factor multiset expands once.
SUM_LIMIT = 10**7


def check_partition_sum(order: int, profile: TruncationProfile) -> None:
    """Refuse (BudgetExceededError), before any is enumerated, a sum over the
    plane partitions of size <= order whose count times cells passes
    SUM_LIMIT (a negative order is a ValueError). The counts a_n of MacMahon's
    series prod_k (1 - s^k)^-k follow its log-derivative: n a_n = sum_{j<=n} sigma_2(j) a_{n-j}."""
    if order < 0:
        raise ValueError("weight must be nonnegative")
    most = SUM_LIMIT // profile.cells
    counts = [1]
    while len(counts) <= order and sum(counts) <= most:
        n = len(counts)
        sigma2 = [sum(d * d for d in range(1, j + 1) if j % d == 0) for j in range(n + 1)]
        counts.append(sum(sigma2[j] * counts[n - j] for j in range(1, n + 1)) // n)
    if sum(counts) > most:
        raise BudgetExceededError(
            f"{sum(counts)} or more plane partitions of size <= {order} times"
            f" {profile.cells} cells exceed the limit {SUM_LIMIT}"
        )


@lru_cache(maxsize=None, typed=True)
def little_f(n: int, m: int) -> FactorProduct:
    """prod_{i<n} (1 - q^i t^(m+1)) / (1 - q^(i+1) t^m); 1 when n = 0. Shared."""
    if exact_int(n) < 0 or exact_int(m) < 0:
        raise ValueError("little_f needs nonnegative arguments")
    return FactorProduct.prod(
        (FactorProduct.from_factor({"q": i, "t": m + 1}) for i in range(n)),
        (FactorProduct.from_factor({"q": i + 1, "t": m}) for i in range(n)),
    )


def box_weight(pi: PlanePartition, i: int, j: int) -> FactorProduct:
    """Weight of box (i, j): the product over levels m of

        f(a - mu_{m+1}, m) f(a - nu_{m+1}, m) / (f(a - lam_{m+1}, m) f(a - lam_{m+2}, m))

    where a = pi[i,j] and lam_k = pi[i+k-1, j+k-1], mu_k = pi[i+k, j+k-1],
    nu_k = pi[i+k-1, j+k] run down the diagonals through the box and its
    lower/right neighbors. Since mu_k, nu_k <= lam_k, every level past the
    positive lam_k collapses to 1. The cutoff is checked, not trusted: the
    little_f(n, m) with n >= 1 are multiplicatively independent, so the next
    level is 1 exactly when {mu_{m+1}, nu_{m+1}} = {0, lam_{m+2}} as multisets."""
    if pi.entry(i, j) <= 0:
        raise ValueError(f"box ({i}, {j}) outside the support")
    return _weight(pi, [(i, j)])


def vuletic_weight(pi: PlanePartition) -> FactorProduct:
    """Product of the box weights over the support; 1 for the empty partition."""
    return _weight(pi, pi.support())


def _weight(pi: PlanePartition, boxes: Iterable[tuple[int, int]]) -> FactorProduct:
    """box_weight's product over the boxes, as prod little_f(n, m)^c over one
    tally c of (n, m), n >= 1, read off the rows padded with zeros."""
    width = max(map(len, pi.rows), default=0) + 2
    grid = [row + (0,) * (width - len(row)) for row in pi.rows] + [(0,) * width] * 2
    tally: dict[tuple[int, int], int] = {}
    for i, j in boxes:
        a, m = grid[i][j], 0
        while True:
            lam, nu, mu, lam2 = grid[i + m][j + m:j + m + 2] + grid[i + m + 1][j + m:j + m + 2]
            if not lam:
                break
            for n, sign in ((a - mu, 1), (a - nu, 1), (a - lam, -1), (a - lam2, -1)):
                if n:
                    tally[n, m] = tally.get((n, m), 0) + sign
            m += 1
        if mu and nu or mu + nu != lam2:  # the level past the cut is not 1
            raise RuntimeError(f"box weight cutoff unstable at box ({i}, {j}) of {pi!r}")
    factors: dict = {}
    for (n, m), c in tally.items():
        for key, mult in little_f(n, m).factors.items():
            factors[key] = factors.get(key, 0) + c * mult
    return FactorProduct(factors={key: mult for key, mult in factors.items() if mult})


def vuletic_weight_t0(pi: PlanePartition) -> FactorProduct:
    """The t = 0 specialization of the weight, a product in q alone."""
    return vuletic_weight(pi).substitute_zero("t")


def partition_sum(order: int, profile: TruncationProfile, term: Callable[[PlanePartition], FactorProduct],
                  max_first_entry: int | None = None) -> TruncatedSeries:
    """Sum of term(pi) expanded to the caps, over the plane partitions pi of
    size <= order (corner entry <= max_first_entry when given); refused by
    check_partition_sum before any is enumerated. Like terms (equal under ==)
    are counted, and expand_sum expands the terms of each factor multiset
    together, in one array."""
    check_partition_sum(order, profile)
    terms = Counter(term(pi) for w in range(order + 1) for pi in enumerate_plane_partitions(w, max_first_entry))
    return expand_sum(profile, terms)


def vuletic_lhs(s_order: int, profile: TruncationProfile) -> TruncatedSeries:
    """Sum over all plane partitions of weight(pi) * s^|pi|, to the caps."""
    if profile.cap("s") != s_order:
        raise ValueError("profile must cap s at the requested order")
    return partition_sum(
        s_order, profile, lambda pi: vuletic_weight(pi) * FactorProduct.monomial({"s": pi.weight})
    )


def vuletic_rhs(s_order: int, profile: TruncationProfile) -> TruncatedSeries:
    """The double product side, expanded to the caps.

    Only the factors whose monomial s^n q^k fits under the s and q caps are
    included; all others contribute 1 (their lowest non-constant monomial
    already exceeds the caps). The n-th power is taken on multiplicities.
    """
    if profile.cap("s") != s_order:
        raise ValueError("profile must cap s at the requested order")
    nk = [(n, k) for n in range(1, s_order + 1) for k in range(profile.cap("q") + 1)]
    return FactorProduct.prod(
        (FactorProduct.from_factor({"t": 1, "s": n, "q": k}, n) for n, k in nk),
        (FactorProduct.from_factor({"s": n, "q": k}, n) for n, k in nk),
    ).expand(profile)
