"""Class formulas for torus-fixed loci of framed sheaf moduli on the plane,
their large-rank limits, and the q-series identities they assemble into.

Everything is carried by FactorProduct objects in the variable L (the class
of the affine line). Finite-rank classes must certify as polynomials in L
with exact division; failure raises instead of silently emitting a rational
function, since it would indicate a transcription bug in a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .partitions import PlanePartition, chi, enumerate_plane_partitions, exact_int, exact_ints
from .series import (
    FactorProduct,
    NotPolynomialError,
    TruncatedSeries,
    TruncationProfile,
    gl_class,
    q_factorial,
)
from .vuletic import check_partition_sum, partition_sum, vuletic_weight_t0


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class MotivicClass:
    """A class in the variable L, kept factored and certified a polynomial when built."""

    factors: FactorProduct
    _poly: dict[int, int]

    def __init__(self, factors: FactorProduct):
        var, poly = factors.to_polynomial()
        if var not in (None, "L"):
            raise NotPolynomialError(f"class involves unexpected variable {var!r}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_poly", poly)

    def polynomial(self) -> dict[int, int]:
        """Certified polynomial coefficients {degree: coeff}."""
        return dict(self._poly)

    def evaluate(self, x: int) -> int:
        x = exact_int(x)
        return sum(c * x**d for d, c in self._poly.items())

    def __repr__(self) -> str:
        return f"MotivicClass({self.factors!r})"


def poly_json(poly: dict[int, int]) -> list[list]:
    """{degree: coeff} as [[degree, "coeff"]] pairs by degree, ready for JSON."""
    return [[d, str(poly[d])] for d in sorted(poly)]


def identity_report(lhs: TruncatedSeries, rhs: TruncatedSeries, **params) -> dict:
    """The report of a series identity: the params, "match", and on a
    mismatch the first differing coefficient."""
    report = {**params, "match": lhs == rhs}
    if not report["match"]:
        report["first_difference"] = lhs.first_difference(rhs)
    return report


@lru_cache(maxsize=None, typed=True)
def _rank_ratio(r: int, k: int, var: str) -> FactorProduct:
    """[r]!/[r - k]! = (1 - x^(r-k+1)) ... (1 - x^r), from its k factors
    alone, so neither its cost nor its size grows with the rank r. Shared,
    like q_factorial."""
    return FactorProduct.prod(FactorProduct.from_factor({var: i}) for i in range(r - k + 1, r + 1))


def fixed_component_class(r: int, pi: PlanePartition) -> MotivicClass:
    """Class of the rank-r fixed component indexed by pi:

        [r]!_L / [r - pi00]!_L * prod_boxes [a-diag]! / ([a-below]! [a-right]!)

    Certified as a polynomial in L. Requires pi00 <= r. Shared: one class
    per (r, pi00, box tally), since the class depends on pi through no more.
    """
    if exact_int(r) < 1:
        raise ValueError("rank must be positive")
    if pi.first_entry > r:
        raise ValueError(f"corner entry {pi.first_entry} exceeds rank {r}")
    return _component_class(r, pi.first_entry, _box_tally(pi))


@lru_cache(maxsize=None)
def _component_class(r: int, pi00: int, tally: tuple[int, ...]) -> MotivicClass:
    return MotivicClass(FactorProduct.prod((_rank_ratio(r, pi00, "L"), _tally_product(tally))))


def limit_class(pi: PlanePartition) -> FactorProduct:
    """Large-rank limit of a component class: the box factorial ratio
    prod_boxes [a-diag]! / ([a-below]! [a-right]!), a power series in L.
    Shared, like q_factorial."""
    return _tally_product(_box_tally(pi))


def _box_tally(pi: PlanePartition) -> tuple[int, ...]:
    """The multiplicities of (1 - L^k), k = 1..pi00, in the box factorial ratio."""
    # a = pi[i,j]; boxes outside the support contribute 1. [n]! holds
    # (1 - L^k) once for each k <= n, so the multiplicity of (1 - L^k) is
    # the number of numerator orders >= k less the denominator orders >= k.
    tally = [0] * (pi.first_entry + 1)
    for row, below in zip(pi.rows, pi.rows[1:] + ((),)):
        below += (0,) * (len(row) + 1 - len(below))
        for a, right, b, diag in zip(row, row[1:] + (0,), below, below[1:]):
            tally[a - diag] += 1
            tally[a - b] -= 1
            tally[a - right] -= 1
    for k in range(len(tally) - 2, 0, -1):
        tally[k] += tally[k + 1]
    return tuple(tally[1:])


@lru_cache(maxsize=None)
def _tally_product(tally: tuple[int, ...]) -> FactorProduct:
    # (0, 0, 0, k) is L^k: L is the last letter of the alphabet
    return FactorProduct(factors={(0, 0, 0, k): m for k, m in enumerate(tally, 1) if m})


def _normalize_chain(mu: Sequence[int], nu: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mu_t = tuple(exact_ints(mu))
    nu_t = tuple(exact_ints(nu))
    if not mu_t:
        raise ValueError("chain needs at least one stage")
    if len(nu_t) > len(mu_t):
        if any(v != 0 for v in nu_t[len(mu_t):]):
            raise ValueError("nu is longer than mu")
        nu_t = nu_t[: len(mu_t)]
    nu_t = nu_t + (0,) * (len(mu_t) - len(nu_t))
    if any(v < 0 for v in mu_t + nu_t):
        raise ValueError("stage dimensions must be nonnegative")
    if any(a < b for a, b in zip(mu_t, mu_t[1:])):
        raise ValueError("mu must be weakly decreasing")
    if any(a < b for a, b in zip(nu_t, nu_t[1:])):
        raise ValueError("nu must be weakly decreasing")
    if any(m < v for m, v in zip(mu_t, nu_t)):
        raise ValueError("mu must dominate nu")
    return mu_t, nu_t


def surjective_chain_class(mu: Sequence[int], nu: Sequence[int]) -> MotivicClass:
    """Class of the chains of surjections over fixed surjections h_i between
    the nu-stages, shared per normalized (mu, nu). The chain is the fibre,
    alike for every h_i, of the grid on [mu; nu] over its bottom row of maps:

        [chain(mu, nu)] = [grid(mu; nu)] / prod_i [grid(nu_i; nu_{i+1})]."""
    return _chain_class(*_normalize_chain(mu, nu))


@lru_cache(maxsize=None)
def _chain_class(mu: tuple[int, ...], nu: tuple[int, ...]) -> MotivicClass:
    return MotivicClass(FactorProduct.prod(
        (commuting_grid_class(PlanePartition([mu, nu])).factors,),
        [commuting_grid_class(PlanePartition([[a], [b]])).factors for a, b in zip(nu, nu[1:])],
    ))


def commuting_grid_class(pi: PlanePartition) -> MotivicClass:
    """Class of the grid of commuting surjections with stage dimensions pi:

        [pi00]! / [GL_pi00]
        * prod_boxes [a-diag]! [GL_a] / ([a-below]! [a-right]!)

    Certified polynomial. Shared: one class per (pi00, box tally, sorted
    entries), since the class depends on pi through no more.
    """
    entries = tuple(sorted(a for row in pi.rows for a in row))
    return _grid_class(pi.first_entry, _box_tally(pi), entries)


@lru_cache(maxsize=None)
def _grid_class(pi00: int, tally: tuple[int, ...], entries: tuple[int, ...]) -> MotivicClass:
    return MotivicClass(FactorProduct.prod(
        [q_factorial(pi00, "L"), _tally_product(tally)] + [gl_class(a) for a in entries],
        (gl_class(pi00),),
    ))


def _moduli_profile(r: int, n: int) -> TruncationProfile:
    """The caps t = n and L = 2rn of the moduli class of rank r, weight n."""
    if exact_int(r) < 1:
        raise ValueError("rank must be positive")
    if exact_int(n) < 0:
        raise ValueError("weight must be nonnegative")
    return TruncationProfile(t=n, L=2 * r * n)


def moduli_space_class(r: int, n: int) -> dict[int, int]:
    """Coefficient of t^n in prod_{m<=r} prod_{k>=1} 1/(1 - L^(rk+m) t^k).

    The coefficient is a polynomial in L of degree exactly 2rn, so the
    L cap 2rn loses nothing.
    """
    profile = _moduli_profile(r, n)
    series = FactorProduct.prod((), (
        FactorProduct.from_factor({"L": r * k + m, "t": k})
        for m in range(1, r + 1) for k in range(1, n + 1)
    )).expand(profile)
    return {vec[1]: c for vec, c in series.coeffs.items() if vec[0] == n}


def bb_identity_check(r: int, n: int) -> dict:
    """Compare the moduli class with the attracting-cell decomposition:

        [moduli] = sum over pi (|pi| = n, pi00 <= r) of [component] * L^(rn + chi(pi)).

    Both sides are exact polynomials in L; the report carries them and the
    first differing coefficient on mismatch.
    """
    if r is None:
        raise ValueError("bb verification needs a finite rank")
    check_partition_sum(n, _moduli_profile(r, n))
    lhs = moduli_space_class(r, n)
    rhs: dict[int, int] = {}
    components = 0
    for pi in enumerate_plane_partitions(n, max_first_entry=r):
        components += 1
        poly = fixed_component_class(r, pi).polynomial()
        shift = r * n + chi(pi)
        for d, c in poly.items():
            rhs[d + shift] = rhs.get(d + shift, 0) + c
    rhs = {d: c for d, c in rhs.items() if c}
    report = {
        "r": r,
        "n": n,
        "num_components": components,
        "lhs": lhs,
        "rhs": rhs,
        "match": lhs == rhs,
    }
    if not report["match"]:
        degree = min(d for d in set(lhs) | set(rhs) if lhs.get(d, 0) != rhs.get(d, 0))
        left, right = lhs.get(degree, 0), rhs.get(degree, 0)
        report["first_difference"] = {"exponents": [degree], "lhs": str(left), "rhs": str(right)}
    return report


def refined_macmahon_lhs(r: int | None, t_order: int, q_order: int) -> TruncatedSeries:
    """Weighted sum over plane partitions:

        sum_pi t^|pi| [r]!_q / [r - pi00]!_q * q^chi(pi) * weight(pi, t=0)

    restricted to pi00 <= r. r = None is the large-rank limit: the
    prefactor is 1 and the corner constraint is vacuous.
    """

    def term(pi: PlanePartition) -> FactorProduct:
        fp = vuletic_weight_t0(pi)
        if r is not None:
            fp = fp * _rank_ratio(r, pi.first_entry, "q")
        return fp * FactorProduct.monomial({"q": chi(pi), "t": pi.weight})

    return partition_sum(t_order, TruncationProfile(q=q_order, t=t_order), term, r)


def refined_macmahon_rhs(r: int | None, t_order: int, q_order: int) -> TruncatedSeries:
    """prod_{k=1..t_order} prod_{m=1..r} 1/(1 - q^m t^k); m unbounded in the
    large-rank limit r = None. A factor with m past the q cap contributes 1,
    so m stops there."""
    profile = TruncationProfile(q=q_order, t=t_order)
    m_top = q_order if r is None else min(r, q_order)
    return FactorProduct.prod((), (
        FactorProduct.from_factor({"q": m, "t": k})
        for k in range(1, t_order + 1) for m in range(1, m_top + 1)
    )).expand(profile)


def refined_macmahon_check(r: int | None, t_order: int, q_order: int) -> dict:
    return identity_report(
        refined_macmahon_lhs(r, t_order, q_order),
        refined_macmahon_rhs(r, t_order, q_order),
        r="inf" if r is None else r,
        t_order=t_order,
        q_order=q_order,
    )


def limit_series_lhs(t_order: int, l_order: int) -> TruncatedSeries:
    """sum_n t^n * sum_{|pi| = n} (limit class of pi) expanded in L."""
    return partition_sum(
        t_order,
        TruncationProfile(t=t_order, L=l_order),
        lambda pi: limit_class(pi) * FactorProduct.monomial({"t": pi.weight}),
    )


def limit_series_rhs(t_order: int, l_order: int) -> TruncatedSeries:
    """prod_{i>=0, j>=1} 1/(1 - L^i t^j)^j, truncated to the caps."""
    profile = TruncationProfile(t=t_order, L=l_order)
    return FactorProduct.prod((), (
        FactorProduct.from_factor({"L": i, "t": j}, j)
        for i in range(l_order + 1) for j in range(1, t_order + 1)
    )).expand(profile)


def limit_series_check(t_order: int, l_order: int) -> dict:
    return identity_report(
        limit_series_lhs(t_order, l_order),
        limit_series_rhs(t_order, l_order),
        t_order=t_order,
        l_order=l_order,
    )

