"""Desk-scale verification checks bundling every identity in the package.

Each check returns a report dict, ready for JSON, with a boolean "match" and
enough payload to diagnose a failure. The test suite and the command-line
`all` subcommand both run these.
"""

from __future__ import annotations

from itertools import compress, islice

import numpy as np

from .fforacle import (
    ChainInstance,
    DEFAULT_BUDGET,
    GridInstance,
    chain_entry_count,
    grid_entry_count,
    oracle_json,
    oracle_vs_class,
    sweep_chain_h,
)
from .motivic import (
    bb_identity_check,
    fixed_component_class,
    identity_report,
    limit_class,
    limit_series_check,
    poly_json,
    refined_macmahon_check,
    surjective_chain_class,
)
from .partitions import enumerate_diagram_tuples, enumerate_plane_partitions, exact_int
from .series import FactorProduct, TruncationProfile
from .torus import positive_weight_count, tangent_character
from .vuletic import check_partition_sum, vuletic_lhs, vuletic_rhs, vuletic_weight_t0

MACMAHON_COUNTS = (1, 1, 3, 6, 13, 24, 48, 86, 160)

# Most tangent weights check_tangent holds at once, across a chunk of tuples.
_TANGENT_CHUNK_WEIGHTS = 1 << 12


def check_macmahon_baseline(order: int = 8) -> dict:
    """Enumerator counts against the series expansion of prod (1-s^k)^-k."""
    profile = TruncationProfile(s=order)
    check_partition_sum(order, profile)
    counts = [
        sum(1 for _ in enumerate_plane_partitions(n)) for n in range(order + 1)
    ]
    fp = FactorProduct.prod((), (FactorProduct.from_factor({"s": k}, k) for k in range(1, order + 1)))
    series = fp.expand(profile)
    expanded = [series.coefficient({"s": n}) for n in range(order + 1)]
    # the known counts check the prefix they cover; beyond it the two
    # computations are held to each other alone
    known = list(MACMAHON_COUNTS[: order + 1])
    return {
        "name": "macmahon",
        "order": order,
        "enumerated": counts,
        "expanded": expanded,
        "match": counts == expanded and counts[: len(known)] == known,
    }


def check_vuletic(s_order: int = 6, q_order: int = 6, t_order: int = 6) -> dict:
    """Coefficient-exact equality of the weighted sum and the double product."""
    profile = TruncationProfile(s=s_order, q=q_order, t=t_order)
    return identity_report(
        vuletic_lhs(s_order, profile),
        vuletic_rhs(s_order, profile),
        name="vuletic",
        orders={"s": s_order, "q": q_order, "t": t_order},
        num_partitions=sum(
            1 for w in range(s_order + 1) for _ in enumerate_plane_partitions(w)
        ),
    )


def check_limit_class(max_weight: int = 5, l_order: int = 20) -> dict:
    """The t = 0 weight of every small partition (q renamed to L) equals its
    large-rank limit class, both as factored forms and as expansions."""
    profile = TruncationProfile(L=l_order)
    check_partition_sum(max_weight, profile)
    checked = factored_matches = 0
    failures: list[list[list[int]]] = []
    for w in range(max_weight + 1):
        for pi in enumerate_plane_partitions(w):
            checked += 1
            lhs = vuletic_weight_t0(pi).rename("q", "L")
            rhs = limit_class(pi)
            if lhs == rhs:
                factored_matches += 1
            if lhs.expand(profile) != rhs.expand(profile):
                failures.append(pi.to_lists())
    return {
        "max_weight": max_weight,
        "l_order": l_order,
        "num_partitions": checked,
        "factored_matches": factored_matches,
        "failures": failures,
        "match": not failures,
        "name": "limit-class",
    }


def check_refined_macmahon() -> dict:
    """The rank-refined identity for r in {1, 2, 3} and its large-rank form."""
    cases = [
        refined_macmahon_check(1, 6, 10),
        refined_macmahon_check(2, 6, 10),
        refined_macmahon_check(3, 6, 10),
        refined_macmahon_check(None, 5, 8),
    ]
    return {
        "name": "refined-macmahon",
        "cases": cases,
        "match": all(c["match"] for c in cases),
    }


def check_limit_series() -> dict:
    return {**limit_series_check(6, 10), "name": "limit-series"}


def check_bb() -> dict:
    """Attracting-cell decomposition against the known generating product,
    for every rank r <= 3 and weight n <= 5."""
    cases = []
    for r in range(1, 4):
        for n in range(6):
            rep = bb_identity_check(r, n)
            cases.append({k: rep[k] for k in ("r", "n", "num_components", "match")})
    return {"name": "bb", "cases": cases, "match": all(c["match"] for c in cases)}


def check_tangent(r_max: int = 3, n_max: int = 5) -> dict:
    """Tangent dimension 2rn, alpha-stability of the positive-weight count,
    and the attracting-dimension closed form r n + chi(pi), with pi read off
    the kernel's own table, swept over every tuple of each (rank, weight) in
    chunks of at most _TANGENT_CHUNK_WEIGHTS weights; failing tuples are
    listed in enumeration order. r_max must be positive and n_max nonnegative."""
    if exact_int(r_max) < 1 or exact_int(n_max) < 0:
        raise ValueError(f"r_max must be positive and n_max nonnegative, got {r_max} and {n_max}")
    checked = 0
    failures: list[dict] = []
    for r in range(1, r_max + 1):
        for n in range(n_max + 1):
            tuples = enumerate_diagram_tuples(r, n)
            per_chunk = max(1, _TANGENT_CHUNK_WEIGHTS // max(1, 2 * r * n))
            while chunk := list(islice(tuples, per_chunk)):
                _, _, k1, k2, pp = tangent_character(chunk, r, n)
                counts, zero = [], np.zeros(k1.shape, dtype=bool)
                for alpha in range(n + 2, 2 * n + 5):
                    counts.append(positive_weight_count(k1, k2, alpha))
                    zero |= k1 + alpha * k2 == 0
                ok = np.full(len(chunk), k1[0].size == 2 * r * n)
                ok &= ~(zero & ((k1 != 0) | (k2 != 0))).any(axis=(1, 2, 3))
                ok &= (np.array(counts) == counts[0]).all(axis=0)
                # chi(pi): every entry times its drop to the right neighbour
                ok &= counts[0] == r * n + (pp[..., :-1] * (pp[..., :-1] - pp[..., 1:])).sum(axis=(1, 2))
                checked += len(chunk)
                failures += ({"tuple": tup.to_lists(), "r": r, "n": n} for tup in compress(chunk, ~ok))
    return {
        "name": "tangent",
        "num_tuples": checked,
        "failures": failures,
        "match": not failures,
    }


def check_oracle() -> dict:
    """Finite-field point counts against the class polynomials at L = 2, 3.

    Every grid with |pi| <= 4 and every chain of one or two stages with top
    dimension <= 3 whose raw search space fits DEFAULT_BUDGET is counted
    exhaustively (the rest are counted as skipped). A two-stage chain is
    counted once, by one sweep over every surjective intertwining map h, and
    the count at each h is compared with the class, which does not depend on h.
    """
    primes = (2, 3)
    checked = {"grid": 0, "chain": 0}
    skipped = h_variants = 0
    failures: list[dict] = []

    chains = [((m1,), (v1,)) for m1 in range(1, 4) for v1 in range(m1 + 1)]
    chains += [
        ((m1, m2), (v1, v2))
        for m1 in range(1, 4)
        for m2 in range(m1 + 1)
        for v1 in range(m1 + 1)
        for v2 in range(min(v1, m2) + 1)
    ]
    instances = [
        (GridInstance(pi), grid_entry_count(pi)) for w in range(5) for pi in enumerate_plane_partitions(w)
    ]
    instances += [(ChainInstance(mu, nu), chain_entry_count(mu, nu)) for mu, nu in chains]
    for inst, entries in instances:
        for p in primes:
            if p**entries > DEFAULT_BUDGET:
                skipped += 1
            elif isinstance(inst, ChainInstance) and len(inst.mu) == 2:
                checked["chain"] += 1
                predicted = surjective_chain_class(inst.mu, inst.nu).evaluate(p)
                space, counts = sweep_chain_h(inst, p)
                h_variants += len(counts)
                failures += (
                    oracle_json({"kind": "chain", "mu": list(inst.mu), "nu": list(inst.nu), "p": p, "h": h,
                                 "count": count, "predicted": predicted, "match": False})
                    for h, count in zip(space.tolist(), counts.tolist())
                    if count != predicted
                )
            else:
                rep = oracle_vs_class(inst, p)
                checked[rep["kind"]] += 1
                if not rep["match"]:
                    failures.append(oracle_json(rep))
    return {
        "name": "oracle",
        "grids_checked": checked["grid"],
        "chains_checked": checked["chain"],
        "h_variants": h_variants,
        "skipped_over_budget": skipped,
        "failures": failures,
        "match": not failures,
    }


def check_class_structure() -> dict:
    """Every component class of rank r <= 4 and weight |pi| <= 5 is a
    certified polynomial with nonnegative coefficients and constant term 1."""
    checked = 0
    failures: list[dict] = []
    for r in range(1, 5):
        for w in range(6):
            for pi in enumerate_plane_partitions(w, max_first_entry=r):
                checked += 1
                poly = fixed_component_class(r, pi).polynomial()
                if poly.get(0, 0) != 1 or any(c < 0 for c in poly.values()):
                    failures.append(
                        {"r": r, "partition": pi.to_lists(), "poly": poly_json(poly)}
                    )
    return {
        "name": "class-structure",
        "num_classes": checked,
        "failures": failures,
        "match": not failures,
    }


def run_all() -> list[dict]:
    """All checks at the documented desk scale, in a canonical order."""
    return [
        check_macmahon_baseline(),
        check_vuletic(),
        check_limit_class(),
        check_refined_macmahon(),
        check_limit_series(),
        check_bb(),
        check_tangent(),
        check_oracle(),
        check_class_structure(),
    ]
