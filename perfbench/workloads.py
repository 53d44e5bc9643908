"""The four benchmark workloads, each as a list of checked operations.

A workload pass is a list of calls. Each call runs the program and yields
one or more operations as (name, ok, answer): `ok` folds the program's own
match together with any independent constant, and `answer` is the exact
result whose digest is frozen in expected.json. Functions are looked up through their modules at
call time, so a tracer installed before the pass sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import macmahon.acceptance as acceptance
import macmahon.cli as cli
import macmahon.fforacle as fforacle
import macmahon.motivic as motivic
import macmahon.partitions as partitions
import macmahon.series as series
import macmahon.vuletic as vuletic

# Plane-partition counts by size, OEIS A000219: an independent constant the
# enumerator is held to, not a number the program produced.
A000219 = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500)

# Largest raw search space p^entries a grid-oracle instance may have. This
# size rule keeps a pass near four seconds; the twelve-entry grids at p = 3
# lie outside it (see README.md).
GRID_RAW_LIMIT = 3**11


def digest(answer) -> str:
    """Short sha256 of an answer's canonical JSON form."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _series_answer(ts) -> list:
    return [[list(vec), str(c)] for vec, c in sorted(ts.coeffs.items())]


def _pp_counts(max_n: int) -> tuple[bool, list[int]]:
    counts = [sum(1 for _ in partitions.enumerate_plane_partitions(n)) for n in range(max_n + 1)]
    return counts == list(A000219[: max_n + 1]), counts


# -- desk-all ---------------------------------------------------------------

DESK_ARGV = {
    "full": [["all"]],
    "tiny": [
        ["verify", "macmahon", "--s-order", "6"],
        ["verify", "vuletic", "--s-order", "3", "--q-order", "3", "--t-order", "3"],
        ["verify", "bb", "--r", "2", "--n", "3"],
        ["count-points", "--grid", "[[2,1]]", "--p", "2"],
    ],
}


def _desk_call(argv: list[str], record: dict):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        text = out.getvalue()
        record.setdefault("stdout_sha256", []).append(
            hashlib.sha256(text.encode()).hexdigest()
        )
        record["stdout_bytes"] = record.get("stdout_bytes", 0) + len(text.encode())
        report = json.loads(text)
        payload = report.get("payload", {})
        checks = payload.get("checks", [payload])
        results = []
        for i, chk in enumerate(checks):
            name = chk.get("name") or " ".join(argv)
            ok = code == 0 and chk.get("match", report.get("outcome") == "match") is True
            if name == "macmahon":
                order = chk["order"]
                ok = ok and chk["enumerated"] == list(A000219[: order + 1])
            results.append((f"desk {name}", ok, {"exit": code, "index": i}))
        return results

    return call


def desk_all(size: str, seed: int, record: dict) -> list:
    """`macmahon all` in process; the seed is ignored."""
    return [_desk_call(argv, record) for argv in DESK_ARGV[size]]


# -- symbolic-stretch -------------------------------------------------------

SYMBOLIC = {
    "full": {
        "vuletic": [(10, 6, 6), (8, 8, 8)],
        "refined": [(3, 10, 14)],
        "limit": [(10, 14)],
        "pp_counts": 10,
    },
    "tiny": {
        "vuletic": [(4, 4, 4)],
        "refined": [(2, 4, 6)],
        "limit": [(4, 6)],
        "pp_counts": 6,
    },
}


def _identity(name: str, lhs_fn, rhs_fn):
    def call():
        lhs, rhs = lhs_fn(), rhs_fn()
        return [(name, lhs == rhs, _series_answer(lhs))]

    return call


def symbolic_stretch(size: str, seed: int, record: dict) -> list:
    spec = SYMBOLIC[size]
    calls = []
    for s, q, t in spec["vuletic"]:
        prof = series.TruncationProfile(s=s, q=q, t=t)
        calls.append(_identity(
            f"vuletic s{s} q{q} t{t}",
            lambda s=s, prof=prof: vuletic.vuletic_lhs(s, prof),
            lambda s=s, prof=prof: vuletic.vuletic_rhs(s, prof),
        ))
    for r, t, q in spec["refined"]:
        calls.append(_identity(
            f"refined r{r} t{t} q{q}",
            lambda r=r, t=t, q=q: motivic.refined_macmahon_lhs(r, t, q),
            lambda r=r, t=t, q=q: motivic.refined_macmahon_rhs(r, t, q),
        ))
    for t, l_order in spec["limit"]:
        calls.append(_identity(
            f"limit-series t{t} L{l_order}",
            lambda t=t, l_order=l_order: motivic.limit_series_lhs(t, l_order),
            lambda t=t, l_order=l_order: motivic.limit_series_rhs(t, l_order),
        ))
    n = spec["pp_counts"]
    calls.append(lambda n=n: [(f"pp-counts n<={n}", *_pp_counts(n))])
    random.Random(seed).shuffle(calls)
    return calls


# -- grid-oracle ------------------------------------------------------------

GRID_MAX_WEIGHT = {"full": 7, "tiny": 3}


def grid_instances(max_weight: int) -> list[tuple[partitions.PlanePartition, int]]:
    """Every (pi, p) with |pi| <= max_weight, p in {2, 3} and
    p^entries <= GRID_RAW_LIMIT, in enumeration order."""
    out = []
    for w in range(max_weight + 1):
        for pi in partitions.enumerate_plane_partitions(w):
            for p in (2, 3):
                if p ** fforacle.grid_entry_count(pi) <= GRID_RAW_LIMIT:
                    out.append((pi, p))
    return out


def _grid_call(pi, p):
    def call():
        rep = fforacle.oracle_vs_class(fforacle.GridInstance(pi), p)
        return [(f"grid {pi.to_lists()} p{p}", rep["match"], rep["count"])]

    return call


def grid_oracle(size: str, seed: int, record: dict) -> list:
    max_w = GRID_MAX_WEIGHT[size]
    calls = [lambda: [(f"pp-counts n<={max_w}", *_pp_counts(max_w))]]
    calls += [_grid_call(pi, p) for pi, p in grid_instances(max_w)]
    random.Random(seed).shuffle(calls)
    return calls


# -- geometry-stretch -------------------------------------------------------

GEOMETRY = {
    "full": {"tangent": (3, 8), "bb": (6, 11), "class_structure": (8, 9)},
    "tiny": {"tangent": (2, 3), "bb": (3, 4), "class_structure": (3, 4)},
}


def _bb_call(r: int, n: int):
    def call():
        rep = motivic.bb_identity_check(r, n)
        ok = rep["match"]
        if n <= r and n < len(A000219):
            # every partition of n has corner entry <= n <= r
            ok = ok and rep["num_components"] == A000219[n]
        answer = {"lhs": sorted(rep["lhs"].items()), "components": rep["num_components"]}
        return [(f"bb r{r} n{n}", ok, answer)]

    return call


def geometry_stretch(size: str, seed: int, record: dict) -> list:
    spec = GEOMETRY[size]
    t_r, t_n = spec["tangent"]
    c_r, c_w = spec["class_structure"]
    bb_r, bb_n = spec["bb"]

    def tangent():
        rep = acceptance.check_tangent(t_r, t_n)
        return [(f"tangent r<={t_r} n<={t_n}", rep["match"], rep["num_tuples"])]

    def class_structure():
        # the domain and predicate of acceptance.check_class_structure, with
        # every polynomial kept so that its exact coefficients are frozen
        ok, polys = True, []
        for r in range(1, c_r + 1):
            for w in range(c_w + 1):
                for pi in partitions.enumerate_plane_partitions(w, max_first_entry=r):
                    poly = motivic.fixed_component_class(r, pi).polynomial()
                    ok = ok and poly.get(0, 0) == 1 and all(c >= 0 for c in poly.values())
                    polys.append([r, pi.to_lists(), sorted(poly.items())])
        return [(f"class-structure r<={c_r} w<={c_w}", ok, polys)]

    calls = [tangent, class_structure] + [_bb_call(bb_r, n) for n in range(bb_n + 1)]
    random.Random(seed).shuffle(calls)
    return calls


WORKLOADS = {
    "desk-all": desk_all,
    "symbolic-stretch": symbolic_stretch,
    "grid-oracle": grid_oracle,
    "geometry-stretch": geometry_stretch,
}
