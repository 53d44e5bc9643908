"""Command-line front door: verifications, enumerations, class tables,
tangent characters, and finite-field point counts.

Reports go to stdout (JSON by default, deterministic byte-for-byte for
fixed inputs); timing and diagnostics go to stderr. Exit codes: 0 success,
1 identity mismatch, 2 usage error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import acceptance
from .fforacle import (
    BudgetExceededError,
    ChainInstance,
    DEFAULT_BUDGET,
    GridInstance,
    oracle_json,
    oracle_vs_class,
)
from .motivic import (
    bb_identity_check,
    fixed_component_class,
    limit_series_check,
    refined_macmahon_check,
)
from .partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_plane_partitions,
)
from .torus import attracting_dimension, positive_weight_count, tangent_character

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _poly_payload(poly: dict[int, int]) -> list[list]:
    return [[d, str(poly[d])] for d in sorted(poly)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _difference_payload(diff) -> dict:
    vec, left, right = diff
    exponents = list(vec) if isinstance(vec, (tuple, list)) else [vec]
    return {"exponents": exponents, "lhs": str(left), "rhs": str(right)}


def _check_payload(report: dict) -> dict:
    payload = dict(report)
    for key in ("lhs", "rhs"):
        if key in payload and isinstance(payload[key], dict):
            payload[key] = _poly_payload(payload[key])
    if isinstance(payload.get("first_difference"), tuple):
        payload["first_difference"] = _difference_payload(payload["first_difference"])
    if "cases" in payload:
        payload["cases"] = [_check_payload(c) for c in payload["cases"]]
    return payload


def _parse_rank(text: str) -> int | None:
    if text in ("inf", "infinity", "oo"):
        return None
    value = int(text)
    if value < 1:
        raise ValueError("rank must be positive or 'inf'")
    return value


def _parse_partition(text: str) -> PlanePartition:
    return PlanePartition(json.loads(text))


def _parse_tuple(text: str) -> DiagramTuple:
    diagrams = json.loads(text)
    if not isinstance(diagrams, list):
        raise ValueError(f"expected a list of Young diagrams, got {diagrams!r}")
    return DiagramTuple([YoungDiagram(rows) for rows in diagrams])


def _run_enumerate(args) -> tuple[int, dict]:
    partitions = list(enumerate_plane_partitions(args.n, args.max_entry))
    payload = {
        "count": len(partitions),
        "partitions": [p.to_lists() for p in partitions],
    }
    return EXIT_OK, {"outcome": "ok", "payload": payload}


def _run_verify(args) -> tuple[int, dict]:
    target = args.target
    if target == "macmahon":
        report = acceptance.check_macmahon_baseline(args.s_order)
    elif target == "vuletic":
        report = acceptance.check_vuletic(args.s_order, args.q_order, args.t_order)
    elif target == "limit-class":
        report = acceptance.check_limit_class(args.max_weight, args.l_order)
    elif target == "refined-macmahon":
        report = refined_macmahon_check(args.r, args.t_order, args.q_order)
    elif target == "limit-series":
        report = limit_series_check(args.t_order, args.l_order)
    elif target == "bb":
        if args.r is None:
            raise ValueError("bb verification needs a finite rank")
        report = bb_identity_check(args.r, args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verification target {target!r}")
    outcome = "match" if report["match"] else "mismatch"
    code = EXIT_OK if report["match"] else EXIT_MISMATCH
    return code, {"outcome": outcome, "payload": _check_payload(report)}


def _run_classes(args) -> tuple[int, dict]:
    if args.r is None:
        raise ValueError("class tables need a finite rank")
    rows = []
    for pi in enumerate_plane_partitions(args.n, max_first_entry=args.r):
        poly = fixed_component_class(args.r, pi).polynomial()
        rows.append(
            {
                "partition": pi.to_lists(),
                "class": _poly_payload(poly),
                "d_plus": attracting_dimension(pi, args.r),
                "chi": chi(pi),
            }
        )
    payload = {"r": args.r, "n": args.n, "components": rows}
    return EXIT_OK, {"outcome": "ok", "payload": payload}


def _run_tangent(args) -> tuple[int, dict]:
    tup = _parse_tuple(args.tuple)
    character = tangent_character(tup)
    r, n = tup.rank, tup.total_weight
    alpha = args.alpha if args.alpha is not None else n + 2
    terms = [
        {"i": i, "j": j, "t1": k1, "t2": k2, "multiplicity": m}
        for (i, j, k1, k2), m in character.sorted_terms()
    ]
    size_ok = character.size() == 2 * r * n
    payload = {
        "rank": r,
        "weight": n,
        "alpha": alpha,
        "terms": terms,
        "size": character.size(),
        "expected_size": 2 * r * n,
        "size_ok": size_ok,
        "d_plus": positive_weight_count(tup, alpha),
    }
    outcome = "match" if size_ok else "mismatch"
    return (EXIT_OK if size_ok else EXIT_MISMATCH), {"outcome": outcome, "payload": payload}


def _run_count_points(args) -> tuple[int, dict]:
    if args.grid is not None:
        if args.chain_mu is not None or args.chain_nu is not None:
            raise ValueError("choose either --grid or --chain-mu/--chain-nu")
        inst: ChainInstance | GridInstance = GridInstance(
            _parse_partition(args.grid), budget=args.budget
        )
    else:
        if args.chain_mu is None or args.chain_nu is None:
            raise ValueError("count-points needs --grid or both --chain-mu and --chain-nu")
        h = None if args.chain_h is None else (json.loads(args.chain_h),)
        inst = ChainInstance(
            json.loads(args.chain_mu), json.loads(args.chain_nu), h, budget=args.budget
        )
    report = oracle_vs_class(inst, args.p)
    outcome = "match" if report["match"] else "mismatch"
    code = EXIT_OK if report["match"] else EXIT_MISMATCH
    return code, {"outcome": outcome, "payload": oracle_json(report)}


def _run_all(args) -> tuple[int, dict]:
    checks = acceptance.run_all()
    ok = all(c["match"] for c in checks)
    payload = {"checks": [_check_payload(c) for c in checks]}
    return (EXIT_OK if ok else EXIT_MISMATCH), {
        "outcome": "match" if ok else "mismatch",
        "payload": payload,
    }


def _format_table(report: dict) -> str:
    lines = []

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for key in obj:
                walk(f"{prefix}{key}.", obj[key])
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
            for idx, item in enumerate(obj):
                walk(f"{prefix}{idx}.", item)
        else:
            lines.append(f"{prefix[:-1]}\t{obj}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _format_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    components = report.get("payload", {}).get("components")
    if components is not None:
        writer.writerow(["partition", "class", "d_plus", "chi"])
        for row in components:
            cls = " + ".join(
                f"{c}*L^{d}" if d else str(c) for d, c in row["class"]
            )
            writer.writerow([json.dumps(row["partition"]), cls, row["d_plus"], row["chi"]])
        return buf.getvalue()
    partitions = report.get("payload", {}).get("partitions")
    if partitions is not None:
        writer.writerow(["partition"])
        for rows in partitions:
            writer.writerow([json.dumps(rows)])
        return buf.getvalue()
    writer.writerow(["key", "value"])
    for line in _format_table(report).splitlines():
        key, _, value = line.partition("\t")
        writer.writerow([key, value])
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    # --format is accepted both before and after the subcommand; the
    # subcommand-level copy defaults to SUPPRESS so it only overrides
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table", "csv"), default=argparse.SUPPRESS
    )

    parser = argparse.ArgumentParser(
        prog="macmahon",
        description="Exact plane-partition series identities, fixed-component "
        "class polynomials, and finite-field point-count cross-checks.",
    )
    parser.add_argument("--format", choices=("json", "table", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", parents=[common], help="enumerate combinatorial objects")
    enum.add_argument("what", choices=("pp",))
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--max-entry", type=int, default=None)
    enum.set_defaults(runner=_run_enumerate)

    verify = sub.add_parser("verify", parents=[common], help="verify an identity at given orders")
    verify.add_argument(
        "target",
        choices=("vuletic", "macmahon", "limit-class", "refined-macmahon", "limit-series", "bb"),
    )
    verify.add_argument("--s-order", type=int, default=4)
    verify.add_argument("--t-order", type=int, default=4)
    verify.add_argument("--q-order", type=int, default=6)
    verify.add_argument("--l-order", type=int, default=8)
    verify.add_argument("--max-weight", type=int, default=4)
    verify.add_argument("--r", type=_parse_rank, default=1)
    verify.add_argument("--n", type=int, default=3)
    verify.set_defaults(runner=_run_verify)

    classes = sub.add_parser(
        "classes", parents=[common], help="table of component classes for fixed (r, n)"
    )
    classes.add_argument("--r", type=_parse_rank, required=True)
    classes.add_argument("--n", type=int, required=True)
    classes.set_defaults(runner=_run_classes)

    tangent = sub.add_parser("tangent", parents=[common], help="tangent weights at a fixed point")
    tangent.add_argument("--tuple", required=True, help="JSON list of Young diagrams")
    tangent.add_argument("--alpha", type=int, default=None)
    tangent.set_defaults(runner=_run_tangent)

    count = sub.add_parser(
        "count-points", parents=[common], help="finite-field point count vs class value"
    )
    count.add_argument("--grid", default=None, help="JSON plane partition")
    count.add_argument("--chain-mu", default=None, help="JSON list of stage dimensions")
    count.add_argument("--chain-nu", default=None, help="JSON list of stage dimensions")
    count.add_argument("--chain-h", default=None, help="JSON matrix for the intertwining map")
    count.add_argument("--p", type=int, required=True)
    count.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    count.set_defaults(runner=_run_count_points)

    allcmd = sub.add_parser(
        "all", parents=[common], help="run the full desk-scale verification suite"
    )
    allcmd.add_argument("--desk-scale", action="store_true", default=True)
    allcmd.set_defaults(runner=_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, report = args.runner(args)
    except BudgetExceededError as exc:
        code, report = EXIT_BUDGET, {"outcome": "error", "error": str(exc)}
    except (ValueError, json.JSONDecodeError) as exc:
        code, report = EXIT_USAGE, {"outcome": "error", "error": str(exc)}
    report = {
        "command": " ".join(argv),
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("runner", "format") and v is not None
        },
        **report,
    }
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(
            json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
        )
    elif args.format == "table":
        sys.stdout.write(_format_table(report))
    else:
        sys.stdout.write(_format_csv(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
