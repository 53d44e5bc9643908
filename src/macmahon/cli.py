"""Command-line front door: verifications, enumerations, class tables,
tangent characters, and finite-field point counts.

Reports go to stdout (JSON by default, deterministic byte-for-byte for
fixed inputs); timing and diagnostics go to stderr. Exit codes: 0 success,
1 identity mismatch, 2 usage error, 3 budget refusal; every exit 2 or 3
prints a JSON error report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from itertools import groupby

from . import acceptance, motivic
from .fforacle import DEFAULT_BUDGET, ChainInstance, GridInstance, oracle_json, oracle_vs_class
from .motivic import fixed_component_class, poly_json
from .partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    chi,
    enumerate_plane_partitions,
)
from .series import BudgetExceededError, TruncationProfile
from .torus import attracting_dimension, positive_weight_count, tangent_character
from .vuletic import check_partition_sum

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _verdict(match: bool, payload: dict) -> tuple[int, dict]:
    outcome = "match" if match else "mismatch"
    return (EXIT_OK if match else EXIT_MISMATCH), {"outcome": outcome, "payload": payload}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, so that they
    reach the JSON error report like any other; its subparsers are _Parsers
    too."""

    def error(self, message: str):
        raise ValueError(message)


def _parse_rank(text: str) -> int | None:
    if text == "inf":
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"rank must be a positive integer or 'inf', got {text!r}")
    return value


def _parse_tuple(text: str) -> DiagramTuple:
    diagrams = json.loads(text)
    if not isinstance(diagrams, list):
        raise ValueError(f"expected a list of Young diagrams, got {diagrams!r}")
    return DiagramTuple([YoungDiagram(rows) for rows in diagrams])


def _run_enumerate(args) -> tuple[int, dict]:
    # a listed partition holds at most n entries: n + 1 cells apiece (a
    # negative n is refused by check_partition_sum, in the enumerator's words)
    check_partition_sum(args.n, TruncationProfile(s=max(args.n, 0)))
    partitions = [p.to_lists() for p in enumerate_plane_partitions(args.n, args.max_entry)]
    payload = {"count": len(partitions), "partitions": partitions}
    return EXIT_OK, {"outcome": "ok", "payload": payload}


# (type, default) of every flag a `verify` target may read
_FLAGS = {
    "s_order": (int, 4), "q_order": (int, 6), "t_order": (int, 4), "l_order": (int, 8),
    "max_weight": (int, 4), "r": (_parse_rank, 1), "n": (int, 3),
}

# target -> (module, check, the flags it reads in its positional order); the
# check is looked up in its module on each call, never held from import time
VERIFY = {
    "macmahon": (acceptance, "check_macmahon_baseline", ("s_order",)),
    "vuletic": (acceptance, "check_vuletic", ("s_order", "q_order", "t_order")),
    "limit-class": (acceptance, "check_limit_class", ("max_weight", "l_order")),
    "refined-macmahon": (motivic, "refined_macmahon_check", ("r", "t_order", "q_order")),
    "limit-series": (motivic, "limit_series_check", ("t_order", "l_order")),
    "bb": (motivic, "bb_identity_check", ("r", "n")),
}


def _run_verify(args) -> tuple[int, dict]:
    module, check, flags = VERIFY[args.target]
    report = getattr(module, check)(*(getattr(args, flag) for flag in flags))
    if args.target == "bb":  # exact polynomials in L, kept as dicts by the check
        report = {**report, "lhs": poly_json(report["lhs"]), "rhs": poly_json(report["rhs"])}
    return _verdict(report["match"], report)


def _run_classes(args) -> tuple[int, dict]:
    if args.r is None:
        raise ValueError("class tables need a finite rank")
    # a class has degree rn - chi(pi) <= rn: rn + 1 cells apiece, as above
    check_partition_sum(args.n, TruncationProfile(L=args.r * max(args.n, 0)))
    rows = []
    for pi in enumerate_plane_partitions(args.n, max_first_entry=args.r):
        poly = fixed_component_class(args.r, pi).polynomial()
        rows.append(
            {
                "partition": pi.to_lists(),
                "class": poly_json(poly),
                "d_plus": attracting_dimension(pi, args.r),
                "chi": chi(pi),
            }
        )
    payload = {"r": args.r, "n": args.n, "components": rows}
    return EXIT_OK, {"outcome": "ok", "payload": payload}


def _run_tangent(args) -> tuple[int, dict]:
    tup = _parse_tuple(args.tuple)
    r, n = tup.rank, tup.total_weight
    alpha = args.alpha if args.alpha is not None else n + 2
    character = tangent_character([tup], r, n)
    weights = sorted(zip(*(x.ravel().tolist() for x in character[:4])))
    terms = [
        {"i": i, "j": j, "t1": k1, "t2": k2, "multiplicity": len(list(group))}
        for (i, j, k1, k2), group in groupby(weights)
    ]
    size_ok = len(weights) == 2 * r * n
    payload = {
        "rank": r,
        "weight": n,
        "alpha": alpha,
        "terms": terms,
        "size": len(weights),
        "expected_size": 2 * r * n,
        "size_ok": size_ok,
        "d_plus": int(positive_weight_count(*character[2:4], alpha)[0]),
    }
    return _verdict(size_ok, payload)


def _run_count_points(args) -> tuple[int, dict]:
    if args.grid is not None:
        if args.chain_mu is not None or args.chain_nu is not None:
            raise ValueError("choose either --grid or --chain-mu/--chain-nu")
        inst: ChainInstance | GridInstance = GridInstance(
            PlanePartition(json.loads(args.grid)), budget=args.budget
        )
    else:
        if args.chain_mu is None or args.chain_nu is None:
            raise ValueError("count-points needs --grid or both --chain-mu and --chain-nu")
        mu, h = json.loads(args.chain_mu), None
        if args.chain_h is not None:
            # a chain of k stages has k - 1 maps: two stages take theirs bare
            h = json.loads(args.chain_h)
            if not (isinstance(mu, list) and len(mu) > 2):
                h = [h]
            elif not isinstance(h, list):
                raise ValueError(f"--chain-h must be a JSON list of {len(mu) - 1} matrices")
            h = tuple(h)
        inst = ChainInstance(mu, json.loads(args.chain_nu), h, budget=args.budget)
    report = oracle_vs_class(inst, args.p)
    return _verdict(report["match"], oracle_json(report))


def _run_all(args) -> tuple[int, dict]:
    checks = acceptance.run_all()
    return _verdict(all(c["match"] for c in checks), {"checks": checks})


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

    parser = _Parser(
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
    targets = verify.add_subparsers(dest="target", required=True)
    for target, (_, _, flags) in VERIFY.items():
        target_parser = targets.add_parser(target, parents=[common])
        for flag in flags:
            kind, default = _FLAGS[flag]
            target_parser.add_argument("--" + flag.replace("_", "-"), type=kind, default=default)
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
    count.add_argument("--chain-h", default=None, help="JSON matrix of the intertwining map "
                       "of a two-stage chain; for k >= 3 stages, a JSON list of the k - 1 maps")
    count.add_argument("--p", type=int, required=True)
    count.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    count.set_defaults(runner=_run_count_points)

    allcmd = sub.add_parser(
        "all", parents=[common], help="run the full desk-scale verification suite"
    )
    allcmd.set_defaults(runner=_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    args = argparse.Namespace(format="json")  # what a failed parse reports
    try:
        args = build_parser().parse_args(argv)
        code, report = args.runner(args)
    except BudgetExceededError as exc:
        code, report = EXIT_BUDGET, {"outcome": "error", "error": str(exc)}
    except ValueError as exc:
        code, report = EXIT_USAGE, {"outcome": "error", "error": str(exc)}
    if getattr(args, "r", 0) is None:  # an infinite rank, echoed as payloads write it
        args.r = "inf"
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
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )
    elif args.format == "table":
        sys.stdout.write(_format_table(report))
    else:
        sys.stdout.write(_format_csv(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
