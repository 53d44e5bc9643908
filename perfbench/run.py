"""Benchmark of the macmahon engine: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each sample is one verified pass of the workload in
a fresh child interpreter (child.py), so every sample pays the cold module
state a `macmahon` invocation pays. At most one child runs at a time.

With --trace 0 the run repeats untraced passes for --seconds and reports the
end-to-end metrics of BENCHMARK.json. With --trace 1 it runs untraced passes
for half of --seconds, then two traced passes, and reports the per-layer
metrics. Every time is scaled to a reference machine speed by the probe the
child runs during its pass (see child.py and README.md); raw times are in
the report. Every pass is gated on the program's own match, the frozen
answer digests in expected.json and independent constants; any failed
operation makes the run print "correct": false and exit 1. The last stdout
line is the result object; the line before it is a report with the
environment, sample counts, quartiles and per-operation times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PAIRS = 6        # (reference, program) fresh-interpreter pairs per run
TRACED_PASSES = 2      # their counts must agree exactly
RUN_LIMIT_S = 170      # a run, whatever its --seconds, ends within this

# Times are reported as if every machine-speed probe (child.probe) had taken
# PROBE_REF_S and every reference interpreter (reference_setup) SPAWN_REF_S:
# their means over the eighty runs in README.md.
PROBE_REF_S = 0.0045
SPAWN_REF_S = 0.12


class PassFailed(RuntimeError):
    """A child exited non-zero or printed no result."""


def last_line(cmd: list[str], deadline: float) -> str:
    """Run `cmd` from the repository root with the sources on PYTHONPATH,
    killing it at the monotonic `deadline`; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[-1]


def spawn(deadline: float, *extra: str) -> dict:
    """Run child.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), *extra, "--spawned"]
    cmd.append(repr(time.monotonic()))
    return json.loads(last_line(cmd, deadline))


def reference_setup(deadline: float) -> float:
    """Seconds from spawn to the end of `import numpy` in a fresh interpreter:
    the start-up path of the program's set-up without the program. Process
    start-up on this VM swings twice as far as pure-Python speed, so set-up
    is scaled by this reference, taken next to it, not by the probe."""
    spawned = time.monotonic()
    cmd = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]
    return float(last_line(cmd, deadline)) - spawned


def quartiles(values: list[float], scale: float = 1.0) -> dict:
    values = [v * scale for v in values]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def scaled(res: dict) -> dict:
    """A pass's times scaled to the reference speed by its own mean probe
    time, which tracks how much of the pass the host spent in a slow state.
    Wall and CPU take the same factor, so a gap between them survives."""
    probe_mean = statistics.fmean(w for w, _ in res["probes"])
    speed = PROBE_REF_S / probe_mean
    return {"speed": speed, "probe_mean_s": probe_mean,
            "wall_s": res["wall_s"] * speed, "cpu_s": res["cpu_s"] * speed}


def gate(expected: dict[str, str], result: dict) -> list[str]:
    """Names of the operations the pass failed: missing, mismatched by the
    program itself, or with an answer digest other than the frozen one."""
    ops = result["ops"]
    failed = [name for name in expected
              if name not in ops or not ops[name][0] or ops[name][1] != expected[name]]
    failed += [name for name in ops if name not in expected]
    return failed


def environment(args) -> dict:
    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    is_repo = (ROOT / ".git").exists()  # a plain checkout has no git metadata
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "git_commit": git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": bool(git("status", "--porcelain")) if is_repo else None,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
    }


def run(args, expected: dict[str, str], spec: dict) -> tuple[dict, dict, int, int]:
    """Run the passes; return (metrics, report, attempted, failed)."""
    child_args = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed)]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    spawn(deadline, "--setup-only")  # untimed: compiles bytecode once, as an install would
    budget = args.seconds / 2 if args.trace else args.seconds
    passes: list[dict] = []
    while not passes or time.monotonic() - started < budget:
        passes.append(spawn(deadline, *child_args))
    setups = []
    for _ in range(SETUP_PAIRS):
        ref = reference_setup(deadline)
        raw = spawn(deadline, "--setup-only")["setup_s"]
        setups.append({"raw_setup_s": raw, "reference_s": ref,
                       "setup_s": raw * SPAWN_REF_S / ref})
    traced: list[dict] = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        for k in range(TRACED_PASSES):
            spans = OUT / f"spans-{args.workload}-{k}.json"
            traced.append(spawn(deadline, *child_args, "--trace", "1", "--spans-out", str(spans)))

    attempted = failed = 0
    failures: list[dict] = []
    for kind, group in (("untraced", passes), ("traced", traced)):
        for i, res in enumerate(group):
            bad = gate(expected, res)
            attempted += len(expected) + len([n for n in res["ops"] if n not in expected])
            failed += len(bad)
            if bad or res["errors"]:
                failures.append({"pass": f"{kind}-{i}", "ops": bad[:20], "errors": res["errors"]})
    for i, res in enumerate(traced):
        attempted += 1  # unrestricted enumerations against OEIS A000219
        if not res["pp_counts_ok"]:
            failed += 1
            failures.append({"pass": f"traced-{i}", "ops": ["pp-counts vs A000219"]})
    sha = {json.dumps(p["stdout_sha256"]) for p in passes + traced}
    if len(sha) > 1:
        failed += 1
        failures.append({"check": "desk stdout differs between passes"})
    if traced:
        attempted += 1
        if any(t["counts"] != traced[0]["counts"] for t in traced):
            failed += 1
            failures.append({"check": "traced counts differ between traced passes"})

    runs = [scaled(p) for p in passes]
    dist = {
        "wall_s": quartiles([r["wall_s"] for r in runs]),
        "cpu_s": quartiles([r["cpu_s"] for r in runs]),
        "setup_s": quartiles([s["setup_s"] for s in setups]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in passes]),
        "raw_wall_s": quartiles([p["wall_s"] for p in passes]),
        "raw_cpu_s": quartiles([p["cpu_s"] for p in passes]),
        "raw_setup_s": quartiles([s["raw_setup_s"] for s in setups]),
        "reference_setup_s": quartiles([s["reference_s"] for s in setups]),
        "probe_mean_s": quartiles([r["probe_mean_s"] for r in runs]),
    }
    if traced:
        t_runs = [scaled(t) for t in traced]
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in traced[0]["layers"]:
                continue
            if m["unit"] == "s":
                values[name] = statistics.median(
                    t["layers"][name] * r["speed"] for t, r in zip(traced, t_runs))
            else:  # counts, gated equal across the traced passes
                values[name] = traced[0]["layers"][name]
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in t_runs) - dist["wall_s"]["median"])
        names = spec["per_layer"]
    else:
        values = {name: dist[name]["median"] for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    op_names = sorted({n for p in passes for n in p["op_seconds"]})
    report = {
        "env": environment(args),
        "samples": {"untraced": len(passes), "traced": len(traced), "setup_pairs": len(setups)},
        "passes": runs,
        "setups": setups,
        "distribution": dist,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "op_seconds_median": {
            n: statistics.median(p["op_seconds"][n] * r["speed"]
                                 for p, r in zip(passes, runs) if n in p["op_seconds"])
            for n in op_names
        },
        "op_raw_seconds_median": {
            n: statistics.median(p["op_seconds"][n] for p in passes if n in p["op_seconds"])
            for n in op_names
        },
        "desk_stdout_sha256": passes[0]["stdout_sha256"],
    }
    if traced:
        report["traced"] = t_runs
        report["traced_counts"] = traced[0]["counts"]
    return metrics, report, attempted, failed


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the seconds-long self-test scale")
    parser.add_argument("--expect", type=Path, default=HERE / "expected.json",
                        help="frozen answer digests (the self-test passes a corrupted copy)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macmahon" / "__init__.py").is_file():
        print(f"no macmahon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(args.expect.read_text())[args.size][args.workload]
    try:
        metrics, report, attempted, failed = run(args, expected, spec)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
