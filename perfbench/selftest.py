"""Self-test of the benchmark harness at the tiny size; takes well under a minute.

    python3 perfbench/selftest.py

For every workload, traced and untraced, the run must exit 0, pass every
gate, and print as its last line exactly the result keys with every metric
of BENCHMARK.json under its unit. Then one frozen digest is corrupted, and
the run must fail: this proves the answer gate can fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"self-test FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, res = run("--workload", w["name"], "--seed", "3", "--trace", trace)
            label = f"{w['name']} --trace {trace}"
            check(code == 0 and res is not None, f"{label} exited {code}")
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
            check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{label} result {res}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{label} metrics {sorted(set(got) ^ set(want))}")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{label} non-numeric value")
            print(f"ok  {label}: {res['attempted']} operations, {len(got)} metrics")

    expected = json.loads((HERE / "expected.json").read_text())
    name = next(iter(expected["tiny"]["grid-oracle"]))
    expected["tiny"]["grid-oracle"][name] = "0" * 16
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bad = Path(tmp) / "expected.json"
        bad.write_text(json.dumps(expected))
        code, res = run("--workload", "grid-oracle", "--seed", "3", "--trace", "0",
                        "--expect", str(bad))
    check(code != 0 and res is not None and res["correct"] is False and res["failed"] >= 1,
          f"a wrong digest for {name!r} did not fail the run (exit {code}, {res})")
    print(f"ok  a wrong digest for {name!r} fails the run (exit {code})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
