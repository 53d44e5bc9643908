"""One pass of one workload in a fresh interpreter.

Run by run.py, never by hand. `macmahon.cli` is imported first, and with it
every module a `macmahon` invocation imports, so the time from the parent's
spawn to the end of that import is the set-up the command pays. The pass
then runs every call of the workload, times it, and prints one JSON line:
per-operation outcomes and digests (the parent gates them), wall and CPU
seconds, the speed-probe samples, peak RSS and, when traced, the per-layer
metrics.
"""

import time

import macmahon.cli

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# Machine-speed probe: a fixed pure-Python kernel, independent of macmahon.
# On a shared VM the host flips between fast and slow states within a
# second, and the same pass runs up to 60% slower in the slow one. A timer
# signal runs the probe every PROBE_EVERY_S during the pass, its time is
# taken out of the pass and of the tracer's spans, and run.py scales the
# pass by its mean probe time. Probes taken outside the pass do not follow
# the state. The table is small (about 100 KB) and built once, every object
# the kernel makes is freed at once, and the collector is paused, so the
# heap and cache the pass built barely move a probe's time: within 1.7%
# across the four workloads (README.md).
PROBE_ITERS = 15_000
PROBE_EVERY_S = 0.125
_PROBE_TABLE = {(i % 31, i % 29): 0 for i in range(31 * 29)}


def probe() -> list[float]:
    """Run the probe kernel once; return its [wall, CPU] seconds."""
    table = _PROBE_TABLE
    collecting = gc.isenabled()
    gc.disable()
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(PROBE_ITERS):
        key = (i % 31, i % 29)
        table[key] = (table[key] + i) & 0xFFFF
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if collecting:
        gc.enable()
    return [wall, cpu]


class Prober:
    """Runs the probe from a SIGALRM timer, keeps its samples, and gives
    the pass clocks that leave out the time the probe took."""

    def __init__(self):
        self.samples = [probe()]  # at least one, however short the pass
        self.wall = self.cpu = 0.0

    def __call__(self, signum, frame) -> None:
        wall, cpu = probe()
        self.samples.append([wall, cpu])
        self.wall += wall
        self.cpu += cpu

    # The probe total is read before the clock: a handler can run only once
    # the clock call has returned, so a reading never mixes the two sides
    # of a probe.
    def clock(self) -> float:
        spent = self.wall
        return time.perf_counter() - spent

    def cpu_clock(self) -> float:
        spent = self.cpu
        return time.process_time() - spent

    def __enter__(self) -> "Prober":
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    source = Path(macmahon.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"macmahon imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_DONE - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import workloads
    record: dict = {}
    calls = workloads.WORKLOADS[args.workload](args.size, args.seed, record)
    prober = Prober()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(prober.clock)
        tracer.install()

    ops: dict[str, list] = {}
    op_seconds: dict[str, float] = {}
    errors: list[str] = []
    wall = cpu = 0.0
    with prober:
        for call in calls:
            w0, c0 = prober.clock(), prober.cpu_clock()
            try:
                produced = call()
            except Exception:  # a raising call fails its operations; the pass goes on
                errors.append(traceback.format_exc(limit=4))
                produced = []
            seconds = prober.clock() - w0
            wall += seconds
            cpu += prober.cpu_clock() - c0
            for name, ok, answer in produced:
                ops[name] = [bool(ok), workloads.digest(answer)]
                op_seconds[name] = seconds
    result.update(wall_s=wall, cpu_s=cpu, probes=prober.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(ops=ops, op_seconds=op_seconds, errors=errors,
                  stdout_sha256=record.get("stdout_sha256"))
    if tracer is not None:
        a = workloads.A000219
        result["pp_counts_ok"] = all(
            got == a[n]
            for n, cap, got in tracer.pp_yields
            if n < len(a) and (cap is None or cap >= n)
        )
        result["layers"] = tracer.layer_metrics(record.get("stdout_bytes", 0))
        result["counts"] = {**tracer.counts, **tracer.calls}
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
