"""Spans and counters around the program's public functions, installed from
outside the package in a traced child only.

Each wrapped function records a span (tag, start, end, parent) or, for the
calls too frequent to time, only a count. Spans stay in memory until the
pass ends. A wrapper replaces the function in its defining module and in
every other `macmahon` module that bound the same object through
`from ... import`, so internal calls are seen as well as outside ones.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import macmahon.acceptance as acceptance
import macmahon.cli as cli
import macmahon.fforacle as fforacle
import macmahon.motivic as motivic
import macmahon.partitions as partitions
import macmahon.series as series
import macmahon.torus as torus
import macmahon.vuletic as vuletic

# (module, attribute, span tag); the tag names the per-layer metric.
SPANNED = [
    (partitions, "enumerate_plane_partitions", "partitions.enumerate"),
    (partitions, "enumerate_diagram_tuples", "partitions.enumerate"),
    (vuletic, "vuletic_weight", "vuletic.weight"),
    (vuletic, "vuletic_weight_t0", "vuletic.weight"),
    (series.FactorProduct, "expand", "series.expand"),
    (series.TruncatedSeries, "__add__", "series.add"),
    (motivic, "fixed_component_class", "motivic.class"),
    (motivic, "commuting_grid_class", "motivic.class"),
    (motivic, "surjective_chain_class", "motivic.class"),
    (motivic, "limit_class", "motivic.class"),
    (motivic, "moduli_space_class", "motivic.moduli"),
    (motivic.MotivicClass, "evaluate", "motivic.evaluate"),
    (torus, "tangent_character", "torus.character"),
    (torus, "positive_weight_count", "torus.positive_count"),
    (fforacle, "count_chain_points", "fforacle.chain"),
    (fforacle, "count_grid_points", "fforacle.grid"),
    (acceptance, "run_all", "acceptance.run_all"),
    (acceptance, "check_macmahon_baseline", "acceptance.macmahon"),
    (acceptance, "check_vuletic", "acceptance.vuletic"),
    (acceptance, "check_limit_class", "acceptance.limit-class"),
    (acceptance, "check_refined_macmahon", "acceptance.refined-macmahon"),
    (acceptance, "check_limit_series", "acceptance.limit-series"),
    (acceptance, "check_bb", "acceptance.bb"),
    (acceptance, "check_tangent", "acceptance.tangent"),
    (acceptance, "check_oracle", "acceptance.oracle"),
    (acceptance, "check_class_structure", "acceptance.class-structure"),
    (cli, "main", "cli.main"),
]

# Calls counted but not timed: a span per call would cost more than the call.
COUNTED = [
    (vuletic, "little_f", "vuletic.little_f_calls"),
    (series.FactorProduct, "__mul__", "series.factor_mul_calls"),
    (series.FactorProduct, "__truediv__", "series.factor_mul_calls"),
]

# Tags whose metric is the span's full duration rather than its self time:
# each acceptance check is compared with a per-check baseline row.
INCLUSIVE = frozenset(tag for _, _, tag in SPANNED if tag.startswith("acceptance."))

_DONE = object()  # end-of-iteration sentinel


def _rebind(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "macmahon" or name.startswith("macmahon.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """In-memory spans and counts for one pass."""

    def __init__(self, clock):
        # the pass's clock, which leaves out the time spent in the
        # machine-speed probe (child.Prober.clock)
        self.clock = clock
        self.tags: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)  # by wrapped __qualname__
        # (n, max_first_entry, objects yielded) of each exhausted enumeration
        self.pp_yields: list[tuple[int, int | None, int]] = []

    def _open(self, tag: str) -> int:
        idx = len(self.tags)
        self.tags.append(tag)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def _spanned(self, fn, tag: str, after=None):
        def wrapper(*args, **kwargs):
            idx = self._open(tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.calls[fn.__qualname__] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generator(self, fn, tag: str):
        # Each resumption of the generator is one span, so the time spent
        # producing objects is separated from the consumer's work on them.
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            yielded = 0
            while True:
                idx = self._open(tag)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(idx)
                if item is _DONE:
                    break
                yielded += 1
                self.counts["partitions.objects"] += 1
                yield item
            if fn.__name__ == "enumerate_plane_partitions":
                n = args[0] if args else kwargs["n"]
                cap = args[1] if len(args) > 1 else kwargs.get("max_first_entry")
                self.pp_yields.append((n, cap, yielded))

        return wrapper

    def _counted(self, fn, tag: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[tag] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle_after(self, entry_count):
        def after(args, result):
            inst, p = args
            self.counts["fforacle.points"] += result
            self.counts["fforacle.raw_tuples"] += p ** entry_count(inst)

        return after

    def install(self) -> None:
        """Wrap every listed function; call once, before the pass runs."""
        after = {
            "expand": self._terms_out,
            "count_chain_points": self._oracle_after(
                lambda inst: fforacle.chain_entry_count(inst.mu, inst.nu)
            ),
            "count_grid_points": self._oracle_after(
                lambda inst: fforacle.grid_entry_count(inst.partition)
            ),
        }
        for owner, attr, tag in SPANNED:
            fn = getattr(owner, attr)
            if tag == "partitions.enumerate":
                wrapper = self._generator(fn, tag)
            else:
                wrapper = self._spanned(fn, tag, after.get(attr))
            _rebind(owner, attr, wrapper)
        for owner, attr, tag in COUNTED:
            _rebind(owner, attr, self._counted(getattr(owner, attr), tag))

    def _terms_out(self, args, result) -> None:
        self.counts["series.terms_out"] += len(result.coeffs)

    def self_times(self) -> dict[str, float]:
        """Seconds per tag: self time (span minus its child spans), or the
        full span for INCLUSIVE tags, counting only the outermost span of a
        tag nested in itself."""
        n = len(self.tags)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            tag = self.tags[i]
            dur = self.ends[i] - self.starts[i]
            if tag not in INCLUSIVE:
                out[tag] += dur - child[i]
            elif not self._nested_in_own_tag(i):
                out[tag] += dur
        return dict(out)

    def _nested_in_own_tag(self, i: int) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.tags[p] == self.tags[i]:
                return True
            p = self.parents[p]
        return False

    def layer_metrics(self, stdout_bytes: int) -> dict:
        """Per-layer metrics of the pass, named as in BENCHMARK.json; layers the
        pass never reached read 0."""
        t = self.self_times()
        c = self.counts
        calls = self.calls
        points, raw = c["fforacle.points"], c["fforacle.raw_tuples"]
        out = {
            "partitions.enumerate_s": t.get("partitions.enumerate", 0.0),
            "partitions.objects": c["partitions.objects"],
            "vuletic.weight_s": t.get("vuletic.weight", 0.0),
            "vuletic.weights": calls["vuletic_weight"],
            "vuletic.little_f_calls": c["vuletic.little_f_calls"],
            "series.expand_s": t.get("series.expand", 0.0),
            "series.expand_calls": calls["FactorProduct.expand"],
            "series.terms_out": c["series.terms_out"],
            "series.factor_mul_calls": c["series.factor_mul_calls"],
            "series.add_s": t.get("series.add", 0.0),
            "motivic.class_s": t.get("motivic.class", 0.0),
            "motivic.classes": sum(
                calls[f] for f in ("fixed_component_class", "commuting_grid_class",
                                   "surjective_chain_class", "limit_class")
            ),
            "motivic.moduli_s": t.get("motivic.moduli", 0.0),
            "motivic.evaluate_s": t.get("motivic.evaluate", 0.0),
            "torus.character_s": t.get("torus.character", 0.0),
            "torus.character_calls": calls["tangent_character"],
            "torus.positive_count_s": t.get("torus.positive_count", 0.0),
            "fforacle.chain_s": t.get("fforacle.chain", 0.0),
            "fforacle.chain_calls": calls["count_chain_points"],
            "fforacle.grid_s": t.get("fforacle.grid", 0.0),
            "fforacle.grid_calls": calls["count_grid_points"],
            "fforacle.points": points,
            "fforacle.raw_tuples": raw,
            "fforacle.hit_ratio": points / raw if raw else 0.0,
            "cli.self_s": t.get("cli.main", 0.0),
            "cli.stdout_bytes": stdout_bytes,
        }
        for tag in INCLUSIVE - {"acceptance.run_all"}:
            out[f"{tag}_s"] = t.get(tag, 0.0)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: a tag table and one row per span of
        (tag index, start, end, parent index), times in seconds from the
        first span."""
        table = sorted(set(self.tags))
        index = {t: i for i, t in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index[t], round(s - t0, 7), round(e - t0, 7), p]
            for t, s, e, p in zip(self.tags, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"tags": table, "spans": rows, "counts": dict(self.counts),
                       "calls": dict(self.calls)}, fh, separators=(",", ":"))
