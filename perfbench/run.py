#!/usr/bin/env python3
"""Benchmark of the turklex lexicon engine.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run builds the engine from source in this checkout, measures one
workload closed-loop with a single client for ``--seconds`` seconds, checks
every answer, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing code installed;
with ``--trace 1`` they are the per-layer ones, from spans wrapped around
the calls into each turklex module (see tracing.py).  Inputs are made from
``--seed`` in a separate process (prepare.py).  A run also writes its
metrics and details to ``perfbench/results/``.

Times are the measuring thread's CPU time.  The set-up time, the median and
the throughput are scaled by the host's speed around each 20-ms slice of
operations (see hostspeed.py): on the small shared host this benchmark was
built on, the same code runs at one of two speeds, 1.7 times apart, as the
other tenants' load comes and goes, and waits on the shared disk vary
more; neither says anything about the program.  The 99th percentile is
taken as measured (see ``tail``).  The figures before scaling are in the
results file under ``unscaled``.

``--smoke`` runs every workload briefly, untraced and traced, with every
check, and exits non-zero if a check fails or a traced name is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

WARMUP_S = 0.5
TRACE_SLICE_S = 0.2  # traced run: untraced and traced slices alternate at this length
SLICE_S = 0.02  # untraced run: the host-speed kernel is timed this often
MAX_OPS_PER_S = 10_000  # room reserved for operation times
KEEP_OPS = 200  # traced run: raw span records are written for this many ops
SMOKE_SECONDS = 0.3
SMOKE_ROOTS = 320

END_TO_END_UNITS = {"setup_s": "s", "op_p50_us": "us", "op_p99_us": "us",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def prepare(workload: str, seed: int, work: Path, roots=None) -> dict:
    """Make the inputs in another process, so they add nothing to peak RSS."""
    command = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(work)]
    if roots is not None:
        command += ["--roots", str(roots)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return json.loads((work / "inputs.json").read_text(encoding="utf-8"))


def build(paths: dict, tracer=None) -> tuple:
    """A LexiconEngine from the five data files, and its set-up time in s:
    as measured, and scaled by the host speed measured before, during and
    after it (a traced build is not scaled)."""
    from turklex import LexiconEngine
    if tracer is not None:
        tracer.install(tracing.SETUP_SPANS)
        try:
            start = time.thread_time_ns()
            engine = LexiconEngine.from_paths(**paths)
            elapsed = (time.thread_time_ns() - start) / 1e9
        finally:
            tracer.uninstall()
        return engine, (elapsed, elapsed)
    before = hostspeed.sample()
    with hostspeed.During() as during:
        start = time.thread_time_ns()
        engine = LexiconEngine.from_paths(**paths)
        elapsed = (time.thread_time_ns() - start - during.spent_ns) / 1e9
    scale = hostspeed.factor(before, *during.samples, hostspeed.sample())
    return engine, (elapsed, elapsed * scale)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def tail(times, parts: int = 3):
    """The 99th percentile of each third of the run, in time order; the
    median of the three.  A burst of load from another tenant of the host
    lasts seconds and so moves one third at most; a tail the program makes
    itself shows in all three.

    The tail is taken from the times as measured, not host-scaled: the
    host's speed flips within milliseconds, faster than the kernel samples
    can follow, so scaling widened the tail by a different amount in every
    run.  Every run spends some of its time in the host's slow state, and
    the tail lands there."""
    n = len(times)
    return statistics.median(percentile(sorted(times[i * n // parts:(i + 1) * n // parts]), 99)
                             for i in range(parts))


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Slices:
    """Operation times in slices of SLICE_S, each slice scaled by the host
    speed measured just before and just after it.

    The times go into an array allocated before the loop, so that the peak
    RSS does not grow with the number of operations a run completes.
    """

    def __init__(self, capacity: int):
        self.raw = array("q", bytes(8 * capacity))
        self.scale = array("d", bytes(8 * capacity))
        self.count = self._start = 0
        self._before = hostspeed.sample()
        self._end = time.perf_counter_ns() + SLICE_S * 1e9

    def add(self, elapsed: int) -> None:
        if self.count < len(self.raw):
            self.raw[self.count] = elapsed
        else:
            self.raw.append(elapsed)
            self.scale.append(0.0)
        self.count += 1
        if time.perf_counter_ns() >= self._end:
            self.close()

    def close(self) -> None:
        if self.count > self._start:
            after = hostspeed.sample()
            scale = hostspeed.factor(self._before, after)
            for i in range(self._start, self.count):
                self.scale[i] = scale
            self._start, self._before = self.count, after
        self._end = time.perf_counter_ns() + SLICE_S * 1e9

    def times(self, scaled: bool) -> list:
        if not scaled:
            return list(self.raw[:self.count])
        return [t * s for t, s in zip(self.raw[:self.count], self.scale)]


class Counts:
    """Work counts of the traced operations, from the program's own
    QueryTrace lists and event records."""

    def __init__(self, missing: list):
        import turklex.engine as engine_module
        self.counter = Counter()
        self.records = {}
        for name in ("FsdbAccess", "TfsdbAccess"):
            cls = getattr(engine_module, name, None)
            if cls is None:
                missing.append(f"turklex.engine.{name}")
            else:
                self.records[cls] = name

    def add(self, traces) -> None:
        c = self.counter
        c["ops"] += 1
        for trace in traces:
            for name in ("parses", "transformed", "satisfying", "retrieved", "results"):
                c[name] += len(getattr(trace, name, ()))
            for event in getattr(trace, "events", ()):
                kind = self.records.get(type(event))
                if kind == "FsdbAccess":
                    c["senses"] += event.count
                elif kind == "TfsdbAccess":
                    c["template_reads"] += 1


def run(workload: str, seed: int, seconds: float, traced: bool, roots=None) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return Run(workload, seed, work, roots).measure(seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Run:
    def __init__(self, workload: str, seed: int, work: Path, roots):
        import workloads
        self.name, self.seed = workload, seed
        self.wl = workloads.WORKLOADS[workload](prepare(workload, seed, work, roots), work)
        self.problems = []
        self.attempted = self.rounds = 0

    def round(self, on_op) -> int:
        """One round of operations, each timed and checked."""
        wl = self.wl
        done = 0
        for arg in wl.round():
            start = time.thread_time_ns()
            traces = wl.op(arg)
            elapsed = time.thread_time_ns() - start
            on_op(arg, traces, elapsed)
            problem = wl.check(arg, traces)
            if problem is not None:
                self.problems.append(problem)
            done += 1
        return done

    def loop(self, seconds: float, on_op, between_rounds=None) -> None:
        """Whole rounds, closed loop, until ``seconds`` have passed."""
        deadline = time.perf_counter_ns() + seconds * 1e9
        while time.perf_counter_ns() < deadline:
            if between_rounds is not None:
                between_rounds()
            self.attempted += self.round(on_op)
            self.rounds += 1

    def measure(self, seconds: float, traced: bool) -> dict:
        wl = self.wl
        setup_tracer = tracing.Tracer() if traced else None
        wl.engine, load = build(wl.paths(), setup_tracer)
        loads = [load]
        wl.start()
        warm_until = time.perf_counter_ns() + WARMUP_S * 1e9
        while time.perf_counter_ns() < warm_until:
            self.round(lambda *_: None)
        gc.collect()

        if traced:
            layers = self.traced_loop(seconds)
        else:
            times = Slices(int(seconds * MAX_OPS_PER_S))
            self.loop(seconds, lambda arg, traces, elapsed: times.add(elapsed))
            times.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Set-up is timed again on fresh builds, each with no other engine
        # alive; the last one serves the checks.
        for _ in range(wl.loads - 1):
            wl.engine = None
            gc.collect()
            wl.engine, load = build(wl.paths(), setup_tracer)
            loads.append(load)
        wl.start()
        self.problems += wl.verify()
        clauses = len(wl.engine.db)

        details = {"workload": self.name, "seed": self.seed, "seconds": seconds,
                   "rounds": self.rounds, "loads_s": loads, "problems": self.problems[:20],
                   "problem_count": len(self.problems)}
        if getattr(wl, "failing_queries", None):
            details["failing_queries"] = wl.failing_queries
        if hasattr(wl, "query_medians"):
            details["query_p50_us"] = wl.query_medians()
        if traced:
            metrics = layers(setup_tracer, len(loads), clauses, details)
        else:
            raw, scaled = times.times(False), times.times(True)
            details["unscaled"] = {
                "setup_s": statistics.median(load[0] for load in loads),
                "op_p50_us": percentile(sorted(raw), 50) / 1000,
                "ops_per_s": len(raw) / (sum(raw) / 1e9),
            }
            metrics = {
                "setup_s": statistics.median(load[1] for load in loads),
                "op_p50_us": percentile(sorted(scaled), 50) / 1000,
                "op_p99_us": tail(raw) / 1000,
                "ops_per_s": len(scaled) / (sum(scaled) / 1e9),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in metrics.items()}
        details["metrics"] = metrics
        RESULTS.mkdir(exist_ok=True)
        name = f"{self.name}-seed{self.seed}-trace{int(traced)}.json"
        (RESULTS / name).write_text(json.dumps(details, indent=1), encoding="utf-8")
        for problem in self.problems[:5]:
            print(f"problem: {problem}", file=sys.stderr)
        for target in details.get("missing", ()):
            print(f"missing traced name: {target}", file=sys.stderr)
        for span in details.get("idle", ()):
            print(f"span never entered: {span}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.rounds * wl.failing, "metrics": metrics, "details": details}

    def traced_loop(self, seconds: float):
        """Traced and untraced slices alternate; returns a function that
        turns what was recorded into the per-layer metrics."""
        wl = self.wl
        tracer = tracing.Tracer(keep_ops=KEEP_OPS)
        counts = Counts(tracer.missing)
        spans = tracing.QUERY_SPANS + (tracing.EDIT_SPANS if self.name == "edit" else [])
        plain = [0, 0]  # untraced ops: count, ns
        traced = [0, 0]  # traced ops: count, ns
        written = [0, 0]  # edit: bytes written, bytes of the added clauses
        state = {"on": False, "end": 0}

        def on_op(arg, traces, elapsed):
            if not state["on"]:
                plain[0] += 1
                plain[1] += elapsed
                return
            traced[0] += 1
            traced[1] += elapsed
            tracer.op = traced[0]
            counts.add(traces)
            if self.name == "edit":
                total, clause = wl.bytes_written(arg)
                written[0] += total
                written[1] += clause

        def switch():
            if time.perf_counter_ns() >= state["end"]:
                state["on"] = not state["on"]
                if state["on"]:
                    tracer.install(spans)
                else:
                    tracer.uninstall()
                state["end"] = time.perf_counter_ns() + TRACE_SLICE_S * 1e9

        self.loop(seconds, on_op, switch)
        tracer.uninstall()

        def layers(setup_tracer, loads, clauses, details):
            details["missing"] = setup_tracer.missing + tracer.missing
            details["idle"] = setup_tracer.idle() + tracer.idle()
            details["span_records"] = tracer.records
            details["counts"] = dict(counts.counter)
            return layer_metrics(tracer, setup_tracer, counts.counter, traced, plain,
                                 loads, clauses, written)
        return layers


def layer_metrics(tracer, setup_tracer, counts, traced, plain, loads, clauses,
                  written) -> dict:
    n, traced_ns = traced
    self_ns, calls, setup_ns = tracer.self_ns, tracer.calls, setup_tracer.self_ns

    def us(span):
        return ratio(self_ns[span], n) / 1000

    def per_load(*spans):
        return sum(setup_ns[span] for span in spans) / loads / 1e9

    values = {
        "featstruct.unify_us": (us("featstruct.unify"), "us"),
        "featstruct.unify_per_op": (ratio(calls["featstruct.unify"], n), "count"),
        "fsdb.lookup_template_us": (us("fsdb.lookup_template"), "us"),
        "fsdb.template_reads_per_op": (ratio(counts["template_reads"], n), "count"),
        "engine.build_derived_us": (us("engine.build_derived"), "us"),
        "engine.retrieve_us": (us("engine.retrieve"), "us"),
        "fsdb.lookup_us": (us("fsdb.lookup"), "us"),
        "fsdb.senses_per_op": (ratio(counts["senses"], n), "count"),
        "engine.retrieve.kept_ratio": (ratio(counts["retrieved"], counts["senses"]), "ratio"),
        "engine.early_filter_us": (us("engine.early_filter"), "us"),
        "featstruct.project_us": (us("featstruct.project"), "us"),
        "featstruct.subsumes_us": (us("featstruct.subsumes"), "us"),
        "featstruct.subsumes_per_op": (ratio(calls["featstruct.subsumes"], n), "count"),
        "engine.early_filter.kept_ratio": (ratio(counts["satisfying"], counts["transformed"]), "ratio"),
        "engine.final_filter_us": (us("engine.final_filter"), "us"),
        "engine.final_filter.kept_ratio": (ratio(counts["results"], counts["retrieved"]), "ratio"),
        "engine.results_per_op": (ratio(counts["results"], n), "count"),
        "morph.lookup_us": (us("morph.lookup"), "us"),
        "morph.parses_per_op": (ratio(counts["parses"], n), "count"),
        "engine.transform_us": (us("engine.transform"), "us"),
        "engine.transform.mapped_ratio": (ratio(counts["transformed"], counts["parses"]), "ratio"),
        "engine.other_us": (ratio(traced_ns - tracer.top_ns, n) / 1000, "us"),
        "morph.load_s": (per_load("morph.load"), "s"),
        "catmap.load_s": (per_load("catmap.load_inventory", "catmap.load_rootmap",
                                   "catmap.load_derivmap"), "s"),
        "fsdb.load_s": (per_load("fsdb.load"), "s"),
        "featstruct.parse_fs_text_s": (per_load("featstruct.parse_fs_text"), "s"),
        "fsdb.clauses_loaded": (clauses, "count"),
        "featstruct.parse_fs_text_us": (us("featstruct.parse_fs_text"), "us"),
        "fsdb.add_entry_us": (us("fsdb.add_entry"), "us"),
        "fsdb.delete_entry_us": (us("fsdb.delete_entry"), "us"),
        "fsdb.dumps_us": (us("fsdb.dumps"), "us"),
        "featstruct.render_fs_us": (us("featstruct.render_fs"), "us"),
        "fsdb.save_write_us": (us("fsdb.save"), "us"),
        "fsdb.bytes_written_per_op": (ratio(written[0], n), "B"),
        "fsdb.write_amplification": (ratio(written[0], written[1]), "ratio"),
        "bench.trace_overhead_ratio": (ratio(ratio(traced_ns, n), ratio(plain[1], plain[0])), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def smoke() -> int:
    """Every workload briefly, untraced and traced, with every check."""
    bad = 0
    for workload in ("golden", "restrict", "large", "edit"):
        for traced in (False, True):
            result = run(workload, 1, SMOKE_SECONDS, traced,
                         roots=SMOKE_ROOTS if workload == "large" else None)
            missing = result["details"].get("missing", [])
            idle = result["details"].get("idle", [])
            ok = result["correct"] and not missing and not idle
            bad += not ok
            print(f"{workload:9} trace={int(traced)} attempted={result['attempted']:6} "
                  f"failed={result['failed']:5} correct={result['correct']} "
                  f"missing={missing} idle={idle} {'ok' if ok else 'FAIL'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["golden", "restrict", "large", "edit"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "turklex" / "__init__.py").is_file():
        print(f"{SRC / 'turklex'} not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
