"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable summary goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

from timing import Timer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")

# Every run executes under this hash seed.  String hashing sets the layout
# of the sets and dicts the program builds, and with it part of its speed,
# while every state count is the same under any hash seed.
HASH_SEED = "0"
SETUP_REPS = 3
WORKLOAD_NAMES = ("synth-corpus", "rover-stream", "metric-sessions")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-execute this process image under ``HASH_SEED`` (same process)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def import_program() -> None:
    """Import ``ltlscope`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import ltlscope
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(ltlscope.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ltlscope came from {ltlscope.__file__}, not {SRC}")


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Set-up, rounds and checks of one workload."""

    def __init__(self, workload):
        self.w = workload
        self.timer = Timer()
        self.rounds = []          # timing.Sample per round
        self.signatures = None    # of the first round's results
        self.mismatched = []      # per round: op indices whose output changed

    def setup(self) -> float:
        from workloads import clear_caches
        clear_caches()
        gc.collect()
        sample = self.timer.run(*self.w.setup_steps())
        if sample.errors:
            index, exc = sample.errors[0]
            raise RuntimeError(f"set-up step {index} failed: {exc!r}") from exc
        return sample.total

    def round(self):
        gc.collect()
        sample = self.timer.run(*self.w.round_steps())
        sigs = [None if r is None else self.w.signature(r) for r in sample.results]
        if self.signatures is None:
            self.signatures = sigs
            self.w.first_results = sample.results
            self.mismatched.append(set())
        else:
            self.mismatched.append({i for i, (a, b) in enumerate(zip(self.signatures, sigs))
                                    if a != b})
        sample.results = None  # keep only the first round's outputs alive
        self.rounds.append(sample)
        return sample

    def verdict(self) -> dict:
        """Check the first round's outputs; count failed operations in every
        round: a wrong output, an output that changed from the first round,
        or an operation that raised."""
        from checks import CHECKS
        bad = CHECKS[self.w.name](self.w, self.w.first_results)
        failed = 0
        for sample, changed in zip(self.rounds, self.mismatched):
            failed += len(set(bad) | changed | {i for i, _ in sample.errors})
        for i, reason in sorted(bad.items())[:10]:
            print(f"perfbench: operation {i} failed its check: {reason}", file=sys.stderr)
        for k, sample in enumerate(self.rounds):
            for i, exc in sample.errors[:3]:
                print(f"perfbench: round {k} operation {i} raised {exc!r}", file=sys.stderr)
        changed = sum(len(c) for c in self.mismatched)
        if changed:
            print(f"perfbench: {changed} outputs differed from the first round", file=sys.stderr)
        return {"correct": not bad and not changed,
                "attempted": self.w.ops_per_round * len(self.rounds),
                "failed": failed}


def timed_run(w, seconds: float) -> dict:
    """Set up ``SETUP_REPS`` times, then run whole rounds until ``seconds``
    have passed.  Operations repeat exactly from round to round, so each
    operation's latency is its median over the rounds: a stall of the host
    in one round does not reach the percentiles, a cost the program pays in
    every round does."""
    run = Run(w)
    setup = [run.setup() for _ in range(SETUP_REPS)]
    start = time.perf_counter()
    while not run.rounds or time.perf_counter() - start < seconds:
        run.round()
    rss = peak_rss_mb()
    latencies = sorted(statistics.median(lat) for lat in
                       zip(*(s.latencies for s in run.rounds)))
    rates = [w.ops_per_round / s.total for s in run.rounds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_tail": (quantile(latencies, w.tail_quantile) * 1e3, "ms"),
        "machine_states": (w.machine_states(), "states"),
        "peak_rss_mb": (rss, "MB"),
    }
    out = run.verdict()
    factors = [f for s in run.rounds for f in s.factors]
    raw = [w.ops_per_round / s.raw_total for s in run.rounds]
    print(f"perfbench: {w.name} seed {w.seed}: {len(run.rounds)} rounds of "
          f"{w.ops_per_round} ops; set-up {', '.join(f'{t:.3f}' for t in setup)} s; "
          f"tail quantile {w.tail_quantile:.4f}; speed factors "
          f"{min(factors):.2f}-{max(factors):.2f}; raw throughput "
          f"{statistics.median(raw):.1f}/s", file=sys.stderr)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def traced_run(w, seconds: float, seed: int) -> dict:
    """An untraced round, then a traced set-up and round whose spans give
    the per-layer metrics, then further untraced/traced round pairs while
    time remains, for the tracing overhead."""
    from ltlscope.rational import rational_machine
    from tracing import COUNTERS, SPAN_NAMES, UNITS, Tracer
    run = Run(w)
    run.setup()
    start = time.perf_counter()
    plain = [run.round().total]
    tracer = Tracer()
    tracer.install()
    try:
        run.setup()
        before = rational_machine.cache_info()
        traced = [run.round().total]
        after = rational_machine.cache_info()
    finally:
        tracer.uninstall()
    while time.perf_counter() - start < seconds:
        plain.append(run.round().total)
        extra = Tracer()
        extra.install()
        try:
            traced.append(run.round().total)
        finally:
            extra.uninstall()
    out = run.verdict()

    metrics = {}
    missing = []
    for name in SPAN_NAMES:
        calls = tracer.calls[tracer.ids[name]]
        if calls == 0 and name in w.layers:
            missing.append(name)
        if name == "formula.metric_form":
            metrics["formula.metric_form_calls"] = (calls, "count")
            continue
        metrics[f"{name}_{UNITS[name]}"] = (tracer.mean_self(name), UNITS[name])
        if name in ("rational.metric", "rational.knapsack"):
            metrics[f"{name}_calls"] = (calls, "count")
    for counter in COUNTERS:
        unit = "count" if counter.endswith("skipped") else "states"
        metrics[counter] = (tracer.counts[counter], unit)
    hits, misses = after.hits - before.hits, after.misses - before.misses
    metrics["monitor.machine_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    windows = getattr(w, "windows", 0)
    metrics["rational.open_window_ratio"] = (
        w.open_windows / windows if windows else 0.0, "ratio")
    ratios = [p / t for p, t in zip(plain, traced)]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    for name in missing:
        print(f"perfbench: layer {name} saw no calls on {w.name}; its metrics are left out",
              file=sys.stderr)
        for key in [k for k in metrics if k.startswith(name + "_")]:
            del metrics[key]

    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{w.name}-{seed}.json"))
    print(f"perfbench: {w.name} seed {seed}: traced pass of {len(tracer.start)} spans, "
          f"{len(ratios)} overhead pairs", file=sys.stderr)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def main() -> int:
    args = parse_args(sys.argv[1:])
    pin_hash_seed()
    import_program()
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced_run(w, args.seconds, args.seed)
    else:
        result = timed_run(w, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
