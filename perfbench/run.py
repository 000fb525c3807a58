"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_day --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round (and writes its spans under
``perfbench/traces/``).  ``--workload all`` runs every workload in turn.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, without that line, when the program's sources are
missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

#: Workload seed used when none is given, and the held-out seed that a
#: claimed gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261

#: End-to-end metric → unit (see BENCHMARK.json).
END_TO_END = {"setup_s": "s", "qps": "1/s", "p50_ms": "ms",
              "tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; claims must also "
             f"hold on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> str:
    import numpy

    return (f"machine: nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"platform={platform.platform()} "
            f"reference_loop_ms={1000 * reference_loop():.1f}")


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop (fastest of 3).

    The host's speed drifts by up to 2x under other tenants' load; this
    fixed amount of work, timed at the start of every run, shows how
    fast the host was when the run's figures were taken.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def report(workload, outcome, trace: bool) -> None:
    """The human-readable part: notes, named metrics, layer table."""
    print(f"== {workload.name}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:<22} {value:>12.4f} {unit}")
    for name in ("setup_s", "peak_rss_mb"):
        if name in outcome.metrics:
            print(f"  {name:<22} {outcome.metrics[name]:>12.4f} "
                  f"{END_TO_END[name]}")
    print(f"  {'error_rate':<22} {outcome.error_rate:>12.6f} fraction "
          f"(failed {outcome.failed}, shed {outcome.shed}, wrong "
          f"{outcome.wrong} of {outcome.attempted})")
    if trace:
        from spans import LAYER_METRICS, BUSY_SPANS

        busy = {name: outcome.layers.get(name, 0.0) for name in BUSY_SPANS}
        total = sum(busy.values())
        if total > 0:
            print("  self time by layer (traced round):")
            for name, seconds in sorted(busy.items(),
                                        key=lambda kv: -kv[1]):
                print(f"    {name:<24} {seconds:>9.4f} s "
                      f"{100 * seconds / total:>5.1f}%")
        print("  per-layer metrics:")
        for name, unit in LAYER_METRICS.items():
            if name not in BUSY_SPANS:
                print(f"    {name:<28} {outcome.layers.get(name, 0.0):>12.4f}"
                      f" {unit}")


def stop_processes() -> None:
    """Stop every process this run started and wait for each to end.

    Shard workers are joined when their cluster closes; any child still
    alive (a run cut short by an error) is terminated here.  A
    shared-memory table also starts multiprocessing's resource tracker,
    a helper process meant to outlive its parent; it is stopped and
    reaped last, once no child holds its pipe open.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    # A run stopped with SIGTERM unwinds like an error, so the teardown
    # below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(parse_args(argv))
    finally:
        stop_processes()


def run(args: argparse.Namespace) -> int:
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SOURCES}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r} (have: "
              f"{', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    print(machine())
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name](args.seed)
        outcome = workload.run(args.seconds, trace)
        report(workload, outcome, trace)
        if trace and outcome.recorder is not None:
            out_dir = HERE / "traces"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"{name}-seed{args.seed}.jsonl.gz"
            outcome.recorder.dump(path)
            print(f"  spans: {len(outcome.recorder.spans)} written to "
                  f"{path.relative_to(ROOT)}")
        correct = correct and outcome.wrong == 0 and outcome.failed == 0
        attempted += outcome.attempted
        failed += outcome.failed + outcome.shed + outcome.wrong
        if trace:
            values = {n: (outcome.layers.get(n, 0.0), u)
                      for n, u in LAYER_METRICS.items()}
        else:
            values = {n: (outcome.metrics[n], u)
                      for n, u in END_TO_END.items()}
        for metric, (value, unit) in values.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": float(value), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
