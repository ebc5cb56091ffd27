"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload browse_warm --seed 1 --seconds 14 --trace 0

A run draws one sequence of ops from the seed and plays it in several
passes; every timing is each position's best over the passes, and real
times are scaled by the run's host speed (``hostspeed.py``; see
``perfbench/README.md``). ``--seconds`` sets how many positions a browse
run draws, so that it lasts about that long.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced blocks of ops on the same
set-up, and prints the per-layer metrics of the traced blocks (spans are
written to ``.perfbench_out/``). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records where and how the numbers were produced. A wrong answer from the
program makes ``correct`` false and the exit code 1.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "modeled_p50_ms": "ms",
    "modeled_p99_ms": "ms",
    "wire_bytes_per_op": "bytes",
    "verified_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    data = sorted(values)
    if not data:
        return float("nan")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=20, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, env=env, timeout=20, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, bool(status.strip())


def pin_to_one_cpu():
    """Run this process and every thread it starts on one CPU.

    The load thread and the TCP server threads hand each request back
    and forth and never run Python at the same time (one interpreter
    lock). On separate virtual CPUs every handoff has to wake the other
    CPU, and on a busy host that wake-up can take milliseconds, which
    made ``versioned_writes`` tail latencies swing threefold between
    runs. Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def set_up(workload, repeats: int, before_build=lambda: None) -> float:
    """Build *repeats* times (the last build is kept), then warm up.

    Returns the median build time plus the warm-up time. Key material
    is loaded before this is called, so no RSA key work is timed.
    """
    builds = []
    for attempt in range(repeats):
        if attempt:
            workload.teardown()
        before_build()
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm()
    return statistics.median(builds) + time.perf_counter() - start


def measure(workload, samples, speed) -> None:
    """The untraced timed phase: every position in every pass.

    Only the op calls are timed; ``workload.next_pass()`` between
    passes (on versioned_writes a fresh history's set-up) and the host
    speed probes (:class:`hostspeed.HostSpeed`) are not.
    """
    for pass_index in range(workload.passes):
        if pass_index:
            workload.next_pass()
        speed.next_pass()
        for position in range(workload.positions):
            speed.maybe_probe()
            cpu_start = time.process_time()
            start = time.perf_counter()
            workload.op(samples, position)
            samples.add(samples.call_wall, position, time.perf_counter() - start)
            samples.add(samples.call_cpu, position, time.process_time() - cpu_start)


def measure_traced(workload, recorder, plain, traced) -> dict:
    """Alternate untraced and traced blocks of ``workload.block_ops`` ops
    on the same set-up, so both see the same state; wrappers are in
    place only during traced blocks, and a block never spans two
    passes."""
    cpu = {False: 0.0, True: 0.0}
    counters = {}
    tracing = False
    for pass_index in range(workload.passes):
        if pass_index:
            workload.next_pass()
        for first in range(0, workload.positions, workload.block_ops):
            samples = traced if tracing else plain
            if tracing:
                recorder.install(workload.rpc_slots())
                before = workload.counters()
            cpu_start = time.process_time()
            try:
                for position in range(first, min(first + workload.block_ops, workload.positions)):
                    workload.op(samples, position)
            finally:
                cpu[tracing] += time.process_time() - cpu_start
                if tracing:
                    recorder.restore()
                    for key, value in workload.counters().items():
                        counters[key] = counters.get(key, 0) + value - before.get(key, 0)
            tracing = not tracing
    return {"cpu_s": cpu, "counters": counters}


#: End-to-end metrics that are real (wall or CPU) times, and the one
#: real rate; these are scaled to reference time.
REAL_TIMES = (
    "op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "setup_s", "read_p50_ms", "read_p90_ms",
)
REAL_RATES = ("ops_per_s",)


def end_to_end(samples, setup_s: float, factor: float):
    """The end-to-end metrics over each position's best pass, with real
    times multiplied by the host speed *factor*; also returns the real
    metrics as measured, before scaling."""
    from workloads import best

    call_wall = best(samples.call_wall)
    values = {
        "ops_per_s": len(call_wall) / sum(call_wall),
        "op_p50_ms": percentile(best(samples.op_wall), 50) * 1e3,
        "op_p90_ms": percentile(best(samples.op_wall), 90) * 1e3,
        "cpu_ms_per_op": statistics.fmean(best(samples.call_cpu)) * 1e3,
        "modeled_p50_ms": percentile(best(samples.op_modeled), 50) * 1e3,
        "modeled_p99_ms": percentile(best(samples.op_modeled), 99) * 1e3,
        "wire_bytes_per_op": samples.wire_bytes / samples.ops,
        "verified_fraction": (samples.attempted - samples.failed) / samples.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "read_p50_ms": percentile(best(samples.read_wall), 50) * 1e3,
        "read_p90_ms": percentile(best(samples.read_wall), 90) * 1e3,
    }
    measured = {name: values[name] for name in REAL_TIMES + REAL_RATES}
    for name in REAL_TIMES:
        values[name] *= factor
    for name in REAL_RATES:
        values[name] /= factor
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    return metrics, measured


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale=None,
        out_dir: Path = OUT_DIR, tamper=None):
    """Run one workload; returns (result, provenance).

    ``tamper`` (tests) is called with the workload after set-up, before
    the timed phase.
    """
    from hostspeed import HostSpeed
    from layertrace import PER_LAYER_METRICS, ConnectionCounter, SpanRecorder, layer_metrics
    from workloads import KeyPool, Samples, Scale, make_workload

    scale = scale if scale is not None else Scale()
    out_dir.mkdir(exist_ok=True)
    keys = KeyPool()
    workload = make_workload(workload_name, seed, scale, keys, out_dir)
    workload.plan(seconds)
    keys.preload(workload.keys_needed)
    provenance = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "passes": workload.passes, "positions": workload.positions,
        "setup_repeats": scale.setup_repeats or workload.setup_repeats,
    }
    provenance["git_sha"], provenance["git_dirty"] = git_state()
    connections = ConnectionCounter()
    with connections:
        try:
            setup_s = set_up(workload, provenance["setup_repeats"], connections.reset)
            if tamper is not None:
                tamper(workload)
            if trace:
                recorder = SpanRecorder()
                plain, traced = Samples(), Samples(span_mark=recorder.mark)
                phase = measure_traced(workload, recorder, plain, traced)
                samples_all = (plain, traced)
            else:
                plain = Samples()
                speed = HostSpeed()
                measure(workload, plain, speed)
                samples_all = (plain,)
            mismatches = sum(s.mismatches for s in samples_all)
            if hasattr(workload, "verify_reads"):
                mismatches += workload.verify_reads()
            window_entries = workload.window_entries()
        finally:
            workload.teardown()
    if any(s.ops == 0 for s in samples_all):
        raise RuntimeError(
            f"{workload_name}: no op completed verified "
            f"({sum(s.failed for s in samples_all)} failed, {mismatches} wrong answers)"
        )
    attempted = sum(s.attempted for s in samples_all)
    failed = sum(s.failed for s in samples_all)
    correct = mismatches == 0
    provenance.update({
        "ops": [s.ops for s in samples_all],
        "attempted": attempted, "failed": failed, "wrong_answers": mismatches,
    })
    if trace:
        unrestored = recorder.restored()
        overhead = (
            phase["cpu_s"][True] * 1e3 / traced.ops - phase["cpu_s"][False] * 1e3 / plain.ops
        )
        values, check = layer_metrics(
            recorder.spans, traced.units, traced.ops, phase["counters"],
            {
                "window_entries": window_entries,
                "simnet_modeled_s": recorder.modeled_s,
                "connections_opened": connections.opened / workload.passes,
                "tracing_overhead_cpu_ms_per_op": overhead,
            },
        )
        recorder.dump(out_dir / f"spans-{workload_name}-seed{seed}.jsonl")
        check["unrestored"] = unrestored
        correct = correct and check["ok"] and not unrestored
        provenance["conservation"] = check
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        provenance["samples"] = {
            "op": plain.ops, "op_positions": len(plain.op_wall),
            "read": sum(map(len, plain.read_wall.values())), "read_positions": len(plain.read_wall),
        }
        metrics, provenance["measured"] = end_to_end(plain, setup_s, speed.factor())
        provenance["host_speed"] = {
            "probes": len(speed.times), "probe_ms": speed.probe_s() * 1e3,
            "factor": speed.factor(),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    result, provenance = run(args.workload, args.seed, args.seconds, bool(args.trace))
    provenance["pinned_cpu"] = cpu
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
