"""Benchmark entry point.

    python3 perfbench/run.py --workload serial-suite --seed 1 --seconds 30 --trace 0

Prints a ``#`` summary line (sample count and host diagnostics), then the
result as one JSON object on the last line of standard output.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run, which also
writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys

import tracing
from common import (
    OUT_DIR,
    ROOT,
    BenchError,
    cpu_times,
    emit,
    import_repro,
    median,
    percentile,
    pin_to_one_core,
    steal_pct,
    stop_resource_tracker,
)
from workloads import PER_LAYER, WORKLOADS


def code_hash() -> str:
    """Digest of the library and benchmark sources: "the same code"."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_exact(workload, metrics: dict[str, float]) -> list[str]:
    """Compare the exact counts with the previous traced run of the same code.

    Returns the names that differ, and records this run's counts.
    """
    counts = {name: metrics[name] for name in workload.exact}
    path = OUT_DIR / f"exact-{workload.name}.json"
    current = {"code": code_hash(), "counts": counts}
    mismatches = []
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["code"] == current["code"]:
            mismatches = [k for k, v in counts.items() if previous["counts"].get(k) != v]
    path.write_text(json.dumps(current, indent=1, sort_keys=True))
    for name in mismatches:
        print(
            f"# EXACT COUNT CHANGED: {name} {previous['counts'].get(name)} -> {counts[name]}",
            file=sys.stderr,
        )
    return mismatches


def traced_metrics(workload, tracer, plain, traced, seed: int) -> dict[str, tuple[float, str]]:
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(workload.layer_metrics(tracer, traced))
    # calibrated, so a change of host speed between the phases cancels
    p50_plain = percentile(workload.latencies(plain), 50)
    p50_traced = percentile(workload.latencies(traced), 50)
    values["trace.overhead_pct"] = 100.0 * (p50_traced / p50_plain - 1)
    values["trace.exact_mismatches"] = len(check_exact(workload, values))
    (OUT_DIR / f"trace-{workload.name}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "summary": tracer.summary(),
                "columns": ["id", "name", "start", "end", "parent", "op", "attrs"],
                "spans": tracer.spans,
            }
        )
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_core()
    try:
        repro = import_repro()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload](repro, args.seed)
        cpu0, probe0 = cpu_times(), workload.clock.sample_ms()
        tracer = tracing.Tracer(workload.layers) if args.trace else None
        try:
            setups, plain, traced = workload.execute(args.seconds, tracer)
        finally:
            stop_resource_tracker()
        probe1, cpu1 = workload.clock.sample_ms(), cpu_times()
        notes = {
            "workload": args.workload,
            "seed": args.seed,
            "workers": workload.workers,
            "host.probe_ms": [round(probe0, 3), round(probe1, 3)],
            "host.steal_pct": round(steal_pct(cpu0, cpu1), 3),
            "rss_reset": workload.rss_reset,
        }
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            metrics = traced_metrics(workload, tracer, plain, traced, args.seed)
            notes["traced_ops"] = traced.attempted
        else:
            if not plain.latencies_ms:
                raise BenchError("no op completed")
            metrics = workload.end_to_end(setups, plain)
            with contextlib.suppress(ValueError):  # too few samples for a p95
                notes["latency_p95_ms"] = percentile(workload.latencies(plain), 95)
            notes["wall.setup_s"] = median(setups)
            notes["wall.latency_p50_ms"] = median(plain.latencies_ms)
            notes["wall.throughput_ops_s"] = len(plain.latencies_ms) / plain.timed_wall_s
        emit(plain.attempted + traced.attempted, plain.ok + traced.ok, metrics, notes)
    except (BenchError, ValueError) as exc:  # ValueError: too few samples
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
