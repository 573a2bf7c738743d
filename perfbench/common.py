"""Shared helpers of the benchmark: statistics, host diagnostics, results.

Nothing here imports ``repro``; the workloads import it through
:func:`import_repro`, which insists on the checkout's own ``src/`` tree so
the benchmark never measures some other installed copy.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Samples a reported percentile needs strictly beyond it.  A tail read
#: from fewer samples moves with every outlier (and can even land below a
#: lower percentile of the same run).
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def import_repro():
    """Import ``repro`` from ``<checkout>/src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return repro


def pin_to_one_core() -> None:
    """Run this process, and every process it starts, on one vCPU.

    The driver and its one worker hand work back and forth and seldom
    compute at once.  Across two vCPUs, each of dist-procs' ~1,000 pool
    round trips per op waits for the hypervisor to wake the other vCPU,
    and op latency follows the host's load (p50 411-666 ms over four
    seeds, against 278-374 ms pinned).  On one vCPU the host probe also
    sees the speed of every process that does the work.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def stop_resource_tracker() -> None:
    """Stop the helper process that worker pools start, and wait for it.

    ``multiprocessing`` starts one resource-tracker process per driver and
    leaves it to exit on its own after the driver does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``, linear interpolation.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, i.e. when ``len(values) * (1 - q / 100) < MIN_BEYOND``.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    beyond = n * (1.0 - q / 100.0)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class HostClock:
    """Tracks the host's speed with a fixed probe, to calibrate wall times.

    The probe is a level-synchronous BFS over a 120x120 grid graph in
    plain numpy, written here and sharing no code with ``repro``: the same
    mix of interpreter steps and small array operations as the library's
    traversals, so it slows down with them.  A shared 2-vCPU host runs the
    same op at two speeds about 1.6x apart, switching every few seconds,
    and drifts by as much again over tens of minutes.  Wall times scaled
    by ``REFERENCE_MS / probe`` (probe interpolated at the op's midpoint)
    spread 2-3% where the raw ones spread 20%.  A library change cannot
    move the probe, so it still moves every calibrated time.
    """

    #: Calibrated times are what a host running the probe in this many ms
    #: would see (a shared 2-vCPU Xeon VM, in its fast spells).
    REFERENCE_MS = 5.0

    def __init__(self, side: int = 120) -> None:
        cells = np.arange(side * side).reshape(side, side)
        pairs = [(cells[:, :-1], cells[:, 1:]), (cells[:-1, :], cells[1:, :])]
        rows = np.concatenate([x.ravel() for a, b in pairs for x in (a, b)])
        cols = np.concatenate([x.ravel() for a, b in pairs for x in (b, a)])
        order = np.lexsort((cols, rows))
        self._indices = cols[order]
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=side * side))])
        #: probe midpoints (perf_counter s) and durations (ms)
        self.times: list[float] = []
        self.probes_ms: list[float] = []
        self._bfs()  # first-call costs stay out of the record

    def _bfs(self) -> int:
        indptr, indices = self._indptr, self._indices
        level = np.full(indptr.size - 1, -1)
        level[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        depth = 0
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            nbrs = indices[offsets + np.arange(counts.sum())]
            frontier = np.unique(nbrs[level[nbrs] < 0])
            depth += 1
            level[frontier] = depth
        return depth

    def probe(self) -> float:
        """Run the probe once, record and return its wall time in ms."""
        t0 = time.perf_counter()
        self._bfs()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.probes_ms.append(1e3 * (t1 - t0))
        return self.probes_ms[-1]

    def sample_ms(self, repeats: int = 7) -> float:
        """Median of ``repeats`` probes: the host's speed right now."""
        return median([self.probe() for _ in range(repeats)])

    def calibrate(self, values, at) -> list[float]:
        """Scale wall times taken at midpoints ``at`` to the reference host."""
        if not self.times:
            raise BenchError("host clock has no probes")
        probe = np.interp(at, self.times, self.probes_ms)
        return [float(v) for v in np.asarray(values) * (self.REFERENCE_MS / probe)]


# ----------------------------------------------------------------------
# Host diagnostics (reported, never gated)
# ----------------------------------------------------------------------
def cpu_times() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies from ``/proc/stat``, or None if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(x) for x in fields[1:]]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def steal_pct(before, after) -> float:
    """Share of CPU time the hypervisor stole between two :func:`cpu_times`."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def reset_peak_rss() -> bool:
    """Restart the high-water RSS count of this process (Linux 4.0+).

    Called once the inputs and references exist, so ``peak_rss_mb``
    covers set-up and measurement, not input generation.  Freed heap
    is handed back to the kernel first, so it does not count either.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the leftover heap stays in the count
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child, in MiB.

    ``RUSAGE_CHILDREN`` covers only children already waited for, so call
    this after the worker pools are closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class Outcome:
    """Per-op samples of one measured phase and how many ops were right."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        #: perf_counter midpoint of each sample, for host calibration
        self.at: list[float] = []
        self.attempted = 0
        self.ok = 0
        self.timed_wall_s = 0.0
        #: workload-specific sums over the phase's ops
        self.totals: dict[str, int] = defaultdict(int)

    def record(self, latency_ms: float, ok: bool, at: float) -> None:
        self.attempted += 1
        self.ok += bool(ok)
        self.latencies_ms.append(latency_ms)
        self.at.append(at)

    def fail(self) -> None:
        """An op that raised or was refused: attempted, never correct."""
        self.attempted += 1

    @property
    def ok_ratio(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0

    def end_to_end(self, setup_s: float, latency_ms: float, ops_per_s: float) -> dict:
        """The gated metrics, from the workload's set-up time and op times."""
        return {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (latency_ms, "ms"),
            "throughput_ops_s": (ops_per_s, "1/s"),
            "ok_ratio": (self.ok_ratio, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }


def emit(attempted: int, ok: int, metrics: dict[str, tuple[float, str]], notes: dict) -> None:
    """Print the human summary line, then the result JSON as the last line."""
    print("# " + json.dumps({"n_ops": attempted, **notes}, sort_keys=True), flush=True)
    result = {
        "correct": attempted > 0 and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
