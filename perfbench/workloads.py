"""The three workloads: serial-suite, dist-procs and service-open.

Each workload builds its inputs from the seed and computes a reference
result for every input by an independent path, all before any timing.
Every op gets a fresh ``CSRMatrix`` built from the prepared arrays
outside the timed region, so per-matrix caches (degrees, content hash)
are paid by every op, as a real caller pays them.  See README.md for
why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import tracing
from common import (
    HERE,
    BenchError,
    HostClock,
    Outcome,
    median,
    percentile,
    reset_peak_rss,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Seconds between host probes during an open-loop phase.
PROBE_EVERY_S = 0.25

SUITE = (
    "nd24k",
    "ldoor",
    "serena",
    "audikw_1",
    "dielFilterV3real",
    "flan_1565",
    "li7nmax6",
    "nm7",
    "nlpkkt240",
)

#: Every per-layer metric and its unit, in report order.  A traced run
#: reports all of them; a layer its workload does not reach reads 0.
PER_LAYER = [
    ("core.finder.ms", "ms"),
    ("core.finder.share", "ratio"),
    ("core.finder.bfs_sweeps", "count"),
    ("core.bfs.levels", "count"),
    ("core.bfs.us_per_level", "us"),
    ("core.cm_sweep.ms", "ms"),
    *[(f"core.rcm.{name}.ms", "ms") for name in SUITE],
    ("backends.expand.calls", "count"),
    ("backends.expand.ms", "ms"),
    ("backends.expand.share_of_bfs", "ratio"),
    ("distributed.partition.ms", "ms"),
    ("distributed.spmspv.calls", "count"),
    ("distributed.spmspv.ms_per_call", "ms"),
    ("distributed.sortperm.calls", "count"),
    ("distributed.sortperm.ms", "ms"),
    ("distributed.driver.ms", "ms"),
    ("runtime.exchange.calls", "count"),
    ("runtime.exchange.ms", "ms"),
    ("runtime.exchange.worker_ms", "ms"),
    ("runtime.exchange.host_share", "ratio"),
    ("machine.modeled.messages", "count"),
    ("machine.modeled.words", "count"),
    ("service.queue_ms_p50", "ms"),
    ("service.compute_ms_p50", "ms"),
    ("service.worker_rcm_ms_p50", "ms"),
    ("service.hash_ms_p50", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.batch_size_mean", "count"),
    ("service.failed", "count"),
    ("service.rejected", "count"),
    ("service.retried", "count"),
    ("generator.late_ms_p95", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.exact_mismatches", "count"),
]


class Arrays:
    """The CSR arrays of one input; :meth:`fresh` wraps them in a new object."""

    __slots__ = ("n", "indptr", "indices", "data")

    def __init__(self, A) -> None:
        self.n = A.nrows
        self.indptr = A.indptr
        self.indices = A.indices
        self.data = A.data

    def fresh(self, repro):
        return repro.CSRMatrix(self.n, self.n, self.indptr, self.indices, self.data)


def warmup_matrix(repro):
    """The set-up op's input: small, and outside every workload's input set."""
    from repro.matrices import stencil_2d

    return stencil_2d(6, 6)


def _span_ms(recs) -> float:
    return 1e3 * sum(r[3] - r[2] for r in recs)


def _p50(values) -> float:
    return percentile(values, 50) if values else 0.0


class Workload:
    """Inputs, references, set-up and measurement of one workload."""

    name = ""
    #: layers the traced run wraps (see tracing.LAYERS)
    layers: tuple[str, ...] = ()
    #: per-layer metrics that must repeat exactly between traced runs
    exact: tuple[str, ...] = ()
    #: whether the peak-RSS count could be restarted after input generation
    rss_reset = False
    #: worker processes the workload starts
    workers = 0
    #: closed loop (next op after the last one) or open loop (on a schedule)
    closed = False
    #: index in ``clock.probes_ms`` of the set-up phase's first probe
    first_setup_probe = 0

    def __init__(self, repro, seed: int) -> None:
        self.repro = repro
        self.rng = np.random.default_rng(seed)
        self.clock = HostClock()

    def latencies(self, outcome: Outcome) -> list[float]:
        """Op times calibrated by the probes taken around them."""
        return self.clock.calibrate(outcome.latencies_ms, outcome.at)

    def setup_s(self, setups: list[float]) -> float:
        """Median set-up time, scaled by the set-up phase's median probe.

        ``execute`` probes just before each set-up, from probe index
        ``first_setup_probe`` on, when no worker of an earlier set-up is
        left.  One scale for the phase, not one per set-up, because a
        single probe is noisier than a median.
        """
        end = self.first_setup_probe + len(setups)
        probe = median(self.clock.probes_ms[self.first_setup_probe : end])
        return median(setups) * HostClock.REFERENCE_MS / probe

    def end_to_end(self, setups: list[float], outcome: Outcome) -> dict:
        """The gated metrics of an untraced run.

        A closed loop's throughput is ops over the summed op times; an
        open loop's is ops over the schedule's wall, which its send rate
        sets.
        """
        latencies = self.latencies(outcome)
        if self.closed:
            ops_per_s = 1e3 * len(latencies) / sum(latencies)
        else:
            ops_per_s = len(latencies) / outcome.timed_wall_s
        return outcome.end_to_end(self.setup_s(setups), median(latencies), ops_per_s)

    def prepare(self, seconds: float) -> None:
        """Build inputs and their references (neither timed nor set-up)."""
        raise NotImplementedError

    def execute(self, seconds: float, tracer) -> tuple[list, Outcome, Outcome]:
        """Set up, prepare inputs, measure, tear down: ``(setups, untraced, traced)``.

        ``setups`` holds the wall seconds of each set-up.

        Inputs are built after set-up, so pool workers do not inherit them,
        and the peak-RSS count restarts once they exist (``rss_reset``).
        Without a tracer the whole run is untraced and the traced outcome
        stays empty; with one, both phases share the run.
        """
        raise NotImplementedError

    def layer_metrics(self, tracer, traced: Outcome) -> dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Closed loops: one caller, whole passes over a fixed input order
# ----------------------------------------------------------------------
class ClosedLoop(Workload):
    """Ops back to back, in whole passes over ``self.order``.

    A run always ends on a pass boundary, so every run holds each input
    equally often and percentiles sit at the same place in the mix.  A
    traced run alternates untraced and traced passes, so a slow spell of
    the host hits both phases alike.  The host is probed after every op,
    outside its timing.
    """

    closed = True

    def op(self, A):
        raise NotImplementedError

    def check(self, label: str, out, outcome: Outcome) -> bool:
        raise NotImplementedError

    def rotation(self) -> list[str]:
        """The inputs in their fixed order, starting at a seeded offset."""
        k = int(self.rng.integers(len(self.names)))
        return list(self.names[k:] + self.names[:k])

    def _pass(self, outcome: Outcome, tracer) -> None:
        for label in self.order:
            A = self.inputs[label].fresh(self.repro)
            span = tracer.op(outcome.attempted, label) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    out = self.op(A)
            except Exception as exc:  # the run goes on; the op counts as failed
                print(f"# op {label} failed: {exc!r}", file=sys.stderr)
                outcome.fail()
                continue
            dt = time.perf_counter() - t0
            self.clock.probe()
            outcome.timed_wall_s += dt
            outcome.record(dt * 1e3, self.check(label, out, outcome), t0 + 0.5 * dt)

    def measure(self, seconds: float, tracer) -> tuple[Outcome, Outcome]:
        plain, traced = Outcome(), Outcome()
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            on = tracer is not None and k % 2 == 1
            if on:
                tracer.install(self.repro)
            else:
                tracing.assert_untraced(self.repro)
            try:
                self._pass(traced if on else plain, tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
            k += 1
            if time.perf_counter() >= deadline and (tracer is None or k % 2 == 0):
                return plain, traced


class SerialSuite(ClosedLoop):
    """``repro.rcm(A)`` over the nine suite surrogates at scale 1.0."""

    name = "serial-suite"
    layers = ("core", "backends")
    exact = ("core.finder.bfs_sweeps", "core.bfs.levels", "backends.expand.calls")

    def __init__(self, repro, seed: int, names=SUITE, scale: float = 1.0) -> None:
        super().__init__(repro, seed)
        self.names = names
        self.scale = scale

    def prepare(self, seconds: float) -> None:
        from repro.core.rcm_algebraic import rcm_algebraic
        from repro.matrices import PAPER_SUITE

        self.order = self.rotation()
        self.inputs, self.refs = {}, {}
        for name in self.names:
            A = PAPER_SUITE[name].build(self.scale)
            self.inputs[name] = Arrays(A)
            self.refs[name] = rcm_algebraic(A).perm

    def op(self, A):
        return self.repro.rcm(A)

    def check(self, label: str, out, outcome: Outcome) -> bool:
        return np.array_equal(out.perm, self.refs[label])

    def setup_once(self) -> float:
        """``import repro`` plus one op, in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def execute(self, seconds, tracer):
        self.setup_once()  # fills the page cache and bytecode caches
        self.first_setup_probe = len(self.clock.probes_ms)
        setups = []
        for _ in range(SETUP_REPEATS):
            self.clock.probe()
            setups.append(self.setup_once())
        self.op(warmup_matrix(self.repro))  # this interpreter's lazy imports
        self.prepare(seconds)
        self.rss_reset = reset_peak_rss()
        plain, traced = self.measure(seconds, tracer)
        return setups, plain, traced

    def layer_metrics(self, tracer, traced):
        spans = tracer.by_name()
        own = tracer.self_seconds()
        n = traced.attempted
        rcm_ms = _span_ms(spans["core.rcm"])
        finder_ms = _span_ms(spans["core.finder"])
        bfs_ms = _span_ms(spans["core.bfs"])
        levels = sum(r[6]["levels"] for r in spans["core.bfs"])
        expand_ms = _span_ms(spans["backends.expand"])
        label_of = {r[5]: r[6]["label"] for r in spans["op"]}
        per_matrix = defaultdict(list)
        for r in spans["core.rcm"]:
            per_matrix[label_of[r[5]]].append(1e3 * (r[3] - r[2]))
        out = {
            "core.finder.ms": finder_ms / n,
            "core.finder.share": finder_ms / rcm_ms,
            "core.finder.bfs_sweeps": len(spans["core.bfs"]) / n,
            "core.bfs.levels": levels / n,
            "core.bfs.us_per_level": 1e3 * bfs_ms / levels,
            "core.cm_sweep.ms": 1e3 * sum(own[r[0]] for r in spans["core.rcm"]) / n,
            "backends.expand.calls": len(spans["backends.expand"]) / n,
            "backends.expand.ms": expand_ms / n,
            "backends.expand.share_of_bfs": expand_ms / bfs_ms,
        }
        for name, values in per_matrix.items():
            out[f"core.rcm.{name}.ms"] = median(values)
        return out


class DistProcs(ClosedLoop):
    """``rcm_distributed`` on a 2x2 grid over the processes engine."""

    name = "dist-procs"
    layers = ("distributed", "runtime")
    workers = 1
    names = ("nd24k", "li7nmax6", "serena", "audikw_1", "nlpkkt240")
    exact = (
        "distributed.spmspv.calls",
        "distributed.sortperm.calls",
        "runtime.exchange.calls",
        "machine.modeled.messages",
        "machine.modeled.words",
    )

    def prepare(self, seconds: float) -> None:
        from repro.matrices import PAPER_SUITE

        self.order = self.rotation()
        self.inputs, self.refs = {}, {}
        for name in self.names:
            A = PAPER_SUITE[name].build(1.0)
            self.inputs[name] = Arrays(A)
            # serial == distributed is the paper's determinism invariant
            self.refs[name] = self.repro.rcm(A).perm

    def setup_once(self):
        """Fork the pool, build and warm the context, run one op."""
        from repro.distributed import DistContext
        from repro.machine.grid import ProcessGrid
        from repro.runtime import WorkerPool

        warm_A = warmup_matrix(self.repro)
        t0 = time.perf_counter()
        pool = WorkerPool(self.workers)
        try:
            base = DistContext(ProcessGrid.square(4), engine="processes", pool=pool)
            base.warm()
            self.repro.rcm_distributed(warm_A, ctx=base.fork_ledger())
        except BaseException:
            pool.close()
            raise
        return time.perf_counter() - t0, pool, base

    def op(self, A):
        return self.repro.rcm_distributed(A, ctx=self.base.fork_ledger())

    def check(self, label: str, out, outcome: Outcome) -> bool:
        total = out.ledger.total
        outcome.totals["messages"] += total.messages
        outcome.totals["words"] += total.words
        return np.array_equal(out.ordering.perm, self.refs[label])

    def execute(self, seconds, tracer):
        self.first_setup_probe = len(self.clock.probes_ms)
        setups = []
        for i in range(SETUP_REPEATS):
            self.clock.probe()
            secs, pool, self.base = self.setup_once()
            setups.append(secs)
            if i + 1 < SETUP_REPEATS:
                pool.close()
        try:
            self.prepare(seconds)
            self.rss_reset = reset_peak_rss()
            plain, traced = self.measure(seconds, tracer)
        finally:
            pool.close()
        return setups, plain, traced

    def layer_metrics(self, tracer, traced):
        spans = tracer.by_name()
        n = traced.attempted
        exchanges = [r for r in spans["runtime.exchange"] if r[6]]
        wall_s = sum(r[6]["wall_s"] for r in exchanges)
        worker_s = sum(r[6]["worker_s"] for r in exchanges)
        calls = len(spans["distributed.spmspv"])
        return {
            "distributed.partition.ms": _span_ms(spans["distributed.partition"]) / n,
            "distributed.spmspv.calls": calls / n,
            "distributed.spmspv.ms_per_call": _span_ms(spans["distributed.spmspv"]) / calls,
            "distributed.sortperm.calls": len(spans["distributed.sortperm"]) / n,
            "distributed.sortperm.ms": _span_ms(spans["distributed.sortperm"]) / n,
            "distributed.driver.ms": (_span_ms(spans["op"]) - 1e3 * wall_s) / n,
            "runtime.exchange.calls": len(exchanges) / n,
            "runtime.exchange.ms": 1e3 * wall_s / n,
            "runtime.exchange.worker_ms": 1e3 * worker_s / n,
            "runtime.exchange.host_share": (wall_s - worker_s) / wall_s,
            "machine.modeled.messages": traced.totals["messages"] / n,
            "machine.modeled.words": traced.totals["words"] / n,
        }


# ----------------------------------------------------------------------
# Open loop: Poisson arrivals into the reordering service
# ----------------------------------------------------------------------
async def open_loop(arrivals, send) -> tuple[float, list[float]]:
    """Start ``send(i, due)`` at each scheduled time, late or not.

    ``arrivals`` are offsets in seconds from the start.  ``send`` times
    its request from ``due`` (the scheduled send time), so a stall that
    delays the generator shows in the latency of every request it
    delays.  Returns the start time and how late (ms) each send began.
    """
    t0 = time.perf_counter()
    tasks, late = [], []
    for i, at in enumerate(arrivals):
        due = t0 + at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(1e3 * max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.create_task(send(i, due)))
    await asyncio.gather(*tasks)
    return t0, late


class ServiceOpen(Workload):
    """Open-loop requests through ``ServiceClient`` on the serial lane."""

    name = "service-open"
    layers = ("runtime", "service")
    workers = 1
    rate = 20.0  #: requests per second, about a third of the knee
    hot_share = 0.3  #: requests that repeat the hot set (cache reads)
    scales = (0.8, 1.2)  #: range of the unique requests' surrogate scale
    meshes = (
        "nd24k",
        "ldoor",
        "serena",
        "audikw_1",
        "dielFilterV3real",
        "flan_1565",
        "nlpkkt240",
    )

    def prepare(self, seconds: float) -> None:
        """``rate * seconds`` requests and their Poisson send schedule.

        Unique requests are mesh surrogates at a seeded scale, relabeled
        by a seeded permutation.  The scale spreads their cost, so miss
        latencies form one continuous range instead of seven clusters
        whose edges a percentile could land on.  The seed orders a fixed
        mix: every mesh gets the same evenly spaced scales, every hot
        matrix the same number of repeats, and the send gaps are the same
        exponential quantiles, so runs differ in order, not in load.
        """
        from repro.matrices import PAPER_SUITE
        from repro.sparse.permute import permute_symmetric

        rng = self.rng
        count = round(self.rate * seconds)
        n_hot = round(self.hot_share * count)
        ones = np.ones(0)

        def relabeled(name, scale):
            nonlocal ones
            A = PAPER_SUITE[name].build(scale)
            B = permute_symmetric(A, rng.permutation(A.nrows).astype(np.int64))
            arrays = Arrays(B)
            if ones.size < B.nnz:
                ones = np.ones(2 * B.nnz)
            arrays.data = ones[: B.nnz]  # RCM reads structure only; share one buffer
            return arrays, self.repro.rcm(B).perm

        self.hot = [relabeled(name, 1.0) for name in self.meshes]
        unique = []
        for k, name in enumerate(self.meshes):
            m = len(range(k, count - n_hot, len(self.meshes)))
            unique += [(name, x) for x in np.linspace(*self.scales, m)]
        unique = [unique[i] for i in rng.permutation(len(unique))]
        hot = [self.hot[k % len(self.hot)] for k in range(n_hot)]
        self.requests = []
        for is_hot in rng.permutation(np.arange(count) < n_hot):
            self.requests.append(hot.pop() if is_hot else relabeled(*unique.pop()))
        gaps = rng.permutation(-np.log1p(-(np.arange(count - 1) + 0.5) / (count - 1)))
        self.arrivals = np.concatenate([[0.0], np.cumsum(gaps)]) * (
            (count - 1) / self.rate / gaps.sum()
        )

    async def _start(self):
        from repro.service import ReorderingService, ServiceClient, ServiceConfig

        warm_A = warmup_matrix(self.repro)
        t0 = time.perf_counter()
        service = ReorderingService(ServiceConfig(workers=self.workers))
        await service.start()
        try:
            await ServiceClient(service).reorder(warm_A)
        except BaseException:
            await service.stop()
            raise
        return time.perf_counter() - t0, service

    async def _phase(self, client, lo: int, hi: int, tracer) -> Outcome:
        from repro.service import ServiceError

        outcome = Outcome()
        objs = [self.requests[i][0].fresh(self.repro) for i in range(lo, hi)]
        results = []
        last_done = 0.0
        inflight = 0

        async def send(i, due):
            nonlocal last_done, inflight
            inflight += 1
            try:
                res = await client.reorder(objs[i])
            except ServiceError as exc:
                print(f"# request failed: {exc!r}", file=sys.stderr)
                outcome.fail()
                return
            finally:
                inflight -= 1
            done = time.perf_counter()
            last_done = max(last_done, done)
            results.append(res)
            ok = np.array_equal(res.perm, self.requests[lo + i][1])
            outcome.record(1e3 * (done - due), ok, 0.5 * (due + done))

        if tracer is None:
            tracing.assert_untraced(self.repro)
        arrivals = self.arrivals[lo:hi] - self.arrivals[lo]
        stats0 = client.stats()

        async def probing():
            # Only while no request is in flight: the worker shares the
            # probe's vCPU, so a probe beside a busy worker would calibrate
            # the service's own slowdown away.  A probe blocks the loop for
            # ~5 ms; a send it delays counts as late.
            while True:
                if inflight:
                    await asyncio.sleep(0.002)
                    continue
                self.clock.probe()
                await asyncio.sleep(PROBE_EVERY_S)

        prober = asyncio.create_task(probing())
        try:
            t0, late = await open_loop(arrivals, send)
        finally:
            prober.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await prober
        self.clock.probe()
        outcome.timed_wall_s = last_done - t0
        outcome.late_ms = late
        outcome.results = results
        outcome.stats = {k: v - stats0[k] for k, v in client.stats().items()}
        return outcome

    async def _run(self, seconds, tracer):
        from repro.service import ServiceClient

        self.first_setup_probe = len(self.clock.probes_ms)
        setups = []
        for i in range(SETUP_REPEATS):
            self.clock.probe()
            secs, service = await self._start()
            setups.append(secs)
            if i + 1 < SETUP_REPEATS:
                await service.stop()
        try:
            self.prepare(seconds)
            self.rss_reset = reset_peak_rss()
            client = ServiceClient(service)
            for arrays, _ in self.hot:  # the hot set is cached before timing
                await client.reorder(arrays.fresh(self.repro))
            count = len(self.requests)
            if tracer is None:
                plain = await self._phase(client, 0, count, None)
                traced = Outcome()
            else:
                plain = await self._phase(client, 0, count // 2, None)
                tracer.install(self.repro)
                try:
                    traced = await self._phase(client, count // 2, count, tracer)
                finally:
                    tracer.uninstall()
        finally:
            await service.stop()
        return setups, plain, traced

    def execute(self, seconds, tracer):
        return asyncio.run(self._run(seconds, tracer))

    def layer_metrics(self, tracer, traced):
        spans = tracer.by_name()
        n = traced.attempted
        computed = [r for r in traced.results if not (r.cache_hit or r.coalesced)]
        hits = [r for r in traced.results if r.cache_hit]
        exchanges = [r for r in spans["runtime.exchange"] if r[6]]
        wall_s = sum(r[6]["wall_s"] for r in exchanges)
        worker_s = sum(r[6]["worker_s"] for r in exchanges)
        stats = traced.stats
        return {
            "runtime.exchange.calls": len(exchanges) / n,
            "runtime.exchange.ms": 1e3 * wall_s / n,
            "runtime.exchange.worker_ms": 1e3 * worker_s / n,
            "runtime.exchange.host_share": (wall_s - worker_s) / wall_s,
            "service.queue_ms_p50": _p50([r.queue_ms for r in computed]),
            "service.compute_ms_p50": _p50([r.compute_ms for r in computed]),
            "service.worker_rcm_ms_p50": _p50(
                [1e3 * r.cost_regions["service:rcm"] for r in computed]
            ),
            "service.hash_ms_p50": _p50(
                [1e3 * (r[3] - r[2]) for r in spans["service.hash"]]
            ),
            "service.hit_ms_p50": _p50([r.latency_ms for r in hits]),
            "service.hit_ratio": stats["cache_hits"] / stats["submitted"],
            "service.batch_size_mean": stats["computed"] / max(stats["batches"], 1),
            "service.failed": stats["failed"],
            "service.rejected": stats["rejected"],
            "service.retried": stats["retried"],
            "generator.late_ms_p95": percentile(traced.late_ms, 95),
        }


WORKLOADS = {cls.name: cls for cls in (SerialSuite, DistProcs, ServiceOpen)}
