"""Self-tests of the benchmark's own helpers.

    python3 perfbench/selftest.py

Small inputs only; takes a few seconds.  Not part of the library's test
suite: these check the measuring instrument, not the program.
"""

from __future__ import annotations

import asyncio
import json
import time
import unittest

import tracing
from common import ROOT, BenchError, HostClock, import_repro, percentile
from workloads import PER_LAYER, WORKLOADS, SerialSuite, open_loop

repro = import_repro()

#: A quick serial-suite: three small surrogates, cheap to run and check.
SMALL = ("nd24k", "serena", "ldoor")


def small_suite() -> SerialSuite:
    wl = SerialSuite(repro, seed=3, names=SMALL, scale=0.4)
    wl.prepare(seconds=0.2)
    return wl


class PercentileTest(unittest.TestCase):
    def test_refuses_thin_tail(self):
        with self.assertRaises(ValueError):
            percentile(list(range(199)), 95)  # 9.95 samples beyond p95
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 50)

    def test_accepts_supported_tail(self):
        self.assertAlmostEqual(percentile(list(range(200)), 95), 189.05)
        self.assertEqual(percentile(list(range(21)), 50), 10)

    def test_tail_not_below_median(self):
        values = [float(v % 37) for v in range(400)]
        self.assertGreaterEqual(percentile(values, 95), percentile(values, 50))


class HostClockTest(unittest.TestCase):
    def test_calibration_scales_by_reference_over_probe(self):
        clock = HostClock(side=20)
        self.assertEqual(clock.probes_ms, [])  # the warm-up call is not recorded
        clock.times, clock.probes_ms = [0.0, 2.0], [5.0, 10.0]
        ref = HostClock.REFERENCE_MS
        got = clock.calibrate([10.0, 10.0, 10.0], [0.0, 1.0, 2.0])
        for value, probe in zip(got, (5.0, 7.5, 10.0)):  # interpolated at 1.0
            self.assertAlmostEqual(value, 10.0 * ref / probe)

    def test_probe_records_its_midpoint(self):
        clock = HostClock(side=20)
        t0 = time.perf_counter()
        ms = clock.probe()
        self.assertEqual(clock.probes_ms, [ms])
        self.assertTrue(t0 <= clock.times[0] <= time.perf_counter())
        self.assertGreater(ms, 0.0)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_lateness(self):
        """A stall delays later sends; their latency includes the delay."""
        latency = {}

        async def send(i, due):
            if i == 0:
                time.sleep(0.1)  # blocks the loop, as a slow handler would
            latency[i] = time.perf_counter() - due

        _, late = asyncio.run(open_loop([0.0, 0.01, 0.02], send))
        self.assertGreater(late[1], 0.08 * 1e3)
        self.assertGreater(latency[1], 0.08)
        self.assertGreater(latency[2], 0.07)


class TracingTest(unittest.TestCase):
    def test_untraced_run_has_no_wrappers(self):
        self.assertEqual(tracing.find_wrappers(repro), [])
        wl = small_suite()
        plain, traced = wl.measure(0.1, None)
        self.assertGreater(plain.attempted, 0)
        self.assertEqual(traced.attempted, 0)
        self.assertEqual(tracing.find_wrappers(repro), [])

    def test_install_and_uninstall_restore_everything(self):
        tracer = tracing.Tracer()
        tracer.install(repro)
        try:
            found = tracing.find_wrappers(repro)
            self.assertEqual(len(found), len(tracing._targets(repro)) + 1)
            with self.assertRaises(BenchError):
                tracing.assert_untraced(repro)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.find_wrappers(repro), [])

    def test_traced_pass_records_nested_spans(self):
        wl = small_suite()
        tracer = tracing.Tracer(wl.layers)
        plain, traced = wl.measure(0.1, tracer)
        self.assertEqual(tracing.find_wrappers(repro), [])
        self.assertGreater(traced.attempted, 0)
        self.assertEqual(traced.ok, traced.attempted)
        metrics = wl.layer_metrics(tracer, traced)
        self.assertGreater(metrics["core.bfs.levels"], 0)
        self.assertEqual(metrics["backends.expand.calls"], metrics["core.bfs.levels"])
        self.assertLess(metrics["core.finder.share"], 1.0)
        own = tracer.self_seconds()
        self.assertTrue(all(v > -1e-6 for v in own.values()))


class CorrectnessTest(unittest.TestCase):
    def test_corrupted_permutation_lowers_ok_ratio(self):
        wl = small_suite()
        clean, _ = wl.measure(0.05, None)
        self.assertEqual(clean.ok_ratio, 1.0)
        real = repro.rcm
        calls = []

        def corrupting(A):
            out = real(A)
            calls.append(1)
            if len(calls) == 2:  # swap two labels of one output
                out.perm[[0, 1]] = out.perm[[1, 0]]
            return out

        repro.rcm = corrupting
        try:
            dirty, _ = wl.measure(0.05, None)
        finally:
            repro.rcm = real
        self.assertEqual(dirty.ok, dirty.attempted - 1)
        self.assertLess(dirty.ok_ratio, 1.0)


class DeclarationTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _ in PER_LAYER])
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [u for _, u in PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        wl = small_suite()
        plain, _ = wl.measure(0.05, None)
        e2e = wl.end_to_end([1.0], plain)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(name, unit) for name, (_, unit) in e2e.items()],
        )
        for workload in WORKLOADS.values():
            self.assertTrue(set(workload.exact) <= {n for n, _ in PER_LAYER})


if __name__ == "__main__":
    unittest.main()
