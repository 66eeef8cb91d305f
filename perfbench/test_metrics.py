"""Tests of the benchmark's arithmetic on synthetic spans and samples.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
from metrics import Ratio, Span  # noqa: E402


def span(name, start, dur, tid=0, **args):
    return Span(name, tid, start, dur, args)


def chrome_trace(events, **counters):
    """A trace as Sink::write_chrome_trace writes it, from
    (name, tid, start_ns, dur_ns, args) tuples."""
    out = [{"name": n, "ph": "X", "ts": start / 1e3, "dur": dur / 1e3,
            "pid": 1, "tid": tid, "args": args}
           for n, tid, start, dur, args in events]
    out += [{"name": "counter/" + k, "ph": "C", "ts": 0, "pid": 1,
             "args": {"value": v}} for k, v in counters.items()]
    return {"traceEvents": out, "displayTimeUnit": "ms"}


class Percentiles(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(metrics.percentile(list(range(1, 21)), 0.5),
                         (10, 20, 10))
        with self.assertRaises(metrics.NotEnoughSamples):
            metrics.percentile(list(range(1, 20)), 0.5)
        self.assertEqual(metrics.percentile(list(range(100)), 0.9),
                         (89, 100, 10))
        with self.assertRaises(metrics.NotEnoughSamples):
            metrics.percentile(list(range(99)), 0.9)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(metrics.percentile(samples, 0.5)[0], 3.0)
        self.assertEqual(metrics.percentile(samples, 0.5)[0],
                         metrics.percentile(sorted(samples), 0.5)[0])

    def test_latency_metrics_carry_count_and_unit(self):
        out = {}
        metrics.latency_metrics(out, "job", [i / 1000 for i in range(1, 201)])
        self.assertAlmostEqual(out["job_ms_p50"].value, 100.0)
        self.assertAlmostEqual(out["job_ms_p90"].value, 180.0)
        self.assertEqual(out["job_ms_p90"].unit, "ms")
        self.assertEqual(out["job_ms_p90"].samples, 200)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("bench", 0, 100),
            span("run", 5, 90),
            span("stage-a", 10, 30),
            span("stage-b", 40, 50),
            span("strip", 12, 20),   # inside stage-a, same thread
            span("other-thread", 0, 100, tid=1),
        ]
        parent, self_ns = metrics.nest(spans)
        self.assertEqual(parent, [None, 0, 1, 1, 2, None])
        self.assertEqual(self_ns, [10, 10, 10, 50, 20, 100])

    def test_siblings_and_later_roots(self):
        spans = [span("a", 0, 10), span("b", 10, 10), span("c", 12, 3)]
        parent, self_ns = metrics.nest(spans)
        self.assertEqual(parent, [None, None, 1])
        self.assertEqual(self_ns, [10, 7, 3])

    def test_same_interval_nests_under_the_later_recorded_span(self):
        # A sink records a span when it closes, so a child comes first.
        parent, self_ns = metrics.nest([span("child", 5, 10), span("outer", 5, 10)])
        self.assertEqual(parent, [1, None])
        self.assertEqual(self_ns, [10, 0])

    def test_chrome_trace_keeps_nanoseconds_and_counters(self):
        spans, counters = metrics.read_trace(chrome_trace(
            [("compress", 3, 1234567891, 987654321, {"pool_misses": 2})],
            events_dropped=0, pool_bytes_retained=4096))
        self.assertEqual(spans, [Span("compress", 3, 1234567891, 987654321,
                                      {"pool_misses": 2})])
        self.assertEqual(counters, {"events_dropped": 0,
                                    "pool_bytes_retained": 4096})


class Containment(unittest.TestCase):
    def test_worker_spans_go_to_the_call_that_contains_them(self):
        calls = [span("call", 0, 100), span("call", 200, 100)]
        workers = [span("strip", 10, 50, tid=3), span("strip", 210, 80, tid=4),
                   span("strip", 250, 10, tid=3), span("late", 150, 10, tid=3)]
        groups, unassigned = metrics.assign_by_containment(calls, workers)
        self.assertEqual([[s.start for s in g] for g in groups],
                         [[10], [210, 250]])
        self.assertEqual(unassigned, 1)

    def test_overlapping_calls_prefer_the_latest_start(self):
        calls = [span("job", 0, 100, tid=1), span("job", 20, 50, tid=2)]
        workers = [span("exec", 30, 10, tid=9), span("exec", 80, 10, tid=9)]
        groups, _ = metrics.assign_by_containment(calls, workers)
        self.assertEqual([[s.start for s in g] for g in groups], [[80], [30]])

    def test_covered_wall_time_merges_and_clips(self):
        self.assertEqual(
            metrics.covered_ns([(0, 10), (5, 20), (30, 40), (95, 120)], 2, 100),
            18 + 10 + 5)
        self.assertEqual(metrics.covered_ns([], 0, 10), 0)


class Ratios(unittest.TestCase):
    def test_imbalance_keeps_its_bases(self):
        r = metrics.imbalance([10, 20, 30])
        self.assertEqual((r.num, r.den), (30, 20))
        self.assertAlmostEqual(r.value, 1.5)
        self.assertEqual(r.basis(" ns"), "30 ns / 20 ns")

    def test_zero_base_reads_zero(self):
        self.assertEqual(Ratio(0, 0).value, 0.0)
        self.assertEqual(Ratio(3, 0).basis(), "3 / 0")

    def test_codec_breakdown_shares_and_coverage(self):
        ev = [
            ("bench-compress", 0, 0, 100, {"workers": 0}),
            ("compress", 0, 2, 96, {"pool_misses": 2}),
            ("resolve-transform", 0, 2, 20, {}),
            ("fused-quant-shuffle-mark", 0, 22, 60, {}),
            ("fused-strip", 0, 22, 30, {}),
            ("fused-strip", 1, 23, 58, {}),
            ("prefix-sum-encode", 0, 82, 8, {}),
            ("assemble", 0, 90, 4, {}),
            # Same interval: the sink lists the inner span, which closed
            # first, first.
            ("decompress", 0, 200, 50, {"pool_misses": 0}),
            ("bench-decompress", 0, 200, 50, {"workers": 0}),
            ("fused-decode", 0, 200, 40, {}),
            ("fused-decode-strip", 1, 205, 10, {}),
            ("fused-decode-strip", 2, 210, 10, {}),
            ("reconstruct", 0, 240, 10, {}),
        ]
        codec = {"trace": chrome_trace(ev, pool_bytes_retained=2**20),
                 "rounds": {"compress": {"seconds": [2.0]}},
                 "traced_rounds": {"compress": {"seconds": [2.5]}}}
        out = {}
        metrics.codec_layers(codec, out)
        self.assertAlmostEqual(out["codec.fused_quant_ms"].value, 60e-6)
        self.assertAlmostEqual(out["codec.fused_quant_share"].value, 0.6)
        self.assertAlmostEqual(out["codec.compress_coverage"].value, 0.92)
        self.assertEqual(out["kernels.strips"].value, 2)
        self.assertAlmostEqual(out["kernels.strip_imbalance"].value, 58 / 44)
        self.assertAlmostEqual(out["kernels.decode_tail_ms"].value, 25e-6)
        self.assertAlmostEqual(out["codec.decompress_coverage"].value, 1.0)
        self.assertAlmostEqual(out["pool.misses_per_call"].value, 1.0)
        self.assertAlmostEqual(out["pool.retained_mb"].value, 1.0)
        self.assertAlmostEqual(out["telemetry.overhead"].value, -0.2)


class CalmSamples(unittest.TestCase):
    def test_steal_free_samples_when_enough_qualify(self):
        series = {"seconds": [1, 9, 2, 3, 8, 4, 7, 5],
                  "steal": [0, 5, 0, 0, 1, 0, 3, 0],
                  "ticks": [40] * 8}
        self.assertEqual(metrics.calm(series, 5), [0, 2, 3, 5, 7])
        self.assertEqual(metrics.calm_seconds(series, 2), [1, 2, 3, 4, 5])

    def test_else_the_least_stolen(self):
        series = {"seconds": [1, 2, 3, 4, 5, 6, 7, 8],
                  "steal": [4, 2, 2, 8, 0, 9, 1, 6],
                  "ticks": [40, 40, 10, 40, 40, 40, 40, 40]}
        # Shares: 0.1, 0.05, 0.2, 0.2, 0, 0.225, 0.025, 0.15.
        self.assertEqual(metrics.calm(series, 2), [4, 6])
        self.assertEqual(metrics.calm(series, 3), [1, 4, 6])
        series["ticks"][6] = 10  # 0.1 now, behind index 1 (0.05)
        self.assertEqual(metrics.calm(series, 2), [1, 4])
        # Asking for more samples than there are keeps them all.
        self.assertEqual(metrics.calm(series, 20), list(range(8)))

    def test_calm_bursts_keep_their_own_latencies(self):
        loop = {"calls": [2, 2, 2], "latency_s": [1, 2, 10, 20, 3, 4],
                "bursts": {"seconds": [0.5, 2.0, 0.5], "steal": [0, 7, 0],
                           "ticks": [50, 50, 50]}}
        self.assertEqual(metrics.calm_bursts(loop, keep_calls=4),
                         (4, 1.0, [1, 2, 3, 4], 2))
        # Three bursts' worth: the stolen one joins them.
        self.assertEqual(metrics.calm_bursts(loop, keep_calls=5)[3], 3)


class Outcomes(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        self.assertEqual(metrics.outcome(10, 0), (True, 10, 0))
        self.assertEqual(metrics.outcome(10, 1), (False, 10, 1))
        self.assertEqual(metrics.outcome(0, 0), (False, 0, 0))


if __name__ == "__main__":
    unittest.main()
