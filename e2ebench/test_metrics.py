"""Self-tests of the benchmark's metric layer.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Cover the percentile rule, the error accounting and the BENCHMARK.json
reader, plus the span arithmetic behind trace.coverage.
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile(list(reversed(values)), 0.9), 90)
        self.assertEqual(metrics.percentile([7.0], 0.99), 7.0)
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertEqual(metrics.samples_beyond(99, 0.9), 9)
        self.assertEqual(metrics.samples_beyond(1000, 0.99), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(metrics.supported_percentile(19))
        self.assertEqual(metrics.supported_percentile(20), 0.5)
        self.assertEqual(metrics.supported_percentile(99), 0.5)
        self.assertEqual(metrics.supported_percentile(100), 0.9)
        self.assertEqual(metrics.supported_percentile(999), 0.9)
        self.assertEqual(metrics.supported_percentile(1000), 0.99)
        self.assertEqual(metrics.supported_percentile(10000), 0.999)

    def test_latency_is_per_step(self):
        raw = raw_run([sample(0, 0), sample(1, 1), sample(2, 2)],
                      [program(0), program(1), program(2)])
        raw["step_ms"] = [40.0, 25.0]  # requests 0+1 in one step, 2 alone
        e2e = metrics.end_to_end(raw)
        self.assertEqual(e2e["latency_p50_ms"], 25.0)
        self.assertEqual(e2e["latency_p90_ms"], 40.0)


def sample(seq, key, code=metrics.CODE_OK, **kw):
    s = {"seq": seq, "key": key, "latency_ms": 10.0 + seq,
         "received_ms": 9.0 + seq, "queue_ms": 1.0, "compile_ms": 5.0,
         "code": code, "tier": 0, "client_ok": True,
         "repeat_mismatch": False}
    s.update(kw)
    return s


def program(key, ok=True, diagnostic="", **kw):
    p = {"key": key, "ok": ok, "diagnostic": diagnostic, "bytes": 1000,
         "pulses": 100, "exec_ms": 2.0, "eps_log10": -3.0}
    p.update(kw)
    return p


def raw_run(samples, programs, golden=0, quality_requests=2):
    return {"samples": samples, "programs": programs,
            "step_ms": [s["latency_ms"] for s in samples],
            "golden_mismatches": golden, "quality_requests": quality_requests,
            "window_seconds": 2.0, "setup_seconds": [0.3, 0.1, 0.2],
            "peak_rss_mb": 50.0, "shed_retries": 0}


class ErrorAccounting(unittest.TestCase):
    def test_clean_run_has_no_errors(self):
        raw = raw_run([sample(0, 0), sample(1, 1)], [program(0), program(1)])
        self.assertEqual(metrics.count_failures(raw), (2, 0, []))

    def test_every_failure_class_counts_once(self):
        samples = [
            sample(0, 0),
            sample(1, 1, code=3),                 # deadline exceeded
            sample(2, 2),                         # program fails its check
            sample(3, 3, client_ok=False),        # in-loop wChecker said no
            sample(4, 0, repeat_mismatch=True),   # repeat returned new bytes
            sample(5, 5),                         # never stored, unverified
        ]
        programs = [program(0), program(2, ok=False, diagnostic="bad pulses"),
                    program(3)]
        attempted, failed, reasons = metrics.count_failures(
            raw_run(samples, programs))
        self.assertEqual((attempted, failed), (6, 5))
        self.assertTrue(any("bad pulses" in r for r in reasons))
        self.assertTrue(any("not stored" in r for r in reasons))

    def test_golden_mismatch_is_an_error(self):
        raw = raw_run([sample(0, 0)], [program(0)], golden=1)
        attempted, failed, _ = metrics.count_failures(raw)
        self.assertEqual((attempted, failed), (1, 1))

    def test_errors_lower_success_and_throughput(self):
        raw = raw_run([sample(0, 0), sample(1, 1), sample(2, 2, code=1)],
                      [program(0), program(1)])
        e2e = metrics.end_to_end(raw)
        self.assertAlmostEqual(e2e["success_ratio"], 2 / 3)
        self.assertAlmostEqual(e2e["throughput_rps"], 1.0)
        self.assertEqual(e2e["setup_s"], 0.2)

    def test_quality_prefix_must_be_verified(self):
        raw = raw_run([sample(0, 0), sample(1, 1)],
                      [program(0, bytes=10), program(1, bytes=30)])
        self.assertEqual(metrics.quality(raw)["wqasm_bytes"], 20)
        raw["programs"][1]["ok"] = False
        with self.assertRaises(ValueError):
            metrics.quality(raw)
        raw["quality_requests"] = 3
        with self.assertRaises(ValueError):
            metrics.quality(raw)


def span(id_, parent, request, name, start, end):
    return {"id": id_, "parent": parent, "request": request, "name": name,
            "start_us": start * 1e3, "end_us": end * 1e3}


class TraceCoverage(unittest.TestCase):
    def test_on_path_layers_sum_to_the_wall(self):
        spans = []
        for r, scale in ((1, 1.0), (2, 1.2), (3, 0.9)):
            base = len(spans)
            spans += [
                span(base + 1, 0, r, "request", 0, 10 * scale),
                span(base + 2, base + 1, r, "a", 0, 4 * scale),
                span(base + 3, base + 1, r, "b", 4 * scale, 9.5 * scale),
                span(base + 4, 0, r, "offpath", 20, 60),
                span(base + 5, base + 4, r, "c", 20, 60),
            ]
        roots, on_path, layers = metrics.span_layers(spans)
        self.assertEqual(on_path, {"a", "b"})
        self.assertIn("c", layers)
        self.assertAlmostEqual(metrics.coverage(spans), 0.95)


class BenchmarkReader(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.text = f.read()
        self.spec = json.loads(self.text)

    def rejects(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        with self.assertRaises(metrics.SpecError):
            metrics.parse_benchmark(json.dumps(spec))

    def test_repository_file_is_valid(self):
        spec = metrics.parse_benchmark(self.text)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["cold-uf250", "sweep-uf100", "verify-uf50"])

    def test_every_declared_metric_is_produced(self):
        raw = raw_run([sample(0, 0), sample(1, 1)], [program(0), program(1)])
        self.assertEqual(set(metrics.end_to_end(raw)),
                         {m["name"] for m in self.spec["end_to_end"]})
        on_path = ["sat.dimacs_parse", "pass.coloring", "pass.zone",
                   "pass.shuttle", "pass.lowering", "pass.replay",
                   "qasm.print", "net.encode_result", "net.decode_result",
                   "qasm.parse", "wchecker.check", "release"]
        off_path = ["cache.compile_nocache", "cache.compile_miss",
                    "cache.hit_compile"]
        spans = [span(1, 0, 1, "request", 0, len(on_path))]
        spans += [span(2 + i, 1, 1, n, i, i + 1) for i, n in enumerate(on_path)]
        spans.append(span(100, 0, 1, "offpath", 50, 60))
        spans += [span(101 + i, 100, 1, n, 50 + i, 51 + i)
                  for i, n in enumerate(off_path)]
        raw["trace"] = {"untraced_ms": [11.5], "print_bytes": [1000],
                        "colors": [4], "server_mismatches": 0}
        layers = metrics.per_layer(raw, spans)
        self.assertEqual(set(layers),
                         {m["name"] for m in self.spec["per_layer"]})
        self.assertAlmostEqual(layers["trace.coverage"], 1.0)
        self.assertAlmostEqual(layers["trace.overhead"], 0.5)
        self.assertEqual(metrics.trace_problems(raw, spans), [])

    def test_rejects_contract_violations(self):
        self.rejects(lambda s: s.pop("paths"))
        self.rejects(lambda s: s.update(extra=1))
        self.rejects(lambda s: s.update(run_seconds=61))
        self.rejects(lambda s: s.update(command=["python3", "/abs/run.py"]))
        self.rejects(lambda s: s.update(paths=["../outside"]))
        self.rejects(lambda s: s["workloads"][0].update(why="x" * 201))
        self.rejects(lambda s: s.update(workloads=s["workloads"][:1]))
        self.rejects(lambda s: s["end_to_end"][0].update(bound=0.3))
        self.rejects(lambda s: s["end_to_end"][0].update(unit="m s"))
        self.rejects(lambda s: s["per_layer"][0].update(bound=0.1))
        self.rejects(lambda s: s["per_layer"].append(s["per_layer"][0]))
        self.rejects(lambda s: s.update(end_to_end=[
            m for m in s["end_to_end"] if m["name"] != "setup_s"]))

    def test_rejects_non_json(self):
        with self.assertRaises(metrics.SpecError):
            metrics.parse_benchmark("{not json")


if __name__ == "__main__":
    unittest.main()
