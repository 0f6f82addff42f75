"""Self-tests of the benchmark itself (not of the program).

    python3 lowbench/selftest.py

Uses tiny workloads (``vgg_small`` width 4, INT8 direct) so the whole
file runs in well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import core  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, TimedSession, self_times  # noqa: E402

TINY = core.Workload("tiny", "vgg", 4, "int8_direct", slo_ref=100.0)
TINY_SERVE = dataclasses.replace(TINY, name="tiny-serve", serve=True, rate=40.0, slo_ref=10.0)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_differs(self):
        for wl in core.WORKLOADS.values():
            a = core.make_inputs(wl, 7, 2.0)
            b = core.make_inputs(wl, 7, 2.0)
            c = core.make_inputs(wl, 8, 2.0)
            self.assertEqual(a.digest, b.digest)
            for x, y in zip(a.pool + a.calibration, b.pool + b.calibration):
                np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(a.arrivals, b.arrivals)
            self.assertNotEqual(a.digest, c.digest)
            self.assertFalse(np.array_equal(a.pool[0], c.pool[0]))

    def test_serve_offered_load_is_seed_independent(self):
        wl = core.WORKLOADS["serve-resnet-auto"]
        a = core.make_inputs(wl, 1, 4.0)
        b = core.make_inputs(wl, 2, 4.0)
        images = lambda inp: sum(inp.pool[int(k)].shape[0] for k in inp.payload_index)
        self.assertEqual(len(a.arrivals), len(b.arrivals))
        self.assertEqual(images(a), images(b))
        self.assertFalse(np.array_equal(a.arrivals, b.arrivals))


class MetricHygiene(unittest.TestCase):
    def setUp(self):
        self.spec = core.load_spec()

    def test_names_units_and_whys(self):
        names = []
        for section in ("end_to_end", "per_layer"):
            for metric in self.spec[section]:
                self.assertRegex(metric["name"], core.NAME_RE)
                self.assertRegex(metric["unit"], core.UNIT_RE)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(
            sorted(w["name"] for w in self.spec["workloads"]), sorted(core.WORKLOADS)
        )
        for w in self.spec["workloads"]:
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_result_document_requires_exact_metric_set(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        values = {n: 1.0 for n in names}
        doc = core.result_document(self.spec, False, values, 3, 0)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"])
        json.loads(json.dumps(doc))
        with self.assertRaises(RuntimeError):
            core.result_document(self.spec, False, {n: 1.0 for n in names[1:]}, 3, 0)
        with self.assertRaises(RuntimeError):
            core.result_document(self.spec, False, dict(values, extra=1.0), 3, 0)
        self.assertFalse(core.result_document(self.spec, False, values, 3, 1)["correct"])


class FlippedBit:
    """Session wrapper that flips one bit of the output of call ``at``."""

    def __init__(self, session, at):
        self.session, self.at, self.calls = session, at, 0

    def run(self, x):
        y = self.session.run(x)
        if self.calls == self.at:
            y = y.copy()
            y.view(np.uint64).flat[0] ^= np.uint64(1)
        self.calls += 1
        return y


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = core.make_inputs(TINY, 3, 1.0)
        cls.setup = workloads.set_up(TINY, cls.inputs)
        cls.refs = workloads.references(cls.setup.model, cls.inputs.pool)

    def test_bitwise_equal_sees_one_flipped_bit(self):
        y = self.refs[0].copy()
        self.assertTrue(core.bitwise_equal(y, self.refs[0]))
        y.view(np.uint64).flat[5] ^= np.uint64(1 << 40)
        self.assertFalse(core.bitwise_equal(y, self.refs[0]))

    def test_corrupted_output_counts_as_failure(self):
        outcomes = workloads.Outcomes()
        loop = workloads.closed_loop(
            FlippedBit(self.setup.session, at=2), self.inputs.pool, self.refs, 0.3, outcomes
        )
        self.assertGreater(len(loop.latencies), 3)
        self.assertEqual(outcomes.failed, 1)
        self.assertEqual(outcomes.failures["mismatch"], 1)
        self.assertEqual(outcomes.attempted, len(loop.latencies))


class OpenLoop(unittest.TestCase):
    def _serve(self, stall_at=None, stall_s=0.3):
        inputs = core.make_inputs(TINY_SERVE, 5, 1.5)
        inputs.arrivals = np.arange(0.0, 1.5, 0.025)  # a request every 25 ms
        inputs.payload_index = inputs.payload_index[: len(inputs.arrivals)]
        inputs.payload_index[:] = 0
        setup = workloads.set_up(TINY_SERVE, inputs)
        calls = {"n": 0}

        def stall(_images):
            calls["n"] += 1
            if calls["n"] == stall_at:
                time.sleep(stall_s)

        setup.server.close()
        from repro.serve import Server

        server = Server(max_batch=8, max_delay_ms=2.0, background_tuner=False)
        served = TimedSession(setup.session, before_run=stall)
        server.add_model(workloads.MODEL_NAME, session=served)
        try:
            refs = workloads.references(setup.model, inputs.pool)
            outcomes = workloads.Outcomes()
            res = workloads.open_loop(server, inputs, refs, outcomes)
        finally:
            server.close()
        self.assertEqual(outcomes.failed, 0)
        return res, served

    def test_stall_inflates_later_latency(self):
        base, _ = self._serve()
        stalled, served = self._serve(stall_at=10, stall_s=0.3)
        lat_base = base.done - base.due
        lat = stalled.done - stalled.due
        stall_start = served.batches[9][0]
        after = (stalled.due >= stall_start) & (stalled.due < stall_start + 0.2)
        self.assertTrue(after.any())
        # Requests due during the stall wait for it, though they were
        # sent on time: due-anchored latency charges them the stall.
        self.assertGreater(np.median(lat[after]), max(0.1, 3 * np.median(lat_base)))
        self.assertLess(np.median(stalled.sent[after] - stalled.due[after]), 0.01)


class Reference(unittest.TestCase):
    def test_near_is_the_median_of_the_nearest_samples(self):
        clock = core.ReferenceClock()
        clock.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        clock.seconds = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]
        self.assertEqual(clock.near(3.4), 3.0)  # samples at 1..5
        self.assertEqual(clock.near(7.0), 5.0)  # samples at 3..7
        self.assertGreater(clock.sample(), 0.0)
        self.assertEqual(len(clock.at), 9)


class Tracing(unittest.TestCase):
    def test_self_times(self):
        spans = [
            Span(1, "outer", 0.0, 10.0, None, None),
            Span(2, "child", 1.0, 4.0, 1, None),
            Span(3, "child", 3.0, 6.0, 1, None),
            Span(4, "leaf", 2.0, 3.0, 2, None),
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st["outer"]["self_s"], 5.0)
        self.assertAlmostEqual(st["child"]["total_s"], 6.0)
        self.assertAlmostEqual(st["child"]["self_s"], 5.0)
        self.assertEqual(st["child"]["count"], 2)

    def test_traced_run_reports_every_per_layer_metric(self):
        spec = core.load_spec()
        inputs = core.make_inputs(TINY, 4, 1.0)
        values, outcomes, info, spans = workloads.run_traced(TINY, inputs, 1.0)
        doc = core.result_document(spec, True, values, outcomes.attempted, outcomes.failed)
        self.assertTrue(doc["correct"])
        self.assertLess(abs(info["stage_vs_kernel"] - 1.0), 0.1)
        names = {s.name for s in spans.spans}
        for name in ("quantize_model", "forward_capture", "InferenceSession",
                     "kernel.itq", "kernel.gemm", "kernel.deq", "warm"):
            self.assertIn(name, names)
        self.assertEqual(values["quantize.kl_searches"], 0)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        spec = core.load_spec()
        for wl in (TINY, TINY_SERVE):
            inputs = core.make_inputs(wl, 4, 1.0)
            values, outcomes, _ = workloads.run_untraced(wl, inputs, 1.0)
            doc = core.result_document(spec, False, values, outcomes.attempted, outcomes.failed)
            self.assertTrue(doc["correct"], wl.name)
            self.assertTrue(all(m["value"] > 0 for m in doc["metrics"].values()), doc)


if __name__ == "__main__":
    unittest.main()
