"""serve-bench: document schema, bit-identity, and gate semantics.

The closed-loop sweep's bit-identity gate is extended here to
**non-uniform open-loop arrivals**: a bursty multi-model trace replayed
through the server must still return, for every request, exactly the
bytes serial eager execution produces -- whatever micro-batches the
arrival pattern happens to coalesce.
"""

import json

import numpy as np
import pytest

from repro.perf.measured import load_json, write_json
from repro.serve import loadgen
from repro.serve.bench import (
    SCHEMA_VERSION,
    ProcBenchConfig,
    ServeBenchConfig,
    check_proc_gate,
    check_serve_gate,
    format_proc_bench,
    format_serve_bench,
    run_proc_bench,
    run_serve_bench,
)
from repro.serve.loadgen import LoadBenchConfig, event_payload, output_digest, replay
from repro.serve.server import Server
from repro.serve.workload import (
    BurstyArrivals,
    ModelWorkload,
    PoissonArrivals,
    ZipfSizes,
    build_trace,
)

pytestmark = pytest.mark.concurrency

TINY = ServeBenchConfig(
    model="vgg", algorithm="lowino", width=8, hw=8, m=2,
    request_batch=2, requests_per_thread=2, threads=(1, 2),
    max_batch=8, max_delay_ms=2.0,
)


@pytest.fixture(scope="module")
def doc():
    return run_serve_bench(TINY)


class TestDocument:
    def test_schema_and_entries(self, doc):
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["config"]["model"] == "vgg"
        assert [e["threads"] for e in doc["results"]] == [1, 2]
        for e in doc["results"]:
            assert e["images"] == e["threads"] * 2 * 2
            assert e["throughput_ips"] > 0
            assert set(e["latency"]) >= {"count", "p50_ms", "p95_ms"}
        assert doc["summary"]["speedup_threads"] == 2
        assert doc["summary"]["throughput_speedup"] > 0

    def test_served_results_bit_identical(self, doc):
        """The tentpole contract: every served request, coalesced or
        not, bitwise matches serial eager execution."""
        assert all(e["exact"] for e in doc["results"])
        assert doc["summary"]["exact"] is True

    def test_json_round_trip(self, doc, tmp_path):
        path = tmp_path / "serve.json"
        write_json(doc, path)
        loaded = load_json(path)
        assert loaded["schema"] == SCHEMA_VERSION
        # The round-tripped document still drives the gate unchanged.
        assert check_serve_gate(loaded, min_speedup=0.0) == []

    def test_write_json_creates_parent_dirs(self, doc, tmp_path):
        path = tmp_path / "benchmarks" / "BENCH_serve_threads.json"
        write_json(doc, path)
        assert load_json(path)["schema"] == SCHEMA_VERSION

    def test_format_mentions_gatekeeping_facts(self, doc):
        text = format_serve_bench(doc)
        assert "clients" in text and "exact" in text
        assert "bit-identity" in text


class TestOpenLoopIdentity:
    """The bit-identity gate under non-uniform arrivals.

    The closed-loop sweep above coalesces whatever N synchronized
    clients produce; here a bursty two-tenant open-loop trace drives
    the batcher through ragged, shifting batch compositions -- and
    every response must still be bitwise the serial eager result.
    """

    @pytest.fixture(scope="class")
    def tenants(self):
        cfg = LoadBenchConfig(
            tenants=(("vgg", "vgg", "lowino"), ("resnet", "resnet", "int8_upcast")),
            width=8,
            hw=8,
            m=2,
        )
        return loadgen._build_tenants(cfg)

    def make_trace(self, seed=31):
        return build_trace(
            [
                ModelWorkload(
                    "vgg",
                    BurstyArrivals(150.0, 5.0, mean_burst_s=0.2, mean_idle_s=0.3),
                    ZipfSizes(alpha=1.4, max_images=5),
                ),
                ModelWorkload(
                    "resnet", PoissonArrivals(40.0), ZipfSizes(alpha=1.4, max_images=3)
                ),
            ],
            1.0,
            seed=seed,
        )

    def run_trace(self, tenants, trace):
        server = Server(max_batch=16, max_delay_ms=2.0, queue_size=256)
        for name in trace.models:
            server.add_model(name, session=tenants[name][1])
        result = replay(server, trace, mode="virtual", submit_timeout=None)
        server.close()
        return result

    def test_bursty_multi_model_trace_is_bit_identical_to_eager(self, tenants):
        trace = self.make_trace()
        result = self.run_trace(tenants, trace)
        assert result.shed == 0
        assert result.completed == len(trace)
        for event in trace.events:
            x = event_payload(trace, event, (3, 8, 8))
            expected = tenants[event.model][0](x)
            got = result.outputs[event.request_id]
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), (
                f"request {event.request_id} ({event.model}, "
                f"{event.n_images} images) diverged from serial eager"
            )

    def test_same_seed_replays_serve_identical_bytes(self, tenants):
        trace = self.make_trace()
        first = self.run_trace(tenants, trace)
        second = self.run_trace(tenants, trace)
        assert output_digest(first.outputs) == output_digest(second.outputs)


class TestGate:
    def test_passing_doc_has_no_violations(self, doc):
        # The throughput ratio on a tiny 2-thread run is noisy, so gate
        # only identity here; the CLI gates the full sweep.
        assert check_serve_gate(doc, min_speedup=0.0) == []

    def test_identity_violation_detected(self, doc):
        bad = {**doc, "results": [dict(doc["results"][0], exact=False)]}
        violations = check_serve_gate(bad, min_speedup=0.0)
        assert len(violations) == 1 and "bit-identical" in violations[0]

    def test_throughput_violation_detected(self, doc):
        bad = {
            **doc,
            "summary": {"exact": True, "throughput_speedup": 1.0, "speedup_threads": 2},
        }
        violations = check_serve_gate(bad, min_speedup=1.5)
        assert len(violations) == 1 and "throughput" in violations[0]


TINY_PROC = ProcBenchConfig(
    model="vgg", algorithm="int8_upcast", width=8, hw=8, m=2,
    request_batch=2, requests_per_thread=2, client_threads=2,
    procs=(1, 2), max_batch=8, max_delay_ms=2.0,
)


@pytest.fixture(scope="module")
def proc_doc():
    return run_proc_bench(TINY_PROC)


class TestProcDocument:
    def test_schema_and_entries(self, proc_doc):
        assert proc_doc["schema"] == SCHEMA_VERSION
        assert [e["procs"] for e in proc_doc["results"]] == [1, 2]
        for e in proc_doc["results"]:
            assert e["images"] == 2 * 2 * 2
            assert e["throughput_ips"] > 0
            assert e["restarts"] == 0
            assert set(e["latency"]) >= {"count", "p50_ms", "p95_ms"}
        assert proc_doc["summary"]["speedup_procs"] == 2
        assert proc_doc["summary"]["proc_speedup"] > 0

    def test_every_worker_count_is_bit_identical(self, proc_doc):
        assert all(e["exact"] for e in proc_doc["results"])
        assert proc_doc["summary"]["exact"] is True

    def test_workers_converge_on_one_selection(self, proc_doc):
        assert proc_doc["summary"]["selection_converged"] is True
        two = next(e for e in proc_doc["results"] if e["procs"] == 2)
        assert two["selection_workers"] == 2
        # int8_upcast calibration carries across swaps, so selections
        # actually applied -- the convergence check is non-vacuous.
        assert two["selection"]
        assert two["selection_converged"]

    def test_json_round_trip_drives_the_gate(self, proc_doc, tmp_path):
        path = tmp_path / "procs.json"
        write_json(proc_doc, path)
        assert check_proc_gate(load_json(path)) == []

    def test_format_mentions_gatekeeping_facts(self, proc_doc):
        text = format_proc_bench(proc_doc)
        assert "procs" in text and "exact" in text
        assert "bit-identity" in text and "convergence" in text


class TestProcGate:
    def test_identity_violation_detected(self, proc_doc):
        bad = {**proc_doc, "results": [dict(proc_doc["results"][0], exact=False)]}
        violations = check_proc_gate(bad)
        assert len(violations) == 1 and "bit-identical" in violations[0]

    def test_divergent_selections_detected(self, proc_doc):
        bad = {
            **proc_doc,
            "results": [dict(proc_doc["results"][1], selection_converged=False)],
        }
        violations = check_proc_gate(bad)
        assert len(violations) == 1 and "disagree" in violations[0]

    def test_min_speedup_gate(self, proc_doc):
        doc = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], proc_speedup=1.1, speedup_procs=2),
        }
        assert check_proc_gate(doc, min_speedup=0.0) == []
        violations = check_proc_gate(doc, min_speedup=1.7)
        assert len(violations) == 1 and "throughput" in violations[0]

    def test_baseline_ratio_gate(self, proc_doc):
        current = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], proc_speedup=1.0, speedup_procs=2),
        }
        healthy = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], proc_speedup=1.8, speedup_procs=2),
        }
        # 1.0x vs a 1.8x baseline at tolerance 0.5 passes (floor 0.9x)...
        assert check_proc_gate(current, baseline=healthy) == []
        # ...but collapsing below the floor is a violation.
        violations = check_proc_gate(
            current, baseline=healthy, speedup_tolerance=1.05
        )
        assert len(violations) == 1 and "regressed" in violations[0]

    def test_baseline_config_mismatch_is_reported_not_compared(self, proc_doc):
        other = {**proc_doc, "config": dict(proc_doc["config"], hw=16)}
        violations = check_proc_gate(proc_doc, baseline=other)
        assert len(violations) == 1 and "config mismatch" in violations[0]

    def test_committed_baseline_is_self_consistent(self):
        """The checked-in BENCH_serve_procs.json gates green against
        itself -- the CI proc-smoke job depends on that."""
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / (
            "benchmarks/BENCH_serve_procs.json"
        )
        doc = load_json(path)
        assert doc["schema"] == SCHEMA_VERSION
        assert check_proc_gate(doc, baseline=doc) == []
