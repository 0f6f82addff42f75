"""Open-loop workload generators and trace replay.

Three layers of guarantees:

* **statistics** -- the seeded arrival processes match their analytic
  moments (Poisson inter-arrival mean/variance, MMPP duty cycle and
  burstiness) within tolerance bands sized by the sample count;
* **determinism** -- identical seeds yield bit-identical schedules
  (event-for-event and by digest, including a pinned fixed-seed digest
  so a silent RNG-stream change cannot slip by) and bit-identical
  request payloads;
* **serving** -- replaying a trace through a live :class:`Server` is
  bitwise identical to serial eager execution, overload sheds via
  ``ServerOverloaded`` without corrupting batch-mates, and goodput
  plateaus rather than collapsing as offered load climbs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.measured import load_json, write_json
from repro.serve import loadgen
from repro.serve.loadgen import (
    LoadBenchConfig,
    check_load_gate,
    event_payload,
    output_digest,
    replay,
    run_load_bench,
)
from repro.serve.server import Server
from repro.serve.workload import (
    BurstyArrivals,
    FixedSizes,
    LognormalSizes,
    ModelWorkload,
    PoissonArrivals,
    UniformArrivals,
    ZipfSizes,
    build_trace,
)

#: Pinned digest for the fixed-seed regression below: a change means
#: the schedule a given seed produces has silently shifted (RNG stream,
#: merge order, or event encoding), which would invalidate every
#: committed BENCH_serve_* baseline.
FIXED_SEED_DIGEST = (
    "de7bd6b23cf6cd65b6760518e298be04e12152cb8bc55f074b2403a8eed51652"
)


def fixed_workloads():
    return [
        ModelWorkload("a", PoissonArrivals(50.0), ZipfSizes(1.5, 4)),
        ModelWorkload("b", BurstyArrivals(200.0, 5.0, 0.2, 0.4), FixedSizes(2)),
    ]


class TestPoissonArrivals:
    def test_interarrival_mean_within_analytic_tolerance(self, make_rng):
        rate, horizon = 200.0, 25.0
        times = PoissonArrivals(rate).times(horizon, make_rng())
        gaps = np.diff(times)
        n = len(gaps)
        assert n > 3000
        # Exponential(rate): mean 1/rate, sd 1/rate; the sample mean's
        # standard error is 1/(rate*sqrt(n)) -- allow 5 sigma.
        assert abs(gaps.mean() - 1.0 / rate) < 5.0 / (rate * np.sqrt(n))

    def test_interarrival_variance_within_analytic_tolerance(self, make_rng):
        rate, horizon = 200.0, 25.0
        gaps = np.diff(PoissonArrivals(rate).times(horizon, make_rng()))
        # Var = 1/rate^2; the variance estimator of an exponential has
        # relative sd ~ sqrt(8/n), comfortably inside 20% at n ~ 5000.
        assert abs(gaps.var() - 1.0 / rate**2) < 0.2 / rate**2

    def test_count_tracks_rate_horizon(self, make_rng):
        rate, horizon = 120.0, 30.0
        times = PoissonArrivals(rate).times(horizon, make_rng())
        expect = rate * horizon
        assert abs(len(times) - expect) < 5 * np.sqrt(expect)

    def test_memoryless_cv2_near_one(self, make_rng):
        gaps = np.diff(PoissonArrivals(150.0).times(40.0, make_rng()))
        cv2 = gaps.var() / gaps.mean() ** 2
        assert 0.8 < cv2 < 1.2

    @given(rate=st.floats(1.0, 500.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_sorted_bounded_and_seed_deterministic(self, rate, seed):
        horizon = 2.0
        a = PoissonArrivals(rate).times(horizon, np.random.default_rng(seed))
        b = PoissonArrivals(rate).times(horizon, np.random.default_rng(seed))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert len(a) == 0 or (a[0] >= 0 and a[-1] < horizon)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestBurstyArrivals:
    def test_duty_cycle_is_dwell_ratio(self):
        p = BurstyArrivals(300.0, 2.0, mean_burst_s=0.5, mean_idle_s=1.5)
        assert p.duty_cycle == pytest.approx(0.25)
        assert p.mean_rate == pytest.approx(0.25 * 300.0 + 0.75 * 2.0)

    def test_count_tracks_mean_rate(self, make_rng):
        p = BurstyArrivals(300.0, 2.0, mean_burst_s=0.5, mean_idle_s=0.5)
        horizon = 120.0
        times = p.times(horizon, make_rng())
        expect = p.mean_rate * horizon
        # The MMPP count variance exceeds Poisson's; a 15% band at
        # ~18k expected arrivals is still a tight functional check of
        # the burst/idle duty cycle.
        assert abs(len(times) - expect) < 0.15 * expect

    def test_burstier_than_poisson(self, make_rng):
        p = BurstyArrivals(300.0, 2.0, mean_burst_s=0.5, mean_idle_s=0.5)
        gaps = np.diff(p.times(60.0, make_rng()))
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 2.0  # measured ~39; Poisson is ~1

    def test_sorted_and_bounded(self, make_rng):
        times = BurstyArrivals(100.0, 1.0, 0.2, 0.3).times(5.0, make_rng())
        assert np.all(np.diff(times) > 0)
        assert np.all((times >= 0) & (times < 5.0))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BurstyArrivals(0.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(10.0, -1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(10.0, 1.0, 0.0, 0.5)


class TestSizeSamplers:
    def test_zipf_bounded_and_rank_ordered(self, make_rng):
        sizes = ZipfSizes(alpha=1.5, max_images=6).sample(20000, make_rng())
        assert sizes.min() >= 1 and sizes.max() <= 6
        counts = np.bincount(sizes, minlength=7)[1:]
        assert np.all(np.diff(counts) < 0)  # P(1) > P(2) > ... > P(6)

    def test_zipf_matches_analytic_pmf(self, make_rng):
        alpha, kmax, n = 1.3, 5, 40000
        sizes = ZipfSizes(alpha, kmax).sample(n, make_rng())
        k = np.arange(1, kmax + 1, dtype=float)
        pmf = k**-alpha / np.sum(k**-alpha)
        freq = np.bincount(sizes, minlength=kmax + 1)[1:] / n
        assert np.all(np.abs(freq - pmf) < 0.02)

    def test_lognormal_clipped_and_tailed(self, make_rng):
        sampler = LognormalSizes(median_images=2.0, sigma=0.9, max_images=12)
        sizes = sampler.sample(20000, make_rng())
        assert sizes.min() >= 1 and sizes.max() <= 12
        assert np.median(sizes) == pytest.approx(2.0, abs=1.0)
        assert (sizes >= 8).sum() > 0  # the heavy tail actually shows up

    def test_fixed_sizes(self, make_rng):
        assert np.all(FixedSizes(3).sample(10, make_rng()) == 3)

    def test_uniform_arrivals_evenly_spaced(self, make_rng):
        times = UniformArrivals(10.0).times(2.0, make_rng())
        assert len(times) == 20
        assert np.allclose(np.diff(times), 0.1)


class TestTraceDeterminism:
    def test_identical_seeds_bit_identical_schedules(self):
        a = build_trace(fixed_workloads(), 1.0, seed=77)
        b = build_trace(fixed_workloads(), 1.0, seed=77)
        assert a.events == b.events
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        a = build_trace(fixed_workloads(), 1.0, seed=77)
        b = build_trace(fixed_workloads(), 1.0, seed=78)
        assert a.digest() != b.digest()

    def test_fixed_seed_digest_regression(self):
        trace = build_trace(fixed_workloads(), 1.0, seed=2021)
        assert trace.digest() == FIXED_SEED_DIGEST

    def test_merge_is_time_sorted_with_sequential_ids(self):
        trace = build_trace(fixed_workloads(), 1.0, seed=5)
        ts = [e.t for e in trace.events]
        assert ts == sorted(ts)
        assert [e.request_id for e in trace.events] == list(range(len(trace)))
        assert set(trace.models) == {"a", "b"}

    def test_adding_a_tenant_leaves_others_unperturbed(self):
        base = build_trace(fixed_workloads()[:1], 1.0, seed=9)
        grown = build_trace(
            fixed_workloads()[:1]
            + [ModelWorkload("z", PoissonArrivals(30.0), FixedSizes(1))],
            1.0,
            seed=9,
        )
        mine = [(e.t, e.n_images) for e in grown.events if e.model == "a"]
        assert mine == [(e.t, e.n_images) for e in base.events]

    def test_payloads_deterministic(self):
        trace = build_trace(fixed_workloads(), 0.5, seed=3)
        event = trace.events[0]
        x1 = event_payload(trace, event, (3, 8, 8))
        x2 = event_payload(trace, event, (3, 8, 8))
        assert x1.shape == (event.n_images, 3, 8, 8)
        assert np.array_equal(x1, x2)

    def test_per_model_offered_accounting(self):
        trace = build_trace(fixed_workloads(), 1.0, seed=5)
        per = trace.per_model()
        assert sum(int(v["requests"]) for v in per.values()) == len(trace)
        assert sum(int(v["images"]) for v in per.values()) == trace.total_images

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            build_trace([], 1.0, 0)
        with pytest.raises(ValueError):
            build_trace(fixed_workloads(), 0.0, 0)
        with pytest.raises(ValueError):
            build_trace(
                [
                    ModelWorkload("a", PoissonArrivals(1.0)),
                    ModelWorkload("a", PoissonArrivals(2.0)),
                ],
                1.0,
                0,
            )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_digest_is_schedule_identity(self, seed):
        a = build_trace(fixed_workloads(), 0.5, seed=seed)
        b = build_trace(fixed_workloads(), 0.5, seed=seed)
        assert a.digest() == b.digest()
        assert len(a) == len(b)


# ---------------------------------------------------------------------------
# live-server coverage (tiny models; marked like the other serve tests)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_tenants():
    cfg = LoadBenchConfig(tenants=(("vgg", "vgg", "lowino"),), width=8, hw=8, m=2)
    return loadgen._build_tenants(cfg)


@pytest.mark.concurrency
class TestBackpressure:
    """Offered load far above capacity must shed -- cleanly."""

    def make_trace(self, rate):
        return build_trace(
            [ModelWorkload("vgg", PoissonArrivals(rate), FixedSizes(2))],
            1.0,
            seed=11,
        )

    def run_overloaded(self, tenants, trace):
        server = Server(max_batch=8, max_delay_ms=1.0, queue_size=8)
        server.add_model("vgg", session=tenants["vgg"][1])
        result = replay(server, trace, mode="virtual", submit_timeout=0.0)
        server.close()
        return result

    def test_overload_sheds_and_goodput_plateaus(self, tiny_tenants):
        tenants = tiny_tenants
        model = tenants["vgg"][0]
        lo = self.run_overloaded(tenants, self.make_trace(250.0))
        hi = self.run_overloaded(tenants, self.make_trace(750.0))
        # Backpressure engages at both offered loads ...
        assert lo.shed > 0 and hi.shed > 0
        assert hi.shed > lo.shed
        # ... yet the server keeps completing work: goodput plateaus
        # instead of collapsing as offered load triples.
        lo_good = lo.completed / lo.wall_s
        hi_good = hi.completed / hi.wall_s
        assert hi.completed > 0
        assert hi_good > 0.3 * lo_good
        # Shed requests never corrupt batch-mates: every completed
        # response is still bitwise the serial eager result.
        trace = self.make_trace(750.0)
        for rid, out in hi.outputs.items():
            event = trace.events[rid]
            x = event_payload(trace, event, (3, 8, 8))
            assert np.array_equal(out, model(x))

    def test_paced_replay_sheds_nothing(self, tiny_tenants):
        trace = self.make_trace(100.0)
        server = Server(max_batch=8, max_delay_ms=1.0, queue_size=8)
        server.add_model("vgg", session=tiny_tenants["vgg"][1])
        result = replay(server, trace, mode="virtual", submit_timeout=None)
        server.close()
        assert result.shed == 0
        assert result.completed == len(trace)


@pytest.mark.perf
@pytest.mark.slow
class TestRealtimeReplay:
    """Wall-clock mode: events fire at their scheduled instants."""

    def test_realtime_open_loop_is_exact_and_paced(self, tiny_tenants):
        tenants = tiny_tenants
        model = tenants["vgg"][0]
        trace = build_trace(
            [ModelWorkload("vgg", UniformArrivals(40.0), FixedSizes(1))],
            0.5,
            seed=4,
        )
        server = Server(max_batch=8, max_delay_ms=1.0, queue_size=64)
        server.add_model("vgg", session=tenants["vgg"][1])
        result = replay(server, trace, mode="realtime", submit_timeout=0.0)
        server.close()
        # The replay cannot finish before the schedule does (open loop
        # waits for arrival instants, not for responses).
        assert result.wall_s >= trace.events[-1].t
        assert result.shed == 0
        for rid, out in result.outputs.items():
            x = event_payload(trace, trace.events[rid], (3, 8, 8))
            assert np.array_equal(out, model(x))


class TestReplayValidation:
    def test_rejects_bad_mode_and_speed(self, tiny_tenants):
        trace = build_trace(
            [ModelWorkload("vgg", PoissonArrivals(10.0))], 0.2, seed=1
        )
        server = Server()
        server.add_model("vgg", session=tiny_tenants["vgg"][1])
        with pytest.raises(ValueError):
            replay(server, trace, mode="warp")
        with pytest.raises(ValueError):
            replay(server, trace, mode="realtime", speed=0.0)
        server.close()


TINY_BENCH = LoadBenchConfig(
    tenants=(("vgg", "vgg", "lowino"), ("resnet", "resnet", "int8_upcast")),
    width=8,
    hw=8,
    m=2,
    horizon_s=0.5,
    base_rate=24.0,
    burst_rate=90.0,
    overload_rate=400.0,
    overload_queue=8,
)


@pytest.mark.concurrency
class TestLoadBenchDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_load_bench(TINY_BENCH)

    def test_schema_and_scenarios(self, doc):
        assert doc["schema"] == loadgen.SCHEMA_VERSION
        names = [e["name"] for e in doc["scenarios"]]
        assert names == ["poisson", "bursty-multi", "overload"]
        for e in doc["scenarios"]:
            assert e["offered_requests"] > 0
            assert set(e["latency_ms"]) >= {"p50_ms", "p95_ms", "p99_ms"}
            assert e["schedule_digest"] and e["output_digest"]

    def test_slo_numbers_come_from_reservoirs(self, doc):
        # Per-model latency docs carry the reservoir's exact count: as
        # many observations as completed requests, not a truncated list.
        for e in doc["scenarios"]:
            counted = sum(
                m["latency"]["count"] for m in e["per_model"].values()
            )
            assert counted == e["completed_requests"]

    def test_identity_and_determinism_summary(self, doc):
        assert doc["summary"]["exact"] is True
        assert doc["summary"]["deterministic_outputs"] is True
        assert doc["summary"]["paced_shed_requests"] == 0
        assert doc["summary"]["overload_sheds"] is True

    def test_hard_gates_pass(self, doc):
        assert check_load_gate(doc) == []

    def test_round_trip_and_self_baseline(self, doc, tmp_path):
        path = tmp_path / "load.json"
        write_json(doc, path)
        loaded = load_json(path)
        assert loaded["schema"] == loadgen.SCHEMA_VERSION
        assert check_load_gate(loaded, baseline=loaded) == []
        # And the in-memory doc gates cleanly against its own round-trip
        # (tuple/list normalization must not read as config drift).
        assert check_load_gate(doc, baseline=loaded) == []

    def test_gate_flags_identity_violation(self, doc):
        bad = {
            **doc,
            "scenarios": [dict(doc["scenarios"][0], exact=False)],
        }
        violations = check_load_gate(bad)
        assert any("bit-identical" in v for v in violations)

    def test_gate_flags_schedule_drift(self, doc, tmp_path):
        path = tmp_path / "base.json"
        write_json(doc, path)
        base = load_json(path)
        base["scenarios"][0]["schedule_digest"] = "0" * 64
        violations = check_load_gate(doc, baseline=base)
        assert any("schedule digest" in v for v in violations)

    def test_gate_flags_p95_regression(self, doc, tmp_path):
        write_json(doc, tmp_path / "base.json")
        base = load_json(tmp_path / "base.json")
        for e in base["scenarios"]:
            e["latency_ms"]["p95_ms"] = 1e-6
        violations = check_load_gate(doc, baseline=base, p95_factor=1.0)
        assert any("p95" in v for v in violations)

    def test_gate_flags_incompatible_config(self, doc, tmp_path):
        write_json(doc, tmp_path / "base.json")
        base = load_json(tmp_path / "base.json")
        base["config"]["seed"] = 1
        violations = check_load_gate(doc, baseline=base)
        assert any("incompatible" in v for v in violations)

    def test_gate_flags_missing_sheds_under_overload(self, doc):
        bad_overload = dict(doc["scenarios"][-1], shed_requests=0)
        bad = {**doc, "scenarios": doc["scenarios"][:-1] + [bad_overload]}
        violations = check_load_gate(bad)
        assert any("backpressure" in v for v in violations)

    def test_output_digest_orders_by_request(self):
        a = {0: np.ones((1, 2)), 1: np.zeros((1, 2))}
        b = {1: np.zeros((1, 2)), 0: np.ones((1, 2))}
        assert output_digest(a) == output_digest(b)
        assert output_digest(a) != output_digest({0: np.zeros((1, 2))})
