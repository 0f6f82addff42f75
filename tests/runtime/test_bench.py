"""Benchmark harness: document schema, regression gate, formatting."""

import copy

import pytest

from repro.perf.measured import load_json, write_json
from repro.runtime.bench import (
    FULL_PROFILE,
    QUICK_PROFILE,
    BenchProfile,
    ModelCase,
    check_regression,
    format_bench,
    run_bench,
    scale_layer,
)
from repro.workloads import layer_by_name

TINY_PROFILE = BenchProfile(
    "quick",  # same compat identity as the quick profile
    ("VGG16_b",),
    hw_cap=8,
    chan_cap=8,
    repeats=1,
)


@pytest.fixture(scope="module")
def doc():
    return run_bench(TINY_PROFILE, algorithms=("fp32_direct", "lowino"))


class TestScaleLayer:
    def test_caps_apply(self):
        layer = scale_layer(layer_by_name("VGG16_b"), FULL_PROFILE)
        assert layer.batch == 1
        assert layer.hw <= FULL_PROFILE.hw_cap
        assert layer.c <= FULL_PROFILE.chan_cap and layer.k <= FULL_PROFILE.chan_cap

    def test_small_layers_untouched(self):
        # 7x7 layers stay 7x7 under the 32-pixel cap.
        layer = scale_layer(layer_by_name("ResNet-50_c"), FULL_PROFILE)
        assert layer.hw == 7

    def test_quick_profile_is_breakdown_subset(self):
        assert set(QUICK_PROFILE.layers) <= set(FULL_PROFILE.layers)


class TestRunBench:
    def test_document_schema(self, doc):
        assert doc["schema"] == 1
        assert doc["profile"]["name"] == "quick"
        (entry,) = doc["layers"]
        assert entry["name"] == "VGG16_b"
        assert entry["batch"] == 1 and entry["c"] == 8 and entry["hw"] == 8
        for algo in ("fp32_direct", "lowino"):
            cell = entry["algorithms"][algo]
            assert cell["wall_s"] > 0
        assert entry["algorithms"]["fp32_direct"]["speedup_vs_fp32_direct"] == 1.0

    def test_reference_ratio_present(self, doc):
        ref = doc["layers"][0]["reference"]["lowino"]
        assert ref["wall_s"] > 0 and ref["vectorized_speedup"] > 0
        assert doc["summary"]["reference_speedup"]["lowino"]["geomean"] > 0

    def test_cache_stats_recorded(self, doc):
        stats = doc["cache_stats"]
        # Plan misses on first use; the timed calls after the warm call
        # hit the cached geometry scratch.
        assert stats["misses"] >= 2
        assert stats["hits"] >= 1
        assert stats["bytes"] > 0

    def test_no_reference_profile(self):
        profile = BenchProfile("quick", ("VGG16_b",), hw_cap=8, chan_cap=8,
                               repeats=1, reference=False)
        doc = run_bench(profile, algorithms=("fp32_direct", "lowino"))
        assert doc["layers"][0]["reference"] == {}
        assert doc["summary"]["reference_speedup"] == {}


class TestCheckRegression:
    def test_identical_run_passes(self, doc):
        assert check_regression(doc, doc) == []

    def test_small_drift_within_gate(self, doc):
        drifted = copy.deepcopy(doc)
        ref = drifted["summary"]["reference_speedup"]["lowino"]
        ref["geomean"] *= 0.9  # -10% is inside the 25% gate
        assert check_regression(drifted, doc) == []

    def test_summary_regression_detected(self, doc):
        regressed = copy.deepcopy(doc)
        regressed["summary"]["reference_speedup"]["lowino"]["geomean"] *= 0.5
        violations = check_regression(regressed, doc)
        assert any("reference_speedup[lowino]" in v for v in violations)

    def test_per_layer_regression_detected(self, doc):
        regressed = copy.deepcopy(doc)
        regressed["layers"][0]["reference"]["lowino"]["vectorized_speedup"] *= 0.5
        violations = check_regression(regressed, doc)
        assert any("VGG16_b" in v for v in violations)

    def test_speedup_summary_regression_detected(self, doc):
        regressed = copy.deepcopy(doc)
        regressed["summary"]["speedup_vs_fp32_direct"]["lowino"] *= 0.5
        violations = check_regression(regressed, doc)
        assert any("speedup_vs_fp32_direct[lowino]" in v for v in violations)

    def test_incompatible_profile_refused(self, doc):
        other = copy.deepcopy(doc)
        other["profile"]["hw_cap"] = 99
        violations = check_regression(doc, other)
        assert len(violations) == 1 and "incompatible" in violations[0]

    def test_gate_width_configurable(self, doc):
        regressed = copy.deepcopy(doc)
        regressed["summary"]["reference_speedup"]["lowino"]["geomean"] *= 0.9
        assert check_regression(regressed, doc, gate=0.25) == []
        assert check_regression(regressed, doc, gate=0.05) != []


class TestJsonRoundTrip:
    def test_write_load_and_gate(self, doc, tmp_path):
        path = tmp_path / "bench.json"
        write_json(doc, path)
        loaded = load_json(path)
        # Tuples become lists in JSON; the gate must still accept it.
        assert check_regression(doc, loaded) == []
        assert loaded["summary"] == doc["summary"]

    def test_format_bench_readable(self, doc):
        text = format_bench(doc)
        assert "VGG16_b" in text
        assert "geomean speedup vs fp32_direct" in text
        assert "loop reference" in text


MODEL_PROFILE = BenchProfile(
    "quick",
    ("VGG16_b",),
    hw_cap=8,
    chan_cap=8,
    repeats=1,
    reference=False,
    model_cases=(ModelCase("vgg", "lowino", batch=1, hw=8, width=8, m=2),),
    model_repeats=1,
)


@pytest.fixture(scope="module")
def model_doc():
    return run_bench(MODEL_PROFILE, algorithms=("fp32_direct", "lowino"))


class TestModelBench:
    def test_entry_schema(self, model_doc):
        (entry,) = model_doc["models"]
        assert entry["name"] == "vgg/lowino"
        assert entry["eager_s"] > 0 and entry["compiled_s"] > 0
        assert entry["compiled_speedup"] > 0
        assert entry["exact"] is True  # hard gate: bit-identical outputs
        assert entry["cache_stats"]["entries"] > 0

    def test_summary_geomean(self, model_doc):
        summary = model_doc["summary"]["model_compiled_vs_eager"]
        assert summary["min"] <= summary["geomean"] <= summary["max"]

    def test_models_disabled(self):
        doc = run_bench(MODEL_PROFILE, algorithms=("fp32_direct",),
                        models=False)
        assert doc["models"] == []
        assert "model_compiled_vs_eager" not in doc["summary"]

    def test_exactness_violation_detected(self, model_doc):
        broken = copy.deepcopy(model_doc)
        broken["models"][0]["exact"] = False
        violations = check_regression(broken, model_doc)
        assert any("bit-identical" in v for v in violations)

    def test_model_speedup_regression_detected(self, model_doc):
        regressed = copy.deepcopy(model_doc)
        regressed["models"][0]["compiled_speedup"] *= 0.5
        regressed["summary"]["model_compiled_vs_eager"]["geomean"] *= 0.5
        violations = check_regression(regressed, model_doc)
        assert any("model_compiled_vs_eager" in v for v in violations)
        assert any("vgg/lowino" in v for v in violations)

    def test_model_cases_are_compat_keys(self, model_doc):
        other = copy.deepcopy(model_doc)
        other["profile"]["model_cases"] = []
        violations = check_regression(model_doc, other)
        assert len(violations) == 1 and "incompatible" in violations[0]

    def test_format_includes_model_table(self, model_doc):
        text = format_bench(model_doc)
        assert "vgg/lowino" in text
        assert "model compiled vs eager" in text
