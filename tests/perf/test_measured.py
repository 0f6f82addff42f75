"""The shared timing core and bench-document helpers."""

import gc

import pytest

from repro.perf.measured import (
    MIN_ROUNDS,
    DocumentError,
    Timing,
    config_mismatch,
    load_json,
    time_interleaved,
    write_json,
)


def _recorder(log, name):
    return lambda: log.append(name)


class TestMeasure:
    def test_basic_statistics(self):
        t = Timing.of([5.0, 1.0, 4.0, 2.0, 3.0])
        assert (t.q1_s, t.median_s, t.q3_s) == (2.0, 3.0, 4.0)
        assert t.samples == (5.0, 1.0, 4.0, 2.0, 3.0)
        assert t.iqr_s == [2.0, 4.0]
        even = Timing.of([1.0, 2.0, 3.0, 10.0])
        assert even.median_s == 2.5  # one outlier does not move the median

    def test_warmup_runs_before_timing(self):
        log = []
        time_interleaved({"a": _recorder(log, "a"), "b": _recorder(log, "b")},
                         repeats=4)
        # One untimed warm-up call each, then ABAB... rounds.
        assert log == ["a", "b"] + ["a", "b"] * 4

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            time_interleaved({})

    def test_round_floor(self):
        for repeats in (0, 1, 2):
            out = time_interleaved({"a": lambda: None}, repeats=repeats)
            assert len(out["a"].samples) == MIN_ROUNDS
        assert len(time_interleaved({"a": lambda: None}, repeats=5)["a"].samples) == 5

    def test_gc_paused_only_inside_timed_calls(self):
        seen = []
        time_interleaved({"a": lambda: seen.append(gc.isenabled())})
        assert seen[0] is True  # warm-up is not a timed call
        assert seen[1:] == [False] * MIN_ROUNDS
        assert gc.isenabled()

    def test_gc_restored_after_raising_call(self):
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) > 1:  # the warm-up passes, the first timed call raises
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            time_interleaved({"a": flaky})
        assert gc.isenabled()

    def test_abort_stops_before_the_next_call(self):
        log = []
        polls = []

        def abort():
            polls.append(None)
            return len(polls) > 3

        out = time_interleaved(
            {"a": _recorder(log, "a"), "b": _recorder(log, "b")}, abort=abort
        )
        assert out is None
        assert log == ["a", "b", "a"]


class TestDocuments:
    def test_write_creates_parents_and_round_trips(self, tmp_path):
        path = tmp_path / "new" / "dir" / "doc.json"
        write_json({"b": (1, 2), "a": 1}, path)
        assert load_json(path) == {"a": 1, "b": [1, 2]}

    @pytest.mark.parametrize("content", [None, "{x", "[1, 2]"])
    def test_missing_or_malformed_is_one_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(DocumentError, match="bad.json"):
            load_json(path)

    def test_config_mismatch_normalizes_tuples(self):
        cur = {"procs": (1, 2), "tenants": (("a", "b"),), "seed": 1, "extra": 0}
        base = {"procs": [1, 2], "tenants": [["a", "b"]], "seed": 2}
        assert config_mismatch(cur, base, ("procs", "tenants")) == []
        assert config_mismatch(cur, base, ("procs", "seed")) == ["seed: 2 -> 1"]
        assert config_mismatch(cur, base) == ["extra: None -> 0", "seed: 2 -> 1"]
