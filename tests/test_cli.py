"""Command-line interface: every subcommand's --help plus a happy path."""

import json

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = [
    "figure8",
    "figure9",
    "figure10",
    "table3",
    "ablation",
    "reproduce",
    "plan",
    "selftest",
    "conformance",
    "bench",
    "profile",
    "serve-bench",
    "load-bench",
    "tune",
]


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in SUBCOMMANDS:
            assert cmd in out

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert f"repro {cmd}" in capsys.readouterr().out


class TestHappyPaths:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_figure8(self, capsys):
        assert main(["figure8", "--cores", "4"]) == 0
        assert "VGG16" in capsys.readouterr().out

    def test_figure9(self, capsys):
        assert main(["figure9", "--layer", "GoogLeNet_c", "--m", "4"]) == 0
        assert "distinct levels" in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["figure10"]) == 0
        assert "VGG16_b" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "--layer", "GoogLeNet_c"]) == 0
        out = capsys.readouterr().out
        assert "lowino_f4" in out
        assert "mixed" in out

    def test_plan(self, capsys):
        assert main(["plan", "VGG16_b", "--cores", "4"]) == 0
        assert "VGG16_b" in capsys.readouterr().out

    @pytest.mark.slow
    def test_reproduce_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["reproduce", "--out", str(out_file)]) == 0
        assert out_file.is_file()
        assert "Figure 8" in out_file.read_text()

    @pytest.mark.slow
    def test_table3_tiny(self, capsys):
        assert main(["table3", "--eval-images", "8", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "LoWino" in out

    @pytest.mark.conformance
    def test_conformance_gate_small_population(self, capsys):
        """A subset of the golden population must stay within budgets."""
        assert main(["conformance", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "conformance gate: PASS" in out
        for algo in ("lowino", "int8_downscale", "fp32_winograd"):
            assert algo in out

    @pytest.mark.conformance
    def test_conformance_update_golden_round_trip(self, tmp_path, capsys):
        assert main([
            "conformance", "--cases", "3", "--golden-dir", str(tmp_path),
            "--update-golden",
        ]) == 0
        files = sorted(tmp_path.glob("conformance_*.json"))
        assert len(files) == 6
        payload = json.loads(files[0].read_text())
        assert payload["format_version"] == 1
        capsys.readouterr()
        # Gating the identical run against the fresh golden passes.
        assert main(["conformance", "--cases", "3",
                     "--golden-dir", str(tmp_path)]) == 0
        assert "conformance gate: PASS" in capsys.readouterr().out

    def test_conformance_rejects_unknown_algorithm(self, capsys):
        assert main(["conformance", "--cases", "1",
                     "--algorithms", "magic"]) == 2

    def test_bench_tiny_run(self, capsys):
        assert main(["bench", "--quick", "--layers", "ResNet-50_c",
                     "--repeats", "1", "--algorithms", "fp32_direct,lowino",
                     "--no-reference", "--no-models", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-50_c" in out
        assert "geomean speedup vs fp32_direct" in out
        assert "plan cache:" in out and "hits=" in out

    def test_bench_model_cases(self, capsys):
        assert main(["bench", "--quick", "--layers", "ResNet-50_c",
                     "--repeats", "1", "--algorithms", "fp32_direct",
                     "--no-reference", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "model compiled vs eager" in out
        assert "vgg/lowino" in out
        assert "model cache [" in out

    def test_bench_no_models_skips_table(self, capsys):
        assert main(["bench", "--quick", "--layers", "ResNet-50_c",
                     "--repeats", "1", "--algorithms", "fp32_direct",
                     "--no-reference", "--no-models"]) == 0
        assert "model compiled vs eager" not in capsys.readouterr().out

    def test_bench_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        # A wide gate: this exercises the baseline round trip, not timing
        # stability (a 1-repeat run on a tiny layer is all noise).
        common = ["bench", "--quick", "--layers", "ResNet-50_c",
                  "--repeats", "1", "--algorithms", "fp32_direct,lowino",
                  "--no-reference", "--no-models", "--gate", "0.95",
                  "--baseline", str(baseline)]
        assert main(common + ["--update-baseline"]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        # Gating a re-run against the fresh baseline passes.
        assert main(common) == 0
        assert "bench gate: PASS" in capsys.readouterr().out

    def test_bench_missing_baseline(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--layers", "ResNet-50_c",
                     "--repeats", "1", "--algorithms", "fp32_direct",
                     "--no-reference", "--no-models",
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--quick", "--baseline"],
        ["tune", "--baseline"],
        ["load-bench", "--no-out", "--baseline"],
        ["profile", "--stage-baseline"],
    ])
    def test_malformed_baseline_exits_2_before_running(self, argv, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{x")
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any measurement ran
        assert f"cannot read {bad}" in captured.err

    def test_bench_rejects_unknown_algorithm(self, capsys):
        assert main(["bench", "--quick", "--algorithms", "magic"]) == 2

    def test_bench_rejects_unknown_layer(self, capsys):
        assert main(["bench", "--quick", "--layers", "NoSuchNet_z"]) == 2

    def test_serve_bench_tiny_run(self, tmp_path, capsys):
        out_file = tmp_path / "serve.json"
        # Gate 0: a tiny 2-thread CI run only checks bit-identity and
        # plumbing; the real >=1.5x throughput gate runs on the default
        # sweep.
        assert main(["serve-bench", "--threads", "1,2", "--requests", "2",
                     "--width", "8", "--hw", "8", "--m", "2",
                     "--gate", "0", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "bit-identity vs serial eager: yes" in out
        assert "serve gate: PASS" in out
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["summary"]["exact"] is True

    def test_profile_tiny_run(self, tmp_path, capsys):
        out_file = tmp_path / "new" / "dir" / "profile.json"
        assert main(["profile", "--model", "vgg", "--algorithm", "lowino",
                     "--hw", "8", "--width", "8", "--m", "2",
                     "--runs", "1", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "input_transform" in out and "gemm" in out
        assert "vs step timings" in out  # tracer/step agreement line
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["stage_totals"]["gemm"] > 0
        assert set(doc["breakdown"]) == set(doc["layer_timings"])

    def test_serve_bench_rejects_bad_threads(self, capsys):
        assert main(["serve-bench", "--threads", "1,zero"]) == 2
        assert main(["serve-bench", "--threads", "0"]) == 2

    def test_serve_bench_persists_json_by_default(self, tmp_path, capsys,
                                                  monkeypatch):
        """Without --out the document lands under benchmarks/ (the serve
        perf trajectory is on by default, not opt-in)."""
        monkeypatch.chdir(tmp_path)
        assert main(["serve-bench", "--threads", "1,2", "--requests", "2",
                     "--width", "8", "--hw", "8", "--m", "2",
                     "--gate", "0"]) == 0
        out = capsys.readouterr().out
        default = tmp_path / "benchmarks" / "BENCH_serve_threads.json"
        assert f"wrote {default.relative_to(tmp_path)}" in out
        assert json.loads(default.read_text())["schema"] == 1

    def test_serve_bench_no_out_skips_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["serve-bench", "--threads", "1", "--requests", "2",
                     "--width", "8", "--hw", "8", "--m", "2",
                     "--gate", "0", "--no-out"]) == 0
        assert not (tmp_path / "benchmarks").exists()

    def test_serve_bench_procs_tiny_run(self, tmp_path, capsys):
        """--procs switches to the multi-process sweep: worker processes,
        bit-identity on every count, selection convergence."""
        out_file = tmp_path / "procs.json"
        assert main(["serve-bench", "--procs", "1,2", "--clients", "2",
                     "--requests", "2", "--width", "8", "--hw", "8",
                     "--m", "2", "--gate", "0", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Multi-process serving benchmark" in out
        assert "bit-identity vs serial eager: yes" in out
        assert "cross-process selection convergence: yes" in out
        assert "proc gate: PASS" in out
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert [e["procs"] for e in doc["results"]] == [1, 2]
        assert doc["summary"]["exact"] is True
        assert doc["summary"]["selection_converged"] is True

    def test_serve_bench_procs_baseline_round_trip(self, tmp_path, capsys,
                                                   monkeypatch):
        """--update-baseline regenerates the committed document and a
        second run ratio-gates against it."""
        monkeypatch.chdir(tmp_path)
        args = ["serve-bench", "--procs", "1,2", "--clients", "2",
                "--requests", "2", "--width", "8", "--hw", "8", "--m", "2",
                "--gate", "0", "--no-proc-wisdom",
                # Tiny single-host runs are noisy; this test checks the
                # plumbing, not the ratio itself.
                "--speedup-tolerance", "0.05"]
        assert main(args + ["--update-baseline"]) == 0
        capsys.readouterr()
        baseline = tmp_path / "benchmarks" / "BENCH_serve_procs.json"
        assert json.loads(baseline.read_text())["schema"] == 1
        # A plain run does NOT clobber the committed baseline...
        assert main(args + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baseline ratio" in out
        assert json.loads(baseline.read_text())["schema"] == 1

    def test_serve_bench_procs_rejects_bad_lists_and_baseline(self, tmp_path,
                                                              capsys):
        assert main(["serve-bench", "--procs", "1,zero"]) == 2
        assert main(["serve-bench", "--procs", "0"]) == 2
        assert main(["serve-bench", "--procs", "1",
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_load_bench_run_and_baseline_round_trip(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "serve_baseline.json"
        args = ["load-bench", "--single-tenant", "--horizon", "0.4",
                "--rate", "20", "--overload-rate", "250"]
        # First run: default persistence + record the baseline.
        assert main(args + ["--baseline", str(baseline),
                            "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "load-bench" not in out  # table, not argparse usage
        default = tmp_path / "benchmarks" / "BENCH_serve_quick.json"
        doc = json.loads(default.read_text())
        assert doc["schema"] == 1
        assert doc["summary"]["exact"] is True
        assert doc["summary"]["deterministic_outputs"] is True
        assert baseline.is_file()
        # Second run, same seed: schedule digests match the baseline and
        # every gate (identity, sheds, p95 factor) passes.
        assert main(args + ["--no-out", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "bit-identity vs serial eager: yes" in out
        assert "load gate: PASS" in out

    def test_load_bench_missing_baseline(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["load-bench", "--single-tenant", "--horizon", "0.2",
                     "--rate", "15", "--overload-rate", "200", "--no-out",
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_tune_wisdom_round_trip(self, tmp_path, capsys):
        wisdom = tmp_path / "wisdom.json"
        out_file = tmp_path / "tune.json"
        baseline = tmp_path / "BENCH_tuning.json"
        args = ["tune", "--width", "8", "--hw", "8", "--batch", "1",
                "--repeats", "1", "--wisdom", str(wisdom),
                "--out", str(out_file)]
        # First run measures every geometry and records the baseline.
        assert main(args + ["--baseline", str(baseline),
                            "--update-baseline"]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["deterministic"] is True
        assert doc["summary"]["measured"] == doc["summary"]["geometries"]
        assert all(r["selected_vs_static"] >= 1.0 for r in doc["geometries"])
        capsys.readouterr()
        # Second run answers everything from the shared wisdom file and
        # passes the gate against the recorded baseline.
        assert main(args + ["--baseline", str(baseline)]) == 0
        assert "tune gate: PASS" in capsys.readouterr().out
        doc2 = json.loads(out_file.read_text())
        assert doc2["summary"]["measured"] == 0
        assert doc2["summary"]["from_wisdom"] == doc2["summary"]["geometries"]
        assert [r["selected"] for r in doc2["geometries"]] == \
            [r["selected"] for r in doc["geometries"]]

    def test_tune_missing_baseline(self, tmp_path, capsys):
        assert main(["tune", "--width", "8", "--hw", "8", "--batch", "1",
                     "--repeats", "1",
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_bench_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "new" / "dir" / "bench.json"
        assert main(["bench", "--quick", "--layers", "ResNet-50_c",
                     "--repeats", "1", "--algorithms", "fp32_direct,lowino",
                     "--no-reference", "--no-models", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["layers"][0]["name"] == "ResNet-50_c"


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])
