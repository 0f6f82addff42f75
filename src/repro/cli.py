"""Command-line interface: regenerate any paper experiment.

    python -m repro figure8
    python -m repro figure9 [--layer VGG16_a] [--m 4]
    python -m repro figure10
    python -m repro table3 [--eval-images 128] [--width 16]
    python -m repro ablation [--layer ResNet-50_b]
    python -m repro selftest
    python -m repro conformance [--cases 50] [--update-golden]
    python -m repro bench [--quick] [--out BENCH_runtime.json]
    python -m repro serve-bench [--threads 1,2,8] [--gate 1.5]
    python -m repro load-bench [--mode virtual] [--baseline BENCH_serve_quick.json]
    python -m repro tune [--wisdom wisdom.json] [--baseline BENCH_tuning.json]

Each subcommand prints the same rows the corresponding benchmark
emits; ``selftest`` runs a fast numerics sanity sweep (the exactness
and ordering properties the test suite checks in depth);
``conformance`` differentially tests every algorithm against the FP32
direct oracle and gates the error statistics against ``tests/golden``;
``bench`` times the vectorized runtime on the (scaled) Table 2
workloads and can gate speedup ratios against a checked-in baseline;
``serve-bench`` measures the micro-batching server's throughput vs
concurrent client count, with every served result gated bit-identical
to serial eager execution; ``load-bench`` replays seeded open-loop
traces (Poisson / bursty multi-model / overload) and reports SLO-style
p50/p95/p99, goodput, and shed rate, gateable against a checked-in
baseline.  Both persist their JSON documents under ``benchmarks/`` by
default so the serve perf trajectory is first-class; ``tune`` measures
the admissible algorithms per conv geometry, persists the winners to a
shared wisdom file (``--wisdom``), and gates determinism plus the
selected-vs-static ratio -- ``bench`` / ``serve-bench`` / ``load-bench``
consume the same file via their own ``--wisdom`` flag.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .perf.measured import DocumentError, load_json, write_json

__all__ = ["main"]


def _cmd_figure8(args: argparse.Namespace) -> int:
    from .experiments import format_figure8, run_figure8

    print(format_figure8(run_figure8(cores=args.cores)))
    return 0


def _cmd_figure9(args: argparse.Namespace) -> int:
    from .experiments import format_figure9, run_figure9

    print(format_figure9(run_figure9(layer=args.layer, m=args.m)))
    return 0


def _cmd_figure10(args: argparse.Namespace) -> int:
    from .experiments import format_figure10, run_figure10

    print(format_figure10(run_figure10(cores=args.cores)))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .experiments import format_table3, run_table3
    from .nn import build_resnet_small, build_vgg_small

    width = args.width
    rows = run_table3(
        models={
            "VGG16 (synthetic)": lambda: build_vgg_small(width=width),
            "ResNet-50 (synthetic)": lambda: build_resnet_small(width=width),
        },
        eval_images=args.eval_images,
    )
    print(format_table3(rows))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments import numeric_error_ablation, point_set_ablation
    from .workloads import layer_by_name

    print(f"Numeric-error ablation on {args.layer} shapes (rel RMS vs FP32):")
    for row in numeric_error_ablation(layer_by_name(args.layer)):
        print(f"  {row.scheme:14s} {row.rel_rms_error:.4f}")
    print("\nF(4,3) interpolation-point extension:")
    for name, err in point_set_ablation().items():
        print(f"  {name:28s} {err:.4f}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.report import reproduction_report

    text = reproduction_report(with_table3=args.with_table3)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .perf import layer_report
    from .workloads import layer_by_name

    print(layer_report(layer_by_name(args.layer), cores=args.cores))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .conv import direct_conv2d_fp32
    from .core import LoWinoConv2d, signed_via_unsigned
    from .gemm import gemm_s8s8_reference
    from .winograd import winograd_algorithm, winograd_conv2d_fp32

    rng = np.random.default_rng(0)
    failures = 0

    x = rng.standard_normal((1, 4, 10, 10))
    w = rng.standard_normal((4, 4, 3, 3)) * 0.2
    ref = direct_conv2d_fp32(x, w)
    ok = np.allclose(winograd_conv2d_fp32(x, w, winograd_algorithm(4, 3)), ref, atol=1e-9)
    print(f"[{'ok' if ok else 'FAIL'}] FP32 Winograd F(4,3) == direct")
    failures += not ok

    v = rng.integers(-128, 128, (6, 8)).astype(np.int8)
    u = rng.integers(-128, 128, (8, 4)).astype(np.int8)
    ok = np.array_equal(signed_via_unsigned(v, u), gemm_s8s8_reference(v, u))
    print(f"[{'ok' if ok else 'FAIL'}] Eq. 9 compensation identity")
    failures += not ok

    xr = np.maximum(x, 0)
    layer = LoWinoConv2d(w, m=4, padding=0)
    refv = direct_conv2d_fp32(xr, w)
    rel = float(np.sqrt(np.mean((layer(xr) - refv) ** 2)) / refv.std())
    ok = rel < 0.25
    print(f"[{'ok' if ok else 'FAIL'}] LoWino F(4,3) error envelope ({rel:.3f})")
    failures += not ok

    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .conformance import (
        ALL_ALGORITHMS,
        check_report_against_golden,
        default_golden_dir,
        default_suite,
        format_report,
        run_suite,
        write_golden,
    )

    if args.algorithms:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        unknown = [a for a in algorithms if a not in ALL_ALGORITHMS]
        if unknown:
            print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        algorithms = ALL_ALGORITHMS
    configs = default_suite(cases=args.cases, seed=args.seed)
    report = run_suite(configs, algorithms)
    print(format_report(report, per_key=args.per_key))

    golden_dir = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    if args.update_golden:
        written = write_golden(
            report,
            golden_dir,
            generator_meta={"seed": args.seed, "generated_cases": args.cases},
        )
        print(f"\nwrote {len(written)} golden files under {golden_dir}")
        return 0
    violations = check_report_against_golden(report, golden_dir, shrink=not args.no_shrink)
    if violations:
        print(f"\nconformance gate: {len(violations)} VIOLATION(S)")
        for v in violations:
            print(f"  {v.describe()}")
        return 1
    print(f"\nconformance gate: PASS ({len(report.results)} cases, golden: {golden_dir})")
    return 0


def _print_violations(label: str, violations) -> None:
    print(f"\n{label}: {len(violations)} VIOLATION(S)")
    for v in violations:
        print(f"  {v}")


def _cmd_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .runtime import ALGORITHMS
    from .runtime import bench as rbench

    profile = rbench.PROFILES["quick" if args.quick else "full"]
    if args.layers:
        from .workloads import layer_by_name

        names = tuple(s.strip() for s in args.layers.split(",") if s.strip())
        try:
            for name in names:
                layer_by_name(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        profile = replace(profile, layers=names)
    if args.repeats is not None:
        profile = replace(profile, repeats=args.repeats)
    if args.m is not None:
        profile = replace(profile, m=args.m)
    if args.no_reference:
        profile = replace(profile, reference=False)
    if args.algorithms:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        unknown = [a for a in algorithms if a not in ALGORITHMS]
        if unknown:
            print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        algorithms = ALGORITHMS
    baseline = None
    if args.baseline and not args.update_baseline:
        baseline = load_json(args.baseline)  # before the sweep: fail fast

    doc = rbench.run_bench(
        profile,
        algorithms=algorithms,
        seed=args.seed,
        models=not args.no_models,
        backend=args.backend,
        wisdom=args.wisdom,
    )
    print(rbench.format_bench(doc))
    if args.cache_stats:
        stats = doc["cache_stats"]
        print(
            "plan cache: "
            + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
        )
        for entry in doc.get("models", []):
            stats = entry["cache_stats"]
            print(
                f"model cache [{entry['name']}]: "
                + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
            )
    if args.out:
        write_json(doc, args.out)
        print(f"wrote {args.out}")
    if args.baseline and args.update_baseline:
        write_json(doc, args.baseline)
        print(f"wrote baseline {args.baseline}")
    if baseline is not None:
        violations = rbench.check_regression(doc, baseline, gate=args.gate)
        if violations:
            _print_violations("bench gate", violations)
            return 1
        print(f"\nbench gate: PASS (gate {args.gate:.0%}, baseline {args.baseline})")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import profile as oprof

    cfg = oprof.ProfileConfig(
        model=args.model,
        algorithm=args.algorithm,
        batch=args.batch,
        hw=args.hw,
        width=args.width,
        m=args.m,
        runs=args.runs,
        backend=args.backend,
        seed=args.seed,
    )
    baseline = None
    if args.stage_baseline and not args.update_stage_baseline:
        baseline = load_json(args.stage_baseline)  # before the run: fail fast
    try:
        doc = oprof.run_profile(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(oprof.format_profile(doc))
    if args.stage_baseline and args.update_stage_baseline:
        write_json(oprof.stage_baseline_doc(doc), args.stage_baseline)
        print(f"wrote stage baseline {args.stage_baseline}")
    if baseline is not None:
        print()
        print(oprof.format_stage_gate(doc, baseline))
        violations = oprof.check_stage_gate(
            doc, baseline, tolerance=args.stage_tolerance
        )
        if violations:
            _print_violations("stage gate", violations)
            return 1
        print(f"\nstage gate: PASS (tolerance "
              f"{args.stage_tolerance * 100:.0f}pp, "
              f"baseline {args.stage_baseline})")
    overhead_doc = None
    if args.overhead:
        overhead_doc = oprof.measure_overhead(cfg, repeats=args.overhead_repeats)
        print()
        print(oprof.format_overhead(overhead_doc))
        violations = oprof.check_overhead_gate(overhead_doc, limit=args.gate)
        if violations:
            _print_violations("overhead gate", violations)
            return 1
        print(f"\noverhead gate: PASS (enabled instrumentation <= {args.gate:.0%})")
    if args.out:
        out_doc = dict(doc)
        if overhead_doc is not None:
            out_doc["overhead"] = overhead_doc
        write_json(out_doc, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_count_list(raw: str, flag: str) -> Optional[tuple]:
    try:
        counts = tuple(int(s.strip()) for s in raw.split(",") if s.strip())
    except ValueError:
        print(f"invalid {flag} list: {raw!r}", file=sys.stderr)
        return None
    if not counts or any(c < 1 for c in counts):
        print(f"{flag} must be positive integers, got {raw!r}", file=sys.stderr)
        return None
    return counts


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve import bench as sbench

    if args.procs is not None:
        return _run_proc_bench(args, sbench)
    threads = _parse_count_list(args.threads, "--threads")
    if threads is None:
        return 2
    cfg = sbench.ServeBenchConfig(
        model=args.model,
        algorithm=args.algorithm if args.algorithm is not None else "lowino",
        width=args.width,
        hw=args.hw,
        m=args.m,
        request_batch=args.request_batch,
        requests_per_thread=args.requests,
        threads=threads,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        workers=args.workers,
        backend=args.backend,
        seed=args.seed,
        wisdom=args.wisdom,
    )
    try:
        doc = sbench.run_serve_bench(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(sbench.format_serve_bench(doc))
    out = None if args.no_out else (args.out or sbench.DEFAULT_BENCH_PATH)
    if out:
        write_json(doc, out)
        print(f"wrote {out}")
    violations = sbench.check_serve_gate(doc, min_speedup=args.gate)
    if violations:
        _print_violations("serve gate", violations)
        return 1
    print(f"\nserve gate: PASS (bit-identity + >= {args.gate:.2f}x throughput)")
    return 0


def _run_proc_bench(args: argparse.Namespace, sbench) -> int:
    """``serve-bench --procs``: the multi-process worker-count sweep."""
    procs = _parse_count_list(args.procs, "--procs")
    if procs is None:
        return 2
    baseline = load_json(args.baseline) if args.baseline else None
    cfg = sbench.ProcBenchConfig(
        model=args.model,
        algorithm=args.algorithm if args.algorithm is not None else "int8_upcast",
        width=args.width,
        hw=args.hw,
        m=args.m,
        request_batch=args.request_batch,
        requests_per_thread=args.requests,
        client_threads=args.clients,
        procs=procs,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        backend=args.backend,
        transport=args.transport,
        wisdom=not args.no_proc_wisdom,
        seed=args.seed,
    )
    try:
        doc = sbench.run_proc_bench(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(sbench.format_proc_bench(doc))
    # Unlike the thread sweep, the default run does NOT overwrite the
    # committed baseline it is usually gated against; ``--update-baseline``
    # regenerates it explicitly.
    out = None
    if not args.no_out:
        out = args.out or (
            sbench.DEFAULT_PROC_BENCH_PATH if args.update_baseline else None
        )
    if out:
        write_json(doc, out)
        print(f"wrote {out}")
    violations = sbench.check_proc_gate(
        doc, baseline=baseline, min_speedup=args.gate,
        speedup_tolerance=args.speedup_tolerance,
    )
    if violations:
        _print_violations("proc gate", violations)
        return 1
    parts = ["bit-identity"]
    if cfg.wisdom:
        parts.append("selection convergence")
    if args.gate > 0:
        parts.append(f">= {args.gate:.2f}x throughput")
    if baseline is not None:
        parts.append("baseline ratio")
    print(f"\nproc gate: PASS ({' + '.join(parts)})")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import bench as tbench

    cfg = tbench.TuneBenchConfig(
        model=args.model,
        width=args.width,
        hw=args.hw,
        batch=args.batch,
        repeats=args.repeats,
        seed=args.seed,
        backend=args.backend,
        family=args.family,
    )
    baseline = None
    if args.baseline and not args.update_baseline:
        baseline = load_json(args.baseline)  # before the sweep: fail fast
    try:
        doc = tbench.run_tune_bench(cfg, wisdom=args.wisdom)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(tbench.format_tune_bench(doc))
    if args.wisdom:
        print(f"wisdom: {args.wisdom}")
    if args.out:
        write_json(doc, args.out)
        print(f"wrote {args.out}")
    if args.baseline and args.update_baseline:
        write_json(doc, args.baseline)
        print(f"wrote baseline {args.baseline}")
        return 0
    violations = tbench.check_tuning_gate(doc, baseline=baseline, gate=args.gate)
    if violations:
        _print_violations("tune gate", violations)
        return 1
    against = f", baseline {args.baseline}" if baseline is not None else ""
    print(f"\ntune gate: PASS (deterministic + never-regress{against})")
    return 0


def _cmd_load_bench(args: argparse.Namespace) -> int:
    from .serve import loadgen

    tenants = (("vgg", "vgg", "lowino"), ("resnet", "resnet", "int8_upcast"))
    if args.single_tenant:
        tenants = tenants[:1]
    cfg = loadgen.LoadBenchConfig(
        tenants=tenants,
        width=args.width,
        hw=args.hw,
        m=args.m,
        horizon_s=args.horizon,
        base_rate=args.rate,
        overload_rate=args.overload_rate,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_size=args.queue_size,
        workers=args.workers,
        mode=args.mode,
        speed=args.speed,
        seed=args.seed,
    )
    baseline = None
    if args.baseline and not args.update_baseline:
        baseline = load_json(args.baseline)  # before the sweep: fail fast
    try:
        doc = loadgen.run_load_bench(cfg, wisdom=args.wisdom)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(loadgen.format_load_bench(doc))
    out = None if args.no_out else (args.out or loadgen.DEFAULT_BENCH_PATH)
    if out:
        write_json(doc, out)
        print(f"wrote {out}")
    if args.baseline and args.update_baseline:
        write_json(doc, args.baseline)
        print(f"wrote baseline {args.baseline}")
        return 0
    violations = loadgen.check_load_gate(
        doc,
        baseline=baseline,
        p95_factor=args.gate_p95,
        shed_tolerance=args.gate_shed,
    )
    if violations:
        _print_violations("load gate", violations)
        return 1
    against = f", baseline {args.baseline}" if baseline is not None else ""
    print(f"\nload gate: PASS (bit-identity + backpressure{against})")
    return 0


def _backend_choices() -> tuple:
    from .runtime.backends import available_backends

    return tuple(available_backends())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LoWino reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p8 = sub.add_parser("figure8", help="per-layer speedups (cost model)")
    p8.add_argument("--cores", type=int, default=None)
    p8.set_defaults(fn=_cmd_figure8)

    p9 = sub.add_parser("figure9", help="quantized transformed-input histograms")
    p9.add_argument("--layer", default="VGG16_a")
    p9.add_argument("--m", type=int, default=4)
    p9.set_defaults(fn=_cmd_figure9)

    p10 = sub.add_parser("figure10", help="stage breakdown (cost model)")
    p10.add_argument("--cores", type=int, default=None)
    p10.set_defaults(fn=_cmd_figure10)

    pt3 = sub.add_parser("table3", help="end-to-end accuracy (slow)")
    pt3.add_argument("--eval-images", type=int, default=128)
    pt3.add_argument("--width", type=int, default=16)
    pt3.set_defaults(fn=_cmd_table3)

    pab = sub.add_parser("ablation", help="numeric-error + point-set ablations")
    pab.add_argument("--layer", default="ResNet-50_b")
    pab.set_defaults(fn=_cmd_ablation)

    prr = sub.add_parser("reproduce", help="run the evaluation suite, write a report")
    prr.add_argument("--out", default=None, help="write markdown here (default stdout)")
    prr.add_argument("--with-table3", action="store_true",
                     help="include the (slow) accuracy table")
    prr.set_defaults(fn=_cmd_reproduce)

    ppl = sub.add_parser("plan", help="execution-plan report for one layer")
    ppl.add_argument("layer", help="Table 2 layer name, e.g. VGG16_b")
    ppl.add_argument("--cores", type=int, default=None)
    ppl.set_defaults(fn=_cmd_plan)

    pst = sub.add_parser("selftest", help="fast numerics sanity sweep")
    pst.set_defaults(fn=_cmd_selftest)

    pcf = sub.add_parser(
        "conformance",
        help="differential conformance of every algorithm vs the FP32 oracle",
    )
    pcf.add_argument("--cases", type=int, default=50,
                     help="randomly generated configs on top of the edge grid")
    pcf.add_argument("--seed", type=int, default=2021, help="generator seed")
    pcf.add_argument("--algorithms", default=None,
                     help="comma-separated subset (default: all six)")
    pcf.add_argument("--golden-dir", default=None,
                     help="golden-file directory (default: tests/golden)")
    pcf.add_argument("--update-golden", action="store_true",
                     help="record this run's statistics as the new baseline")
    pcf.add_argument("--per-key", action="store_true",
                     help="also print per-(algorithm, shape-class) statistics")
    pcf.add_argument("--no-shrink", action="store_true",
                     help="skip shrinking failing configs to minimal reproducers")
    pcf.set_defaults(fn=_cmd_conformance)

    pbn = sub.add_parser(
        "bench",
        help="wall-clock benchmark of the vectorized runtime (scaled Table 2)",
    )
    pbn.add_argument("--quick", action="store_true",
                     help="small profile (breakdown layers, tighter caps) for CI")
    pbn.add_argument("--layers", default=None,
                     help="comma-separated Table 2 layer names (default: profile set)")
    pbn.add_argument("--algorithms", default=None,
                     help="comma-separated subset (default: all six)")
    pbn.add_argument("--repeats", type=int, default=None,
                     help="timed rounds per measurement, at least 3 (median "
                          "of interleaved rounds)")
    pbn.add_argument("--m", type=int, default=None,
                     help="Winograd output tile size (default 4)")
    pbn.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    pbn.add_argument("--out", default=None,
                     help="write the BENCH_runtime.json document here")
    pbn.add_argument("--baseline", default=None,
                     help="baseline JSON to gate speedup ratios against")
    pbn.add_argument("--gate", type=float, default=0.25,
                     help="allowed fractional regression vs baseline (default 0.25)")
    pbn.add_argument("--update-baseline", action="store_true",
                     help="record this run as the new baseline (with --baseline)")
    pbn.add_argument("--backend", default=None, choices=_backend_choices(),
                     help="fused-stage kernel backend (default: process default)")
    pbn.add_argument("--no-reference", action="store_true",
                     help="skip the (slow) loop-reference timings")
    pbn.add_argument("--no-models", action="store_true",
                     help="skip the whole-model compiled-vs-eager cases")
    pbn.add_argument("--cache-stats", action="store_true",
                     help="print plan-cache hit/miss/eviction/bytes counters "
                          "(per session for the model cases)")
    pbn.add_argument("--wisdom", default=None,
                     help="wisdom file (repro tune) applying tuned algorithm "
                          "choices to the model cases")
    pbn.set_defaults(fn=_cmd_bench)

    ppr = sub.add_parser(
        "profile",
        help="per-layer x per-stage wall-clock breakdown (traced session)",
    )
    ppr.add_argument("--model", default="resnet",
                     help="model family: vgg/resnet/alexnet/unet (default resnet)")
    ppr.add_argument("--algorithm", default="auto",
                     help="quantize_model algorithm or 'fp32' (default auto)")
    ppr.add_argument("--batch", type=int, default=2, help="batch size (default 2)")
    ppr.add_argument("--hw", type=int, default=32,
                     help="input spatial size (default 32)")
    ppr.add_argument("--width", type=int, default=32,
                     help="model width (default 32)")
    ppr.add_argument("--m", type=int, default=4,
                     help="Winograd output tile size (default 4)")
    ppr.add_argument("--runs", type=int, default=3,
                     help="timed runs after warmup (default 3)")
    ppr.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    ppr.add_argument("--overhead", action="store_true",
                     help="also measure instrumentation overhead (none vs "
                          "disabled vs enabled tracer) and gate it")
    ppr.add_argument("--overhead-repeats", type=int, default=5,
                     help="timed rounds for --overhead, at least 3 (median of "
                          "interleaved rounds, default 5)")
    ppr.add_argument("--gate", type=float, default=0.05,
                     help="allowed enabled-tracer overhead fraction (default 0.05)")
    ppr.add_argument("--backend", default="numpy", choices=_backend_choices(),
                     help="fused-stage kernel backend (default numpy)")
    ppr.add_argument("--stage-baseline", default=None,
                     help="stage-share baseline JSON to gate against "
                          "(e.g. benchmarks/BENCH_stages.json)")
    ppr.add_argument("--update-stage-baseline", action="store_true",
                     help="record this run's stage shares as the new baseline "
                          "(with --stage-baseline)")
    ppr.add_argument("--stage-tolerance", type=float, default=0.10,
                     help="allowed absolute growth of any stage's share of "
                          "stage time, as a fraction (default 0.10 = 10pp)")
    ppr.add_argument("--out", default=None,
                     help="write the profile JSON document here")
    ppr.set_defaults(fn=_cmd_profile)

    psv = sub.add_parser(
        "serve-bench",
        help="micro-batching server throughput vs client threads "
             "(bit-identity gated)",
    )
    psv.add_argument("--model", default="vgg",
                     help="model family: vgg/resnet/alexnet/unet (default vgg)")
    psv.add_argument("--algorithm", default=None,
                     help="quantize_model algorithm or 'fp32' (default lowino; "
                          "int8_upcast with --procs so wisdom swaps apply)")
    psv.add_argument("--threads", default="1,2,8",
                     help="comma-separated client thread counts (default 1,2,8)")
    psv.add_argument("--procs", default=None,
                     help="comma-separated worker-process counts; switches the "
                          "sweep to the multi-process tier (ProcServer), e.g. "
                          "--procs 1,2,4")
    psv.add_argument("--clients", type=int, default=8,
                     help="closed-loop client threads for the --procs sweep "
                          "(default 8)")
    psv.add_argument("--transport", default="auto",
                     choices=("auto", "shm", "pipe"),
                     help="--procs tensor transport (default auto: shared-"
                          "memory slabs when available)")
    psv.add_argument("--no-proc-wisdom", action="store_true",
                     help="disable in-worker tuning + the cross-process "
                          "selection-convergence gate in the --procs sweep")
    psv.add_argument("--baseline", default=None,
                     help="committed proc-bench JSON to ratio-gate the "
                          "measured speedup against (--procs only)")
    psv.add_argument("--speedup-tolerance", type=float, default=0.5,
                     help="--baseline ratio floor: measured speedup may not "
                          "fall below this fraction of the baseline's "
                          "(default 0.5)")
    psv.add_argument("--update-baseline", action="store_true",
                     help="with --procs: also write the document to "
                          "benchmarks/BENCH_serve_procs.json")
    psv.add_argument("--requests", type=int, default=8,
                     help="requests per client thread (default 8)")
    psv.add_argument("--request-batch", type=int, default=2,
                     help="images per request (default 2)")
    psv.add_argument("--max-batch", type=int, default=16,
                     help="micro-batcher image bound (default 16)")
    psv.add_argument("--max-delay-ms", type=float, default=5.0,
                     help="micro-batcher coalescing window (default 5ms)")
    psv.add_argument("--workers", type=int, default=1,
                     help="server worker threads per model (default 1)")
    psv.add_argument("--backend", default="numpy", choices=_backend_choices(),
                     help="fused-stage kernel backend (default numpy)")
    psv.add_argument("--width", type=int, default=16,
                     help="model width (default 16)")
    psv.add_argument("--hw", type=int, default=16,
                     help="input spatial size (default 16)")
    psv.add_argument("--m", type=int, default=4,
                     help="Winograd output tile size (default 4)")
    psv.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    psv.add_argument("--gate", type=float, default=1.5,
                     help="required throughput speedup at max threads vs 1 "
                          "(default 1.5)")
    psv.add_argument("--out", default=None,
                     help="write the serve-bench JSON document here "
                          "(default: benchmarks/BENCH_serve_threads.json)")
    psv.add_argument("--no-out", action="store_true",
                     help="do not persist the JSON document")
    psv.add_argument("--wisdom", default=None,
                     help="wisdom file (repro tune) applying tuned algorithm "
                          "choices to the served session")
    psv.set_defaults(fn=_cmd_serve_bench)

    plb = sub.add_parser(
        "load-bench",
        help="open-loop trace-driven load harness: SLO latency/goodput/"
             "shed-rate sweep (bit-identity gated)",
    )
    plb.add_argument("--mode", choices=("virtual", "realtime"), default="virtual",
                     help="virtual = wall-clock-free replay (default); "
                          "realtime = submit at scheduled instants")
    plb.add_argument("--speed", type=float, default=1.0,
                     help="realtime schedule compression factor (default 1)")
    plb.add_argument("--horizon", type=float, default=2.0,
                     help="trace horizon in (virtual) seconds (default 2)")
    plb.add_argument("--rate", type=float, default=30.0,
                     help="base Poisson rate per tenant, req/s (default 30)")
    plb.add_argument("--overload-rate", type=float, default=600.0,
                     help="offered rate for the overload scenario (default 600)")
    plb.add_argument("--single-tenant", action="store_true",
                     help="drop the multi-model tenancy scenario")
    plb.add_argument("--width", type=int, default=8,
                     help="tenant model width (default 8)")
    plb.add_argument("--hw", type=int, default=8,
                     help="input spatial size (default 8)")
    plb.add_argument("--m", type=int, default=2,
                     help="Winograd output tile size (default 2)")
    plb.add_argument("--max-batch", type=int, default=16,
                     help="micro-batcher image bound (default 16)")
    plb.add_argument("--max-delay-ms", type=float, default=2.0,
                     help="micro-batcher coalescing window (default 2ms)")
    plb.add_argument("--queue-size", type=int, default=256,
                     help="request queue bound for paced scenarios (default 256)")
    plb.add_argument("--workers", type=int, default=1,
                     help="server worker threads per model (default 1)")
    plb.add_argument("--seed", type=int, default=2021,
                     help="trace + tensor generator seed")
    plb.add_argument("--gate-p95", type=float, default=4.0,
                     help="allowed p95 factor vs baseline; <= 0 disables "
                          "(default 4.0)")
    plb.add_argument("--gate-shed", type=float, default=0.2,
                     help="allowed absolute overload shed-rate drift vs "
                          "baseline (default 0.2)")
    plb.add_argument("--out", default=None,
                     help="write the load-bench JSON document here "
                          "(default: benchmarks/BENCH_serve_quick.json)")
    plb.add_argument("--no-out", action="store_true",
                     help="do not persist the JSON document")
    plb.add_argument("--baseline", default=None,
                     help="baseline JSON to gate schedule digests, shed rate, "
                          "and p95 against")
    plb.add_argument("--update-baseline", action="store_true",
                     help="record this run as the new baseline (with --baseline)")
    plb.add_argument("--wisdom", default=None,
                     help="wisdom file (repro tune) applying tuned algorithm "
                          "choices to every tenant session (baseline-compatible: "
                          "selection never changes outputs or schedules)")
    plb.set_defaults(fn=_cmd_load_bench)

    ptn = sub.add_parser(
        "tune",
        help="measure + select the fastest admissible algorithm per conv "
             "geometry, persisting choices to a shared wisdom file",
    )
    ptn.add_argument("--model", default="resnet",
                     help="model family: vgg/resnet/alexnet/unet (default resnet)")
    ptn.add_argument("--width", type=int, default=8,
                     help="model width (default 8)")
    ptn.add_argument("--hw", type=int, default=8,
                     help="input spatial size (default 8)")
    ptn.add_argument("--batch", type=int, default=2, help="batch size (default 2)")
    ptn.add_argument("--repeats", type=int, default=3,
                     help="timed rounds per candidate, at least 3 (median of "
                          "interleaved rounds, default 3)")
    ptn.add_argument("--seed", type=int, default=2021,
                     help="measurement tensor seed (default 2021)")
    ptn.add_argument("--backend", default="numpy", choices=_backend_choices(),
                     help="fused-stage kernel backend (default numpy)")
    ptn.add_argument("--family", default="quantized",
                     choices=("quantized", "fp32"),
                     help="candidate family per geometry: the INT8 pipelines "
                          "or fp32_winograd@m vs fp32_direct (default "
                          "quantized)")
    ptn.add_argument("--wisdom", default=None,
                     help="wisdom file to read + extend (default: throwaway "
                          "-- pure benchmark mode)")
    ptn.add_argument("--out", default=None,
                     help="write the BENCH_tuning.json document here")
    ptn.add_argument("--baseline", default=None,
                     help="baseline JSON to gate the selected-vs-static "
                          "geomean against")
    ptn.add_argument("--gate", type=float, default=0.25,
                     help="allowed fractional geomean regression vs baseline "
                          "(default 0.25)")
    ptn.add_argument("--update-baseline", action="store_true",
                     help="record this run as the new baseline (with --baseline)")
    ptn.set_defaults(fn=_cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:  # a missing or malformed baseline document
        print(f"cannot read {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
