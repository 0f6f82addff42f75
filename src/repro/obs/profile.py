"""``repro profile``: per-layer x per-stage breakdown + overhead gate.

The paper's Figure 10 argument is a *stage* cost breakdown (input
transform / quantize / GEMM / output transform); this module reproduces
that view for whole models on the vectorized runtime.  A
:class:`~repro.obs.tracer.StageTracer` is attached to an
:class:`~repro.runtime.session.InferenceSession`, a few batches run,
and the accumulated ``(layer, stage)`` wall-clock renders as a table
with percentages.

Two built-in self-checks keep the numbers honest:

* **Agreement** -- the tracer's laps tile each step's body, so the
  summed stage seconds must agree with the session's independent
  per-step timings (:func:`run_profile` reports the gap;
  ``tests/obs/test_profile.py`` gates it at 2%).
* **Overhead** -- :func:`measure_overhead` times three modes (no
  tracer / tracer disabled / tracer enabled) on bitwise-identical
  sessions in interleaved rounds, and :func:`check_overhead_gate` fails
  if enabled instrumentation's median costs more than 5% (CI runs this
  in the bench smoke job).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..perf.measured import MIN_ROUNDS, config_mismatch, time_interleaved
from .tracer import STAGES, StageTracer

__all__ = [
    "DEFAULT_STAGE_BASELINE_PATH",
    "ProfileConfig",
    "run_profile",
    "format_profile",
    "measure_overhead",
    "check_overhead_gate",
    "format_overhead",
    "stage_shares",
    "stage_baseline_doc",
    "check_stage_gate",
    "format_stage_gate",
]

#: Default persistence target for the per-stage share baseline the CI
#: bench-smoke job gates against.
DEFAULT_STAGE_BASELINE_PATH = "benchmarks/BENCH_stages.json"

#: Matches the bench default; profiles must be reproducible.
SEED = 2021


@dataclass(frozen=True)
class ProfileConfig:
    """One profiling workload (mirrors the bench ``ModelCase`` knobs)."""

    model: str = "resnet"
    algorithm: str = "auto"
    batch: int = 2
    #: Default workload is deliberately non-tiny: per-lap tracer cost is
    #: fixed (~µs), so agreement and overhead are only meaningful when
    #: each stage does real whole-tensor work.
    hw: int = 32
    width: int = 32
    m: int = 4
    runs: int = 3
    #: Fused-stage kernel backend the profiled session executes on
    #: (:func:`repro.runtime.backends.available_backends`).
    backend: str = "numpy"
    seed: int = SEED


def _build_session(config: ProfileConfig, tracer: Optional[StageTracer], model=None):
    """A compiled session (optionally traced) + its input batch."""
    from ..nn.quantize import quantize_model
    from ..runtime.bench import ModelCase, build_case_model
    from ..runtime.session import InferenceSession

    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((config.batch, 3, config.hw, config.hw))
    if model is None:
        case = ModelCase(
            model=config.model,
            algorithm=config.algorithm,
            batch=config.batch,
            hw=config.hw,
            width=config.width,
            m=config.m,
        )
        model = build_case_model(case)
        if config.algorithm != "fp32":
            quantize_model(
                model, config.algorithm, m=config.m, calibration_batches=[x]
            )
    session = InferenceSession(model, x.shape, tracer=tracer, backend=config.backend)
    return session, x, model


def run_profile(config: ProfileConfig) -> Dict[str, Any]:
    """Profile one model: traced runs -> per-layer x per-stage seconds.

    The warmup run (plan building, scratch allocation) is excluded via
    ``reset_stats``, so the numbers describe the steady-state online
    path.  ``agreement_gap`` is the relative difference between the
    tracer's total and the session's independent per-step timing total.
    """
    tracer = StageTracer()
    session, x, _ = _build_session(config, tracer)
    session.run(x)  # warm: plans, geometry scratch, BLAS threads
    session.reset_stats()
    for _ in range(max(1, config.runs)):
        session.run(x)
    breakdown = tracer.breakdown()
    timings = session.layer_timings()
    stage_total = tracer.total_seconds()
    step_total = sum(timings.values())
    gap = abs(stage_total - step_total) / step_total if step_total else 0.0
    return {
        "schema": 1,
        "config": asdict(config),
        "breakdown": breakdown,
        "call_counts": tracer.call_counts(),
        "layer_timings": timings,
        "stage_totals": tracer.stage_totals(),
        "stage_total_s": stage_total,
        "step_total_s": step_total,
        "agreement_gap": gap,
        "cache_stats": session.cache_stats(),
    }


def _active_stages(breakdown: Dict[str, Dict[str, float]]) -> List[str]:
    seen = {stage for stages in breakdown.values() for stage in stages}
    cols = [s for s in STAGES if s in seen]
    return cols + sorted(seen - set(STAGES))  # future-proof: unknown last


def format_profile(doc: Dict[str, Any]) -> str:
    """Render the per-layer x per-stage table with percentages."""
    cfg = doc["config"]
    breakdown: Dict[str, Dict[str, float]] = doc["breakdown"]
    total = doc["stage_total_s"] or 1.0
    cols = _active_stages(breakdown)
    width = max([len("layer")] + [len(path) for path in breakdown]) + 1
    lines = [
        f"Stage profile -- model={cfg['model']} algorithm={cfg['algorithm']} "
        f"batch={cfg['batch']} hw={cfg['hw']} runs={cfg['runs']}"
    ]
    header = f"{'layer':{width}s}" + "".join(f" {c[:16]:>17s}" for c in cols)
    header += f" {'total':>12s}"
    lines.append(header)
    lines.append("-" * len(header))
    layer_rows = sorted(
        breakdown.items(), key=lambda kv: -sum(kv[1].values())
    )
    for path, stages in layer_rows:
        layer_total = sum(stages.values())
        row = f"{path:{width}s}"
        for col in cols:
            seconds = stages.get(col)
            if seconds is None:
                row += f" {'--':>17s}"
            else:
                row += f" {seconds * 1e3:9.3f}ms {seconds / total * 100:4.1f}%"
        row += f" {layer_total * 1e3:10.3f}ms"
        lines.append(row)
    lines.append("")
    totals = doc["stage_totals"]
    lines.append(
        "stage totals: "
        + "  ".join(
            f"{col}={totals[col] * 1e3:.3f}ms ({totals[col] / total * 100:.1f}%)"
            for col in cols
        )
    )
    lines.append(
        f"stage sum {doc['stage_total_s'] * 1e3:.3f}ms vs step timings "
        f"{doc['step_total_s'] * 1e3:.3f}ms "
        f"(gap {doc['agreement_gap'] * 100:.2f}%)"
    )
    return "\n".join(lines)


def measure_overhead(config: ProfileConfig, repeats: int = 5) -> Dict[str, Any]:
    """Measured instrumentation cost: none vs disabled vs enabled tracer.

    The three sessions share one prepared model (identical weights and
    engine objects), run the same input, and are timed in interleaved
    rounds (:func:`repro.perf.measured.time_interleaved`), so ambient
    host noise hits all three equally instead of biasing whichever ran
    last; the overheads are ratios of medians.  Outputs are checked
    bitwise identical across modes first: instrumentation must never
    change results.
    """
    tracer = StageTracer()
    plain, x, model = _build_session(config, tracer=None)
    disabled_tracer = StageTracer(enabled=False)
    disabled, _, _ = _build_session(config, disabled_tracer, model=model)
    enabled, _, _ = _build_session(config, tracer, model=model)
    sessions = {"none": plain, "disabled": disabled, "enabled": enabled}
    outs = {mode: sess.run(x) for mode, sess in sessions.items()}  # warm
    identical = bool(
        np.array_equal(outs["none"], outs["disabled"])
        and np.array_equal(outs["none"], outs["enabled"])
    )
    timings = time_interleaved(
        {mode: (lambda s=sess: s.run(x)) for mode, sess in sessions.items()},
        repeats,
    )
    wall = {mode: t.median_s for mode, t in timings.items()}
    return {
        "config": asdict(config),
        "repeats": repeats,
        "wall_s": wall,
        "wall_iqr_s": {mode: t.iqr_s for mode, t in timings.items()},
        "overhead": {
            "disabled": wall["disabled"] / wall["none"] - 1.0,
            "enabled": wall["enabled"] / wall["none"] - 1.0,
        },
        "outputs_identical": identical,
    }


def check_overhead_gate(
    doc: Dict[str, Any], limit: float = 0.05, disabled_limit: Optional[float] = None
) -> List[str]:
    """Violations list (empty = PASS) for one overhead measurement.

    ``limit`` bounds the *enabled* tracer's cost (the ISSUE budget is
    5%); ``disabled_limit`` defaults to the same bound -- disabled
    instrumentation is one attribute check per call, so a breach there
    means a real hot-path regression, not noise.
    """
    if disabled_limit is None:
        disabled_limit = limit
    violations: List[str] = []
    if not doc["outputs_identical"]:
        violations.append("instrumented outputs are not bit-identical to baseline")
    checks: Tuple[Tuple[str, float], ...] = (
        ("enabled", limit),
        ("disabled", disabled_limit),
    )
    for mode, bound in checks:
        overhead = doc["overhead"][mode]
        if overhead > bound:
            violations.append(
                f"{mode} tracer overhead {overhead * 100:.2f}% exceeds "
                f"{bound * 100:.1f}% budget"
            )
    return violations


def format_overhead(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    wall = doc["wall_s"]
    over = doc["overhead"]
    return "\n".join(
        [
            f"Instrumentation overhead -- model={cfg['model']} "
            f"algorithm={cfg['algorithm']} batch={cfg['batch']} hw={cfg['hw']} "
            f"median of {max(doc['repeats'], MIN_ROUNDS)} interleaved rounds",
            f"  no tracer:       {wall['none'] * 1e3:8.3f}ms",
            f"  tracer disabled: {wall['disabled'] * 1e3:8.3f}ms "
            f"({over['disabled'] * 100:+.2f}%)",
            f"  tracer enabled:  {wall['enabled'] * 1e3:8.3f}ms "
            f"({over['enabled'] * 100:+.2f}%)",
            f"  outputs bit-identical: {'yes' if doc['outputs_identical'] else 'NO'}",
        ]
    )


# -- per-stage share gate (CI bench-smoke) -------------------------------

def stage_shares(doc: Dict[str, Any]) -> Dict[str, float]:
    """Each stage's fraction of the total traced stage wall-clock.

    Shares, not absolute seconds: the *shape* of the Figure 10 breakdown
    is host-independent (a faster machine shrinks every stage together),
    so share drift is the signal that one stage's implementation
    regressed relative to the others.
    """
    totals: Dict[str, float] = doc["stage_totals"]
    total = sum(totals.values())
    if total <= 0:
        return {stage: 0.0 for stage in totals}
    return {stage: seconds / total for stage, seconds in totals.items()}


def stage_baseline_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The checked-in stage baseline for one profile run
    (``benchmarks/BENCH_stages.json``)."""
    return {
        "schema": 1,
        "config": doc["config"],
        "stage_shares": stage_shares(doc),
        "stage_total_s": doc["stage_total_s"],
    }


def check_stage_gate(
    current: Dict[str, Any], baseline: Dict[str, Any], tolerance: float = 0.10
) -> List[str]:
    """Per-stage share regression gate: profile run vs checked-in baseline.

    A stage fails when its share of total stage time *grows* more than
    ``tolerance`` (absolute percentage points, as a fraction) above the
    baseline share -- e.g. quantize going from 12% to 25% of the run
    with the default 0.10 tolerance.  Shrinking shares never fail (the
    other stages' growth is what gets flagged).  A stage absent from the
    baseline fails if its share alone exceeds ``tolerance`` -- new
    overhead must be re-baselined deliberately.  Returns human-readable
    violations; empty means PASS.
    """
    # seed/runs affect noise, not the breakdown shape; ``backend`` *is*
    # compared -- the threaded backend legitimately shifts the GEMM share.
    mismatched = config_mismatch(
        current.get("config", {}),
        baseline.get("config", {}),
        ("model", "algorithm", "batch", "hw", "width", "m", "backend"),
    )
    if mismatched:
        return [
            "stage baseline incompatible with this run (config fields differ: "
            + ", ".join(mismatched)
            + "); regenerate it with --update-stage-baseline"
        ]
    violations: List[str] = []
    cur_shares = stage_shares(current)
    base_shares: Dict[str, float] = baseline["stage_shares"]
    for stage, share in sorted(cur_shares.items()):
        base = base_shares.get(stage)
        if base is None:
            if share > tolerance:
                violations.append(
                    f"stage {stage!r}: {share * 100:.1f}% of stage time but "
                    f"absent from the baseline (tolerance "
                    f"{tolerance * 100:.0f}pp); re-baseline deliberately"
                )
        elif share > base + tolerance:
            violations.append(
                f"stage {stage!r}: share grew {base * 100:.1f}% -> "
                f"{share * 100:.1f}% of stage time "
                f"(tolerance {tolerance * 100:.0f}pp)"
            )
    return violations


def format_stage_gate(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> str:
    """Side-by-side stage shares, current vs baseline."""
    cur_shares = stage_shares(current)
    base_shares: Dict[str, float] = baseline.get("stage_shares", {})
    stages = [s for s in STAGES if s in cur_shares or s in base_shares]
    stages += sorted((set(cur_shares) | set(base_shares)) - set(stages))
    lines = [f"{'stage':18s} {'baseline':>9s} {'current':>9s} {'drift':>8s}"]
    for stage in stages:
        base = base_shares.get(stage)
        cur = cur_shares.get(stage)
        base_s = f"{base * 100:8.1f}%" if base is not None else f"{'--':>9s}"
        cur_s = f"{cur * 100:8.1f}%" if cur is not None else f"{'--':>9s}"
        drift = (
            f"{(cur - base) * 100:+7.1f}pp"
            if base is not None and cur is not None
            else f"{'--':>8s}"
        )
        lines.append(f"{stage:18s} {base_s} {cur_s} {drift}")
    return "\n".join(lines)
