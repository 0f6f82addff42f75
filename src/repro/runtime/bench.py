"""Wall-clock benchmarking of the vectorized runtime (``repro bench``).

Times the steady-state (plan-cached) online path of every algorithm on
the Table 2 workloads, scaled to the pure-NumPy substrate (batch capped
at 1, spatial and channel extents capped per profile -- the full
batch-64 layers are ASIC-scale work a single interpreter thread cannot
turn around in benchmark time).  Three families of numbers come out:

* per-layer, per-algorithm wall-clock (median and quartiles of the
  algorithms of a layer timed in interleaved rounds,
  :func:`repro.perf.measured.time_interleaved`),
* speedup of each algorithm vs the vectorized ``fp32_direct`` path on
  the same layer (the paper's baseline normalization, Figure 8), and
* the vectorized-engine vs loop-reference ratio for the Winograd INT8
  family (``reference_forward`` + :func:`repro.gemm.batched_gemm_reference`)
  -- the number that justifies the runtime's existence.

"Speedup" here is a *relative* claim about two implementations run in
the same process on the same arrays; absolute wall-clock depends on the
host and is never gated.  :func:`check_regression` compares only the
ratio metrics against a checked-in baseline and fails on a >25% drop.
"""

from __future__ import annotations

import math
import platform
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..perf.measured import MIN_ROUNDS, config_mismatch, time_interleaved
from ..workloads import BREAKDOWN_LAYERS, TABLE2_LAYERS, LayerConfig, layer_by_name
from .cache import PlanCache
from .engine import ExecutionEngine
from .plan import ALGORITHMS

__all__ = [
    "BenchProfile",
    "ModelCase",
    "FULL_PROFILE",
    "QUICK_PROFILE",
    "PROFILES",
    "REFERENCE_ALGORITHMS",
    "build_case_model",
    "scale_layer",
    "run_bench",
    "run_model_bench",
    "check_regression",
    "format_bench",
]

#: JSON document version; bump on breaking schema changes.
SCHEMA_VERSION = 1

#: Default seed for the synthetic activation / filter tensors.
SEED = 2021

#: Algorithms whose layers expose a ``reference_forward`` loop path.
REFERENCE_ALGORITHMS = ("lowino", "int8_upcast", "int8_downscale")


@dataclass(frozen=True)
class ModelCase:
    """One whole-model compiled-vs-eager measurement.

    ``model`` names a builder from :mod:`repro.nn.models` /
    :mod:`repro.nn.unet`; ``algorithm`` is a ``quantize_model`` choice
    (``'auto'`` = the per-layer planner) or ``'fp32'`` for the
    unquantized network.  The eager path runs ``model(x)`` layer by
    layer; the compiled path runs the same prepared engines through an
    :class:`~repro.runtime.session.InferenceSession`, so the ratio
    isolates exactly what whole-model lowering buys.
    """

    model: str
    algorithm: str
    batch: int = 4
    hw: int = 32
    width: int = 32
    m: int = 4

    @property
    def case_name(self) -> str:
        return f"{self.model}/{self.algorithm}"


@dataclass(frozen=True)
class BenchProfile:
    """One named measurement configuration.

    ``hw_cap`` / ``chan_cap`` / ``batch_cap`` shrink each Table 2 layer
    to a tractable size while keeping its *shape character* (the layer
    set still spans hw 7..32 and the full channel spread up to the cap).
    The caps are part of the emitted metadata: a baseline only gates a
    run with identical scaling.  ``model_cases`` adds whole-network
    compiled-vs-eager measurements on the scaled Table 2 model families.
    ``repeats`` (per layer: the algorithms and their loop references,
    interleaved) and ``model_repeats`` count timed rounds, floored at
    :data:`repro.perf.measured.MIN_ROUNDS`.
    """

    name: str
    layers: tuple
    batch_cap: int = 1
    hw_cap: int = 32
    chan_cap: int = 128
    repeats: int = 3
    m: int = 4
    reference: bool = True
    model_cases: tuple = ()
    model_repeats: int = 3


#: The scaled Table 2 network mix for the full profile: per-layer 'auto'
#: selection on all four families plus single-algorithm VGG cases, so
#: both the planner path and the pure lowino / direct paths are gated.
_FULL_MODEL_CASES = (
    ModelCase("vgg", "auto"),
    ModelCase("resnet", "auto"),
    ModelCase("alexnet", "auto"),
    ModelCase("unet", "auto", batch=2, width=16),
    ModelCase("vgg", "lowino"),
    ModelCase("vgg", "int8_direct"),
)

_QUICK_MODEL_CASES = (
    ModelCase("resnet", "auto", batch=2, hw=16, width=16),
    ModelCase("vgg", "lowino", batch=2, hw=16, width=16),
)

FULL_PROFILE = BenchProfile(
    "full",
    tuple(layer.name for layer in TABLE2_LAYERS),
    model_cases=_FULL_MODEL_CASES,
)
QUICK_PROFILE = BenchProfile(
    "quick",
    tuple(BREAKDOWN_LAYERS),
    hw_cap=16,
    repeats=5,
    model_cases=_QUICK_MODEL_CASES,
    model_repeats=5,
)
PROFILES: Dict[str, BenchProfile] = {"full": FULL_PROFILE, "quick": QUICK_PROFILE}


def scale_layer(layer: LayerConfig, profile: BenchProfile) -> LayerConfig:
    """Cap a Table 2 layer's batch / spatial / channel extents."""
    return replace(
        layer,
        batch=min(layer.batch, profile.batch_cap),
        hw=min(layer.hw, profile.hw_cap),
        c=min(layer.c, profile.chan_cap),
        k=min(layer.k, profile.chan_cap),
    )


def _geomean(values: Iterable[float]) -> Optional[float]:
    vals = [v for v in values if v is not None and v > 0]
    if not vals:
        return None
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def build_case_model(case: ModelCase):
    """Instantiate the (FP32) network for a model case."""
    from ..nn.models import build_alexnet_small, build_resnet_small, build_vgg_small
    from ..nn.unet import build_unet_small

    builders = {
        "vgg": build_vgg_small,
        "resnet": build_resnet_small,
        "alexnet": build_alexnet_small,
        "unet": build_unet_small,
    }
    try:
        builder = builders[case.model]
    except KeyError:
        raise ValueError(
            f"unknown model {case.model!r}; known: {sorted(builders)}"
        ) from None
    return builder(width=case.width)


def run_model_bench(
    profile: BenchProfile = FULL_PROFILE,
    seed: int = SEED,
    backend: Optional[str] = None,
    wisdom=None,
) -> List[dict]:
    """Whole-model compiled-vs-eager measurements (``model_cases``).

    For each case: build the network, quantize it (streaming calibration
    on the bench input), and time ``model(x)`` (eager, layer-by-layer)
    against ``InferenceSession.run(x)`` (compiled, plan-cached, fused
    epilogues) -- the *same prepared engine objects* either way, so the
    ratio is pure execution-architecture.  Each entry also records
    bitwise equality of the two outputs (``exact``) and the session's
    plan-cache counters.

    ``wisdom`` (path / :class:`~repro.tuning.wisdom.WisdomFile`) applies
    tuned per-geometry algorithm choices at lowering time; selection
    swaps the shared engine objects, so the eager reference swaps with
    it and ``exact`` still gates bit-identity.
    """
    from ..nn.quantize import quantize_model
    from .session import InferenceSession

    rng = np.random.default_rng(seed)
    entries: List[dict] = []
    for case in profile.model_cases:
        model = build_case_model(case)
        x = rng.standard_normal((case.batch, 3, case.hw, case.hw))
        if case.algorithm != "fp32":
            quantize_model(model, case.algorithm, m=case.m, calibration_batches=[x])
        session = InferenceSession(
            model, x.shape, collect_timings=False, backend=backend, wisdom=wisdom
        )
        y_compiled = session.run(x)  # warm: builds plans + geometry scratch
        y_eager = model(x)  # warm eager (engines already prepared)
        t = time_interleaved(
            {"eager": lambda: model(x), "compiled": lambda: session.run(x)},
            profile.model_repeats,
        )
        entries.append(
            {
                "name": case.case_name,
                "model": case.model,
                "algorithm": case.algorithm,
                "batch": case.batch,
                "hw": case.hw,
                "width": case.width,
                "m": case.m,
                "eager_s": t["eager"].median_s,
                "eager_iqr_s": t["eager"].iqr_s,
                "compiled_s": t["compiled"].median_s,
                "compiled_iqr_s": t["compiled"].iqr_s,
                "compiled_speedup": t["eager"].median_s / t["compiled"].median_s,
                "exact": bool(np.array_equal(y_eager, y_compiled)),
                "cache_stats": session.cache_stats(),
            }
        )
    return entries


def run_bench(
    profile: BenchProfile = FULL_PROFILE,
    algorithms: Sequence[str] = ALGORITHMS,
    seed: int = SEED,
    engine: Optional[ExecutionEngine] = None,
    models: bool = True,
    backend: Optional[str] = None,
    wisdom=None,
) -> dict:
    """Run the benchmark and return the ``BENCH_runtime.json`` document.

    A private plan cache is used by default so the emitted
    ``cache_stats`` describe exactly this run (per-layer plan misses,
    per-call geometry-scratch hits).  It is sized to hold every plan
    and geometry arena of the full profile at once -- a model's working
    set is resident in steady state, and benchmarking the eviction path
    would just add noise.

    ``backend`` names the fused-stage kernel backend (``"numpy"`` /
    ``"threaded"``; ``None`` = process default).  It is recorded in the
    emitted document but deliberately *not* part of the baseline
    compatibility key -- both backends are bitwise identical, so a
    baseline gates any backend's ratios.
    """
    if engine is None:
        engine = ExecutionEngine(cache=PlanCache(capacity=1024), backend=backend)
    elif backend is not None:
        from .backends import resolve_backend

        engine.backend = resolve_backend(backend)
    rng = np.random.default_rng(seed)
    layer_entries: List[dict] = []
    for name in profile.layers:
        layer_cfg = scale_layer(layer_by_name(name), profile)
        x = layer_cfg.input_tensor(rng, dtype=np.float64)
        w = layer_cfg.filter_tensor(rng, dtype=np.float64)
        runtime_layers = {
            algo: engine.layer(w, algo, m=profile.m, padding=layer_cfg.padding)
            for algo in algorithms
        }
        refs = (
            [algo for algo in REFERENCE_ALGORITHMS if algo in runtime_layers]
            if profile.reference
            else []
        )
        # One interleaved group per layer: both sides of every ratio --
        # algorithm vs fp32_direct, loop reference vs vectorized -- are
        # sampled in the same rounds.  The warm-up call of each engine
        # builds its plan state and geometry scratch.
        candidates = {
            algo: (lambda f=layer: f(x)) for algo, layer in runtime_layers.items()
        }
        for algo in refs:
            ref = runtime_layers[algo].reference
            candidates[f"{algo}/reference"] = lambda ref=ref: ref.reference_forward(x)
        walls = time_interleaved(candidates, profile.repeats)
        base = walls.get("fp32_direct")
        algo_entries = {
            algo: {
                "wall_s": walls[algo].median_s,
                "wall_iqr_s": walls[algo].iqr_s,
                "speedup_vs_fp32_direct": (
                    base.median_s / walls[algo].median_s if base else None
                ),
            }
            for algo in algorithms
        }
        ref_entries = {
            algo: {
                "wall_s": walls[f"{algo}/reference"].median_s,
                "wall_iqr_s": walls[f"{algo}/reference"].iqr_s,
                "vectorized_speedup": (
                    walls[f"{algo}/reference"].median_s / walls[algo].median_s
                ),
            }
            for algo in refs
        }
        layer_entries.append(
            {
                "name": layer_cfg.name,
                "batch": layer_cfg.batch,
                "c": layer_cfg.c,
                "k": layer_cfg.k,
                "hw": layer_cfg.hw,
                "algorithms": algo_entries,
                "reference": ref_entries,
            }
        )
    model_entries = (
        run_model_bench(profile, seed=seed, backend=backend, wisdom=wisdom)
        if models
        else []
    )
    return {
        "schema": SCHEMA_VERSION,
        "profile": asdict(profile),
        "backend": engine.backend.name,
        "wisdom": wisdom is not None,
        "seed": seed,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "layers": layer_entries,
        "models": model_entries,
        "summary": _summarize(layer_entries, algorithms, model_entries),
        "cache_stats": engine.cache.stats_dict(),
    }


def _summarize(
    layer_entries: List[dict],
    algorithms: Sequence[str],
    model_entries: Sequence[dict] = (),
) -> dict:
    speedups = {
        algo: _geomean(
            e["algorithms"][algo]["speedup_vs_fp32_direct"] for e in layer_entries
        )
        for algo in algorithms
    }
    reference = {}
    for algo in REFERENCE_ALGORITHMS:
        ratios = [
            e["reference"][algo]["vectorized_speedup"]
            for e in layer_entries
            if algo in e.get("reference", {})
        ]
        if ratios:
            reference[algo] = {
                "geomean": _geomean(ratios),
                "min": min(ratios),
                "max": max(ratios),
            }
    summary = {"speedup_vs_fp32_direct": speedups, "reference_speedup": reference}
    ratios = [e["compiled_speedup"] for e in model_entries]
    if ratios:
        summary["model_compiled_vs_eager"] = {
            "geomean": _geomean(ratios),
            "min": min(ratios),
            "max": max(ratios),
        }
    return summary


def check_regression(current: dict, baseline: dict, gate: float = 0.25) -> List[str]:
    """Ratio-metric regression gate: current vs checked-in baseline.

    Only *relative* metrics are compared (speedup-vs-fp32_direct
    geomeans, loop-reference ratios) -- never absolute wall-clock, which
    varies across hosts.  A metric regresses when it drops more than
    ``gate`` (fraction) below the baseline value.  Returns a list of
    human-readable violations; empty means PASS.
    """
    violations: List[str] = []
    # Profile fields that change what is measured; repeats and the
    # reference switch only change how well.
    mismatched = config_mismatch(
        current.get("profile", {}),
        baseline.get("profile", {}),
        ("name", "layers", "batch_cap", "hw_cap", "chan_cap", "m", "model_cases"),
    )
    if mismatched:
        return [
            "baseline incompatible with this run (profile fields differ: "
            + ", ".join(mismatched)
            + "); regenerate it with --update-baseline"
        ]
    floor = 1.0 - gate
    cur_sum, base_sum = current["summary"], baseline["summary"]
    for algo, base_val in base_sum.get("speedup_vs_fp32_direct", {}).items():
        cur_val = cur_sum.get("speedup_vs_fp32_direct", {}).get(algo)
        if base_val and cur_val is not None and cur_val < base_val * floor:
            violations.append(
                f"summary speedup_vs_fp32_direct[{algo}]: "
                f"{cur_val:.2f}x < {floor:.2f} * baseline {base_val:.2f}x"
            )
    for algo, base_entry in base_sum.get("reference_speedup", {}).items():
        cur_entry = cur_sum.get("reference_speedup", {}).get(algo)
        if cur_entry and base_entry.get("geomean"):
            if cur_entry["geomean"] < base_entry["geomean"] * floor:
                violations.append(
                    f"summary reference_speedup[{algo}].geomean: "
                    f"{cur_entry['geomean']:.2f}x < {floor:.2f} * "
                    f"baseline {base_entry['geomean']:.2f}x"
                )
    base_layers = {e["name"]: e for e in baseline.get("layers", [])}
    for entry in current.get("layers", []):
        base_entry = base_layers.get(entry["name"])
        if base_entry is None:
            continue
        base_ref = base_entry.get("reference", {}).get("lowino")
        cur_ref = entry.get("reference", {}).get("lowino")
        if base_ref and cur_ref:
            if cur_ref["vectorized_speedup"] < base_ref["vectorized_speedup"] * floor:
                violations.append(
                    f"{entry['name']}: lowino vectorized_speedup "
                    f"{cur_ref['vectorized_speedup']:.2f}x < {floor:.2f} * "
                    f"baseline {base_ref['vectorized_speedup']:.2f}x"
                )
    # Model-level gates: the compiled-vs-eager ratio (host-independent,
    # both paths timed in the same process) and the bitwise-equality
    # invariant, which must never break regardless of host.
    base_model = base_sum.get("model_compiled_vs_eager")
    cur_model = cur_sum.get("model_compiled_vs_eager")
    if base_model and cur_model and base_model.get("geomean"):
        if cur_model["geomean"] < base_model["geomean"] * floor:
            violations.append(
                f"summary model_compiled_vs_eager.geomean: "
                f"{cur_model['geomean']:.2f}x < {floor:.2f} * "
                f"baseline {base_model['geomean']:.2f}x"
            )
    base_cases = {e["name"]: e for e in baseline.get("models", [])}
    for entry in current.get("models", []):
        if not entry["exact"]:
            violations.append(
                f"model {entry['name']}: compiled output is not bit-identical "
                f"to the eager model"
            )
        base_entry = base_cases.get(entry["name"])
        if base_entry is None:
            continue
        if entry["compiled_speedup"] < base_entry["compiled_speedup"] * floor:
            violations.append(
                f"model {entry['name']}: compiled_speedup "
                f"{entry['compiled_speedup']:.2f}x < {floor:.2f} * "
                f"baseline {base_entry['compiled_speedup']:.2f}x"
            )
    return violations


def format_bench(doc: dict) -> str:
    """Human-readable table for one benchmark document."""
    algorithms = list(doc["summary"]["speedup_vs_fp32_direct"])
    lines = []
    prof = doc["profile"]
    lines.append(
        f"Runtime benchmark -- profile={prof['name']} m={prof['m']} "
        f"caps(batch={prof['batch_cap']}, hw={prof['hw_cap']}, chan={prof['chan_cap']}) "
        f"median of {max(prof['repeats'], MIN_ROUNDS)} rounds"
    )
    header = f"{'layer':14s} {'b':>2s} {'c':>4s} {'k':>4s} {'hw':>3s}"
    for algo in algorithms:
        header += f" {algo[:12]:>13s}"
    header += f" {'lowino ref':>11s}"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in doc["layers"]:
        row = (
            f"{entry['name']:14s} {entry['batch']:2d} {entry['c']:4d} "
            f"{entry['k']:4d} {entry['hw']:3d}"
        )
        for algo in algorithms:
            cell = entry["algorithms"][algo]
            row += f" {cell['wall_s'] * 1e3:8.2f}ms"
            sp = cell["speedup_vs_fp32_direct"]
            row += f"/{sp:4.1f}" if sp is not None else "/  --"
        ref = entry.get("reference", {}).get("lowino")
        row += f" {ref['vectorized_speedup']:10.1f}x" if ref else f" {'--':>11s}"
        lines.append(row)
    lines.append("")
    lines.append("geomean speedup vs fp32_direct: " + "  ".join(
        f"{algo}={sp:.2f}x" if sp is not None else f"{algo}=--"
        for algo, sp in doc["summary"]["speedup_vs_fp32_direct"].items()
    ))
    for algo, entry in doc["summary"].get("reference_speedup", {}).items():
        lines.append(
            f"vectorized vs loop reference [{algo}]: geomean {entry['geomean']:.1f}x "
            f"(min {entry['min']:.1f}x, max {entry['max']:.1f}x)"
        )
    if doc.get("models"):
        lines.append("")
        lines.append(
            f"{'model case':22s} {'b':>2s} {'hw':>3s} {'w':>3s} "
            f"{'eager':>10s} {'compiled':>10s} {'speedup':>8s} {'exact':>6s}"
        )
        for entry in doc["models"]:
            lines.append(
                f"{entry['name']:22s} {entry['batch']:2d} {entry['hw']:3d} "
                f"{entry['width']:3d} {entry['eager_s'] * 1e3:8.2f}ms "
                f"{entry['compiled_s'] * 1e3:8.2f}ms "
                f"{entry['compiled_speedup']:7.2f}x {'yes' if entry['exact'] else 'NO':>6s}"
            )
        model_sum = doc["summary"].get("model_compiled_vs_eager")
        if model_sum:
            lines.append(
                f"model compiled vs eager: geomean {model_sum['geomean']:.2f}x "
                f"(min {model_sum['min']:.2f}x, max {model_sum['max']:.2f}x)"
            )
    return "\n".join(lines)

