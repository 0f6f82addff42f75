"""``repro tune``: sweep a model's conv geometries through the
:class:`~repro.tuning.selector.AlgorithmSelector` into a wisdom file,
and emit the ``benchmarks/BENCH_tuning.json`` document.

The document's headline metric is the **selected-vs-static ratio** per
geometry: measured seconds of the analytic planner's choice divided by
measured seconds of the selector's choice, on the same host, same
seeded inputs.  Because the static candidate is always in the measured
set, this ratio is >= 1.0 by construction -- selection never regresses
a shape -- and the gate enforces exactly that (plus a generous
baseline-relative tolerance on the geomean, in the bench-smoke style:
ratios only, never absolute wall-clock).

Determinism is part of the document: after the sweep every geometry is
re-selected out of the wisdom file (``measure=False``) and must
reproduce the same choice; ``doc["deterministic"]`` gates it.  Running
``repro tune`` twice against the same wisdom file therefore yields
identical selections -- the second run never measures at all.
"""

from __future__ import annotations

import platform
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..perf.measured import config_mismatch
from .selector import AlgorithmSelector, model_geometries
from .wisdom import WisdomFile

__all__ = [
    "TuneBenchConfig",
    "run_tune_bench",
    "check_tuning_gate",
    "format_tune_bench",
    "DEFAULT_BENCH_PATH",
]

SCHEMA_VERSION = 1
DEFAULT_BENCH_PATH = "benchmarks/BENCH_tuning.json"


@dataclass(frozen=True)
class TuneBenchConfig:
    """One ``repro tune`` sweep configuration.

    ``family`` selects the candidate set per geometry
    (:data:`~repro.tuning.selector.FAMILIES`): ``"quantized"`` sweeps
    the INT8 pipelines, ``"fp32"`` sweeps fp32_winograd@m vs
    fp32_direct under the family-qualified wisdom keys.
    """

    model: str = "resnet"
    width: int = 8
    hw: int = 8
    batch: int = 2
    repeats: int = 3
    seed: int = 2021
    backend: str = "numpy"
    family: str = "quantized"


def run_tune_bench(
    cfg: TuneBenchConfig = TuneBenchConfig(),
    wisdom: Optional[WisdomFile | str | Path] = None,
) -> dict:
    """Sweep the model's unique conv geometries into wisdom.

    With ``wisdom=None`` the sweep runs against a throwaway file (pure
    benchmark mode); pass a path to accumulate reusable wisdom.  The
    sweep batches all stores into one read-merge-write
    (:meth:`WisdomFile.batch`), fixing the O(n^2) I/O a per-geometry
    flush would cost.
    """
    from ..runtime.bench import ModelCase, _geomean, build_case_model

    model = build_case_model(
        ModelCase(cfg.model, "auto", batch=cfg.batch, hw=cfg.hw, width=cfg.width)
    )
    input_shape = (cfg.batch, 3, cfg.hw, cfg.hw)

    tmpdir = None
    if wisdom is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-tune-")
        wisdom = Path(tmpdir.name) / "wisdom.json"
    if not isinstance(wisdom, WisdomFile):
        wisdom = WisdomFile(wisdom)
    selector = AlgorithmSelector(
        wisdom=wisdom, backend=cfg.backend, repeats=cfg.repeats, seed=cfg.seed
    )

    # Unique geometries, first-seen order, with every conv path using each.
    unique: Dict[str, dict] = {}
    for path, _conv, geom in model_geometries(model, input_shape):
        key = geom.key(selector.backend_name, family=cfg.family)
        slot = unique.setdefault(key, {"geometry": geom, "paths": []})
        slot["paths"].append(path)

    rows: List[dict] = []
    with wisdom.batch():
        for key, slot in unique.items():
            geom = slot["geometry"]
            res = selector.select(geom, family=cfg.family)
            rows.append(
                {
                    "key": key,
                    "paths": slot["paths"],
                    "batch": geom.batch, "c": geom.c, "h": geom.h, "w": geom.w,
                    "k": geom.k, "r": geom.r, "stride": geom.stride,
                    "padding": geom.padding,
                    "selected": res.label,
                    "static": res.static,
                    "source": res.source,
                    "measured": dict(res.measured),
                    "selected_vs_static": res.static_ratio,
                }
            )

    # Determinism: out of the (now flushed) wisdom, every geometry must
    # re-select to the same choice without measuring.
    deterministic = True
    for row in rows:
        res = selector.select(
            unique[row["key"]]["geometry"], measure=False, family=cfg.family
        )
        if res.source != "wisdom" or res.label != row["selected"]:
            deterministic = False

    ratios = [r["selected_vs_static"] for r in rows]
    doc = {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "backend": selector.backend_name,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "geometries": rows,
        "deterministic": deterministic,
        "summary": {
            "geometries": len(rows),
            "selected_vs_static_geomean": _geomean(ratios),
            "min": min(ratios) if ratios else None,
            "max": max(ratios) if ratios else None,
            "from_wisdom": sum(1 for r in rows if r["source"] == "wisdom"),
            "measured": sum(1 for r in rows if r["source"] == "measured"),
            "switched": sum(1 for r in rows if r["selected"] != r["static"]),
        },
    }
    if tmpdir is not None:
        tmpdir.cleanup()
    return doc


def check_tuning_gate(
    current: dict,
    baseline: Optional[dict] = None,
    gate: float = 0.25,
    min_ratio: float = 0.999,
) -> List[str]:
    """Gate the tuning document; empty list means PASS.

    Hard, host-independent gates: determinism out of wisdom, and the
    per-geometry selected-vs-static ratio floor (selection never
    regresses a shape -- by construction ~1.0 even on a noisy host,
    ``min_ratio`` only absorbs float round-trip).  The baseline gate is
    the generous bench-smoke style: the geomean ratio must not drop
    more than ``gate`` below the committed value.
    """
    violations: List[str] = []
    if not current.get("deterministic", False):
        violations.append(
            "selection is not deterministic given identical wisdom "
            "(re-select out of the wisdom file changed a choice)"
        )
    for row in current.get("geometries", []):
        ratio = row.get("selected_vs_static")
        if ratio is not None and ratio < min_ratio:
            violations.append(
                f"{row['key']}: selected {row['selected']} is slower than "
                f"static {row['static']} (ratio {ratio:.3f} < {min_ratio})"
            )
    geomean = current.get("summary", {}).get("selected_vs_static_geomean")
    if geomean is not None and geomean < min_ratio:
        violations.append(
            f"selected-vs-static geomean {geomean:.3f} < {min_ratio}"
        )
    if baseline is None:
        return violations
    mismatched = config_mismatch(current.get("config", {}), baseline.get("config", {}))
    if mismatched:
        violations.append(
            "baseline incompatible with this run (config fields differ: "
            + ", ".join(mismatched)
            + "); regenerate it with --update-baseline"
        )
        return violations
    base_geomean = baseline.get("summary", {}).get("selected_vs_static_geomean")
    if geomean is not None and base_geomean:
        floor = base_geomean * (1.0 - gate)
        if geomean < floor:
            violations.append(
                f"selected-vs-static geomean {geomean:.3f} < "
                f"{1.0 - gate:.2f} * baseline {base_geomean:.3f}"
            )
    return violations


def format_tune_bench(doc: dict) -> str:
    """Human-readable table for one tuning document."""
    cfg = doc["config"]
    lines = [
        f"Algorithm selection sweep -- model={cfg['model']} "
        f"batch={cfg['batch']} hw={cfg['hw']} width={cfg['width']} "
        f"backend={doc['backend']} repeats={cfg['repeats']} seed={cfg['seed']} "
        f"family={cfg.get('family', 'quantized')}",
        f"{'geometry':34s} {'convs':>5s} {'static':>16s} {'selected':>16s} "
        f"{'ratio':>6s} {'source':>8s}",
    ]
    lines.append("-" * len(lines[-1]))
    for row in doc["geometries"]:
        geo = (
            f"b{row['batch']} c{row['c']} {row['h']}x{row['w']} k{row['k']} "
            f"s{row['stride']}"
        )
        lines.append(
            f"{geo:34s} {len(row['paths']):5d} {row['static']:>16s} "
            f"{row['selected']:>16s} {row['selected_vs_static']:6.2f} "
            f"{row['source']:>8s}"
        )
    s = doc["summary"]
    lines.append("")
    lines.append(
        f"selected vs static: geomean {s['selected_vs_static_geomean']:.3f}x "
        f"(min {s['min']:.3f}x, max {s['max']:.3f}x), "
        f"{s['switched']}/{s['geometries']} switched, "
        f"{s['from_wisdom']} from wisdom, "
        f"deterministic={'yes' if doc['deterministic'] else 'NO'}"
    )
    return "\n".join(lines)
