"""Shared pieces of the benchmark: workloads, seeded inputs, set-up,
output checks, statistics and the result document.

Everything here drives the program through its public API only:
``build_*_small``, ``quantize_model``, ``InferenceSession``,
``Server.submit`` and a ``KernelBackend`` instance passed as
``backend=``.  The program receives only NumPy arrays generated here.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
from scipy.ndimage import uniform_filter

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Independent random streams of one run, in spawn order.
STREAMS = ("calibration", "evaluation", "pool", "arrivals", "sizes")

HW = 32
CHANNELS = 3
#: Images per offline call and per session input shape.
BATCH = 8
#: Winograd output tile of every LoWino conv: F(4x4, 3x3).
TILE_M = 4
#: Offline: distinct batches cycled by the closed-loop caller.
POOL_BATCHES = 4
#: Serve: distinct payloads per request size.
PAYLOADS_PER_SIZE = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``BENCHMARK.json`` for why each exists)."""

    name: str
    model: str  # "vgg" | "resnet"
    width: int
    algorithm: str
    #: Per-request latency limit for ``slo_attain``, in reference units
    #: (see ``ReferenceClock``).  Offline: about twice the seed commit's
    #: median call; serve: from due, about 100 ms on a 2-vCPU Xeon.
    slo_ref: float
    serve: bool = False
    #: Serve only: offered requests per second (open loop).
    rate: float = 0.0
    #: Calibration batches (of ``BATCH`` images) streamed through
    #: ``quantize_model``.  LoWino's per-position KL thresholds vary
    #: with the calibration sample; on vgg-lowino 8 batches left
    #: ``top1_agree`` varying by +-0.03 from seed to seed, 24 by +-0.01.
    calib_batches: int = 8
    #: Evaluation set size: ``2 * eval_keep`` seeded candidates, of which
    #: the half with the largest FP32 decision margin is kept (knife-edge
    #: argmaxes measure noise, not quantization -- the same filter as
    #: ``repro.nn.data.make_eval_set``).  Sized per workload so that
    #: ``top1_agree`` varies little from seed to seed.
    eval_keep: int = 128


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "vgg-lowino", "vgg", 64, "lowino", slo_ref=25.0, calib_batches=24, eval_keep=192
        ),
        # resnet_small width 16 takes about 12 ms per image, so 10 req/s
        # of 2.15 images on average keeps the worker about 25% busy.  At
        # 60% busy, serve latency quartiles moved by 30-100% between
        # identical runs on a shared 2-core host.
        Workload(
            "serve-resnet-auto", "resnet", 16, "auto", slo_ref=5.0,
            serve=True, rate=10.0, eval_keep=128,
        ),
    )
}

#: Serving configuration of ``serve-resnet-auto``.
SERVE_MAX_BATCH = 8
SERVE_MAX_DELAY_MS = 2.0
REQUEST_SIZES = (1, 2, 3, 4)
#: Share of requests of each size.  Latency rises with request size, so
#: each size forms its own latency cluster; the cumulative shares (0.35,
#: 0.65, 0.85) keep p50 and p75 inside a cluster.  With an equal mix,
#: p50 and p75 sat exactly on cluster edges and jumped from seed to seed.
REQUEST_SHARES = (0.35, 0.30, 0.20, 0.15)
#: Generator lateness (p99) above which a serve run is flagged invalid.
LAG_LIMIT_MS = 20.0

#: Set-up is repeated while the cumulative set-up time stays below this
#: many seconds (at most ``SETUP_MAX_REPEATS`` times, at least once).
SETUP_BUDGET_S = 5.0
SETUP_MAX_REPEATS = 5


# -- seeded inputs ------------------------------------------------------
def seeded_streams(seed: int, workload: str) -> Dict[str, np.random.Generator]:
    """One generator per input stream, all derived from ``seed``."""
    root = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return {
        name: np.random.default_rng(child)
        for name, child in zip(STREAMS, root.spawn(len(STREAMS)))
    }


def make_images(rng: np.random.Generator, n: int) -> np.ndarray:
    """Spatially smoothed unit-variance NCHW images (natural-image-like
    correlation; convolutions behave differently on white noise)."""
    x = rng.standard_normal((n, CHANNELS, HW, HW))
    x = uniform_filter(x, size=(1, 1, 3, 3), mode="wrap")
    x /= x.std(axis=(1, 2, 3), keepdims=True)
    return x


@dataclass
class Inputs:
    """Every array and schedule one run feeds the program."""

    calibration: List[np.ndarray]
    #: Evaluation candidates (disjoint from calibration and the pool).
    evaluation: np.ndarray
    #: Offline: the cycled batches.  Serve: the request payloads.
    pool: List[np.ndarray]
    #: Serve: arrival offsets (s) and payload index per request.
    arrivals: np.ndarray
    payload_index: np.ndarray
    digest: str


def size_mix(n: int) -> np.ndarray:
    """Size indices of ``n`` requests in ``REQUEST_SHARES`` proportions
    (exact counts, largest remainders), in size order."""
    exact = np.asarray(REQUEST_SHARES) * n
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[: n - counts.sum()]:
        counts[i] += 1
    return np.repeat(np.arange(len(REQUEST_SIZES)), counts)


def make_inputs(wl: Workload, seed: int, seconds: float) -> Inputs:
    rng = seeded_streams(seed, wl.name)
    calibration = [make_images(rng["calibration"], BATCH) for _ in range(wl.calib_batches)]
    evaluation = make_images(rng["evaluation"], 2 * wl.eval_keep)
    if wl.serve:
        pool = [
            make_images(rng["pool"], size)
            for size in REQUEST_SIZES
            for _ in range(PAYLOADS_PER_SIZE)
        ]
        # Poisson arrivals conditioned on their count (sorted uniform
        # offsets), and request sizes as a seeded shuffle of a fixed
        # mix: the offered load is identical for every seed, only its
        # timing and order vary.
        n = max(len(REQUEST_SIZES), int(round(wl.rate * seconds)))
        arrivals = np.sort(rng["arrivals"].uniform(0.0, seconds, size=n))
        sizes = size_mix(n)
        rng["sizes"].shuffle(sizes)
        which = rng["sizes"].integers(0, PAYLOADS_PER_SIZE, size=n)
        payload_index = sizes * PAYLOADS_PER_SIZE + which
    else:
        pool = [make_images(rng["pool"], BATCH) for _ in range(POOL_BATCHES)]
        arrivals = np.zeros(0)
        payload_index = np.zeros(0, dtype=np.int64)
    h = hashlib.sha256()
    for arr in (*calibration, evaluation, *pool, arrivals, payload_index):
        h.update(np.ascontiguousarray(arr).tobytes())
    return Inputs(calibration, evaluation, pool, arrivals, payload_index, h.hexdigest()[:16])


# -- host-speed reference -------------------------------------------------
#: Reference samples a timing is divided by: the median of the samples
#: nearest to it in time.
REF_NEAREST = 5


class ReferenceClock:
    """Times a fixed NumPy kernel of the benchmark's own -- never the
    program's code, so no change to the program moves it -- next to the
    program's calls.

    On a small shared host the speed of a vCPU moves by up to 50% for
    seconds to minutes at a time (on a 2-vCPU Xeon VM the same vgg-lowino
    call took 150 ms for minutes, then 230 ms).  No run length averages
    that out, so the end-to-end timings are reported in units of this
    kernel's time measured at the same moment (unit ``ref``, 15-20 ms on
    that host).  There, over ten runs, the quartile spread of the median
    vgg-lowino call was 14% in ms and 8% in ``ref``.  The raw times are
    printed and recorded too.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # A batched float32 GEMM and a streaming pass over 8 MiB: both
        # kinds of work the program's kernels do.
        self._a = rng.standard_normal((36, 256, 64)).astype(np.float32)
        self._b = rng.standard_normal((36, 64, 64)).astype(np.float32)
        self._c = np.empty((36, 256, 64), dtype=np.float32)
        self._x = rng.standard_normal(1 << 20)
        self._y = np.empty_like(self._x)
        #: Midpoint (perf_counter seconds) and duration of every sample.
        self.at: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns and records its seconds."""
        t0 = time.perf_counter()
        for _ in range(4):
            np.matmul(self._a, self._b, out=self._c)
            np.multiply(self._x, 1.5, out=self._y)
            np.add(self._y, self._x, out=self._y)
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)
        return t1 - t0

    def near(self, t: float) -> float:
        """Reference seconds at time ``t``: the median of the
        ``REF_NEAREST`` samples nearest to it."""
        at = np.asarray(self.at)
        nearest = np.argsort(np.abs(at - t), kind="stable")[:REF_NEAREST]
        return float(np.median(np.asarray(self.seconds)[nearest]))


# -- program set-up -----------------------------------------------------
def build_model(wl: Workload):
    from repro.nn import build_resnet_small, build_vgg_small

    builder = {"vgg": build_vgg_small, "resnet": build_resnet_small}[wl.model]
    return builder(width=wl.width)


def quantize(wl: Workload, model, inputs: Inputs) -> None:
    from repro.nn import quantize_model

    quantize_model(
        model, wl.algorithm, m=TILE_M, calibration_batches=iter(inputs.calibration)
    )


SESSION_SHAPE = (BATCH, CHANNELS, HW, HW)


# -- checks and statistics ---------------------------------------------
def bitwise_equal(a, b) -> bool:
    """True when ``a`` and ``b`` hold the same bits (shape, dtype, values)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``nan`` for an empty sample)."""
    if not len(values):
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eval_selection(fp32_logits: np.ndarray, keep: int):
    """``(kept indices, centre)``: the ``keep`` candidates with the
    largest centred FP32 top-1 margin, in candidate order.

    Logits are centred on the FP32 mean logit: a random network's logits
    share a large input-independent direction that would otherwise
    decide every argmax and dominate the signal power.
    """
    center = fp32_logits.mean(axis=0)
    part = np.partition(fp32_logits - center, -2, axis=1)
    margin = part[:, -1] - part[:, -2]
    kept = np.sort(np.argsort(margin, kind="stable")[::-1][:keep])
    return kept, center


def accuracy(fp32_logits: np.ndarray, q_logits: np.ndarray, center: np.ndarray):
    """``(top1_agree, logit_snr_db)`` of quantized vs FP32 logits.

    The argmax compares logits centred on ``center`` (uncentred, every
    input lands in one class and agreement is trivially 1).  The SNR is
    of the logits as the model returns them.
    """
    agree = float(np.mean(
        np.argmax(fp32_logits - center, axis=1) == np.argmax(q_logits - center, axis=1)
    ))
    noise = float(np.sum((q_logits - fp32_logits) ** 2))
    signal = float(np.sum(fp32_logits**2))
    snr = 10.0 * math.log10(signal / noise) if noise > 0 else float("inf")
    return agree, snr


# -- result document ------------------------------------------------------
def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def result_document(
    spec: dict, trace: bool, values: Dict[str, float], attempted: int, failed: int
) -> dict:
    """The final JSON line: exactly the spec's metrics for this mode."""
    section = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in section]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing={missing} extra={extra}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section
    }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def write_record(name: str, doc: dict) -> Path:
    """Write a run record under ``.bench_out`` (inside the checkout)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    return path
