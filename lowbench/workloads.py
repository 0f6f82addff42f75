"""Set-up, timed loops and metric assembly for the benchmark workloads.

Untraced runs (``--trace 0``) produce the end-to-end metrics; traced
runs (``--trace 1``) set up once under spans, run the same timed loop
with a ``StageTracer`` and a delegating kernel backend attached, and
produce the per-layer metrics.
"""

from __future__ import annotations

import gc
import queue
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from core import (
    BATCH,
    LAG_LIMIT_MS,
    SERVE_MAX_BATCH,
    SERVE_MAX_DELAY_MS,
    SESSION_SHAPE,
    SETUP_BUDGET_S,
    SETUP_MAX_REPEATS,
    REF_NEAREST,
    Inputs,
    ReferenceClock,
    Workload,
    accuracy,
    bitwise_equal,
    build_model,
    eval_selection,
    peak_rss_mb,
    percentile,
    quantize,
)
from tracing import NullSpans, SpanRecorder, TimedSession, TracingBackend, instrument_program, self_times

MODEL_NAME = "model"
#: How long after the last request's due time the run waits for answers;
#: requests still unresolved then count as timeouts.
DRAIN_TIMEOUT_S = 30.0
#: Serve: the generator samples the reference clock only while no
#: request is in flight and the next one is due at least this much later.
REF_SLACK_S = 0.06


@dataclass
class Outcomes:
    """Attempted and failed operations, failures counted by kind."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    first_error: Optional[str] = None

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, detail: str = "") -> None:
        self.attempted += 1
        self.failures[kind] += 1
        if self.first_error is None:
            self.first_error = f"{kind}: {detail}" if detail else kind

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class SetUp:
    model: object
    session: object
    server: object = None
    served: object = None  # the session object handed to the server
    seconds: float = 0.0

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def set_up(
    wl: Workload,
    inputs: Inputs,
    spans=None,
    tracer=None,
    backend=None,
) -> SetUp:
    """Build, quantize + calibrate, compile, (serve: start the server),
    and make the first warm run.  Everything inside counts as set-up."""
    from repro.runtime import InferenceSession

    sp = spans if spans is not None else NullSpans()
    t0 = time.perf_counter()
    with sp.span("setup"):
        with sp.span("build"):
            model = build_model(wl)
        if spans is not None:
            # The streaming calibration pass calls the top-level
            # forward_capture once per calibration batch.
            model.forward_capture = spans.wrap("forward_capture", model.forward_capture)
        with sp.span("quantize_model"):
            quantize(wl, model, inputs)
        if spans is not None:
            del model.forward_capture
        with sp.span("InferenceSession"):
            session = InferenceSession(
                model, SESSION_SHAPE, tracer=tracer, backend=backend
            )
        result = SetUp(model, session)
        if wl.serve:
            from repro.serve import Server

            with sp.span("server.start"):
                server = Server(
                    max_batch=SERVE_MAX_BATCH,
                    max_delay_ms=SERVE_MAX_DELAY_MS,
                    workers_per_model=1,
                    background_tuner=False,
                )
                result.served = TimedSession(session, spans=spans)
                server.add_model(MODEL_NAME, session=result.served)
                result.server = server
            # Warm every batch size the worker can coalesce, so the timed
            # window sees steady-state plans and scratch.
            warm = np.concatenate(inputs.pool)
            with sp.span("warm"):
                for size in range(1, SERVE_MAX_BATCH + 1):
                    server.infer(MODEL_NAME, warm[:size], timeout=DRAIN_TIMEOUT_S)
        else:
            with sp.span("warm"):
                session.run(inputs.pool[0])
    result.seconds = time.perf_counter() - t0
    return result


def repeated_set_up(wl: Workload, inputs: Inputs):
    """Set up while the cumulative time stays within the set-up budget
    (at least once, at most ``SETUP_MAX_REPEATS`` times); returns the
    last set-up and every set-up's seconds."""
    times: List[float] = []
    while True:
        gc.collect()
        s = set_up(wl, inputs)
        times.append(s.seconds)
        if len(times) >= SETUP_MAX_REPEATS or sum(times) + s.seconds > SETUP_BUDGET_S:
            return s, times
        s.close()
        # Drop the finished set-up before the next one starts, so that
        # peak_rss_mb measures one set-up, not two alive at once.
        s = None


# -- references and accuracy -------------------------------------------------
def references(model, pool: List[np.ndarray]) -> List[np.ndarray]:
    """Eager ``model(x)`` per pool entry, computed before any timing:
    the bitwise reference for every timed output."""
    return [model(x) for x in pool]


def _run_batched(session, images: np.ndarray, batch: int) -> np.ndarray:
    return np.concatenate(
        [session.run(images[i : i + batch]) for i in range(0, images.shape[0], batch)]
    )


def accuracy_metrics(wl: Workload, session, inputs: Inputs) -> Dict[str, float]:
    """``top1_agree`` / ``logit_snr_db`` of the quantized session against
    a fresh FP32 build on the margin-filtered evaluation set."""
    from repro.runtime import InferenceSession

    fp32 = InferenceSession(build_model(wl), SESSION_SHAPE)
    fp32_logits = _run_batched(fp32, inputs.evaluation, BATCH)
    keep, center = eval_selection(fp32_logits, wl.eval_keep)
    q_logits = _run_batched(session, inputs.evaluation[keep], BATCH)
    agree, snr = accuracy(fp32_logits[keep], q_logits, center)
    return {"top1_agree": agree, "logit_snr_db": snr}


# -- offline: one closed-loop caller -----------------------------------------
@dataclass
class LoopResult:
    latencies: List[float]  # seconds per call, every call
    mids: List[float]  # midpoint (perf_counter) of every call
    ok: List[bool]  # per call: answered with the bitwise-correct output
    images: int  # images of correct calls


def closed_loop(
    session, pool, refs, seconds, outcomes: Outcomes, spans=None, clock=None
) -> LoopResult:
    """Cycle the pool through ``session.run`` for ``seconds``; check
    every output bitwise against its eager reference.  Each call is one
    request; traced, it gets a ``session.run`` span with its index.
    With a ``clock``, a reference sample follows every call."""
    sp = spans if spans is not None else NullSpans()
    latencies: List[float] = []
    mids: List[float] = []
    ok: List[bool] = []
    images = 0
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            k = i % len(pool)
            t0 = time.perf_counter()
            try:
                with sp.span("session.run", request=i):
                    y = session.run(pool[k])
            except Exception as exc:  # counted, the loop keeps measuring
                y, error = None, repr(exc)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            mids.append(0.5 * (t0 + t1))
            ok.append(False)
            if y is None:
                outcomes.fail("error", error)
            elif not bitwise_equal(y, refs[k]):
                outcomes.fail("mismatch", f"call {i}, pool batch {k}")
            else:
                outcomes.ok()
                images += pool[k].shape[0]
                ok[-1] = True
            if clock is not None:
                clock.sample()
            i += 1
            if t1 >= deadline:
                break
    finally:
        gc.enable()
    return LoopResult(latencies, mids, ok, images)


# -- serve: one open-loop generator ------------------------------------------
@dataclass
class ServeResult:
    due: np.ndarray
    sent: np.ndarray  # submit time, nan if never sent
    done: np.ndarray  # resolve time, nan if shed/failed
    ok: np.ndarray  # bool: resolved with the bitwise-correct rows
    lag: np.ndarray  # generator lateness per request (s)
    sizes: np.ndarray  # images per request
    images: int  # images of correct requests
    start: float


def open_loop(
    server, inputs: Inputs, refs, outcomes: Outcomes, spans=None, clock=None
) -> ServeResult:
    """Send the seeded schedule open-loop and wait for every answer.

    The generator (this thread) sleeps until each request's due time
    and submits without blocking; a collector thread resolves futures in
    submission order (one worker drains the FIFO queue, so requests
    complete in that order).  Latency is anchored at the due time, so a
    stall also charges the requests it delayed the sending of.

    With a ``clock``, the generator samples it before the schedule
    starts, after every answer is in, and in between whenever no
    request is in flight and the next is due ``REF_SLACK_S`` or more
    later -- so a sample never competes with the worker.
    """
    from repro.serve import ServerOverloaded

    n = len(inputs.arrivals)
    due = np.full(n, np.nan)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    lag = np.zeros(n)
    futures: List[object] = [None] * n
    results: List[object] = [None] * n
    errors: List[Optional[str]] = [None] * n
    handoff: "queue.Queue[Optional[int]]" = queue.Queue()

    def collect() -> None:
        deadline = due[-1] + DRAIN_TIMEOUT_S
        while True:
            i = handoff.get()
            if i is None:
                return
            try:
                results[i] = futures[i].result(timeout=max(0.0, deadline - time.perf_counter()))
            except TimeoutError:
                errors[i] = "timeout"
            except Exception as exc:  # the server failed this request
                errors[i] = f"error: {exc!r}"
            done[i] = time.perf_counter()

    gc.collect()
    if clock is not None:
        for _ in range(REF_NEAREST):
            clock.sample()
    start = time.perf_counter() + 0.05
    due[:] = start + inputs.arrivals
    collector = threading.Thread(target=collect, name="bench-collector", daemon=True)
    collector.start()
    gc.disable()
    last = None  # the last request submitted
    try:
        for i in range(n):
            if clock is not None:
                _sample_when_idle(clock, due[i], None if last is None else futures[last])
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            lag[i] = now - due[i]
            payload = inputs.pool[int(inputs.payload_index[i])]
            try:
                futures[i] = server.submit(MODEL_NAME, payload, timeout=0)
            except ServerOverloaded:
                errors[i] = "shed"
                continue
            finally:
                sent[i] = now
            last = i
            handoff.put(i)
        handoff.put(None)
        collector.join(DRAIN_TIMEOUT_S + 5.0)
        if clock is not None:
            for _ in range(REF_NEAREST):
                clock.sample()
    finally:
        gc.enable()
    if collector.is_alive():
        raise RuntimeError("collector thread did not finish")
    images = 0
    sizes = np.array([inputs.pool[int(k)].shape[0] for k in inputs.payload_index])
    for i in range(n):
        k = int(inputs.payload_index[i])
        if errors[i] is not None:
            kind = errors[i].split(":")[0]
            outcomes.fail(kind, f"request {i}: {errors[i]}")
            done[i] = np.nan
        elif not bitwise_equal(results[i], refs[k]):
            outcomes.fail("mismatch", f"request {i}, payload {k}")
        else:
            outcomes.ok()
            ok[i] = True
            images += inputs.pool[k].shape[0]
        if spans is not None and not np.isnan(done[i]):
            spans.add("serve.request", sent[i], done[i], request=i)
    return ServeResult(due, sent, done, ok, lag, sizes, images, start)


def _sample_when_idle(clock: ReferenceClock, until: float, in_flight) -> None:
    """Take one reference sample once the last request sent (``in_flight``,
    or None) is answered -- with one FIFO worker, so is every earlier
    one -- if ``REF_SLACK_S`` or more then remain before ``until``."""
    if in_flight is not None:
        try:
            in_flight.result(timeout=max(0.0, until - REF_SLACK_S - time.perf_counter()))
        except Exception:  # still running, or failed (the collector counts that)
            pass
        if not in_flight.done():
            return
    if until - time.perf_counter() >= REF_SLACK_S:
        clock.sample()


def serve_end_to_end(
    res: ServeResult, batches, clock: ReferenceClock, slo_ref: float
) -> Dict[str, float]:
    """Serve timings: request latency from due time and worker compute
    per image (the served batches), each divided by the reference time
    at that moment."""
    lat = (res.done - res.due)[res.ok]
    ref = np.array([clock.near(t) for t in res.due[res.ok]])
    compute = sum((end - begin) / clock.near(0.5 * (begin + end)) for begin, end, _ in batches)
    return {
        "time_per_image": compute / max(1, sum(b[2] for b in batches)),
        "latency_p50": percentile(lat / ref, 50),
        "latency_p75": percentile(lat / ref, 75),
        "slo_attain": float(np.sum(lat / ref <= slo_ref)) / len(res.due),
    }


def offline_end_to_end(
    loop: LoopResult, clock: ReferenceClock, slo_ref: float
) -> Dict[str, float]:
    """Offline timings: time per call (one call is one request) and per
    image, each divided by the reference time at that moment."""
    norm = [lat / clock.near(mid) for lat, mid in zip(loop.latencies, loop.mids)]
    return {
        "time_per_image": sum(norm) / (BATCH * len(norm)),
        "latency_p50": percentile(norm, 50),
        "latency_p75": percentile(norm, 75),
        "slo_attain": sum(o and n <= slo_ref for o, n in zip(loop.ok, norm)) / len(norm),
    }


def raw_times(latencies: Sequence[float], images: int, wall: float) -> Dict[str, float]:
    """Wall-clock figures of the same run (printed and recorded, not
    metrics: they move with the host's speed)."""
    return {
        "raw_images_per_s": images / wall,
        "raw_latency_ms_p50": percentile(latencies, 50) * 1e3,
        "raw_latency_ms_p75": percentile(latencies, 75) * 1e3,
    }


def lag_p99_ms(res: ServeResult) -> float:
    sent = ~np.isnan(res.sent)
    return percentile(res.lag[sent], 99) * 1e3


# -- untraced run: end-to-end metrics ------------------------------------------
def run_untraced(wl: Workload, inputs: Inputs, seconds: float):
    outcomes = Outcomes()
    clock = ReferenceClock()
    setup, setup_times = repeated_set_up(wl, inputs)
    info: Dict[str, object] = {"setup_s_each": setup_times}
    try:
        refs = references(setup.model, inputs.pool)
        if wl.serve:
            setup.served.batches.clear()  # drop the warm runs
            res = open_loop(setup.server, inputs, refs, outcomes, clock=clock)
            values = serve_end_to_end(res, setup.served.batches, clock, wl.slo_ref)
            lat = (res.done - res.due)[res.ok]
            info.update(raw_times(lat, res.images, np.nanmax(res.done) - res.start))
            info["requests"] = len(res.due)
            info["lag_ms_p99"] = lag_p99_ms(res)
            info["generator_behind"] = info["lag_ms_p99"] > LAG_LIMIT_MS
            if info["generator_behind"]:
                print(
                    f"warning: load generator fell behind (lag p99 "
                    f"{info['lag_ms_p99']:.1f} ms > {LAG_LIMIT_MS} ms); "
                    "serve latencies of this run are not valid",
                    file=sys.stderr,
                )
        else:
            loop = closed_loop(
                setup.session, inputs.pool, refs, seconds, outcomes, clock=clock
            )
            values = offline_end_to_end(loop, clock, wl.slo_ref)
            info.update(raw_times(loop.latencies, loop.images, sum(loop.latencies)))
            info["calls"] = len(loop.latencies)
        info["ref_ms_p50"] = percentile(clock.seconds, 50) * 1e3
        info["ref_samples"] = len(clock.seconds)
    finally:
        setup.close()
    values.update(accuracy_metrics(wl, setup.session, inputs))
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = peak_rss_mb()
    return values, outcomes, info


# -- traced run: per-layer metrics ---------------------------------------------
ZERO_SERVE = {
    "serve.queue_ms_p50": 0.0,
    "serve.queue_ms_p99": 0.0,
    "serve.compute_ms_p50": 0.0,
    "serve.busy_frac": 0.0,
    "serve.batch_images_mean": 0.0,
    "serve.batches": 0.0,
    "serve.shed": 0.0,
    "serve.errors": 0.0,
    "loadgen.lag_ms_p99": 0.0,
    "loadgen.sent": 0.0,
}


def _queue_waits(res: ServeResult, batches) -> List[float]:
    """Per request: batch start minus send time, mapping requests to the
    served batches in FIFO order by image count (one worker)."""
    order = [i for i in range(len(res.sent)) if not np.isnan(res.done[i])]
    waits: List[float] = []
    j = 0
    for start, _end, n_images in batches:
        while n_images > 0 and j < len(order):
            i = order[j]
            waits.append(start - res.sent[i])
            n_images -= int(res.sizes[i])
            j += 1
    return waits


def _ab_compare(sessions, pool, seconds, outcomes: Outcomes) -> Dict[str, float]:
    """Interleave calls round-robin over ``sessions`` (name -> (session,
    reference list or None)) for ``seconds``; seconds per image each."""
    spent = {name: 0.0 for name in sessions}
    images = {name: 0 for name in sessions}
    for session, _ in sessions.values():
        session.run(pool[0])  # warm: plans and scratch exist before timing
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < 2:
            k = i % len(pool)
            for name, (session, expected) in sessions.items():
                t0 = time.perf_counter()
                y = session.run(pool[k])
                spent[name] += time.perf_counter() - t0
                images[name] += pool[k].shape[0]
                if expected is not None:
                    if bitwise_equal(y, expected[k]):
                        outcomes.ok()
                    else:
                        outcomes.fail("mismatch", f"{name} A/B call {i}")
            i += 1
    finally:
        gc.enable()
    return {name: images[name] / spent[name] for name in sessions}


def run_traced(wl: Workload, inputs: Inputs, seconds: float):
    from repro.obs.tracer import StageTracer
    from repro.runtime import InferenceSession, NumpyKernelBackend

    outcomes = Outcomes()
    spans = SpanRecorder()
    tracer = StageTracer()
    backend = TracingBackend(NumpyKernelBackend(), spans)
    with instrument_program(spans):
        setup = set_up(wl, inputs, spans=spans, tracer=tracer, backend=backend)
    values: Dict[str, float] = {}
    info: Dict[str, object] = {}
    try:
        refs = references(setup.model, inputs.pool)
        setup_spans = self_times(spans.spans)
        values.update(_setup_metrics(setup_spans, setup.session))
        setup.session.reset_stats()  # also resets the stage tracer
        backend.reset()
        window_start = time.perf_counter()
        if wl.serve:
            setup.served.batches.clear()  # drop the warm runs
            res = open_loop(setup.server, inputs, refs, outcomes, spans=spans)
            images = sum(b[2] for b in setup.served.batches)
            runs = len(setup.served.batches)
            values.update(_serve_metrics(res, setup, window_start))
        else:
            loop = closed_loop(
                setup.session, inputs.pool, refs, seconds, outcomes, spans=spans
            )
            runs = len(loop.latencies)
            images = BATCH * runs
            values.update(ZERO_SERVE)
        values.update(_kernel_metrics(backend, tracer, images, runs))
        values.update(_cache_metrics(setup.session))
        agreement = _stage_kernel_agreement(tracer, backend)
        info["stage_vs_kernel"] = agreement
        if abs(agreement - 1.0) > 0.1:
            print(
                f"warning: conv stage sum / kernel sum = {agreement:.3f}",
                file=sys.stderr,
            )
        # Interleaved A/B: untraced session vs the traced one (tracing
        # overhead) vs an FP32 session (the paper's Figure 8 ratio).
        fp32_model = build_model(wl)
        plain = InferenceSession(setup.model, SESSION_SHAPE)
        fp32 = InferenceSession(fp32_model, SESSION_SHAPE)
        batch_pool = _serve_ab_pool(inputs) if wl.serve else inputs.pool
        batch_refs = references(setup.model, batch_pool) if wl.serve else refs
        ips = _ab_compare(
            {
                "plain": (plain, batch_refs),
                "traced": (setup.session, batch_refs),
                "fp32": (fp32, None),
            },
            batch_pool,
            max(1.0, seconds / 2.0),
            outcomes,
        )
        values["trace.overhead_frac"] = 1.0 - ips["traced"] / ips["plain"]
        values["ref.fp32_images_per_s"] = ips["fp32"]
        values["ref.speedup_vs_fp32"] = ips["plain"] / ips["fp32"]
        info["self_times"] = self_times(spans.spans)
    finally:
        setup.close()
    return values, outcomes, info, spans


def _serve_ab_pool(inputs: Inputs) -> List[np.ndarray]:
    """Full batches for the serve workload's A/B: its payloads packed
    into ``BATCH``-image batches."""
    stacked = np.concatenate(inputs.pool)
    n = stacked.shape[0] // BATCH
    return [stacked[i * BATCH : (i + 1) * BATCH] for i in range(n)]


def _setup_metrics(st: Dict[str, Dict[str, float]], session) -> Dict[str, float]:
    def total(name: str) -> float:
        return st.get(name, {}).get("total_s", 0.0)

    algorithms = [
        step.plan.algorithm for step in session.program.steps if step.kind == "conv"
    ]
    return {
        "quantize.s": total("quantize_model"),
        "quantize.observe_s": total("forward_capture"),
        "quantize.kl_s": total("kl_divergence_threshold"),
        "quantize.kl_searches": st.get("kl_divergence_threshold", {}).get("count", 0),
        "planner.s": total("plan_model"),
        "planner.lowino_convs": sum(a == "lowino" for a in algorithms),
        "planner.direct_convs": sum(a == "int8_direct" for a in algorithms),
        "compile.s": total("InferenceSession"),
        "warm.s": total("warm"),
    }


def _kernel_metrics(backend: TracingBackend, tracer, images: int, runs: int) -> Dict[str, float]:
    """Kernel and stage seconds per image over the timed window, plus
    the computed work counters."""
    stages = tracer.stage_totals()
    per = 1.0 / max(1, images)
    gemm_s = backend.seconds["gemm"]
    transform_s = backend.seconds["itq"] + backend.seconds["deq"]
    doc = {
        "kernel.itq_s": backend.seconds["itq"] * per,
        "kernel.gemm_s": gemm_s * per,
        "kernel.deq_s": backend.seconds["deq"] * per,
        "kernel.calls": backend.calls / max(1, runs),
        "gemm.macs": backend.macs * per,
        "gemm.gmacs_per_s": backend.macs / gemm_s / 1e9 if gemm_s else 0.0,
        "transform.bytes": backend.transform_bytes * per,
        "transform.gb_per_s": backend.transform_bytes / transform_s / 1e9 if transform_s else 0.0,
    }
    for stage in ("input_transform", "quantize", "gemm", "output_transform", "epilogue", "op"):
        doc[f"stage.{stage}_s"] = stages.get(stage, 0.0) * per
    return doc


def _stage_kernel_agreement(tracer, backend: TracingBackend) -> float:
    """Conv stage seconds (every stage but ``op``) over kernel seconds."""
    stages = tracer.stage_totals()
    conv = sum(v for k, v in stages.items() if k != "op")
    kernel = sum(backend.seconds.values())
    return conv / kernel if kernel else float("nan")


def _cache_metrics(session) -> Dict[str, float]:
    cache = session.cache_stats()
    scratch = session.scratch_stats()
    lookups = cache["hits"] + cache["misses"]
    return {
        "cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "cache.misses": cache["misses"],
        "cache.bytes": cache["bytes"],
        "scratch.arenas": scratch["arenas"],
        "scratch.bytes": scratch["nbytes"],
        "scratch.waits": scratch["waits"],
    }


def _serve_metrics(res: ServeResult, setup: SetUp, window_start: float) -> Dict[str, float]:
    timed = setup.served.batches
    compute = [end - start for start, end, _ in timed]
    last = np.nanmax(res.done) if np.any(~np.isnan(res.done)) else window_start
    waits = _queue_waits(res, timed)
    stats = setup.server.stats()[MODEL_NAME]
    return {
        "serve.queue_ms_p50": percentile(waits, 50) * 1e3,
        "serve.queue_ms_p99": percentile(waits, 99) * 1e3,
        "serve.compute_ms_p50": percentile(compute, 50) * 1e3,
        "serve.busy_frac": sum(compute) / (last - res.start),
        "serve.batch_images_mean": float(np.mean([b[2] for b in timed])) if timed else 0.0,
        "serve.batches": len(timed),
        "serve.shed": stats["rejected"],
        "serve.errors": stats["errors"],
        "loadgen.lag_ms_p99": lag_p99_ms(res),
        "loadgen.sent": int(np.sum(~np.isnan(res.sent))),
    }
