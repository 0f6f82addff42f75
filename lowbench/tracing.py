"""Benchmark-side tracing: spans, a delegating kernel backend, and the
instrumentation patches used by the traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer of the program (spans inside ``src/`` are not
this benchmark's business).  They live in memory and are written when
the run ends.  A span is ``(id, name, start, end, parent, request)``;
the parent is the innermost span open on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import namedtuple
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

Span = namedtuple("Span", "id name start end parent request")


class SpanRecorder:
    """In-memory span store; thread-safe under the interpreter lock
    (``list.append`` and ``itertools.count`` are atomic)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, request))

    def add(self, name: str, start: float, end: float, request: Optional[int] = None) -> None:
        """Record a span measured elsewhere (e.g. across threads)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, request))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def as_dicts(self) -> List[dict]:
        return [s._asdict() for s in self.spans]


class NullSpans:
    """Stand-in recorder for untraced runs: spans cost nothing."""

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        yield None


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval
    covered by its children (the union, so overlapping children on
    other threads are not double-subtracted).
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        doc = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        doc["count"] += 1
        doc["total_s"] += s.end - s.start
        doc["self_s"] += (s.end - s.start) - covered
    return out


class TracingBackend:
    """Delegating ``KernelBackend``: spans each fused entry point and
    counts the work it does, computed from the tensors it handles.

    * ``macs``: GEMM multiply-accumulates, ``operand.size * K`` --
      ``T*N*C*K`` for the Winograd pipelines, ``rows*C*r*r*K`` for the
      direct ones (the plan's tile count, channels and positions).
    * ``transform_bytes``: bytes the transform stages read and write --
      input images + GEMM operand for the input stage, accumulators +
      output for the output stage, at their actual dtypes.
    """

    def __init__(self, inner, spans: SpanRecorder) -> None:
        self.inner = inner
        self.spans = spans
        self.name = f"traced-{inner.name}"
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds = {"itq": 0.0, "gemm": 0.0, "deq": 0.0}
            self.calls = 0
            self.macs = 0
            self.transform_bytes = 0

    def _account(self, stage: str, seconds: float, macs: int = 0, nbytes: int = 0) -> None:
        with self._lock:
            self.seconds[stage] += seconds
            self.calls += 1
            self.macs += macs
            self.transform_bytes += nbytes

    def input_transform_quantize(self, engine, call) -> None:
        with self.spans.span("kernel.itq"):
            t0 = time.perf_counter()
            self.inner.input_transform_quantize(engine, call)
            dt = time.perf_counter() - t0
        self._account("itq", dt, nbytes=call.images.nbytes + call.operand.nbytes)

    def gemm_bias(self, engine, call) -> None:
        with self.spans.span("kernel.gemm"):
            t0 = time.perf_counter()
            self.inner.gemm_bias(engine, call)
            dt = time.perf_counter() - t0
        self._account("gemm", dt, macs=int(call.operand.size) * int(call.z.shape[-1]))

    def dequant_output_transform_epilogue(self, engine, call):
        with self.spans.span("kernel.deq"):
            t0 = time.perf_counter()
            out = self.inner.dequant_output_transform_epilogue(engine, call)
            dt = time.perf_counter() - t0
        self._account("deq", dt, nbytes=call.z.nbytes + out.nbytes)
        return out


class TimedSession:
    """Duck-typed session for ``Server.add_model(session=...)``: times
    every ``run`` (the served batches) and delegates everything else.

    ``before_run`` (optional) is called with the batch first -- the
    self-test uses it to stall one batch.
    """

    def __init__(self, session, spans=None, before_run=None) -> None:
        self._session = session
        self._spans = spans if spans is not None else NullSpans()
        self._before_run = before_run
        #: (start, end, images) per run, in execution order.
        self.batches: List[tuple] = []

    def run(self, images):
        with self._spans.span("session.run"):
            t0 = time.perf_counter()
            if self._before_run is not None:
                self._before_run(images)
            out = self._session.run(images)
            t1 = time.perf_counter()
        self.batches.append((t0, t1, int(images.shape[0])))
        return out

    def __getattr__(self, name):
        return getattr(self._session, name)


@contextmanager
def instrument_program(spans: SpanRecorder):
    """Span the planner and KL-search calls made inside ``quantize_model``.

    Both are looked up as module attributes at call time
    (``quantize_model`` imports ``plan_model`` when it plans;
    ``EntropyCalibrator.threshold`` calls the module-level
    ``kl_divergence_threshold``), so replacing the attributes for the
    duration of the traced set-up reaches every call.
    """
    import repro.quant.calibration as calibration
    import repro.tuning.model_planner as planner

    saved = (planner.plan_model, calibration.kl_divergence_threshold)
    planner.plan_model = spans.wrap("plan_model", saved[0])
    calibration.kl_divergence_threshold = spans.wrap("kl_divergence_threshold", saved[1])
    try:
        yield
    finally:
        planner.plan_model, calibration.kl_divergence_threshold = saved
