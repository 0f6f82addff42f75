"""One timing protocol and one document format for every bench surface.

Timing (:func:`time_interleaved`): warm each candidate once, then run at
least :data:`MIN_ROUNDS` rounds, timing every candidate once per round
in a fixed order, so drift on a shared host (a neighbour, frequency
scaling) lands on all candidates instead of whichever ran last.  The
garbage collector is paused only inside each timed call.  Each
candidate reports the median and the quartiles of its samples; every
ratio and gate built on these numbers uses the median.

The paper (Section 5) reports the mean of 100 runs after a warm-up;
this repository reports the median of a few interleaved rounds, because
on a shared host one disturbed sample moves a mean (or a best-of-1) by
orders of magnitude but leaves a median in place.

Documents: :func:`write_json` / :func:`load_json` persist the JSON
documents every ``repro`` bench command emits and gates against, and
:func:`config_mismatch` decides whether a baseline document was
recorded with a comparable configuration.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "MIN_ROUNDS",
    "DocumentError",
    "Timing",
    "config_mismatch",
    "load_json",
    "time_interleaved",
    "write_json",
]

#: Floor on timed rounds: the median of fewer samples is a single sample.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Timing:
    """Wall-clock samples of one candidate, with median and quartiles."""

    median_s: float
    q1_s: float
    q3_s: float
    samples: Tuple[float, ...]

    @classmethod
    def of(cls, samples: Iterable[float]) -> "Timing":
        samples = tuple(float(s) for s in samples)
        q1, median, q3 = np.percentile(samples, (25, 50, 75))
        return cls(float(median), float(q1), float(q3), samples)

    @property
    def iqr_s(self) -> List[float]:
        """``[q1, q3]`` -- the spread recorded beside each median."""
        return [self.q1_s, self.q3_s]


def _timed_call(fn: Callable[[], object]) -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def time_interleaved(
    candidates: Mapping[str, Callable[[], object]],
    repeats: int = MIN_ROUNDS,
    abort: Optional[Callable[[], bool]] = None,
) -> Optional[Dict[str, Timing]]:
    """Time named callables under the shared protocol.

    Every candidate is called once untimed (warm-up), then
    ``max(repeats, MIN_ROUNDS)`` rounds time each candidate once, in
    mapping order.  ``abort`` is polled before every call, outside the
    timed region; when it returns true the measurement stops and None is
    returned, so nothing half-measured reaches a caller.
    """
    if not candidates:
        raise ValueError("time_interleaved needs at least one candidate")
    samples: Dict[str, List[float]] = {name: [] for name in candidates}
    for fn in candidates.values():
        if abort is not None and abort():
            return None
        fn()
    for _ in range(max(int(repeats), MIN_ROUNDS)):
        for name, fn in candidates.items():
            if abort is not None and abort():
                return None
            samples[name].append(_timed_call(fn))
    return {name: Timing.of(s) for name, s in samples.items()}


# -- bench documents ------------------------------------------------------


class DocumentError(ValueError):
    """A bench document that is missing, unreadable or not a JSON object."""


def write_json(doc: dict, path) -> None:
    """Persist one bench document, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_json(path) -> dict:
    """Read one bench document; any failure raises :class:`DocumentError`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: not a JSON object")
    return doc


def _as_json(value):
    # What a JSON round-trip stores: tuples become lists, numpy scalars
    # become floats -- so a live config compares equal to its persisted
    # copy.
    return json.loads(json.dumps(value, default=float))


def config_mismatch(
    current: dict, baseline: dict, keys: Optional[Iterable[str]] = None
) -> List[str]:
    """``"key: baseline -> current"`` for every field that differs.

    Values are compared after a JSON round-trip.  ``keys=None`` compares
    every key present on either side.  An empty list means the baseline
    was recorded with a comparable configuration.
    """
    if keys is None:
        keys = sorted(set(current) | set(baseline))
    return [
        f"{key}: {baseline.get(key)!r} -> {current.get(key)!r}"
        for key in keys
        if _as_json(current.get(key)) != _as_json(baseline.get(key))
    ]
