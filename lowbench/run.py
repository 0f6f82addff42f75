"""Run one benchmark workload and print its result as the last line.

    python3 lowbench/run.py --workload vgg-lowino --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are in units of a fixed reference kernel timed next to the
program's calls (``core.ReferenceClock``), and the wall-clock figures
are printed above the result line.  ``--trace 1`` sets up under spans,
attaches the stage tracer and a delegating kernel backend, and reports
the per-layer metrics.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give sample counts, the input digest and failure
details.  Run records (and, traced, the spans) are written under
``.bench_out/`` in the checkout.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.  BLAS runs on
one thread: on a small shared host, multi-threaded BLAS made identical
runs differ by twice as much.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from core import WORKLOADS, load_spec, make_inputs, result_document, write_record
    from workloads import run_traced, run_untraced

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    inputs = make_inputs(wl, args.seed, args.seconds)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, outcomes, info, spans = run_traced(wl, inputs, args.seconds)
        info["spans_file"] = str(write_record(f"spans-{tag}.json", spans.as_dicts()))
    else:
        values, outcomes, info = run_untraced(wl, inputs, args.seconds)
    doc = result_document(spec, bool(args.trace), values, outcomes.attempted, outcomes.failed)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": inputs.digest,
        "failures": dict(outcomes.failures),
        "first_error": outcomes.first_error,
        "info": info,
        "result": doc,
    }
    write_record(f"run-{tag}.json", record)
    print(f"workload {wl.name} seed {args.seed} inputs digest {inputs.digest}")
    for key, value in info.items():
        if key != "self_times":
            print(f"  {key}: {value}")
    if outcomes.failed:
        print(f"  failures: {dict(outcomes.failures)} first: {outcomes.first_error}")
    for name, metric in doc["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
