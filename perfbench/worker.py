"""One benchmark process: set up a workload, then run and check its ops.

Started by run.py in a fresh interpreter with the BLAS/OpenMP thread
variables set to 1.  It prints ``ready`` as soon as qkdsim is imported
and the workload inputs are written (run.py timestamps that line for
setup_s), then, unless ``--setup-only``, runs the ops and prints one JSON
line with the per-op records and, for a traced run, the layer metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

import tracing
from workloads import WORKLOADS


def _import_qkdsim(src: Path):
    sys.path.insert(0, str(src))
    from qkdsim.harness import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qkdsim imported from {cli.__file__}, not from {src}")
    return cli


def _run_op(cli, op, call) -> dict:
    """Run one op (timed), then check its outputs (untimed)."""
    gc.collect()
    sink = io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = call(op.argv)
    except Exception:  # an op that raises is a failed op, not a benchmark error
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            op.check(op, rc)
        except Exception as exc:  # a report that cannot be checked fails the op
            error = f"{type(exc).__name__}: {exc}; output: {sink.getvalue()[-300:]!r}"
    record = {"s": elapsed, "rounds": op.rounds, "rc": rc, "ok": error is None}
    if error is not None:
        record["error"] = error
        record["argv"] = op.argv
    shutil.rmtree(op.out_dir, ignore_errors=True)
    return record


def _timed_loop(cli, ops, seconds: float) -> list[dict]:
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(_run_op(cli, ops[len(records) % len(ops)], cli.main))
    return records


def _traced_run(cli, ops, cycles: int, spans_path: Path) -> tuple[list[dict], dict]:
    """Run each op untraced and then traced, and return the traced records
    and the layer metrics.  Interleaving the two keeps drift in machine
    speed out of the overhead estimate."""
    tracer = tracing.Tracer()
    main = tracer.span("op", cli.main)
    records = []
    untraced = traced = 0.0
    for i, op in enumerate(ops * cycles):
        untraced += _run_op(cli, op, cli.main)["s"]
        tracing.install(tracer)
        tracer.op_id = i
        try:
            records.append(_run_op(cli, op, main))
        finally:
            tracer.restore()
        traced += records[-1]["s"]
    tracer.write_spans(spans_path)
    layers = tracing.layer_metrics(tracer)
    layers["trace.untraced_s"] = untraced
    layers["trace.overhead_s"] = traced - untraced
    return records, layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_qkdsim(args.src)
    workload = WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.tmp))
    ops = workload.build(args.seed, tmp)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Objects alive after set-up are never garbage; keep collections short.
    gc.collect()
    gc.freeze()
    if args.trace:
        records, layers = _traced_run(cli, ops, workload.trace_cycles, args.spans)
    else:
        records, layers = _timed_loop(cli, ops, args.seconds), None
    print(json.dumps({
        "ops": records,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "op_params": [op.params for op in ops],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
