"""qkdsim benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep_twoway --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; qkdsim is imported from ./src.  Each run
starts fresh interpreters, one at a time (one process and one thread of
load): several set-up-only processes for setup_s, then one worker that
runs the workload's ops in a closed loop for --seconds (or, with
--trace 1, a fixed number of op cycles untraced and then traced).  Every
op's reports are checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer
metrics.  Scratch files live under .perfbench_out/ and are removed; the
result record and the trace spans are kept there.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_SAMPLES = 10
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _git_commit() -> str:
    """HEAD of ROOT's git checkout, read without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its setup time (start to ``ready``) and the rest of its stdout."""
    cmd = [sys.executable, str(WORKER), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    return setup, rest


def _percentile(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(times)))
    return sorted(times)[rank - 1], len(times) - rank


def run_workload(name: str, seed: int, seconds: float, trace: int, tmp: Path,
                 spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--src", str(SRC), "--tmp", str(tmp), "--workload", name, "--seed", str(seed)]
    setups = [_spawn([*common, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    setup, stdout = _spawn([*common, "--seconds", repr(seconds), "--trace", str(trace),
                            "--spans", str(spans)], deadline)
    setups.append(setup)
    report = json.loads(stdout.strip().splitlines()[-1])

    ops = report["ops"]
    times = [op["s"] for op in ops]
    failed = sum(1 for op in ops if not op["ok"])
    workload = WORKLOADS[name]
    tail, beyond = _percentile(times, workload.tail_pct)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": sum(op["rounds"] for op in ops) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    values = report["layers"] if trace else end_to_end
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": {
            "fail_ratio": failed / len(ops),
            "tail_percentile": workload.tail_pct,
            "ops_beyond_tail": beyond,
            "setup_samples_s": setups,
            "failures": [op for op in ops if not op["ok"]][:5],
            "ops": ops,
        },
        "meta": {
            "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
            "trace": trace, "commit": _git_commit(), "python": report["python"],
            "numpy": report["numpy"], "nproc": os.cpu_count(),
            "platform": platform.platform(), "params": workload.params,
            "op_params": report["op_params"],
            "spans": str(spans.relative_to(ROOT)) if trace else None,
        },
    }


def _print_human(result: dict) -> None:
    meta, detail = result["meta"], result["detail"]
    print(f"== {meta['workload']} seed={meta['seed']} seconds={meta['seconds']} "
          f"trace={meta['trace']}")
    print(f"   commit={meta['commit']} python={meta['python']} numpy={meta['numpy']} "
          f"nproc={meta['nproc']}")
    print(f"   params={json.dumps(meta['params'])}")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:<22.6g} {metric['unit']}")
    print(f"   {'fail_ratio':34s} {detail['fail_ratio']:<22.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    if not meta["trace"]:
        print(f"   op_s_tail is p{detail['tail_percentile']:g} of {result['attempted']} ops "
              f"({detail['ops_beyond_tail']} beyond)")
    for failure in detail["failures"]:
        print(f"   FAILED: {failure.get('error', '').strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "qkdsim" / "__init__.py").is_file():
        print(f"benchmark: no qkdsim sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, tmp, spec)
            record = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=1) + "\n")
            _print_human(result)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
