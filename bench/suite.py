"""Run every workload several times, one process per run, and summarize.

    python3 bench/suite.py                      # each workload once, seed 1
    python3 bench/suite.py --runs 10 --out bench/results/reference.json
    python3 bench/suite.py --trace 1            # per-layer metrics

Runs go one after another, never in parallel, each with the next seed.  For
every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median.  With ``BENCHMARK.json`` at the
root, a spread at or above a third of the metric's bound is marked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oscillation_study", "event_archive", "pmu_stream")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, process_s=elapsed)
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
    return out


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write all results as JSON")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    seconds = args.seconds or spec.get("run_seconds", 20)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    report = {"environment": environment(), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed + i, seconds, args.trace) for i in range(args.runs)]
        summary = summarize(runs, bounds)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "failed_shares": shares}
        print(f"\n{workload}: {args.runs} runs, correct={all(r['correct'] for r in runs)}, "
              f"attempted={[r['attempted'] for r in runs]}, failed={[r['failed'] for r in runs]}")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and not s["spread"] < s["bound"] / 3:
                flag = f"  <-- spread >= bound/3 ({s['bound']})"
            print(f"  {name:40s} {s['median']:14.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
