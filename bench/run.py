"""Benchmark for pmustream: one workload per process.

    python3 bench/run.py --workload pmu_stream --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  After set-up, the workload runs whole rounds while the next
one still fits in ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced and the JSON holds the
per-layer metrics.  Check failures go to standard error and set
``"correct": false``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread of work: keep BLAS from starting a pool of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "pmustream" / "__init__.py").is_file():
        sys.exit(f"error: no pmustream sources under {SRC.name}/ of {ROOT}")
    sys.path.insert(0, str(SRC))
    import pmustream
    if Path(pmustream.__file__).resolve().parent != SRC / "pmustream":
        sys.exit(f"error: pmustream imported from {pmustream.__file__}, not from {SRC}")


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def best_per_report(rounds, algo: str, timing) -> np.ndarray:
    """Per-report minimum of ``timing(stream)`` over every repeat in the run, in ns.

    Streams with the same key push the same reports through the same path,
    so position k of each is the same report.  The host's slow phases can
    only add to a report's time, so the fastest of its repeats is kept.
    """
    repeats = {}
    for r in rounds:
        for s in r.streams[algo]:
            repeats.setdefault(s.key, []).append(np.asarray(timing(s), dtype=float))
    out = []
    for rows in repeats.values():
        n = min(len(row) for row in rows)
        out.append(np.min([row[:n] for row in rows], axis=0))
    return np.concatenate(out)


def best_wall(rounds) -> float:
    """The timed phase with each of its parts at its fastest repeat."""
    return float(np.min([r.pieces for r in rounds], axis=0).sum())


def _latency(s):
    return np.add(s.estimate_ns, s.process_ns)


def end_to_end(setup_s: float, rounds) -> dict:
    from workloads import ALGORITHMS
    metrics = {
        "wall_s": (best_wall(rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    for algo in ALGORITHMS:
        lat_us = best_per_report(rounds, algo, _latency) / 1e3
        metrics[f"{algo}.report_latency_p50_us"] = (_percentile(lat_us, 50), "us")
    return metrics


def per_layer(traced, untraced, setup_tracer) -> dict:
    """Per-layer metrics: medians over the traced rounds, plus one set-up."""
    from workloads import ALGORITHMS
    rounds = untraced + [r for r, _ in traced]
    estimate_p50 = {algo: _percentile(best_per_report(rounds, algo, lambda s: s.estimate_ns),
                                      50) / 1e3 for algo in ALGORITHMS}
    process_p50 = _percentile(np.concatenate(
        [best_per_report(rounds, algo, lambda s: s.process_ns) for algo in ALGORITHMS]), 50) / 1e3
    per_round = []
    for rnd, tracer in traced:
        tot = tracer.totals()
        for name, agg in setup_tracer.totals().items():
            for key, value in agg.items():
                tot[name][key] += value

        def g(name, key="total_s"):
            return float(tot[name][key]) if name in tot else 0.0

        m = {
            "waveform.parse_s": g("waveform.parse_profile") + g("waveform.from_anchors"),
            "waveform.synth_s": g("waveform.synth_three_phase"),
            "waveform.synth_samples": g("waveform.synth_three_phase", "samples"),
            "waveform.eval_reference_s": g("waveform.eval_reference"),
            "waveform.eval_reference_calls": g("waveform.eval_reference", "calls"),
            "waveform.eval_reference_points": g("waveform.eval_reference", "points"),
        }
        for algo in ALGORITHMS:
            span = f"estimators.run_estimator.{algo}"
            batch = g(span, "reports")
            run_s = g(span)
            streams = rnd.streams[algo]
            m[f"estimators.{algo}.run_s"] = run_s
            m[f"estimators.{algo}.us_per_report"] = 1e6 * run_s / batch if batch else 0.0
            m[f"estimators.{algo}.estimate_us_p50"] = estimate_p50[algo]
            m[f"estimators.{algo}.reports"] = batch + sum(s.attempted for s in streams)
            m[f"estimators.{algo}.failed"] = float(sum(len(s.failed) for s in streams))
        frames = g("decimator.decimate_stream", "frames")
        m["decimator.decimate_s"] = g("decimator.decimate_stream")
        m["decimator.us_per_frame"] = 1e6 * m["decimator.decimate_s"] / frames if frames else 0.0
        m["decimator.process_us_p50"] = process_p50
        m["decimator.retained_records"] = frames + sum(
            s.retained for s in rnd.main_streams.values())
        m["decimator.reconstruct_s"] = g("decimator.reconstruct")
        m["decimator.reconstruct_calls"] = g("decimator.reconstruct", "calls")
        m["decimator.reconstruct_points"] = g("decimator.reconstruct", "points")
        for algo in ALGORITHMS:
            kept, total = rnd.adaptive.get(algo, (0, 0))
            m[f"decimator.{algo}.kept"] = float(kept)
            m[f"decimator.{algo}.frames"] = float(total)
        m["metrics.tracking_indices_self_s"] = g("metrics.tracking_indices", "self_s")
        m["metrics.tracking_indices_calls"] = g("metrics.tracking_indices", "calls")
        m["pipeline.run_experiment_s"] = g("pipeline.run_experiment")
        m["pipeline.self_s"] = g("pipeline.run_experiment", "self_s")
        m["pipeline.artifact_bytes"] = float(rnd.artifact_bytes)
        m["pipeline.write_mb_per_s"] = (rnd.artifact_bytes / 1e6 / m["pipeline.self_s"]
                                        if m["pipeline.self_s"] > 0 else 0.0)
        m["cli.self_s"] = g("cli.main", "self_s")
        per_round.append(m)
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    out["trace.overhead_s"] = best_wall([r for r, _ in traced]) - best_wall(untraced)
    return out


# first matching suffix wins
UNITS = {"_mb_per_s": "MB/s", "_s": "s", "_us": "us", "_p50": "us", "us_per_report": "us",
         "us_per_frame": "us", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def import_seconds() -> float:
    """Time a fresh interpreter takes to import pmustream from ``src/``."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import pmustream; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def timed_setup(workload, tracer=None) -> float:
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool):
    """Set up, then run whole rounds while the next one still fits in ``seconds``.

    There are always at least two rounds (one untraced and one traced with
    ``trace``), so that every part of the timed phase has a repeat.
    Set-up is repeated after every round, and a fresh interpreter's import
    is timed there too, so that ``setup_s`` is the fastest of samples spread
    across the run rather than one sample from wherever the run started.
    With ``trace``, rounds alternate untraced and traced, starting untraced.
    """
    from tracing import Tracer
    setup_tracer = Tracer()
    setup_samples = [timed_setup(workload, setup_tracer if trace else None)]
    import_samples = [import_seconds()]
    untraced, traced = [], []
    measured = 0.0
    while True:
        if trace and len(untraced) > len(traced):
            tracer = Tracer()
            tracer.install()
            try:
                rnd = workload.run_round(tracer)
            finally:
                tracer.uninstall()
            traced.append((rnd, tracer))
        else:
            rnd = workload.run_round()
            untraced.append(rnd)
        measured += rnd.measured_s
        setup_samples.append(timed_setup(workload))
        import_samples.append(import_seconds())
        if len(untraced) + len(traced) >= 2 and measured + rnd.measured_s > seconds:
            break
    setup_s = min(import_samples) + min(setup_samples)
    return setup_s, untraced, traced, setup_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup_s, untraced, traced, setup_tracer = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    rounds = untraced + [r for r, _ in traced]
    errors = [e for r in rounds for e in r.errors]
    if len({r.failed for r in rounds}) > 1:
        errors.append(f"failed operations differ between rounds: {[r.failed for r in rounds]}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{len(rounds)} rounds, seconds of the parts of the timed phase: "
          f"{[[round(p, 3) for p in r.pieces] for r in rounds]}", file=sys.stderr)
    if args.trace:
        absent = traced[0][1].absent
        if absent:
            print(f"absent (no longer defined by pmustream): {', '.join(absent)}")
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in per_layer(traced, untraced, setup_tracer).items()}
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(setup_s, rounds).items()}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
