"""Quick tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench

Each check must pass on pmustream's real output and fail once that output is
corrupted; the tracer's self times must add up to the traced wall time.
"""

from __future__ import annotations

import cmath
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import anchors  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from pmustream import pipeline  # noqa: E402
from pmustream.decimator import Thresholds, decimate_stream  # noqa: E402
from pmustream.estimators import EstimatorConfig, EstimatorKind, run_estimator  # noqa: E402
from pmustream.waveform import AnchorSeries, GroundTruth  # noqa: E402

# 1.5 s: quiet, then a 0.3 Hz frequency step with a voltage sag
PROFILE = """quantity,t_s,value
amplitude_V,0,230
amplitude_V,0.6,230
amplitude_V,0.7,215
amplitude_V,1.5,220
frequency_Hz,0,50.05
frequency_Hz,0.6,50.05
frequency_Hz,0.7,49.75
frequency_Hz,1.5,49.8
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    profile = base / "step.csv"
    profile.write_text(PROFILE)
    config = pipeline.ExperimentConfig(
        profile_path=str(profile), algorithms=("p_iec",), fixed_baselines=(2,),
        emit_decisions=True, emit_traces=True, output_dir=str(base / "out"))
    pipeline.run_experiment(config)
    return base / "out"


def _copy(run_dir: Path, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    return out


def _edit_jsonl(path: Path, index: int, edit) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows[index])
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_decision_log_passes_on_real_output(run_dir):
    rows = (run_dir / "decisions_p_iec_adaptive.jsonl").read_text().splitlines()
    kept = sum(json.loads(r)["kept"] for r in rows)
    assert 1 < kept < len(rows)
    assert checks.check_decision_log(run_dir / "decisions_p_iec_adaptive.jsonl") == []


def test_decision_log_flipped_kept_flag_fails(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    log = out / "decisions_p_iec_adaptive.jsonl"
    _edit_jsonl(log, 20, lambda r: r.update(kept=not r["kept"]))
    assert checks.check_decision_log(log)


def test_decision_log_perturbed_eps_fails(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    log = out / "decisions_p_iec_adaptive.jsonl"
    _edit_jsonl(log, 5, lambda r: r.update(eps=[e + 1e-6 for e in r["eps"]]))
    assert checks.check_decision_log(log)


def test_decision_log_perturbed_triplet_fails(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    log = out / "decisions_p_iec_adaptive.jsonl"
    _edit_jsonl(log, 30, lambda r: r.update(f=r["f"] + 2e-3))
    assert checks.check_decision_log(log)


def _trace_args(out: Path, mode: str):
    rows = [json.loads(line) for line in
            (out / "decisions_p_iec_adaptive.jsonl").read_text().splitlines()]
    total, kept = len(rows), sum(r["kept"] for r in rows)
    marks = {"100fps": total, "50fps": -(-total // 2), "adaptive": kept}[mode]
    return checks.read_table(out / "table.csv"), "p_iec", mode, total, marks


@pytest.mark.parametrize("mode", ["100fps", "50fps", "adaptive"])
def test_trace_passes_on_real_output(run_dir, mode):
    path = run_dir / f"trace_p_iec_{mode}.csv"
    assert checks.check_trace(path, *_trace_args(run_dir, mode)) == []


def _edit_trace(path: Path, row: int, col: int, value) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("col,value", [
    (7, lambda c: repr(float(c) + 1e-3)),     # reconstructed frequency
    (5, lambda c: repr(float(c) * 1.001)),    # reconstructed real part
    (9, lambda c: "1" if c == "0" else "0"),  # kept marker
])
def test_trace_corruption_fails(run_dir, tmp_path, col, value):
    out = _copy(run_dir, tmp_path)
    path = out / "trace_p_iec_adaptive.csv"
    args = _trace_args(out, "adaptive")
    _edit_trace(path, 1000, col, value)
    assert checks.check_trace(path, *args)


def test_trace_missing_row_fails(run_dir, tmp_path):
    out = _copy(run_dir, tmp_path)
    path = out / "trace_p_iec_100fps.csv"
    args = _trace_args(out, "100fps")
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_trace(path, *args)


def _table(values):
    return {(index, mode, "p_iec"): v for (index, mode), v in values.items()}


def test_criterion_6_and_7_detect_violations():
    good6 = {("compression_ratio", "adaptive"): 2.0, ("TrE_TVE [%]", "100fps"): 0.10,
             ("TrE_TVE [%]", "50fps"): 0.30, ("TrE_TVE [%]", "adaptive"): 0.105}
    assert checks.check_criterion_6(_table(good6), ["p_iec"]) == []
    assert checks.check_criterion_6(
        _table({**good6, ("TrE_TVE [%]", "50fps"): 0.12}), ["p_iec"])
    good7 = {("compression_ratio", "adaptive"): 18.0, ("TrE_FE [mHz]", "5fps"): 3.0,
             ("TrE_FE [mHz]", "10fps"): 1.0, ("TrE_FE [mHz]", "adaptive"): 0.5}
    assert checks.check_criterion_7(_table(good7), ["p_iec"], [10.0, 5.0]) == []
    assert checks.check_criterion_7(
        _table({**good7, ("TrE_FE [mHz]", "adaptive"): 1.6}), ["p_iec"], [10.0, 5.0])
    assert checks.check_criterion_7(
        _table({**good7, ("compression_ratio", "adaptive"): 8.0}), ["p_iec"], [10.0, 5.0])


@pytest.fixture(scope="module")
def steady_stream():
    amp, freq = 221.0, 49.8
    span = AnchorSeries(np.array([0.0, 3.0]), np.array([amp, amp]))
    gt = GroundTruth.from_anchors(span, AnchorSeries(np.array([0.0, 3.0]), np.array([freq, freq])))
    triplets = run_estimator(EstimatorKind("i_ipdft"), gt, EstimatorConfig(), 0.1, 2.9)
    cols = [np.array([getattr(m, k) for m in triplets]) for k in
            ("t", "phasor", "frequency", "rocof")]
    return cols, [(0.0, 3.0, amp, freq)]


def _flat(cols, stretches):
    return checks.check_flat_stretches("test", *cols, stretches, 0.04, 0.03)


def test_flat_stretch_passes_and_counts(steady_stream):
    cols, stretches = steady_stream
    errors, checked = _flat(cols, stretches)
    assert errors == [] and checked == len(cols[0])


@pytest.mark.parametrize("col,edit", [
    (2, lambda v: v + 6e-3),                    # |FE| above 5 mHz
    (3, lambda v: v + 0.5),                     # |RFE| above 0.4 Hz/s
    (1, lambda v: v * 1.02),                    # magnitude off by 2 %
    (1, lambda v: v * cmath.exp(0.03j)),        # angle step off by 0.03 rad
])
def test_flat_stretch_perturbed_triplet_fails(steady_stream, col, edit):
    cols, stretches = steady_stream
    cols = [c.copy() for c in cols]
    cols[col][100] = edit(cols[col][100])
    errors, _ = _flat(cols, stretches)
    assert errors


def test_keep_set_flip_fails():
    gt = GroundTruth.from_anchors(
        AnchorSeries(np.array([0.0, 1.0, 2.0]), np.array([230.0, 226.0, 231.0])),
        AnchorSeries(np.array([0.0, 1.0, 2.0]), np.array([50.0, 49.9, 50.1])))
    triplets = run_estimator(EstimatorKind("p_iec"), gt, EstimatorConfig(), 0.1, 1.9)
    _, records = decimate_stream(triplets, Thresholds(), 50.0)
    kept = [i for i, r in enumerate(records) if r.kept]
    cols = [[getattr(m, k) for m in triplets] for k in ("t", "phasor", "frequency", "rocof")]
    expected, _ = checks.keep_scan(*cols)
    assert checks.compare_keep_sets("x", kept, expected) == []
    flipped = sorted(set(kept) ^ {kept[1] + 1})
    assert checks.compare_keep_sets("x", flipped, expected)


def test_tail_of_pmu_stream_profile_is_seed_independent():
    tails = {tuple(r for r in anchors.generate(seed).anchors if r[0] >= anchors.TAIL_START)
             for seed in range(5)}
    assert len(tails) == 1
    for seed in range(5):
        stretches = anchors.generate(seed).flat_stretches()
        assert sum(hi - lo for lo, hi, _, _ in stretches) > anchors.SPAN_S / 2


def test_traced_self_times_add_up_to_wall(tmp_path):
    profile = tmp_path / "step.csv"
    profile.write_text(PROFILE)
    config = pipeline.ExperimentConfig(
        profile_path=str(profile), algorithms=("p_iec",), output_dir=str(tmp_path / "out"))
    original = pipeline.run_estimator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open("round")
        t0 = time.perf_counter()
        pipeline.run_experiment(config)
        wall = time.perf_counter() - t0
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert pipeline.run_estimator is original
    assert tracer.absent == []
    own = tracer.self_times()
    assert np.all(own >= 0.0)
    assert abs(own.sum() - tracer.durations()[root]) < 1e-9
    assert abs(tracer.durations()[root] - wall) < 1e-3
    names = set(tracer.names)
    assert {"pipeline.run_experiment", "estimators.run_estimator.p_iec",
            "metrics.tracking_indices", "waveform.eval_reference"} <= names


def test_missing_sources_exit_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pmu_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

