"""Acceptance suite: one test per release criterion, run at stated tolerances.

Each test prints a single PASS line when its criterion holds (visible with
``pytest -s`` or in the captured output).  Criteria with runtime budgets
measure wall time and fail when the budget is exceeded.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pmustream.decimator import Thresholds, decimate_stream, reconstruct
from pmustream.estimators import EstimatorConfig, EstimatorKind, MeasurementTriplet, run_estimator
from pmustream.pipeline import ExperimentConfig, run_experiment
from pmustream.waveform import AnchorSeries, GroundTruth, eval_reference

F0 = 50.0
CONFIG = EstimatorConfig()


def steady_gt(freq: float, span: float) -> GroundTruth:
    return GroundTruth.from_anchors(
        AnchorSeries(np.array([0.0, span]), np.array([230.0, 230.0])),
        AnchorSeries(np.array([0.0, span]), np.array([freq, freq])),
    )


def gt_stream(gt: GroundTruth, t0: float, t1: float, rate=100.0):
    times = np.arange(t0, t1 + 1e-9, 1.0 / rate)
    return [
        MeasurementTriplet(float(t), *(np.asarray(v).item() for v in eval_reference(gt, float(t))))
        for t in times
    ]


def nearest_divisor_rate(rr_in: float, target_rate: float) -> float:
    """Divisor rate of ``rr_in`` closest to ``target_rate`` (ties go up)."""
    base = round(rr_in)
    rates = [rr_in / d for d in range(1, base + 1) if base % d == 0]
    return min(rates, key=lambda r: (abs(r - target_rate), -r))


def random_gt(seed: int) -> GroundTruth:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    times = np.sort(rng.uniform(0.0, 8.0, n))
    while np.any(np.diff(times) < 0.25):
        times = np.sort(rng.uniform(0.0, 8.0, n))
    amp = 230.0 + rng.uniform(-50.0, 10.0, n)
    freq = 50.0 + rng.uniform(-1.0, 1.0, n)
    return GroundTruth.from_anchors(AnchorSeries(times, amp), AnchorSeries(times, freq))


def test_criterion_1_steady_state_compliance_sweep():
    start = time.perf_counter()
    worst = {"tve": 0.0, "fe": 0.0, "rfe": 0.0}
    kinds = [EstimatorKind("p_iec"), EstimatorKind("i_ipdft")]
    for freq in np.round(np.arange(49.5, 50.5 + 1e-9, 0.1), 1):
        gt = steady_gt(float(freq), span=5.0)
        for kind in kinds:
            left = kind.left_margin(CONFIG)
            right = kind.right_margin(CONFIG)
            t_start = math.ceil(left / CONFIG.r) * CONFIG.r / CONFIG.fs
            n_last = math.floor((5.0 * CONFIG.fs - right) / CONFIG.r) * CONFIG.r
            triplets = run_estimator(kind, gt, CONFIG, t_start, n_last / CONFIG.fs)
            assert len(triplets) >= 490
            for m in triplets:
                ref, ref_f, ref_r = eval_reference(gt, m.t)
                worst["tve"] = max(worst["tve"], 100 * abs(m.phasor - ref) / abs(ref))
                worst["fe"] = max(worst["fe"], abs(m.frequency - ref_f))
                worst["rfe"] = max(worst["rfe"], abs(m.rocof - ref_r))
    elapsed = time.perf_counter() - start
    assert worst["tve"] <= 1.0
    assert worst["fe"] <= 5e-3
    assert worst["rfe"] <= 0.4
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: compliance sweep 49.5-50.5 Hz, worst "
          f"TVE={worst['tve']:.2e}%, |FE|={worst['fe'] * 1e3:.2e} mHz, "
          f"|RFE|={worst['rfe']:.2e} Hz/s, {elapsed:.1f}s")


def test_criterion_2_degenerate_threshold_identity(tmp_path):
    config = ExperimentConfig(
        profile_path="two_stage_collapse",
        thresholds=Thresholds(1e-15, 1e-15, 1e-15),
        fixed_baselines=(),
        output_dir=str(tmp_path / "out"),
        emit_decisions=True,
    )
    reports = run_experiment(config)
    for algo in config.algorithms:
        full = reports[(algo, "100fps")]
        adaptive = reports[(algo, "adaptive")]
        assert adaptive.kept_count == adaptive.total_count == full.total_count
        assert adaptive.compression_ratio == 1.0
        assert adaptive.tre_tve == full.tre_tve
        assert adaptive.tre_fe == full.tre_fe
        assert adaptive.tre_rfe == full.tre_rfe
    print("\nACCEPTANCE 2 PASS: thresholds=1e-15 keep the full internal-rate "
          "set; adaptive rows equal 100 fps rows bit-for-bit")


def test_criterion_3_steady_state_collapse(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        profile_path="steady_nominal",
        fixed_baselines=(),
        output_dir=str(tmp_path / "out"),
    )
    reports = run_experiment(config)
    elapsed = time.perf_counter() - start
    for algo in config.algorithms:
        adaptive = reports[(algo, "adaptive")]
        assert adaptive.kept_count == 1
        assert adaptive.compression_ratio >= 100.0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: 10 s steady profile keeps exactly 1 frame per "
          f"algorithm (ratio {reports[('p_iec', 'adaptive')].compression_ratio:.0f}), "
          f"{elapsed:.1f}s")


def test_criterion_4_prediction_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240)
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.5, 10.0, 8)), [10.5]))
    gt = GroundTruth.from_anchors(
        AnchorSeries(times, 230.0 + rng.uniform(-50.0, 10.0, times.size)),
        AnchorSeries(times, 50.0 + rng.uniform(-1.0, 1.0, times.size)),
    )
    t0, t1 = 0.0, 10.0
    stream = gt_stream(gt, t0, t1)
    kept, _ = decimate_stream(stream, Thresholds(), F0)
    ts = 1.0 / CONFIG.fs
    grid = stream[0].t + np.arange(round((t1 - t0) * CONFIG.fs)) * ts
    series = reconstruct(kept, grid, F0, ts)

    kt = [m.t for m in kept]
    worst = 0.0
    for i, t in enumerate(grid):
        j = np.searchsorted(kt, t + ts / 2, side="right") - 1
        base = kept[j]
        dt = t - base.t
        if abs(dt) <= ts / 2:
            expected_phasor = base.phasor
            expected_freq = base.frequency
        else:
            ang = 2 * math.pi * (base.frequency - F0) * dt + math.pi * base.rocof * dt * dt
            expected_phasor = base.phasor * cmath.exp(1j * ang)
            expected_freq = base.frequency + base.rocof * dt
        worst = max(
            worst,
            abs(series.phasor[i] - expected_phasor) / abs(expected_phasor),
            abs(series.frequency[i] - expected_freq) / abs(expected_freq),
            abs(series.rocof[i] - base.rocof) / max(1.0, abs(base.rocof)),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 PASS: reconstruction matches brute-force prediction "
          f"on {grid.size} grid points, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_streaming_equals_batch():
    def offline_scan(triplets, thresholds, f0):
        kept = [0]
        while True:
            base = triplets[kept[-1]]
            found = None
            for h in range(kept[-1] + 1, len(triplets)):
                m = triplets[h]
                dt = m.t - base.t
                ang = 2 * math.pi * (base.frequency - f0) * dt + math.pi * base.rocof * dt * dt
                e1 = abs(base.phasor * cmath.exp(1j * ang) - m.phasor) / (
                    thresholds.delta_tve * abs(base.phasor))
                e2 = abs(base.frequency + base.rocof * dt - m.frequency) / thresholds.delta_fe
                e3 = abs(base.rocof - m.rocof) / thresholds.delta_rfe
                if max(e1, e2, e3) > 1.0:
                    found = h
                    break
            if found is None:
                return kept
            kept.append(found)

    total_checked = 0
    for seed in range(10):
        gt = random_gt(1000 + seed)
        lo, hi = gt.domain
        stream = gt_stream(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        _, records = decimate_stream(stream, Thresholds(), F0)
        online = [i for i, r in enumerate(records) if r.kept]
        assert online == offline_scan(stream, Thresholds(), F0), f"seed {seed}"
        total_checked += len(stream)
    print(f"\nACCEPTANCE 5 PASS: online keep set equals offline scan on 10 "
          f"randomized profiles ({total_checked} frames)")


def test_criterion_6_abrupt_collapse_pattern(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        profile_path="abrupt_collapse",
        fixed_baselines=(2,),
        output_dir=str(tmp_path / "out"),
    )
    reports = run_experiment(config)
    elapsed = time.perf_counter() - start
    lines = []
    for algo in config.algorithms:
        full = reports[(algo, "100fps")]
        fixed2 = reports[(algo, "50fps")]
        adaptive = reports[(algo, "adaptive")]
        assert 1.5 <= adaptive.compression_ratio <= 3.0
        assert abs(adaptive.tre_tve - full.tre_tve) <= 0.10 * full.tre_tve
        assert fixed2.tre_tve >= 1.4 * adaptive.tre_tve
        lines.append(f"{algo}: CR={adaptive.compression_ratio:.2f}, "
                     f"TVE {full.tre_tve:.3f}->{adaptive.tre_tve:.3f}% "
                     f"(50fps {fixed2.tre_tve:.3f}%)")
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: {'; '.join(lines)}, {elapsed:.1f}s")


def test_criterion_7_forced_oscillation_pattern(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        profile_path="forced_oscillation",
        fixed_baselines=(10, 20),
        output_dir=str(tmp_path / "out"),
    )
    reports = run_experiment(config)
    elapsed = time.perf_counter() - start
    lines = []
    for algo in config.algorithms:
        adaptive = reports[(algo, "adaptive")]
        assert adaptive.compression_ratio >= 10.0
        rate = nearest_divisor_rate(config.rr_in, config.rr_in / adaptive.compression_ratio)
        fixed = reports[(algo, f"{rate:g}fps")]
        assert adaptive.tre_fe * 2.0 < fixed.tre_fe
        lines.append(f"{algo}: CR={adaptive.compression_ratio:.1f}, TrE_FE "
                     f"{adaptive.tre_fe:.2f} vs {fixed.tre_fe:.2f} mHz at {rate:g} fps")
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 7 PASS: {'; '.join(lines)}, {elapsed:.1f}s")


def test_criterion_8_property_suites_standalone():
    suites = [
        "tests/test_waveform.py::TestPchipFit",
        "tests/test_waveform.py::TestWaveformInvariants",
        "tests/test_estimators.py::TestEstimatorInvariants",
        "tests/test_decimator.py::TestDecimatorInvariants",
        "tests/test_metrics.py::TestPointwiseMetrics",
        "tests/test_metrics.py::TestTrackingIndices",
        "tests/test_pipeline.py::TestRunExperiment::test_run_is_deterministic",
    ]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *suites],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    print("\nACCEPTANCE 8 PASS: property suites pass standalone "
          f"({result.stdout.strip().splitlines()[-1]})")
