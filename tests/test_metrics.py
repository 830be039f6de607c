"""Tests for error metrics, tracking indices and throughput statistics."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from pmustream.decimator import DecisionRecord, reconstruct
from pmustream.errors import InvalidInputError, UndefinedMetricError
from pmustream.estimators import MeasurementTriplet, TripletSeries
from pmustream.metrics import (
    fe,
    fixed_rate_baseline,
    rfe,
    throughput_stats,
    tracking_indices,
    tve,
)
from pmustream.waveform import AnchorSeries, GroundTruth, eval_reference
from test_acceptance import nearest_divisor_rate

F0 = 50.0


def steady_gt(amp=230.0, freq=50.0, span=10.0) -> GroundTruth:
    return GroundTruth.from_anchors(
        AnchorSeries(np.array([0.0, span]), np.array([amp, amp])),
        AnchorSeries(np.array([0.0, span]), np.array([freq, freq])),
    )


def reference_series(gt: GroundTruth, times: np.ndarray) -> TripletSeries:
    phasor, freq, rocof = eval_reference(gt, times)
    return TripletSeries(t=times, phasor=phasor, frequency=freq, rocof=rocof)


def record(t, kept) -> DecisionRecord:
    return DecisionRecord(t, kept, None if not kept else np.full(3, 2.0), "phasor" if kept else "none")


# --------------------------------------------------------------- tve/fe/rfe

class TestPointwiseMetrics:
    def test_tve_zero_for_equal(self):
        assert tve(230.0 + 0j, 230.0 + 0j) == 0.0

    def test_tve_pure_magnitude_error(self):
        ref = 230.0 * cmath.exp(0.5j)
        assert tve(1.01 * ref, ref) == pytest.approx(1.0, rel=1e-12)

    def test_tve_pure_angle_error(self):
        ref = 230.0 + 0j
        est = 230.0 * cmath.exp(0.01j)
        assert tve(est, ref) == pytest.approx(100.0 * abs(cmath.exp(0.01j) - 1.0), rel=1e-12)
        assert tve(est, ref) == pytest.approx(1.0, abs=2e-3)

    def test_tve_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            tve(1.0 + 0j, 0.0 + 0j)

    def test_fe_units_and_sign(self):
        assert fe(50.0, 50.0) == 0.0
        assert fe(50.001, 50.000) == pytest.approx(1.0, rel=1e-9)
        assert fe(50.0, 50.001) == pytest.approx(-1.0, rel=1e-9)

    def test_rfe_units_and_sign(self):
        assert rfe(-0.5, -0.5) == 0.0
        assert rfe(-0.53, -0.50) == pytest.approx(-0.03, rel=1e-9)

    def test_fe_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.uniform(49, 51, 2)
            assert fe(a, b) == -fe(b, a)

    def test_tve_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ref = rng.uniform(100, 300) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            est = ref + rng.normal(scale=2.0) + 1j * rng.normal(scale=2.0)
            rot = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            assert tve(est * rot, ref * rot) == pytest.approx(tve(est, ref), rel=1e-9)


# --------------------------------------------------------- tracking_indices

class TestTrackingIndices:
    def test_perfect_reconstruction_scores_zero(self):
        gt = steady_gt()
        times = np.arange(0.0, 5.0, 1e-3)
        series = reference_series(gt, times)
        assert tracking_indices(series, reference_series(gt, series.t)) == (0.0, 0.0, 0.0)

    def test_constant_relative_phasor_deviation(self):
        gt = steady_gt()
        times = np.arange(0.0, 5.0, 1e-3)
        series = reference_series(gt, times)
        skewed = TripletSeries(series.t, series.phasor * 1.001, series.frequency, series.rocof)
        tre_tve, _, _ = tracking_indices(skewed, reference_series(gt, skewed.t))
        assert tre_tve == pytest.approx(0.1, rel=1e-9)

    def test_alternating_fe_matches_brute_force_rms(self):
        gt = steady_gt()
        times = np.arange(0.0, 2.0, 1e-3)
        series = reference_series(gt, times)
        signs = np.where(np.arange(times.size) % 2 == 0, 1.0, -1.0)
        skewed = TripletSeries(series.t, series.phasor, series.frequency + 0.002 * signs,
                               series.rocof)
        _, tre_fe, _ = tracking_indices(skewed, reference_series(gt, skewed.t))
        assert tre_fe == pytest.approx(2.0, rel=1e-9)

        acc = 0.0
        for i in range(times.size):
            dev_mhz = (skewed.frequency[i] - 50.0) * 1e3
            acc += dev_mhz * dev_mhz
        assert tre_fe == pytest.approx(math.sqrt(acc / times.size), rel=1e-12)

    def test_printed_formula_variant(self):
        gt = steady_gt()
        times = np.arange(0.0, 1.0, 1e-3)
        series = reference_series(gt, times)
        skewed = TripletSeries(series.t, series.phasor * 1.001, series.frequency, series.rocof)
        tre_printed, _, _ = tracking_indices(skewed, reference_series(gt, skewed.t),
                                            formula="printed")
        dev = np.abs(skewed.phasor - series.phasor) / np.abs(series.phasor)
        assert tre_printed == pytest.approx(100.0 * math.sqrt(float(np.mean(dev))), rel=1e-9)

    def test_streaming_accumulation_equals_offline(self):
        gt = steady_gt()
        times = np.arange(0.0, 3.0, 1e-3)
        rng = np.random.default_rng(8)
        series = reference_series(gt, times)
        skewed = TripletSeries(
            series.t,
            series.phasor * (1.0 + rng.normal(scale=1e-3, size=times.size)),
            series.frequency + rng.normal(scale=1e-3, size=times.size),
            series.rocof + rng.normal(scale=1e-2, size=times.size),
        )
        offline = tracking_indices(skewed, reference_series(gt, skewed.t))

        # chunked accumulation of the same sums
        chunks = np.array_split(np.arange(times.size), 7)
        acc = np.zeros(3)
        for chunk in chunks:
            sub = TripletSeries(skewed.t[chunk], skewed.phasor[chunk],
                                skewed.frequency[chunk], skewed.rocof[chunk])
            t_tve, t_fe, t_rfe = tracking_indices(sub, reference_series(gt, sub.t))
            acc += np.array([t_tve ** 2, t_fe ** 2, t_rfe ** 2]) * chunk.size
        streamed = np.sqrt(acc / times.size)
        np.testing.assert_allclose(streamed, offline, rtol=1e-12)

    def test_refinement_never_hurts_on_steady_and_ramp(self):
        times = np.arange(0.0, 4.0, 1e-2)

        # steady segment: predictions are exact, indices stay zero
        gt = steady_gt(freq=50.2)
        stream = [
            MeasurementTriplet(float(t), *(np.asarray(v).item() for v in eval_reference(gt, float(t))))
            for t in times
        ]
        grid = np.arange(0.0, 3.99, 1e-3)
        sparse = reconstruct([stream[0]], grid, F0, ts=1e-3)
        dense = reconstruct([stream[0], stream[200]], grid, F0, ts=1e-3)
        sparse_scores = tracking_indices(sparse, reference_series(gt, sparse.t))
        dense_scores = tracking_indices(dense, reference_series(gt, dense.t))
        assert all(d <= s + 1e-12 for d, s in zip(dense_scores, sparse_scores))
        assert sparse_scores[0] == pytest.approx(0.0, abs=1e-9)

        # monotone amplitude ramp: a mid keep strictly reduces the index
        gt2 = GroundTruth.from_anchors(
            AnchorSeries(np.array([0.0, 4.0]), np.array([230.0, 210.0])),
            AnchorSeries(np.array([0.0, 4.0]), np.array([50.0, 50.0])),
        )
        stream2 = [
            MeasurementTriplet(float(t), *(np.asarray(v).item() for v in eval_reference(gt2, float(t))))
            for t in times
        ]
        sparse2 = tracking_indices(reconstruct([stream2[0]], grid, F0, ts=1e-3),
                                   reference_series(gt2, grid))
        dense2 = tracking_indices(
            reconstruct([stream2[0], stream2[200]], grid, F0, ts=1e-3),
            reference_series(gt2, grid))
        assert dense2[0] < sparse2[0]

    def test_zero_reference_rejected(self):
        gt = steady_gt(amp=0.0)
        times = np.arange(0.0, 1.0, 1e-2)
        series = reference_series(gt, times)
        with pytest.raises(UndefinedMetricError):
            tracking_indices(series, reference_series(gt, series.t))

    def test_grid_mismatch_rejected(self):
        gt = steady_gt()
        times = np.arange(0.0, 1.0, 1e-2)
        series = reference_series(gt, times)
        with pytest.raises(InvalidInputError):
            tracking_indices(series, reference_series(gt, times + 1e-3))
        with pytest.raises(InvalidInputError):
            tracking_indices(series, reference_series(gt, times[:-1]))


# --------------------------------------------------------- throughput_stats

class TestThroughputStats:
    def test_all_kept(self):
        decisions = [record(h * 0.01, True) for h in range(100)]
        ratio, inst = throughput_stats(decisions)
        assert ratio == 1.0
        assert len(inst) == 99
        assert all(rr == pytest.approx(100.0, rel=1e-9) for _, rr in inst)

    def test_single_keep(self):
        decisions = [record(h * 0.01, h == 0) for h in range(1000)]
        ratio, inst = throughput_stats(decisions)
        assert ratio == 1000.0
        assert inst == []

    def test_reciprocal_intervals(self):
        decisions = [record(0.0, True)]
        decisions += [record(0.01, True)]
        decisions += [record(0.01 + 0.01 * k, False) for k in range(1, 20)]
        decisions += [record(0.21, True)]
        ratio, inst = throughput_stats(decisions)
        assert len(inst) == 2
        assert inst[0][1] == pytest.approx(100.0, rel=1e-9)
        assert inst[1][1] == pytest.approx(5.0, rel=1e-9)
        assert ratio == pytest.approx(22 / 3, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            throughput_stats([])


# ------------------------------------------------------ fixed_rate_baseline

class TestFixedRateBaseline:
    @staticmethod
    def _stream(n):
        return [MeasurementTriplet(h * 0.01, 230.0 + 0j, 50.0, 0.0) for h in range(n)]

    def test_divisor_one_keeps_all(self):
        stream = self._stream(100)
        assert fixed_rate_baseline(stream, 1) == stream

    def test_divisor_two_on_101(self):
        stream = self._stream(101)
        kept = fixed_rate_baseline(stream, 2)
        assert len(kept) == 51
        assert kept[0] is stream[0]
        assert kept[-1] is stream[100]

    def test_divisor_ten_rate(self):
        stream = self._stream(100)
        kept = fixed_rate_baseline(stream, 10)
        assert len(kept) == 10
        gaps = np.diff([m.t for m in kept])
        np.testing.assert_allclose(gaps, 0.1, rtol=1e-9)
        assert len(stream) / len(kept) == 10.0

    def test_bad_divisor_rejected(self):
        with pytest.raises(InvalidInputError):
            fixed_rate_baseline(self._stream(10), 0)

    def test_nearest_divisor_rate(self):
        assert nearest_divisor_rate(100.0, 7.1) == 5.0
        assert nearest_divisor_rate(100.0, 8.0) == 10.0
        assert nearest_divisor_rate(100.0, 48.0) == 50.0
        assert nearest_divisor_rate(100.0, 3.0) == 4.0  # tie between 2 and 4 goes up
