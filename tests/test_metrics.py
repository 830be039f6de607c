"""Tests for error metrics, tracking indices and the instantaneous reporting rate."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from pmustream.decimator import reconstruct
from pmustream.errors import InvalidInputError, SequencingError, UndefinedMetricError
from pmustream.estimators import MeasurementTriplet, TripletSeries
from pmustream.metrics import TrackingReport, instantaneous_rr, tracking_indices
from pmustream.waveform import AnchorSeries, GroundTruth, eval_reference
from test_acceptance import nearest_divisor_rate

F0 = 50.0


def steady_gt(amp=230.0, freq=50.0, span=10.0) -> GroundTruth:
    return GroundTruth.from_anchors(
        AnchorSeries(np.array([0.0, span]), np.array([amp, amp])),
        AnchorSeries(np.array([0.0, span]), np.array([freq, freq])),
    )


# point-wise TVE, FE and RFE of single reports; the package scores with
# tracking_indices alone
def tve(estimate, reference):
    """Relative complex-plane distance in percent."""
    ref_mag = np.abs(reference)
    if np.any(ref_mag == 0.0):
        raise UndefinedMetricError("TVE undefined for zero reference phasor")
    out = 100.0 * np.abs(np.asarray(estimate) - np.asarray(reference)) / ref_mag
    return float(out) if np.ndim(out) == 0 else out


def fe(estimate, reference):
    """Signed frequency error in mHz."""
    return 1e3 * (np.asarray(estimate) - np.asarray(reference)) if np.ndim(estimate) \
        else 1e3 * (estimate - reference)


def rfe(estimate, reference):
    """Signed ROCOF error in Hz/s."""
    return np.asarray(estimate) - np.asarray(reference) if np.ndim(estimate) \
        else estimate - reference


def reference_series(gt: GroundTruth, times: np.ndarray) -> TripletSeries:
    phasor, freq, rocof = eval_reference(gt, times)
    return TripletSeries(t=times, phasor=phasor, frequency=freq, rocof=rocof)


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
        series = TripletSeries.from_triplets(stream)
        sparse = reconstruct(series, [0], grid, F0, ts=1e-3)
        dense = reconstruct(series, [0, 200], grid, F0, ts=1e-3)
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
        series2 = TripletSeries.from_triplets(stream2)
        sparse2 = tracking_indices(reconstruct(series2, [0], grid, F0, ts=1e-3),
                                   reference_series(gt2, grid))
        dense2 = tracking_indices(
            reconstruct(series2, [0, 200], grid, F0, ts=1e-3),
            reference_series(gt2, grid))
        assert dense2[0] < sparse2[0]

    def test_zero_reference_rejected(self):
        gt = steady_gt(amp=0.0)
        times = np.arange(0.0, 1.0, 1e-2)
        series = reference_series(gt, times)
        with pytest.raises(UndefinedMetricError):
            tracking_indices(series, reference_series(gt, series.t))

    @pytest.mark.parametrize("formula", ["rms", "printed"])
    def test_index_past_float_range_rejected(self, formula):
        # 1 V off a 1e-310 V reference, and 1e306 Hz off (1e309 mHz), are past
        # float range; they used to warn and return inf, which TrackingReport
        # then refused as an input error
        times = np.arange(0.0, 1.0, 1e-2)
        tiny = reference_series(steady_gt(amp=1e-310), times)
        nominal = reference_series(steady_gt(), times)
        for off, reference in ((TripletSeries(times, tiny.phasor + 1.0, tiny.frequency,
                                              tiny.rocof), tiny),
                               (TripletSeries(times, nominal.phasor, nominal.frequency + 1e306,
                                              nominal.rocof), nominal)):
            with pytest.raises(UndefinedMetricError, match="TrE overflow"):
                tracking_indices(off, reference, formula)

    def test_grid_mismatch_rejected(self):
        gt = steady_gt()
        times = np.arange(0.0, 1.0, 1e-2)
        series = reference_series(gt, times)
        with pytest.raises(InvalidInputError):
            tracking_indices(series, reference_series(gt, times + 1e-3))
        with pytest.raises(InvalidInputError):
            tracking_indices(series, reference_series(gt, times[:-1]))

    def test_unknown_formula_rejected(self):
        series = reference_series(steady_gt(), np.arange(0.0, 1.0, 1e-2))
        with pytest.raises(InvalidInputError, match="unknown tracking formula 'x'"):
            tracking_indices(series, series, formula="x")

    @pytest.mark.parametrize("field, value, message", [
        ("kept_count", 0, "at least one kept measurement"),
        ("tre_fe", math.nan, "finite and non-negative"),
        ("tre_rfe", -1.0, "finite and non-negative"),
    ])
    def test_report_rejects_bad_field(self, field, value, message):
        fields = dict(tre_tve=0.1, tre_fe=1.0, tre_rfe=0.01, kept_count=10, total_count=100)
        TrackingReport(**fields)
        with pytest.raises(InvalidInputError, match=message):
            TrackingReport(**{**fields, field: value})


# --------------------------------------------------------- instantaneous_rr

class TestThroughputStats:
    def test_all_kept(self):
        t, rr = instantaneous_rr([h * 0.01 for h in range(100)])
        assert t.size == rr.size == 99
        assert all(r == pytest.approx(100.0, rel=1e-9) for r in rr.tolist())

    def test_single_keep(self):
        t, rr = instantaneous_rr([0.0])
        assert t.tolist() == rr.tolist() == []

    def test_reciprocal_intervals(self):
        t, rr = instantaneous_rr([0.0, 0.01, 0.21])
        assert t.tolist() == [0.01, 0.21]
        assert rr[0] == pytest.approx(100.0, rel=1e-9)
        assert rr[1] == pytest.approx(5.0, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            instantaneous_rr([])

    @pytest.mark.parametrize("times", [[0.0, 0.0], [1.0, 0.5], [0.0, math.nan]],
                             ids=["repeated", "decreasing", "nan"])
    def test_instants_not_increasing_rejected(self, times):
        # these divided by zero, gave a negative rate or a NaN one
        with pytest.raises(SequencingError, match="strictly increasing"):
            instantaneous_rr(times)


# ----------------------------------------------------- nearest_divisor_rate

def test_nearest_divisor_rate():
    assert nearest_divisor_rate(100.0, 7.1) == 5.0
    assert nearest_divisor_rate(100.0, 8.0) == 10.0
    assert nearest_divisor_rate(100.0, 48.0) == 50.0
    assert nearest_divisor_rate(100.0, 3.0) == 4.0  # tie between 2 and 4 goes up
