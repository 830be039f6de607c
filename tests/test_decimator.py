"""Tests for the keep/discard decimation state machine and reconstruction."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from pmustream.decimator import (
    Thresholds,
    decide,
    decimate_stream,
    epsilon,
    predict,
    reconstruct,
)
from pmustream.errors import DomainError, InvalidInputError, SequencingError
from pmustream.estimators import MeasurementTriplet, TripletSeries
from pmustream.waveform import AnchorSeries, GroundTruth, eval_reference
from test_waveform import traced_peak

F0 = 50.0
DEFAULTS = Thresholds()


def triplet(t, phasor, freq, rocof) -> MeasurementTriplet:
    return MeasurementTriplet(t, complex(phasor), freq, rocof)


def stream_from_gt(gt: GroundTruth, t0: float, t1: float, rate=100.0):
    times = np.arange(t0, t1 + 1e-9, 1.0 / rate)
    return [
        triplet(float(t), *(np.asarray(v).item() for v in eval_reference(gt, float(t))))
        for t in times
    ]


def random_gt(seed: int) -> GroundTruth:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    times = np.sort(rng.uniform(0.0, 6.0, n))
    while np.any(np.diff(times) < 0.2):
        times = np.sort(rng.uniform(0.0, 6.0, n))
    amp = 230.0 + rng.uniform(-40.0, 10.0, n)
    freq = 50.0 + rng.uniform(-0.8, 0.8, n)
    return GroundTruth.from_anchors(AnchorSeries(times, amp), AnchorSeries(times, freq))


def offline_keep_indices(triplets, thresholds, f0) -> list[int]:
    """Independent scan: next kept index is the first one whose prediction
    deviation (from the previous kept triplet) exceeds a threshold."""
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


# ----------------------------------------------------------------- predict

class TestPredict:
    def test_zero_horizon_identity(self):
        last = triplet(2.0, 230 * cmath.exp(0.4j), 50.3, -0.7)
        phasor, freq, rocof = predict(last, 0.0, F0)
        assert phasor == last.phasor
        assert freq == last.frequency
        assert rocof == last.rocof

    def test_nominal_steady_state_predicts_itself(self):
        last = triplet(0.0, 230.0, 50.0, 0.0)
        phasor, freq, rocof = predict(last, 0.1, F0)
        assert phasor == pytest.approx(230.0 + 0.0j, abs=1e-12)
        assert freq == 50.0
        assert rocof == 0.0

    def test_matches_direct_formula_evaluation(self):
        last = triplet(0.0, 230.0, 50.2, -1.0)
        dt = 0.01
        phasor, freq, rocof = predict(last, dt, F0)
        angle = 2 * math.pi * 0.2 * dt + math.pi * (-1.0) * dt * dt
        assert angle == pytest.approx(0.0122522113, abs=1e-9)
        assert phasor == pytest.approx(230.0 * cmath.exp(1j * angle), rel=1e-15)
        assert freq == pytest.approx(50.19, abs=1e-12)
        assert rocof == -1.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(InvalidInputError):
            predict(triplet(0.0, 230.0, 50.0, 0.0), -0.01, F0)


# ----------------------------------------------------------------- epsilon

class TestEpsilon:
    def test_exact_prediction_gives_zero(self):
        last = triplet(0.0, 230.0, 50.2, -1.0)
        phasor, freq, rocof = predict(last, 0.05, F0)
        incoming = triplet(0.05, phasor, freq, rocof)
        np.testing.assert_allclose(epsilon(last, incoming, DEFAULTS, F0), 0.0, atol=1e-14)

    def test_boundary_deviation_not_kept(self):
        state = triplet(0.0, 230.0, 50.0, 0.0)
        incoming = triplet(0.01, 230.0, 50.0 + DEFAULTS.delta_fe, 0.0)
        eps = epsilon(state, incoming, DEFAULTS, F0)
        np.testing.assert_allclose(eps, [0.0, 1.0, 0.0], atol=1e-12)
        record, new_state = decide(state, incoming, DEFAULTS, F0)
        assert not record.kept
        assert new_state is state

    def test_hand_computed_components(self):
        state = triplet(0.0, 230.0, 50.0, 0.0)
        incoming = triplet(0.01, 229.0, 50.0005, 0.05)
        eps = epsilon(state, incoming, DEFAULTS, F0)
        np.testing.assert_allclose(
            eps,
            [1.0 / (1e-3 * 230.0), 0.0005 / 1e-3, 0.05 / 0.07],
            rtol=1e-9,
        )

    def test_zero_magnitude_reference_forces_keep(self):
        state = triplet(0.0, 0.0, 50.0, 0.0)
        incoming = triplet(0.01, 230.0, 50.0, 0.0)
        eps = epsilon(state, incoming, DEFAULTS, F0)
        assert eps[0] == math.inf
        record, _ = decide(state, incoming, DEFAULTS, F0)
        assert record.kept and record.binding_quantity == "phasor"

    def test_non_advancing_time_rejected(self):
        state = triplet(1.0, 230.0, 50.0, 0.0)
        with pytest.raises(SequencingError):
            epsilon(state, triplet(1.0, 230.0, 50.0, 0.0), DEFAULTS, F0)


# ------------------------------------------------------------------- decide

class TestDecide:
    def test_first_frame_always_kept(self):
        record, state = decide(None, triplet(0.0, 230.0, 50.0, 0.0), DEFAULTS, F0)
        assert record.kept
        assert record.binding_quantity == "first"
        assert record.epsilon is None
        assert state.t == 0.0

    def test_steady_stream_all_discarded_after_first(self):
        gt = GroundTruth.from_anchors(
            AnchorSeries(np.array([0.0, 5.0]), np.array([230.0, 230.0])),
            AnchorSeries(np.array([0.0, 5.0]), np.array([50.0, 50.0])),
        )
        stream = stream_from_gt(gt, 0.0, 5.0)
        kept, records = decimate_stream(stream, DEFAULTS, F0)
        assert len(kept) == 1
        assert all(not r.kept for r in records[1:])

    def test_matches_offline_replay_oracle(self):
        gt = GroundTruth.from_anchors(
            AnchorSeries(np.array([0.0, 2.0, 4.0, 6.0]), np.array([230.0, 200.0, 225.0, 215.0])),
            AnchorSeries(np.array([0.0, 2.0, 4.0, 6.0]), np.array([50.0, 49.4, 50.3, 49.9])),
        )
        stream = stream_from_gt(gt, 0.0, 5.99)
        assert len(stream) == 600
        kept, records = decimate_stream(stream, DEFAULTS, F0)
        online = [i for i, r in enumerate(records) if r.kept]
        assert online == offline_keep_indices(stream, DEFAULTS, F0)
        assert kept.tolist() == online

    def test_out_of_order_stream_rejected(self):
        state = triplet(1.0, 230.0, 50.0, 0.0)
        with pytest.raises(SequencingError):
            decide(state, triplet(0.5, 230.0, 50.0, 0.0), DEFAULTS, F0)


# -------------------------------------------------------------- reconstruct

class TestReconstruct:
    def test_kept_timestamp_returns_kept_verbatim(self):
        kept = [
            triplet(0.0, 230.0, 50.1, -0.2),
            triplet(0.05, 229.0 * cmath.exp(0.1j), 50.05, 0.1),
        ]
        out = reconstruct(TripletSeries.from_triplets(kept), [0, 1], [0.05], F0, ts=1e-4)
        assert out.phasor[0] == kept[1].phasor
        assert out.frequency[0] == kept[1].frequency
        assert out.rocof[0] == kept[1].rocof

    def test_single_kept_hold_and_quadratic_angle(self):
        m = triplet(0.0, 230.0 * cmath.exp(0.3j), 50.2, -1.0)
        q = np.arange(0.0, 1.0 + 1e-12, 0.01)
        out = reconstruct(TripletSeries.from_triplets([m]), [0], q, F0, ts=0.01)
        np.testing.assert_allclose(np.abs(out.phasor), 230.0, rtol=1e-14)
        angles = np.unwrap(np.angle(out.phasor))
        expected = 0.3 + 2 * math.pi * 0.2 * q + math.pi * (-1.0) * q ** 2
        np.testing.assert_allclose(angles, expected, atol=1e-12)
        np.testing.assert_allclose(out.frequency, 50.2 - q, rtol=1e-14)
        np.testing.assert_allclose(out.rocof, -1.0)

    def test_matches_scalar_brute_force(self):
        gt = random_gt(123)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        kept_idx, _ = decimate_stream(stream, DEFAULTS, F0)
        ts = 1e-3
        q = np.arange(stream[0].t, stream[-1].t, ts)
        out = reconstruct(TripletSeries.from_triplets(stream), kept_idx, q, F0, ts=ts)
        kept = [stream[i] for i in kept_idx]
        kt = [m.t for m in kept]
        for i, t in enumerate(q):
            j = np.searchsorted(kt, t + ts / 2, side="right") - 1
            base = kept[j]
            dt = t - base.t
            if abs(dt) <= ts / 2:
                assert out.phasor[i] == base.phasor
                continue
            ang = 2 * math.pi * (base.frequency - F0) * dt + math.pi * base.rocof * dt * dt
            expected = base.phasor * cmath.exp(1j * ang)
            assert abs(out.phasor[i] - expected) <= 1e-12 * abs(expected)
            assert abs(out.frequency[i] - (base.frequency + base.rocof * dt)) <= 1e-12 * 50.0
            assert out.rocof[i] == base.rocof

    def test_query_before_first_kept_rejected(self):
        with pytest.raises(DomainError):
            reconstruct(TripletSeries.from_triplets([triplet(1.0, 230.0, 50.0, 0.0)]), [0],
                        [0.5], F0, ts=1e-4)

    def test_unordered_or_empty_kept_rejected(self):
        series = TripletSeries.from_triplets([triplet(h * 0.01, 230.0, 50.0, 0.0)
                                              for h in range(3)])
        with pytest.raises(SequencingError):
            reconstruct(series, [2, 1], [0.05], F0, ts=1e-4)
        with pytest.raises(InvalidInputError):
            reconstruct(series, [], [0.05], F0, ts=1e-4)

    def test_peak_below_eight_grid_arrays(self):
        # the result alone holds four float64 arrays of one value per query
        n = 300_000
        kept = TripletSeries.from_triplets([
            triplet(h * 0.01, 230.0 * cmath.exp(0.1j * h), 50.0 + 1e-3 * h, 0.1)
            for h in range(300)])
        idx = np.arange(300)
        q = np.arange(n) * 1e-5
        assert traced_peak(lambda: reconstruct(kept, idx, q, F0, ts=1e-4)) < 8 * 8 * n


# ------------------------------------------------------- module invariants

class TestDecimatorInvariants:
    def test_degenerate_thresholds_keep_everything(self):
        gt = random_gt(42)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        tiny = Thresholds(1e-15, 1e-15, 1e-15)
        kept, records = decimate_stream(stream, tiny, F0)
        assert len(kept) == len(stream)
        assert len(records) / len(kept) == 1.0

    def test_infinite_thresholds_keep_only_first(self):
        gt = random_gt(43)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        huge = Thresholds(1e15, 1e15, 1e15)
        kept, _ = decimate_stream(stream, huge, F0)
        assert len(kept) == 1

    def test_or_semantics_rocof_binding(self):
        stream = [
            triplet(h * 0.01, 230.0, 50.0, 0.0 if h % 2 == 0 else 0.0701)
            for h in range(40)
        ]
        kept, records = decimate_stream(stream, DEFAULTS, F0)
        assert len(kept) == len(stream)
        assert all(r.binding_quantity == "rocof" for r in records[1:])

    def test_streaming_equals_batch_randomized(self):
        for seed in range(211, 216):
            gt = random_gt(seed)
            lo, hi = gt.domain
            stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
            kept, records = decimate_stream(stream, DEFAULTS, F0)
            online = [i for i, r in enumerate(records) if r.kept]
            assert online == offline_keep_indices(stream, DEFAULTS, F0)

    def test_reconstruct_self_consistency(self):
        gt = random_gt(77)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        kept, _ = decimate_stream(stream, DEFAULTS, F0)
        series = TripletSeries.from_triplets(stream)
        out = reconstruct(series, kept, series.t[kept], F0, ts=1e-4)
        for i, m in enumerate(stream[j] for j in kept):
            assert out.phasor[i] == m.phasor
            assert out.frequency[i] == m.frequency
            assert out.rocof[i] == m.rocof

    def test_monotone_threshold_sensitivity(self):
        gt = random_gt(99)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        base_kept, _ = decimate_stream(stream, DEFAULTS, F0)
        for factor in (2.0, 5.0, 20.0):
            for name in ("delta_tve", "delta_fe", "delta_rfe"):
                grown = Thresholds(**{
                    "delta_tve": DEFAULTS.delta_tve,
                    "delta_fe": DEFAULTS.delta_fe,
                    "delta_rfe": DEFAULTS.delta_rfe,
                    name: getattr(DEFAULTS, name) * factor,
                })
                kept, _ = decimate_stream(stream, grown, F0)
                assert len(kept) <= len(base_kept)

    def test_thresholds_validated(self):
        with pytest.raises(InvalidInputError):
            Thresholds(delta_tve=0.0)
        with pytest.raises(InvalidInputError):
            Thresholds(delta_rfe=-0.1)
