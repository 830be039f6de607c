"""Tests for the keep/discard decimation state machine and reconstruction."""

from __future__ import annotations

import bisect
import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmustream.decimator import (
    QUANTITY_NAMES,
    DecisionRecord,
    Decimator,
    Thresholds,
    decide,
    decimate_stream,
    predict,
    predict_rows,
    reconstruct,
    serving_rows,
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


def epsilon(last_kept, incoming, thresholds, f0) -> np.ndarray:
    """Normalized deviation vector between prediction and incoming triplet,
    written apart from ``decide``: each |prediction - incoming| over its
    threshold, the phasor's also over the kept magnitude (inf when that is 0).
    Magnitudes are Python's ``abs``, as in ``decide``: numpy's complex
    ``abs`` and ``math.hypot`` may round the last bit differently."""
    phasor, freq, rocof = predict(last_kept, incoming.t - last_kept.t, f0)
    scale = np.array([thresholds.delta_tve * abs(last_kept.phasor), thresholds.delta_fe,
                      thresholds.delta_rfe])
    dev = np.array([abs(phasor - incoming.phasor), abs(freq - incoming.frequency),
                    abs(rocof - incoming.rocof)])
    if scale[0] == 0.0:
        dev[0], scale[0] = math.inf, 1.0
    with np.errstate(invalid="ignore"):  # inf / inf: an overflowed phasor deviation
        return dev / scale


def oracle_decide(last_kept, incoming, thresholds, f0):
    """``decide`` as first written, with numpy reductions over the deviation
    array; the plain-float ``decide`` must match it bit for bit."""
    if last_kept is None:
        return DecisionRecord(incoming.t, True, None, "first"), incoming
    eps = epsilon(last_kept, incoming, thresholds, f0)
    kept = bool(np.max(eps) > 1.0)  # strictly above threshold
    if kept:
        binding = QUANTITY_NAMES[int(np.argmax(eps))]
        return DecisionRecord(incoming.t, True, eps, binding), incoming
    return DecisionRecord(incoming.t, False, eps, "none"), last_kept


def assert_same_record(got: DecisionRecord, want: DecisionRecord):
    assert (got.t, got.kept, got.binding_quantity) == (want.t, want.kept, want.binding_quantity)
    if want.epsilon is None:
        assert got.epsilon is None
    else:
        assert struct.pack("3d", *got.epsilon) == want.epsilon.tobytes()


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

    @given(cases=st.lists(st.tuples(
        st.floats(0.0, 99.0), st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
        st.floats(-math.pi, math.pi), st.floats(45.0, 55.0), st.floats(-5.0, 5.0),
        st.floats(0.0, 5.0)), min_size=1, max_size=8))
    def test_pmu_and_receiver_agree(self, cases):
        # the device's predict and the receiver's predict_rows share _advance,
        # so frequency and ROCOF agree bit for bit; each rotates the phasor its
        # own way (cmath against numpy's loops), within 2 ulp
        kept = [triplet(t, cmath.rect(mag, ang), f, r) for t, mag, ang, f, r, _ in cases]
        q = np.array([m.t + dt for m, (*_, dt) in zip(kept, cases)])
        got = predict_rows(TripletSeries.from_triplets(kept), np.arange(q.size), q,
                           np.zeros(q.size, bool), F0)
        for i, m in enumerate(kept):
            phasor, freq, rocof = predict(m, float(q[i]) - m.t, F0)
            assert (got.frequency[i], got.rocof[i]) == (freq, rocof)
            assert abs(got.phasor[i] - phasor) <= 4.4e-16 * abs(phasor)


# ----------------------------------------------------------------- epsilon

class TestEpsilon:
    """The normalized deviations that ``decide`` records."""

    def test_exact_prediction_gives_zero(self):
        last = triplet(0.0, 230.0, 50.2, -1.0)
        phasor, freq, rocof = predict(last, 0.05, F0)
        incoming = triplet(0.05, phasor, freq, rocof)
        record, _ = decide(last, incoming, DEFAULTS, F0)
        np.testing.assert_allclose(record.epsilon, 0.0, atol=1e-14)

    def test_boundary_deviation_not_kept(self):
        state = triplet(0.0, 230.0, 50.0, 0.0)
        incoming = triplet(0.01, 230.0, 50.0 + DEFAULTS.delta_fe, 0.0)
        record, new_state = decide(state, incoming, DEFAULTS, F0)
        np.testing.assert_allclose(record.epsilon, [0.0, 1.0, 0.0], atol=1e-12)
        assert not record.kept
        assert new_state is state

    def test_hand_computed_components(self):
        state = triplet(0.0, 230.0, 50.0, 0.0)
        incoming = triplet(0.01, 229.0, 50.0005, 0.05)
        record, _ = decide(state, incoming, DEFAULTS, F0)
        np.testing.assert_allclose(
            record.epsilon,
            [1.0 / (1e-3 * 230.0), 0.0005 / 1e-3, 0.05 / 0.07],
            rtol=1e-9,
        )

    def test_zero_magnitude_reference_forces_keep(self):
        state = triplet(0.0, 0.0, 50.0, 0.0)
        incoming = triplet(0.01, 230.0, 50.0, 0.0)
        record, _ = decide(state, incoming, DEFAULTS, F0)
        assert record.epsilon[0] == math.inf
        assert record.kept and record.binding_quantity == "phasor"

    def test_non_advancing_time_rejected(self):
        state = triplet(1.0, 230.0, 50.0, 0.0)
        with pytest.raises(SequencingError):
            decide(state, triplet(1.0, 230.0, 50.0, 0.0), DEFAULTS, F0)


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

    def test_pointwise_under_any_split_of_the_queries(self):
        # the pipeline's trace writer reconstructs the scored grid in chunks:
        # any split of the queries, one query per call included, keeps the bits
        gt = random_gt(7)
        lo, hi = gt.domain
        stream = stream_from_gt(gt, math.ceil(lo * 100) / 100, math.floor(hi * 100) / 100)
        kept, _ = decimate_stream(stream, DEFAULTS, F0)
        series = TripletSeries.from_triplets(stream)
        q = np.arange(stream[0].t, stream[-1].t, 1e-3)
        whole = reconstruct(series, kept, q, F0, ts=1e-3)
        for step in (1, 2, 3, 7):
            parts = [reconstruct(series, kept, q[i:i + step], F0, ts=1e-3)
                     for i in range(0, q.size, step)]
            for name in ("phasor", "frequency", "rocof"):
                np.testing.assert_array_equal(
                    np.concatenate([getattr(part, name) for part in parts]),
                    getattr(whole, name), err_msg=f"{name} in chunks of {step}")

    def test_query_before_first_kept_rejected(self):
        # a NaN query returned a NaN row, an infinite one warned
        for query in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                reconstruct(TripletSeries.from_triplets([triplet(1.0, 230.0, 50.0, 0.0)]), [0],
                            [query], F0, ts=1e-4)

    def test_unordered_or_empty_kept_rejected(self):
        series = TripletSeries.from_triplets([triplet(h * 0.01, 230.0, 50.0, 0.0)
                                              for h in range(3)])
        with pytest.raises(SequencingError):
            reconstruct(series, [2, 1], [0.05], F0, ts=1e-4)
        # a negative index served a row from the end of the series
        for kept in ([], [-1], [0, -1], [0, 3]):
            with pytest.raises(InvalidInputError):
                reconstruct(series, kept, [0.05], F0, ts=1e-4)
        nan_time = TripletSeries(np.array([0.0, math.nan, 0.02]), series.phasor,
                                 series.frequency, series.rocof)
        for kept in ([0, 1], [1, 2], [0, 1, 2]):
            with pytest.raises(SequencingError):
                reconstruct(nan_time, kept, [0.05], F0, ts=1e-4)

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


# ------------------------------------------ plain-float decide vs the oracle

log_threshold = st.floats(-6.0, 1.0).map(lambda x: 10.0 ** x)
thresholds_st = st.builds(Thresholds, log_threshold, log_threshold, log_threshold)


@st.composite
def decision_pairs(draw):
    """A last kept triplet (or None) and an incoming one whose deviations
    are each about ``u`` times its threshold, u in [-3, 3]."""
    thresholds = draw(thresholds_st)
    incoming_t = draw(st.floats(1e-3, 100.0))
    if draw(st.booleans()) and draw(st.booleans()):
        return None, triplet(incoming_t, 230.0, 50.0, 0.0), thresholds
    magnitude = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e4)))
    last = triplet(draw(st.floats(0.0, 99.0)),
                   cmath.rect(magnitude, draw(st.floats(-math.pi, math.pi))),
                   draw(st.floats(45.0, 55.0)), draw(st.floats(-5.0, 5.0)))
    dt = draw(st.floats(1e-4, 5.0))
    phasor_p, freq_p, rocof_p = predict(last, dt, F0)
    u1, u2, u3 = (draw(st.floats(-3.0, 3.0)) for _ in range(3))
    incoming = triplet(
        last.t + dt,
        phasor_p + u1 * thresholds.delta_tve * max(magnitude, 1.0)
        * cmath.exp(1j * draw(st.floats(-math.pi, math.pi))),
        freq_p + u2 * thresholds.delta_fe,
        rocof_p + u3 * thresholds.delta_rfe,
    )
    return last, incoming, thresholds


def noisy_stream(seed: int, n: int, noise: float) -> list[MeasurementTriplet]:
    """An oscillating 100 fps stream with independent noise on every field."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.01
    freq = 50.0 + 0.3 * np.sin(2.0 * math.pi * 0.5 * t) + noise * rng.standard_normal(n)
    rocof = 0.3 * math.pi * np.cos(2.0 * math.pi * 0.5 * t) + 50.0 * noise * rng.standard_normal(n)
    angle = np.cumsum(2.0 * math.pi * (freq - F0) * 0.01)
    amp = 230.0 * (1.0 + noise * rng.standard_normal(n))
    return [triplet(float(t[h]), cmath.rect(float(amp[h]), float(angle[h])),
                    float(freq[h]), float(rocof[h])) for h in range(n)]


class TestDecideMatchesOracle:
    @given(pair=decision_pairs())
    # ties resolve to the first quantity, as np.argmax does
    @example(pair=(triplet(0.0, 1.0, 50.0, 0.0), triplet(0.01, 1.0, 52.0, 2.0),
                   Thresholds(1.0, 1.0, 1.0)))
    @example(pair=(triplet(0.0, 1.0, 50.0, 0.0), triplet(0.01, 3.0, 52.0, 2.0),
                   Thresholds(1.0, 1.0, 1.0)))
    # a deviation of exactly 1.0 is not above the threshold
    @example(pair=(triplet(0.0, 1.0, 50.0, 0.0), triplet(0.01, 1.0, 51.0, 0.0),
                   Thresholds(1.0, 1.0, 1.0)))
    # zero-magnitude reference: e1 = inf
    @example(pair=(triplet(0.0, 0.0, 50.0, 0.0), triplet(0.01, 230.0, 50.0, 0.0),
                   DEFAULTS))
    # overflowed phasor deviation over an overflowed threshold: e1 = inf/inf = NaN
    @example(pair=(triplet(0.0, 1e308, 50.0, 0.0), triplet(0.01, -1e308, 52.0, 0.0),
                   Thresholds(10.0, 1.0, 1.0)))
    def test_decide_matches_oracle_bitwise(self, pair):
        last, incoming, thresholds = pair
        record, state = decide(last, incoming, thresholds, F0)
        want_record, want_state = oracle_decide(last, incoming, thresholds, F0)
        assert_same_record(record, want_record)
        assert state is want_state

    def test_explicit_examples_reach_every_case(self):
        one = Thresholds(1.0, 1.0, 1.0)
        base = triplet(0.0, 1.0, 50.0, 0.0)
        cases = [
            (base, triplet(0.01, 1.0, 52.0, 2.0), one, [0.0, 2.0, 2.0], "frequency"),
            (base, triplet(0.01, 3.0, 52.0, 2.0), one, [2.0, 2.0, 2.0], "phasor"),
            (base, triplet(0.01, 1.0, 51.0, 0.0), one, [0.0, 1.0, 0.0], "none"),
            (triplet(0.0, 0.0, 50.0, 0.0), triplet(0.01, 230.0, 50.0, 0.0), DEFAULTS,
             [math.inf, 0.0, 0.0], "phasor"),
        ]
        for last, incoming, thresholds, eps, binding in cases:
            record, _ = decide(last, incoming, thresholds, F0)
            assert list(record.epsilon) == eps
            assert record.binding_quantity == binding
        nan_record, state = decide(triplet(0.0, 1e308, 50.0, 0.0),
                                   triplet(0.01, -1e308, 52.0, 0.0), Thresholds(10.0, 1.0, 1.0),
                                   F0)
        assert math.isnan(nan_record.epsilon[0]) and nan_record.epsilon[1] == 2.0
        assert not nan_record.kept and state.t == 0.0

    @given(thresholds=thresholds_st, seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 120), noise=st.floats(0.0, 1e-2))
    def test_streaming_equals_batch_equals_oracle_replay(self, thresholds, seed, n, noise):
        stream = noisy_stream(seed, n, noise)
        dec = Decimator(thresholds, F0)
        streamed = [dec.process(m) for m in stream]
        kept, records = decimate_stream(stream, thresholds, F0)
        last = None
        for m, online, batch, stored in zip(stream, streamed, records, dec.records,
                                            strict=True):
            want, last = oracle_decide(last, m, thresholds, F0)
            assert stored is online
            assert_same_record(online, want)
            assert_same_record(batch, want)
        assert kept.tolist() == [h for h, r in enumerate(streamed) if r.kept]
        assert kept.tolist() == offline_keep_indices(stream, thresholds, F0)


# ------------------------------------------- reconstruct vs a scalar oracle

def reconstruct_oracle(stream, kept, queries, ts):
    """Per query: the latest kept triplet at or before ``t + ts/2``, verbatim
    unless ``t`` lies more than ``ts/2`` past it, else ``predict`` from it."""
    tol = ts / 2.0
    rows = []
    for t in queries:
        base = None
        for i in kept:
            if stream[i].t <= t + tol:
                base = stream[i]
        if t - base.t <= tol:
            rows.append(((base.phasor, base.frequency, base.rocof), True))
        else:
            rows.append((predict(base, t - base.t, F0), False))
    return rows


@st.composite
def reconstruct_cases(draw):
    """A report stream on a 100 fps grid of ``r`` samples per report, a kept
    subset holding report 0, and query times of one of four kinds."""
    n = draw(st.integers(1, 30))
    r = draw(st.integers(1, 40))
    fs = 100.0 * r
    ts = 1.0 / fs
    noisy = noisy_stream(draw(st.integers(0, 2 ** 32 - 1)), n, draw(st.floats(0.0, 1e-2)))
    # report h at (h*r)/fs, as run_estimator places it
    stream = [triplet(h * r / fs, m.phasor, m.frequency, m.rocof) for h, m in enumerate(noisy)]
    kept = sorted({0} | set(draw(st.lists(st.integers(0, n - 1), max_size=n))))
    kind = draw(st.sampled_from(["refinement", "criterion_4", "near_kept", "arbitrary"]))
    if kind == "refinement":  # every report instant is a grid row
        queries = np.arange((n - 1) * r + 1) / fs
    elif kind == "criterion_4":  # accumulated offsets, ending one sample short
        queries = stream[0].t + np.arange(max(1, (n - 1) * r)) * ts
    elif kind == "near_kept":  # within ts/2 of a kept instant, both ends included
        offsets = st.one_of(st.sampled_from([-1.0, 1.0, 0.0]), st.floats(-1.0, 1.0))
        picks = draw(st.lists(st.tuples(st.sampled_from(kept), offsets), min_size=1,
                              max_size=50))
        queries = np.array([max(stream[i].t + u * (ts / 2.0), 0.0) for i, u in picks])
    else:  # unordered, off every grid, past the last report too
        queries = np.array(draw(st.lists(st.floats(0.0, n * 0.01 + 0.05), min_size=1,
                                         max_size=50)))
    return stream, kept, queries, ts


class TestReconstructMatchesOracle:
    @settings(max_examples=150)
    @given(case=reconstruct_cases())
    def test_kept_rows_exact_and_predictions_within_1e12(self, case):
        stream, kept, queries, ts = case
        out = reconstruct(TripletSeries.from_triplets(stream), kept, queries, F0, ts)
        for i, ((phasor, freq, rocof), exact) in enumerate(
                reconstruct_oracle(stream, kept, queries.tolist(), ts)):
            if exact:
                assert (out.phasor[i], out.frequency[i], out.rocof[i]) == (phasor, freq, rocof)
            else:
                assert abs(out.phasor[i] - phasor) <= 1e-12 * abs(phasor)
                assert abs(out.frequency[i] - freq) <= 1e-12 * abs(freq)
                assert out.rocof[i] == rocof

    def test_half_sample_boundaries(self):
        # 0.015 + 0.005 rounds to 0.02 but 0.015 - 0.02 falls below -0.005:
        # the kept row at 0.02 is served, not predicted back from
        stream = noisy_stream(5, 4, 1e-3)
        queries = [0.02, 0.015, 0.0049, 0.0051]
        oracle = reconstruct_oracle(stream, [0, 2], queries, ts=0.01)
        assert [exact for _, exact in oracle] == [True, True, True, False]
        out = reconstruct(TripletSeries.from_triplets(stream), [0, 2], queries, F0, ts=0.01)
        assert out.phasor[1] == stream[2].phasor and out.frequency[1] == stream[2].frequency


@st.composite
def first_kept_edges(draw):
    """Kept times of either sign, a sample interval ``ts``, and queries at
    ``kt[0] - ts/2``, one ulp either side of it, and anywhere."""
    kt = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))))
    ts = draw(st.floats(1e-7, 1e-2))
    edge = kt[0] - ts / 2.0
    queries = [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return kt, ts, queries + draw(st.lists(st.floats(-1e3, 1e3), max_size=5))


class TestServingRowsMatchesBisect:
    @settings(max_examples=300)
    @given(case=first_kept_edges())
    # the query passes a q < kt[0] - ts/2 scan, yet no kept time is at or
    # before q + ts/2: a refusal by that scan served it from the last kept row
    @example(case=([-0.011808328301412985, 0.488191671698587, 0.988191671698587],
                   0.018872842017284352, [-0.021244749310055162]))
    def test_refuses_exactly_where_no_kept_time_serves(self, case):
        kt, ts, queries = case
        # unkept rows between the kept ones: the rows returned index the series
        t = np.repeat(kt, 2)
        t[1::2] += ts / 4.0
        series = TripletSeries(t, np.full(t.size, 230.0 + 0j), np.full(t.size, F0),
                               np.zeros(t.size))
        kept = np.arange(0, t.size, 2)
        for q in queries:
            j = bisect.bisect_right(kt, q + ts / 2.0) - 1
            if j < 0:
                with pytest.raises(DomainError):
                    serving_rows(series, kept, [q], ts)
                continue
            rows, got_q, exact = serving_rows(series, kept, [q], ts)
            assert (rows.tolist(), got_q.tolist(), exact.tolist()) == (
                [2 * j], [q], [q - kt[j] <= ts / 2.0])


# ------------------------------------------ rigid-grid chunks of reconstruct

@st.composite
def grid_chunk_cases(draw):
    """A report stream whose report h sits on grid row h*r, a kept set of one
    of three kinds, and a chunk ``lo..hi-1`` of the grid."""
    n = draw(st.integers(1, 30))
    r = draw(st.integers(1, 40))
    fs = 100.0 * r
    noisy = noisy_stream(draw(st.integers(0, 2 ** 32 - 1)), n, draw(st.floats(0.0, 1e-2)))
    stream = [triplet(h * r / fs, m.phasor, m.frequency, m.rocof) for h, m in enumerate(noisy)]
    kind = draw(st.sampled_from(["first", "all", "random"]))
    if kind == "first":
        kept = [0]
    elif kind == "all":
        kept = list(range(n))
    else:
        kept = sorted({0} | set(draw(st.lists(st.integers(0, n - 1), max_size=n))))
    rows = (n - 1) * r + 1
    start = draw(st.sampled_from(["kept_row", "any"]))
    lo = draw(st.sampled_from(kept)) * r if start == "kept_row" else draw(st.integers(0, rows - 1))
    size = draw(st.one_of(st.just(1), st.integers(1, rows - lo)))
    return stream, np.array(kept), r, fs, lo, lo + size


class TestGridChunks:
    @settings(max_examples=200)
    @given(case=grid_chunk_cases())
    def test_chunk_equals_whole_grid_slice_bitwise(self, case):
        # the pipeline scores the whole grid and writes its traces in chunks:
        # a chunk must hold the values scored, and flag exactly the kept rows
        stream, kept, r, fs, lo, hi = case
        series = TripletSeries.from_triplets(stream)
        grid = np.arange((len(stream) - 1) * r + 1) / fs
        _, _, exact = serving_rows(series, kept, grid[lo:hi], 1.0 / fs)
        np.testing.assert_array_equal(exact, np.isin(np.arange(lo, hi), kept * r))
        got = reconstruct(series, kept, grid[lo:hi], F0, 1.0 / fs)
        whole = reconstruct(series, kept, grid, F0, 1.0 / fs)
        for name in ("phasor", "frequency", "rocof"):
            assert getattr(got, name).tobytes() == getattr(whole, name)[lo:hi].tobytes(), name
