"""Tests for ground-truth profile construction and three-phase synthesis."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmustream.errors import DomainError, InvalidInputError
from pmustream.estimators import fortescue_positive
from pmustream.waveform import (
    GRID_ALIGN_TOL,
    AnchorSeries,
    GroundTruth,
    PiecewisePoly,
    SQRT2,
    SYNTH_CHUNK,
    eval_reference,
    grid_index,
    integrate_phase,
    pchip_fit,
    synth_three_phase,
)


def series(*points) -> AnchorSeries:
    return AnchorSeries.from_points(points)


def steady_gt(amp=230.0, freq=50.0, f0=50.0, span=10.0, fs=10_000.0, phase0=0.0) -> GroundTruth:
    return GroundTruth.from_anchors(
        series((0.0, amp), (span, amp)),
        series((0.0, freq), (span, freq)),
        f0=f0,
        fs=fs,
        phase0=phase0,
    )


# ---------------------------------------------------------------- pchip_fit

class TestPchipFit:
    def test_constant_data_gives_constant_polynomial(self):
        poly = pchip_fit(series((0, 5.0), (1, 5.0), (2, 5.0)))
        t = np.linspace(0, 2, 101)
        assert np.all(poly(t) == 5.0)

    def test_collinear_data_gives_straight_line(self):
        poly = pchip_fit(series((0, 0.0), (1, 1.0), (2, 2.0)))
        t = np.linspace(0, 2, 101)
        np.testing.assert_allclose(poly(t), t, atol=1e-14)
        np.testing.assert_allclose(poly.derivative()(t), 1.0, atol=1e-14)

    def test_no_overshoot_and_monotone_on_dense_grid(self):
        # dense-grid scan as the oracle
        poly = pchip_fit(series((0, 0.0), (1, 1.0), (2, 1.05), (3, 4.0)))
        t = np.linspace(0.0, 3.0, 3001)
        v = poly(t)
        assert v.min() >= -1e-9
        assert v.max() <= 4.0 + 1e-9
        assert np.all(np.diff(v) >= -1e-12)

    def test_interpolates_anchors_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 12)
            x = np.sort(rng.uniform(0, 10, n))
            while np.any(np.diff(x) < 1e-3):
                x = np.sort(rng.uniform(0, 10, n))
            y = rng.uniform(-5, 5, n)
            poly = pchip_fit(AnchorSeries(x, y))
            np.testing.assert_allclose(poly(x), y, rtol=0, atol=1e-12)

    def test_every_interval_is_monotone_between_its_anchors(self):
        # holds for arbitrary data, not just globally monotone series
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            x = np.cumsum(rng.uniform(0.1, 1.0, n))
            y = rng.uniform(-5.0, 5.0, n)
            poly = pchip_fit(AnchorSeries(x, y))
            for i in range(n - 1):
                grid = np.linspace(x[i], x[i + 1], 1000)
                dv = np.diff(poly(grid))
                sign = np.sign(y[i + 1] - y[i])
                assert np.all(sign * dv >= -1e-12)

    def test_rejects_bad_anchor_input(self):
        with pytest.raises(InvalidInputError):
            AnchorSeries(np.array([0.0]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            AnchorSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            AnchorSeries(np.array([0.0, 1.0]), np.array([1.0, np.inf]))


# ---------------------------------------------------------- integrate_phase

class TestIntegratePhase:
    def test_zero_deviation_gives_zero_phase(self):
        freq = pchip_fit(series((0, 50.0), (10, 50.0)))
        phase = integrate_phase(freq, 50.0, 0.0)
        t = np.linspace(0, 10, 64)
        np.testing.assert_allclose(phase(t), 0.0, atol=1e-12)

    def test_constant_offset_integral(self):
        freq = pchip_fit(series((0, 51.0), (2, 51.0)))
        phase = integrate_phase(freq, 50.0, 0.0)
        assert phase(2.0) == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_linear_ramp_matches_simpson_quadrature(self):
        freq = pchip_fit(series((0, 50.0), (1, 51.0)))
        phase = integrate_phase(freq, 50.0, 0.0)
        assert phase(1.0) == pytest.approx(math.pi, abs=1e-9)

        # composite Simpson oracle over an uneven target grid
        for t_end in (0.3, 0.5, 0.77, 1.0):
            n = 2000
            grid = np.linspace(0.0, t_end, n + 1)
            vals = 2.0 * math.pi * (freq(grid) - 50.0)
            h = grid[1] - grid[0]
            simpson = h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
            assert phase(t_end) == pytest.approx(simpson, abs=1e-9)

    def test_phase0_offset_carried(self):
        freq = pchip_fit(series((0, 50.0), (1, 50.0)))
        phase = integrate_phase(freq, 50.0, 0.25)
        assert phase(0.7) == pytest.approx(0.25, abs=1e-15)


# ------------------------------------------------------------ differentiate

class TestDifferentiate:
    def test_constant_frequency_zero_rocof(self):
        freq = pchip_fit(series((0, 50.0), (5, 50.0)))
        rocof = freq.derivative()
        assert np.all(rocof(np.linspace(0, 5, 33)) == 0.0)

    def test_linear_ramp_constant_rocof(self):
        freq = pchip_fit(series((0, 50.0), (1, 49.5)))
        rocof = freq.derivative()
        np.testing.assert_allclose(rocof(np.linspace(0, 1, 33)), -0.5, atol=1e-12)

    def test_cubic_piece_matches_finite_differences(self):
        freq = pchip_fit(series((0, 50.0), (0.5, 49.8), (1.2, 50.3), (2.0, 50.0)))
        rocof = freq.derivative()
        h = 1e-5
        mids = np.array([0.25, 0.85, 1.6])
        for t in mids:
            fd = (freq(t + h) - freq(t - h)) / (2 * h)
            assert rocof(t) == pytest.approx(fd, abs=1e-6)


# -------------------------------------------------------- synth_three_phase

class TestSynthThreePhase:
    def test_unit_cosine_at_t0(self):
        gt = steady_gt(amp=1.0 / SQRT2, freq=50.0)
        block = synth_three_phase(gt, 0.0, 4)
        assert block.samples[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert block.samples[1, 0] == pytest.approx(math.cos(-2 * math.pi / 3), abs=1e-12)
        assert block.samples[2, 0] == pytest.approx(math.cos(-4 * math.pi / 3), abs=1e-12)

    def test_zero_amplitude_gives_zero_samples(self):
        gt = steady_gt(amp=0.0)
        block = synth_three_phase(gt, 1.0, 256)
        assert np.all(block.samples == 0.0)

    def test_windowed_rms_tracks_amplitude_profile(self):
        # brute-force rms over one nominal cycle as the oracle
        gt = GroundTruth.from_anchors(
            series((0.0, 100.0), (2.0, 101.0), (4.0, 100.5)),
            series((0.0, 50.0), (2.0, 50.2), (4.0, 50.0)),
        )
        block = synth_three_phase(gt, 0.0, 40_001)
        m = 200
        for t_c in (0.5, 1.0, 1.7, 2.5, 3.4):
            ic = round(t_c * gt.fs)
            window = block.samples[0, ic - m // 2:ic + m // 2]
            rms = math.sqrt(float(np.mean(window ** 2)))
            assert rms == pytest.approx(gt.amplitude(t_c), rel=5e-3)

    def test_slices_equal_whole_array_formula_bitwise(self):
        # the formula on one whole-length time array, as synthesis first ran
        gt = GroundTruth.from_anchors(
            series((0.0, 100.0), (3.0, 101.0), (8.0, 100.5)),
            series((0.0, 50.0), (3.0, 50.2), (8.0, 50.0)),
        )
        n0, n = 3, 2 * SYNTH_CHUNK + 5
        t = (n0 + np.arange(n)) / gt.fs
        amp = SQRT2 * gt.amplitude(t)
        base = gt.phase(t) + 2.0 * math.pi * gt.f0 * t
        want = np.array([np.cos(base - 2.0 * math.pi * p / 3.0) * amp for p in range(3)])
        got = synth_three_phase(gt, n0 / gt.fs, n)
        assert got.start_index == n0
        assert got.samples.tobytes() == want.tobytes()

    def test_off_grid_start_rejected(self):
        gt = steady_gt()
        with pytest.raises(InvalidInputError):
            synth_three_phase(gt, 1.23456e-5, 16)

    def test_out_of_domain_rejected(self):
        gt = steady_gt(span=1.0)
        with pytest.raises(DomainError):
            synth_three_phase(gt, 0.5, 10_000)


# ------------------------------------------------------------ sampling grid

def span_gt(lo: float, hi: float, fs: float = 10_000.0) -> GroundTruth:
    return GroundTruth.from_anchors(series((lo, 230.0), (hi, 230.0)),
                                    series((lo, 50.0), (hi, 50.0)), fs=fs)


class TestSamplingGrid:
    def test_grid_index_within_tolerance(self):
        fs = 10_000.0
        assert grid_index(0.0, fs) == 0
        assert grid_index(0.1 + 0.2, fs) == 3000
        assert grid_index(-1.5, fs) == -15_000
        assert grid_index((7 + 0.5 * GRID_ALIGN_TOL) / fs, fs) == 7
        for off_grid in (1.23456e-5, (7 + 2 * GRID_ALIGN_TOL) / fs):
            with pytest.raises(InvalidInputError, match="sampling grid"):
                grid_index(off_grid, fs)

    @given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 100.0),
           fs=st.sampled_from([10_000.0, 8_000.0, 12_800.0, 3_000.0, 48_000.0]))
    @example(lo=1e-14, width=3.0, fs=10_000.0)
    @example(lo=0.0, width=3.0 - 1e-14, fs=10_000.0)
    @example(lo=0.1 + 0.2, width=3.0, fs=10_000.0)
    def test_sample_span_is_the_span_of_sample_instants(self, lo, width, fs):
        gt = span_gt(lo, lo + width, fs)
        lo, hi = gt.domain
        n_lo, n_hi = gt.sample_span
        assert n_lo / fs >= lo > (n_lo - 1) / fs
        assert n_hi / fs <= hi < (n_hi + 1) / fs

    @pytest.mark.parametrize("lo, hi", [(1e-14, 3.0), (0.0, 3.0 - 1e-14), (0.1 + 0.2, 3.3)])
    def test_synthesis_reaches_exactly_the_sample_span(self, lo, hi):
        # span edges a rounding error away from a sample instant
        gt = span_gt(lo, hi)
        n_lo, n_hi = gt.sample_span
        block = synth_three_phase(gt, n_lo / gt.fs, n_hi - n_lo + 1)
        assert block.sample_span == (n_lo, n_hi)
        for first, last in ((n_lo - 1, n_hi), (n_lo, n_hi + 1)):
            with pytest.raises(DomainError):
                synth_three_phase(gt, first / gt.fs, last - first + 1)

    def test_from_anchors_refuses_before_fitting(self):
        # the far anchor lies outside the common span, yet its 1e200 s
        # interval would overflow pchip_fit's hi * hi
        far = series((0.0, 230.0), (1e200, 230.0))
        with pytest.raises(InvalidInputError, match=r"\[0.0, 1e\+200\] s reach 2\*\*51 samples"):
            GroundTruth.from_anchors(far, series((0.0, 50.0), (2.0, 50.0)))
        for phase0 in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="phase0 must be finite"):
                steady_gt(phase0=phase0)

    def test_order_checks_do_not_overflow(self):
        # neighbour comparison, not a difference that overflows to inf
        big = np.finfo(float).max
        AnchorSeries(np.array([-big, big]), np.array([1.0, 1.0]))
        PiecewisePoly(np.array([-big, 0.0, big]), np.zeros((2, 1)))
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            AnchorSeries(np.array([big, -big]), np.array([1.0, 1.0]))


# ------------------------------------------------------- evaluation memory

def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvaluationMemory:
    # a float64 array of one value per sample holds 8 * N bytes
    N = 300_000

    def oscillating_gt(self) -> GroundTruth:
        times = np.linspace(0.0, 40.0, 81)
        return GroundTruth.from_anchors(
            AnchorSeries(times, 230.0 + 5.0 * np.sin(times)),
            AnchorSeries(times, 50.0 + 0.2 * np.cos(times)),
        )

    def test_phase_evaluation_peak_below_five_sample_arrays(self):
        gt = self.oscillating_gt()
        t = np.linspace(0.0, 40.0, self.N)
        assert traced_peak(lambda: gt.phase(t)) < 5 * 8 * self.N

    def test_synthesis_peak_below_four_sample_arrays(self):
        # the (3, N) result is three of them; slices keep the rest below one
        gt = self.oscillating_gt()
        assert traced_peak(lambda: synth_three_phase(gt, 1.0, self.N)) < 4 * 8 * self.N


# ----------------------------------------------------------- eval_reference

class TestEvalReference:
    def test_steady_nominal(self):
        gt = steady_gt(amp=230.0)
        phasor, freq, rocof = eval_reference(gt, 3.0)
        assert phasor == pytest.approx(230.0 + 0.0j, abs=1e-9)
        assert freq == pytest.approx(50.0, abs=1e-12)
        assert rocof == pytest.approx(0.0, abs=1e-12)

    def test_half_hertz_offset_angle(self):
        gt = steady_gt(amp=230.0, freq=50.5, span=2.0)
        phasor, freq, _ = eval_reference(gt, 1.0)
        assert freq == pytest.approx(50.5, abs=1e-12)
        assert math.atan2(phasor.imag, phasor.real) == pytest.approx(math.pi, abs=1e-9)

    def test_phasor_magnitude_equals_amplitude_poly(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (1.0, 210.0), (2.0, 225.0)),
            series((0.0, 50.0), (1.0, 49.8), (2.0, 50.1)),
        )
        t = np.linspace(0.0, 2.0, 257)
        phasor, _, _ = eval_reference(gt, t)
        np.testing.assert_allclose(np.abs(phasor), gt.amplitude(t), rtol=1e-14)


# ------------------------------------------------------ module invariants

class TestWaveformInvariants:
    def test_phase_derivative_recovers_frequency_deviation(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (1.5, 200.0), (3.0, 220.0)),
            series((0.0, 50.0), (0.7, 49.4), (1.9, 50.3), (3.0, 50.0)),
        )
        rng = np.random.default_rng(3)
        h = 1e-6
        t = rng.uniform(0.01, 2.99, 100)
        t = t[np.all(np.abs(t[:, None] - gt.frequency.breakpoints[None, :]) > 2 * h, axis=1)]
        fd = (gt.phase(t + h) - gt.phase(t - h)) / (2 * h)
        expected = 2 * math.pi * (gt.frequency(t) - gt.f0)
        np.testing.assert_allclose(fd, expected, atol=1e-5)

    def test_rocof_is_frequency_derivative(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (2.0, 230.0)),
            series((0.0, 50.0), (0.5, 49.7), (1.2, 50.2), (2.0, 50.0)),
        )
        h = 1e-5
        t = np.array([0.2, 0.8, 1.5, 1.9])
        fd = (gt.frequency(t + h) - gt.frequency(t - h)) / (2 * h)
        np.testing.assert_allclose(gt.rocof(t), fd, atol=1e-6)

    def test_positive_sequence_purity(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (1.0, 180.0), (2.0, 220.0)),
            series((0.0, 50.0), (1.0, 49.0), (2.0, 50.2)),
        )
        for t in (0.1, 0.9, 1.6):
            amp = gt.amplitude(t)
            phase = gt.phase(t)
            per_phase = [amp * np.exp(1j * (phase - 2 * math.pi * p / 3)) for p in range(3)]
            pos = fortescue_positive(*per_phase)
            ref, _, _ = eval_reference(gt, t)
            assert pos == pytest.approx(ref, rel=1e-14)
            alpha = np.exp(2j * math.pi / 3)
            neg = (per_phase[0] + alpha ** 2 * per_phase[1] + alpha * per_phase[2]) / 3
            zero = sum(per_phase) / 3
            assert abs(neg) < 1e-12 * amp
            assert abs(zero) < 1e-12 * amp

    def test_restrict_preserves_values(self):
        poly = pchip_fit(series((0, 1.0), (1, 3.0), (2, 2.0), (3, 5.0)))
        sub = poly.restrict(0.4, 2.6)
        t = np.linspace(0.4, 2.6, 301)
        np.testing.assert_allclose(sub(t), poly(t), rtol=0, atol=1e-12)
        with pytest.raises(DomainError):
            sub(0.3)

    def test_antiderivative_is_continuous(self):
        poly = pchip_fit(series((0, 1.0), (1, -2.0), (2, 0.5), (3, 1.5)))
        integral = poly.antiderivative(initial=0.7)
        assert integral(0.0) == pytest.approx(0.7, abs=1e-15)
        for bp in poly.breakpoints[1:-1]:
            below = integral(bp - 1e-12)
            above = integral(bp + 1e-12)
            assert below == pytest.approx(above, abs=1e-9)
