"""Tests for ground-truth profile construction and three-phase synthesis."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pmustream import waveform
from pmustream.errors import DomainError, InvalidInputError
from pmustream.estimators import fortescue_positive
from pmustream.waveform import (
    GRID_ALIGN_TOL,
    AnchorSeries,
    GroundTruth,
    PiecewisePoly,
    SQRT2,
    SYNTH_CHUNK,
    SampleBlock,
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

MALFORMED = {
    "anchors_2d": (lambda: AnchorSeries(np.zeros((2, 2)), np.zeros((2, 2))), "1-D"),
    "anchors_unequal": (lambda: AnchorSeries(np.arange(3.0), np.zeros(2)), "equal length"),
    "poly_no_piece": (lambda: PiecewisePoly(np.array([0.0]), np.zeros((0, 4))),
                      "at least one polynomial piece"),
    "poly_row_count": (lambda: PiecewisePoly(np.arange(3.0), np.zeros((1, 4))),
                       "rows must match interval count"),
    "poly_out_of_order": (lambda: PiecewisePoly(np.array([0.0, 2.0, 1.0]), np.zeros((2, 4))),
                          "strictly increasing"),
}


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

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejects_malformed_series_and_polynomials(self, case):
        build, message = MALFORMED[case]
        with pytest.raises(InvalidInputError, match=message):
            build()


# ------------------------------------------- fit and shift, loop-form oracle

def loop_pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pchip_fit's coefficient table one slope and one interval at a time,
    with a clamp on each limiter ratio that might go negative."""
    h = np.diff(x)
    d = np.diff(y) / h
    n = x.size

    m = np.empty(n)
    m[0] = d[0]
    m[-1] = d[-1]
    for i in range(1, n - 1):
        m[i] = 0.0 if d[i - 1] * d[i] <= 0 else 0.5 * (d[i - 1] + d[i])

    for i in range(n - 1):
        if d[i] == 0.0:
            m[i] = 0.0
            m[i + 1] = 0.0
            continue
        a = m[i] / d[i]
        b = m[i + 1] / d[i]
        if a < 0:
            m[i] = 0.0
            a = 0.0
        if b < 0:
            m[i + 1] = 0.0
            b = 0.0
        s = a * a + b * b
        if s > 9.0:
            tau = 3.0 / math.sqrt(s)
            m[i] = tau * a * d[i]
            m[i + 1] = tau * b * d[i]

    coeffs = np.empty((n - 1, 4))
    for i in range(n - 1):
        hi = h[i]
        di = (y[i + 1] - y[i]) / hi
        coeffs[i, 3] = y[i]
        coeffs[i, 2] = m[i]
        coeffs[i, 1] = (3.0 * di - 2.0 * m[i] - m[i + 1]) / hi
        coeffs[i, 0] = (m[i] + m[i + 1] - 2.0 * di) / (hi * hi)
    return coeffs


def loop_shift_origin(coeffs: np.ndarray, s: float) -> np.ndarray:
    """_shift_origin with a table of derivative factors and a guard for the
    empty derivative of a constant."""
    deg = coeffs.size - 1
    shifted = np.empty_like(coeffs)
    work = coeffs.copy()
    powers = np.arange(deg, 0, -1, dtype=float)
    fact = 1.0
    for k in range(deg + 1):
        shifted[deg - k] = waveform._horner(work, s) / fact
        work = work[:-1] * powers[k:] if work.size > 1 else np.array([])
        if work.size == 0:
            work = np.array([0.0])
        fact *= k + 1
    return shifted


def loop_ground_truth(amplitude: AnchorSeries, frequency: AnchorSeries) -> GroundTruth:
    """GroundTruth.from_anchors from the loop-form fit and shift, restricting
    only a fit whose domain is not the common span."""
    lo = max(amplitude.domain[0], frequency.domain[0])
    hi = min(amplitude.domain[1], frequency.domain[1])
    fits = []
    with mock.patch.object(waveform, "_shift_origin", loop_shift_origin):
        for anchors in (amplitude, frequency):
            fit = PiecewisePoly(anchors.times,
                                loop_pchip_coefficients(anchors.times, anchors.values))
            fits.append(fit.restrict(lo, hi) if fit.domain != (lo, hi) else fit)
    amp, freq = fits
    return GroundTruth(amp, freq, integrate_phase(freq, 50.0), freq.derivative(), 50.0, 10_000.0)


@st.composite
def anchor_arrays(draw, starts=st.floats(-100.0, 100.0), steps=st.floats(1e-3, 10.0)):
    """Anchor times and values, n from 2; the values mix a few repeated
    levels (flat runs, extrema) with arbitrary ones (steep steps)."""
    n = draw(st.integers(2, 12))
    t0 = draw(starts)
    widths = draw(st.lists(steps, min_size=n - 1, max_size=n - 1))
    level = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 100.0]), st.floats(-1e3, 1e3))
    values = draw(st.lists(level, min_size=n, max_size=n))
    return t0 + np.concatenate(([0.0], np.cumsum(widths))), np.array(values)


# one example each: two anchors; a flat run (d == 0); a local extremum (the
# secants change sign); a steep step after a shallow one (a^2 + b^2 > 9)
TWO_POINTS = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
FLAT_RUN = (np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0, 2.0]))
EXTREMUM = (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 2.0, 1.0, 3.0]))
STEEP_STEP = (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.05, 4.0]))


class TestFitMatchesLoopOracle:
    """The array-form fit and origin shift give every coefficient bit for bit
    as the loop form does."""

    @given(points=anchor_arrays())
    @example(points=TWO_POINTS)
    @example(points=FLAT_RUN)
    @example(points=EXTREMUM)
    @example(points=STEEP_STEP)
    def test_pchip_coefficients_bitwise(self, points):
        x, y = points
        # secants whose ratio passes 1e154 overflow the limiter's a * a in both
        # forms, and the oracle's numpy scalars warn; the comparison holds on
        # that path too
        with np.errstate(over="ignore", invalid="ignore"):
            got = pchip_fit(AnchorSeries(x, y))
            want = loop_pchip_coefficients(x, y)
        assert got.coefficients.tobytes() == want.tobytes()

    def test_overflowing_limiter_fits_without_warning(self):
        # a * a overflows at the second secant; the fit runs under the suite's
        # error::RuntimeWarning filter, only the numpy oracle needs errstate
        x, y = np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 1.07e-277])
        got = pchip_fit(AnchorSeries(x, y))
        with np.errstate(over="ignore"):
            want = loop_pchip_coefficients(x, y)
        assert got.coefficients.tobytes() == want.tobytes()

    @given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
           s=st.floats(-10.0, 10.0))
    @example(coeffs=[3.5], s=0.25)
    def test_shift_origin_bitwise(self, coeffs, s):
        co = np.array(coeffs)
        assert waveform._shift_origin(co, s).tobytes() == loop_shift_origin(co, s).tobytes()

    @given(amplitude=anchor_arrays(st.floats(-1.0, 1.0), st.floats(0.1, 2.0)),
           frequency=anchor_arrays(st.floats(-1.0, 1.0), st.floats(0.1, 2.0)))
    @example(amplitude=(np.array([0.0, 1.0, 2.5, 4.0]), np.array([230.0, 229.0, 231.0, 230.0])),
             frequency=(np.array([0.5, 1.5, 3.0]), np.array([50.0, 49.5, 50.0])))
    def test_from_anchors_on_unequal_spans_bitwise(self, amplitude, frequency):
        amp, freq = AnchorSeries(*amplitude), AnchorSeries(*frequency)
        lo, hi = max(amp.domain[0], freq.domain[0]), min(amp.domain[1], freq.domain[1])
        assume(lo < hi and amp.domain != freq.domain)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = GroundTruth.from_anchors(amp, freq), loop_ground_truth(amp, freq)
        for name in ("amplitude", "frequency", "phase", "rocof"):
            got_poly, want_poly = getattr(got, name), getattr(want, name)
            assert got_poly.breakpoints.tobytes() == want_poly.breakpoints.tobytes(), name
            assert got_poly.coefficients.tobytes() == want_poly.coefficients.tobytes(), name


def clip_piece_index(poly: PiecewisePoly, t: np.ndarray) -> np.ndarray:
    """The piece of each time as first written: a search of every breakpoint,
    clipped to the pieces."""
    idx = np.searchsorted(poly.breakpoints, t, side="right") - 1
    return np.clip(idx, 0, poly.coefficients.shape[0] - 1)


class TestPieceIndexMatchesClipForm:
    @given(points=anchor_arrays(), fractions=st.lists(st.floats(0.0, 1.0), max_size=8))
    @example(points=TWO_POINTS, fractions=[])
    def test_piece_index_bitwise(self, points, fractions):
        # every breakpoint, one ulp either side of it inside the domain, both
        # domain ends and a few times in between
        poly = pchip_fit(AnchorSeries(*points))
        bp = poly.breakpoints
        lo, hi = poly.domain
        t = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                            lo + (hi - lo) * np.array(fractions)])
        t = t[(t >= lo) & (t <= hi)]
        assert poly._piece_index(t).tobytes() == clip_piece_index(poly, t).tobytes()

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

    def test_constant_piece_derivative_is_zero(self):
        rocof = PiecewisePoly(np.array([0.0, 1.0, 3.0]), np.array([[2.0], [-4.0]])).derivative()
        assert rocof.coefficients.tobytes() == np.zeros((2, 1)).tobytes()

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

    @pytest.mark.parametrize("build, message", [
        (lambda: SampleBlock(0, 10_000.0, np.zeros((2, 4))), r"shape \(3, n\)"),
        (lambda: SampleBlock(0, 10_000.0, np.full((3, 4), np.nan)), "finite"),
        (lambda: synth_three_phase(steady_gt(), 0.0, 0), "at least one sample"),
    ], ids=["two_phases", "nan_samples", "no_samples"])
    def test_malformed_block_rejected(self, build, message):
        with pytest.raises(InvalidInputError, match=message):
            build()


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
        with pytest.raises(DomainError, match="non-empty sub-interval"):
            poly.restrict(0.8, 0.2)

    def test_restrict_refuses_nan_bounds(self):
        poly = pchip_fit(series((0, 1.0), (1, 3.0), (2, 2.0), (3, 5.0)))
        for lo, hi in ((math.nan, 2.5), (0.5, math.nan), (math.nan, math.nan)):
            with pytest.raises(DomainError, match="non-empty sub-interval"):
                poly.restrict(lo, hi)

    def test_antiderivative_is_continuous(self):
        poly = pchip_fit(series((0, 1.0), (1, -2.0), (2, 0.5), (3, 1.5)))
        integral = poly.antiderivative(initial=0.7)
        assert integral(0.0) == pytest.approx(0.7, abs=1e-15)
        for bp in poly.breakpoints[1:-1]:
            below = integral(bp - 1e-12)
            above = integral(bp + 1e-12)
            assert below == pytest.approx(above, abs=1e-9)
