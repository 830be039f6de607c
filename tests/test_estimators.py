"""Tests for the two P-class estimation algorithms and their shared plumbing."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmustream.errors import DegenerateSignalError, InvalidInputError
from pmustream.estimators import (
    EstimatorConfig,
    EstimatorKind,
    MeasurementTriplet,
    _check_frequency,
    _hann_spectrum,
    _ipdft_windows,
    _piec_tables,
    _report_index,
    _triangle_gain,
    _triangle_weights,
    fortescue_positive,
    ipdft_estimate,
    p_iec_estimate,
    run_estimator,
)
from pmustream.pipeline import parse_profile, resolve_profile
from pmustream.waveform import (
    SQRT2,
    AnchorSeries,
    GroundTruth,
    SampleBlock,
    eval_reference,
    synth_three_phase,
)

CFG = EstimatorConfig()


def series(*points) -> AnchorSeries:
    return AnchorSeries.from_points(points)


def steady_gt(freq=50.0, amp=230.0, span=3.0) -> GroundTruth:
    return GroundTruth.from_anchors(
        series((0.0, amp), (span, amp)),
        series((0.0, freq), (span, freq)),
    )


def block_for(gt: GroundTruth, t0=0.0, seconds=None) -> "SampleBlock":
    span = seconds if seconds is not None else gt.domain[1] - t0
    return synth_three_phase(gt, t0, round(span * gt.fs) + 1)


def tve_of(estimate: complex, reference: complex) -> float:
    return 100.0 * abs(estimate - reference) / abs(reference)


# ------------------------------------------------------- fortescue_positive

class TestFortescue:
    def test_balanced_positive_sequence(self):
        alpha = cmath.exp(2j * math.pi / 3)
        xa, xb, xc = 1.0, 1.0 / alpha, 1.0 / (alpha * alpha)
        assert fortescue_positive(xa, xb, xc) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_zero_sequence_rejected(self):
        assert fortescue_positive(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(5)
        alpha = np.exp(2j * math.pi / 3)
        row = np.array([1.0, alpha, alpha ** 2]) / 3.0
        for _ in range(50):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            expected = row @ x
            got = fortescue_positive(*x)
            assert abs(got - expected) <= 1e-14 * abs(expected)


# ---------------------------------------------------------- p_iec_estimate

class TestPIecEstimate:
    def test_steady_nominal_exact(self):
        gt = steady_gt()
        block = block_for(gt)
        m = p_iec_estimate(block, CFG, 1.0)
        ref, _, _ = eval_reference(gt, 1.0)
        assert tve_of(m.phasor, ref) < 1e-6
        assert m.frequency == pytest.approx(50.0, abs=1e-6)
        assert m.rocof == pytest.approx(0.0, abs=1e-4)

    def test_steady_off_nominal_p_class(self):
        gt = steady_gt(freq=50.5)
        block = block_for(gt)
        m = p_iec_estimate(block, CFG, 1.5)
        ref, ref_f, _ = eval_reference(gt, 1.5)
        assert tve_of(m.phasor, ref) <= 1.0
        assert abs(m.frequency - ref_f) <= 5e-3

    def test_ramp_rocof_matches_ground_truth(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (2.0, 230.0)),
            series((0.0, 49.0), (2.0, 51.0)),
        )
        block = block_for(gt)
        m = p_iec_estimate(block, CFG, 1.0)
        _, ref_f, ref_r = eval_reference(gt, 1.0)
        assert ref_r == pytest.approx(1.0, abs=1e-12)
        assert m.rocof == pytest.approx(ref_r, abs=0.01)
        assert m.frequency == pytest.approx(ref_f, abs=1e-3)

    def test_window_too_short_rejected(self):
        gt = steady_gt(span=1.0)
        block = synth_three_phase(gt, 0.0, 300)
        with pytest.raises(InvalidInputError):
            p_iec_estimate(block, CFG, 0.02)

    def test_off_grid_report_rejected(self):
        gt = steady_gt()
        block = block_for(gt)
        with pytest.raises(InvalidInputError):
            p_iec_estimate(block, CFG, 1.000037)


# ----------------------------------------------------------- ipdft_estimate

class TestIpdftEstimate:
    def test_steady_nominal_two_iterations(self):
        gt = steady_gt()
        block = block_for(gt)
        m = ipdft_estimate(block, CFG, 1.0, iterations=2)
        ref, _, _ = eval_reference(gt, 1.0)
        assert tve_of(m.phasor, ref) < 1e-8
        assert m.frequency == pytest.approx(50.0, abs=1e-9)

    def test_steady_off_nominal_p_class(self):
        gt = steady_gt(freq=50.5)
        block = block_for(gt)
        m = ipdft_estimate(block, CFG, 1.5)
        ref, ref_f, _ = eval_reference(gt, 1.5)
        assert tve_of(m.phasor, ref) <= 1.0
        assert abs(m.frequency - ref_f) <= 5e-3

    def test_per_phase_frequency_agreement(self):
        gt = steady_gt(freq=49.7)
        block = block_for(gt)
        ic = round(1.0 * CFG.fs)
        _, freqs = _ipdft_windows(block, np.array([ic - block.start_index]), CFG, iterations=3)
        assert np.max(freqs) - np.min(freqs) < 1e-6
        assert np.mean(freqs) == pytest.approx(49.7, abs=1e-3)

    def test_zero_signal_degenerate(self):
        gt = steady_gt(amp=0.0)
        block = block_for(gt)
        with pytest.raises(DegenerateSignalError):
            ipdft_estimate(block, CFG, 1.0)

    def test_window_too_short_rejected(self):
        gt = steady_gt(span=1.0)
        block = synth_three_phase(gt, 0.0, 500)
        with pytest.raises(InvalidInputError):
            ipdft_estimate(block, CFG, 0.03)


# ------------------------------------- array I-IpDFT against the scalar oracle
#
# The oracle is the original scalar I-IpDFT: three Dirichlet kernels per Hann
# transform and one image-removal loop per phase and window.

@lru_cache(maxsize=8)
def _hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)


@lru_cache(maxsize=8)
def _bin_kernel(n: int, k0: int) -> np.ndarray:
    ks = np.arange(k0 - 1, k0 + 2)
    return np.exp(-2j * math.pi * np.outer(ks, np.arange(n)) / n)


def _dirichlet(lam: float, n: int) -> complex:
    """Sum of ``exp(-2j*pi*lam*k/n)`` for k = 0..n-1, at continuous ``lam``."""
    if lam == 0.0:
        return complex(n)
    ratio = math.sin(math.pi * lam) / math.sin(math.pi * lam / n)
    return cmath.exp(-1j * math.pi * lam * (n - 1) / n) * ratio


def _hann_transform(lam: float, n: int) -> complex:
    """Continuous-frequency transform of the periodic Hann window, in bins."""
    return 0.5 * _dirichlet(lam, n) - 0.25 * (_dirichlet(lam - 1.0, n) + _dirichlet(lam + 1.0, n))


def _hann_delta(bins: np.ndarray) -> float:
    """Fractional bin offset from three Hann-windowed bin magnitudes."""
    am, a0, ap = np.abs(bins)
    denom = am + 2.0 * a0 + ap
    if denom == 0.0:
        raise DegenerateSignalError("all DFT bins vanish")
    return 2.0 * (ap - am) / denom


def _ipdft_window(block: SampleBlock, ic: int, config: EstimatorConfig,
                  iterations: int) -> tuple[complex, np.ndarray]:
    """Phasor and per-phase frequencies from a three-cycle window at ``ic``."""
    n = 3 * config.m
    half = n // 2
    k0 = 3
    i0 = ic - half
    if i0 < 0 or i0 + n > block.n:
        raise InvalidInputError("sample window too short for the three-cycle spectrum")

    seg = block.samples[:, i0:i0 + n]
    xw = seg * _hann_window(n)
    bins_all = xw @ _bin_kernel(n, k0).T  # (3 phases, 3 bins)

    scale = math.sqrt(float(np.sum(xw * xw)) * n)
    if scale == 0.0 or np.min(np.abs(bins_all[:, 1])) < 1e-12 * scale:
        raise DegenerateSignalError("fundamental bin below the noise floor")

    t_center = (block.start_index + ic) / config.fs
    bin_ks = (float(k0 - 1), float(k0), float(k0 + 1))
    phasors = np.empty(3, dtype=complex)
    freqs = np.empty(3)
    for p in range(3):
        orig = bins_all[p]
        work = orig
        delta = _hann_delta(work)
        for _ in range(iterations):
            coeff = work[1] / _hann_transform(-delta, n)
            conj_coeff = coeff.conjugate()
            work = orig - np.array(
                [conj_coeff * _hann_transform(k + k0 + delta, n) for k in bin_ks])
            delta = _hann_delta(work)
        nu = k0 + delta
        coeff = work[1] / _hann_transform(-delta, n)
        freqs[p] = nu * config.fs / n
        # coeff holds (A/sqrt(2))*exp(j*angle at first window sample)
        total_angle = cmath.phase(coeff) + math.pi * nu
        sync_angle = total_angle - 2.0 * math.pi * config.f0 * t_center
        phasors[p] = abs(coeff) * SQRT2 * cmath.exp(1j * sync_angle)

    return fortescue_positive(phasors[0], phasors[1], phasors[2]), freqs


def scalar_ipdft_estimate(block: SampleBlock, config: EstimatorConfig, t_report: float,
                          iterations: int) -> MeasurementTriplet:
    ic = round(t_report * config.fs) - block.start_index
    phasor, freqs = _ipdft_window(block, ic, config, iterations)
    _, freqs_prev = _ipdft_window(block, ic - config.r, config, iterations)
    freq = float(np.mean(freqs))
    rocof = (freq - float(np.mean(freqs_prev))) * config.internal_rate
    return MeasurementTriplet(t_report, phasor, freq, rocof)


def sinusoid_block(freq: float, amp: float, phase0: float, scales, rocof: float = 0.0) -> SampleBlock:
    """0.2 s of three-phase samples from t = 0.1 s; phase p scaled by ``scales[p]``."""
    start = round(0.1 * CFG.fs)
    t = (start + np.arange(round(0.2 * CFG.fs))) / CFG.fs
    angle = 2.0 * math.pi * (freq * t + 0.5 * rocof * t * t) + phase0
    samples = np.array([
        SQRT2 * amp * s * np.cos(angle - 2.0 * math.pi * p / 3) for p, s in enumerate(scales)
    ])
    return SampleBlock(start, CFG.fs, samples)


class TestIpdftKernelMatchesScalarOracle:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -1.0, 0.25, -0.37, 2.0, 5.0 + 1e-9, 6.5, 7.0])
    def test_closed_form_transform(self, lam):
        # lam = 0 and lam = -1, 1 are the removable singularities of its terms
        n = 3 * CFG.m
        got = _hann_spectrum(np.array([lam]), n)[0]
        assert abs(got - _hann_transform(lam, n)) <= 1e-12 * n

    @settings(max_examples=60, deadline=None)
    @given(
        freq=st.floats(45.0, 55.0),
        amp=st.floats(1.0, 400.0),
        phase0=st.floats(-math.pi, math.pi),
        scales=st.tuples(*[st.floats(0.5, 1.5)] * 3),
        iterations=st.integers(0, 3),
        rocof=st.floats(-1.0, 1.0),
    )
    @example(freq=50.0, amp=230.0, phase0=0.0, scales=(1.0, 1.0, 1.0), iterations=3, rocof=0.0)
    @example(freq=50.0, amp=100.0, phase0=1.0, scales=(1.0, 0.7, 1.3), iterations=0, rocof=0.0)
    def test_estimate_matches_scalar_oracle(self, freq, amp, phase0, scales, iterations, rocof):
        block = sinusoid_block(freq, amp, phase0, scales, rocof)
        t_report = 0.2
        got = ipdft_estimate(block, CFG, t_report, iterations=iterations)
        ref = scalar_ipdft_estimate(block, CFG, t_report, iterations)
        assert abs(got.phasor - ref.phasor) <= 1e-12 * abs(ref.phasor)
        assert abs(got.frequency - ref.frequency) <= 1e-12
        assert abs(got.rocof - ref.rocof) <= 1e-9

    def test_batch_of_windows_matches_oracle_per_window(self):
        block = sinusoid_block(49.3, 230.0, 0.4, (1.0, 0.9, 1.1), rocof=0.5)
        centers = np.array([900, 1000, 1037])
        phasors, freqs = _ipdft_windows(block, centers, CFG, iterations=3)
        for b, ic in enumerate(centers):
            ref_phasor, ref_freqs = _ipdft_window(block, int(ic), CFG, 3)
            assert abs(phasors[b] - ref_phasor) <= 1e-12 * abs(ref_phasor)
            assert np.max(np.abs(freqs[:, b] - ref_freqs)) <= 1e-12

    def test_all_zero_window_degenerate_like_oracle(self):
        block = sinusoid_block(50.0, 0.0, 0.0, (1.0, 1.0, 1.0))
        message = "fundamental bin below the noise floor"
        with pytest.raises(DegenerateSignalError, match=message):
            ipdft_estimate(block, CFG, 0.2)
        with pytest.raises(DegenerateSignalError, match=message):
            scalar_ipdft_estimate(block, CFG, 0.2, 3)


# ---------------------------------- p_iec kernel against the scalar oracle
#
# The oracle is the original per-report p_iec: a complex carrier evaluated at
# absolute sample times, one FIR matmul and one Fortescue call per offset, and
# np.unwrap over the three angles.

def _oracle_offsets(block: SampleBlock, config: EstimatorConfig, ic: int) -> np.ndarray:
    """Positive-sequence filter outputs at offsets 0, 1, 2 of the window at ``ic``."""
    m = config.m
    idx = np.arange(ic - m, ic + m + 1)
    t = (block.start_index + idx) / config.fs
    carrier = SQRT2 * np.exp(-2j * math.pi * config.f0 * t)
    demod = block.samples[:, ic - m:ic + m + 1] * carrier

    w = _triangle_weights(m)
    pos = np.empty(3, dtype=complex)
    for o in range(3):
        per_phase = demod[:, o:o + 2 * m - 1] @ w
        pos[o] = fortescue_positive(per_phase[0], per_phase[1], per_phase[2])
    return pos


def scalar_p_iec_estimate(block: SampleBlock, config: EstimatorConfig,
                          t_report: float) -> MeasurementTriplet:
    m = config.m
    ic = _report_index(block, config.fs, t_report)
    if ic - m < 0 or ic + m >= block.n:
        raise InvalidInputError("sample window too short for the triangular filter")

    pos = _oracle_offsets(block, config, ic)

    ang = np.unwrap(np.angle(pos))
    ts = config.ts
    freq = config.f0 + (ang[2] - ang[0]) / (4.0 * math.pi * ts)
    rocof = (ang[2] - 2.0 * ang[1] + ang[0]) / (2.0 * math.pi * ts * ts)
    _check_frequency(freq, config)
    phasor = pos[1] / _triangle_gain(freq - config.f0, m, ts)
    return MeasurementTriplet(t_report, complex(phasor), float(freq), float(rocof))


def report_block(n_report: int, freq: float, amp: float, phase0: float, scales,
                 rocof: float = 0.0) -> SampleBlock:
    """Two cycles of samples either side of sample ``n_report``; phase p scaled by ``scales[p]``.

    The frequency is ``freq`` at the report and ramps at ``rocof`` Hz/s.
    """
    start = n_report - 2 * CFG.m
    t = (start + np.arange(4 * CFG.m + 1)) / CFG.fs
    dt = t - n_report / CFG.fs
    angle = 2.0 * math.pi * (freq * t + 0.5 * rocof * dt * dt) + phase0
    samples = np.array([
        SQRT2 * amp * s * np.cos(angle - 2.0 * math.pi * p / 3) for p, s in enumerate(scales)
    ])
    return SampleBlock(start, CFG.fs, samples)


class TestPiecKernelMatchesScalarOracle:
    @settings(max_examples=80)
    @given(
        freq=st.floats(45.0, 55.0),
        amp=st.floats(1.0, 400.0),
        phase0=st.floats(-math.pi, math.pi),
        scales=st.tuples(*[st.floats(0.5, 1.5)] * 3),
        rocof=st.floats(-1.0, 1.0),
        n_report=st.integers(0, 120 * round(CFG.fs)),
    )
    @example(freq=50.0, amp=230.0, phase0=0.0, scales=(1.0, 1.0, 1.0), rocof=0.0, n_report=10_000)
    @example(freq=50.0, amp=100.0, phase0=1.0, scales=(1.0, 0.7, 1.3), rocof=0.0,
             n_report=1_000_000)
    @example(freq=49.5, amp=230.0, phase0=-2.0, scales=(1.0, 1.0, 1.0), rocof=1.0,
             n_report=1_200_000)
    def test_estimate_matches_scalar_oracle(self, freq, amp, phase0, scales, rocof, n_report):
        block = report_block(n_report, freq, amp, phase0, scales, rocof)
        t_report = n_report / CFG.fs
        got = p_iec_estimate(block, CFG, t_report)
        ref = scalar_p_iec_estimate(block, CFG, t_report)
        assert abs(got.phasor - ref.phasor) <= 5e-12 * abs(ref.phasor)
        assert abs(got.frequency - ref.frequency) <= 5e-11
        assert abs(got.rocof - ref.rocof) <= 1e-6

    def test_kernel_equals_per_offset_fir_of_oracle(self):
        m = CFG.m
        block = report_block(1_003_457, 49.3, 230.0, 0.4, (1.0, 0.9, 1.1), rocof=0.5)
        ic = 2 * m
        kernel, roots = _piec_tables(m)
        window = block.samples[:, ic - m:ic + m + 1].reshape(-1)
        got = (window @ kernel).view(complex) * roots[(block.start_index + ic - m) % m]
        ref = _oracle_offsets(block, CFG, ic)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ------------------------- per-report arithmetic against its numpy-array form
#
# p_iec_estimate and ipdft_estimate moved their last per-report steps from
# small numpy arrays to plain floats; these are those steps as first written,
# which the estimators must reproduce bit for bit.

def array_form_p_iec_estimate(block: SampleBlock, config: EstimatorConfig,
                              t_report: float) -> MeasurementTriplet:
    m = config.m
    ic = _report_index(block, config.fs, t_report)
    kernel, roots = _piec_tables(m)
    window = block.samples[:, ic - m:ic + m + 1].reshape(-1)
    rotation = roots[(block.start_index + ic - m) % m]
    p0, p1, p2 = ((window @ kernel).view(complex) * rotation).tolist()
    step01 = cmath.phase(p1 * p0.conjugate())
    step12 = cmath.phase(p2 * p1.conjugate())
    ts = config.ts
    freq = config.f0 + (step01 + step12) / (4.0 * math.pi * ts)
    rocof = (step12 - step01) / (2.0 * math.pi * ts * ts)
    return MeasurementTriplet(t_report, p1 / _triangle_gain(freq - config.f0, m, ts),
                              freq, rocof)


def array_form_ipdft_estimate(block: SampleBlock, config: EstimatorConfig, t_report: float,
                              iterations: int) -> MeasurementTriplet:
    ic = _report_index(block, config.fs, t_report)
    phasors, freqs = _ipdft_windows(block, np.array([ic - config.r, ic]), config, iterations)
    freq_prev, freq = (float(f) for f in freqs.mean(axis=0))
    rocof = (freq - freq_prev) * config.internal_rate
    return MeasurementTriplet(t_report, complex(phasors[1]), freq, rocof)


def assert_same_triplet(got: MeasurementTriplet, want: MeasurementTriplet):
    # == on floats would let -0.0 pass for 0.0; compare the bits
    assert np.array([got.t, got.phasor.real, got.phasor.imag, got.frequency, got.rocof]
                    ).tobytes() == np.array([want.t, want.phasor.real, want.phasor.imag,
                                             want.frequency, want.rocof]).tobytes()


class TestPerReportArithmeticBitwise:
    @settings(max_examples=60)
    @given(
        freq=st.floats(45.0, 55.0),
        amp=st.floats(1.0, 400.0),
        phase0=st.floats(-math.pi, math.pi),
        scales=st.tuples(*[st.floats(0.5, 1.5)] * 3),
        rocof=st.floats(-1.0, 1.0),
        n_report=st.integers(0, 120 * round(CFG.fs)),
        iterations=st.integers(0, 3),
    )
    def test_random_signals(self, freq, amp, phase0, scales, rocof, n_report, iterations):
        block = report_block(n_report, freq, amp, phase0, scales, rocof)
        t_report = n_report / CFG.fs
        assert_same_triplet(p_iec_estimate(block, CFG, t_report),
                            array_form_p_iec_estimate(block, CFG, t_report))
        block = sinusoid_block(freq, amp, phase0, scales, rocof)
        assert_same_triplet(ipdft_estimate(block, CFG, 0.2, iterations=iterations),
                            array_form_ipdft_estimate(block, CFG, 0.2, iterations))

    @pytest.mark.parametrize("profile", ["abrupt_collapse", "ramp_amplitude_modulation"])
    def test_bundled_profile_reports(self, profile):
        gt = GroundTruth.from_anchors(*parse_profile(resolve_profile(profile)))
        block = block_for(gt, 0.0)
        for n in range(400, block.n - 400, 37):
            t_report = n / CFG.fs
            assert_same_triplet(p_iec_estimate(block, CFG, t_report),
                                array_form_p_iec_estimate(block, CFG, t_report))
            if n % 5 == 0:
                assert_same_triplet(ipdft_estimate(block, CFG, t_report),
                                    array_form_ipdft_estimate(block, CFG, t_report, 3))


# ------------------------------------------------------------ run_estimator

class TestRunEstimator:
    def test_inclusive_report_count(self):
        gt = steady_gt()
        for kind in (EstimatorKind("p_iec"), EstimatorKind("i_ipdft")):
            triplets = run_estimator(kind, gt, CFG, 1.0, 2.0)
            assert len(triplets) == 101

    def test_steady_reports_time_invariant(self):
        gt = steady_gt()
        triplets = run_estimator(EstimatorKind("p_iec"), gt, CFG, 1.0, 2.0)
        first = triplets[0]
        for m in triplets[1:]:
            assert abs(m.phasor - first.phasor) <= 1e-9 * abs(first.phasor)
            assert abs(m.frequency - first.frequency) <= 1e-9 * 50.0
            assert abs(m.rocof - first.rocof) <= 1e-6

    def test_batch_equals_individual_calls_bitwise(self):
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (3.0, 210.0)),
            series((0.0, 50.0), (3.0, 49.6)),
        )
        block = synth_three_phase(gt, 0.0, 30_001)
        for kind in (EstimatorKind("p_iec"), EstimatorKind("i_ipdft")):
            batch = run_estimator(kind, block, CFG, 1.0, 1.2)
            for h, m in enumerate(batch):
                t = (round(1.0 * CFG.fs) + h * CFG.r) / CFG.fs
                single = kind.estimate(block, CFG, t)
                assert single.phasor == m.phasor
                assert single.frequency == m.frequency
                assert single.rocof == m.rocof

    def test_range_outside_domain_rejected(self):
        gt = steady_gt(span=1.0)
        with pytest.raises(InvalidInputError):
            run_estimator(EstimatorKind("i_ipdft"), gt, CFG, 0.0, 1.0)

    @pytest.mark.parametrize("algorithm", ["p_iec", "i_ipdft"])
    def test_block_sampling_rate_must_match_config(self, algorithm):
        # read as 10 kHz samples, a 50 Hz signal sampled at 8 kHz reports 62.5 Hz
        gt = GroundTruth.from_anchors(series((0.0, 230.0), (3.0, 230.0)),
                                      series((0.0, 50.0), (3.0, 50.0)), fs=8_000.0)
        block = synth_three_phase(gt, 0.0, 24_001)
        kind = EstimatorKind(algorithm)
        for call in (lambda: kind.estimate(block, CFG, 1.0),
                     lambda: run_estimator(kind, block, CFG, 1.0, 1.2),
                     lambda: run_estimator(kind, gt, CFG, 1.0, 1.2),
                     lambda: run_estimator(kind, gt, CFG, 1.0003, 1.2)):
            with pytest.raises(InvalidInputError, match="block at 8000.0 Hz"):
                call()

    def test_failure_names_report_time_and_keeps_type(self):
        # 0 V from 1.0 s: the first report whose current window is all zero
        gt = GroundTruth.from_anchors(series((0.0, 230.0), (0.9, 230.0), (1.0, 0.0), (3.0, 0.0)),
                                      series((0.0, 50.0), (3.0, 50.0)))
        with pytest.raises(DegenerateSignalError, match=r"^report at t = 1\.03 s: "
                                                        r"fundamental bin below the noise floor$"):
            run_estimator(EstimatorKind("i_ipdft"), gt, CFG, 0.5, 2.0)


# ------------------------------------------------------- module invariants

class TestEstimatorInvariants:
    @pytest.mark.parametrize("algorithm", ["p_iec", "i_ipdft"])
    def test_amplitude_scaling_equivariance(self, algorithm):
        kind = EstimatorKind(algorithm)
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (2.0, 200.0)),
            series((0.0, 50.0), (2.0, 49.8)),
        )
        block = block_for(gt)
        # power-of-two scaling commutes exactly with float arithmetic, which
        # isolates the algorithmic property from difference-stencil roundoff
        scaled = SampleBlock(block.start_index, block.fs, block.samples * 4.0)
        base = kind.estimate(block, CFG, 1.0)
        big = kind.estimate(scaled, CFG, 1.0)
        assert abs(big.phasor - 4.0 * base.phasor) <= 1e-12 * abs(big.phasor)
        assert abs(big.frequency - base.frequency) <= 1e-12 * base.frequency
        assert abs(big.rocof - base.rocof) <= 1e-12 * max(1.0, abs(base.rocof))

    @pytest.mark.parametrize("algorithm", ["p_iec", "i_ipdft"])
    def test_amplitude_scaling_equivariance_generic_factor(self, algorithm):
        kind = EstimatorKind(algorithm)
        gt = GroundTruth.from_anchors(
            series((0.0, 230.0), (2.0, 200.0)),
            series((0.0, 50.0), (2.0, 49.8)),
        )
        block = block_for(gt)
        scaled = SampleBlock(block.start_index, block.fs, block.samples * 3.5)
        base = kind.estimate(block, CFG, 1.0)
        big = kind.estimate(scaled, CFG, 1.0)
        assert abs(big.phasor - 3.5 * base.phasor) <= 1e-12 * abs(big.phasor)
        assert abs(big.frequency - base.frequency) <= 1e-12 * base.frequency
        # a non-binary factor perturbs the angle at float precision; the
        # second-difference stencil amplifies that by 1/Ts^2
        assert abs(big.rocof - base.rocof) <= 1e-6

    @pytest.mark.parametrize("algorithm", ["p_iec", "i_ipdft"])
    def test_time_shift_covariance_at_nominal(self, algorithm):
        kind = EstimatorKind(algorithm)
        gt = steady_gt()
        block = block_for(gt)
        a = kind.estimate(block, CFG, 1.0)
        b = kind.estimate(block, CFG, 1.0 + 1.0 / CFG.f0)
        assert abs(a.phasor - b.phasor) <= 1e-9 * abs(a.phasor)

    def test_balanced_per_phase_consistency_tight(self):
        gt = steady_gt(freq=49.9)
        block = block_for(gt)
        ic = round(1.5 * CFG.fs) - block.start_index
        _, freqs = _ipdft_windows(block, np.array([ic]), CFG, iterations=3)
        assert np.max(freqs) - np.min(freqs) < 1e-9

    @pytest.mark.parametrize("algorithm", ["p_iec", "i_ipdft"])
    def test_compliance_envelope_spot_checks(self, algorithm):
        # single-report spot checks; the acceptance suite sweeps the full
        # 49.5..50.5 Hz range at 5 s per point
        kind = EstimatorKind(algorithm)
        for freq in (49.5, 50.0, 50.5):
            gt = steady_gt(freq=freq, span=1.0)
            triplets = run_estimator(kind, gt, CFG, 0.5, 0.5)
            ref, ref_f, ref_r = eval_reference(gt, 0.5)
            m = triplets[0]
            assert tve_of(m.phasor, ref) <= 1.0
            assert abs(m.frequency - ref_f) <= 5e-3
            assert abs(m.rocof - ref_r) <= 0.4

    def test_triplet_validates_fields(self):
        with pytest.raises(InvalidInputError):
            MeasurementTriplet(0.0, complex("nan"), 50.0, 0.0)
        with pytest.raises(InvalidInputError):
            MeasurementTriplet(0.0, 230.0 + 0j, math.inf, 0.0)

    def test_config_validates_geometry(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(f0=50.0, fs=10_001.0)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(internal_rate=3.0)
        # zero, negative and non-finite rates used to escape as
        # ZeroDivisionError, ValueError or OverflowError
        for bad in ({"f0": 0.0}, {"fs": -1e4}, {"fs": math.inf}, {"internal_rate": math.nan}):
            with pytest.raises(InvalidInputError, match="finite and strictly positive"):
                EstimatorConfig(**bad)
        assert CFG.m == 200
        assert CFG.r == 100
