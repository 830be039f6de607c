"""Synchrophasor, frequency and ROCOF estimation from three-phase samples.

Two P-class algorithms share a common reporting interface:

* ``p_iec_estimate`` demodulates each phase at the rated frequency, filters
  with a two-cycle triangular FIR, and derives frequency and ROCOF from
  symmetric first and second differences of the positive-sequence angle at
  the internal sample step.
* ``ipdft_estimate`` interpolates three DFT bins of a three-cycle
  Hann-windowed spectrum per phase, iteratively removing the negative
  frequency image, and derives ROCOF from a backward difference of
  consecutive internal frequency estimates.

Both timestamp at the window center and emit the positive-sequence phasor in
rms volts.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateSignalError, InvalidInputError, PmuStreamError, with_context
from .waveform import GroundTruth, SampleBlock, SQRT2, grid_index, synth_three_phase

ALGORITHMS = ("p_iec", "i_ipdft")
IPDFT_ITERATIONS = 3  # image-removal steps of i_ipdft unless configured
ALPHA = cmath.exp(2j * math.pi / 3)


@dataclass(frozen=True)
class MeasurementTriplet:
    """One report: positive-sequence phasor (rms volts), Hz, Hz/s."""

    t: float
    phasor: complex
    frequency: float
    rocof: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.frequency)
                and math.isfinite(self.rocof) and cmath.isfinite(self.phasor)):
            raise InvalidInputError("measurement fields must be finite")


@dataclass(frozen=True)
class TripletSeries:
    """Column-oriented view of a triplet sequence (for dense grids)."""

    t: np.ndarray
    phasor: np.ndarray
    frequency: np.ndarray
    rocof: np.ndarray

    @classmethod
    def from_triplets(cls, triplets: Sequence[MeasurementTriplet]) -> "TripletSeries":
        return cls(
            t=np.array([m.t for m in triplets]),
            phasor=np.array([m.phasor for m in triplets], dtype=complex),
            frequency=np.array([m.frequency for m in triplets]),
            rocof=np.array([m.rocof for m in triplets]),
        )

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling and reporting geometry shared by all estimators."""

    f0: float = 50.0
    fs: float = 10_000.0
    internal_rate: float = 100.0
    # derived: samples per nominal cycle and per internal reporting interval
    m: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        for name, value in (("f0", self.f0), ("fs", self.fs),
                            ("internal_rate", self.internal_rate)):
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be finite and strictly positive")
        for attr, name, rate in (("m", "f0", self.f0), ("r", "internal_rate", self.internal_rate)):
            ratio = self.fs / rate  # inf when the quotient overflows
            n = round(ratio) if math.isfinite(ratio) else 0
            if n < 1 or abs(ratio - n) > 1e-9:
                raise InvalidInputError(f"fs must be a whole multiple of {name}")
            object.__setattr__(self, attr, n)
        if self.m < 3:  # i_ipdft's bins 2..4 must lie below n/2 of its 3M-sample window
            raise InvalidInputError("fs must exceed twice f0")

    @property
    def ts(self) -> float:
        return 1.0 / self.fs


@dataclass(frozen=True)
class EstimatorKind:
    """Algorithm selector plus per-algorithm parameters."""

    algorithm: str
    ipdft_iterations: int = IPDFT_ITERATIONS

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidInputError(f"unknown estimator algorithm {self.algorithm!r}")
        n = self.ipdft_iterations
        if not (isinstance(n, numbers.Integral) and n >= 0):
            raise InvalidInputError(f"ipdft_iterations must be an integer >= 0, got {n!r}")

    def left_margin(self, config: EstimatorConfig) -> int:
        """Samples needed before a reporting instant."""
        if self.algorithm == "p_iec":
            return config.m
        return 3 * config.m // 2 + config.r

    def right_margin(self, config: EstimatorConfig) -> int:
        """Samples needed after a reporting instant."""
        if self.algorithm == "p_iec":
            return config.m
        return 3 * config.m - 3 * config.m // 2 - 1

    def estimate(self, block: SampleBlock, config: EstimatorConfig,
                 t_report: float) -> MeasurementTriplet:
        if self.algorithm == "p_iec":
            return p_iec_estimate(block, config, t_report)
        return ipdft_estimate(block, config, t_report, iterations=self.ipdft_iterations)


def fortescue_positive(xa: complex, xb: complex, xc: complex) -> complex:
    """Positive-sequence component ``(Xa + a*Xb + a^2*Xc) / 3``."""
    return (xa + ALPHA * xb + ALPHA * ALPHA * xc) / 3.0


def _check_frequency(freq: float, config: EstimatorConfig) -> None:
    if not 0.0 < freq < 2.0 * config.f0:
        raise DegenerateSignalError(
            f"frequency estimate {freq} Hz outside (0, {2 * config.f0}) Hz")


def _check_rate(source: GroundTruth | SampleBlock, fs: float) -> None:
    if source.fs != fs:
        raise InvalidInputError(
            f"sample block at {source.fs} Hz, estimator configured for {fs} Hz")


def _report_index(block: SampleBlock, fs: float, t_report: float) -> int:
    _check_rate(block, fs)
    return grid_index(t_report, fs) - block.start_index


def _triangle_weights(m: int) -> np.ndarray:
    w = 1.0 - np.abs(np.arange(2 * m - 1) - (m - 1)) / m
    return w / w.sum()


def _triangle_gain(df: float, m: int, ts: float) -> float:
    """Magnitude response of the unit-DC triangular filter at offset df Hz."""
    if df == 0.0:
        return 1.0
    x = math.pi * df * ts
    return (math.sin(m * x) / (m * math.sin(x))) ** 2


@lru_cache(maxsize=8)
def _piec_tables(m: int) -> tuple[np.ndarray, tuple[complex, ...]]:
    """Per-cycle-length constants of the demodulate-and-filter estimator.

    Returns the real ``(6, 3*(2m+1))`` kernel that maps a flattened
    three-phase window of ``2m+1`` samples to the positive-sequence outputs
    of the triangular filter at offsets 0, 1 and 2 (real and imaginary part
    in consecutive rows, so the product views as complex), and the ``m``
    roots of unity ``exp(-2j*pi*k/m)``.  The kernel folds in the unit-gain
    carrier ``sqrt(2)*exp(-2j*pi*k/m)`` relative to the first window sample,
    the filter weights at each offset and the Fortescue weights
    ``(1, a, a^2)/3``.  Its rows are contiguous: a report is six dot products.
    """
    n = 2 * m + 1
    roots = np.exp(-2j * math.pi * np.arange(m) / m)
    fir = np.zeros((n, 3))
    for o in range(3):
        fir[o:o + 2 * m - 1, o] = _triangle_weights(m)
    carrier_fir = SQRT2 * roots[np.arange(n) % m, None] * fir  # (n samples, 3 offsets)
    fortescue = np.array([1.0, ALPHA, ALPHA * ALPHA]) / 3.0
    kernel = fortescue[:, None, None] * carrier_fir  # (3 phases, n, 3 offsets)
    kernel = np.stack([kernel.real, kernel.imag], axis=-1).reshape(3 * n, 6).T.copy()
    kernel.flags.writeable = False  # shared by every caller
    return kernel, tuple(roots.tolist())


def p_iec_estimate(block: SampleBlock, config: EstimatorConfig,
                   t_report: float) -> MeasurementTriplet:
    """Demodulate-and-filter reference estimator for one reporting instant.

    The window holds ``2M+1`` samples centered on the report: ``2M-1`` for the
    triangular filter plus one extra sample on each side for the symmetric
    frequency/ROCOF difference stencils at step ``Ts``.  One product with the
    cached kernel gives the positive-sequence phasor at the three offsets in
    the frame of the first window sample.  The phase steps between offsets
    do not depend on that frame, so only the reported phasor is rotated to
    absolute time; since ``fs/f0 = M`` is an integer, the carrier phase of
    the first window sample is an exact root of unity.
    """
    m = config.m
    ic = _report_index(block, config.fs, t_report)
    if ic - m < 0 or ic + m >= block.n:
        raise InvalidInputError("sample window too short for the triangular filter")

    kernel, roots = _piec_tables(m)
    window = block.samples[:, ic - m:ic + m + 1].reshape(-1)
    p0, p1, p2 = np.dot(kernel, window).view(complex).tolist()

    step01 = cmath.phase(p1 * p0.conjugate())
    step12 = cmath.phase(p2 * p1.conjugate())
    ts = config.ts
    freq = config.f0 + (step01 + step12) / (4.0 * math.pi * ts)
    rocof = (step12 - step01) / (2.0 * math.pi * ts * ts)
    _check_frequency(freq, config)
    phasor = p1 * roots[(block.start_index + ic - m) % m] / _triangle_gain(freq - config.f0, m, ts)
    return MeasurementTriplet(t_report, phasor, freq, rocof)


IPDFT_K0 = 3  # the fundamental sits in bin 3 of a three-cycle window
SIDE_BINS = np.array([-1.0, 0.0, 1.0])  # bins k0-1, k0, k0+1 relative to k0
# transform arguments of one image-removal step: -delta for the fundamental,
# then k + k0 + delta for its negative-frequency image in bins k = k0-1 .. k0+1
STEP_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])
STEP_OFFSETS = np.concatenate([[0.0], 2 * IPDFT_K0 + SIDE_BINS])
OFFSET_WEIGHTS = np.array([[1.0, -2.0], [2.0, 0.0], [1.0, 2.0]])


@lru_cache(maxsize=8)
def _ipdft_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-length constants of the three-bin periodic-Hann spectrum.

    Returns the real ``(n, 6)`` DFT kernel of bins ``k0-1 .. k0+1`` with the
    Hann window folded in (real and imaginary part of each bin side by side,
    so the product views as complex), ``n`` times the squared window, the
    closed-form transform's coefficients ``c_k`` for k = -1, 0, 1, and the
    limits ``(-1)^k * n`` of its ratios at their removable singularities.
    """
    i = np.arange(n)
    hann = 0.5 - 0.5 * np.cos(2.0 * math.pi * i / n)
    arg = 2.0 * math.pi * np.outer(i, IPDFT_K0 + SIDE_BINS) / n
    kernel = np.stack([hann[:, None] * np.cos(arg), -hann[:, None] * np.sin(arg)], axis=-1)
    edge = cmath.exp(1j * math.pi * (n - 1) / n) / 4.0
    coeffs = np.array([edge, 0.5, edge.conjugate()])
    return kernel.reshape(n, 6), n * hann * hann, coeffs, np.array([-n, n, -n], dtype=float)


def _hann_spectrum(lam: np.ndarray, n: int) -> np.ndarray:
    """Continuous-frequency transform of the periodic Hann window, in bins.

    Closed form ``exp(-j*pi*lam*(n-1)/n) * sum_k c_k * sin(pi*lam) /
    sin(pi*(lam+k)/n)`` over k = -1, 0, 1, elementwise over ``lam``.  Where a
    denominator vanishes (``lam = -k``) the ratio takes its limit
    ``(-1)^k * n``.
    """
    _, _, coeffs, limits = _ipdft_tables(n)
    den = np.sin((lam[..., None] + SIDE_BINS) * (math.pi / n))
    singular = den == 0.0
    # a vanishing denominator is bumped to 1 so the division stays finite;
    # np.where then takes the limit there instead
    ratio = np.where(singular, limits, np.sin(math.pi * lam)[..., None] / (den + singular))
    return np.exp(-1j * math.pi * (n - 1) / n * lam) * (ratio @ coeffs)


def _hann_offset(bins: np.ndarray) -> np.ndarray:
    """Fractional bin offsets from Hann-windowed bins ``k0-1, k0, k0+1`` (last axis)."""
    sums = np.abs(bins) @ OFFSET_WEIGHTS  # |k0-1| + 2|k0| + |k0+1|, 2(|k0+1| - |k0-1|)
    denom = sums[..., 0]
    if not denom.all():
        raise DegenerateSignalError("all DFT bins vanish")
    return sums[..., 1] / denom


def _ipdft_windows(block: SampleBlock, centers: np.ndarray, config: EstimatorConfig,
                   iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-sequence phasors and per-phase frequencies of three-cycle windows.

    ``centers`` holds the window centres as block sample indices.  Every
    (phase, window) pair is estimated at once: for B centres the phasors
    have shape ``(B,)`` and the frequencies ``(3, B)``.
    """
    n = 3 * config.m
    h = n // 2  # samples from the window start to its centre
    starts = centers - h
    if starts.min() < 0 or starts.max() + n > block.n:
        raise InvalidInputError("sample window too short for the three-cycle spectrum")

    kernel, hann_sq, _, _ = _ipdft_tables(n)
    seg = np.take(block.samples, starts[:, None] + np.arange(n), axis=1)  # (3 phases, B, n)
    bins = (seg @ kernel).view(complex)  # (3, B, 3 bins)
    scale = np.sqrt(((seg * seg) @ hann_sq).sum(axis=0))
    if not (np.abs(bins[..., 1]) > 1e-12 * scale).all():
        raise DegenerateSignalError("fundamental bin below the noise floor")

    work = bins
    delta = _hann_offset(work)
    for _ in range(iterations):
        spec = _hann_spectrum(delta[..., None] * STEP_SIGNS + STEP_OFFSETS, n)
        coeff = work[..., 1] / spec[..., 0]
        work = bins - coeff.conj()[..., None] * spec[..., 1:]
        delta = _hann_offset(work)
    # coeff holds (A/sqrt(2))*exp(j*angle at the first window sample)
    coeff = work[..., 1] / _hann_spectrum(-delta, n)
    nu = IPDFT_K0 + delta
    t_center = (block.start_index + centers) / config.fs
    # the centre is h samples past the start: a phase advance of 2*pi*nu*h/n,
    # which is pi*nu exactly when n is even
    phasors = SQRT2 * coeff * np.exp(1j * math.pi * (nu * (2 * h / n)
                                                     - 2.0 * config.f0 * t_center))
    return fortescue_positive(phasors[0], phasors[1], phasors[2]), nu * (config.fs / n)


def ipdft_estimate(block: SampleBlock, config: EstimatorConfig, t_report: float,
                   iterations: int = IPDFT_ITERATIONS) -> MeasurementTriplet:
    """Iterative interpolated-DFT estimate for one reporting instant.

    The block must cover the three-cycle window centered on ``t_report`` and
    the window one internal reporting interval earlier, whose frequency
    estimate feeds the backward ROCOF difference.
    """
    ic = _report_index(block, config.fs, t_report)
    phasors, freqs = _ipdft_windows(block, np.array([ic - config.r, ic]), config, iterations)
    # freqs is (3 phases, 2 windows); the phase mean in plain floats, in the
    # order freqs.mean(axis=0) adds, at a fraction of its cost
    freq_prev, freq = ((a + b + c) / 3 for a, b, c in zip(*freqs.tolist()))
    _check_frequency(freq, config)
    rocof = (freq - freq_prev) * config.internal_rate
    return MeasurementTriplet(t_report, complex(phasors[1]), freq, rocof)


def run_estimator(
    kind: EstimatorKind,
    source: GroundTruth | SampleBlock,
    config: EstimatorConfig,
    t_start: float,
    t_end: float,
) -> list[MeasurementTriplet]:
    """Estimate triplets at the internal rate over [t_start, t_end] inclusive.

    ``source`` may be a ground-truth model (samples are synthesized with the
    margins each window needs) or a pre-synthesized block that already covers
    those margins.
    """
    fs = config.fs
    _check_rate(source, fs)
    n_start = grid_index(t_start, fs)
    n_end = grid_index(t_end, fs)
    if n_end < n_start:
        raise InvalidInputError("t_end must not precede t_start")

    first = n_start - kind.left_margin(config)
    last = n_end + kind.right_margin(config)
    n_lo, n_hi = source.sample_span
    if first < n_lo or last > n_hi:
        raise InvalidInputError(f"the estimator windows need samples [{first}, {last}], "
                                f"the source has [{n_lo}, {n_hi}]")
    block = (synth_three_phase(source, first / fs, last - first + 1)
             if isinstance(source, GroundTruth) else source)

    triplets = []
    try:
        for n in range(n_start, n_end + 1, config.r):
            triplets.append(kind.estimate(block, config, n / fs))
    except (PmuStreamError, ArithmeticError) as exc:
        raise with_context(exc, f"report at t = {n / fs} s")
    return triplets
