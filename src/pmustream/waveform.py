"""Ground-truth signal construction for synchrophasor experiments.

Sparse anchor points of voltage amplitude and frequency are turned into
smooth, analytically differentiable profiles: a shape-preserving cubic
Hermite interpolant for each quantity, the synchrophasor angle as the
analytic integral of the frequency deviation, and the rate of change of
frequency as the analytic derivative.  Balanced three-phase samples are
synthesized from those profiles on a rigid sampling grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InvalidInputError

SQRT2 = math.sqrt(2.0)

# Sample instants live on an integer grid at rate fs; a requested start or
# reporting time may deviate from it by at most this many sample periods.
GRID_ALIGN_TOL = 1e-6

# n / fs * fs rounds twice, so it is off n by about n * 2**-52 at most: within
# GRID_ALIGN_TOL for every sample index |n| below this power of two (2**32)
GRID_INDEX_LIMIT = 2 ** math.floor(math.log2(GRID_ALIGN_TOL * 2 ** 52))

SYNTH_CHUNK = 32_768  # samples synthesized per slice


def grid_index(t: float, fs: float) -> int:
    """Index ``n`` of the sample instant ``n / fs`` that ``t`` names; ``t`` may
    be off it by at most ``GRID_ALIGN_TOL`` sample periods."""
    n = round(t * fs)
    if abs(t * fs - n) > GRID_ALIGN_TOL:
        raise InvalidInputError(f"time {t} s does not lie on the 1/{fs} s sampling grid")
    return n


@dataclass(frozen=True)
class AnchorSeries:
    """Ordered (time, value) anchor points for one measured quantity."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise InvalidInputError("anchor times and values must be 1-D and of equal length")
        if times.size < 2:
            raise InvalidInputError("an anchor series needs at least 2 points")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise InvalidInputError("anchor times and values must be finite")
        if np.any(times[1:] <= times[:-1]):
            raise InvalidInputError("anchor times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "AnchorSeries":
        pts = list(points)
        return cls(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial in local coordinates ``t - breakpoints[i]``.

    ``coefficients`` has one row per interval, highest degree first, so a row
    ``[c3, c2, c1, c0]`` evaluates as ``((c3*dt + c2)*dt + c1)*dt + c0``.
    """

    breakpoints: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.asarray(self.coefficients, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise InvalidInputError("need at least one polynomial piece")
        if co.ndim != 2 or co.shape[0] != bp.size - 1:
            raise InvalidInputError("coefficient rows must match interval count")
        if np.any(bp[1:] <= bp[:-1]):
            raise InvalidInputError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", co)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return self.coefficients.shape[1] - 1

    def _piece_index(self, t: np.ndarray) -> np.ndarray:
        lo, hi = self.domain
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(f"evaluation time outside domain [{lo}, {hi}]")
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        return np.clip(idx, 0, self.coefficients.shape[0] - 1)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        idx = self._piece_index(t_arr)
        dt = t_arr - self.breakpoints[idx]
        # Horner over one gathered coefficient column at a time, so no
        # (n, degree+1) gather is ever materialized
        co = self.coefficients
        out = co[idx, 0]
        for j in range(1, co.shape[1]):
            out *= dt
            out += co[idx, j]
        return float(out[0]) if scalar else out

    def derivative(self) -> "PiecewisePoly":
        deg = self.degree
        if deg == 0:
            return PiecewisePoly(self.breakpoints, np.zeros((self.coefficients.shape[0], 1)))
        powers = np.arange(deg, 0, -1, dtype=float)
        return PiecewisePoly(self.breakpoints, self.coefficients[:, :-1] * powers)

    def antiderivative(self, initial: float = 0.0) -> "PiecewisePoly":
        n_pieces, width = self.coefficients.shape
        powers = np.arange(width, 0, -1, dtype=float)
        body = self.coefficients / powers
        out = np.empty((n_pieces, width + 1))
        out[:, :-1] = body
        const = initial
        widths = np.diff(self.breakpoints)
        for i in range(n_pieces):
            out[i, -1] = const
            const = _horner(out[i], widths[i])
        return PiecewisePoly(self.breakpoints, out)

    def restrict(self, lo: float, hi: float) -> "PiecewisePoly":
        """Return the same polynomial limited to the sub-domain [lo, hi]."""
        d_lo, d_hi = self.domain
        if lo < d_lo or hi > d_hi or lo >= hi:
            raise DomainError("restriction must be a non-empty sub-interval of the domain")
        if lo == d_lo and hi == d_hi:
            return self
        i0 = min(np.searchsorted(self.breakpoints, lo, side="right") - 1,
                 self.coefficients.shape[0] - 1)
        i1 = max(np.searchsorted(self.breakpoints, hi, side="left") - 1, i0)
        bp = np.concatenate(([lo], self.breakpoints[i0 + 1:i1 + 1], [hi]))
        co = self.coefficients[i0:i1 + 1].copy()
        co[0] = _shift_origin(co[0], lo - self.breakpoints[i0])
        return PiecewisePoly(bp, co)


def _horner(coeffs: np.ndarray, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _shift_origin(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Re-express a local polynomial around an origin shifted by ``s``."""
    deg = coeffs.size - 1
    shifted = np.empty_like(coeffs)
    work = coeffs.copy()
    powers = np.arange(deg, 0, -1, dtype=float)
    fact = 1.0
    for k in range(deg + 1):
        shifted[deg - k] = _horner(work, s) / fact
        work = work[:-1] * powers[k:] if work.size > 1 else np.array([])
        if work.size == 0:
            work = np.array([0.0])
        fact *= k + 1
    return shifted


def pchip_fit(anchors: AnchorSeries) -> PiecewisePoly:
    """Fit a monotone-preserving cubic Hermite interpolant to the anchors.

    Interior slopes start from the secant average and are limited with the
    Fritsch-Carlson rule: slopes are zeroed across local extrema and scaled
    back onto the circle ``alpha^2 + beta^2 <= 9`` elsewhere, which keeps the
    interpolant monotone wherever the data are and prevents overshoot beyond
    local anchor extrema.
    """
    x = anchors.times
    y = anchors.values
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
    return PiecewisePoly(x, coeffs)


def integrate_phase(frequency: PiecewisePoly, f0: float, phase0: float = 0.0) -> PiecewisePoly:
    """Integrate ``2*pi*(frequency - f0)`` analytically into a phase profile."""
    co = frequency.coefficients.copy()
    co[:, -1] -= f0
    co *= 2.0 * math.pi
    deviation = PiecewisePoly(frequency.breakpoints, co)
    return deviation.antiderivative(initial=phase0)


@dataclass(frozen=True)
class GroundTruth:
    """Analytic amplitude/frequency/phase/ROCOF profiles on a common domain.

    ``amplitude`` is the rms phasor magnitude in volts, ``frequency`` the
    fundamental frequency in Hz, ``phase`` the synchrophasor angle in radians
    relative to the nominal rotating frame, and ``rocof`` its Hz/s rate.
    """

    amplitude: PiecewisePoly
    frequency: PiecewisePoly
    phase: PiecewisePoly
    rocof: PiecewisePoly
    f0: float
    fs: float

    @property
    def domain(self) -> tuple[float, float]:
        return self.frequency.domain

    @property
    def sample_span(self) -> tuple[int, int]:
        """Smallest n with ``n / fs >= lo`` and largest n with ``n / fs <= hi``
        for the domain [lo, hi].  Rounding can put ``ceil(lo * fs)`` and
        ``floor(hi * fs)`` one sample off (for edges below 2**51 samples); one
        step each way settles each end on that float comparison itself."""
        lo, hi = self.domain
        fs = self.fs
        n_lo = math.ceil(lo * fs)
        n_lo -= (n_lo - 1) / fs >= lo
        n_lo += n_lo / fs < lo
        n_hi = math.floor(hi * fs)
        n_hi += (n_hi + 1) / fs <= hi
        n_hi -= n_hi / fs > hi
        return n_lo, n_hi

    @classmethod
    def from_anchors(
        cls,
        amplitude_anchors: AnchorSeries,
        frequency_anchors: AnchorSeries,
        f0: float = 50.0,
        fs: float = 10_000.0,
        phase0: float = 0.0,
    ) -> "GroundTruth":
        # before any fit: anchor times below 2**51 samples keep fits finite
        (a_lo, a_hi), (f_lo, f_hi) = amplitude_anchors.domain, frequency_anchors.domain
        lo, hi = max(a_lo, f_lo), min(a_hi, f_hi)
        if hi <= lo:
            raise InvalidInputError("amplitude and frequency anchors share no common time "
                                    f"span: [{lo}, {hi}] s is empty")
        if not all(abs(t * fs) < 2 ** 51 for t in (a_lo, a_hi, f_lo, f_hi)):
            raise InvalidInputError(f"anchor times [{min(a_lo, f_lo)}, {max(a_hi, f_hi)}] s "
                                    f"reach 2**51 samples at fs = {fs} Hz; shift them toward 0")
        if not math.isfinite(phase0):
            raise InvalidInputError(f"phase0 must be finite, got {phase0}")
        amp = pchip_fit(amplitude_anchors)
        freq = pchip_fit(frequency_anchors)
        if amp.domain != (lo, hi):
            amp = amp.restrict(lo, hi)
        if freq.domain != (lo, hi):
            freq = freq.restrict(lo, hi)
        return cls(
            amplitude=amp,
            frequency=freq,
            phase=integrate_phase(freq, f0, phase0),
            rocof=freq.derivative(),
            f0=float(f0),
            fs=float(fs),
        )


@dataclass(frozen=True)
class SampleBlock:
    """Contiguous three-phase samples on the rigid fs grid.

    ``start_index`` is the absolute position of the first sample, so the k-th
    sample was taken at ``(start_index + k) / fs`` seconds.  Keeping integer
    indices (rather than a float start time) makes windows sliced out of a
    long record bit-identical to windows synthesized directly.
    """

    start_index: int
    fs: float
    samples: np.ndarray  # shape (3, n), instantaneous volts

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != 3:
            raise InvalidInputError("samples must have shape (3, n)")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidInputError("samples must be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def sample_span(self) -> tuple[int, int]:
        """First and last absolute sample index held."""
        return self.start_index, self.start_index + self.n - 1


def synth_three_phase(gt: GroundTruth, t0: float, n: int) -> SampleBlock:
    """Synthesize ``n`` balanced three-phase samples starting at ``t0``.

    Phase p carries ``sqrt(2)*A(t)*cos(2*pi*f0*t + phi(t) - 2*pi*p/3)`` with
    A the rms magnitude profile.  ``t0`` must lie on the fs sampling grid.
    """
    if n < 1:
        raise InvalidInputError("need at least one sample")
    n0 = grid_index(t0, gt.fs)
    n_lo, n_hi = gt.sample_span
    if n0 < n_lo or n0 + n - 1 > n_hi:
        raise DomainError(f"samples [{n0 / gt.fs}, {(n0 + n - 1) / gt.fs}] exceed "
                          f"the ground-truth domain {list(gt.domain)}")
    phases = np.empty((3, n))
    # synthesis is pointwise: slices bound the temporaries to O(SYNTH_CHUNK)
    for start in range(0, n, SYNTH_CHUNK):
        t = (n0 + np.arange(start, min(start + SYNTH_CHUNK, n))) / gt.fs
        amp = gt.amplitude(t)
        amp *= SQRT2
        base = gt.phase(t)
        base += 2.0 * math.pi * gt.f0 * t
        for p, row in enumerate(phases[:, start:start + t.size]):
            np.subtract(base, 2.0 * math.pi * p / 3.0, out=row)
            np.cos(row, out=row)
            row *= amp
    return SampleBlock(n0, gt.fs, phases)


def eval_reference(gt: GroundTruth, t):
    """Reference (phasor, frequency, rocof) at time(s) ``t``.

    The phasor is ``A(t)*exp(j*phi(t))`` in rms volts; frequency in Hz and
    ROCOF in Hz/s come straight from the analytic profiles.
    """
    amp = gt.amplitude(t)
    phase = gt.phase(t)
    phasor = amp * np.exp(1j * np.asarray(phase))
    if np.ndim(t) == 0:
        phasor = complex(phasor)
    return phasor, gt.frequency(t), gt.rocof(t)
