"""Accuracy-driven keep/discard decimation of a measurement stream.

Each incoming triplet is compared against a prediction extrapolated from the
last retained triplet: amplitude is held, the phasor angle advances with the
last frequency offset and half the last ROCOF, frequency extrapolates
linearly, ROCOF is held.  The triplet is retained only when at least one
normalized deviation exceeds its threshold (infinity norm strictly above 1);
the first triplet of a stream is always retained.  The same prediction rules
rebuild a dense receiver-side view from the retained set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    SequencingError,
)
from .estimators import MeasurementTriplet, TripletSeries

QUANTITY_NAMES = ("phasor", "frequency", "rocof")


@dataclass(frozen=True)
class Thresholds:
    """Normalization factors for phasor, frequency and ROCOF deviations."""

    delta_tve: float = 1e-3   # relative phasor deviation
    delta_fe: float = 1e-3    # Hz
    delta_rfe: float = 0.07   # Hz/s

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of one keep/discard decision.

    ``epsilon`` is None for the unconditional first keep.  ``binding_quantity``
    names the deviation that forced a keep ("first" for the initial frame,
    "none" when the frame was discarded).
    """

    t: float
    kept: bool
    epsilon: np.ndarray | None
    binding_quantity: str


def predict(last: MeasurementTriplet, dt: float, f0: float) -> tuple[complex, float, float]:
    """Extrapolate (phasor, frequency, rocof) ``dt`` seconds past ``last``."""
    if dt < 0:
        raise InvalidInputError("prediction horizon must be non-negative")
    angle = 2.0 * math.pi * (last.frequency - f0) * dt + math.pi * last.rocof * dt * dt
    phasor = last.phasor * cmath.exp(1j * angle)
    return phasor, last.frequency + last.rocof * dt, last.rocof


def _deviations(last_kept: MeasurementTriplet, incoming: MeasurementTriplet,
                thresholds: Thresholds, f0: float) -> tuple[float, float, float]:
    dt = incoming.t - last_kept.t
    if dt <= 0:
        raise SequencingError("incoming triplet does not advance the stream clock")
    phasor_p, freq_p, rocof_p = predict(last_kept, dt, f0)
    ref_mag = abs(last_kept.phasor)
    if ref_mag == 0.0:
        e1 = math.inf  # collapsed reference: force a keep as soon as signal returns
    else:
        e1 = abs(phasor_p - incoming.phasor) / (thresholds.delta_tve * ref_mag)
    e2 = abs(freq_p - incoming.frequency) / thresholds.delta_fe
    e3 = abs(rocof_p - incoming.rocof) / thresholds.delta_rfe
    return e1, e2, e3


def decide(last_kept: MeasurementTriplet | None, incoming: MeasurementTriplet,
           thresholds: Thresholds, f0: float) -> tuple[DecisionRecord, MeasurementTriplet]:
    """One keep/discard step against the last retained triplet.

    Returns the record and the last retained triplet after this step.
    """
    if last_kept is None:
        return DecisionRecord(incoming.t, True, None, "first"), incoming
    eps = _deviations(last_kept, incoming, thresholds, f0)
    # plain floats: a 3-element numpy reduction costs more than the rest of
    # the decision.  Only the phasor deviation can be NaN (an overflowed
    # deviation over an overflowed threshold); standing first, it makes max()
    # return NaN like np.max, so such a frame is discarded
    top = max(eps)
    if top > 1.0:  # strictly above threshold
        binding = QUANTITY_NAMES[eps.index(top)]  # first maximum, as np.argmax
        return DecisionRecord(incoming.t, True, np.array(eps), binding), incoming
    return DecisionRecord(incoming.t, False, np.array(eps), "none"), last_kept


class Decimator:
    """Streaming wrapper around :func:`decide` for one measurement stream."""

    def __init__(self, thresholds: Thresholds, f0: float):
        self.thresholds = thresholds
        self.f0 = f0
        self._last_kept: MeasurementTriplet | None = None
        self.records: list[DecisionRecord] = []

    def process(self, incoming: MeasurementTriplet) -> DecisionRecord:
        record, self._last_kept = decide(self._last_kept, incoming, self.thresholds, self.f0)
        self.records.append(record)
        return record


def decimate_stream(
    triplets: Iterable[MeasurementTriplet],
    thresholds: Thresholds,
    f0: float,
) -> tuple[np.ndarray, list[DecisionRecord]]:
    """Run the keep/discard rule over a whole stream in arrival order.

    Returns the sorted indices of the kept triplets and one record per triplet.
    """
    dec = Decimator(thresholds, f0)
    for m in triplets:
        dec.process(m)
    return np.flatnonzero([r.kept for r in dec.records]), dec.records


def serving_rows(series: TripletSeries, kept, query_times,
                 ts: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row of ``series`` that serves each query time, as ``(rows, q,
    exact)`` for :func:`predict_rows`.

    ``kept`` indexes the rows of ``series`` that reached the receiver.  A
    query within ``ts/2`` of a kept timestamp is served by that row exactly;
    any other query by the most recent kept row at or before it.
    """
    kept = np.asarray(kept, dtype=np.intp)
    if kept.size == 0:
        raise InvalidInputError("need at least one kept triplet")
    kt = series.t[kept]
    if np.any(kt[1:] <= kt[:-1]):
        raise SequencingError("kept triplets must be strictly time-ordered")
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    tol = ts / 2.0
    if np.any(q < kt[0] - tol):
        raise DomainError("query precedes the first kept triplet")

    idx = np.searchsorted(kt, q + tol, side="right") - 1
    # kt[idx] <= q + tol, so q - kt[idx] >= -tol up to rounding: testing its
    # absolute value would send such a rounding case to a backward prediction
    # instead of the row
    exact = q - kt[idx] <= tol
    return kept[idx], q, exact


def grid_serving_rows(kept: np.ndarray, kept_rows: np.ndarray, q: np.ndarray,
                      lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`serving_rows` on a rigid grid, computed in integers: ``q`` holds
    the times of grid rows ``lo, lo + 1, ...`` and kept report ``kept[i]``
    sits on grid row ``kept_rows[i]``.  A row is served by the last kept
    report on or before it, exactly on that report's own row."""
    if kept_rows[0] > lo:
        raise DomainError("grid row precedes the first kept triplet")
    g = np.arange(lo, lo + q.size)
    idx = np.searchsorted(kept_rows, g, side="right") - 1
    return kept[idx], q, kept_rows[idx] == g


def predict_rows(series: TripletSeries, rows: np.ndarray, q: np.ndarray, exact: np.ndarray,
                 f0: float) -> TripletSeries:
    """Row ``rows[i]`` of ``series`` at time ``q[i]``: verbatim where
    ``exact[i]``, else predicted from it as :func:`predict` does."""
    # gather each kept column once and work in place, in predict()'s
    # operation order; temporaries are dropped as soon as they are spent to
    # keep the peak near the size of the result
    dt = series.t[rows]
    np.subtract(q, dt, out=dt)
    kf = series.frequency[rows]
    rocof = series.rocof[rows]
    angle = kf - f0
    angle *= 2.0 * math.pi
    angle *= dt
    freq = np.multiply(rocof, math.pi)
    freq *= dt
    freq *= dt
    angle += freq
    np.multiply(rocof, dt, out=freq)
    freq += kf
    del kf, dt
    phasor = np.multiply(angle, 1j, out=np.empty(q.size, dtype=complex))
    del angle
    np.exp(phasor, out=phasor)
    # complex multiply is not bitwise commutative: keep the kept phasor first;
    # numpy multiplies a lone element in place in a scalar loop that rounds
    # unlike its vector loop, so a single query gets a fresh output
    phasor = np.multiply(series.phasor[rows], phasor, out=phasor if q.size > 1 else None)

    phasor[exact] = series.phasor[rows[exact]]
    freq[exact] = series.frequency[rows[exact]]
    return TripletSeries(t=q, phasor=phasor, frequency=freq, rocof=rocof)


def reconstruct(series: TripletSeries, kept, query_times, f0: float,
                ts: float) -> TripletSeries:
    """Receiver-side view: kept rows of ``series`` verbatim, predictions in
    between, from the rows :func:`serving_rows` picks."""
    return predict_rows(series, *serving_rows(series, kept, query_times, ts), f0)
