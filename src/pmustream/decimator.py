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
    epsilon: tuple[float, float, float] | None
    binding_quantity: str


def _advance(frequency, rocof, dt, f0):
    """``(angle, frequency)`` reached ``dt`` seconds past a kept ``(frequency,
    rocof)``: the one copy of the prediction rule, for floats and arrays."""
    angle = 2.0 * math.pi * (frequency - f0) * dt + math.pi * rocof * dt * dt
    return angle, frequency + rocof * dt


def predict(last: MeasurementTriplet, dt: float, f0: float) -> tuple[complex, float, float]:
    """Extrapolate (phasor, frequency, rocof) ``dt`` seconds past ``last``."""
    if dt < 0:
        raise InvalidInputError("prediction horizon must be non-negative")
    angle, frequency = _advance(last.frequency, last.rocof, dt, f0)
    return last.phasor * cmath.exp(1j * angle), frequency, last.rocof


def decide(last_kept: MeasurementTriplet | None, incoming: MeasurementTriplet,
           thresholds: Thresholds, f0: float) -> tuple[DecisionRecord, MeasurementTriplet]:
    """One keep/discard step against the last retained triplet.

    Returns the record and the last retained triplet after this step.
    """
    if last_kept is None:
        return DecisionRecord(incoming.t, True, None, "first"), incoming
    dt = incoming.t - last_kept.t
    if dt <= 0:
        raise SequencingError("incoming triplet does not advance the stream clock")
    phasor, frequency, rocof = predict(last_kept, dt, f0)
    ref_mag = abs(last_kept.phasor)
    # a collapsed reference forces a keep as soon as the signal returns
    e1 = (math.inf if ref_mag == 0.0
          else abs(phasor - incoming.phasor) / (thresholds.delta_tve * ref_mag))
    eps = (e1, abs(frequency - incoming.frequency) / thresholds.delta_fe,
           abs(rocof - incoming.rocof) / thresholds.delta_rfe)
    # plain floats: a 3-element numpy reduction costs more than the rest of
    # the decision.  Only the phasor deviation can be NaN (an overflowed
    # deviation over an overflowed threshold); standing first, it makes max()
    # return NaN like np.max, so such a frame is discarded
    top = max(eps)
    if top > 1.0:  # strictly above threshold
        binding = QUANTITY_NAMES[eps.index(top)]  # first maximum, as np.argmax
        return DecisionRecord(incoming.t, True, eps, binding), incoming
    return DecisionRecord(incoming.t, False, eps, "none"), last_kept


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
    any other query by the most recent kept row at or before it.  A query with
    no kept row at or before ``q + ts/2``, or not finite, is refused.
    """
    if not (math.isfinite(ts) and ts > 0):
        raise InvalidInputError("ts must be finite and strictly positive")
    kept = np.asarray(kept, dtype=np.intp)
    if kept.size == 0 or kept.min() < 0 or kept.max() >= len(series):
        raise InvalidInputError("kept must hold at least one row index of the series")
    kt = series.t[kept]
    if not np.all(kt[1:] > kt[:-1]):  # a NaN time fails it too
        raise SequencingError("kept triplets must be strictly time-ordered")
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    tol = ts / 2.0

    idx = np.searchsorted(kt, q + tol, side="right") - 1
    if np.any(idx < 0) or not np.all(np.isfinite(q)):
        raise DomainError("query is not finite or precedes the first kept triplet")
    # kt[idx] <= q + tol, so q - kt[idx] >= -tol up to rounding: testing its
    # absolute value would send such a rounding case to a backward prediction
    # instead of the row
    exact = q - kt[idx] <= tol
    return kept[idx], q, exact


def predict_rows(series: TripletSeries, rows: np.ndarray, q: np.ndarray, exact: np.ndarray,
                 f0: float) -> TripletSeries:
    """Row ``rows[i]`` of ``series`` at time ``q[i]``: verbatim where
    ``exact[i]``, else predicted from it as :func:`predict` does."""
    # the rotation is the one step computed apart from predict(), whose
    # cmath.exp and complex multiply may round the last bit unlike numpy's
    # vector loops; it works in place to keep the peak near the result's size
    rocof = series.rocof[rows]
    angle, freq = _advance(series.frequency[rows], rocof, q - series.t[rows], f0)
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
