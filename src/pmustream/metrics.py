"""Tracking-error indices over a dense grid and the instantaneous reporting rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SequencingError, UndefinedMetricError
from .estimators import TripletSeries

TRE_FORMULAS = ("rms", "printed")
# the tracking indices in table order: (TrackingReport field, table label,
# summary.json key); the label and the key carry the unit
TRACKING_INDICES = (("tre_tve", "TrE_TVE [%]", "tre_tve_percent"),
                    ("tre_fe", "TrE_FE [mHz]", "tre_fe_mhz"),
                    ("tre_rfe", "TrE_RFE [Hz/s]", "tre_rfe_hz_per_s"))


def _aggregate(dev: np.ndarray, formula: str) -> float:
    """Aggregate a deviation array; ``dev`` is overwritten."""
    if formula == "rms":
        return float(np.sqrt(np.mean(np.multiply(dev, dev, out=dev))))
    if formula == "printed":
        # audit variant: no square inside the sum
        return float(np.sqrt(np.mean(np.abs(dev, out=dev))))
    raise InvalidInputError(f"unknown tracking formula {formula!r}")


def tracking_indices(
    reconstructed: TripletSeries,
    reference: TripletSeries,
    formula: str = "rms",
) -> tuple[float, float, float]:
    """The :data:`TRACKING_INDICES` over a dense grid, in their order and units.

    Each index aggregates the point-wise deviation between the reconstructed
    stream and the reference series, which must carry the same grid in
    ``t``; the default is a true rms.
    """
    if not np.array_equal(reconstructed.t, reference.t):
        raise InvalidInputError("reconstruction and reference must share one grid")
    ref_mag = np.abs(reference.phasor)
    if np.any(ref_mag == 0.0):
        raise UndefinedMetricError("tracking index undefined where |reference phasor| = 0, "
                                   f"first at t = {reference.t[ref_mag == 0.0][0]} s")
    dev = np.abs(reconstructed.phasor - reference.phasor)
    with np.errstate(over="ignore"):  # a reference near 0 V or a deviation past ~1e154
        tre_tve = _aggregate(np.divide(dev, ref_mag, out=dev), formula) * 100.0
        np.subtract(reconstructed.frequency, reference.frequency, out=dev)
        dev *= 1e3
        tre_fe = _aggregate(dev, formula)
        np.subtract(reconstructed.rocof, reference.rocof, out=dev)
        tre_rfe = _aggregate(dev, formula)
    if not all(map(math.isfinite, (tre_tve, tre_fe, tre_rfe))):
        raise UndefinedMetricError(f"TrE overflow: TVE, FE, RFE = {tre_tve}, {tre_fe}, {tre_rfe}")
    return tre_tve, tre_fe, tre_rfe


def instantaneous_rr(kept_times) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous reporting rate at each kept instant after the first: the
    columns (instant, reciprocal of the gap to the previous kept instant)."""
    t = np.asarray(kept_times, dtype=float)
    if t.size == 0:
        raise InvalidInputError("need at least one kept instant")
    if not np.all(t[1:] > t[:-1]):  # a NaN instant fails it too
        raise SequencingError("kept instants must be strictly increasing")
    return t[1:], 1.0 / np.diff(t)


@dataclass(frozen=True)
class TrackingReport:
    """Scores for one (algorithm, reporting mode) combination; the key of its
    entry in a ``reports`` dict names the combination."""

    tre_tve: float                       # units as in TRACKING_INDICES
    tre_fe: float
    tre_rfe: float
    kept_count: int
    total_count: int

    def __post_init__(self):
        if self.kept_count < 1:
            raise InvalidInputError("a report needs at least one kept measurement")
        for value in (self.tre_tve, self.tre_fe, self.tre_rfe):
            if not math.isfinite(value) or value < 0:
                raise InvalidInputError("tracking indices must be finite and non-negative")

    @property
    def compression_ratio(self) -> float:
        return self.total_count / self.kept_count
