"""Tracking-error indices over a dense grid and the instantaneous reporting rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .estimators import TripletSeries

TRE_FORMULAS = ("rms", "printed")


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
    """Tracking-error indices over a dense grid: (percent, mHz, Hz/s).

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
    dev /= ref_mag
    tre_tve = _aggregate(dev, formula) * 100.0
    np.subtract(reconstructed.frequency, reference.frequency, out=dev)
    dev *= 1e3
    tre_fe = _aggregate(dev, formula)
    np.subtract(reconstructed.rocof, reference.rocof, out=dev)
    tre_rfe = _aggregate(dev, formula)
    return tre_tve, tre_fe, tre_rfe


def instantaneous_rr(kept_times) -> list[tuple[float, float]]:
    """Instantaneous reporting rate at each kept instant after the first: the
    reciprocal of the gap to the previous kept instant."""
    t = np.asarray(kept_times, dtype=float)
    if t.size == 0:
        raise InvalidInputError("need at least one kept instant")
    return list(zip(t[1:].tolist(), (1.0 / np.diff(t)).tolist()))


@dataclass(frozen=True)
class TrackingReport:
    """Scores for one (algorithm, reporting mode) combination."""

    algorithm: str
    rr_mode: str
    tre_tve: float                       # percent
    tre_fe: float                        # mHz
    tre_rfe: float                       # Hz/s
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
