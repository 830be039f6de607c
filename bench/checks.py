"""Correctness checks written independently of pmustream's own code paths.

Each check returns a list of error strings; an empty list means it passed.
The keep rule, the tracking indices and the steady-state limits are written
out here from their definitions (the paper's keep rule, rms indices over the
dense grid, IEC/IEEE 60255-118-1 P-class limits), not by calling the package.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

import numpy as np

F0 = 50.0
FS = 10_000.0
RR_IN = 100.0
DELTA_TVE, DELTA_FE, DELTA_RFE = 1e-3, 1e-3, 0.07  # default thresholds
EPS_REL_TOL = 1e-9
# eps is in threshold units: below this an absolute difference is immaterial
EPS_ABS_TOL = 1e-9
INDEX_REL_TOL = 1e-9

# IEC/IEEE 60255-118-1 P-class steady-state limits
TVE_LIMIT = 0.01       # relative
FE_LIMIT = 5e-3        # Hz
RFE_LIMIT = 0.4        # Hz/s
# TVE <= 1 % bounds each report's angle error by asin(0.01); a step between
# two reports may therefore be off by twice that.
ANGLE_STEP_LIMIT = 2.0 * math.asin(TVE_LIMIT)


def keep_scan(t, phasor, freq, rocof, f0=F0, thresholds=(DELTA_TVE, DELTA_FE, DELTA_RFE)):
    """Offline scan of the keep rule: kept indices and eps of every frame.

    Frame 0 is kept unconditionally (its eps is None).  Every later frame is
    compared with the prediction from the last kept frame: the angle advances
    with the kept frequency offset and half its ROCOF, frequency extrapolates
    linearly, ROCOF and amplitude are held.  A frame is kept when any of the
    three deviations, normalized by its threshold, is strictly above 1.  A
    kept phasor of zero magnitude leaves the phasor deviation undefined; it
    counts as infinite, so the next frame is kept.
    """
    d_tve, d_fe, d_rfe = thresholds
    kept = [0]
    eps = [None]
    b = 0
    for h in range(1, len(t)):
        dt = t[h] - t[b]
        angle = 2.0 * math.pi * (freq[b] - f0) * dt + math.pi * rocof[b] * dt * dt
        ref = abs(phasor[b])
        e1 = math.inf if ref == 0.0 else (
            abs(phasor[b] * cmath.exp(1j * angle) - phasor[h]) / (d_tve * ref))
        e2 = abs(freq[b] + rocof[b] * dt - freq[h]) / d_fe
        e3 = abs(rocof[b] - rocof[h]) / d_rfe
        eps.append((e1, e2, e3))
        if max(e1, e2, e3) > 1.0:
            kept.append(h)
            b = h
    return kept, eps


def compare_keep_sets(label, kept_indices, expected) -> list[str]:
    if list(kept_indices) == expected:
        return []
    diff = sorted(set(expected) ^ set(kept_indices))
    return [f"{label}: keep set differs from the offline scan at frames {diff[:5]} "
            f"({len(kept_indices)} kept, scan keeps {len(expected)})"]


def _eps_matches(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return len(got) == 3 and all(
        (g is None and not math.isfinite(w))
        or (g is not None and math.isclose(g, w, rel_tol=EPS_REL_TOL, abs_tol=EPS_ABS_TOL))
        for g, w in zip(got, want))


def check_decision_log(path: Path) -> list[str]:
    """Keep flags and eps of ``decisions_*.jsonl`` against the offline scan."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if not rows:
        return [f"{path.name}: empty decision log"]
    expected, eps = keep_scan([r["t"] for r in rows],
                              [complex(r["re"], r["im"]) for r in rows],
                              [r["f"] for r in rows], [r["rocof"] for r in rows])
    errors = compare_keep_sets(path.name, [i for i, r in enumerate(rows) if r["kept"]],
                               expected)
    for i, (row, want) in enumerate(zip(rows, eps)):
        if not _eps_matches(row["eps"], want):
            errors.append(f"{path.name}: eps of frame {i} is {row['eps']}, scan gives {want}")
            break
    return errors


def read_table(path: Path) -> dict[tuple[str, str, str], float]:
    """``table.csv`` as {(index, mode, algorithm): value}."""
    with path.open(encoding="utf-8", newline="") as fh:
        return {(r["index"], r["rr_mode"], r["algorithm"]): float(r["value"])
                for r in csv.DictReader(fh)}


def _rms(values: np.ndarray) -> float:
    return math.sqrt(math.fsum(float(v) * float(v) for v in values) / len(values))


def check_trace(path: Path, table: dict, algo: str, mode: str,
                total: int, kept: int) -> list[str]:
    """Recompute TrE_TVE/FE/RFE from a trace and check its shape.

    The trace covers the evaluation grid at fs from the first to the last
    report, so it has ``(total - 1) * fs / rr_in + 1`` rows, and its kept
    marker column holds one mark per retained report.
    """
    errors = []
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = (total - 1) * round(FS / RR_IN) + 1
    if cols.shape != (rows, 10):
        return [f"{path.name}: shape {cols.shape}, expected ({rows}, 10)"]
    if int(cols[:, 9].sum()) != kept:
        errors.append(f"{path.name}: {int(cols[:, 9].sum())} kept markers, expected {kept}")
    ref = cols[:, 1] + 1j * cols[:, 2]
    rec = cols[:, 5] + 1j * cols[:, 6]
    recomputed = {
        "TrE_TVE [%]": 100.0 * _rms(np.abs(rec - ref) / np.abs(ref)),
        "TrE_FE [mHz]": _rms(1e3 * (cols[:, 7] - cols[:, 3])),
        "TrE_RFE [Hz/s]": _rms(cols[:, 8] - cols[:, 4]),
    }
    for index, value in recomputed.items():
        reported = table.get((index, mode, algo))
        if reported is None or not math.isclose(value, reported, rel_tol=INDEX_REL_TOL):
            errors.append(f"{path.name}: {index} recomputed {value!r}, table has {reported!r}")
    return errors


def read_counts(path: Path) -> dict[tuple[str, str], tuple[int, int]]:
    """``summary.json`` as {(algorithm, mode): (total reports, kept reports)}."""
    reports = json.loads(path.read_text(encoding="utf-8"))["reports"]
    return {tuple(key.split("/")): (r["total_count"], r["kept_count"])
            for key, r in reports.items()}


def aggregate(windows) -> dict:
    """One table for consecutive windows of a profile, from ``(table, counts)``
    per window: each rms index over all grid points of all windows (a window
    of n reports has ``(n - 1) * fs / rr_in + 1`` points) and the compression
    ratio over all reports."""
    sums: dict = {}
    reports: dict = {}
    for table, counts in windows:
        for (index, mode, algo), value in table.items():
            if index == "compression_ratio":
                continue
            n = (counts[(algo, mode)][0] - 1) * round(FS / RR_IN) + 1
            acc = sums.setdefault((index, mode, algo), [0.0, 0])
            acc[0] += n * value * value
            acc[1] += n
        for key, (total, kept) in counts.items():
            acc = reports.setdefault(key, [0, 0])
            acc[0] += total
            acc[1] += kept
    out = {key: math.sqrt(sq / n) for key, (sq, n) in sums.items()}
    for (algo, mode), (total, kept) in reports.items():
        if mode == "adaptive":
            out[("compression_ratio", "adaptive", algo)] = total / kept
    return out


def compression_ratio(table: dict, algo: str) -> float:
    return table[("compression_ratio", "adaptive", algo)]


def check_criterion_6(table: dict, algorithms) -> list[str]:
    """Abrupt collapse: CR in [1.5, 3], adaptive TVE within 10 % of the full
    rate's, and the 50 fps baseline at least 1.4x worse than adaptive."""
    errors = []
    for algo in algorithms:
        cr = compression_ratio(table, algo)
        full = table[("TrE_TVE [%]", "100fps", algo)]
        half = table[("TrE_TVE [%]", "50fps", algo)]
        adaptive = table[("TrE_TVE [%]", "adaptive", algo)]
        if not 1.5 <= cr <= 3.0:
            errors.append(f"criterion 6 {algo}: compression ratio {cr} outside [1.5, 3]")
        if abs(adaptive - full) > 0.10 * full:
            errors.append(f"criterion 6 {algo}: adaptive TVE {adaptive} not within 10 % of {full}")
        if half < 1.4 * adaptive:
            errors.append(f"criterion 6 {algo}: 50 fps TVE {half} < 1.4 x adaptive {adaptive}")
    return errors


def check_criterion_7(table: dict, algorithms, fixed_rates) -> list[str]:
    """Forced oscillation: CR >= 10 and adaptive TrE_FE below half that of the
    fixed rate nearest to the adaptive mean rate."""
    errors = []
    for algo in algorithms:
        cr = compression_ratio(table, algo)
        if cr < 10.0:
            errors.append(f"criterion 7 {algo}: compression ratio {cr} < 10")
        rate = min(fixed_rates, key=lambda r: (abs(r - RR_IN / cr), -r))
        fixed = table[("TrE_FE [mHz]", f"{rate:g}fps", algo)]
        adaptive = table[("TrE_FE [mHz]", "adaptive", algo)]
        if not adaptive * 2.0 < fixed:
            errors.append(f"criterion 7 {algo}: adaptive TrE_FE {adaptive} not below half "
                          f"of {fixed} at {rate:g} fps")
    return errors


def _wrap(angle: np.ndarray) -> np.ndarray:
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def check_flat_stretches(label, t, phasor, freq, rocof, stretches,
                         left_s: float, right_s: float) -> tuple[list[str], int]:
    """P-class steady-state limits on reports whose windows lie in a flat stretch.

    ``stretches`` holds ``(t_lo, t_hi, amplitude, frequency)``; ``left_s`` and
    ``right_s`` are how far the estimator windows reach around a report.
    Returns the errors and the number of reports checked.
    """
    errors = []
    checked = 0
    t = np.asarray(t)
    for t_lo, t_hi, amp, f in stretches:
        sel = np.flatnonzero((t - left_s >= t_lo - 1e-9) & (t + right_s <= t_hi + 1e-9))
        if sel.size == 0:
            continue
        checked += sel.size
        p = np.asarray(phasor)[sel]
        mag_err = np.abs(np.abs(p) - amp) / amp
        fe = np.abs(np.asarray(freq)[sel] - f)
        rfe = np.abs(np.asarray(rocof)[sel])
        where = f"{label} flat stretch [{t_lo}, {t_hi}]"
        if mag_err.max() > TVE_LIMIT:
            errors.append(f"{where}: magnitude off by {mag_err.max():.4%}")
        if fe.max() > FE_LIMIT:
            errors.append(f"{where}: |FE| {fe.max():.3e} Hz > {FE_LIMIT}")
        if rfe.max() > RFE_LIMIT:
            errors.append(f"{where}: |RFE| {rfe.max():.3e} Hz/s > {RFE_LIMIT}")
        if sel.size > 1:
            step = np.diff(np.angle(p)) - 2.0 * np.pi * (f - F0) * np.diff(t[sel])
            worst = np.abs(_wrap(step)).max()
            if worst > ANGLE_STEP_LIMIT:
                errors.append(f"{where}: angle step off by {worst:.3e} rad")
    return errors, checked
