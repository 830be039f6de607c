"""Seeded 30 s anchor profile for the ``pmu_stream`` workload.

The profile alternates flat holds at off-nominal frequency and amplitude with
ramps, steps and oscillation bursts, then ends in a fixed tail that holds a
0.3 s blackout at 0 V.  Amplitude and frequency share their anchor times, so a
flat stretch is any pair of consecutive anchors with equal values in both
quantities; there the PCHIP interpolant is exactly constant and the reference
follows from the anchors alone.

The tail does not depend on the seed.  Every tail piece starts from a flat
anchor, whose PCHIP slope is zero whatever comes before it, and the caller
pins the synchrophasor angle at ``TAIL_START`` through ``phase0``, so the
samples around the blackout are the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPAN_S = 30.0
TAIL_START = 23.0
TAIL_AMPLITUDE = 230.0
TAIL_FREQUENCY = 49.95
BLACKOUT = (25.0, 25.3)
COLLAPSE_S = 0.02  # amplitude falls to 0 V (and recovers) over this time

A_RANGE = (200.0, 245.0)   # rms volts
F_RANGE = (49.7, 50.3)     # Hz, inside the P-class steady-state sweep
HOLD_S = (3.0, 6.0)
RAMP_S = (1.0, 2.5)
STEP_S = (0.05, 0.1)
BURST_S = (1.0, 2.5)
LAST_EVENT_END = TAIL_START - 1.5


@dataclass(frozen=True)
class Profile:
    """Anchor rows ``(t, amplitude_V, frequency_Hz)`` plus the flat stretches."""

    anchors: tuple[tuple[float, float, float], ...]

    def flat_stretches(self) -> list[tuple[float, float, float, float]]:
        """``(t_lo, t_hi, amplitude, frequency)`` for every constant piece."""
        out = []
        for (t0, a0, f0), (t1, a1, f1) in zip(self.anchors, self.anchors[1:]):
            if a0 == a1 and f0 == f1 and a0 > 0.0:
                out.append((t0, t1, a0, f0))
        return out

    def csv_text(self) -> str:
        lines = ["# pmu_stream anchor profile", "quantity,t_s,value"]
        lines += [f"amplitude_V,{t!r},{a!r}" for t, a, _ in self.anchors]
        lines += [f"frequency_Hz,{t!r},{f!r}" for t, _, f in self.anchors]
        return "\n".join(lines) + "\n"


def _round(x: float) -> float:
    return round(x, 4)


def generate(seed: int) -> Profile:
    """Anchor profile for ``seed``; the same seed gives the same profile."""
    rng = random.Random(seed)
    a = _round(rng.uniform(*A_RANGE))
    f = _round(rng.uniform(*F_RANGE))
    t = 0.0
    rows = [(t, a, f)]
    events = ("ramp", "step", "burst")
    while True:
        t = _round(t + rng.uniform(*HOLD_S))
        if t >= LAST_EVENT_END:
            break
        rows.append((t, a, f))
        kind = rng.choice(events)
        if kind == "burst":
            dur = rng.uniform(*BURST_S)
            half_period = rng.uniform(0.2, 1.0)
            da = a * rng.uniform(0.005, 0.02)
            df = rng.uniform(0.02, 0.08)
            k = max(2, int(dur / half_period))
            for i in range(1, k):
                sign = 1.0 if i % 2 else -1.0
                rows.append((_round(t + i * half_period), _round(a + sign * da),
                             _round(f + sign * df)))
            t = _round(t + k * half_period)
        else:
            dur = rng.uniform(*(RAMP_S if kind == "ramp" else STEP_S))
            if kind == "ramp":
                a = _round(rng.uniform(*A_RANGE))
                f = _round(rng.uniform(*F_RANGE))
            else:
                a = _round(min(max(a * rng.uniform(0.92, 1.08), A_RANGE[0]), A_RANGE[1]))
                f = _round(min(max(f + rng.uniform(-0.2, 0.2), F_RANGE[0]), F_RANGE[1]))
            t = _round(t + dur)
        if t >= LAST_EVENT_END:
            break
        rows.append((t, a, f))
    rows.append((TAIL_START, TAIL_AMPLITUDE, TAIL_FREQUENCY))
    b0, b1 = BLACKOUT
    rows += [
        (b0 - COLLAPSE_S, TAIL_AMPLITUDE, TAIL_FREQUENCY),
        (b0, 0.0, TAIL_FREQUENCY),
        (b1, 0.0, TAIL_FREQUENCY),
        (b1 + COLLAPSE_S, TAIL_AMPLITUDE, TAIL_FREQUENCY),
        (SPAN_S, TAIL_AMPLITUDE, TAIL_FREQUENCY),
    ]
    return Profile(tuple(rows))


def aligned_phase0(phase_at_tail: float) -> float:
    """``phase0`` that puts the synchrophasor angle at 0 rad at ``TAIL_START``.

    ``phase_at_tail`` is the angle at ``TAIL_START`` of the ground truth built
    with ``phase0 = 0``.  The angle is not reduced modulo 2*pi, so the tail
    samples agree across seeds to rounding, not just up to a turn.
    """
    return -phase_at_tail
