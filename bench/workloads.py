"""The three benchmark workloads, driven through pmustream's public functions.

Each workload builds its inputs in ``setup``, then runs whole rounds
(``run_round``).  A round times its main operation part by part; after
each part a batch round pushes a short stretch of reports through the
per-report device path (``EstimatorKind.estimate`` and
``Decimator.process``) to measure report latency.  The first round's outputs go through the independent checks in
``checks``; later rounds must reproduce them exactly.  Module attributes are
looked up at call time (``pipeline.run_experiment``, not a name imported
once), so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import anchors
import checks
from pmustream import cli, decimator, estimators, pipeline, waveform
from pmustream.errors import PmuStreamError

ALGORITHMS = ("p_iec", "i_ipdft")
F0 = checks.F0
FS = checks.FS
CONFIG = estimators.EstimatorConfig(f0=F0, fs=FS, internal_rate=checks.RR_IN)
KINDS = {algo: estimators.EstimatorKind(algo) for algo in ALGORITHMS}
LEFT = max(kind.left_margin(CONFIG) for kind in KINDS.values())
RIGHT = max(kind.right_margin(CONFIG) for kind in KINDS.values())
R = CONFIG.r

OSCILLATION_FIXED = (10, 20)
ARCHIVE_PROFILES = ("abrupt_collapse",)
# The host runs slowly most of the time, with fast spells well under a
# second, so a round is kept to a few seconds and cut into parts of 0.1 to
# 0.2 s, short enough to fall inside a fast spell (README, "End-to-end
# metrics").
OSCILLATION_END_S = 20.0
OSCILLATION_WINDOW_S = 2.0
ARCHIVE_WINDOW_S = 0.25
# pmu_stream feeds the two algorithms' loops in turn, this many reports at a
# time (about 15 ms of p_iec, 85 ms of i_ipdft), so each algorithm's reports
# are timed all through a round and not in one stretch of it.
STREAM_CHUNK = 200
# A batch round runs a latency probe after each window: these many reports
# of each algorithm through the per-report path, the same ones every time,
# so that each report is timed dozens of times spread over the whole run.
PROBE_REPORTS = {"p_iec": 300, "i_ipdft": 50}
# i_ipdft estimates from a 3-cycle window centred on the report and the one
# an internal interval earlier (for ROCOF); a window of all-zero samples has
# no fundamental.
IPDFT_HALF_WINDOW = 3 * CONFIG.m // 2


@dataclass
class Stream:
    """Per-report path results for one algorithm on one run of reports.

    Streams with the same ``key`` push the same reports through the same
    path, so position k holds the same report in each of them.
    """

    key: str
    fed: list = field(default_factory=list)          # triplets given to the decimator
    kept_flags: list = field(default_factory=list)   # one per fed triplet
    failed: list = field(default_factory=list)       # (report index, error text)
    estimate_ns: list = field(default_factory=list)
    process_ns: list = field(default_factory=list)
    pieces: list = field(default_factory=list)       # seconds per chunk fed
    retained: int = 0                                # records held by the decimator
    attempted: int = 0

    def columns(self):
        return ([m.t for m in self.fed], [m.phasor for m in self.fed],
                [m.frequency for m in self.fed], [m.rocof for m in self.fed])


class StreamLoop:
    """Closed loop, one stream, no pacing: estimate then keep/discard.

    The loop is fed consecutive chunks of report indices; its decimator
    carries over from one chunk to the next as in a device.
    """

    def __init__(self, algo: str, block, key: str):
        self.kind = KINDS[algo]
        self.block = block
        self.dec = decimator.Decimator(decimator.Thresholds(), F0)
        self.out = Stream(key)

    def feed(self, report_indices) -> None:
        kind, block, dec, out = self.kind, self.block, self.dec, self.out
        clock = time.perf_counter_ns
        start = clock()
        for n in report_indices:
            a = clock()
            try:
                m = kind.estimate(block, CONFIG, n / FS)
            except PmuStreamError as exc:
                out.failed.append((n, f"{type(exc).__name__}: {exc}"))
                continue
            b = clock()
            record = dec.process(m)
            c = clock()
            out.estimate_ns.append(b - a)
            out.process_ns.append(c - b)
            out.fed.append(m)
            out.kept_flags.append(record.kept)
        out.pieces.append((clock() - start) / 1e9)
        out.attempted += len(report_indices)

    def finish(self) -> Stream:
        self.out.retained = len(self.dec.records)
        return self.out


def run_stream(algo: str, block, report_indices, key: str) -> Stream:
    loop = StreamLoop(algo, block, key)
    loop.feed(report_indices)
    return loop.finish()


def report_span(gt) -> range:
    """Report indices on the fs grid that every algorithm's windows fit."""
    lo, hi = gt.domain
    n_first = -(-(round(lo * FS) + LEFT) // R) * R
    n_last = n_first + ((round(hi * FS) - RIGHT - n_first) // R) * R
    return range(n_first, n_last + 1, R)


def synth_for(gt, reports: range):
    return waveform.synth_three_phase(gt, (reports.start - LEFT) / FS,
                                      reports[-1] - reports.start + LEFT + RIGHT + 1)


def load_bundled(name: str):
    amp, freq = pipeline.parse_profile(pipeline.resolve_profile(name))
    return waveform.GroundTruth.from_anchors(amp, freq, f0=F0, fs=FS)


@dataclass
class Round:
    """What one round measured and found.

    ``pieces`` are the times of consecutive parts of the timed phase (the
    pipeline run on each window, each chunk of a stream); every round has
    the same parts, so they can be compared across rounds.
    """

    pieces: list
    measured_s: float       # timed phase plus latency probe
    attempted: int
    failed: int
    streams: dict           # algo -> list of Stream, latency probes or main stream
    errors: list
    main_streams: dict = field(default_factory=dict)  # algo -> Stream (pmu_stream)
    artifact_bytes: int = 0
    adaptive: dict = field(default_factory=dict)      # algo -> (kept, frames)
    fingerprint: str = ""

    @property
    def wall_s(self) -> float:
        return sum(self.pieces)

    def release(self) -> "Round":
        """Drop the triplets once checked, so rounds kept for their timings
        do not add to the peak memory of the run."""
        for streams in self.streams.values():
            for s in streams:
                s.fed = s.kept_flags = None
        return self


def probe_stretches(named_gts, seed: int) -> list:
    """Seeded contiguous stretches of reports for the latency probe, one per
    ground truth, sharing ``PROBE_REPORTS`` between them; each with the
    samples its reports need."""
    rng = random.Random(seed)
    size = max(PROBE_REPORTS.values()) // len(named_gts)
    out = []
    for name, gt in named_gts:
        span = report_span(gt)
        start = rng.randrange(len(span) - size)
        reports = span[start:start + size]
        out.append((name, synth_for(gt, reports), reports))
    return out


def run_probe(stretches) -> tuple[dict, list]:
    """Every stretch through each algorithm's per-report path, one stream
    each, with its keep set checked against the offline scan."""
    streams = {algo: [] for algo in ALGORITHMS}
    errors = []
    for algo in ALGORITHMS:
        need = PROBE_REPORTS[algo] // len(stretches)
        for label, block, reports in stretches:
            s = run_stream(algo, block, reports[:need], f"probe {label}")
            streams[algo].append(s)
            t, p, f, r = s.columns()
            expected, _ = checks.keep_scan(t, p, f, r)
            kept = [k for k, flag in enumerate(s.kept_flags) if flag]
            errors += checks.compare_keep_sets(f"probe {label} {algo}", kept, expected)
            errors += [f"probe {label} {algo}: report {n} failed: {msg}" for n, msg in s.failed]
    return streams, errors


def _fingerprint(out_dirs) -> str:
    digest = hashlib.sha256()
    for out_dir in out_dirs:
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def window_profiles(name: str, width: float, work_dir: Path, end=None) -> list[Path]:
    """Cut a bundled profile, up to ``end`` s, into windows of about ``width`` s.

    Each window keeps the anchors strictly inside it and gets anchors at its
    edges with the full profile's values there, so it follows the full
    profile except for the interpolant's end slopes.
    """
    amp, freq = pipeline.parse_profile(pipeline.resolve_profile(name))
    gt = waveform.GroundTruth.from_anchors(amp, freq, f0=F0, fs=FS)
    lo, hi = gt.domain
    hi = hi if end is None else min(hi, end)
    k = max(1, round((hi - lo) / width))
    edges = [lo + (hi - lo) * i / k for i in range(k + 1)]
    paths = []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        lines = ["quantity,t_s,value"]
        for quantity, series, poly in (("amplitude_V", amp, gt.amplitude),
                                       ("frequency_Hz", freq, gt.frequency)):
            inner = [(float(t), float(v)) for t, v in zip(series.times, series.values)
                     if a < t < b]
            points = [(a, float(poly(a)))] + inner + [(b, float(poly(b)))]
            lines += [f"{quantity},{t!r},{v!r}" for t, v in points]
        path = work_dir / f"{name}_{i:02d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


class BatchWorkload:
    """Pipeline runs over windows of bundled profiles, then the latency probe.

    Every window is one part of the timed phase.  The first round's
    artifacts are checked in full (``check``); every later round must
    reproduce them byte for byte.
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.first_fingerprint = None

    def run_one(self, profile: Path, out_dir: Path, tracer) -> str | None:
        """Run the pipeline on one window; returns an error text on failure."""
        raise NotImplementedError

    def check(self, out_dirs) -> list[str]:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        round_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            out_dirs = [round_dir / f"{i:03d}" for i in range(len(self.windows))]
            failures = []
            streams = {algo: [] for algo in ALGORITHMS}
            errors = []
            t0 = time.perf_counter()
            pieces = []
            for (label, profile), out_dir in zip(self.windows, out_dirs):
                root = tracer.open("round") if tracer else None
                t = time.perf_counter()
                error = self.run_one(profile, out_dir, tracer)
                pieces.append(time.perf_counter() - t)
                if tracer:
                    tracer.close(root)
                if error:
                    failures.append(f"{label}: {error}")
                probe, probe_errors = run_probe(self.probe_stretches)
                for algo in ALGORITHMS:
                    streams[algo] += probe[algo]
                errors += probe_errors
            probes = [s for v in streams.values() for s in v]
            result = Round(pieces, time.perf_counter() - t0,
                           len(self.windows) + sum(s.attempted for s in probes),
                           len(failures) + sum(len(s.failed) for s in probes),
                           streams, errors + failures)
            if failures:
                return result.release()
            result.artifact_bytes = sum(p.stat().st_size for d in out_dirs for p in d.iterdir())
            counts = [checks.read_counts(d / "summary.json") for d in out_dirs]
            result.adaptive = {algo: tuple(sum(c[(algo, "adaptive")][i] for c in counts)
                                           for i in (1, 0)) for algo in ALGORITHMS}
            result.fingerprint = _fingerprint(out_dirs)
            if self.first_fingerprint is None:
                self.first_fingerprint = result.fingerprint
                result.errors += self.check(out_dirs)
            elif result.fingerprint != self.first_fingerprint:
                result.errors.append("artifacts differ from the first round's")
            return result.release()
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)


class OscillationStudy(BatchWorkload):
    """``run_experiment`` on the first 20 s of ``forced_oscillation`` in 4
    consecutive 5 s windows, both algorithms, fixed baselines 10 and 20
    (acceptance criterion 7's configuration)."""

    name = "oscillation_study"

    def setup(self) -> None:
        self.windows = [("forced_oscillation", p) for p in window_profiles(
            "forced_oscillation", OSCILLATION_WINDOW_S, self.work_dir, OSCILLATION_END_S)]
        self.probe_stretches = probe_stretches(
            [("forced_oscillation", load_bundled("forced_oscillation"))], self.seed)

    def run_one(self, profile: Path, out_dir: Path, tracer) -> str | None:
        config = pipeline.ExperimentConfig(
            profile_path=str(profile), algorithms=ALGORITHMS,
            fixed_baselines=OSCILLATION_FIXED, output_dir=str(out_dir))
        try:
            pipeline.run_experiment(config)
        except PmuStreamError as exc:
            return f"run_experiment failed: {type(exc).__name__}: {exc}"
        return None

    def check(self, out_dirs) -> list[str]:
        windows = [(checks.read_table(d / "table.csv"), checks.read_counts(d / "summary.json"))
                   for d in out_dirs]
        errors = checks.check_criterion_7(checks.aggregate(windows), ALGORITHMS,
                                          [checks.RR_IN / d for d in OSCILLATION_FIXED])
        for out_dir, (_, counts) in zip(out_dirs, windows):
            for algo in ALGORITHMS:
                lines = (out_dir / f"kept_{algo}_adaptive.jsonl").read_text().splitlines()
                if len(lines) != counts[(algo, "adaptive")][1]:
                    errors.append(f"{out_dir.name}: kept_{algo}_adaptive.jsonl has {len(lines)} "
                                  f"lines, summary.json keeps {counts[(algo, 'adaptive')][1]}")
        return errors


class EventArchive(BatchWorkload):
    """``pmustream run --emit-decisions --emit-traces --fixed 2`` on consecutive
    windows of about 0.25 s of ``abrupt_collapse``, in-process through the CLI
    entry point, each into a fresh directory."""

    name = "event_archive"

    def setup(self) -> None:
        # every other window: the round spans the whole profile, quiet start
        # and collapse alike, at half the work, so a run repeats it twice as often
        windows = [(name, p) for name in ARCHIVE_PROFILES
                   for p in window_profiles(name, ARCHIVE_WINDOW_S, self.work_dir)[::2]]
        random.Random(self.seed).shuffle(windows)
        self.windows = windows
        self.probe_stretches = probe_stretches(
            [(name, load_bundled(name)) for name in ARCHIVE_PROFILES], self.seed)

    def run_one(self, profile: Path, out_dir: Path, tracer) -> str | None:
        span = tracer.open("cli.main") if tracer else None
        code, stderr = _run_cli(["run", "--profile", str(profile), "--out", str(out_dir),
                                 "--emit-decisions", "--emit-traces", "--fixed", "2"])
        if tracer:
            tracer.close(span)
        return f"pmustream run exited {code}: {stderr.strip()}" if code else None

    def check(self, out_dirs) -> list[str]:
        errors = []
        collapse = []
        for (name, _), out_dir in zip(self.windows, out_dirs):
            table = checks.read_table(out_dir / "table.csv")
            counts = checks.read_counts(out_dir / "summary.json")
            if name == "abrupt_collapse":
                collapse.append((table, counts))
            errors += [f"{name} {out_dir.name}: {e}" for e in self.check_window(out_dir, table)]
        errors += checks.check_criterion_6(checks.aggregate(collapse), ALGORITHMS)
        return errors

    @staticmethod
    def check_window(out_dir: Path, table: dict) -> list[str]:
        errors = []
        for algo in ALGORITHMS:
            log = out_dir / f"decisions_{algo}_adaptive.jsonl"
            errors += checks.check_decision_log(log)
            flags = [json.loads(line)["kept"] for line in log.read_text().splitlines()]
            total, kept = len(flags), sum(flags)
            kept_lines = len((out_dir / f"kept_{algo}_adaptive.jsonl").read_text().splitlines())
            if kept_lines != kept:
                errors.append(f"kept_{algo}_adaptive.jsonl has {kept_lines} lines, "
                              f"the decision log keeps {kept}")
            for mode, marks in (("100fps", total), ("50fps", -(-total // 2)),
                                ("adaptive", kept)):
                errors += checks.check_trace(out_dir / f"trace_{algo}_{mode}.csv", table,
                                             algo, mode, total, marks)
        return errors


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the ``pmustream`` entry point in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main(argv, prog_name="pmustream", standalone_mode=False)
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), err.getvalue()
    return 0, err.getvalue()


class PmuStream:
    """The real-time device path on a seeded 30 s profile with a blackout."""

    name = "pmu_stream"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.first = None

    def setup(self) -> None:
        self.block = None
        self.profile = anchors.generate(self.seed)
        path = self.work_dir / f"pmu_stream_{self.seed}.csv"
        path.write_text(self.profile.csv_text(), encoding="utf-8")
        try:
            amp, freq = pipeline.parse_profile(path)
        finally:
            path.unlink()
        gt = waveform.GroundTruth.from_anchors(amp, freq, f0=F0, fs=FS)
        phase0 = anchors.aligned_phase0(float(gt.phase(anchors.TAIL_START)))
        gt = waveform.GroundTruth.from_anchors(amp, freq, f0=F0, fs=FS, phase0=phase0)
        self.reports = report_span(gt)
        self.block = synth_for(gt, self.reports)

    def blackout_reports(self) -> set[int]:
        """Reports with an all-zero i_ipdft window (current or previous)."""
        lo, hi = (round(t * FS) for t in anchors.BLACKOUT)
        h = IPDFT_HALF_WINDOW
        return {n for n in self.reports
                if any(lo <= c - h and c + h - 1 <= hi for c in (n, n - R))}

    def run_round(self, tracer=None) -> Round:
        loops = {algo: StreamLoop(algo, self.block, "main") for algo in ALGORITHMS}
        root = tracer.open("round") if tracer else None
        t0 = time.perf_counter()
        for i in range(0, len(self.reports), STREAM_CHUNK):
            chunk = self.reports[i:i + STREAM_CHUNK]
            for loop in loops.values():
                loop.feed(chunk)
        measured = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        streams = {algo: loop.finish() for algo, loop in loops.items()}
        result = Round([x for s in streams.values() for x in s.pieces], measured,
                       sum(s.attempted for s in streams.values()),
                       sum(len(s.failed) for s in streams.values()),
                       {a: [s] for a, s in streams.items()}, [], main_streams=streams)
        result.adaptive = {a: (sum(s.kept_flags), len(s.fed)) for a, s in streams.items()}
        digest = hashlib.sha256()
        for algo in ALGORITHMS:
            s = streams[algo]
            for col in s.columns():
                digest.update(np.asarray(col).tobytes())
            digest.update(np.asarray(s.kept_flags).tobytes())
            digest.update(repr(s.failed).encode())
        result.fingerprint = digest.hexdigest()
        if self.first is None:
            self.first = result.fingerprint
            result.errors += self.check(streams)
        elif result.fingerprint != self.first:
            result.errors.append("outputs differ from the first round's")
        return result.release()

    def check(self, streams: dict) -> list[str]:
        errors = []
        expected_failures = self.blackout_reports()
        stretches = self.profile.flat_stretches()
        for algo, s in streams.items():
            t, p, f, r = s.columns()
            expected, _ = checks.keep_scan(t, p, f, r)
            kept = [i for i, k in enumerate(s.kept_flags) if k]
            errors += checks.compare_keep_sets(f"pmu_stream {algo}", kept, expected)
            flat_errors, checked = checks.check_flat_stretches(
                f"pmu_stream {algo}", t, p, f, r, stretches, LEFT / FS, RIGHT / FS)
            errors += flat_errors
            if checked < len(t) // 4:
                errors.append(f"pmu_stream {algo}: only {checked} reports lie in flat stretches")
            stray = [(n, msg) for n, msg in s.failed
                     if algo != "i_ipdft" or n not in expected_failures]
            errors += [f"pmu_stream {algo}: report at {n / FS} s failed outside the blackout: {msg}"
                       for n, msg in stray[:5]]
        return errors


WORKLOADS = {w.name: w for w in (OscillationStudy, EventArchive, PmuStream)}
