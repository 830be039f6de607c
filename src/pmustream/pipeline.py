"""Experiment orchestration: profile -> synthesis -> estimation -> decimation -> scores.

An experiment run scores every configured algorithm at the full internal
rate, under adaptive decimation, and under fixed-divisor baselines, on a
common dense evaluation grid, then writes comparison tables and plot data.
All steps are deterministic: two runs with the same configuration produce
byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import json
import math
import numbers
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .decimator import Thresholds, decimate_stream, grid_serving_rows, predict_rows
from .errors import ConfigError, InvalidInputError, PmuStreamError, ProfileError, with_context
from .estimators import (
    ALGORITHMS,
    EstimatorConfig,
    EstimatorKind,
    TripletSeries,
    run_estimator,
)
from .metrics import TRE_FORMULAS, TrackingReport, instantaneous_rr, tracking_indices
from .waveform import (GRID_INDEX_LIMIT, AnchorSeries, GroundTruth, eval_reference,
                       synth_three_phase)

AMPLITUDE_QUANTITY = "amplitude_V"
FREQUENCY_QUANTITY = "frequency_Hz"
PROFILE_HEADER = ("quantity", "t_s", "value")
# grid rows per step of the trace writer: its text for one file is about
# 1 kB per row, and a step's own cost is a few percent of its formatting
TRACE_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults follow the test setup."""

    profile_path: str
    f0: float = 50.0
    fs: float = 10_000.0
    rr_in: float = 100.0
    phase0: float = 0.0
    algorithms: tuple[str, ...] = ALGORITHMS
    thresholds: Thresholds = field(default_factory=Thresholds)
    fixed_baselines: tuple[int, ...] = (2,)
    tre_formula: str = "rms"
    output_dir: str = "results"
    ipdft_iterations: int = 3
    emit_decisions: bool = False
    emit_traces: bool = False
    # derived, not settable: the estimators' sampling geometry, and the
    # reporting modes as (label, divisor) in table order: full rate, the
    # fixed divisors ascending, then adaptive (divisor None)
    estimator_config: EstimatorConfig = field(init=False)
    modes: tuple[tuple[str, int | None], ...] = field(init=False)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        object.__setattr__(self, "algorithms", tuple(dict.fromkeys(self.algorithms)))
        if self.tre_formula not in TRE_FORMULAS:
            raise ConfigError(f"tre_formula must be one of {TRE_FORMULAS}")
        try:  # the estimator types validate their own parameters
            for name in self.algorithms:
                self.kind(name)
            est = EstimatorConfig(f0=self.f0, fs=self.fs, internal_rate=self.rr_in)
        except InvalidInputError as exc:
            raise ConfigError(f"invalid estimator setup: {exc}") from exc
        object.__setattr__(self, "estimator_config", est)
        if not all(isinstance(d, numbers.Real) and d >= 1
                   and (isinstance(d, numbers.Integral) or float(d).is_integer())
                   for d in self.fixed_baselines):
            raise ConfigError("fixed baselines must be positive integer divisors")
        object.__setattr__(self, "fixed_baselines", tuple(int(d) for d in self.fixed_baselines))
        modes: dict[str, int | None] = {}
        for d in [1] + sorted(set(self.fixed_baselines) - {1}):
            try:
                label = f"{self.rr_in / d:g}fps"
            except OverflowError as exc:
                raise ConfigError(f"fixed baseline divisor too large: {exc}") from exc
            if label in modes:
                raise ConfigError(f"fixed baseline divisors {modes[label]} and {d} "
                                  f"share the mode label {label!r}")
            modes[label] = d
        modes["adaptive"] = None
        object.__setattr__(self, "modes", tuple(modes.items()))

    def kind(self, algorithm: str) -> EstimatorKind:
        return EstimatorKind(algorithm, ipdft_iterations=self.ipdft_iterations)


def bundled_profile_dir():
    return resources.files("pmustream") / "profiles"


def list_profiles() -> list[str]:
    """Names of the profiles shipped with the package."""
    return sorted(p.name[:-4] for p in bundled_profile_dir().iterdir()
                  if p.name.endswith(".csv"))


def resolve_profile(name_or_path: str) -> Path:
    """Accept a filesystem path or the name of a bundled profile."""
    path = Path(name_or_path)
    if path.exists():
        return path
    stem = name_or_path[:-4] if name_or_path.endswith(".csv") else name_or_path
    candidate = bundled_profile_dir() / f"{stem}.csv"
    if candidate.is_file():
        return Path(str(candidate))
    raise ProfileError(f"profile {name_or_path!r} is neither a file nor a bundled profile")


def parse_profile(path: str | Path) -> tuple[AnchorSeries, AnchorSeries]:
    """Read a two-quantity anchor CSV into (amplitude, frequency) series.

    Rows are ``quantity,t_s,value`` with quantity in {amplitude_V,
    frequency_Hz}; ``#`` starts a comment line.  Errors cite the 1-based line
    number in the file.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc

    columns: dict[str, list[tuple[float, float]]] = {
        AMPLITUDE_QUANTITY: [],
        FREQUENCY_QUANTITY: [],
    }
    header_seen = False
    for row_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if not header_seen:
            if tuple(cells) != PROFILE_HEADER:
                raise ProfileError(
                    f"expected header {','.join(PROFILE_HEADER)!r}, got {line!r}", row=row_no)
            header_seen = True
            continue
        if len(cells) != 3:
            raise ProfileError(f"expected 3 columns, got {len(cells)}", row=row_no)
        quantity, t_text, v_text = cells
        if quantity not in columns:
            raise ProfileError(f"unknown quantity {quantity!r}", row=row_no)
        try:
            t, v = float(t_text), float(v_text)
        except ValueError:
            raise ProfileError(f"non-numeric cell in {line!r}", row=row_no) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ProfileError("time and value must be finite", row=row_no)
        series = columns[quantity]
        if series and t <= series[-1][0]:
            raise ProfileError(
                f"{quantity} time {t} does not increase past {series[-1][0]}", row=row_no)
        series.append((t, v))

    if not header_seen:
        raise ProfileError("profile file has no header row")
    for quantity, rows in columns.items():
        if len(rows) < 2:
            raise ProfileError(f"profile needs at least 2 {quantity} rows")
    return (AnchorSeries.from_points(columns[AMPLITUDE_QUANTITY]),
            AnchorSeries.from_points(columns[FREQUENCY_QUANTITY]))


def evaluation_window(config: ExperimentConfig) -> tuple[GroundTruth, int, int, int, int]:
    """Ground truth of the configured profile and the reporting/evaluation
    geometry common to all configured algorithms; ``run_experiment`` and
    ``validate`` share it as the one rule for which profiles a run accepts.

    Returns it with (first report index, last report index, left margin,
    right margin) in samples on the fs grid; the first report sits past the
    largest estimator warm-up, aligned to the internal reporting interval.
    """
    gt = GroundTruth.from_anchors(*parse_profile(resolve_profile(config.profile_path)),
                                  f0=config.f0, fs=config.fs, phase0=config.phase0)
    n_lo, n_hi = gt.sample_span
    span = f"profile span {list(gt.domain)} s"
    if not (-GRID_INDEX_LIMIT < n_lo and n_hi < GRID_INDEX_LIMIT):
        raise InvalidInputError(f"{span} reaches sample {GRID_INDEX_LIMIT} at fs = "
                                f"{config.fs} Hz; shift the time tags toward 0")
    est = config.estimator_config
    left = max(config.kind(a).left_margin(est) for a in config.algorithms)
    right = max(config.kind(a).right_margin(est) for a in config.algorithms)
    r = est.r
    n_first = math.ceil((n_lo + left) / r) * r
    n_last = n_first + ((n_hi - right - n_first) // r) * r
    if n_last < n_first:
        raise ConfigError(f"{span} too short for the estimator windows")
    return gt, n_first, n_last, left, right


def run_experiment(config: ExperimentConfig) -> dict[tuple[str, str], TrackingReport]:
    """Execute one experiment and write its artifacts under ``output_dir``."""
    gt, n_first, n_last, left, right = evaluation_window(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est = config.estimator_config
    fs = config.fs
    block = synth_three_phase(gt, (n_first - left) / fs, n_last - n_first + left + right + 1)
    grid = np.arange(n_first, n_last + 1) / fs
    reference = TripletSeries(grid, *eval_reference(gt, grid))

    reports: dict[tuple[str, str], TrackingReport] = {}
    traces = []  # (path, stream, kept) per traced (algorithm, mode)
    for name in config.algorithms:
        try:
            triplets = run_estimator(config.kind(name), block, est, n_first / fs, n_last / fs)
        except (PmuStreamError, ArithmeticError) as exc:
            raise with_context(exc, name)
        stream = TripletSeries.from_triplets(triplets)
        total = len(stream)
        adaptive_kept, records = decimate_stream(triplets, config.thresholds, config.f0)

        for mode, divisor in config.modes:
            kept = adaptive_kept if divisor is None else np.arange(0, total, divisor)
            try:  # report k sits on grid row k*r
                series = predict_rows(stream, *grid_serving_rows(kept, kept * est.r, grid, 0),
                                      config.f0)
                tre = tracking_indices(series, reference, config.tre_formula)
            except (PmuStreamError, ArithmeticError) as exc:
                raise with_context(exc, f"{name} {mode}")
            reports[(name, mode)] = TrackingReport(*tre, kept.size, total)
            if config.emit_traces:
                traces.append((out_dir / f"trace_{name}_{mode}.csv", stream, kept))

        _write_frames(out_dir / f"kept_{name}_adaptive.jsonl", stream, records, adaptive_kept)
        rr = instantaneous_rr(stream.t[adaptive_kept])
        (out_dir / f"instantaneous_rr_{name}_adaptive.csv").write_text(
            "t_s,rr_fps\n" + _csv_lines(*map(_cells, zip(*rr))), encoding="utf-8")
        if config.emit_decisions:
            _write_frames(out_dir / f"decisions_{name}_adaptive.jsonl", stream, records,
                          np.arange(total), decisions=True)

    if traces:
        _write_traces(traces, reference, config.f0, est)

    csv_text, human_text = emit_table(reports, config)
    (out_dir / "table.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "table.txt").write_text(human_text, encoding="utf-8")
    (out_dir / "summary.json").write_text(_summary_json(config, reports), encoding="utf-8")
    return reports


def emit_table(reports: dict[tuple[str, str], TrackingReport],
               config: ExperimentConfig) -> tuple[str, str]:
    """Long-format CSV plus human-readable table of the ``run_experiment``
    reports for ``config``, in its algorithm and mode order."""
    algorithms = config.algorithms
    modes = [mode for mode, _ in config.modes]
    adaptive = [reports[(algo, "adaptive")] for algo in algorithms]
    index_rows = [
        ("TrE_TVE [%]", lambda r: r.tre_tve),
        ("TrE_FE [mHz]", lambda r: r.tre_fe),
        ("TrE_RFE [Hz/s]", lambda r: r.tre_rfe),
    ]
    csv_lines = ["index,rr_mode,algorithm,value"]
    for label, getter in index_rows:
        for mode in modes:
            for algo in algorithms:
                csv_lines.append(f"{label},{mode},{algo},{getter(reports[(algo, mode)])!r}")
    for algo, report in zip(algorithms, adaptive):
        csv_lines.append(f"compression_ratio,adaptive,{algo},{report.compression_ratio!r}")

    width = 14
    header = f"{'Index':<16}{'RR':<12}" + "".join(f"{a:>{width}}" for a in algorithms)
    sep = "-" * len(header)
    human = [header, sep]
    for label, getter in index_rows:
        for mode in modes:
            human.append(f"{label:<16}{mode:<12}" + "".join(
                f"{getter(reports[(algo, mode)]):>{width}.4g}" for algo in algorithms))
        human.append(sep)
    human.append(f"{'Compression':<16}{'adaptive':<12}" + "".join(
        f"{r.compression_ratio:>{width}.4g}" for r in adaptive))
    return "\n".join(csv_lines) + "\n", "\n".join(human) + "\n"


def _summary_json(config: ExperimentConfig,
                  reports: dict[tuple[str, str], TrackingReport]) -> str:
    payload = {
        "profile": str(config.profile_path),
        "f0": config.f0,
        "fs": config.fs,
        "rr_in": config.rr_in,
        "thresholds": asdict(config.thresholds),
        "tre_formula": config.tre_formula,
        "reports": {
            f"{algo}/{mode}": {
                "tre_tve_percent": r.tre_tve,
                "tre_fe_mhz": r.tre_fe,
                "tre_rfe_hz_per_s": r.tre_rfe,
                "kept_count": r.kept_count,
                "total_count": r.total_count,
                "compression_ratio": r.compression_ratio,
            }
            for (algo, mode), r in sorted(reports.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_frames(path: Path, stream: TripletSeries, records: list, rows: np.ndarray,
                  decisions: bool = False) -> None:
    """JSON lines of the frames ``rows`` of ``stream``: the triplet and the
    binding quantity, plus ``kept`` and ``eps`` (non-finite as null) for the
    decision log."""
    lines = []
    columns = (c[rows].tolist() for c in _columns(stream))
    for i, t, re, im, f, rocof in zip(rows.tolist(), *columns):
        rec = records[i]
        frame = dict(t=t, re=re, im=im, f=f, rocof=rocof, binding=rec.binding_quantity)
        if decisions:
            frame["kept"] = rec.kept
            frame["eps"] = (None if rec.epsilon is None else
                            [e if math.isfinite(e) else None for e in rec.epsilon.tolist()])
        lines.append(json.dumps(frame, allow_nan=False))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _columns(series: TripletSeries) -> tuple[np.ndarray, ...]:
    return series.t, series.phasor.real, series.phasor.imag, series.frequency, series.rocof


def _cells(values) -> list[str]:
    """CSV cells of ``values``: a cell is the repr of a Python float or int,
    the shortest text that reads back to the same value."""
    return list(map(repr, np.asarray(values).tolist()))


def _csv_lines(*columns: list[str]) -> str:
    """CSV text of the rows whose cells are ``columns``, one list each."""
    text = "\n".join(map(",".join, zip(*columns)))
    return text + "\n" if text else text


def _write_traces(traces, reference: TripletSeries, f0: float, est: EstimatorConfig) -> None:
    """One CSV per ``(path, stream, kept)``: time, reference, reconstruction
    from the ``kept`` reports on the reference grid, and a flag on their rows.
    One pass over the grid writes every file from the serving rows scoring
    uses, so each chunk holds the values scored."""
    header = "t_s,ref_re,ref_im,ref_f,ref_rocof,recon_re,recon_im,recon_f,recon_rocof,kept\n"
    with ExitStack() as stack:  # a file that cannot be opened closes the others
        streams: dict[int, tuple[TripletSeries, list]] = {}  # the files of each stream
        for path, stream, kept in traces:
            fh = stack.enter_context(path.open("w", encoding="utf-8"))
            fh.write(header)
            streams.setdefault(id(stream), (stream, []))[1].append((fh, kept, kept * est.r))
        for lo in range(0, reference.t.size, TRACE_CHUNK_ROWS):
            _write_trace_chunk(streams.values(), reference, lo, est.r, f0)


def _write_trace_chunk(streams, reference: TripletSeries, lo: int, r: int, f0: float) -> None:
    """The rows of the grid chunk at ``lo`` in every file of ``_write_traces``.

    The time and reference cells are formatted once for all files.  A row
    served by its own report (``g // r``) has the same value in every mode,
    so its cells are formatted once per stream; each file formats only the
    rows it serves from an earlier report, and its held ROCOF once per
    serving report.  What a chunk formats is dropped before the next one."""
    grid = reference.t[lo:lo + TRACE_CHUNK_ROWS]
    hi = lo + grid.size
    shared = list(map(",".join, zip(*(_cells(c[lo:hi]) for c in _columns(reference)))))
    own = np.arange(lo, hi)
    own_exact = own % r == 0
    own //= r

    def lines(stream, own_cells, kept, kept_rows) -> list[str]:
        # one file's lines and a last empty one; the cells formatted for them
        # are dropped on return, before the lines are joined
        rows, _, exact = grid_serving_rows(kept, kept_rows, grid, lo)
        values = own_cells
        earlier = np.flatnonzero(rows != own)
        if earlier.size:
            values = own_cells.copy()
            recon = predict_rows(stream, rows[earlier], grid[earlier], exact[earlier], f0)
            for i, cell in zip(earlier.tolist(), _value_cells(recon)):
                values[i] = cell
        serving = rows.tolist()
        reports = list(dict.fromkeys(serving))
        rocof = dict(zip(reports, _cells(stream.rocof[reports])))
        text = list(map(",".join, zip(shared, values, map(rocof.__getitem__, serving),
                                      map(("0", "1").__getitem__, exact.tolist()))))
        text.append("")
        return text

    for stream, files in streams:
        own_cells = _value_cells(predict_rows(stream, own, grid, own_exact, f0))
        for fh, kept, kept_rows in files:
            fh.write("\n".join(lines(stream, own_cells, kept, kept_rows)))


def _value_cells(series: TripletSeries) -> list[str]:
    """The ``re,im,f`` text of each row of ``series``."""
    return list(map(",".join, zip(*map(_cells, _columns(series)[1:4]))))


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Read an INI-style experiment file; keyword overrides win over file keys.

    With ``path`` None no file is read: the overrides and the defaults make the
    whole config.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    exp = parser["experiment"] if parser.has_section("experiment") else {}
    thr = parser["thresholds"] if parser.has_section("thresholds") else {}

    def _split(text: str) -> list[str]:
        return [item.strip() for item in text.split(",") if item.strip()]

    values: dict = {}
    try:
        if "profile" in exp:
            values["profile_path"] = exp["profile"]
        for key, cast in (("f0", float), ("fs", float), ("rr_in", float),
                          ("phase0", float), ("ipdft_iterations", int)):
            if key in exp:
                values[key] = cast(exp[key])
        if "algorithms" in exp:
            values["algorithms"] = tuple(_split(exp["algorithms"]))
        if "fixed_baselines" in exp:
            values["fixed_baselines"] = tuple(int(d) for d in _split(exp["fixed_baselines"]))
        if "tre_formula" in exp:
            values["tre_formula"] = exp["tre_formula"]
        if "out_dir" in exp:
            values["output_dir"] = exp["out_dir"]
        thresholds = Thresholds(**{f.name: float(thr.get(f.name, f.default))
                                   for f in fields(Thresholds)})
    except (ValueError, InvalidInputError, configparser.Error) as exc:
        raise ConfigError(f"bad value in config {path}: {exc}") from exc
    overrides = {k: v for k, v in overrides.items() if v is not None}
    threshold_overrides = {f.name: overrides.pop(f.name) for f in fields(Thresholds)
                           if f.name in overrides}
    if threshold_overrides:
        thresholds = replace(thresholds, **threshold_overrides)
    values["thresholds"] = thresholds
    values.update(overrides)
    if "profile_path" not in values:
        raise ConfigError("no profile given (config key 'profile' or --profile)")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
