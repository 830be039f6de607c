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
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .decimator import Thresholds, decimate_stream, predict_rows, reconstruct, serving_rows
from .errors import ConfigError, InvalidInputError, PmuStreamError, ProfileError, with_context
from .estimators import (
    ALGORITHMS,
    IPDFT_ITERATIONS,
    EstimatorConfig,
    EstimatorKind,
    TripletSeries,
    run_estimator,
)
from .metrics import (TRACKING_INDICES, TRE_FORMULAS, TrackingReport, instantaneous_rr,
                      tracking_indices)
from .waveform import (GRID_INDEX_LIMIT, AnchorSeries, GroundTruth, eval_reference,
                       synth_three_phase)

AMPLITUDE_QUANTITY = "amplitude_V"
FREQUENCY_QUANTITY = "frequency_Hz"
PROFILE_HEADER = ("quantity", "t_s", "value")
# grid rows per step of the trace writer: its text for one file is about
# 160 B per row, and a step's own cost is a few percent of its formatting
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
    ipdft_iterations: int = IPDFT_ITERATIONS
    emit_decisions: bool = False
    emit_traces: bool = False
    # derived, not settable: one estimator per algorithm, the estimators'
    # sampling geometry, and the reporting modes as (label, divisor) in table
    # order: full rate, the fixed divisors ascending, then adaptive (divisor None)
    kinds: tuple[EstimatorKind, ...] = field(init=False)
    estimator_config: EstimatorConfig = field(init=False)
    modes: tuple[tuple[str, int | None], ...] = field(init=False)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        if self.tre_formula not in TRE_FORMULAS:
            raise ConfigError(f"tre_formula must be one of {TRE_FORMULAS}")
        try:  # the estimator types validate their own parameters
            kinds = tuple(EstimatorKind(name, ipdft_iterations=self.ipdft_iterations)
                          for name in dict.fromkeys(self.algorithms))
            est = EstimatorConfig(f0=self.f0, fs=self.fs, internal_rate=self.rr_in)
        except InvalidInputError as exc:
            raise ConfigError(f"invalid estimator setup: {exc}") from exc
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "algorithms", tuple(k.algorithm for k in kinds))
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
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc

    columns: dict[str, tuple[list[float], list[float]]] = {  # (times, values)
        AMPLITUDE_QUANTITY: ([], []),
        FREQUENCY_QUANTITY: ([], []),
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
        times, values = columns[quantity]
        if times and t <= times[-1]:
            raise ProfileError(
                f"{quantity} time {t} does not increase past {times[-1]}", row=row_no)
        times.append(t)
        values.append(v)

    if not header_seen:
        raise ProfileError("profile file has no header row")
    for quantity, (times, _) in columns.items():
        if len(times) < 2:
            raise ProfileError(f"profile needs at least 2 {quantity} rows")
    return AnchorSeries(*columns[AMPLITUDE_QUANTITY]), AnchorSeries(*columns[FREQUENCY_QUANTITY])


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
    left = max(kind.left_margin(est) for kind in config.kinds)
    right = max(kind.right_margin(est) for kind in config.kinds)
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
    for kind in config.kinds:
        name = kind.algorithm
        try:
            triplets = run_estimator(kind, block, est, n_first / fs, n_last / fs)
        except (PmuStreamError, ArithmeticError) as exc:
            raise with_context(exc, name)
        stream = TripletSeries.from_triplets(triplets)
        total = len(stream)
        adaptive_kept, records = decimate_stream(triplets, config.thresholds, config.f0)

        for mode, divisor in config.modes:
            kept = adaptive_kept if divisor is None else np.arange(0, total, divisor)
            try:
                series = reconstruct(stream, kept, grid, config.f0, est.ts)
                tre = tracking_indices(series, reference, config.tre_formula)
            except (PmuStreamError, ArithmeticError) as exc:
                raise with_context(exc, f"{name} {mode}")
            reports[(name, mode)] = TrackingReport(*tre, kept.size, total)
            if config.emit_traces:
                traces.append((out_dir / f"trace_{name}_{mode}.csv", stream, kept))

        _write_frames(out_dir / f"kept_{name}_adaptive.jsonl", stream, records, adaptive_kept)
        rr = map(_cells, instantaneous_rr(stream.t[adaptive_kept]))
        (out_dir / f"instantaneous_rr_{name}_adaptive.csv").write_text(
            "\n".join(["t_s,rr_fps", *map(",".join, zip(*rr))]) + "\n", encoding="utf-8")
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
    width = 14
    header = f"{'Index':<16}{'RR':<12}" + "".join(f"{a:>{width}}" for a in algorithms)
    sep = "-" * len(header)
    csv_lines = ["index,rr_mode,algorithm,value"]
    human = [header, sep]

    def row(csv_label: str, label: str, mode: str, values: list[float]) -> None:
        csv_lines.extend(f"{csv_label},{mode},{algo},{value!r}"
                         for algo, value in zip(algorithms, values))
        human.append(f"{label:<16}{mode:<12}" + "".join(f"{v:>{width}.4g}" for v in values))

    for index, label, _ in TRACKING_INDICES:
        for mode, _ in config.modes:
            row(label, label, mode, [getattr(reports[(algo, mode)], index) for algo in algorithms])
        human.append(sep)
    row("compression_ratio", "Compression", "adaptive",
        [reports[(algo, "adaptive")].compression_ratio for algo in algorithms])
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
                **{key: getattr(r, index) for index, _, key in TRACKING_INDICES},
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
                            [e if math.isfinite(e) else None for e in rec.epsilon])
        lines.append(json.dumps(frame, allow_nan=False))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _columns(series: TripletSeries) -> tuple[np.ndarray, ...]:
    return series.t, series.phasor.real, series.phasor.imag, series.frequency, series.rocof


def _cells(values) -> list[str]:
    """CSV cells of ``values``: a cell is the repr of a Python float or int,
    the shortest text that reads back to the same value."""
    return list(map(repr, np.asarray(values).tolist()))


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
            streams.setdefault(id(stream), (stream, []))[1].append((fh, kept))
        for lo in range(0, reference.t.size, TRACE_CHUNK_ROWS):
            _write_trace_chunk(streams.values(), reference, lo, f0, est.ts)


def _write_trace_chunk(streams, reference: TripletSeries, lo: int, f0: float,
                       ts: float) -> None:
    """The rows of the grid chunk at ``lo`` in every file of ``_write_traces``.

    The time and reference cells are formatted once for all files.  A row
    served by its own report (the one that serves it at the stream's full
    rate) has the same value in every mode, so its cells are formatted once
    per stream; each file formats only the rows it serves from an earlier
    report, and its held ROCOF once per serving report.  What a chunk formats
    is dropped before the next one."""
    grid = reference.t[lo:lo + TRACE_CHUNK_ROWS]
    hi = lo + grid.size
    shared = list(map(",".join, zip(*(_cells(c[lo:hi]) for c in _columns(reference)))))

    def lines(stream, own, own_cells, kept) -> list[str]:
        # one file's lines and a last empty one; the cells formatted for them
        # are dropped on return, before the lines are joined
        rows, _, exact = serving_rows(stream, kept, grid, ts)
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
        own, _, own_exact = serving_rows(stream, np.arange(len(stream)), grid, ts)
        own_cells = _value_cells(predict_rows(stream, own, grid, own_exact, f0))
        for fh, kept in files:
            fh.write("\n".join(lines(stream, own, own_cells, kept)))


def _value_cells(series: TripletSeries) -> list[str]:
    """The ``re,im,f`` text of each row of ``series``."""
    return list(map(",".join, zip(*map(_cells, _columns(series)[1:4]))))


def _split(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# INI section -> key -> cast of its text.  A key sets the ExperimentConfig or
# Thresholds field of its name; profile and out_dir set the fields in KEY_FIELDS
CONFIG_KEYS = {
    "experiment": dict(profile=str, f0=float, fs=float, rr_in=float, phase0=float,
                       ipdft_iterations=int, algorithms=_split, tre_formula=str, out_dir=str,
                       fixed_baselines=lambda text: tuple(map(int, _split(text)))),
    "thresholds": {f.name: float for f in fields(Thresholds)},
}
KEY_FIELDS = {"profile": "profile_path", "out_dir": "output_dir"}


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Read an INI-style experiment file; keyword overrides win over file keys.

    An override is named by the ExperimentConfig or Thresholds field it sets,
    and None leaves that field to the file or the default.  With ``path`` None
    no file is read: the overrides and the defaults make the whole config.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        path = Path(path)
        try:  # OSError: a missing file, a directory or a refused read
            parser.read_string(path.read_text(encoding="utf-8-sig"), source=str(path))
        except (OSError, configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    if parser.defaults():  # its keys would reach every section
        raise ConfigError(f"unknown section [{parser.default_section}] of config {path}")
    values: dict = {}
    thr: dict = {}
    for section in parser.sections():  # in file order: the first offending key is named
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}] of config {path}")
        target = thr if section == "thresholds" else values
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of config {path}")
            try:
                target[KEY_FIELDS.get(key, key)] = CONFIG_KEYS[section][key](parser[section][key])
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"bad value in config {path}: {exc}") from exc
    for name, value in overrides.items():
        if value is not None:
            (thr if name in CONFIG_KEYS["thresholds"] else values)[name] = value
    try:
        values["thresholds"] = Thresholds(**thr)
    except InvalidInputError as exc:
        raise ConfigError(f"bad threshold: {exc}") from exc
    if "profile_path" not in values:
        raise ConfigError("no profile given (config key 'profile' or --profile)")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
