"""Tests for profile parsing, experiment orchestration and the CLI."""

from __future__ import annotations

import builtins
import csv
import gc
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmustream import cli, pipeline
from pmustream.cli import main as cli_main
from pmustream.decimator import Thresholds, decimate_stream, reconstruct
from pmustream.errors import ConfigError, InvalidInputError, ProfileError
from pmustream.estimators import (ALGORITHMS, EstimatorConfig, EstimatorKind, TripletSeries,
                                  run_estimator)
from pmustream.metrics import TRE_FORMULAS, instantaneous_rr, tracking_indices
from pmustream.pipeline import (
    ExperimentConfig,
    emit_table,
    evaluation_window,
    list_profiles,
    load_config,
    parse_profile,
    resolve_profile,
    run_experiment,
)
from pmustream.waveform import GRID_INDEX_LIMIT, GroundTruth, eval_reference, synth_three_phase
from test_metrics import reference_series
from test_waveform import traced_peak

BUNDLED = [
    "abrupt_collapse",
    "forced_oscillation",
    "ramp_amplitude_modulation",
    "steady_nominal",
    "step_decaying_dips",
    "two_stage_collapse",
]


def write_profile(tmp_path: Path, body: str, name="profile.csv") -> Path:
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def write_bytes(tmp_path: Path, body: bytes, name: str) -> Path:
    path = tmp_path / name
    path.write_bytes(body)
    return path


def refuse_to_open(monkeypatch, path: Path) -> None:
    """Opening ``path`` fails as it does without read permission; root, who
    runs some test hosts, would read a file of mode 000."""
    def refusing(opener):
        def open_(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "Permission denied", str(path))
            return opener(file, *args, **kwargs)
        return open_

    monkeypatch.setattr(builtins, "open", refusing(builtins.open))
    monkeypatch.setattr(Path, "open", refusing(Path.open))


MINIMAL = """quantity,t_s,value
amplitude_V,0.0,230.0
amplitude_V,2.0,228.0
frequency_Hz,0.0,50.0
frequency_Hz,2.0,49.9
"""

# 8 s at 50 Hz with 0 V from 5.0 to 5.3 s
DIP = """quantity,t_s,value
amplitude_V,0,230
amplitude_V,4.9,230
amplitude_V,5.0,0
amplitude_V,5.3,0
amplitude_V,5.4,230
amplitude_V,8,230
frequency_Hz,0,50
frequency_Hz,8,50
"""

HUGE_DIVISOR = "1" + "0" * 400  # too large for a float rate
BOM = "\ufeff".encode()  # UTF-8 byte-order mark

# evaluation_window of every bundled profile under the default config, as the
# earlier edge rule (ceil/floor of lo*fs -/+ 1e-9) gave it
BUNDLED_WINDOWS = {
    "abrupt_collapse": (400, 44700, 400, 299),
    "forced_oscillation": (400, 1199700, 400, 299),
    "ramp_amplitude_modulation": (400, 29700, 400, 299),
    "steady_nominal": (400, 99700, 400, 299),
    "step_decaying_dips": (400, 599700, 400, 299),
    "two_stage_collapse": (400, 44700, 400, 299),
}

# span edges a rounding error off a sample instant; each used to fail
# synthesis (exit 3) once the evaluation window reached the edge sample
EDGE_SPANS = {"first_anchor_1e-14": (1e-14, 3.0), "last_anchor_3-1e-14": (0.0, 3.0 - 1e-14),
              "first_anchor_0.1+0.2": (0.1 + 0.2, 3.3)}


def steady(lo: float, hi: float) -> str:
    """Profile text of a steady 230 V / 50 Hz signal anchored at ``lo`` and ``hi``."""
    return "quantity,t_s,value\n" + "".join(
        f"{q},{t!r},{v}\n" for q, v in (("amplitude_V", 230), ("frequency_Hz", 50))
        for t in (lo, hi))


DISJOINT = ("quantity,t_s,value\namplitude_V,0,230\namplitude_V,1,229\n"
            "frequency_Hz,2,50\nfrequency_Hz,3,50\n")
# overlapping spans: validate used to accept it and run it on [0.5, 3] s only
OVERLAPPING = ("quantity,t_s,value\namplitude_V,0,230\namplitude_V,1,229\n"
               "amplitude_V,2.5,231\namplitude_V,4,230\n"
               "frequency_Hz,0.5,50\nfrequency_Hz,1.5,49.5\nfrequency_Hz,3,50\n")

# profiles that validate and run both refuse (exit 2), with the cause in
# their shared error line; the offset ones all used to pass validate, and run
# then exited 0 with wrong keeps (1e9, 1e12 s), 2 on an off-grid time (1e7,
# 1.7e9 s) or 3 (1e305 s)
SAMPLE_INDEX_LIMIT = f"reaches sample {GRID_INDEX_LIMIT}"
REFUSED = {
    "disjoint_sections": (DISJOINT, "amplitude anchors span [0.0, 1.0] s, frequency anchors "
                                    "[2.0, 3.0] s; they must span the same time"),
    "overlapping_sections": (OVERLAPPING, "amplitude anchors span [0.0, 4.0] s, frequency "
                                          "anchors [0.5, 3.0] s; they must span the same time"),
    "span_0.03s": (steady(0.0, 0.03), "profile span [0.0, 0.03] s too short"),
    "at_1e7s": (steady(1e7, 1e7 + 2), SAMPLE_INDEX_LIMIT),
    "at_1e9s": (steady(1e9, 1e9 + 2), SAMPLE_INDEX_LIMIT),
    "at_1.7e9s_soc": (steady(1.7e9, 1.7e9 + 2), SAMPLE_INDEX_LIMIT),
    "at_1e12s": (steady(1e12, 1e12 + 2), "reach 2**51 samples"),
    "at_1e305s": (steady(1e305, 2e305), "anchor times [1e+305, 2e+305] s reach 2**51 samples"),
    # anchors 1e-300 s apart or near 1e308 V fit to inf or NaN coefficients;
    # validate used to accept the first two and run then failed on non-finite
    # samples, and numpy warned mid-fit on the last two
    "amplitude_fit_nan": ("quantity,t_s,value\namplitude_V,0,230\namplitude_V,1e-300,231\n"
                          "amplitude_V,2,231.00000000000003\nfrequency_Hz,0,50\n"
                          "frequency_Hz,2,50\n",
                          "the amplitude anchors fit to non-finite coefficients"),
    "frequency_fit_nan": ("quantity,t_s,value\namplitude_V,0,230\namplitude_V,2,230\n"
                          "frequency_Hz,0,50\nfrequency_Hz,1e-300,50.5\n"
                          "frequency_Hz,2,50.50000000000001\n",
                          "the frequency anchors fit to non-finite coefficients"),
    "amplitude_fit_overflow": ("quantity,t_s,value\namplitude_V,0,230\namplitude_V,1e-300,231\n"
                               "amplitude_V,2,232\nfrequency_Hz,0,50\nfrequency_Hz,2,50\n",
                               "the amplitude anchors fit to non-finite coefficients"),
    "amplitude_values_overflow": ("quantity,t_s,value\namplitude_V,0,1e308\n"
                                  "amplitude_V,1,-1e308\namplitude_V,2,1e308\n"
                                  "frequency_Hz,0,50\nfrequency_Hz,2,50\n",
                                  "the amplitude anchors fit to non-finite coefficients"),
}


# ------------------------------------------------------------ parse_profile

class TestParseProfile:
    def test_minimal_two_point_series(self, tmp_path):
        amp, freq = parse_profile(write_profile(tmp_path, MINIMAL))
        assert amp.times.size == 2 and freq.times.size == 2
        assert amp.values[1] == 228.0
        assert freq.values[1] == 49.9

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        body = "# header comment\n\nquantity,t_s,value\n# interleaved\n" + \
            "amplitude_V,0,230\namplitude_V,1,229\n\nfrequency_Hz,0,50\nfrequency_Hz,1,50.1\n"
        amp, freq = parse_profile(write_profile(tmp_path, body))
        assert amp.times.size == 2 and freq.times.size == 2

    def test_out_of_order_row_cites_line_number(self, tmp_path):
        body = "quantity,t_s,value\namplitude_V,0,230\namplitude_V,2,229\n" + \
            "amplitude_V,1,228\nfrequency_Hz,0,50\nfrequency_Hz,2,50\n"
        with pytest.raises(ProfileError) as err:
            parse_profile(write_profile(tmp_path, body))
        assert err.value.row == 4
        assert "4" in str(err.value)

    def test_non_numeric_cell_rejected(self, tmp_path):
        body = "quantity,t_s,value\namplitude_V,0,230\namplitude_V,x,229\n"
        with pytest.raises(ProfileError) as err:
            parse_profile(write_profile(tmp_path, body))
        assert err.value.row == 3

    def test_missing_quantity_section_rejected(self, tmp_path):
        body = "quantity,t_s,value\namplitude_V,0,230\namplitude_V,1,229\n"
        with pytest.raises(ProfileError):
            parse_profile(write_profile(tmp_path, body))

    def test_unknown_quantity_rejected(self, tmp_path):
        body = "quantity,t_s,value\ncurrent_A,0,10\n"
        with pytest.raises(ProfileError) as err:
            parse_profile(write_profile(tmp_path, body))
        assert err.value.row == 2

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(ProfileError):
            parse_profile(write_profile(tmp_path, "time,quantity,value\n"))

    def test_non_utf8_bytes_rejected(self, tmp_path):
        bad = write_bytes(tmp_path, MINIMAL.encode() + b"# \xff\n", "latin.csv")
        with pytest.raises(ProfileError, match="cannot read profile"):
            parse_profile(bad)


# ---------------------------------------------------------- bundled library

class TestProfileLibrary:
    def test_all_bundled_profiles_listed(self):
        assert list_profiles() == BUNDLED

    def test_resolve_by_name_and_path(self, tmp_path):
        by_name = resolve_profile("steady_nominal")
        assert by_name.is_file()
        path = write_profile(tmp_path, MINIMAL)
        assert resolve_profile(str(path)) == path
        with pytest.raises(ProfileError):
            resolve_profile("no_such_profile")

    def test_every_bundled_profile_parses(self):
        for name in BUNDLED:
            amp, freq = parse_profile(resolve_profile(name))
            assert amp.times.size >= 2
            assert freq.times.size >= 2


# ----------------------------------------------------------- run_experiment

class TestRunExperiment:
    def test_steady_profile_collapses_to_one_frame(self, tmp_path):
        config = ExperimentConfig(
            profile_path="steady_nominal",
            algorithms=("p_iec",),
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)
        adaptive = reports[("p_iec", "adaptive")]
        assert adaptive.kept_count == 1
        assert adaptive.compression_ratio == adaptive.total_count
        assert adaptive.compression_ratio >= 100.0

    def test_degenerate_thresholds_match_full_rate_bitwise(self, tmp_path):
        config = ExperimentConfig(
            profile_path="two_stage_collapse",
            algorithms=("p_iec",),
            thresholds=Thresholds(1e-15, 1e-15, 1e-15),
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)
        full = reports[("p_iec", "100fps")]
        adaptive = reports[("p_iec", "adaptive")]
        assert adaptive.kept_count == adaptive.total_count
        assert adaptive.compression_ratio == 1.0
        assert adaptive.tre_tve == full.tre_tve
        assert adaptive.tre_fe == full.tre_fe
        assert adaptive.tre_rfe == full.tre_rfe

    def test_pipeline_equals_manual_composition(self, tmp_path):
        config = ExperimentConfig(
            profile_path="two_stage_collapse",
            algorithms=("i_ipdft",),
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)

        amp, freq = parse_profile(resolve_profile("two_stage_collapse"))
        gt = GroundTruth.from_anchors(amp, freq, f0=config.f0, fs=config.fs)
        est = config.estimator_config
        _, n_first, n_last, left, right = evaluation_window(config)
        block = synth_three_phase(
            gt, (n_first - left) / config.fs, n_last - n_first + left + right + 1)
        triplets = run_estimator(EstimatorKind("i_ipdft"), block, est,
                                 n_first / config.fs, n_last / config.fs)
        kept, _ = decimate_stream(triplets, config.thresholds, config.f0)
        grid = np.arange(n_first, n_last + 1) / config.fs
        series = reconstruct(TripletSeries.from_triplets(triplets), kept, grid, config.f0, est.ts)
        manual = tracking_indices(series, reference_series(gt, series.t), config.tre_formula)

        adaptive = reports[("i_ipdft", "adaptive")]
        assert (adaptive.tre_tve, adaptive.tre_fe, adaptive.tre_rfe) == manual
        assert adaptive.kept_count == len(kept)

    @pytest.mark.parametrize("profile", [
        "abrupt_collapse", "two_stage_collapse", "ramp_amplitude_modulation",
    ])
    def test_full_rate_row_is_never_worse(self, tmp_path, profile):
        config = ExperimentConfig(
            profile_path=profile,
            fixed_baselines=(2, 10),
            output_dir=str(tmp_path / profile),
        )
        reports = run_experiment(config)
        for algo in config.algorithms:
            full = reports[(algo, "100fps")]
            for mode in ("50fps", "10fps", "adaptive"):
                other = reports[(algo, mode)]
                assert full.tre_tve <= other.tre_tve + 1e-15
                assert full.tre_fe <= other.tre_fe + 1e-15
                # ROCOF rows can invert by ~1% when the profile keeps nearly
                # every frame: the ROCOF error is estimator jitter rather than
                # prediction error, and holding every jittery sample is not
                # strictly better than holding a subset
                assert full.tre_rfe <= other.tre_rfe * 1.02 + 1e-15

    def test_run_is_deterministic(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            config = ExperimentConfig(
                profile_path="steady_nominal",
                algorithms=("p_iec", "i_ipdft"),
                output_dir=str(out),
                emit_decisions=True,
            )
            run_experiment(config)
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the pinned BLAS core and CPU features name x86-64 kernels")
    def test_run_agrees_across_numerics_back_ends(self, tmp_path):
        # the variables pin one process to the x86-64 baseline BLAS and ufunc
        # kernels, which round differently from the ones picked at load time
        baseline = {"OPENBLAS_CORETYPE": "Prescott",
                    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
        src = str(Path(pipeline.__file__).resolve().parent.parent)
        runs = []
        for name, kernels in (("default", {}), ("baseline", baseline)):
            out = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "pmustream.cli", "run", "--profile", "abrupt_collapse",
                 "--emit-decisions", "--out", str(out)],
                env={**os.environ, **kernels, "PYTHONPATH": src}, capture_output=True, text=True)
            assert result.returncode == 0, (name, result.stderr)
            runs.append(out)

        summaries = [json.loads((out / "summary.json").read_text())["reports"] for out in runs]
        assert summaries[0].keys() == summaries[1].keys()
        for key, want in summaries[0].items():
            for index in ("tre_tve_percent", "tre_fe_mhz", "tre_rfe_hz_per_s"):
                got = summaries[1][key][index]
                assert abs(got - want[index]) <= 1e-6 * abs(want[index]), (key, index)
        for algo in ALGORITHMS:
            logs = [[json.loads(line) for line in
                     (out / f"decisions_{algo}_adaptive.jsonl").read_text().splitlines()]
                    for out in runs]
            assert [d["t"] for d in logs[0]] == [d["t"] for d in logs[1]]
            flips = [pair for pair in zip(*logs) if pair[0]["kept"] != pair[1]["kept"]]
            if flips:  # a keep may flip only where a frame sits at the threshold
                for decision in flips[0]:
                    assert abs(max(decision["eps"]) - 1.0) <= 1e-3, (algo, decision)

    def test_artifact_files_written(self, tmp_path):
        out = tmp_path / "artifacts"
        config = ExperimentConfig(
            profile_path="two_stage_collapse",
            algorithms=("p_iec",),
            output_dir=str(out),
            emit_decisions=True,
            emit_traces=True,
        )
        run_experiment(config)
        names = {p.name for p in out.iterdir()}
        assert {"table.csv", "table.txt", "summary.json",
                "kept_p_iec_adaptive.jsonl", "decisions_p_iec_adaptive.jsonl",
                "instantaneous_rr_p_iec_adaptive.csv",
                "trace_p_iec_adaptive.csv", "trace_p_iec_100fps.csv",
                "trace_p_iec_50fps.csv"} <= names

        kept_lines = (out / "kept_p_iec_adaptive.jsonl").read_text().splitlines()
        first = json.loads(kept_lines[0])
        assert set(first) == {"t", "re", "im", "f", "rocof", "binding"}
        assert first["binding"] == "first"

        decision_lines = (out / "decisions_p_iec_adaptive.jsonl").read_text().splitlines()
        payloads = [json.loads(line) for line in decision_lines]
        assert all(set(p) == {"t", "re", "im", "f", "rocof", "binding", "kept", "eps"}
                   for p in payloads)
        assert sum(p["kept"] for p in payloads) == len(kept_lines)
        summary = json.loads((out / "summary.json").read_text())
        assert "p_iec/adaptive" in summary["reports"]

        trace_lines = (out / "trace_p_iec_adaptive.csv").read_text().splitlines()
        assert trace_lines[0].split(",")[-1] == "kept"
        kept_flags = sum(int(line.rsplit(",", 1)[1]) for line in trace_lines[1:])
        assert kept_flags == len(kept_lines)
        assert all(float(cell) is not None for cell in trace_lines[1].split(","))

        for artifact in out.iterdir():
            assert "np." not in artifact.read_text(), artifact.name

    def test_trace_columns_round_trip(self, tmp_path, monkeypatch):
        # several chunks, the last one partial
        monkeypatch.setattr(pipeline, "TRACE_CHUNK_ROWS", 4096)
        out = tmp_path / "traces"
        config = ExperimentConfig(
            profile_path="two_stage_collapse",
            algorithms=("p_iec",),
            fixed_baselines=(10,),
            output_dir=str(out),
            emit_traces=True,
        )
        reports = run_experiment(config)

        def trace_columns(mode):
            with (out / f"trace_p_iec_{mode}.csv").open(encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][-1] == "kept"
            return rows[0], np.array(rows[1:], dtype=float).T

        header, cols = trace_columns("adaptive")

        amp, freq = parse_profile(resolve_profile("two_stage_collapse"))
        gt = GroundTruth.from_anchors(amp, freq, f0=config.f0, fs=config.fs)
        est = config.estimator_config
        _, n_first, n_last, left, right = evaluation_window(config)
        block = synth_three_phase(
            gt, (n_first - left) / config.fs, n_last - n_first + left + right + 1)
        triplets = run_estimator(EstimatorKind("p_iec"), block, est,
                                 n_first / config.fs, n_last / config.fs)
        kept, _ = decimate_stream(triplets, config.thresholds, config.f0)
        grid = np.arange(n_first, n_last + 1) / config.fs
        ref_phasor, ref_freq, ref_rocof = eval_reference(gt, grid)
        series = reconstruct(TripletSeries.from_triplets(triplets), kept, grid, config.f0, est.ts)

        expected = (grid, ref_phasor.real, ref_phasor.imag, ref_freq, ref_rocof,
                    series.phasor.real, series.phasor.imag, series.frequency, series.rocof)
        for name, col, want in zip(header, cols, expected):
            np.testing.assert_array_equal(col, want, err_msg=name)
        assert cols[-1].sum() == reports[("p_iec", "adaptive")].kept_count
        # report k sits on grid row k*r, in the adaptive and in a fixed trace
        np.testing.assert_array_equal(np.flatnonzero(cols[-1]), kept * est.r)
        _, fixed_cols = trace_columns("10fps")
        np.testing.assert_array_equal(np.flatnonzero(fixed_cols[-1]),
                                      np.arange(0, len(triplets), 10) * est.r)

    def test_frame_logs_agree_with_decisions(self, tmp_path):
        # the kept log is the decision log's kept lines without kept/eps, and
        # the RR file reads back to the instantaneous rate of the kept times
        out = tmp_path / "logs"
        config = ExperimentConfig(profile_path="abrupt_collapse", output_dir=str(out),
                                  emit_decisions=True)
        run_experiment(config)
        for algo in config.algorithms:
            decisions = [json.loads(line) for line in
                         (out / f"decisions_{algo}_adaptive.jsonl").read_text().splitlines()]
            kept = [{k: v for k, v in d.items() if k not in ("kept", "eps")}
                    for d in decisions if d["kept"]]
            kept_lines = (out / f"kept_{algo}_adaptive.jsonl").read_text().splitlines()
            assert kept_lines == [json.dumps(d, allow_nan=False) for d in kept]
            with (out / f"instantaneous_rr_{algo}_adaptive.csv").open(encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["t_s", "rr_fps"]
            t, rr = instantaneous_rr([d["t"] for d in kept])
            assert [tuple(map(float, r)) for r in rows[1:]] == list(zip(t.tolist(), rr.tolist()))

    def test_float_divisors_normalised(self, tmp_path):
        outputs = []
        for divisors in ((2,), (2.0,)):
            out = tmp_path / f"d{len(outputs)}"
            config = ExperimentConfig(
                profile_path="ramp_amplitude_modulation",
                algorithms=("p_iec",),
                fixed_baselines=divisors,
                output_dir=str(out),
                emit_decisions=True,
                emit_traces=True,
            )
            assert config.fixed_baselines == (2,)
            assert type(config.fixed_baselines[0]) is int
            run_experiment(config)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        for bad in ((2.5,), (0,), (0.0,), (-2,), (float("nan"),), (float("inf"),), ("2",),
                    (int(HUGE_DIVISOR),)):
            with pytest.raises(ConfigError):
                ExperimentConfig(profile_path="ramp_amplitude_modulation", fixed_baselines=bad)

    def test_config_owns_mode_list(self):
        config = ExperimentConfig(profile_path="steady_nominal", fixed_baselines=(20, 2, 1, 2))
        assert config.modes == (("100fps", 1), ("50fps", 2), ("5fps", 20), ("adaptive", None))
        with pytest.raises(TypeError):
            ExperimentConfig(profile_path="steady_nominal", modes=())

    def test_config_builds_estimator_objects_once(self):
        config = ExperimentConfig(profile_path="steady_nominal", f0=60.0, fs=12_000.0)
        assert config.estimator_config is config.estimator_config
        assert (config.estimator_config.m, config.estimator_config.r) == (200, 120)
        with pytest.raises(TypeError):
            ExperimentConfig(profile_path="steady_nominal", estimator_config=None)
        # 2.5 used to fail as a TypeError in range() at the first i_ipdft
        # report, and -1 only after the profile was parsed, even for p_iec
        for bad in ({"ipdft_iterations": 2.5}, {"ipdft_iterations": -1, "algorithms": ("p_iec",)},
                    {"algorithms": ("p_iec", "dft")}, {"fs": 1e308, "f0": 1e-10}):
            with pytest.raises(ConfigError, match="invalid estimator setup"):
                ExperimentConfig(profile_path="steady_nominal", **bad)

    def test_run_builds_no_estimator_kind(self, tmp_path, monkeypatch):
        config = ExperimentConfig(profile_path="steady_nominal", ipdft_iterations=2,
                                  algorithms=("i_ipdft", "p_iec", "i_ipdft"),
                                  fixed_baselines=(), output_dir=str(tmp_path / "out"))
        assert config.algorithms == ("i_ipdft", "p_iec")
        assert config.kinds == (EstimatorKind("i_ipdft", 2), EstimatorKind("p_iec", 2))
        built, used = [], []
        post_init = EstimatorKind.__post_init__
        monkeypatch.setattr(EstimatorKind, "__post_init__",
                            lambda kind: built.append(kind) or post_init(kind))
        monkeypatch.setattr(pipeline, "run_estimator",
                            lambda kind, *args: used.append(kind) or run_estimator(kind, *args))
        run_experiment(config)
        assert built == []
        assert len(used) == 2 and all(u is k for u, k in zip(used, config.kinds))

    def test_evaluation_window_of_bundled_profiles(self):
        for name, window in BUNDLED_WINDOWS.items():
            _, *geometry = evaluation_window(ExperimentConfig(profile_path=name))
            assert tuple(geometry) == window, name

    def test_reference_evaluated_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(gt, t):
            calls.append(np.size(t))
            return eval_reference(gt, t)

        monkeypatch.setattr(pipeline, "eval_reference", counted)
        config = ExperimentConfig(
            profile_path="ramp_amplitude_modulation",
            fixed_baselines=(10, 20),
            output_dir=str(tmp_path / "out"),
            emit_traces=True,
        )
        reports = run_experiment(config)
        assert len(reports) == 2 * 4
        assert len(calls) == 1

    def test_scored_through_reconstruct(self, tmp_path, monkeypatch):
        # one receiver rule: every (algorithm, mode) is scored from the view
        # reconstruct builds on the whole grid
        calls = []

        def counted(series, kept, query_times, f0, ts):
            calls.append(np.size(query_times))
            return reconstruct(series, kept, query_times, f0, ts)

        monkeypatch.setattr(pipeline, "reconstruct", counted)
        config = ExperimentConfig(profile_path="ramp_amplitude_modulation",
                                  fixed_baselines=(10, 20), output_dir=str(tmp_path / "out"))
        reports = run_experiment(config)
        assert len(calls) == len(reports) == 2 * 4
        _, n_first, n_last, _, _ = evaluation_window(config)
        assert set(calls) == {n_last - n_first + 1}


# ------------------------------------------------------------ trace writer

def oracle_write_csv(path: Path, header: str, chunks) -> None:
    """The per-file CSV writer the one-pass trace writer replaced."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for rows in chunks:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def oracle_write_trace(path: Path, series: TripletSeries, reference: TripletSeries,
                       kept_rows: np.ndarray) -> None:
    """One trace file from a whole-grid reconstruction, row by row."""
    kept_flag = np.zeros(series.t.size, dtype=int)
    kept_flag[kept_rows] = 1
    columns = (series.t, reference.phasor.real, reference.phasor.imag, reference.frequency,
               reference.rocof, series.phasor.real, series.phasor.imag,
               series.frequency, series.rocof, kept_flag)
    header = "t_s,ref_re,ref_im,ref_f,ref_rocof,recon_re,recon_im,recon_f,recon_rocof,kept"
    step = 16_384
    oracle_write_csv(path, header, (zip(*(c[lo:lo + step].tolist() for c in columns))
                                    for lo in range(0, series.t.size, step)))


# bytes, for 500-row chunks: the one-pass writer peaks at 0.48 MB on a
# 4,901-row grid with one file and at 0.50 MB on a 19,901-row grid with four;
# the per-file writer it replaced read 0.34 and 0.46 MB (its whole-grid flag
# column grows with the grid), and a per-run list of row prefixes 2.5 and
# 10.1 MB
TRACE_PEAK_BOUND = 750_000
TRACE_CONFIG = dict(profile_path="ramp_amplitude_modulation", fixed_baselines=(2, 10),
                    emit_traces=True)


class TestTraceWriter:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """The arguments ``run_experiment`` hands the trace writer for
        ``TRACE_CONFIG``, and every trace file as the oracle writes it from the
        run's whole-grid reconstructions."""
        out = tmp_path_factory.mktemp("oracle")
        config = ExperimentConfig(output_dir=str(out / "run"), **TRACE_CONFIG)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_write_traces", lambda *args: calls.append(args))
            run_experiment(config)
        [(traces, reference, f0, est)] = calls
        assert len(traces) == 2 * 4
        oracle = {}
        for path, stream, kept in traces:
            oracle_write_trace(out / path.name, reconstruct(stream, kept, reference.t, f0, est.ts),
                               reference, kept * est.r)
            oracle[path.name] = (out / path.name).read_bytes()
        return (traces, reference, f0, est), oracle

    @pytest.mark.parametrize("chunk", [1, 7, 100, 4097, pipeline.TRACE_CHUNK_ROWS])
    def test_traces_match_oracle_bytewise(self, run, tmp_path, monkeypatch, chunk):
        # report k sits on grid row 100*k: chunks of 1 and 100 start on kept
        # rows, 7 and 4,097 drift across them, and all but 1 end partial on
        # the 29,301-row grid; one-row chunks write its first 2,001 rows only,
        # as a whole pass of 234,408 one-row calls would take 16 s
        (traces, reference, *rest), oracle = run
        rows = 2_001 if chunk == 1 else len(reference)
        monkeypatch.setattr(pipeline, "TRACE_CHUNK_ROWS", chunk)
        pipeline._write_traces([(tmp_path / path.name, stream, kept)
                                for path, stream, kept in traces],
                               TripletSeries(*(getattr(reference, k)[:rows] for k in
                                               ("t", "phasor", "frequency", "rocof"))), *rest)
        for name, text in oracle.items():
            want = b"".join(text.splitlines(keepends=True)[:rows + 1])
            assert (tmp_path / name).read_bytes() == want, name

    def test_modes_without_the_full_rate_file_match_oracle(self, run, tmp_path):
        # rows a stream's own reports serve are shared between its modes; the
        # sharing must not lean on the full-rate file being written too
        (traces, *rest), oracle = run
        names = {"trace_p_iec_adaptive.csv", "trace_p_iec_50fps.csv"}
        pipeline._write_traces([(tmp_path / path.name, stream, kept)
                                for path, stream, kept in traces if path.name in names], *rest)
        assert {p.name for p in tmp_path.iterdir()} == names
        for name in names:
            assert (tmp_path / name).read_bytes() == oracle[name], name

    def test_cells_formatted_per_grid_row(self, run, tmp_path, monkeypatch):
        # a work count, not a timing: the per-file writer formatted 45 cells
        # per grid row on TRACE_CONFIG (5 shared, 5 in each of 8 files)
        (traces, reference, *rest), _ = run
        formatted = []

        def counted(values):
            cells = pipeline_cells(values)
            formatted.append(len(cells))
            return cells

        pipeline_cells = pipeline._cells
        monkeypatch.setattr(pipeline, "_cells", counted)
        pipeline._write_traces([(tmp_path / path.name, stream, kept)
                                for path, stream, kept in traces], reference, *rest)
        assert sum(formatted) / len(reference) <= 21

    def test_run_writes_the_oracle_traces(self, run, tmp_path):
        run_experiment(ExperimentConfig(output_dir=str(tmp_path), **TRACE_CONFIG))
        written = {p.name: p.read_bytes() for p in tmp_path.glob("trace_*.csv")}
        assert written == run[1]

    def test_peak_flat_in_grid_length_and_file_count(self, tmp_path, monkeypatch):
        # the writer holds one chunk of cells and text, for one file at a
        # time: at a fixed chunk size its peak grows neither with the grid nor
        # with the number of files, as a per-run list of row prefixes would
        monkeypatch.setattr(pipeline, "TRACE_CHUNK_ROWS", 500)
        est = EstimatorConfig()

        def peak(reports: int, files: int) -> int:
            grid = np.arange((reports - 1) * est.r + 1) / est.fs
            reference = TripletSeries(grid, 230.0 * np.exp(0.3j * grid),
                                      50.0 + 0.1 * np.sin(grid), 0.1 * np.cos(grid))
            t = grid[::est.r].copy()
            stream = TripletSeries(t, 229.0 * np.exp(0.3j * t), 50.0 + 0.1 * np.sin(t),
                                   0.1 * np.cos(t))
            traces = [(tmp_path / f"trace_{i}.csv", stream, np.arange(0, reports, i + 1))
                      for i in range(files)]
            return traced_peak(lambda: pipeline._write_traces(traces, reference, 50.0, est))

        peaks = [peak(reports, files) for reports, files in ((50, 1), (200, 1), (50, 4),
                                                             (200, 4))]
        assert max(peaks) < TRACE_PEAK_BOUND, peaks
        assert max(peaks) < 1.2 * peaks[0], peaks


# ------------------------------------------------------------- emit_table

class TestEmitTable:
    def test_single_algorithm_row_count(self, tmp_path):
        config = ExperimentConfig(
            profile_path="steady_nominal",
            algorithms=("p_iec",),
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)
        csv_text, _ = emit_table(reports, config)
        data_rows = csv_text.strip().splitlines()[1:]
        assert len(data_rows) == 7  # 3 indices x 2 modes + compression ratio

    def test_two_algorithms_two_value_columns(self, tmp_path):
        config = ExperimentConfig(
            profile_path="steady_nominal",
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)
        _, human = emit_table(reports, config)
        header = human.splitlines()[0]
        assert "p_iec" in header and "i_ipdft" in header

    def test_csv_and_text_tables_agree_cell_for_cell(self, tmp_path):
        # each CSV value, formatted as the text table formats it, is the text
        # cell of its row and algorithm column, in the same order
        config = ExperimentConfig(profile_path="steady_nominal", fixed_baselines=(2, 10),
                                  output_dir=str(tmp_path / "out"))
        csv_text, human = emit_table(run_experiment(config), config)
        header, *lines = human.splitlines()
        algorithms = header[28:].split()
        assert algorithms == list(config.algorithms)
        cells = [(line[:16].strip(), line[16:28].strip(), algo, cell)
                 for line in lines if not line.startswith("-")
                 for algo, cell in zip(algorithms, line[28:].split(), strict=True)]
        labels = {"compression_ratio": "Compression"}
        expected = [(labels.get(label, label), mode, algo, f"{float(value):.4g}")
                    for label, mode, algo, value in
                    (row.split(",") for row in csv_text.splitlines()[1:])]
        assert len(expected) == 3 * 4 * 2 + 2  # indices x modes x algorithms + ratios
        assert cells == expected


# -------------------------------------------------------------- load_config

class TestLoadConfig:
    def test_round_trip_with_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\n"
            "profile = steady_nominal\n"
            "algorithms = p_iec\n"
            "fixed_baselines = 2, 10\n"
            "out_dir = somewhere\n"
            "f0 = 60\nfs = 12000\nrr_in = 120\nphase0 = 0.5\n"
            "ipdft_iterations = 2\ntre_formula = printed\n"
            "[thresholds]\n"
            "delta_fe = 2e-3\n"
            "delta_rfe = 0.1\n",
            encoding="utf-8",
        )
        config = load_config(ini)
        assert config.profile_path == "steady_nominal"
        assert config.algorithms == ("p_iec",)
        assert config.fixed_baselines == (2, 10)
        assert (config.f0, config.fs, config.rr_in, config.phase0) == (60.0, 12e3, 120.0, 0.5)
        assert (config.ipdft_iterations, config.tre_formula) == (2, "printed")
        assert config.thresholds.delta_fe == 2e-3
        assert config.thresholds.delta_rfe == 0.1
        assert config.thresholds.delta_tve == 1e-3

        config = load_config(ini, delta_fe=5e-3, output_dir="elsewhere")
        assert config.thresholds.delta_fe == 5e-3
        assert config.output_dir == "elsewhere"

    def test_missing_profile_rejected(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nf0 = 50\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(ini)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        ini = write_bytes(tmp_path, b"[experiment]\nprofile = \xff\n", "exp.ini")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(ini)

    @pytest.mark.parametrize("case", ["missing", "directory", "refused"])
    def test_unreadable_config_rejected(self, tmp_path, monkeypatch, case):
        # ConfigParser.read skipped a file it could not open, so a run with
        # --profile went on with the defaults instead of the file's keys
        ini = tmp_path / "exp.ini"
        if case == "directory":
            ini.mkdir()
        elif case == "refused":
            ini.write_text("[experiment]\nfixed_baselines = 10\n", encoding="utf-8")
            refuse_to_open(monkeypatch, ini)
        with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(ini))}: "):
            load_config(ini, profile_path="steady_nominal")
        result = CliRunner().invoke(cli_main, ["run", "--config", str(ini), "--profile",
                                               "steady_nominal", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, overrides, message", [
        ("[experiment]\nprofile = steady_nominal\nalgorithms =\n", {},
         "need at least one algorithm"),
        (None, dict(profile_path="steady_nominal", bogus=1),
         "bad config: .* unexpected keyword argument 'bogus'"),
        ("[experiment]\nprofile = steady_nominal\ntre_formula = x\n", {},
         re.escape(f"tre_formula must be one of {TRE_FORMULAS}")),
        # one walk refuses each key where it is cast: the first in the file is named
        ("[experiment]\nprofile = steady_nominal\nf0 = fifty\nalgoritms = p_iec\n", {},
         "bad value in config .*'fifty'"),
        ("[thresholds]\ndelta_fe = x\n[threshold]\ndelta_fe = 1\n", {},
         "bad value in config .*'x'"),
    ], ids=["no_algorithm", "unknown_override", "unknown_tre_formula",
            "bad_value_before_unknown_key", "bad_value_before_unknown_section"])
    def test_invalid_config_rejected(self, tmp_path, body, overrides, message):
        ini = None
        if body is not None:
            ini = tmp_path / "exp.ini"
            ini.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(ini, **overrides)

    def test_byte_order_mark_accepted(self, tmp_path):
        body = b"[experiment]\nprofile = steady_nominal\nfixed_baselines = 2, 10\n"
        plain = load_config(write_bytes(tmp_path, body, "plain.ini"))
        assert load_config(write_bytes(tmp_path, BOM + body, "bom.ini")) == plain
        assert plain.fixed_baselines == (2, 10)

    @pytest.mark.parametrize("body, name", [
        ("[experiment]\nprofile = steady_nominal\nalgoritms = i_ipdft\n", "key 'algoritms'"),
        ("[experiment]\nprofile = steady_nominal\nfixed_baseline = 10\n",
         "key 'fixed_baseline'"),
        ("[experiment]\nprofile = steady_nominal\n[threshold]\ndelta_fe = 1\n",
         r"section \[threshold\]"),
        ("[experiment]\nprofile = steady_nominal\n[thresholds]\nprofile = x\n", "key 'profile'"),
        ("[DEFAULT]\nprofile = steady_nominal\n", r"section \[DEFAULT\]"),
    ])
    def test_unknown_key_or_section_rejected(self, tmp_path, body, name):
        # a misspelt key used to load silently as its default
        ini = tmp_path / "exp.ini"
        ini.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown {name}"):
            load_config(ini)
        result = CliRunner().invoke(cli_main, ["run", "--config", str(ini),
                                               "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------- CLI

class TestCli:
    def test_list_profiles(self):
        result = CliRunner().invoke(cli_main, ["list-profiles"])
        assert result.exit_code == 0
        assert result.output.split() == BUNDLED

    def test_validate_bundled(self):
        result = CliRunner().invoke(cli_main, ["validate", "--profile", "steady_nominal"])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_validate_bad_profile_exit_2(self, tmp_path):
        bad = write_profile(tmp_path, "quantity,t_s,value\namplitude_V,1,230\namplitude_V,0,230\n")
        result = CliRunner().invoke(cli_main, ["validate", "--profile", str(bad)])
        assert result.exit_code == 2

    def test_run_with_flags(self, tmp_path):
        out = tmp_path / "cli_out"
        result = CliRunner().invoke(cli_main, [
            "run", "--profile", "steady_nominal", "--algo", "p_iec",
            "--fixed", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "table.txt").is_file()
        assert "compression ratio" in result.output

    def test_non_utf8_input_exit_2(self, tmp_path):
        profile = write_bytes(tmp_path, MINIMAL.encode() + b"# \xff\n", "latin.csv")
        ini = write_bytes(tmp_path, b"[experiment]\nprofile = \xff\n", "exp.ini")
        for argv in (["validate", "--profile", str(profile)],
                     ["run", "--profile", str(profile), "--out", str(tmp_path / "o")],
                     ["run", "--config", str(ini), "--out", str(tmp_path / "o")]):
            result = CliRunner().invoke(cli_main, argv)
            assert result.exit_code == 2, (argv, result.output)
            assert "error:" in result.output

    def test_byte_order_mark_validates_and_runs_alike(self, tmp_path, monkeypatch):
        summaries = []
        for name, body in (("plain", MINIMAL.encode()), ("bom", BOM + MINIMAL.encode())):
            (tmp_path / name).mkdir()
            write_bytes(tmp_path / name, body, "p.csv")
            monkeypatch.chdir(tmp_path / name)  # summary.json names the profile path
            result = CliRunner().invoke(cli_main, ["validate", "--profile", "p.csv"])
            assert result.exit_code == 0, (name, result.output)
            result = CliRunner().invoke(cli_main, ["run", "--profile", "p.csv", "--out", "o"])
            assert result.exit_code == 0, (name, result.output)
            summaries.append((tmp_path / name / "o" / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_run_without_inputs_exit_2(self):
        result = CliRunner().invoke(cli_main, ["run"])
        assert result.exit_code == 2

    def test_run_numerical_failure_exit_3(self, tmp_path):
        dead = write_profile(
            tmp_path,
            "quantity,t_s,value\namplitude_V,0,0\namplitude_V,1.5,0\n"
            "frequency_Hz,0,50\nfrequency_Hz,1.5,50\n",
            name="dead.csv",
        )
        result = CliRunner().invoke(cli_main, [
            "run", "--profile", str(dead), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3

    def test_numerical_failure_names_algorithm_and_time(self, tmp_path):
        # p_iec estimates through the dip, then scoring meets the zero
        # reference; i_ipdft fails at its first all-zero window
        dip = write_profile(tmp_path, DIP, name="dip.csv")
        scoring = ("p_iec 100fps: tracking index undefined where |reference phasor| = 0, "
                   "first at t = 5.0 s")
        expected = {
            (): scoring,
            ("--algo", "p_iec"): scoring,
            ("--algo", "i_ipdft"):
                "i_ipdft: report at t = 5.03 s: fundamental bin below the noise floor",
        }
        for flags, message in expected.items():
            result = CliRunner().invoke(cli_main, [
                "run", "--profile", str(dip), *flags, "--out", str(tmp_path / "o"),
            ])
            assert result.exit_code == 3, (flags, result.output)
            assert result.output.splitlines()[-1] == f"error: numerical failure: {message}"

    def test_divisor_too_large_for_a_rate_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nprofile = steady_nominal\n"
                       f"fixed_baselines = {HUGE_DIVISOR}\n", encoding="utf-8")
        for argv in (["--profile", "steady_nominal", "--algo", "p_iec", "--fixed", HUGE_DIVISOR],
                     ["--config", str(ini)]):
            result = CliRunner().invoke(cli_main, ["run", *argv, "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, (argv, result.output)
            assert result.output.startswith("error: fixed baseline divisor too large")

    def test_repeated_algorithm_runs_once(self, tmp_path):
        config = ExperimentConfig(profile_path="steady_nominal", algorithms=("p_iec", "p_iec"))
        assert config.algorithms == ("p_iec",)
        outputs = []
        for algos in (["--algo", "p_iec"], ["--algo", "p_iec", "--algo", "p_iec"]):
            out = tmp_path / f"o{len(outputs)}"
            result = CliRunner().invoke(cli_main, [
                "run", "--profile", "steady_nominal", *algos, "--fixed", "2",
                "--emit-decisions", "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_divisors_sharing_a_label_exit_2(self, tmp_path):
        # 100/1e7 and 100/(1e7+1) both print as "1e-05fps"
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nprofile = steady_nominal\n"
                       "fixed_baselines = 10000000, 10000001\n", encoding="utf-8")
        for argv in (["--profile", "steady_nominal", "--fixed", "10000000,10000001"],
                     ["--config", str(ini)]):
            result = CliRunner().invoke(cli_main, ["run", *argv, "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, (argv, result.output)
            assert result.output.startswith("error: fixed baseline divisors 10000000 and "
                                            "10000001 share the mode label '1e-05fps'")

    def test_sampling_at_or_below_nyquist_exit_2(self, tmp_path):
        # at two samples per cycle i_ipdft's bins fold over its window's
        # half: a run used to exit 0 with a TrE_TVE near 100 %
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nprofile = abrupt_collapse\nf0 = 50\nfs = 100\n"
                       "rr_in = 50\n", encoding="utf-8")
        result = CliRunner().invoke(cli_main, ["run", "--config", str(ini),
                                               "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: invalid estimator setup: "
                                        "fs must exceed twice f0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edge", sorted(EDGE_SPANS))
    def test_span_edges_off_the_grid_by_rounding_run(self, tmp_path, edge):
        profile = write_profile(tmp_path, steady(*EDGE_SPANS[edge]))
        for algos in (["--algo", "p_iec"], []):
            result = CliRunner().invoke(cli_main, [
                "run", "--profile", str(profile), *algos, "--out", str(tmp_path / "o")])
            assert result.exit_code == 0, (algos, result.output)

    def test_run_with_config_file(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\nprofile = steady_nominal\nalgorithms = p_iec\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", str(ini), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "summary.json").is_file()


class _Captured(Exception):
    pass


def captured_config(monkeypatch, argv) -> ExperimentConfig:
    """The ExperimentConfig that ``pmustream run`` builds from ``argv``; the
    experiment itself does not run."""
    seen = []

    def capture(config):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    result = CliRunner().invoke(cli_main, ["run", *argv])
    assert isinstance(result.exception, _Captured), result.output
    return seen[0]


# each flag and the INI text of the key it sets, to a value other than the default
FLAG_KEYS = {
    "profile": (["--profile", "ramp_amplitude_modulation"],
                "[experiment]\nprofile = ramp_amplitude_modulation\n"),
    "algo": (["--algo", "i_ipdft"], "[experiment]\nalgorithms = i_ipdft\n"),
    "algo_twice": (["--algo", "i_ipdft", "--algo", "p_iec"],
                   "[experiment]\nalgorithms = i_ipdft, p_iec\n"),
    "fixed": (["--fixed", " 10,2,,5 "], "[experiment]\nfixed_baselines =  10,2,,5\n"),
    "fixed_empty": (["--fixed", ""], "[experiment]\nfixed_baselines =\n"),
    "out": (["--out", "elsewhere"], "[experiment]\nout_dir = elsewhere\n"),
    "tre_formula": (["--tre-formula", "printed"], "[experiment]\ntre_formula = printed\n"),
    "delta_tve": (["--delta-tve", "2e-3"], "[thresholds]\ndelta_tve = 2e-3\n"),
    "delta_fe": (["--delta-fe", "0.005"], "[thresholds]\ndelta_fe = 0.005\n"),
    "delta_rfe": (["--delta-rfe", "1e-1"], "[thresholds]\ndelta_rfe = 1e-1\n"),
}


class TestFlagsMatchKeys:
    """A flag sets the config field its INI key sets, parsed the same way."""

    @pytest.mark.parametrize("case", sorted(FLAG_KEYS))
    def test_flag_loads_as_its_key(self, tmp_path, monkeypatch, case):
        flags, text = FLAG_KEYS[case]
        if case != "profile":
            flags = ["--profile", "steady_nominal", *flags]
            text = "[experiment]\nprofile = steady_nominal\n" + text.replace(
                "[experiment]\n", "")
        ini = tmp_path / "exp.ini"
        ini.write_text(text, encoding="utf-8")
        want = load_config(ini)
        assert want != load_config(None, profile_path="steady_nominal")
        assert captured_config(monkeypatch, flags) == want
        # and with the file and the flag both given
        assert captured_config(monkeypatch, ["--config", str(ini), *flags]) == want

    def test_flag_wins_over_its_key(self, tmp_path, monkeypatch):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nprofile = steady_nominal\nfixed_baselines = 10\n"
                       "out_dir = a\n[thresholds]\ndelta_fe = 2e-3\ndelta_rfe = 0.1\n",
                       encoding="utf-8")
        config = captured_config(monkeypatch, ["--config", str(ini), "--fixed", "5",
                                               "--out", "b", "--delta-fe", "4e-3"])
        assert config == load_config(ini, fixed_baselines=(5,), output_dir="b",
                                     delta_fe=4e-3)
        assert (config.fixed_baselines, config.output_dir) == ((5,), "b")
        assert config.thresholds == Thresholds(delta_fe=4e-3, delta_rfe=0.1)

    def test_non_integer_divisor_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nprofile = steady_nominal\nfixed_baselines = 2.0\n",
                       encoding="utf-8")
        for argv in (["--profile", "steady_nominal", "--fixed", "2.0"], ["--config", str(ini)]):
            result = CliRunner().invoke(cli_main, ["run", *argv, "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, (argv, result.output)
            assert not (tmp_path / "o").exists()
        assert "Invalid value for '--fixed'" in invoke(
            "run", "--profile", "steady_nominal", "--fixed", "abc").output

    @pytest.mark.parametrize("name", ["delta_tve", "delta_fe", "delta_rfe"])
    def test_bad_threshold_flag_or_key_exit_2(self, tmp_path, name):
        # one error from either source; a bad flag used to raise from
        # dataclasses.replace with no "bad threshold" in its message
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nprofile = steady_nominal\n[thresholds]\n{name} = 0\n",
                       encoding="utf-8")
        flag = "--" + name.replace("_", "-")
        for argv in (["--profile", "steady_nominal", flag, "0"], ["--config", str(ini)],
                     ["--profile", "steady_nominal", flag, "nan"],
                     ["--config", str(ini), flag, "-1"]):
            result = CliRunner().invoke(cli_main, ["run", *argv, "--out", str(tmp_path / "o")])
            assert result.exit_code == 2, (argv, result.output)
            assert result.output == (f"error: bad threshold: {name} must be finite and "
                                     "strictly positive\n")


# ------------------------------------------------------- profile acceptance

def invoke(*argv: str):
    """Run the CLI; a traceback or a RuntimeWarning (an error in this suite)
    shows as exit code 1, never as 0, 2 or 3."""
    return CliRunner().invoke(cli_main, list(argv))


class TestProfileAcceptance:
    """``GroundTruth.from_anchors`` holds the span rule and ``evaluation_window``
    the geometry; ``validate`` and ``run`` both reach them through
    ``evaluation_window``, so they accept the same profiles."""

    def test_disjoint_spans_rejected(self, tmp_path):
        amp, freq = parse_profile(write_profile(tmp_path, DISJOINT))  # rows are fine
        with pytest.raises(InvalidInputError, match="they must span the same time"):
            GroundTruth.from_anchors(amp, freq)

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_validate_and_run_refuse_alike(self, tmp_path, name):
        body, cause = REFUSED[name]
        profile = str(write_profile(tmp_path, body))
        out = tmp_path / "o"
        lines = []
        for argv in (["validate", "--profile", profile], ["run", "--profile", profile,
                                                          "--out", str(out)]):
            result = invoke(*argv)
            assert result.exit_code == 2, (argv, result.output)
            lines.append(result.output.splitlines())
        assert lines[0] == lines[1]
        assert len(lines[0]) == 1 and lines[0][0].startswith("error: ")
        assert cause in lines[0][0]
        assert not out.exists()  # refused before any artifact

    @pytest.mark.parametrize("start", [0, (GRID_INDEX_LIMIT // 100 - 201) * 100])
    def test_steady_profile_inside_the_sample_index_limit(self, tmp_path, start):
        # a 2 s span aligned to the reporting interval, ending 196 samples
        # below the limit, keeps what it keeps at t = 0
        profile = write_profile(tmp_path, steady(start / 1e4, (start + 20_000) / 1e4))
        assert invoke("validate", "--profile", str(profile)).exit_code == 0
        result = invoke("run", "--profile", str(profile), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        for algo in ("p_iec", "i_ipdft"):
            assert f"{algo}: kept 1/194 frames" in result.output

    def test_first_sample_index_past_the_limit_exit_2(self, tmp_path):
        end = GRID_INDEX_LIMIT / 1e4
        for lo, hi in ((end - 2, end), (-end, -end + 2)):
            profile = str(write_profile(tmp_path, steady(lo, hi)))
            for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
                result = invoke(*argv, "--profile", profile)
                assert result.exit_code == 2, (argv, result.output)
                assert SAMPLE_INDEX_LIMIT in result.output
        inside = steady(-end + 1e-4, -end + 2)  # index -(limit - 1)
        assert invoke("validate", "--profile",
                      str(write_profile(tmp_path, inside))).exit_code == 0

    @settings(max_examples=25)
    @given(offset=st.one_of(st.just(0.0), st.builds(lambda m, e: m * 10.0 ** e,
                                                    st.floats(1.0, 10.0), st.integers(0, 12))),
           shift=st.floats(0.0, 0.05), steps=st.lists(st.floats(0.02, 0.4), min_size=2,
                                                      max_size=4),
           amplitude=st.floats(0.0, 400.0), frequency=st.floats(45.0, 55.0))
    @example(offset=429_496.5, shift=0.0, steps=[0.1, 0.2], amplitude=230.0, frequency=50.0)
    @example(offset=3e12, shift=0.0, steps=[0.1, 0.2], amplitude=230.0, frequency=50.0)
    def test_validate_accepts_exactly_what_run_accepts(self, tmp_path_factory, offset, shift,
                                                       steps, amplitude, frequency):
        times = [offset + sum(steps[:k]) for k in range(1, len(steps) + 1)]
        # both quantities span [times[0] + shift, times[-1] + shift]
        rows = [f"amplitude_V,{t + shift!r},{amplitude!r}" for t in (times[0], times[-1])] + \
            [f"frequency_Hz,{t + shift!r},{frequency + k * 0.01!r}" for k, t in enumerate(times)]
        path = tmp_path_factory.getbasetemp() / "accept_profile.csv"
        path.write_text("\n".join(["quantity,t_s,value", *rows]) + "\n", encoding="utf-8")
        checked = invoke("validate", "--profile", str(path))
        ran = invoke("run", "--profile", str(path),
                     "--out", str(tmp_path_factory.getbasetemp() / "accept_out"))
        assert checked.exit_code in (0, 2) and ran.exit_code in (0, 2, 3), (checked, ran)
        assert (checked.exit_code == 0) == (ran.exit_code != 2), (checked.output, ran.output)
        if checked.exit_code == 2:
            assert checked.output == ran.output

    @pytest.mark.parametrize("phase0", ["inf", "-inf", "nan"])
    def test_non_finite_phase0_exit_2_before_synthesis(self, tmp_path, monkeypatch, phase0):
        monkeypatch.setattr(pipeline, "synth_three_phase", None)  # a call would be exit 1
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nprofile = steady_nominal\nphase0 = {phase0}\n",
                       encoding="utf-8")
        result = invoke("run", "--config", str(ini), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2, result.output
        assert result.output == f"error: phase0 must be finite, got {float(phase0)}\n"

    def test_out_that_cannot_hold_artifacts_exit_2(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        taken = tmp_path / "taken"
        (taken / "table.csv").mkdir(parents=True)  # writing table.csv fails late
        profile = str(write_profile(tmp_path, MINIMAL))
        for out in (blocker, blocker / "sub", taken):
            result = invoke("run", "--profile", profile, "--algo", "p_iec", "--out", str(out))
            assert result.exit_code == 2, (out, result.output)
            assert result.output.startswith(f"error: cannot write artifacts to {out}: ")
        # the output directory is made before synthesis: a file in its way
        # costs no synthesis
        monkeypatch.setattr(pipeline, "synth_three_phase", None)
        assert invoke("run", "--profile", profile, "--out", str(blocker)).exit_code == 2

    def test_trace_path_taken_by_a_directory_exit_2(self, tmp_path):
        # every trace file is open at once: the one opened before the failing
        # one is closed, not left to the garbage collector
        out = tmp_path / "o"
        (out / "trace_p_iec_50fps.csv").mkdir(parents=True)
        profile = str(write_profile(tmp_path, MINIMAL))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke("run", "--profile", profile, "--emit-traces", "--out", str(out))
            gc.collect()
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot write artifacts to {out}: ")
        assert len(result.output.splitlines()) == 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ------------------------------------------------------------ parser fuzzing

def _number():
    return st.one_of(
        st.integers(-2, 6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["", "nan", "-inf", "1e999", "-0", "0x1p3", "1_0", "x"]),
    )


def _profile_text():
    """Profile-shaped text: the header, an amplitude and a frequency series
    with increasing times, and at most one arbitrary row dropped in."""
    number = st.one_of(st.integers(-2, 6), st.floats(-1e308, 1e308))
    times = st.lists(number, max_size=4, unique=True).map(sorted)
    series = st.builds(lambda q, ts, vs: [f"{q},{t!r},{v!r}" for t, v in zip(ts, vs)],
                       st.sampled_from(["amplitude_V", "frequency_Hz"]), times,
                       st.lists(number, min_size=4, max_size=4))
    junk = st.one_of(
        st.tuples(st.sampled_from(["amplitude_V", "frequency_Hz", "current_A"]),
                  _number(), _number()).map(",".join),
        st.lists(st.one_of(_number(), st.text(max_size=4)), min_size=1,
                 max_size=4).map(",".join))

    def render(prefix, first, second, extra, at):
        rows = first + second
        if extra is not None:
            rows.insert(at, extra)
        return prefix + "\n".join(["quantity,t_s,value", *rows])

    return st.builds(render, st.sampled_from(["", "# comment\n", "\n", "x,y\n"]),
                     series, series, st.one_of(st.none(), junk), st.integers(0, 8))


def _ini_text():
    """INI text over the keys load_config reads, each with an arbitrary value."""
    value = st.one_of(
        _number(),
        st.sampled_from(["p_iec", "i_ipdft", "p_iec, i_ipdft", "rms", "printed", "10, 20",
                         "2.0", "%", "%(x)s", "1" + "0" * 400, "steady_nominal"]),
        st.text(max_size=6),
    )
    experiment = st.dictionaries(
        st.sampled_from(["f0", "fs", "rr_in", "phase0", "ipdft_iterations", "algorithms",
                         "fixed_baselines", "tre_formula", "out_dir", "x"]), value, max_size=6)
    thresholds = st.dictionaries(st.sampled_from(["delta_tve", "delta_fe", "delta_rfe"]),
                                 value, max_size=3)

    def render(profile, exp, thr, tail):
        lines = ["[experiment]", *([f"profile = {profile}"] if profile is not None else []),
                 *(f"{k} = {v}" for k, v in exp.items()),
                 "[thresholds]", *(f"{k} = {v}" for k, v in thr.items()), *tail]
        return "\n".join(lines)

    return st.builds(render, st.one_of(st.none(), value), experiment, thresholds,
                     st.lists(st.text(max_size=8), max_size=1))


class TestParserFuzz:
    """Only the parsers' own error types may escape, whatever the file holds."""

    @settings(max_examples=300)
    @given(body=st.one_of(
        _profile_text().map(lambda s: s.encode("utf-8", "surrogatepass")),
        st.one_of(st.text().map(lambda s: s.encode("utf-8", "surrogatepass")), st.binary())))
    @example(body=b"quantity,t_s,value\namplitude_V,0,1\namplitude_V,1e308,1\n"
                  b"frequency_Hz,-1e308,50\nfrequency_Hz,1e308,50\n")
    def test_parse_profile_raises_only_profile_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz_profile.csv"
        path.write_bytes(body)
        try:
            parse_profile(path)
        except ProfileError:
            pass

    @settings(max_examples=300)
    @given(body=st.one_of(_ini_text(), st.text()))
    # these six used to escape load_config as InterpolationSyntaxError,
    # ZeroDivisionError, ValueError and OverflowError (three times)
    @example(body="[experiment]\nprofile = a%b\n")
    @example(body="[experiment]\nprofile = p\nf0 = 0\n")
    @example(body="[experiment]\nprofile = p\nrr_in = nan\n")
    @example(body="[experiment]\nprofile = p\nfs = inf\n")
    @example(body="[experiment]\nprofile = p\nfixed_baselines = 1" + "0" * 400 + "\n")
    @example(body="[experiment]\nprofile = p\nfs = 1e308\nf0 = 1e-10\n")
    def test_load_config_raises_only_config_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz_config.ini"
        path.write_bytes(body.encode("utf-8", "surrogatepass"))
        try:
            load_config(path)
        except ConfigError:
            pass


# ----------------------------------------------------------- run fuzzing

@st.composite
def _run_profile(draw):
    """Profile text with 2-6 anchors per quantity over one span of 0.3-1 s,
    amplitudes of 0-260 V and frequencies of 25-75 Hz; in some draws one
    quantity's first or last time moves out.  Returns (text, one span)."""
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(0.3, 1.0))
    values = {"amplitude_V": st.floats(0.0, 260.0),
              "frequency_Hz": st.floats(25.0, 75.0)}
    times = {}
    for quantity in values:
        n = draw(st.integers(2, 6))
        inner = draw(st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                              min_size=n - 2, max_size=n - 2, unique=True))
        times[quantity] = [lo, *sorted(inner), hi]
    moved = draw(st.one_of(st.none(), st.tuples(st.sampled_from(sorted(values)),
                                                st.sampled_from([0, -1]),
                                                st.floats(1e-6, 0.2))))
    if moved is not None:
        quantity, end, step = moved
        times[quantity][end] += step if end else -step
    rows = [f"{quantity},{t!r},{draw(value)!r}"
            for quantity, value in values.items() for t in times[quantity]]
    return "\n".join(["quantity,t_s,value", *rows]) + "\n", moved is None


@st.composite
def _run_config(draw):
    """INI text: fs = m * f0 for m in {3, 4, 20, 200}, an rr_in that divides
    fs into 10-400 reports a second, thresholds and fixed divisors."""
    f0 = draw(st.sampled_from([50.0, 60.0]))
    fs = draw(st.sampled_from([3, 4, 20, 200])) * f0
    r = draw(st.integers(max(1, math.ceil(fs / 400)), max(1, int(fs // 10))))
    fixed = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    thresholds = (draw(st.floats(1e-6, 0.1)), draw(st.floats(1e-5, 1.0)),
                  draw(st.floats(1e-3, 10.0)))
    return "\n".join([
        "[experiment]", f"f0 = {f0!r}", f"fs = {fs!r}", f"rr_in = {fs / r!r}",
        f"fixed_baselines = {', '.join(map(str, fixed))}", "[thresholds]",
        *(f"{name} = {value!r}" for name, value in
          zip(("delta_tve", "delta_fe", "delta_rfe"), thresholds))]) + "\n"


NUMERICAL_FAILURE = re.compile(rf"error: numerical failure: ({'|'.join(ALGORITHMS)})\b")


class TestRunFuzz:
    """Whole profiles through ``cli.main``: every outcome is one of the exit
    contract's, with no traceback and no warning."""

    @staticmethod
    def invoke_quietly(*argv: str):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(*argv)
        assert not caught, [str(w.message) for w in caught]
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exc_info
        if result.exit_code in (2, 3):
            assert len(result.output.splitlines()) == 1, result.output
            assert result.output.startswith("error: "), result.output
        return result

    @staticmethod
    def paths(base: Path, profile: str) -> tuple[Path, Path]:
        path = base / "fuzz_run_profile.csv"
        path.write_text(profile, encoding="utf-8")
        out = base / "fuzz_run_out"
        shutil.rmtree(out, ignore_errors=True)
        return path, out

    @settings(max_examples=50)
    @given(drawn=_run_profile())
    # a reference that falls to 1e-308 V overflowed TrE_TVE with numpy
    # warnings, and run exited 2 on a profile validate accepted
    @example(drawn=("quantity,t_s,value\namplitude_V,-0.375,0.0\namplitude_V,0.0,1.0\n"
                    "amplitude_V,0.34375,0.0\namplitude_V,0.625,2.2250738585072014e-308\n"
                    "frequency_Hz,-0.375,25.0\nfrequency_Hz,0.625,25.0\n", True))
    def test_default_geometry(self, tmp_path_factory, drawn):
        profile, one_span = drawn
        path, out = self.paths(tmp_path_factory.getbasetemp(), profile)
        checked = self.invoke_quietly("validate", "--profile", str(path))
        ran = self.invoke_quietly("run", "--profile", str(path), "--out", str(out),
                                  "--emit-decisions")
        assert checked.exit_code in (0, 2) and ran.exit_code in (0, 2, 3), (checked, ran)
        assert (checked.exit_code == 2) == (ran.exit_code == 2), (checked.output, ran.output)
        if checked.exit_code == 2:
            assert checked.output == ran.output
            assert not out.exists()
        if not one_span:
            assert checked.exit_code == 2 and "they must span the same time" in checked.output
        if ran.exit_code == 3:
            assert NUMERICAL_FAILURE.match(ran.output), ran.output

    @settings(max_examples=50)
    @given(drawn=_run_profile(), config=_run_config())
    def test_configured_geometry(self, tmp_path_factory, drawn, config):
        path, out = self.paths(tmp_path_factory.getbasetemp(), drawn[0])
        ini = tmp_path_factory.getbasetemp() / "fuzz_run_config.ini"
        ini.write_text(config, encoding="utf-8")
        ran = self.invoke_quietly("run", "--config", str(ini), "--profile", str(path),
                                  "--out", str(out), "--emit-decisions")
        assert ran.exit_code in (0, 2, 3), ran.output
        if ran.exit_code == 3:
            assert NUMERICAL_FAILURE.match(ran.output), ran.output
