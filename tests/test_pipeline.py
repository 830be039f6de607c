"""Tests for profile parsing, experiment orchestration and the CLI."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pmustream import pipeline
from pmustream.cli import main as cli_main
from pmustream.decimator import Thresholds, decimate_stream, reconstruct
from pmustream.errors import ProfileError
from pmustream.estimators import run_estimator
from pmustream.metrics import tracking_indices
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
from pmustream.waveform import GroundTruth, eval_reference, synth_three_phase
from test_metrics import reference_series

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


MINIMAL = """quantity,t_s,value
amplitude_V,0.0,230.0
amplitude_V,2.0,228.0
frequency_Hz,0.0,50.0
frequency_Hz,2.0,49.9
"""


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

    def test_disjoint_spans_rejected(self, tmp_path):
        body = "quantity,t_s,value\namplitude_V,0,230\namplitude_V,1,229\n" + \
            "frequency_Hz,2,50\nfrequency_Hz,3,50\n"
        with pytest.raises(ProfileError):
            parse_profile(write_profile(tmp_path, body))


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
        n_first, n_last, left, right = evaluation_window(config, gt)
        block = synth_three_phase(
            gt, (n_first - left) / config.fs, n_last - n_first + left + right + 1)
        triplets = run_estimator(config.kind("i_ipdft"), block, est,
                                 n_first / config.fs, n_last / config.fs)
        kept, _ = decimate_stream(triplets, config.thresholds, config.f0)
        grid = np.arange(n_first, n_last + 1) / config.fs
        series = reconstruct(kept, grid, config.f0, est.ts)
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
            fixed_baselines=(),
            output_dir=str(out),
            emit_traces=True,
        )
        reports = run_experiment(config)
        with (out / "trace_p_iec_adaptive.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "kept"
        cols = np.array(rows[1:], dtype=float).T

        amp, freq = parse_profile(resolve_profile("two_stage_collapse"))
        gt = GroundTruth.from_anchors(amp, freq, f0=config.f0, fs=config.fs)
        est = config.estimator_config
        n_first, n_last, left, right = evaluation_window(config, gt)
        block = synth_three_phase(
            gt, (n_first - left) / config.fs, n_last - n_first + left + right + 1)
        triplets = run_estimator(config.kind("p_iec"), block, est,
                                 n_first / config.fs, n_last / config.fs)
        kept, _ = decimate_stream(triplets, config.thresholds, config.f0)
        grid = np.arange(n_first, n_last + 1) / config.fs
        ref_phasor, ref_freq, ref_rocof = eval_reference(gt, grid)
        series = reconstruct(kept, grid, config.f0, est.ts)

        expected = (grid, ref_phasor.real, ref_phasor.imag, ref_freq, ref_rocof,
                    series.phasor.real, series.phasor.imag, series.frequency, series.rocof)
        for name, col, want in zip(rows[0], cols, expected):
            np.testing.assert_array_equal(col, want, err_msg=name)
        assert cols[-1].sum() == reports[("p_iec", "adaptive")].kept_count

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
        csv_text, _ = emit_table(list(reports.values()), config)
        data_rows = csv_text.strip().splitlines()[1:]
        assert len(data_rows) == 7  # 3 indices x 2 modes + compression ratio

    def test_two_algorithms_two_value_columns(self, tmp_path):
        config = ExperimentConfig(
            profile_path="steady_nominal",
            fixed_baselines=(),
            output_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(config)
        _, human = emit_table(list(reports.values()), config)
        header = human.splitlines()[0]
        assert "p_iec" in header and "i_ipdft" in header


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
            "[thresholds]\n"
            "delta_fe = 2e-3\n",
            encoding="utf-8",
        )
        config = load_config(ini)
        assert config.profile_path == "steady_nominal"
        assert config.algorithms == ("p_iec",)
        assert config.fixed_baselines == (2, 10)
        assert config.thresholds.delta_fe == 2e-3
        assert config.thresholds.delta_tve == 1e-3

        config = load_config(ini, delta_fe=5e-3, output_dir="elsewhere")
        assert config.thresholds.delta_fe == 5e-3
        assert config.output_dir == "elsewhere"

    def test_missing_profile_rejected(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nf0 = 50\n", encoding="utf-8")
        from pmustream.errors import ConfigError
        with pytest.raises(ConfigError):
            load_config(ini)


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
