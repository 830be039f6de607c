"""The reference artifacts of a subset of runs against their committed digests.

``artifact_digests.txt`` holds the listing of ``tools/artifact_digests.py``,
back-end line first, for every bundled profile but ``forced_oscillation``
(criterion 7 runs it), with dense traces on ``abrupt_collapse`` and
``two_stage_collapse`` only: 65 files.  A change that declares an artifact
change regenerates the listing in the same commit::

    PYTHONPATH=src python tests/test_artifact_digests.py > tests/artifact_digests.txt
"""

from __future__ import annotations

import importlib.util
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from pmustream.cli import main as cli_main
from pmustream.pipeline import list_profiles

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

LISTING = Path(__file__).with_name("artifact_digests.txt")
UNRUN = {"forced_oscillation"}  # criterion 7 runs it
TRACED = {"abrupt_collapse", "two_stage_collapse"}  # the family event_archive traces


def write_subset(out: Path) -> list[str]:
    """Write the subset's artifacts under ``out`` through ``cli.main`` and
    return their listing."""
    for name in list_profiles():
        if name not in UNRUN:
            args = digests.run_args(name, out, traces=name in TRACED)
            result = CliRunner().invoke(cli_main, args)
            assert result.exit_code == 0, result.output
    return digests.listing(out)


def test_subset_artifacts_match_committed_digests(tmp_path):
    want = LISTING.read_text(encoding="utf-8").splitlines()
    here = digests.backend_line()
    if want[0] != here:  # another numpy, CPU or OpenBLAS core may round otherwise
        pytest.skip(f"digests were taken on {want[0]!r}; this host has {here!r}")
    out = tmp_path / "artifacts"
    try:
        got = write_subset(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)  # about 146 MB
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(write_subset(Path(tmp))))
