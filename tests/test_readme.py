"""The code shown in README.md runs as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out == "kept 224/431; TrE_TVE=0.178 %\n"
