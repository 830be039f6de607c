"""Write the reference artifact set of every bundled profile and print digests.

Usage::

    PYTHONPATH=src python tools/artifact_digests.py OUT_DIR

For each bundled profile P this runs ``pmustream run --profile P --fixed
2,10,20 --emit-decisions --out OUT_DIR/P``, adding ``--emit-traces`` on every
profile but ``forced_oscillation`` (its traces would hold 1.2 M rows per
mode): 104 artifacts in all.  It then prints one ``sha256  relative/path``
line per file under OUT_DIR, sorted by path.

Run it once with each of two source trees on ``PYTHONPATH`` and ``diff`` the
two listings to check that a change keeps every artifact byte-identical.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

from pmustream.pipeline import list_profiles

UNTRACED = {"forced_oscillation"}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; its files would mix into the listing", file=sys.stderr)
        return 2
    for name in list_profiles():
        args = ["run", "--profile", name, "--fixed", "2,10,20", "--emit-decisions",
                "--out", str(out / name)]
        if name not in UNTRACED:
            args.append("--emit-traces")
        subprocess.run([sys.executable, "-m", "pmustream.cli", *args], check=True,
                       stdout=subprocess.DEVNULL)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
