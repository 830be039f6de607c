"""Write the reference artifact set of every bundled profile and print digests.

Usage::

    PYTHONPATH=src python tools/artifact_digests.py OUT_DIR

For each bundled profile P this runs ``pmustream run --profile P --fixed
2,10,20 --emit-decisions --out OUT_DIR/P``, adding ``--emit-traces`` on every
profile but ``forced_oscillation`` (its traces would hold 1.2 M rows per
mode): 104 artifacts in all.  It then prints one ``sha256  relative/path``
line per file under OUT_DIR, sorted by path, after a first line naming the
numerics back end the bytes depend on, for example ``# backend: numpy 2.4.6;
openblas SkylakeX; cos/sin/exp X86_V4`` (``unknown`` for a part that cannot
be read).

Run it once with each of two source trees on ``PYTHONPATH`` and ``diff`` the
two listings to check that a change keeps every artifact byte-identical.
Listings taken on different back ends may differ in the last bit of some
values.
"""

from __future__ import annotations

import ctypes
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from pmustream.pipeline import list_profiles

UNTRACED = {"forced_oscillation"}
UFUNCS = ("cos", "sin", "exp")


def openblas_core() -> str:
    """The OpenBLAS kernel core picked at load time, from the library that
    numpy wheels bundle."""
    try:
        lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):  # no such library or symbol
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def ufunc_targets() -> str:
    """The SIMD target each of cos, sin and exp dispatches to on float64,
    with functions of one target grouped: ``cos/sin/exp X86_V4``."""
    try:
        from numpy.lib.introspect import opt_func_info

        info = opt_func_info(func_name=f"^({'|'.join(UFUNCS)})$", signature="float64")
        groups: dict[str, list[str]] = {}
        for name in UFUNCS:
            target = "/".join(sorted({sig["current"] for sig in info[name].values()}))
            groups.setdefault(target, []).append(name)
        return ", ".join(f"{'/'.join(names)} {target}" for target, names in groups.items())
    except (ImportError, KeyError):  # numpy before 2.0, or no float64 loop named
        return f"{'/'.join(UFUNCS)} unknown"


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
    print(f"# backend: numpy {np.__version__}; openblas {openblas_core()}; {ufunc_targets()}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
