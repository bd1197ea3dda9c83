"""Output is a pure function of the seed in every process.

`aerosurvey pipeline` on the default plan (run_pipeline), then `aerosurvey
qc nasvd` on the spectra it wrote, each in a fresh interpreter, under two
hash seeds: every file and the standard output of both commands must be
the same bytes. Order that follows a set or a str-keyed hash, or state
carried over from the process, would show here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import aerosurvey

PACKAGE_ROOT = str(Path(aerosurvey.__file__).resolve().parent.parent)
COMMANDS = (
    ["pipeline", "--out-dir", "out"],
    ["qc", "nasvd", "--in", "out/spectra.csv", "--k", "4",
     "--out", "denoised.csv"],
)


def _run(folder: Path, hash_seed: str) -> dict[str, str]:
    """sha256 of each command's stdout and of every file it wrote, by name,
    with every path relative to `folder`."""
    folder.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    digests = {}
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "aerosurvey.cli", *argv],
                              cwd=folder, env=env, capture_output=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        digests[f"stdout of {argv[0]} {argv[1]}"] = \
            hashlib.sha256(proc.stdout).hexdigest()
    for p in sorted(folder.rglob("*")):
        if p.is_file():
            digests[p.relative_to(folder).as_posix()] = \
                hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_output_is_the_same_under_two_hash_seeds(tmp_path):
    first = _run(tmp_path / "hash0", "0")
    assert "out/report.json" in first and "denoised.csv" in first
    assert _run(tmp_path / "hash1", "1") == first
