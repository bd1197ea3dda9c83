"""Each script under demos/ runs to completion against the package.

The demos import public names that no other test reaches through them,
so each one runs here in a fresh interpreter, from a scratch working
directory, and must exit 0 without a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aerosurvey

PACKAGE_ROOT = str(Path(aerosurvey.__file__).resolve().parent.parent)
DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    # full_survey.py writes its pipeline artifacts into the directory named
    args = [str(tmp_path / "out")] if demo == "full_survey.py" else []
    proc = subprocess.run([sys.executable, str(DEMOS / demo), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    if demo == "full_survey.py":
        assert (tmp_path / "out" / "report.json").is_file()
