"""Smoke test: every demo runs to completion.

Each demo runs in a fresh temporary directory, so the CSV files that
``conditioning_study.py`` and ``pseudospectrum_scan.py`` write stay out of
the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
