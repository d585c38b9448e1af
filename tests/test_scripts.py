"""The demo scripts run end to end on the package in ``src`` and leave their artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, stems", [
    ("cubic_demo.py", ["out/cubic/cubic"]),
    ("surface_demo.py", ["out/surface/target0", "out/surface/target1"]),
])
def test_demo_runs(tmp_path, script, stems):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for stem in stems:
        for ext in ("net", "report", "verify"):
            assert (tmp_path / f"{stem}.{ext}").is_file()
    assert done.stdout.count("failures 0") == len(stems)  # one campaign per built network
