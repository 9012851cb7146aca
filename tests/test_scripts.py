"""Every script in scripts/ still imports and parses its arguments, and the
calibration script runs to its end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_calibrate_split_gain_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibrate_split_gain.py"),
                           "--reps", "2"], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    noise, tasks = done.stdout.split("\n\n")
    rows = [line.split() for line in noise.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [50, 100, 500, 1000, 2000, 5000, 20000]
    rows = [line.split() for line in tasks.splitlines()[2:]]
    assert [r[0] for r in rows] == ["xor"] * 4 + ["rxor45"] * 4 + ["quads"] * 4
    assert all(len(r) == 4 and all(float(v) >= 0 for v in r[2:]) for r in rows)
