"""The example scripts under ``scripts/`` run end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_toy_demo():
    out = run_script("run_toy_demo.py")
    assert "validation: ok" in out
    assert "defaults with cascade:    ['d', 'e', 'f']" in out
    assert "output share lost if f exits:" in out
    assert "banking equity share lost (plus interbank):" in out


def test_calibrated_batch(tmp_path):
    out = run_script("run_calibrated_batch.py", "--firms", "300", "--scenarios", "5", "--out", str(tmp_path))
    assert "5 scenarios x 300 firms in " in out
    assert "system-level equity losses by channel:" in out
    assert "interbank amplification: median" in out
    assert "report files written to" in out
    assert (tmp_path / "ledgers.csv").is_file() and (tmp_path / "risk_summary.csv").is_file()
