"""The scripts run as their docstrings say, so a removed public name breaks
a test before it breaks a script."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["scripts/radius_vs_decay.py"],
                                  ["scripts/defect_table.py", "6"],
                                  ["scripts/bench_cesaro.py", "--pairs", "0", "--ladder", "4",
                                   "--repeats", "1", "--out", "-"],
                                  ["scripts/bench_sampler.py", "--pairs", "0", "--steps", "4",
                                   "--trials", "5000", "--slices", "1024", "--repeats", "1",
                                   "--out", "-"],
                                  ["scripts/bench_spectral.py", "--pairs", "0", "--repeats", "1",
                                   "--out", "-"],
                                  ["scripts/bench_lattice.py", "--pairs", "0", "--ladder", "7", "8",
                                   "--repeats", "1", "--out", "-"]],
                         ids=["radius_vs_decay", "defect_table", "bench_cesaro", "bench_sampler",
                              "bench_spectral", "bench_lattice"])
def test_script_runs_from_the_repository_root(argv):
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
