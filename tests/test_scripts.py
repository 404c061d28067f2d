"""The scripts run as their docstrings say, so a removed public name breaks
a test before it breaks a script."""
import json
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


CENSUS = """
spectral radius condition: {'HOLDS': 122, 'FAILS': 78}
mixing (empirical):        {'MIXING': 122, 'NOT_MIXING': 78}
ergodic (empirical):       {'ERGODIC': 137, 'NOT_ERGODIC': 63}
weak mixing (empirical):   {'WEAK_MIXING': 122, 'NOT_WEAK_MIXING': 74, 'INCONCLUSIVE': 4}

inconclusive at default budgets (4):
   sc7_2_3/point-rotation
   sc7_2_3/coset-walk
   sc11_3_5/point-rotation
   sc11_3_5/coset-walk

no consistency violations
"""


def test_suite_census_prints_the_frozen_census():
    # everything after the timing line
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "scripts/suite_census.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    head, _, rest = done.stdout.partition("\n")
    assert head.startswith("200 cases classified in ")
    assert rest == CENSUS


def test_benchmark_runs_every_workload_and_checks_it():
    # the benchmark reads package names no other test reads (the traced
    # MotionGroup methods, the verdict's value), so a refactor that drops
    # one fails here first; a traced run writes under perfbench/out
    workloads = ["suite200", "spectral2304", "walk_sim", "lattice_defect"]
    runs = [subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
                              "--seconds", "1", "--trace", "1"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE) for w in workloads]
    for w, run in zip(workloads, runs):
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, (w, err)
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (w, result)
