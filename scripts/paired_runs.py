"""Alternating runs of one perfbench workload on a parent checkout and on
this one, and code run inside a checkout, shared by the bench_*.py
evidence scripts.

Pair i runs both sides with seed i + 1, the parent first on even i and
this checkout first on odd i, so a drift in machine load hits both sides.
"""
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Tuple

import numpy as np

SECONDS = 25

BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def in_checkout(checkout: Path, code: str, *argv: str) -> dict:
    """Run code in a fresh interpreter on the package of checkout, with
    BLAS on one thread; the JSON object on its last line of output."""
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def workload_run(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its end-to-end metric values and the
    unscaled op_p50_ms of its report. Exits if any op failed or the run
    was not correct."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout
    report, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} at {checkout}, seed {seed}: {result}")
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "op_p50_ms": report["report"]["op_p50_ms"]}


def summary(values) -> dict:
    q1, med, q3 = (float(f"{v:.4g}") for v in np.percentile(values, [25, 50, 75]))
    return {"runs": [float(f"{v:.4g}") for v in values], "median": med, "q1": q1, "q3": q3}


def pairs(parent: Path, here: Path, workload: str, n: int,
          metrics: Iterable[Tuple[str, bool]]) -> dict:
    """n alternating pairs; for each (metric, lower_is_better), both sides'
    summary and the pairs this checkout wins."""
    sides = {"parent": [], "change": []}
    for i in range(n):
        order = [("parent", parent), ("change", here)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            sides[side].append(workload_run(checkout, workload, seed=i + 1))
            print(f"pair {i + 1} {side}: {sides[side][-1]}", file=sys.stderr)
    out = {"pairs": n, "seeds": list(range(1, n + 1)), "seconds": SECONDS}
    for metric, lower in metrics:
        runs = {side: [r[metric] for r in sides[side]] for side in sides}
        out[metric] = {side: summary(v) for side, v in runs.items()}
        out[metric]["change_wins"] = sum(c < p if lower else c > p
                                         for p, c in zip(runs["parent"], runs["change"]))
    return out
