"""Alternating runs of one perfbench workload on a parent checkout and on
this one, code run inside a checkout, and the command line, header and
output of a bench_*.py evidence script, shared by those scripts.

Pair i runs both sides with seed i + 1, the parent first on even i and
this checkout first on odd i, so a drift in machine load hits both sides.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

import numpy as np

SECONDS = 25

BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def in_checkout(checkout: Path, code: str, *argv: str) -> dict:
    """Run code in a fresh interpreter on the package of checkout, with
    BLAS on one thread; the JSON object on its last line of output."""
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def parser(doc: str, out: str) -> argparse.ArgumentParser:
    """A bench script's parser, described by the first line of its
    docstring doc, with the flags every one takes: --parent, --pairs, and
    --out with default out."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=out, help="output file, or - for stdout")
    return ap


def start(script: str, args: argparse.Namespace,
          **environment) -> Tuple[dict, Dict[str, Path]]:
    """(result, checkouts) of a run of scripts/<script>: result holds the
    command line, with the parent's path written as <parent checkout>, the
    environment (python, numpy, CPUs, machine and the given entries) and,
    with --parent, the parent's short commit; checkouts maps "change" to
    this checkout and, with --parent, "parent" to that one."""
    checkouts = {"change": Path.cwd()}
    command = f"PYTHONPATH=src python3 scripts/{script} " + " ".join(sys.argv[1:])
    result = {"command": command,
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "nproc": os.cpu_count(), "machine": platform.machine(),
                              **environment}}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
        result["parent"] = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                          cwd=checkouts["parent"], capture_output=True,
                                          text=True).stdout.strip() or None
        result["command"] = command.replace(str(args.parent), "<parent checkout>")
    return result, checkouts


def add_pairs(result: dict, checkouts: Dict[str, Path], args: argparse.Namespace,
              workload: str, metrics: Iterable[Tuple[str, bool]]) -> None:
    """result[workload] = --pairs alternating pairs of the workload, when
    there is a parent checkout and --pairs is not 0."""
    if "parent" in checkouts and args.pairs:
        result[workload] = pairs(checkouts["parent"], checkouts["change"], workload,
                                 args.pairs, metrics)


def write(result: dict, out: str) -> None:
    """result as indented JSON to the file out, or to stdout for -."""
    text = json.dumps(result, indent=1) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
