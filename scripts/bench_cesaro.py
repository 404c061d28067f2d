"""Evidence for the doubled Cesaro curves, written to BENCH_cesaro.json.

Three parts:

- suite200 pairs: the benchmark's suite200 workload run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics, with median and quartiles,
  and the pairs this checkout wins on each.
- stage split: the weak-mixing and ergodic curves of cross_check timed
  case by case over the 200 acceptance cases (the minimum of --repeats
  calls per case, summed), in a fresh process per checkout.
- ladder: empirical_weak_mixing on the 5-atom measure (weights
  0.5/0.2/0.1/0.1/0.1 on the identity, ((1,0),0), ((0,0),1), ((5,9),3)
  and ((-1,2),2)) on rotation_group(n), |G| = 4 n^2, one fresh process
  per point, with the process's peak RSS. The parent runs only n <= 24:
  its walk is quadratic in |G|, 45 s at n = 24, and its gap stack alone
  would take about 1.4 GB at n = 48.

Without --parent only this checkout is measured. Run from the
repository root, with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_cesaro.py --parent ../parent --pairs 10

    PYTHONPATH=src python3 scripts/bench_cesaro.py --pairs 0 --ladder 4 --repeats 1 --out -
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from paired_runs import pairs

SUITE200_METRICS = (("ok_per_ref_s", False), ("op_p50_ref_ms", True), ("setup_s", True),
                    ("peak_rss_mb", True))

PARENT_LADDER_MAX = 24
BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}

STAGES = """
import json, sys, time
from motionwalk import acceptance_suite
from motionwalk.classify import _ergodic, _weak_mixing
from motionwalk.groups import dual_orbits
repeats = int(sys.argv[1])
spent = {"weak_mixing_s": 0.0, "ergodic_s": 0.0}
for case in acceptance_suite():
    mu = case.measure
    reps = [o.representative for o in dual_orbits(mu.group)]
    for key, stage in (("weak_mixing_s", _weak_mixing), ("ergodic_s", _ergodic)):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            stage(mu, reps)
            best = min(best, time.perf_counter() - start)
        spent[key] += best
print(json.dumps({key: round(s, 4) for key, s in spent.items()}))
"""

LADDER = """
import json, resource, sys, time
import numpy as np
from motionwalk import GElem, from_weights, rotation_group
from motionwalk.classify import empirical_weak_mixing
n = int(sys.argv[1])
g = rotation_group(n)
w = np.zeros(g.size)
atoms = [((0, 0), 0), ((1, 0), 0), ((0, 0), 1), ((5, 9), 3), ((-1, 2), 2)]
for (a, k), weight in zip(atoms, [0.5, 0.2, 0.1, 0.1, 0.1]):
    w[g.index(GElem(tuple(v % n for v in a), k))] += weight
mu = from_weights(g, w)
start = time.perf_counter()
curve = empirical_weak_mixing(mu)
spent = time.perf_counter() - start
print(json.dumps({"order": g.size, "weak_mixing_s": round(spent, 4),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "verdict": curve.verdict, "final": curve.points[-1][1]}))
"""


def in_checkout(checkout: Path, code: str, *argv: str) -> dict:
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5, help="calls per case in the stage split")
    ap.add_argument("--ladder", type=int, nargs="*", default=[16, 24, 48],
                    help="n of rotation_group(n) for the 5-atom ladder")
    ap.add_argument("--out", default="BENCH_cesaro.json", help="output file, or - for stdout")
    args = ap.parse_args()
    here = Path.cwd()
    checkouts = {"change": here}
    result = {"command": "PYTHONPATH=src python3 scripts/bench_cesaro.py " + " ".join(sys.argv[1:]),
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "nproc": os.cpu_count(), "machine": platform.machine(),
                              "blas_threads": 1}}
    if args.parent is not None:
        parent = args.parent.resolve()
        checkouts["parent"] = parent
        result["parent"] = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=parent,
                                          capture_output=True, text=True).stdout.strip() or None
        result["command"] = result["command"].replace(str(args.parent), "<parent checkout>")
    result["stages"] = {side: in_checkout(path, STAGES, str(args.repeats))
                        for side, path in checkouts.items()}
    result["ladder"] = {side: [in_checkout(path, LADDER, str(n)) for n in args.ladder
                               if side == "change" or n <= PARENT_LADDER_MAX]
                        for side, path in checkouts.items()}
    if args.parent is not None and args.pairs:
        result["suite200"] = pairs(checkouts["parent"], here, "suite200", args.pairs,
                                   SUITE200_METRICS)
    text = json.dumps(result, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


if __name__ == "__main__":
    main()
