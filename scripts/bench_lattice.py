"""Evidence for the lattice walk's phase sweep, written to BENCH_lattice.json.

Two parts:

- lattice_defect pairs: the benchmark's lattice_defect workload
  (defect_norm of the eigen parameter over n = 128..2048) run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics and the unscaled op_p50_ms,
  with median and quartiles, and the pairs this checkout wins on each.
- ladder: defect_norm of the eigen parameter at n = 2^j for each j of
  --ladder, one fresh process per point and checkout: the minimum time
  of --repeats calls, the process's peak RSS and the result.

Without --parent only this checkout's ladder is measured. Run from the
repository root, with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_lattice.py --parent ../parent --pairs 10

    PYTHONPATH=src python3 scripts/bench_lattice.py --pairs 0 --ladder 7 8 --repeats 1 --out -
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from paired_runs import in_checkout, pairs

LATTICE_METRICS = (("ok_per_ref_s", False), ("op_p50_ref_ms", True), ("op_p50_ms", True),
                   ("setup_s", True), ("peak_rss_mb", True))

# reads only names that the parent checkout has too
POINT = """
import json, resource, sys, time
from motionwalk.rosenblatt import defect_norm, eigen_parameter
n, repeats = 1 << int(sys.argv[1]), int(sys.argv[2])
t = eigen_parameter()[0]
spent = float("inf")
for _ in range(repeats):
    start = time.perf_counter()
    r = defect_norm(t, n)
    spent = min(spent, time.perf_counter() - start)
print(json.dumps({"n": n, "defect_norm_s": round(spent, 5),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "direct": r.direct, "closed_form": r.closed_form}))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--ladder", type=int, nargs="*", default=list(range(7, 15)),
                    help="exponents j of the ladder points n = 2^j")
    ap.add_argument("--repeats", type=int, default=3, help="calls per ladder point")
    ap.add_argument("--out", default="BENCH_lattice.json", help="output file, or - for stdout")
    args = ap.parse_args()
    here = Path.cwd()
    checkouts = {"change": here}
    result = {"command": "PYTHONPATH=src python3 scripts/bench_lattice.py " + " ".join(sys.argv[1:]),
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "nproc": os.cpu_count(), "machine": platform.machine(),
                              "blas_threads": 1}}
    if args.parent is not None:
        parent = args.parent.resolve()
        checkouts["parent"] = parent
        result["parent"] = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=parent,
                                          capture_output=True, text=True).stdout.strip() or None
        result["command"] = result["command"].replace(str(args.parent), "<parent checkout>")
    result["ladder"] = {side: [in_checkout(path, POINT, str(j), str(args.repeats))
                               for j in args.ladder]
                        for side, path in checkouts.items()}
    if args.parent is not None and args.pairs:
        result["lattice_defect"] = pairs(checkouts["parent"], here, "lattice_defect", args.pairs,
                                         LATTICE_METRICS)
    text = json.dumps(result, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


if __name__ == "__main__":
    main()
