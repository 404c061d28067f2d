"""Evidence for the classifier's stages, written to BENCH_cesaro.json.

Three parts:

- suite200 pairs: the benchmark's suite200 workload run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics, with median and quartiles,
  and the pairs this checkout wins on each.
- stage split: every stage of cross_check (spectral pass, adapted,
  strictly aperiodic, and the empirical curves: one stage where one call
  computes all three, one each in a checkout that computes them apart)
  timed case by case over the 200 acceptance cases, the minimum of
  --repeats calls per case, summed, in a fresh process per checkout.
- ladder: a whole cross_check of the 5-atom measure (weights
  0.5/0.2/0.1/0.1/0.1 on the identity, ((1,0),0), ((0,0),1), ((5,9),3)
  and ((-1,2),2)) on rotation_group(n), |G| = 4 n^2, one fresh process
  per point and checkout: its time, its stage split, its verdicts and
  the process's peak RSS. Each process first makes one untimed
  cross_check on rotation_group(4), so no stage is charged the first
  call's warm-up, while the ladder group's own tables stay cold.

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

from paired_runs import in_checkout, pairs

SUITE200_METRICS = (("ok_per_ref_s", False), ("op_p50_ref_ms", True), ("setup_s", True),
                    ("peak_rss_mb", True))

# times every stage cross_check calls, under the names of this checkout
# (_block_spectra, _curves) and of older ones (orbit_spectra,
# _orbit_spectra; empirical_mixing, then _mixing) alike. Where cross_check
# reads one block stack for both, its transform is in neither stage
TIMED = """
import json, resource, sys, time
from motionwalk import classify
NAMES = {"_block_spectra": "spectral_s", "orbit_spectra": "spectral_s",
         "_orbit_spectra": "spectral_s", "adapted": "adapted_s",
         "strictly_aperiodic_check": "aperiodic_s", "empirical_mixing": "mixing_s",
         "_mixing": "mixing_s", "_ergodic": "ergodic_s", "_weak_mixing": "weak_mixing_s",
         "_curves": "curves_s"}
spent = {}
def timed(stage, f):
    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - start
    return call
for name, stage in NAMES.items():
    if hasattr(classify, name):
        setattr(classify, name, timed(stage, getattr(classify, name)))
"""

STAGES = TIMED + """
from motionwalk import acceptance_suite
repeats = int(sys.argv[1])
totals = {}
for case in acceptance_suite():
    best = {}
    for _ in range(repeats):
        spent.clear()
        classify.cross_check(case.measure)
        for stage, s in spent.items():
            best[stage] = min(best.get(stage, float("inf")), s)
    for stage, s in best.items():
        totals[stage] = totals.get(stage, 0.0) + s
print(json.dumps({stage: round(s, 4) for stage, s in totals.items()}))
"""

LADDER = TIMED + """
import numpy as np
from motionwalk import GElem, from_weights, rotation_group
def five_atom(n):
    g = rotation_group(n)
    w = np.zeros(g.size)
    atoms = [((0, 0), 0), ((1, 0), 0), ((0, 0), 1), ((5, 9), 3), ((-1, 2), 2)]
    for (a, k), weight in zip(atoms, [0.5, 0.2, 0.1, 0.1, 0.1]):
        w[g.index(GElem(tuple(v % n for v in a), k))] += weight
    return g, from_weights(g, w)
classify.cross_check(five_atom(4)[1])
spent.clear()
g, mu = five_atom(int(sys.argv[1]))
start = time.perf_counter()
v = classify.cross_check(mu)
whole = time.perf_counter() - start
print(json.dumps({"order": g.size, "cross_check_s": round(whole, 4),
                  "stages": {stage: round(s, 4) for stage, s in spent.items()},
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "verdicts": {key: getattr(v, key).verdict for key in
                               ("empirical_mixing", "empirical_ergodic", "weak_mixing_empirical")},
                  "consistency": list(v.consistency)}))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5, help="calls per case in the stage split")
    ap.add_argument("--ladder", type=int, nargs="*", default=[16, 24, 48, 128],
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
    result["ladder"] = {side: [in_checkout(path, LADDER, str(n)) for n in args.ladder]
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
