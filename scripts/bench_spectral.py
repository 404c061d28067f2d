"""Evidence for the radius-formula check's stages, written to BENCH_spectral.json.

Two parts:

- spectral2304 pairs: the benchmark's spectral2304 workload (verify_srf
  on 5 dense and 4 sparse complex measures on rotation_group(24),
  |G| = 2304) run on a parent checkout and on this one, alternating which
  side runs first, one seed per pair; each side's end-to-end metrics and
  the unscaled op_p50_ms, with median and quartiles, and the pairs this
  checkout wins on each.
- stage split: verify_srf's stages timed one by one on the nine
  spectral2304 measures of seed 1, the minimum of --repeats calls per
  measure and stage, summed over the measures, in a fresh process per
  checkout: the dual orbits, the block stack (one FFT and the
  complement compression), the stacked eigenvalue and singular-value
  calls, and the Gelfand chain of 20 squarings with its time per step,
  next to the whole verify_srf.

Without --parent only this checkout's stage split is measured. Run from
the repository root, with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_spectral.py --parent ../parent --pairs 10

    PYTHONPATH=src python3 scripts/bench_spectral.py --pairs 0 --repeats 1 --out -
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

SPECTRAL_METRICS = (("ok_per_ref_s", False), ("op_p50_ref_ms", True), ("op_p50_ms", True),
                    ("setup_s", True), ("peak_rss_mb", True))

KMAX = 20

# reads only names that the parent checkout has too
STAGES = """
import json, sys, time
sys.path.insert(0, "perfbench")
import motionwalk as mw
from motionwalk.groups import dual_orbits
from motionwalk.reps import _blocks, compress_to_complement
from motionwalk.spectral import (gelfand_sequence, one_in_spectrum, op_norm,
                                 spectral_radius, verify_srf)
from workloads import (SPECTRAL_DENSE, SPECTRAL_N, _rng, dense_complex_weights,
                       sparse_draws)
repeats, kmax = int(sys.argv[1]), int(sys.argv[2])
g = mw.rotation_group(SPECTRAL_N)
rng = _rng(1, 2304)
weights = [dense_complex_weights(g, rng) for _ in range(SPECTRAL_DENSE)] + list(sparse_draws(1))

def best(f):
    spent = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = f()
        spent = min(spent, time.perf_counter() - start)
    return spent, out

totals = {}
for w in weights:
    mu = mw.from_weights(g, w)
    stages = {}
    stages["dual_orbits_s"], orbits = best(lambda: dual_orbits(g))
    reps = [o.representative for o in orbits]

    def blocks():
        stack = _blocks(g, mu.weights[g.inv_perm()], reps)
        return stack, compress_to_complement(g, stack[0])[None]

    stages["blocks_s"], (stack, comp) = best(blocks)
    stages["eigen_svd_s"], _ = best(lambda: [(spectral_radius(m), op_norm(m), one_in_spectrum(m))
                                             for m in (stack, comp)])
    stages["gelfand_s"], _ = best(lambda: gelfand_sequence(mu, kmax))
    stages["verify_srf_s"], _ = best(lambda: verify_srf(mu, kmax=kmax))
    for stage, s in stages.items():
        totals[stage] = totals.get(stage, 0.0) + s
out = {"order": g.size, "measures": len(weights), "kmax": kmax,
       **{stage: round(s, 5) for stage, s in totals.items()},
       "gelfand_step_ms": round(1e3 * totals["gelfand_s"] / (len(weights) * kmax), 4)}
print(json.dumps(out))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5,
                    help="calls per measure and stage in the stage split")
    ap.add_argument("--out", default="BENCH_spectral.json", help="output file, or - for stdout")
    args = ap.parse_args()
    here = Path.cwd()
    checkouts = {"change": here}
    result = {"command": "PYTHONPATH=src python3 scripts/bench_spectral.py "
                         + " ".join(sys.argv[1:]),
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "nproc": os.cpu_count(), "machine": platform.machine(),
                              "blas_threads_in_stage_split": 1}}
    if args.parent is not None:
        parent = args.parent.resolve()
        checkouts["parent"] = parent
        result["parent"] = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=parent,
                                          capture_output=True, text=True).stdout.strip() or None
        result["command"] = result["command"].replace(str(args.parent), "<parent checkout>")
    result["stages"] = {side: in_checkout(path, STAGES, str(args.repeats), str(KMAX))
                        for side, path in checkouts.items()}
    if args.parent is not None and args.pairs:
        result["spectral2304"] = pairs(checkouts["parent"], here, "spectral2304", args.pairs,
                                       SPECTRAL_METRICS)
    text = json.dumps(result, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


if __name__ == "__main__":
    main()
