"""Evidence for the radius-formula check's stages, written to BENCH_spectral.json.

Two parts:

- spectral2304 pairs: the benchmark's spectral2304 workload (verify_srf
  on 5 dense and 4 sparse complex measures on rotation_group(24),
  |G| = 2304) run on a parent checkout and on this one, alternating which
  side runs first, one seed per pair; each side's end-to-end metrics and
  the unscaled op_p50_ms, with median and quartiles, and the pairs this
  checkout wins on each.
- stage split: what verify_srf runs, timed one stage at a time on the
  nine spectral2304 measures of seed 1, the minimum of --repeats calls
  per measure and stage, summed over the measures, in a fresh process
  per checkout: orbit_spectra (the dual-orbit representatives, the block
  stack, the complement compression and the stacked eigenvalue and
  singular-value calls), gelfand_radius (the chain of 20 squarings), and
  the whole verify_srf.

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
from motionwalk.spectral import gelfand_radius, orbit_spectra, verify_srf
from workloads import (SPECTRAL_DENSE, SPECTRAL_N, _rng, dense_complex_weights,
                       sparse_draws)
repeats, kmax = int(sys.argv[1]), int(sys.argv[2])
g = mw.rotation_group(SPECTRAL_N)
rng = _rng(1, 2304)
weights = [dense_complex_weights(g, rng) for _ in range(SPECTRAL_DENSE)] + list(sparse_draws(1))
stages = {"orbit_spectra_s": orbit_spectra,
          "gelfand_radius_s": lambda mu: gelfand_radius(mu, kmax),
          "verify_srf_s": lambda mu: verify_srf(mu, kmax=kmax)}
totals = dict.fromkeys(stages, 0.0)
for w in weights:
    mu = mw.from_weights(g, w)
    for stage, f in stages.items():
        spent = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            f(mu)
            spent = min(spent, time.perf_counter() - start)
        totals[stage] += spent
print(json.dumps({"order": g.size, "measures": len(weights), "kmax": kmax,
                  **{stage: round(s, 5) for stage, s in totals.items()}}))
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
