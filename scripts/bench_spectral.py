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
from paired_runs import add_pairs, in_checkout, parser, start, write

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
    ap = parser(__doc__, "BENCH_spectral.json")
    ap.add_argument("--repeats", type=int, default=5,
                    help="calls per measure and stage in the stage split")
    args = ap.parse_args()
    result, checkouts = start("bench_spectral.py", args, blas_threads_in_stage_split=1)
    result["stages"] = {side: in_checkout(path, STAGES, str(args.repeats), str(KMAX))
                        for side, path in checkouts.items()}
    add_pairs(result, checkouts, args, "spectral2304", SPECTRAL_METRICS)
    write(result, args.out)


if __name__ == "__main__":
    main()
