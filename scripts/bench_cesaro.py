"""Evidence for the classifier's stages, written to BENCH_cesaro.json.

Three parts:

- suite200 pairs: the benchmark's suite200 workload run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics, with median and quartiles,
  and the pairs this checkout wins on each.
- stage split: every stage of cross_check (spectral pass, adapted,
  strictly aperiodic, and the empirical curves, one call for all three)
  timed case by case over the 200 acceptance cases, the minimum of
  --repeats calls per case, summed; each stage's least sum over --repeats
  fresh processes per checkout, the checkouts alternating which runs
  first.
- ladder: a whole cross_check of the 5-atom measure (weights
  0.5/0.2/0.1/0.1/0.1 on the identity, ((1,0),0), ((0,0),1), ((5,9),3)
  and ((-1,2),2)) on rotation_group(n), |G| = 4 n^2, in --repeats fresh
  processes per point and checkout, the checkouts alternating which runs
  first: the median and quartiles of its time, of its stage split and of
  the process's peak RSS, and its verdicts. Each process first makes one
  untimed cross_check on rotation_group(4), so no stage is charged the
  first call's warm-up, while the ladder group's own tables stay cold.

Without --parent only this checkout is measured. Run from the
repository root, with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_cesaro.py --parent ../parent --pairs 10

    PYTHONPATH=src python3 scripts/bench_cesaro.py --pairs 0 --ladder 4 --repeats 1 --out -
"""
from paired_runs import add_pairs, in_checkout, parser, start, summary, write

SUITE200_METRICS = (("ok_per_ref_s", False), ("op_p50_ref_ms", True), ("setup_s", True),
                    ("peak_rss_mb", True))

# times the four stages cross_check calls. Its one block stack is read by
# both _block_spectra and _curves, so its transform is in neither stage. A
# stage renamed away fails at wrapping, and one no longer called fails the
# run through recorded(), so none silently drops out of the split
TIMED = """
import json, resource, sys, time
from motionwalk import classify
NAMES = {"_block_spectra": "spectral_s", "adapted": "adapted_s",
         "strictly_aperiodic_check": "aperiodic_s", "_curves": "curves_s"}
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
    setattr(classify, name, timed(stage, getattr(classify, name)))
def recorded(times):
    if missing := sorted(set(NAMES.values()) - set(times)):
        sys.exit(f"no time recorded for stages {missing}")
    return times
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
print(json.dumps({stage: round(s, 4) for stage, s in recorded(totals).items()}))
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
                  "stages": {stage: round(s, 4) for stage, s in recorded(spent).items()},
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "verdicts": {key: getattr(v, key).verdict for key in
                               ("empirical_mixing", "empirical_ergodic", "weak_mixing_empirical")},
                  "consistency": list(v.consistency)}))
"""


def stages(checkouts: dict, repeats: int) -> dict:
    """Each side's stage split: each stage's least sum over repeats runs
    of STAGES per checkout, the sides alternating which runs first."""
    out = {side: {} for side in checkouts}
    for r in range(repeats):
        order = list(checkouts.items())
        for side, path in order if r % 2 == 0 else order[::-1]:
            for stage, s in in_checkout(path, STAGES, str(repeats)).items():
                out[side][stage] = min(out[side].get(stage, s), s)
    return out


def ladder(checkouts: dict, ns: list, repeats: int) -> dict:
    """Each side's ladder points: every point run repeats times per
    checkout, the sides alternating which runs first; the time of the
    whole check, of each stage and the peak RSS as their summary (median
    and quartiles), with the first run's verdicts."""
    out = {side: [] for side in checkouts}
    for n in ns:
        runs = {side: [] for side in checkouts}
        for r in range(repeats):
            order = list(checkouts.items())
            for side, path in order if r % 2 == 0 else order[::-1]:
                runs[side].append(in_checkout(path, LADDER, str(n)))
        for side, points in runs.items():
            first = points[0]
            out[side].append({
                "order": first["order"],
                "cross_check_s": summary([p["cross_check_s"] for p in points]),
                "stages": {stage: summary([p["stages"][stage] for p in points])
                           for stage in first["stages"]},
                "peak_rss_mb": summary([p["peak_rss_mb"] for p in points]),
                "verdicts": first["verdicts"], "consistency": first["consistency"]})
    return out


def main() -> None:
    ap = parser(__doc__, "BENCH_cesaro.json")
    ap.add_argument("--repeats", type=int, default=5,
                    help="calls per case and runs per checkout in the stage split, and "
                         "runs per ladder point and checkout")
    ap.add_argument("--ladder", type=int, nargs="*", default=[16, 24, 48, 128, 256, 512],
                    help="n of rotation_group(n) for the 5-atom ladder")
    args = ap.parse_args()
    result, checkouts = start("bench_cesaro.py", args, blas_threads=1)
    result["stages"] = stages(checkouts, args.repeats)
    result["ladder"] = ladder(checkouts, args.ladder, args.repeats)
    add_pairs(result, checkouts, args, "suite200", SUITE200_METRICS)
    write(result, args.out)


if __name__ == "__main__":
    main()
