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
from paired_runs import add_pairs, in_checkout, parser, start, write

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
    ap = parser(__doc__, "BENCH_lattice.json")
    ap.add_argument("--ladder", type=int, nargs="*", default=list(range(7, 15)),
                    help="exponents j of the ladder points n = 2^j")
    ap.add_argument("--repeats", type=int, default=3, help="calls per ladder point")
    args = ap.parse_args()
    result, checkouts = start("bench_lattice.py", args, blas_threads=1)
    result["ladder"] = {side: [in_checkout(path, POINT, str(j), str(args.repeats))
                               for j in args.ladder]
                        for side, path in checkouts.items()}
    add_pairs(result, checkouts, args, "lattice_defect", LATTICE_METRICS)
    write(result, args.out)


if __name__ == "__main__":
    main()
