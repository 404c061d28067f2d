"""Evidence for the sampler, written to BENCH_sampler.json.

Four parts:

- walk_sim pairs: the benchmark's walk_sim workload run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics and the unscaled op_p50_ms,
  with median and quartiles, and the pairs this checkout wins on each.
- per-step split: one walk of each measure timed call by call on one
  thread, as the mean per step of the draw of raw 64-bit words, the
  guide-table lookup (shift, take, search of the cut buckets) and the
  gather through the right-product table, next to what the walk no
  longer runs: Generator.random's draw of the same words as uniforms,
  from a second Philox with the same key, and the search over the atoms'
  CDF on those uniforms, which the lookup must match. The measures are
  the three walk_sim measures of seed 1 and a dense one with an atom on
  every element, all on rotation_group(16) at --trials trials, and the
  first walk_sim measure at one trial.
- workers: the same measures walked by sample_path at each worker count
  up to the CPUs the process may run on (at least 2), the minimum of
  --repeats walks per count, as ms per step; every count draws the same
  words and must return the same positions.
- floor: a walk of the first walk_sim measure in slices of each size of
  --slices trials, on one thread and on 2, as us per step: where the
  slices gain, which sets simulate.MIN_SLICE.

Without --parent the pairs are left out. Run from the repository root,
with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_sampler.py --parent ../parent --pairs 10

    PYTHONPATH=src python3 scripts/bench_sampler.py --pairs 0 --steps 4 --trials 5000 \
        --slices 1024 --repeats 1 --out -
"""
import sys
import time
from pathlib import Path

import numpy as np

from motionwalk import from_weights, rotation_group, simulate
from motionwalk.groups import products
from motionwalk.simulate import WalkConfig, _guide_table, _increment_cdf, _lookup, sample_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import (WALK_MEASURES, WALK_N, WALK_STEPS, WALK_TRIALS,  # noqa: E402
                       _rng, lazy_adapted_weights)

from paired_runs import add_pairs, parser, start, write  # noqa: E402

CPUS, MIN_SLICE = simulate.WORKERS, simulate.MIN_SLICE
WALK_SIM_METRICS = (("op_p50_ref_ms", True), ("op_p50_ms", True), ("setup_s", True),
                    ("ok_per_ref_s", False), ("peak_rss_mb", True))


def split(g, mu, steps: int, trials: int, seed: int = 5) -> dict:
    """Mean per-step time of each part of one walk, in ms."""
    cdf = _increment_cdf(mu)
    atoms = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)
    cdf = cdf[atoms]
    scaled, guide = _guide_table(cdf)
    k = len(atoms)
    table = products(g, np.arange(g.size)[:, None], atoms).astype(np.intp).ravel() * k
    bits = np.random.Philox(key=seed)
    # the same words, as the uniforms the search is defined on
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = np.empty(trials)
    bucket, row = np.empty(trials, dtype=np.uint64), np.empty(trials, dtype=np.intp)
    x = np.zeros(trials, dtype=np.intp)
    spent = dict.fromkeys(("draw", "lookup", "gather", "random", "search"), 0.0)
    clock = time.perf_counter
    for _ in range(steps):
        t0 = clock()
        raw = bits.random_raw(trials)
        t1 = clock()
        _lookup(scaled, guide, raw, bucket, row)
        t2 = clock()
        rng.random(out=u)
        t3 = clock()
        searched = np.searchsorted(cdf, u, side="right")
        t4 = clock()
        assert np.array_equal(row, searched)
        t5 = clock()
        np.add(row, x, out=row)
        np.take(table, row, out=x, mode="clip")
        t6 = clock()
        for part, dt in (("draw", t1 - t0), ("lookup", t2 - t1), ("random", t3 - t2),
                         ("search", t4 - t3), ("gather", t6 - t5)):
            spent[part] += dt
    start = clock()
    sample_path(g, mu, WalkConfig(steps, trials, seed))
    whole = clock() - start
    return {"atoms": k, "cut_buckets": int((guide < 0).sum()), "trials": trials, "steps": steps,
            **{f"{part}_ms": round(1e3 * s / steps, 4) for part, s in spent.items()},
            "sample_path_ms": round(1e3 * whole / steps, 4)}


def measures(g) -> list:
    """The three walk_sim measures of seed 1 and a dense one."""
    rng = _rng(1, 1024)
    out = [(f"walk_sim seed 1 mu{i}", from_weights(g, lazy_adapted_weights(g, rng)))
           for i in range(WALK_MEASURES)]
    dense = np.random.default_rng(0).random(g.size)
    out.append(("dense, an atom on each of the 1024 elements",
                from_weights(g, dense / dense.sum())))
    return out


def per_step(g, walks: list, steps: int, trials: int) -> list:
    simulate.WORKERS = 1
    rows = [{"measure": name, **split(g, mu, steps, trials)} for name, mu in walks]
    rows.append({"measure": "walk_sim seed 1 mu0, one trial",
                 **split(g, walks[0][1], steps << 7, 1)})
    return rows


def best_walk(g, mu, cfg: WalkConfig, workers: int, repeats: int):
    """(least seconds of repeats walks, final positions) at workers slices."""
    simulate.WORKERS = workers
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        final = sample_path(g, mu, cfg)
        best = min(best, time.perf_counter() - start)
    return best, final


def per_worker(g, walks: list, steps: int, trials: int, repeats: int) -> list:
    cfg = WalkConfig(steps, trials, seed=5)
    counts = sorted({1, 2, CPUS})
    rows = []
    for name, mu in walks:
        times = {}
        for workers in counts:
            times[workers], final = best_walk(g, mu, cfg, workers, repeats)
            if workers == 1:
                first = final
            assert np.array_equal(final, first), (name, workers)
        rows.append({"measure": name, "trials": trials, "steps": steps,
                     **{f"workers_{w}_ms": round(1e3 * s / steps, 4) for w, s in times.items()},
                     "speedup": round(times[1] / min(times.values()), 3)})
    return rows


def floor(g, mu, sizes: list, trials_steps: int, repeats: int) -> list:
    """us per step of walks of 2 slices of each size, on 1 thread and on 2."""
    simulate.MIN_SLICE = 1
    rows = []
    for size in sizes:
        cfg = WalkConfig(max(16, trials_steps // (2 * size)), 2 * size, seed=5)
        one, _ = best_walk(g, mu, cfg, 1, repeats)
        two, _ = best_walk(g, mu, cfg, 2, repeats)
        rows.append({"slice": size, "trials": cfg.trials, "steps": cfg.steps,
                     "one_thread_us": round(1e6 * one / cfg.steps, 1),
                     "two_slices_us": round(1e6 * two / cfg.steps, 1),
                     "speedup": round(one / two, 3)})
    simulate.MIN_SLICE = MIN_SLICE
    return rows


def main() -> None:
    ap = parser(__doc__, "BENCH_sampler.json")
    ap.add_argument("--steps", type=int, default=WALK_STEPS, help="steps of a timed walk")
    ap.add_argument("--trials", type=int, default=WALK_TRIALS, help="trials of a timed walk")
    ap.add_argument("--slices", type=int, nargs="*", default=[1 << j for j in range(10, 16)],
                    help="slice sizes of the floor part")
    ap.add_argument("--repeats", type=int, default=5, help="walks per timing, the least kept")
    args = ap.parse_args()
    result, checkouts = start("bench_sampler.py", args, cpus=CPUS, min_slice=MIN_SLICE)
    # before the walks below: Linux reports a child's peak RSS as at least
    # this process's RSS when it forked
    add_pairs(result, checkouts, args, "walk_sim", WALK_SIM_METRICS)
    g = rotation_group(WALK_N)
    walks = measures(g)
    result["per_step"] = per_step(g, walks, args.steps, args.trials)
    result["workers"] = per_worker(g, walks, args.steps, args.trials, args.repeats)
    result["floor"] = floor(g, walks[0][1], args.slices, args.steps * args.trials, args.repeats)
    write(result, args.out)


if __name__ == "__main__":
    main()
