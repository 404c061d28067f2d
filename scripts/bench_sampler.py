"""Evidence for the sampler's guide-table lookup, written to BENCH_sampler.json.

Two parts:

- walk_sim pairs: the benchmark's walk_sim workload run on a parent
  checkout and on this one, alternating which side runs first, one seed
  per pair; each side's end-to-end metrics and the unscaled op_p50_ms,
  with median and quartiles, and the pairs this checkout wins on each.
- per-step split: one walk of each measure timed call by call in this
  checkout, as the mean per step of the uniform draw, the guide-table
  lookup and the gather through the right-product table, next to the
  search over the atoms' CDF that the lookup replaced, timed on the same
  uniforms. The measures are the three walk_sim measures of seed 1 and a
  dense one with an atom on every element, all on rotation_group(16) at
  10^5 trials, and the first walk_sim measure at one trial.

Run from the repository root, with a checkout of the parent commit:

    PYTHONPATH=src python3 scripts/bench_sampler.py --parent ../parent --pairs 10
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from motionwalk import from_weights, rotation_group
from motionwalk.groups import products
from motionwalk.simulate import WalkConfig, _guide_table, _increment_cdf, _lookup, sample_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import (WALK_MEASURES, WALK_N, WALK_STEPS, WALK_TRIALS,  # noqa: E402
                       _rng, lazy_adapted_weights)

from paired_runs import pairs  # noqa: E402

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
    rng = np.random.Generator(np.random.Philox(key=seed))
    u, plain = np.empty(trials), np.empty(trials)
    bucket, row = np.empty(trials, dtype=np.intp), np.empty(trials, dtype=np.intp)
    x = np.zeros(trials, dtype=np.intp)
    spent = dict.fromkeys(("draw", "lookup", "gather", "search"), 0.0)
    clock = time.perf_counter
    for _ in range(steps):
        t0 = clock()
        rng.random(out=u)
        t1 = clock()
        np.copyto(plain, u)
        t2 = clock()
        searched = np.searchsorted(cdf, plain, side="right")
        t3 = clock()
        _lookup(scaled, guide, u, bucket, row)
        t4 = clock()
        assert np.array_equal(row, searched)
        t5 = clock()
        np.add(row, x, out=row)
        np.take(table, row, out=x, mode="clip")
        t6 = clock()
        for part, dt in (("draw", t1 - t0), ("search", t3 - t2), ("lookup", t4 - t3),
                         ("gather", t6 - t5)):
            spent[part] += dt
    start = clock()
    sample_path(g, mu, WalkConfig(steps, trials, seed))
    whole = clock() - start
    return {"atoms": k, "cut_buckets": int((guide < 0).sum()), "trials": trials, "steps": steps,
            **{f"{part}_ms": round(1e3 * s / steps, 4) for part, s in spent.items()},
            "sample_path_ms": round(1e3 * whole / steps, 4)}


def per_step() -> list:
    g = rotation_group(WALK_N)
    rng = _rng(1, 1024)
    measures = [(f"walk_sim seed 1 mu{i}", from_weights(g, lazy_adapted_weights(g, rng)))
                for i in range(WALK_MEASURES)]
    dense = np.random.default_rng(0).random(g.size)
    measures.append(("dense, an atom on each of the 1024 elements",
                     from_weights(g, dense / dense.sum())))
    rows = [{"measure": name, **split(g, mu, WALK_STEPS, WALK_TRIALS)} for name, mu in measures]
    rows.append({"measure": "walk_sim seed 1 mu0, one trial", **split(g, measures[0][1], 1 << 14, 1)})
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=Path("BENCH_sampler.json"))
    args = ap.parse_args()
    parent = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
                            capture_output=True, text=True, check=True).stdout.strip()
    result = {
        "command": f"PYTHONPATH=src python3 scripts/bench_sampler.py --parent <checkout of {parent}>"
                   f" --pairs {args.pairs}",
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "per_step": per_step(),
        "walk_sim": pairs(args.parent.resolve(), Path.cwd(), "walk_sim", args.pairs,
                          WALK_SIM_METRICS),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
