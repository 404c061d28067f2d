"""motionwalk benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload suite200 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run sets up the inputs several times before and
after the timed phase (the median is setup_s), and in between runs whole
closed-loop passes over the ops within --seconds, with the reference
kernels of reference.py timed between ops, and reports the end-to-end
metrics. With --trace 1 it runs three
passes, each on freshly set-up inputs: untraced, traced with every public
function of the program's modules wrapped in spans, and untraced again;
it reports the per-layer metrics of the traced set-up and pass, and
ignores --seconds. The last line of stdout is the result object; the line
before it is a report with every end-to-end figure, the correctness
failures and the environment.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: default OpenBLAS threading
# burns CPU on the small blocks without making any workload faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
from reference import SpeedProbe
from spans import Recorder

BENCH_DIR = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.5
WORKLOADS = ("suite200", "spectral2304", "walk_sim", "lattice_defect")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tally(outcomes) -> dict:
    failures = [o for o in outcomes if o.status != harness.OK]
    return {
        "correct": not any(o.status == harness.WRONG for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": [f"{o.label}: {o.status}: {o.reason}" for o in failures[:10]],
    }


def time_setups(setup, seed, workdir, times):
    """Append set-up durations to ``times`` until SETUP_MIN_REPEATS runs and
    SETUP_MIN_S seconds are reached; returns the last inputs."""
    repeats, spent = 0, 0.0
    while repeats < SETUP_MIN_REPEATS or spent < SETUP_MIN_S:
        t0 = time.perf_counter()
        ops = setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        repeats, spent = repeats + 1, spent + times[-1]
    return ops


def run_e2e(setup, seed, seconds, workdir, kernels):
    # set-up is timed before and after the timed phase, so that its median
    # samples the machine's state across the run and not only at its start
    setup_times = []
    ops = time_setups(setup, seed, workdir, setup_times)
    probe = SpeedProbe(kernels)
    outcomes, passes = harness.timed_passes(ops, seconds, after_op=probe.after_op)
    time_setups(setup, seed, workdir, setup_times)
    spent = sum(o.latency_s for o in outcomes)
    counts = tally(outcomes)
    ok = counts["attempted"] - counts["failed"]
    lat = harness.latency_summary([o.latency_s for o in outcomes])
    slowdown = probe.slowdown()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_per_ref_s": (ok / spent * slowdown, "1/ref_s"),
        "op_p50_ref_ms": (lat["op_p50_ms"] / slowdown, "ref_ms"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    report = {
        "error_rate": counts["failed"] / counts["attempted"],
        "ok_per_s": ok / spent,
        "op_p50_ms": lat["op_p50_ms"],
        "op_p95_ms": lat.get("op_p95_ms"),
        "samples": lat["samples"],
        "passes": passes,
        "timed_s": spent,
        "setup_repeats": len(setup_times),
        "slowdown": slowdown,
        "reference_median_s": {name: statistics.median(times)
                               for name, times in probe.samples.items()},
        "reference_samples": {name: len(times) for name, times in probe.samples.items()},
    }
    return counts, metrics, report


def run_traced(setup, seed, workdir, workload):
    import layers  # imports the program

    def untraced():
        cpu0 = harness.cpu_s()
        t0 = time.perf_counter()
        ops = setup(seed, workdir)
        setup_s = time.perf_counter() - t0
        done = harness.run_pass(ops)
        return setup_s + sum(o.latency_s for o in done), harness.cpu_s() - cpu0, done

    # untraced passes on either side of the traced one, so that warm-up and
    # drift do not count as tracing overhead
    before_s, before_cpu, before = untraced()
    rec = Recorder()
    restore = layers.install_all(rec)
    try:
        rec.op_id = "setup"
        t0 = time.perf_counter()
        ops = setup(seed, workdir)
        setup_s = time.perf_counter() - t0
        traced = harness.run_pass(ops, on_op=lambda label: setattr(rec, "op_id", label))
    finally:
        restore()
    traced_s = setup_s + sum(o.latency_s for o in traced)
    after_s, after_cpu, after = untraced()
    untraced_s = (before_s + after_s) / 2
    cpu = (before_cpu + after_cpu) / 2

    values = layers.layer_metrics(rec, ops, traced_s, untraced_s, cpu)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(rec.to_dict()))
    report = {"traced_s": traced_s, "untraced_s": untraced_s,
              "spans_dropped": rec.dropped, "trace_file": os.path.relpath(trace_path)}
    return tally(before + traced + after), metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "motionwalk" / "__init__.py").is_file():
        print(f"error: no motionwalk source under {src}; run from the root of a "
              "motionwalk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads  # imports the program

    setup = workloads.SETUPS[args.workload]
    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            counts, metrics, report = run_traced(setup, args.seed, workdir, args.workload)
        else:
            counts, metrics, report = run_e2e(setup, args.seed, args.seconds, workdir,
                                              workloads.REFERENCE[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = counts.pop("failures")
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **report, "failures": failures,
                                 "environment": harness.environment()}}))
    print(json.dumps({**counts, "metrics": {name: {"value": value, "unit": unit}
                                            for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
