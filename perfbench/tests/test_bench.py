"""Tests of the benchmark's own code: statistics, spans, checkers, seeds."""
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import motionwalk as mw
from motionwalk import classify, groups, simulate, spectral
from motionwalk.classify import TriState
from motionwalk.rosenblatt import DefectResult

import harness
import layers
import reference
import run
import workloads
from harness import FAILED, OK, WRONG, Op
from spans import Recorder, install

BENCHMARK = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- statistics

def test_p95_only_from_200_samples():
    assert "op_p95_ms" not in harness.latency_summary([0.001] * 199)
    summary = harness.latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["op_p50_ms"] == pytest.approx(100.5)
    assert 190 < summary["op_p95_ms"] < 200


def test_timed_passes_runs_whole_passes_within_budget():
    ops = [Op(f"op{i}", lambda: None, lambda out: (OK, "")) for i in range(3)]
    outcomes, passes = harness.timed_passes(ops, seconds=0.0)
    assert passes == 1 and [o.label for o in outcomes] == ["op0", "op1", "op2"]
    slow = [Op("nap", lambda: time.sleep(0.01), lambda out: (OK, ""))] * 2
    outcomes, passes = harness.timed_passes(slow, seconds=0.1)
    assert len(outcomes) == 2 * passes and 2 <= passes <= 5
    assert sum(o.latency_s for o in outcomes) <= 0.1 + 0.05


def test_timed_passes_calls_after_op_with_each_latency():
    ops = [Op(f"op{i}", lambda: None, lambda out: (OK, "")) for i in range(3)]
    seen = []
    outcomes, passes = harness.timed_passes(ops, seconds=0.0, after_op=seen.append)
    assert seen == [o.latency_s for o in outcomes] and len(seen) == 3


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("bad input")

    out = harness.run_op(Op("x", boom, lambda out: (OK, "")))
    assert out.status == FAILED and "bad input" in out.reason


# ------------------------------------------------------------- reference

def test_speed_probe_samples_per_period_of_op_time(monkeypatch):
    calls = []
    monkeypatch.setitem(reference.KERNELS, "fake", lambda: lambda: calls.append(1))
    monkeypatch.setitem(reference.NOMINAL_S, "fake", 2.0)
    # each sample reads the clock twice; every sample takes 3 s
    probe = reference.SpeedProbe(["fake"], clock=FakeClock(range(0, 100, 3)), period_s=1.0)
    probe.after_op(0.25)          # the first op always triggers a sample
    probe.after_op(0.5)
    assert len(calls) == 1
    probe.after_op(1.5)           # 0.25 + 0.5 + 1.5 s since the first sample: two periods
    assert len(calls) == 3 and probe.samples["fake"] == [3, 3, 3]
    assert probe.slowdown() == pytest.approx(1.5)


def test_slowdown_sums_the_kernels_medians(monkeypatch):
    for name, nominal in (("a", 1.0), ("b", 3.0)):
        monkeypatch.setitem(reference.KERNELS, name, lambda: lambda: None)
        monkeypatch.setitem(reference.NOMINAL_S, name, nominal)
    probe = reference.SpeedProbe(["a", "b"])
    probe.samples = {"a": [1.0, 2.0, 9.0], "b": [6.0]}
    assert probe.slowdown() == pytest.approx((2.0 + 6.0) / 4.0)


def test_reference_kernels_run_and_every_workload_names_known_ones():
    interp = reference.KERNELS["interp"]()
    assert interp() == interp()
    size = reference.GATHER_SIZE
    gather = reference.KERNELS["gather"]()
    assert gather() == gather() == pytest.approx(size * (size - 1) / 2)   # a permutation of 0..size-1
    assert set(workloads.REFERENCE) == set(workloads.SETUPS)
    for names in workloads.REFERENCE.values():
        assert names and all(n in reference.KERNELS and n in reference.NOMINAL_S for n in names)


# ------------------------------------------------------------------ spans

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_nested_spans():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    rec = Recorder(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    rec.enter("A")
    rec.enter("B")
    rec.exit()
    rec.enter("C")
    rec.enter("D")
    rec.exit()
    rec.exit()
    rec.exit()
    assert rec.total_s("A") == 10 and rec.self_s("A") == 4
    assert rec.self_s("B") == 2 and rec.self_s("C") == 3 and rec.self_s("D") == 1
    assert rec.top_s == 10
    parents = {s[3]: s[1] for s in rec.spans}
    ids = {s[3]: s[0] for s in rec.spans}
    assert parents == {"A": None, "B": ids["A"], "C": ids["A"], "D": ids["C"]}
    assert rec.edges[("C", "D")] == 1


def test_spans_beyond_keep_are_counted_not_stored():
    rec = Recorder(clock=FakeClock(range(10)), keep=2)
    for _ in range(3):
        rec.enter("x")
        rec.exit()
    assert len(rec.spans) == 2 and rec.dropped == 1 and rec.calls("x") == 3


def test_install_wraps_every_binding_once_and_restores():
    original = mw.convolve
    rec = Recorder()
    restore = layers.install_all(rec)
    try:
        assert classify.convolve is spectral.convolve is simulate.convolve is mw.convolve
        assert classify.lambda_elem is not original
        g = mw.negation_group(3)
        mu = mw.uniform(g)
        mw.convolve(mu, mu)
        simulate.exact_power(mu, 2)
    finally:
        restore()
    assert mw.convolve is original and classify.convolve is original
    assert rec.calls("measures.convolve") == 1 + 2
    assert rec.edges[("simulate.exact_power", "measures.convolve")] == 2
    assert rec.counts["mult_table_mb"] == pytest.approx(4 * 6 ** 2 / 1e6)


def test_install_skips_private_and_foreign_functions():
    rec = Recorder()

    class NS:
        pass

    ns = NS()
    ns.public = mw.tv_norm
    ns._private = mw.tv_norm
    ns.foreign = json.dumps
    restore = install(rec, [ns], ["measures"])
    assert ns.public is not mw.tv_norm and ns._private is mw.tv_norm
    assert ns.foreign is json.dumps
    restore()
    assert ns.public is mw.tv_norm


# --------------------------------------------------------------- checkers

def test_suite_checker_rejects_flipped_verdict_and_violations():
    case = next(c for c in mw.acceptance_suite() if c.name == "t2/uniform")
    v = mw.cross_check(case.measure)
    frozen = workloads.suite_census()[case.name]
    assert workloads.check_verdict(frozen, v) == (OK, "")
    flipped = TriState.FAILS if v.sr.verdict == TriState.HOLDS else TriState.HOLDS
    bad = dataclasses.replace(v, sr=dataclasses.replace(v.sr, verdict=flipped))
    assert workloads.check_verdict(frozen, bad)[0] == WRONG
    bad = dataclasses.replace(v, consistency=("SR holds but S fails",))
    assert workloads.check_verdict(frozen, bad)[0] == WRONG


def test_suite_checker_ignores_verdicts_inconclusive_at_freeze():
    case = next(c for c in mw.acceptance_suite() if c.name == "t2/uniform")
    v = mw.cross_check(case.measure)
    frozen = dict(workloads.suite_census()[case.name], mixing="INCONCLUSIVE")
    bad = dataclasses.replace(v, empirical_mixing=dataclasses.replace(
        v.empirical_mixing, verdict="NOT_MIXING"))
    assert workloads.check_verdict(frozen, bad) == (OK, "")


@pytest.mark.parametrize("group", [mw.negation_group(5), mw.swap_group(3),
                                   mw.scaling_group(7, 2, 3), mw.rotation_group(6)])
def test_radius_oracle_matches_the_program(group):
    rng = np.random.default_rng(3)
    for weights in (workloads.dense_complex_weights(group, rng),
                    workloads.sparse_complex_weights(group, rng)):
        report = mw.verify_srf(mw.from_weights(group, weights))
        assert workloads.block_radius_oracle(group, weights) == pytest.approx(
            report.formula_radius, abs=1e-12)


def test_srf_checker_rejects_changed_radius_and_failed_report():
    g = mw.rotation_group(4)
    mu = mw.from_weights(g, workloads.dense_complex_weights(g, np.random.default_rng(1)))
    report = mw.verify_srf(mu)
    check = workloads.SrfCheck(mu)
    assert check(report) == (OK, "")
    moved = tuple(dataclasses.replace(o, spectral_radius=o.spectral_radius + 1e-6)
                  for o in report.per_orbit)
    assert check(dataclasses.replace(report, per_orbit=moved))[0] == WRONG
    assert check(dataclasses.replace(report, passed=False))[0] == FAILED


def test_walk_checker_rejects_tv_off_by_half(tmp_path):
    bound = workloads.tv_bound(1024, workloads.WALK_TRIALS)
    assert 0.05 < bound < 0.1
    rows = [{"n": 1, "tv_exact": "0.9", "tv_empirical": "0.91"},
            {"n": 2, "tv_exact": "0.7", "tv_empirical": "0.69"}]
    assert workloads.check_walk_rows(rows, bound) == (OK, "")
    rows[1]["tv_empirical"] = "0.2"
    assert workloads.check_walk_rows(rows, bound)[0] == WRONG
    check = workloads.WalkCheck(tmp_path / "out.json", 1024)
    assert check(2)[0] == FAILED
    assert check(0)[0] == WRONG                      # no output written
    (tmp_path / "out.json").write_text(json.dumps({"rows": rows}))
    assert check(0)[0] == WRONG


def test_defect_checker_rejects_disagreeing_routes():
    assert workloads.check_defect(8, DefectResult(8, 0.125, 0.125)) == (OK, "")
    assert workloads.check_defect(8, DefectResult(8, 0.125 * (1 + 1e-6), 0.125))[0] == WRONG
    assert workloads.check_defect(8, DefectResult(16, 0.125, 0.125))[0] == WRONG


def test_sparse_supports_that_stall_small_are_detected():
    g = mw.rotation_group(4)                                           # |G| = 64
    translation = g.index(mw.GElem((1, 0), 0))
    assert not workloads._support_spreads(g, np.array([translation]))  # stalls in a cyclic group
    turn = g.index(mw.GElem((0, 0), 1))
    assert workloads._support_spreads(g, np.array([translation, turn, g.index(g.identity())]))


def test_products_match_the_program_multiplication():
    g = mw.scaling_group(7, 2, 3)
    idx = np.arange(g.size)
    table = np.array([[g.index(groups.multiply(g, g.element(i), g.element(j))) for j in idx] for i in idx])
    assert np.array_equal(workloads._products(g, idx, idx), table)


def test_sparse_atoms_whose_products_collide_are_detected():
    g = mw.rotation_group(4)
    half_turn = [g.index(mw.GElem((1, 0), 2)), g.index(mw.GElem((0, 3), 2))]
    assert workloads._products_collide(g, np.array(half_turn))       # x^2 = y^2 = e
    translations = [g.index(mw.GElem((1, 0), 0)), g.index(mw.GElem((0, 1), 0))]
    assert not workloads._products_collide(g, np.array(translations))


# ------------------------------------------------------------------ seeds

def _walk_measures(seed, tmp_path):
    ops = workloads.setup_walk_sim(seed, tmp_path)
    return [(tmp_path / f"walk-measure{i}.json").read_text() for i in range(len(ops))]


def test_seed_changes_spectral_and_walk_inputs_not_suite_contents(tmp_path):
    def spectral_weights(seed):
        return {op.label: op.check.mu.weights for op in workloads.setup_spectral2304(seed, tmp_path)}

    a, b = spectral_weights(1), spectral_weights(2)
    assert all(not np.array_equal(a[k], b[k]) for k in a)
    assert spectral_weights(1).keys() == a.keys()
    assert all(np.array_equal(a[k], w) for k, w in spectral_weights(1).items())

    assert _walk_measures(1, tmp_path) != _walk_measures(2, tmp_path)
    assert _walk_measures(1, tmp_path) == _walk_measures(1, tmp_path)

    def suite_contents(seed):
        return [(op.label, op.call.args[0].weights.tobytes())
                for op in workloads.setup_suite200(seed, tmp_path)]

    one, two = suite_contents(1), suite_contents(2)
    assert sorted(one) == sorted(two) and one != two


def test_spectral_inputs_are_five_dense_four_sparse(tmp_path):
    ops = workloads.setup_spectral2304(7, tmp_path)
    sizes = sorted(np.count_nonzero(op.check.mu.weights) for op in ops)
    assert len(ops) == 9 and all(2 <= s <= 4 for s in sizes[:4])
    assert sizes[4:] == [2304] * 5
    g = ops[0].group
    for op in ops:
        atoms = np.flatnonzero(op.check.mu.weights)
        if atoms.size < g.size:
            assert workloads._support_spreads(g, atoms)


# --------------------------------------------- declared metrics and workloads

def _trivial_setup(seed, workdir):
    return [Op("op", lambda: 1, lambda out: (OK, ""))]


def test_e2e_and_traced_runs_report_the_declared_metrics(tmp_path):
    counts, metrics, report = run.run_e2e(_trivial_setup, 1, 0.0, tmp_path, ("interp",))
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert [(n, u) for n, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert counts["correct"] and counts["attempted"] == 1 and counts["failed"] == 0
    assert report["op_p95_ms"] is None
    assert metrics["op_p50_ref_ms"][0] == pytest.approx(report["op_p50_ms"] / report["slowdown"])
    assert metrics["ok_per_ref_s"][0] == pytest.approx(report["ok_per_s"] * report["slowdown"])

    counts, metrics, report = run.run_traced(_trivial_setup, 1, tmp_path, "test")
    Path(report["trace_file"]).unlink()
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers.PER_LAYER


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.SETUPS)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "suite200", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
