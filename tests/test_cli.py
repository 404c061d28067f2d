"""Round-trip serialization and exit-code contract for the command line."""
import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionwalk import (GElem, delta, negation_group, rotation_group, scaling_group, swap_group,
                        uniform)
from motionwalk import cli
from motionwalk.cli import (
    MAX_BLOCK_ENTRIES,
    MAX_CLASSIFY_GRAM_ENTRIES,
    MAX_CLASSIFY_N_MAX,
    MAX_CLASSIFY_ORDER,
    MAX_GROUP_ORDER,
    MAX_K_ORDER,
    MAX_SIM_STEPS,
    MAX_SIM_TRIAL_STEPS,
    MAX_SIM_TRIALS,
    group_to_data,
    main,
    measure_to_data,
    parse_group_data,
    parse_measure_data,
)
from motionwalk.classify import strictly_aperiodic_check
from motionwalk.errors import ParseError
from motionwalk.groups import build_motion_group
from motionwalk.measures import from_weights
from motionwalk import simulate
from motionwalk.simulate import empirical_distributions, exact_powers, tv_to_uniform
from motionwalk.suite import roster

from oracles import structure


def write_group(path, g):
    path.write_text(json.dumps(group_to_data(g)))
    return str(path)


def write_measure(path, mu):
    path.write_text(json.dumps(measure_to_data(mu)))
    return str(path)


@pytest.fixture
def d5(tmp_path):
    g = negation_group(5)
    return g, write_group(tmp_path / "g.json", g)


def test_group_round_trip():
    g = scaling_group(11, 3, 5)
    h = parse_group_data(group_to_data(g))
    assert h.abelian.modulus == g.abelian.modulus
    assert h.abelian.rank == g.abelian.rank
    assert np.array_equal(h.k.table, g.k.table)
    assert np.array_equal(h.k.action, g.k.action)


def test_measure_round_trip():
    g = negation_group(7)
    rng = np.random.default_rng(3)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    mu = from_weights(g, w)
    back = parse_measure_data(g, measure_to_data(mu))
    assert np.allclose(back.weights, mu.weights, atol=1e-15)


def test_duplicate_atoms_accumulate():
    g = negation_group(5)
    data = {"atoms": [{"a": [1], "k": 0, "re": 0.25},
                      {"a": [1], "k": 0, "re": 0.25},
                      {"a": [6], "k": 0, "re": 0.5}]}  # 6 = 1 mod 5
    mu = parse_measure_data(g, data)
    assert mu.weights[g.index(GElem((1,), 0))] == pytest.approx(1.0)


def test_measure_parse_rejects_bad_atoms():
    g = negation_group(5)
    with pytest.raises(ParseError):
        parse_measure_data(g, {"atoms": [{"a": [1, 2], "k": 0, "re": 1.0}]})
    with pytest.raises(ParseError):
        parse_measure_data(g, {"atoms": [{"a": [1], "k": 2, "re": 1.0}]})
    with pytest.raises(ParseError):
        parse_measure_data(g, {"atoms": {"a": [1]}})
    with pytest.raises(ParseError):
        parse_measure_data(g, [])


@pytest.mark.parametrize("tol", ["0", "inf", "nan"])
@pytest.mark.parametrize("command", ["classify", "verify-srf", "spectrum"])
def test_tol_is_checked_before_the_group_file(tmp_path, capsys, command, tol):
    # a non-finite tol used to pass every block, or none, without a word
    missing = str(tmp_path / "absent.json")
    assert main([command, "--group", missing, "--measure", missing, "--tol", tol]) == 64
    assert capsys.readouterr().err == f"error: tol must be positive and finite, got {float(tol)}\n"


@pytest.mark.parametrize("n_max", [0, 100])
def test_classify_n_max_is_a_power_of_two_before_the_group_file(tmp_path, capsys, n_max):
    missing = str(tmp_path / "absent.json")
    assert main(["classify", "--group", missing, "--measure", missing,
                 "--n-max", str(n_max)]) == 64
    assert capsys.readouterr().err == f"error: n_max must be a power of two, got {n_max}\n"


# the CLI accepts a seed in [0, 2^128)
SEED_EDGES = [-1, 0, 2 ** 128 - 1, 2 ** 128]


@pytest.mark.parametrize("seed", SEED_EDGES)
def test_simulate_seed_out_of_range_exits_64(tmp_path, d5, capsys, seed):
    g, gpath = d5
    mpath = write_measure(tmp_path / "m.json", delta(g, GElem((1,), 1)))
    code = main(["simulate", "--group", gpath, "--measure", mpath, "--steps", "4",
                 "--trials", "20", f"--seed={seed}"])
    err = capsys.readouterr().err
    if 0 <= seed < 2 ** 128:
        assert (code, err) == (0, "")
    else:
        assert code == 64
        assert err == f"error: seed must be in [0, 2^128), got {seed}\n"


def test_classify_uniform_exits_zero(tmp_path, d5, capsys):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    code = main(["classify", "--group", gpath, "--measure", mpath,
                 "--n-max", "64"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "motionwalk"
    assert report["report"]["sr"]["verdict"] == "HOLDS"
    assert report["report"]["empirical_mixing"]["verdict"] == "MIXING"
    assert report["report"]["consistency"] == []


def test_classify_point_mass_fails_cleanly(tmp_path, d5, capsys):
    # every condition fails yet the grid is consistent: exit 0, not 2
    g, gpath = d5
    mpath = write_measure(tmp_path / "e.json", delta(g, g.identity()))
    code = main(["classify", "--group", gpath, "--measure", mpath,
                 "--n-max", "64"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["sr"]["verdict"] == "FAILS"
    assert report["empirical_mixing"]["verdict"] == "NOT_MIXING"


def test_classify_flat_weak_mixing_tail_exits_zero(tmp_path, capsys):
    # the mean-square curve of a translation times the swap is flat at 1.5,
    # so the weak-mixing side agrees with SR and mixing instead of staying open
    g = swap_group(3)
    gpath = write_group(tmp_path / "g18.json", g)
    mpath = write_measure(tmp_path / "m.json", delta(g, GElem((1, 0), 1)))
    code = main(["classify", "--group", gpath, "--measure", mpath])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["weak_mixing_empirical"]["verdict"] == "NOT_WEAK_MIXING"
    assert report["sr"]["verdict"] == "FAILS"
    assert report["consistency"] == []


def test_classify_inconclusive_exits_three(tmp_path, capsys):
    # slow ergodic walk on the order-20 group: Cesaro gap still above
    # threshold at n = 512, so the empirical side stays open
    g = negation_group(10)
    gpath = write_group(tmp_path / "g20.json", g)
    w = np.zeros(g.size, dtype=complex)
    w[g.index(GElem((1,), 0))] = 0.5
    w[g.index(GElem((0,), 1))] = 0.5
    mpath = write_measure(tmp_path / "m.json", from_weights(g, w))
    code = main(["classify", "--group", gpath, "--measure", mpath])
    assert code == 3
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["empirical_ergodic"]["verdict"] == "INCONCLUSIVE"
    assert report["consistency"] == []


def test_malformed_json_exits_64(tmp_path, d5, capsys):
    g, gpath = d5
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": [')
    assert main(["classify", "--group", gpath, "--measure", str(bad)]) == 64
    assert main(["classify", "--group", str(bad), "--measure", str(bad)]) == 64
    missing = str(tmp_path / "nope.json")
    assert main(["classify", "--group", gpath, "--measure", missing]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("group, atom, extra", [
    ({"abelian": {"modulus": 0}}, {"re": 1.0}, ["spectrum"]),
    ({}, {"re": "nan"}, ["spectrum"]),
    ({}, {"re": "1e400"}, ["spectrum"]),
    # the JSON literals json.dumps writes for non-finite floats
    ({}, {"re": float("nan")}, ["spectrum"]),
    ({}, {"im": float("inf")}, ["classify"]),
    # two finite atoms whose total variation overflows
    ({}, [{"re": 1e308}, {"k": 1, "re": 1e308}], ["verify-srf"]),
    # weights must be JSON numbers: float() would read true and "0.5"
    ({}, {"re": True}, ["spectrum"]),
    ({}, {"re": "0.5", "im": 0.0}, ["simulate"]),
    ({}, {"re": 1.0}, ["simulate", "--trials", "0"]),
    ({}, {"re": 1.0}, ["simulate", "--steps", "0"]),
    # Z_n x Z_2 with the trivial action is a valid group for every n
    ({"abelian": {"modulus": 10**15}, "k": {"action": [[[1]], [[1]]]}}, {"re": 1.0},
     ["verify-srf"]),
    # integer fields: each of these used to be truncated into a valid input
    ({"k": {"table": [[0, 1], [1, 0.5]]}}, {"re": 1.0}, ["spectrum"]),
    ({"k": {"action": [[[1]], [[-1.0000001]]]}}, {"re": 1.0}, ["spectrum"]),
    ({"abelian": {"modulus": 3.5}}, {"re": 1.0}, ["spectrum"]),
    ({}, {"a": [0.5], "re": 1.0}, ["spectrum"]),
    ({}, {"k": 0.9, "re": 1.0}, ["spectrum"]),
    ({}, {"a": [True], "re": 1.0}, ["spectrum"]),
    # |G| = 4098, inside MAX_GROUP_ORDER but over MAX_CLASSIFY_ORDER
    ({"abelian": {"modulus": 2049}, "k": {"action": [[[1]], [[1]]]}}, {"re": 1.0},
     ["classify"]),
    # a non-finite tol used to pass every block, or none, without a word
    ({}, {"re": 1.0}, ["verify-srf", "--tol", "inf"]),
    ({}, {"re": 1.0}, ["spectrum", "--tol", "nan"]),
    ({}, {"re": 1.0}, ["classify", "--tol", "inf"]),
    # simulate budgets: these used to end in a memory error or run without bound
    ({}, {"re": 1.0}, ["simulate", "--trials", "10000000000000"]),
    ({}, {"re": 1.0}, ["simulate", "--steps", "100000000000", "--trials", "10"]),
    ({}, {"re": 1.0}, ["simulate", "--steps", str(2 ** 20), "--trials", str(2 ** 11)]),
], ids=["modulus-0", "nan-weight", "overflow-weight", "nan-literal-weight",
        "infinity-literal-weight", "tv-overflow", "boolean-weight", "string-weight",
        "zero-trials", "zero-steps",
        "order-over-budget", "fractional-table-entry", "fractional-action-entry",
        "fractional-modulus", "fractional-coordinate", "fractional-k", "boolean-coordinate",
        "classify-order-over-budget", "verify-srf-tol-inf", "spectrum-tol-nan",
        "classify-tol-inf", "trials-over-budget", "steps-over-budget",
        "trial-steps-over-budget"])
def test_invalid_input_exits_64_without_traceback(tmp_path, capsys, group, atom, extra):
    # atom: the fields of one atom at (0, 0), or a list of them
    data = group_to_data(negation_group(5))
    for part, fields in group.items():
        data[part].update(fields)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(data))
    mpath = tmp_path / "m.json"
    atoms = atom if isinstance(atom, list) else [atom]
    mpath.write_text(json.dumps({"atoms": [{"a": [0], "k": 0, **a} for a in atoms]}))
    code = main([extra[0], "--group", str(gpath), "--measure", str(mpath), *extra[1:]])
    err = capsys.readouterr().err
    assert code == 64
    assert "Traceback" not in err and err.startswith("error:")


@pytest.mark.parametrize("field", [{"k": 0.5}, {"a": [0.5]}], ids=["k", "a"])
def test_measure_field_error_is_prefixed_once(tmp_path, capsys, field):
    # the field's own message already names the file and the atom
    gpath = write_group(tmp_path / "g.json", negation_group(5))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"atoms": [{"a": [0], "k": 0, "re": 1.0, **field}]}))
    assert main(["spectrum", "--group", gpath, "--measure", str(mpath)]) == 64
    err = capsys.readouterr().err
    assert err.count("measure file:") == 1, err
    assert "is not an integer" in err and "malformed" not in err


def test_classify_n_max_budget(tmp_path, d5, capsys):
    # every dyadic point costs a row of the power chain and of the read-back
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    argv = ["classify", "--group", gpath, "--measure", mpath, "--n-max"]
    assert main(argv + [str(2 * MAX_CLASSIFY_N_MAX)]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: classify: --n-max")
    assert main(argv + [str(MAX_CLASSIFY_N_MAX)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["empirical_mixing"]["points"][-1][0] == MAX_CLASSIFY_N_MAX


def cyclic_k_data(order):
    """Z_order acting trivially on Z_1: |G| = |K|, under every |G| budget."""
    return {"abelian": {"modulus": 1, "rank": 1},
            "k": {"table": [[(i + j) % order for j in range(order)] for i in range(order)],
                  "action": [[[1]]] * order}}


def test_k_order_budget_holds_at_modulus_one(tmp_path, capsys):
    # the |G| check skips modulus 1, and the associativity check holds two
    # |K|^3 tables: a cyclic table one row over the cap exits 64 unbuilt
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(cyclic_k_data(MAX_K_ORDER + 1)))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"atoms": [{"a": [0], "k": 0, "re": 1.0}]}))
    assert main(["spectrum", "--group", str(gpath), "--measure", str(mpath)]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith(f"error: group file: |K| exceeds {MAX_K_ORDER}")
    assert parse_group_data(cyclic_k_data(MAX_K_ORDER)).size == MAX_K_ORDER


@pytest.mark.parametrize("order", [1, 2, 6, 12])
def test_structure_at_modulus_one_matches_breadth_first_oracle(tmp_path, capsys, order):
    # A = Z_1 has one element, so every unit translation is the identity
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(cyclic_k_data(order)))
    g = parse_group_data(cyclic_k_data(order))
    rng = np.random.default_rng(order)
    for _ in range(5):
        ks = rng.choice(order, min(order, int(rng.integers(1, 4))), replace=False)
        data = {"atoms": [{"a": [0], "k": int(k), "re": 1.0 / ks.size} for k in ks]}
        mu = parse_measure_data(g, data)
        expected = structure(mu)
        sa = strictly_aperiodic_check(mu)
        assert (sa.strictly_aperiodic, sa.closure_size) == expected[2:]
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(data))
        assert main(["classify", "--group", str(gpath), "--measure", str(mpath)]) in (0, 3)
        report = json.loads(capsys.readouterr().out)["report"]
        got = (report["adapted"]["adapted"], report["adapted"]["subgroup_size"],
               report["strictly_aperiodic"]["strictly_aperiodic"],
               report["strictly_aperiodic"]["closure_size"])
        assert got == expected, ks


def test_simulate_budgets_are_checked_before_the_group_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    per_step = MAX_SIM_TRIAL_STEPS // MAX_SIM_STEPS
    for sizes in (["--trials", str(MAX_SIM_TRIALS + 1)], ["--steps", str(MAX_SIM_STEPS + 1)],
                  ["--steps", str(MAX_SIM_STEPS), "--trials", str(per_step + 1)]):
        assert main(["simulate", "--group", missing, "--measure", missing, *sizes]) == 64
        assert capsys.readouterr().err.startswith("error: simulate: need --trials")
    # at the bounds the budget passes, and the missing file is what fails
    sizes = ["--steps", str(MAX_SIM_STEPS), "--trials", str(per_step)]
    assert main(["simulate", "--group", missing, "--measure", missing, *sizes]) == 64
    assert "absent.json" in capsys.readouterr().err


def test_simulate_block_stack_budget(tmp_path, capsys):
    # K = Z_128 acting trivially on Z_2048: every character is its own
    # orbit, so the exact powers' block stack has |G| |K| = 2^25 entries
    cyclic = [[(i + j) % 128 for j in range(128)] for i in range(128)]
    g = build_motion_group(2048, 1, cyclic, [[[1]]] * 128)
    assert len(g._representatives) * 128 ** 2 == 2 * MAX_BLOCK_ENTRIES
    gpath = write_group(tmp_path / "g.json", g)
    missing = str(tmp_path / "absent.json")
    assert main(["simulate", "--group", gpath, "--measure", missing, "--steps", "1",
                 "--trials", "1"]) == 64
    assert capsys.readouterr().err.startswith(
        f"error: simulate: {2 * MAX_BLOCK_ENTRIES} block entries exceed")
    # the largest free action holds about |G| entries and passes
    assert len(rotation_group(512)._representatives) * 16 < MAX_BLOCK_ENTRIES / 8


def test_non_probability_exits_65(tmp_path, d5, capsys):
    g, gpath = d5
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"atoms": [{"a": [1], "k": 0, "re": 0.7}]}))
    assert main(["classify", "--group", gpath, "--measure", str(sub)]) == 65
    assert main(["simulate", "--group", gpath, "--measure", str(sub)]) == 65
    capsys.readouterr()


def test_verify_srf_and_spectrum(tmp_path, d5, capsys):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    assert main(["verify-srf", "--group", gpath, "--measure", mpath]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] is True
    assert report["formula_gap"] <= 1e-6

    assert main(["spectrum", "--group", gpath, "--measure", mpath,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("block,spectral_radius")
    # uniform kills every nontrivial block
    assert "complement" in lines[-1]


def test_spectrum_accepts_signed_measure(tmp_path, d5, capsys):
    # spectrum and verify-srf work on any measure, not only probabilities
    g, gpath = d5
    w = np.zeros(g.size, dtype=complex)
    w[g.index(GElem((1,), 0))] = 1.0
    w[g.index(g.identity())] = -1.0
    mpath = write_measure(tmp_path / "signed.json", from_weights(g, w))
    assert main(["spectrum", "--group", gpath, "--measure", mpath]) == 0
    capsys.readouterr()


def test_simulate_deterministic(tmp_path, d5, capsys):
    g, gpath = d5
    w = np.zeros(g.size, dtype=complex)
    w[g.index(GElem((1,), 0))] = 0.5
    w[g.index(GElem((0,), 1))] = 0.5
    mpath = write_measure(tmp_path / "w.json", from_weights(g, w))
    args = ["simulate", "--group", gpath, "--measure", mpath,
            "--steps", "16", "--trials", "4000", "--format", "csv",
            "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(args[:-1] + ["12"]) == 0
    assert capsys.readouterr().out != first
    header, *rows = first.strip().splitlines()
    assert header == "n,tv_exact,tv_empirical"
    assert [int(r.split(",")[0]) for r in rows] == [1, 2, 4, 8, 16]


def test_simulate_rows_from_one_walk(tmp_path, d5, capsys):
    # the rows come from one 20-step walk, each equal to its own n-step run
    g, gpath = d5
    mu = 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))
    mpath = write_measure(tmp_path / "w.json", mu)
    assert main(["simulate", "--group", gpath, "--measure", mpath,
                 "--steps", "20", "--trials", "3000", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "tol" not in payload["config"]  # simulate takes no --tol
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [1, 2, 4, 8, 16, 20]
    for r in rows:
        emp = empirical_distributions(mu, [r["n"]], 3000, seed=5)[0]
        assert r["tv_empirical"] == f"{tv_to_uniform(emp):.12g}"


def test_simulate_out_is_the_same_bytes_at_any_worker_count(tmp_path, d5, monkeypatch):
    # the slices sum integer counts, so the rows do not depend on how many
    # threads walk them
    g, gpath = d5
    mu = 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))
    mpath = write_measure(tmp_path / "w.json", mu)
    trials = 2 * simulate.MIN_SLICE + 3
    outs = []
    for workers in (1, 2):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        assert len(simulate._slices(trials)) == workers + 1
        target = tmp_path / f"out{workers}.json"
        assert main(["simulate", "--group", gpath, "--measure", mpath, "--steps", "16",
                     "--trials", str(trials), "--seed", "9", "--out", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_has_no_tol_flag(tmp_path, d5, capsys):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--group", gpath, "--measure", mpath, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_simulate_exact_rows_match_exact_power(tmp_path, d5, capsys):
    # the exact rows come from one chain of squarings
    g, gpath = d5
    mu = 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))
    mpath = write_measure(tmp_path / "w.json", mu)
    assert main(["simulate", "--group", gpath, "--measure", mpath,
                 "--steps", "20", "--trials", "50"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["n"] for r in rows] == [1, 2, 4, 8, 16, 20]
    for r in rows:
        assert r["tv_exact"] == f"{tv_to_uniform(exact_powers(mu, [r['n']])[0]):.12g}"


def test_simulate_long_walk_exits_zero(tmp_path, capsys):
    # the roundoff of 16 squarings once pushed mu^(2^16) off the simplex,
    # and the exact row's TV check exited 65
    g = rotation_group(16)
    mu = 0.5 * delta(g, GElem((1, 0), 0)) + 0.5 * delta(g, GElem((0, 0), 1))
    gpath = write_group(tmp_path / "g.json", g)
    mpath = write_measure(tmp_path / "m.json", mu)
    assert main(["simulate", "--group", gpath, "--measure", mpath,
                 "--steps", "65536", "--trials", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[-1]["n"] == 65536


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--n-max"), ("spectrum", "--n-max"), ("verify-srf", "--n-max"),
    ("classify", "--seed"), ("spectrum", "--seed"), ("verify-srf", "--seed"),
])
def test_unread_flags_are_usage_errors(tmp_path, d5, capsys, command, flag):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", gpath, "--measure", mpath, flag, "64"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, settings", [
    ("classify", ["--n-max", "64"], {"tol": 1e-8, "n_max": 64, "format": "json",
                                     "cesaro_n_max": 512}),
    ("verify-srf", [], {"tol": 1e-6, "format": "json"}),
    ("spectrum", ["--tol", "1e-7"], {"tol": 1e-7, "format": "json"}),
    ("simulate", ["--steps", "4", "--trials", "50", "--seed", "3"],
     {"format": "json", "seed": 3}),
    ("classify", [], {"tol": 1e-8, "n_max": 1024, "format": "json", "cesaro_n_max": 512}),
])
def test_config_stamp_carries_what_the_command_reads(tmp_path, d5, capsys,
                                                     command, extra, settings):
    # the paths come first, then the settings in this order: the JSON text
    # is compared, since dicts compare equal in any order
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    assert main([command, "--group", gpath, "--measure", mpath, *extra]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert json.dumps(config) == json.dumps({"group_path": gpath, "measure_path": mpath,
                                             **settings})


def test_rosenblatt_subcommand(capsys):
    assert main(["rosenblatt", "--n-list", "8,64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == {"x": "-2", "y": "1"}
    assert [r["n"] for r in payload["rows"]] == [8, 64]
    direct = [float(r["direct"]) for r in payload["rows"]]
    closed = [float(r["closed_form"]) for r in payload["rows"]]
    assert direct == pytest.approx(closed, abs=1e-10)
    assert direct[0] > direct[1] > 0

    assert main(["rosenblatt", "--n-list", "2"]) == 64
    capsys.readouterr()
    # n is capped at MAX_DEFECT_N = 2^14 before any sweep starts
    for n in (16385, 10 ** 30):
        assert main(["rosenblatt", "--n-list", f"8,{n}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16384" in captured.err and "Traceback" not in captured.err


def test_verify_srf_tol_bounds_the_formula_gap_only(tmp_path, d5, capsys):
    # spectrum --tol is the one_in_spectrum margin; verify-srf --tol bounds
    # |Gelfand estimate - block radius| and its column keeps the fixed 1e-8
    g, gpath = d5
    mu = 0.4 * uniform(g) + 0.6 * delta(g, g.identity())
    mpath = write_measure(tmp_path / "m.json", mu)
    args = ["--group", gpath, "--measure", mpath, "--tol", "0.5"]
    reports = {}
    for command in ("spectrum", "verify-srf"):
        assert main([command, *args]) == 0
        reports[command] = json.loads(capsys.readouterr().out)["report"]
    for command, in_spectrum in (("spectrum", True), ("verify-srf", False)):
        report = reports[command]
        blocks = report["per_orbit"][1:] + [report["lambda0_complement"]]
        assert [b["margin"] for b in blocks] == pytest.approx([0.4] * len(blocks))
        assert all(b["one_in_spectrum"] is in_spectrum for b in blocks)
    assert reports["verify-srf"]["passed"] is True


def test_out_flag_writes_file(tmp_path, d5, capsys):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    target = tmp_path / "report.json"
    code = main(["spectrum", "--group", gpath, "--measure", mpath,
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["tool"] == "motionwalk"


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.sampled_from([10**6, 10**30, -(10**30), 1e400, -1e400]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _paths(node, prefix=()):
    """Every location inside a JSON tree, as key/index paths."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, draw):
    """Replace, delete or wrap in a list one location of a JSON tree."""
    paths = list(_paths(data))
    if not paths:
        return
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    how = draw(st.sampled_from(["replace", "delete", "wrap"]))
    if how == "delete":
        del parent[path[-1]]
    elif how == "wrap":
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = draw(_JUNK)


# (modulus, rank, |K|) at each budget of a group file and one over it
_BUDGET_EDGES = [
    (2, 20, 1), (2, 21, 1),                                # rank, |G| = 2^20 and 2^21
    (1, 20, 2), (1, 21, 2),                                # rank at modulus 1, where |G| = |K|
    (1, 1, MAX_K_ORDER), (1, 1, MAX_K_ORDER + 1),          # |K| at modulus 1
    (2, 13, MAX_K_ORDER), (2, 13, MAX_K_ORDER + 1),        # |K| with n^d |K| at the cap
    (MAX_GROUP_ORDER, 1, 1), (MAX_GROUP_ORDER + 1, 1, 1),  # n^d |K| at the cap and one over
]

# a rank-20 group at modulus 1: A is trivial, so |G| = |K| = 2
_MODULUS_ONE = build_motion_group(1, 20, [[0, 1], [1, 0]], [np.eye(20, dtype=int)] * 2)


def _budget_edge_group(n, d, nk, mult=1):
    """A group file with a cyclic K of order nk whose generator acts on
    (Z_n)^d as a -> mult a: trivially by default, and at rank 1 otherwise."""
    action = [[[pow(mult, j, n)]] for j in range(nk)] if mult > 1 \
        else [np.eye(d, dtype=int).tolist()] * nk
    return {"abelian": {"modulus": n, "rank": d},
            "k": {"table": [[(i + j) % nk for j in range(nk)] for i in range(nk)],
                  "action": action}}


def _over_budget(n, d, nk):
    """Whether a group file breaks a budget: |K|, the rank (the largest
    that modulus 2 admits under the |G| budget) or n^d |K|."""
    return nk > MAX_K_ORDER or d > MAX_GROUP_ORDER.bit_length() - 1 \
        or n ** d * nk > MAX_GROUP_ORDER


# (modulus, rank, |K|) at classify's Gram budget and just over it: with K
# acting trivially every character is its own orbit, so the tensor holds
# n^d |K|^3 entries; Z_32 on Z_128 is at the bound, and Z_33 on Z_117 is
# the least cyclic K acting trivially on Z_n over it that |G| <= 4096 admits
_GRAM_EDGES = [(128, 1, 32), (117, 1, 33)]


def _over_gram(n, d, nk):
    return n ** d * nk ** 3 > MAX_CLASSIFY_GRAM_ENTRIES


# (modulus, rank, |K|[, multiplier]) at the block budget of spectrum,
# verify-srf and simulate: Z_128 acting trivially on Z_1024 puts both the
# block stack, orbits * |K|^2 entries, and verify-srf's gather, |G| |K|, at
# the bound, and on Z_2048 both are over. On Z_2287 x| Z_127, K acting by
# 1426 = 2^18 mod 2287 (order 127), the 19 orbits' stack is far under it
# and the gather over
_BLOCK_EDGES = [(1024, 1, 128), (2048, 1, 128), (2287, 1, 127, 1426)]


@functools.lru_cache(maxsize=None)
def _edge_arrays(edge):
    """|G| and the entries of classify's Gram tensor, of the block stack and
    of verify-srf's gather, on the group of an edge."""
    data = _budget_edge_group(*edge)
    g = build_motion_group(*edge[:2], data["k"]["table"], data["k"]["action"])
    orbits, nk = len(g._representatives), g.k.order
    return g.size, orbits * nk ** 3, orbits * nk ** 2, g.size * nk


def test_block_edges_sit_where_their_comment_says():
    # |A| orbits under the trivial action, 1 + 2286 / 127 = 19 under 1426
    assert MAX_BLOCK_ENTRIES == 1024 * 128 ** 2
    assert [_edge_arrays(edge)[2:] for edge in _BLOCK_EDGES] == [
        (1024 * 128 ** 2, 1024 * 128 ** 2), (2048 * 128 ** 2, 2048 * 128 ** 2),
        (19 * 127 ** 2, 2287 * 127 ** 2)]


@pytest.mark.parametrize("edge", _BLOCK_EDGES, ids=["at-bound", "blocks-over", "gather-over"])
@pytest.mark.parametrize("command", ["spectrum", "verify-srf"])
def test_block_budgets_are_checked_before_the_measure_file(tmp_path, capsys, command, edge):
    # spectrum's block stack holds orbits * |K|^2 complex entries and
    # verify-srf's Gelfand gather |G| |K|; both are bounded as simulate's is
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(_budget_edge_group(*edge)))
    missing = str(tmp_path / "absent.json")
    assert main([command, "--group", str(gpath), "--measure", missing]) == 64
    err = capsys.readouterr().err
    _, _, blocks, gather = _edge_arrays(edge)
    entries, what = (blocks, "block") if command == "spectrum" else (gather, "gather")
    if entries > MAX_BLOCK_ENTRIES:
        assert err == f"error: {command}: {entries} {what} entries exceed {MAX_BLOCK_ENTRIES}\n"
    else:
        # at the bound the budget passes, and the missing file is what fails
        assert "absent.json" in err


@pytest.mark.parametrize("edge", _GRAM_EDGES)
def test_classify_gram_budget_is_checked_before_the_measure_file(tmp_path, capsys, edge):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(_budget_edge_group(*edge)))
    missing = str(tmp_path / "absent.json")
    assert main(["classify", "--group", str(gpath), "--measure", missing]) == 64
    err = capsys.readouterr().err
    n, d, nk = edge
    if _over_gram(*edge):
        assert err == (f"error: classify: {n ** d * nk ** 3} Gram entries exceed "
                       f"{MAX_CLASSIFY_GRAM_ENTRIES}\n")
    else:
        # at the bound the budget passes, and the missing file is what fails
        assert n ** d * nk ** 3 == MAX_CLASSIFY_GRAM_ENTRIES and "absent.json" in err


def test_classify_gram_budget_admits_the_suite_and_the_fuzz_groups():
    # and the free action at classify's |G| cap, about |G| |K| entries
    for g in [*roster().values(), *_FUZZ_GROUPS, rotation_group(32)]:
        assert len(g._representatives) * g.k.order ** 3 <= MAX_CLASSIFY_GRAM_ENTRIES


@pytest.mark.parametrize("edge", _BUDGET_EDGES)
def test_group_budgets_are_checked_before_the_build(monkeypatch, edge):
    # the fuzz below draws these edges among others; here every one is run
    built = []
    monkeypatch.setattr(cli, "build_motion_group", lambda *args: built.append(args))
    if _over_budget(*edge):
        with pytest.raises(ParseError):
            parse_group_data(_budget_edge_group(*edge))
        assert built == []
    else:
        parse_group_data(_budget_edge_group(*edge))
        assert [args[:2] for args in built] == [edge[:2]]


_FUZZ_GROUPS = [negation_group(3), swap_group(2), _MODULUS_ONE]

_FUZZ_COMMANDS = [["classify", "--n-max", "16"], ["verify-srf"], ["spectrum"],
                  ["simulate", "--steps", "4", "--trials", "20"]]


def _fuzz_files(g):
    """The group file of g and a measure file of half a unit translation,
    half the bare first element of K, as JSON trees."""
    w = np.zeros(g.size, dtype=complex)
    w[g.index(GElem((1,) * g.abelian.rank, 0))] = 0.5
    w[g.index(GElem((0,) * g.abelian.rank, 1))] = 0.5
    return group_to_data(g), measure_to_data(from_weights(g, w))


def _run(tmp_path, group, measure, command):
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    gpath.write_text(json.dumps(group))
    mpath.write_text(json.dumps(measure))
    return main([command[0], "--group", str(gpath), "--measure", str(mpath), *command[1:]])


@pytest.mark.parametrize("command", _FUZZ_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("g", _FUZZ_GROUPS, ids=["neg3", "swap2", "modulus1"])
def test_fuzz_files_unmutated_reach_a_verdict(tmp_path, capsys, g, command):
    # the fuzz below starts from these files: unmutated, every command runs
    # to a verdict and writes nothing to stderr
    code = _run(tmp_path, *_fuzz_files(g), command)
    assert code in {0, 2, 3}
    assert capsys.readouterr().err == ""


def _stub_past_the_budgets(patch, edge):
    """Stub what a group file at a budget's edge reaches once every budget
    admits it: build_motion_group at a group budget, load_measure at
    classify's Gram budget and at the block budget. The stub records its
    call and exits 64, so nothing past a budget is built; the record is
    returned."""
    built = []

    def admitted(*args):
        built.append(args)
        raise ParseError("the budgets admitted the group file")

    patch.setattr(cli, "build_motion_group" if edge in _BUDGET_EDGES else "load_measure", admitted)
    return built


def _over_any_budget(edge, command):
    if edge in _BUDGET_EDGES:
        return _over_budget(*edge)
    size, gram, blocks, gather = _edge_arrays(edge)
    return {"classify": size > MAX_CLASSIFY_ORDER or gram > MAX_CLASSIFY_GRAM_ENTRIES,
            "verify-srf": gather > MAX_BLOCK_ENTRIES}.get(command[0], blocks > MAX_BLOCK_ENTRIES)


@pytest.mark.parametrize("command", _FUZZ_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("edge", _BUDGET_EDGES + _GRAM_EDGES + _BLOCK_EDGES,
                         ids=lambda e: "n{}_d{}_k{}".format(*e))
def test_every_command_at_every_budget_edge(tmp_path, capsys, monkeypatch, edge, command):
    # every (edge, command) pair the fuzz below may draw: over a budget
    # main exits 64 before the stub, at the bound the stub admits the file
    built = _stub_past_the_budgets(monkeypatch, edge)
    code = _run(tmp_path, _budget_edge_group(*edge), _fuzz_files(_FUZZ_GROUPS[0])[1], command)
    err = capsys.readouterr().err
    assert code == 64
    if _over_any_budget(edge, command):
        assert built == [] and "admitted" not in err, err
    else:
        assert len(built) == 1 and err == "error: the budgets admitted the group file\n", err


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch, data):
    group, measure = _fuzz_files(data.draw(st.sampled_from(_FUZZ_GROUPS)))
    # a file at a budget's edge replaces the group file; it is not mutated,
    # and it never reaches build_motion_group, so no 2^20-element group is
    # built. A file at the Gram or the block budget's edge is built
    # (|G| <= 2^18), and never reaches load_measure, so no Gram tensor,
    # block stack or gather is
    edge = data.draw(st.none() | st.sampled_from(_BUDGET_EDGES + _GRAM_EDGES + _BLOCK_EDGES))
    if edge is not None:
        group = _budget_edge_group(*edge)
    mutations = data.draw(st.integers(0, 3))
    for _ in range(mutations):
        _mutate(data.draw(st.sampled_from([measure] if edge else [group, measure])), data.draw)
    command = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    seed = data.draw(st.none() | st.sampled_from(SEED_EDGES)) if command[0] == "simulate" \
        else None
    if seed is not None:
        command = command + [f"--seed={seed}"]
    built = []
    with monkeypatch.context() as patch:
        if edge is not None:
            built = _stub_past_the_budgets(patch, edge)
        code = _run(tmp_path, group, measure, command)
    err = capsys.readouterr().err
    assert code in {0, 2, 3, 64, 65}
    assert "Traceback" not in err
    if seed is not None and not 0 <= seed < 2 ** 128:
        # the seed is checked before either file is read
        assert code == 64 and err.startswith("error: seed must be"), err
    elif edge is not None:
        # an over-budget file exits 64 before build_motion_group runs, and a
        # group over classify's Gram budget or a block budget before the
        # measure file is read
        assert code == 64
        assert bool(built) is not _over_any_budget(edge, command), (edge, err)
    elif mutations == 0:
        assert code in {0, 2, 3} and err == "", err
