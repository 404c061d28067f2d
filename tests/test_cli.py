"""Round-trip serialization and exit-code contract for the command line."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionwalk import GElem, delta, negation_group, scaling_group, swap_group, uniform
from motionwalk.cli import (
    RunConfig,
    group_to_data,
    main,
    measure_to_data,
    parse_group_data,
    parse_measure_data,
)
from motionwalk.errors import ParseError
from motionwalk.measures import from_weights
from motionwalk.simulate import empirical_distribution, exact_power, tv_to_uniform


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


def test_run_config_validation():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ParseError):
            RunConfig("g", "m", tol=tol)
    with pytest.raises(ParseError):
        RunConfig("g", "m", n_max=100)
    cfg = RunConfig("g", "m")
    assert cfg.to_dict()["n_max"] == 1024


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
], ids=["modulus-0", "nan-weight", "overflow-weight", "zero-trials", "zero-steps",
        "order-over-budget", "fractional-table-entry", "fractional-action-entry",
        "fractional-modulus", "fractional-coordinate", "fractional-k", "boolean-coordinate",
        "classify-order-over-budget", "verify-srf-tol-inf", "spectrum-tol-nan",
        "classify-tol-inf"])
def test_invalid_input_exits_64_without_traceback(tmp_path, capsys, group, atom, extra):
    data = group_to_data(negation_group(5))
    for part, fields in group.items():
        data[part].update(fields)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(data))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"atoms": [{"a": [0], "k": 0, **atom}]}))
    code = main([extra[0], "--group", str(gpath), "--measure", str(mpath), *extra[1:]])
    err = capsys.readouterr().err
    assert code == 64
    assert "Traceback" not in err and err.startswith("error:")


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
        emp = empirical_distribution(g, mu, r["n"], 3000, seed=5)
        assert r["tv_empirical"] == f"{tv_to_uniform(emp):.12g}"


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
        assert r["tv_exact"] == f"{tv_to_uniform(exact_power(mu, r['n'])):.12g}"


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
    ("classify", ["--n-max", "64"], {"tol": 1e-8, "n_max": 64,
                                     "cesaro_n_max": 512, "weak_mixing_seed": 7}),
    ("verify-srf", [], {"tol": 1e-6}),
    ("spectrum", ["--tol", "1e-7"], {"tol": 1e-7}),
    ("simulate", ["--steps", "4", "--trials", "50", "--seed", "3"], {"seed": 3}),
])
def test_config_stamp_carries_what_the_command_reads(tmp_path, d5, capsys,
                                                     command, extra, settings):
    g, gpath = d5
    mpath = write_measure(tmp_path / "u.json", uniform(g))
    assert main([command, "--group", gpath, "--measure", mpath, *extra]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"group_path": gpath, "measure_path": mpath, "format": "json",
                      **settings}


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


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, data):
    g = data.draw(st.sampled_from([negation_group(3), swap_group(2)]))
    group = group_to_data(g)
    w = np.zeros(g.size, dtype=complex)
    w[g.index(GElem((1,) * g.abelian.rank, 0))] = 0.5
    w[g.index(GElem((0,) * g.abelian.rank, 1))] = 0.5
    measure = measure_to_data(from_weights(g, w))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw(st.sampled_from([group, measure])), data.draw)
    gpath, mpath = tmp_path / "g.json", tmp_path / "m.json"
    gpath.write_text(json.dumps(group))
    mpath.write_text(json.dumps(measure))
    command = data.draw(st.sampled_from([
        ["classify", "--n-max", "16"], ["verify-srf"], ["spectrum"],
        ["simulate", "--steps", "4", "--trials", "20"]]))
    code = main([command[0], "--group", str(gpath), "--measure", str(mpath), *command[1:]])
    err = capsys.readouterr().err
    assert code in {0, 2, 3, 64, 65}
    assert "Traceback" not in err
