"""Sampler determinism, exactness checks, and concentration envelopes."""
import tracemalloc

import numpy as np
import pytest

from motionwalk.errors import NotProbability
from motionwalk import simulate
from motionwalk.groups import GElem, multiply
from motionwalk.cli import MAX_SIM_STEPS
from motionwalk.measures import delta, from_weights, is_probability, tv_norm, uniform
from motionwalk.simulate import (
    GUIDE_SIZE,
    _atoms,
    _guide_table,
    _lookup,
    _walk,
    empirical_distributions,
    exact_powers,
    sample_path,
    tv_to_uniform,
)
from motionwalk.spectral import verify_srf
from motionwalk.suite import acceptance_suite, fast_mixer

from conftest import d4_group, negation_group, rotation_group
from oracles import convolve, convolve_powers


def two_atom_walk(g):
    return 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))


def _element_cdf(mu):
    """The inverse-CDF table over every element of the group, the
    definition of a draw: element searchsorted(cdf, u, side="right") for a
    uniform u in [0, 1). Clipped at 0 and sealed at 1 from the last atom
    on, so an element of weight 0 is never drawn."""
    w = np.clip(np.real(mu.weights), 0.0, None)
    cdf = np.cumsum(w)
    cdf[np.flatnonzero(w)[-1]:] = 1.0
    return cdf


def test_point_mass_paths_are_powers(order10):
    x = GElem((1,), 1)
    mu = delta(order10, x)
    final = sample_path(mu, 5, 64, 9)
    acc = order10.identity()
    for _ in range(5):
        acc = multiply(order10, acc, x)
    assert np.all(final == order10.index(acc))


def test_fixed_seed_is_bit_identical(order10):
    mu = two_atom_walk(order10)
    a = empirical_distributions(mu, [16], 2000, seed=42)[0]
    b = empirical_distributions(mu, [16], 2000, seed=42)[0]
    assert np.array_equal(a.weights, b.weights)
    c = empirical_distributions(mu, [16], 2000, seed=43)[0]
    assert not np.array_equal(a.weights, c.weights)


def test_single_trial_is_point_mass(order10):
    mu = two_atom_walk(order10)
    d = empirical_distributions(mu, [8], trials=1, seed=1)[0]
    assert np.isclose(d.weights.sum().real, 1.0)
    assert (np.abs(d.weights) > 0).sum() == 1


def test_uniform_one_step_within_multinomial_bands(order16):
    trials = 40000
    d = empirical_distributions(uniform(order16), [1], trials, seed=7)[0]
    p = 1.0 / order16.size
    sigma = np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(d.weights.real - p) < 3.5 * sigma)


def test_empirical_matches_exact_within_envelope(order10, order21):
    trials = 20000
    for g, mu, n in [
        (order10, two_atom_walk(order10), 16),
        (order10, uniform(order10), 4),
        (order21, fast_mixer(order21, 0.3, delta(order21, GElem((1,), 1))), 8),
    ]:
        emp = empirical_distributions(mu, [n], trials, seed=11)[0]
        ex = exact_powers(mu, [n])[0]
        gap = 0.5 * tv_norm(emp - ex)
        assert gap <= 4.0 * np.sqrt(g.size / trials)


def test_walk_reaches_uniform_when_radii_contract(order10):
    # spectral radii 0.309/0.809: 64 steps sit deep in the tail
    mu = two_atom_walk(order10)
    emp = empirical_distributions(mu, [64], 100000, seed=3)[0]
    assert tv_to_uniform(emp) < 0.05


def test_exact_power_basics(order10):
    mu = two_atom_walk(order10)
    p0 = exact_powers(mu, [0])[0]
    assert np.isclose(p0.weights[order10.index(order10.identity())], 1.0)
    p3 = exact_powers(mu, [3])[0]
    ref = convolve(convolve(mu, mu), mu)
    assert np.allclose(p3.weights, ref.weights, atol=1e-15)


def test_exact_power_and_verify_srf_build_no_mult_table(no_mult_table):
    # convolution runs on the FFT and the dual table, never on |G| x |G|
    g = negation_group(6)
    mu = two_atom_walk(g)
    exact_powers(mu, [5])
    verify_srf(mu)


def _oracle_walk(g, mu, steps, trials, seed):
    """Positions after 0..steps steps, from the whole steps x trials block
    of uniforms drawn at once."""
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random((steps, trials))
    increments = np.searchsorted(_element_cdf(mu), u, side="right")
    table = g.mult_table()
    x = np.zeros(trials, dtype=np.int64)
    out = [x]
    for step in range(steps):
        x = table[x, increments[step]]
        out.append(x)
    return out


def _oracle_weights(g, kind):
    rng = np.random.default_rng(4)
    w = np.zeros(g.size)
    if kind == "dense":
        w[:] = rng.random(g.size)
    elif kind == "sparse":
        w[rng.choice(g.size, size=3, replace=False)] = rng.random(3) + 0.1
    elif kind == "zero-width":
        # 1e-20 right after an atom of 0.5 leaves the CDF flat there
        w[[1, 2, g.size - 3]] = [0.5, 1e-20, 0.5]
    elif kind == "crowded":
        # every element but the last has weight 1e-9: all their CDF
        # boundaries fall inside the first bucket of the guide table
        w[:-1] = 1e-9
        w[-1] = 1.0 - w[:-1].sum()
    else:
        # total 1 + 9e-13: the CDF exceeds 1 before it is sealed
        w[[2, 5]] = [1.0 + 5e-13, 4e-13]
    return w / w.sum() if kind in ("dense", "sparse") else w


def _assert_walk_matches(g, mu, ns, trials, seed, ref):
    counts, final = _walk(mu, ns, trials, seed)
    assert sorted(counts) == sorted(set(ns))
    for n in ns:
        assert counts[n].dtype.kind == "i"
        assert np.array_equal(counts[n], np.bincount(ref[n], minlength=g.size))
    assert np.array_equal(final, ref[max(ns)])


@pytest.mark.parametrize("group", ["order10", "order18", "rotation4"])
@pytest.mark.parametrize("kind", ["dense", "sparse", "zero-width", "above-one", "crowded"])
def test_streamed_walk_matches_block_oracle(request, monkeypatch, group, kind):
    # at 2 and 3 workers, 501 trials in slices of 250 or 167: before each
    # step a slice's seek skips the 250 to 334 words the others draw
    monkeypatch.setattr(simulate, "MIN_SLICE", 1)
    g = rotation_group(4) if group == "rotation4" else request.getfixturevalue(group)
    mu = from_weights(g, _oracle_weights(g, kind))
    steps, trials, seed = 12, 501, 17
    ref = _oracle_walk(g, mu, steps, trials, seed)
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        assert np.array_equal(sample_path(mu, steps, trials, seed), ref[steps])
        _assert_walk_matches(g, mu, [0, 1, 3, 7, 12], trials, seed, ref)


@pytest.mark.parametrize("block, trials", [
    (64, 500), (64, 64), (simulate.TRIAL_BLOCK, simulate.TRIAL_BLOCK + 5),
    (64, 403),  # slices of 201 or 134: seeks of odd and even lengths
    (64, 150),  # below twice the floor: one slice at every worker count
])
def test_walk_in_trial_blocks_matches_block_oracle(order10, monkeypatch, block, trials):
    # whole blocks, a last partial block, and one block exactly: the blocks
    # of a slice read the slice's uniforms of a step in stream order; at
    # 0 steps only X_0 is counted and no uniform is drawn
    monkeypatch.setattr(simulate, "TRIAL_BLOCK", block)
    monkeypatch.setattr(simulate, "MIN_SLICE", 100)
    mu = from_weights(order10, _oracle_weights(order10, "dense"))
    ref = _oracle_walk(order10, mu, 3, trials, 23)
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        _assert_walk_matches(order10, mu, [1, 3], trials, 23, ref)
        _assert_walk_matches(order10, mu, [0], trials, 23, ref)


def test_slices_are_equal_and_contiguous(monkeypatch):
    # one slice per worker, none below MIN_SLICE trials, at least one
    monkeypatch.setattr(simulate, "WORKERS", 3)
    monkeypatch.setattr(simulate, "MIN_SLICE", 100)
    assert simulate._slices(1) == [0, 1]
    assert simulate._slices(199) == [0, 199]
    assert simulate._slices(200) == [0, 100, 200]
    assert simulate._slices(403) == [0, 134, 268, 403]
    assert simulate._slices(10 ** 6) == [0, 333333, 666666, 10 ** 6]


def test_walk_builds_no_mult_table(no_mult_table):
    # the walk steps through right products by the atoms only
    g = negation_group(6)
    mu = two_atom_walk(g)
    empirical_distributions(mu, [3, 8], 200, seed=1)
    sample_path(mu, 5, 200, 1)


def test_walk_on_large_group_builds_no_mult_table(no_mult_table):
    # |G| = 65536, where the dense table would take 16 GiB; the first trials
    # are replayed element by element from the same uniforms
    g = rotation_group(128)
    atoms = [g.index(g.identity()), g.index(GElem((1, 0), 0)), g.index(GElem((0, 0), 1)),
             g.index(GElem((5, 90), 3)), g.index(GElem((127, 2), 2))]
    w = np.zeros(g.size)
    w[atoms] = [0.5, 0.2, 0.1, 0.1, 0.1]
    mu = from_weights(g, w)
    steps, trials, seed = 16, 1000, 2
    final = sample_path(mu, steps, trials, seed)
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random((steps, trials))
    increments = np.searchsorted(_element_cdf(mu), u, side="right")
    for t in range(20):
        x = g.identity()
        for step in range(steps):
            x = multiply(g, x, g.element(int(increments[step, t])))
        assert final[t] == g.index(x)


def test_exact_powers_square_one_chain(order18, monkeypatch):
    # one block stack and one chain of squarings up to the top bit of
    # max(ns) per call, one read-back per distinct n > 0; every power
    # equals its own one-entry call bit for bit
    mu = fast_mixer(order18, 0.4, delta(order18, GElem((1, 0), 1)))
    calls = {}

    def counted(name, f):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)
        return call

    def chain(p, n_max):
        calls["_dyadic_powers"] = calls.get("_dyadic_powers", 0) + 1
        for square in dyadic_powers(p, n_max):
            calls["squares"] = calls.get("squares", 0) + 1
            yield square

    dyadic_powers = simulate._dyadic_powers
    monkeypatch.setattr(simulate, "_dyadic_powers", chain)
    for name in ("_blocks", "_measure_of_blocks"):
        monkeypatch.setattr(simulate, name, counted(name, getattr(simulate, name)))
    for ns, squares, reads in (([1, 2, 4, 8, 16, 32, 64, 128], 8, 8),
                               ([1, 2, 4, 8, 16, 20, 0, 3, 3], 5, 7)):
        calls.clear()
        powers = exact_powers(mu, ns)
        assert calls == {"_blocks": 1, "_dyadic_powers": 1, "squares": squares,
                         "_measure_of_blocks": reads}
        for n, power in zip(ns, powers):
            assert np.array_equal(power.weights, exact_powers(mu, [n])[0].weights)
    # mu^1 is mu read back from its blocks: equal to roundoff, not bit for bit
    assert np.abs(powers[0].weights - mu.weights).max() <= 1e-15
    assert np.array_equal(powers[6].weights, delta(order18, order18.identity()).weights)
    for bad in ([], [2, -1]):
        with pytest.raises(ValueError):
            exact_powers(mu, bad)


def test_exact_powers_hold_a_few_stacks():
    # the chain is read as it is made: besides the powers it returns, a
    # call up to MAX_SIM_STEPS holds a few block stacks, not one per square
    g = rotation_group(32)
    mu = 0.5 * delta(g, GElem((0, 0), 0)) + 0.5 * delta(g, GElem((1, 0), 1))
    ns = [1 << k for k in range(MAX_SIM_STEPS.bit_length())]
    stack = simulate._blocks(g, mu.weights.real).nbytes
    tracemalloc.start()
    try:
        powers = exact_powers(mu, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(power.weights.nbytes for power in powers)
    assert peak - held <= 6 * stack


@pytest.mark.parametrize("make", [lambda: negation_group(5), lambda: d4_group(3),
                                  lambda: rotation_group(16)],
                         ids=["order10", "d4_3", "rotation16"])
def test_exact_powers_equal_a_convolve_chain(make):
    # the block chain against the convolve chain of the weights, a route
    # that never reads the blocks
    g = make()
    w = np.random.default_rng(8).random(g.size) ** 8
    mu = from_weights(g, w / w.sum())
    ns = [0, 1, 3, 8, 20, 64, 255]
    for power, ref in zip(exact_powers(mu, ns), convolve_powers(mu, ns)):
        assert np.abs(power.weights - ref.weights).max() <= 1e-12


def test_exact_powers_match_the_convolve_chain_on_the_suite():
    # every acceptance case; the largest difference was 2.3e-14
    ns = [0, 1, 2, 3, 8, 13, 64, 128]
    for case in acceptance_suite():
        powers = exact_powers(case.measure, ns)
        for n, power, ref in zip(ns, powers, convolve_powers(case.measure, ns)):
            assert np.abs(power.weights - ref.weights).max() <= 1e-12, (case.name, n)
            assert is_probability(power, tol=1e-14)


@pytest.mark.parametrize("a, b, ns", [
    # a translation and a rotation: the mass drifted to -1.8e-12 at 2^16
    # on the convolve chain
    (GElem((1, 0), 0), GElem((0, 0), 1), [2 ** 13, 2 ** 16, MAX_SIM_STEPS]),
    # a lazy screw motion: the imaginary part drifted to 1.9e-12 at 2^19
    # on the convolve chain; the two chains differed by 5.1e-12 at 2^20
    (GElem((0, 0), 0), GElem((1, 0), 1), [2 ** 16, 2 ** 19, MAX_SIM_STEPS]),
])
def test_exact_powers_stay_probabilities(a, b, ns):
    g = rotation_group(16)
    mu = 0.5 * delta(g, a) + 0.5 * delta(g, b)
    for power, ref in zip(exact_powers(mu, ns), convolve_powers(mu, ns)):
        # unit mass to roundoff, far inside PROBABILITY_TOL at every n
        assert is_probability(power, tol=1e-14)
        assert 0.0 <= tv_to_uniform(power) < 1.0
        assert np.abs(power.weights - ref.weights).max() <= 1e-10


def test_empirical_distributions_rows_are_prefixes(order18):
    # step s always reads uniforms [s*T, (s+1)*T), so each row of one walk
    # equals its own n-step walk bit for bit
    mu = fast_mixer(order18, 0.4, delta(order18, GElem((1, 0), 1)))
    ns = [16, 1, 5, 2, 5, 0]
    rows = empirical_distributions(mu, ns, 3000, seed=8)
    assert len(rows) == len(ns)
    for n, row in zip(ns, rows):
        assert np.array_equal(row.weights, empirical_distributions(mu, [n], 3000, seed=8)[0].weights)
    with pytest.raises(ValueError):
        empirical_distributions(mu, [3, -1], 10, seed=0)
    with pytest.raises(ValueError):
        empirical_distributions(mu, [], 10, seed=0)


def test_inverse_cdf_draws_last_atom_at_the_top(order10):
    # mass 1 - 1e-13 whose last atom is not the last element: a uniform
    # just below 1 must draw the last atom, not an element of weight 0
    w = np.zeros(order10.size)
    last_atom = order10.size - 3
    w[[1, 4, last_atom]] = [0.25, 0.25, 0.5 - 1e-13]
    w[6] = -5e-13  # allowed roundoff below 0
    mu = from_weights(order10, w)
    atoms, cdf = _atoms(mu)
    assert np.all(np.diff(cdf) >= 0)
    u = np.array([0.0, 0.3, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)])
    drawn = atoms[np.searchsorted(cdf, u, side="right")]
    assert drawn.tolist() == [1, 4, 4, last_atom, last_atom]
    assert np.array_equal(drawn, np.searchsorted(_element_cdf(mu), u, side="right"))
    # mass 1 + 9e-13: the entry above 1 before the seal still draws atoms
    w = np.zeros(order10.size)
    w[[2, 5]] = [1.0 + 5e-13, 4e-13]
    atoms, cdf = _atoms(from_weights(order10, w))
    drawn = atoms[np.searchsorted(cdf, u, side="right")]
    assert drawn.tolist() == [2] * len(u)


def _uniforms(words):
    """Generator.random's uniforms of 64-bit words."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _lookup_oracle(cdf, words):
    scaled, guide = _guide_table(cdf)
    got = _lookup(scaled, guide, words.copy(), np.empty(len(words), dtype=np.uint64),
                  np.empty(len(words), dtype=np.intp))
    assert np.array_equal(got, np.searchsorted(cdf, _uniforms(words), side="right"))
    return guide


def _words(m):
    """The words whose uniform is m 2^-53, with the 11 low bits clear and set."""
    m = np.asarray(m, dtype=np.uint64) << np.uint64(11)
    return np.concatenate([m, m | np.uint64(0x7FF)])


def test_guide_lookup_matches_search():
    # uniforms on and just below every bucket edge, and the top of [0, 1),
    # each with the 11 low bits of its word clear and set; the largest
    # word; and a stretch of a PCG64DXSM stream
    edges = np.arange(GUIDE_SIZE, dtype=np.uint64) << np.uint64(41)
    words = np.concatenate([_words(np.concatenate([edges, edges[1:] - 1, [2 ** 53 - 1]])),
                            np.array([2 ** 64 - 1], dtype=np.uint64),
                            np.random.PCG64DXSM(5).random_raw(5000)])
    # boundaries exactly on bucket edges: no bucket is cut
    assert (_lookup_oracle(np.array([0.25, 0.5, 1.0]), words) >= 0).all()
    # 1000 boundaries 1e-9 apart, all inside bucket 0, and one in bucket 3;
    # the uniforms just below and at or above each of them
    crowded = np.append(np.arange(1, 1001) * 1e-9, [3.5 / GUIDE_SIZE, 1.0])
    above = np.ceil(crowded[:-1] * 2.0 ** 53)
    guide = _lookup_oracle(crowded, np.concatenate([words, _words(above), _words(above - 1)]))
    assert np.flatnonzero(guide < 0).tolist() == [0, 3]
    # the walk's own tables: flat steps, and a total above 1 before the seal
    g = rotation_group(4)
    for kind in ("dense", "sparse", "zero-width", "above-one", "crowded"):
        _lookup_oracle(_atoms(from_weights(g, _oracle_weights(g, kind)))[1], words)


def test_pcg64dxsm_words_form_the_generator_uniforms():
    # the walk reads raw words where Generator.random would form uniforms:
    # a stream read whole, and reads of 501 words after one advance from
    # the words already drawn, as a slice's seek makes them: at offsets
    # that are not multiples of 4, and across stream position TRIAL_BLOCK
    seed, block = 0x5EED, simulate.TRIAL_BLOCK
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random(block + 4000)
    assert np.array_equal(_uniforms(np.random.PCG64DXSM(seed).random_raw(block + 4000)), u)
    bits, drawn = np.random.PCG64DXSM(seed), 0
    for at in (0, 1, 507, 1999, block - 250, block + 3001):
        bits.advance(at - drawn)
        assert np.array_equal(_uniforms(bits.random_raw(501)), u[at:at + 501]), at
        drawn = at + 501


def test_tv_to_uniform_values(order10):
    assert tv_to_uniform(uniform(order10)) == 0.0
    point = delta(order10, order10.identity())
    assert tv_to_uniform(point) == pytest.approx(1.0 - 1.0 / order10.size)


def test_probability_is_enforced(order10):
    bad = from_weights(order10, np.full(order10.size, 0.3))
    with pytest.raises(NotProbability):
        sample_path(bad, 4, 10, 0)
    with pytest.raises(NotProbability):
        tv_to_uniform(bad)
    with pytest.raises(NotProbability):
        exact_powers(bad, [2])


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, False, np.True_, "3", -1, 2 ** 128])
def test_walk_rejects_a_non_128_bit_seed(order10, monkeypatch, seed):
    # a bool would walk as seed 0 or 1; every bad seed is refused before
    # the product table is built
    monkeypatch.setattr(simulate, "products", lambda *args: pytest.fail("table built"))
    mu = two_atom_walk(order10)
    with pytest.raises(ValueError, match="seed"):
        sample_path(mu, 4, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        empirical_distributions(mu, [1, 2], 10, seed)


@pytest.mark.parametrize("ns", [[np.int64(3)], np.arange(1, 9), [np.uint8(5), 0, 2]])
def test_exact_powers_take_numpy_integers(order10, ns):
    # the ns empirical_distributions takes, with the powers of the same ints
    mu = two_atom_walk(order10)
    got, want = exact_powers(mu, ns), exact_powers(mu, [int(n) for n in ns])
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(got, want, strict=True))
    empirical_distributions(mu, ns, 10, seed=1)


@pytest.mark.parametrize("trials", [np.int64(3), np.uint64(3), np.int32(40000)])
def test_walk_takes_numpy_integer_trials(order10, trials):
    # numpy trials once made the stream positions numpy scalars, which
    # PCG64DXSM.advance refused; the walk is the one of the same int
    mu = two_atom_walk(order10)
    want = empirical_distributions(mu, [0, 5], int(trials), seed=4)
    got = empirical_distributions(mu, [np.int64(0), 5], trials, seed=4)
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(got, want, strict=True))
    assert np.array_equal(sample_path(mu, np.int64(5), trials, 4), sample_path(mu, 5, int(trials), 4))


@pytest.mark.parametrize("ns", [[1.5], [2, 3.0], [np.float64(4)], ["2"]])
def test_steps_are_checked_as_integers_before_any_table(order10, monkeypatch, ns):
    # a float step once built the product table and only then failed in range
    monkeypatch.setattr(simulate, "products", lambda *args: pytest.fail("table built"))
    monkeypatch.setattr(simulate, "_blocks", lambda *args: pytest.fail("blocks built"))
    mu = two_atom_walk(order10)
    with pytest.raises(TypeError):
        empirical_distributions(mu, ns, 10, seed=1)
    with pytest.raises(TypeError):
        sample_path(mu, ns[-1], 10, 1)
    with pytest.raises(TypeError):
        exact_powers(mu, ns)


def test_walk_config_validation(order10, monkeypatch):
    # trials and steps are refused before the product table is built
    monkeypatch.setattr(simulate, "products", lambda *args: pytest.fail("table built"))
    mu = two_atom_walk(order10)
    for walk in (lambda steps, trials: sample_path(mu, steps, trials, 1),
                 lambda steps, trials: empirical_distributions(mu, [steps], trials, 1)):
        with pytest.raises(ValueError):
            walk(4, 0)
        with pytest.raises(ValueError):
            walk(-1, 5)
