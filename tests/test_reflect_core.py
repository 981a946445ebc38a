"""Tests for the simulation core, contraction words and backward sampling."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectwalk import exact_1d as ex
from reflectwalk import lattice_structure as ls
from reflectwalk import measures as ms
from reflectwalk import reflect_core as rc

from family_helpers import random_nonneg_lattice


def spec_1d(atoms):
    j = ms.JointMeasure.product((1, 0, 0, 0), [ms.Measure1D.lattice(atoms)])
    return rc.WalkSpec(j)


SPEC_12 = spec_1d({1: 0.5, 2: 0.5})


# ---------------------------------------------------------------------------
# elementary dynamics
# ---------------------------------------------------------------------------

def test_reflect_step_componentwise():
    assert np.array_equal(rc.reflect_step(np.array([3.0, 0.0]),
                                          np.array([5.0, 2.0])), [2.0, 2.0])
    assert rc.reflect_step(1.0, 3.0) == 2.0
    x = np.array([4.0, 7.0])
    assert np.array_equal(rc.reflect_step(x, np.zeros(2)), x)
    with pytest.raises(ms.MeasureError):
        rc.reflect_step(np.array([1.0]), np.array([1.0, 2.0]))


def test_simulate_deterministic_laws():
    # x -> |x - 2| from 3 settles at 1 (folded by hand through reflect_step)
    states = [3.0]
    for _ in range(4):
        states.append(rc.reflect_step(states[-1], 2.0))
    assert states == [3.0, 1.0, 1.0, 1.0, 1.0]
    # normalized spec: delta_1 from 0 gives the period-2 orbit
    traj = rc.simulate(spec_1d({1: 1.0}), [0.0], 5, 5)
    assert traj.states[:, 0].tolist() == [0, 1, 0, 1, 0, 1]


def test_simulate_free_coordinate_partial_sums():
    j = ms.JointMeasure.product((1, 0, 1, 0), [ms.Measure1D.lattice({1: 1.0}),
                                               ms.Measure1D.lattice({1: 1.0})])
    traj = rc.simulate(rc.WalkSpec(j), [0.0, 0.0], 5, 0)
    assert traj.states[:, 1].tolist() == [0, 1, 2, 3, 4, 5]


def test_simulate_rejects_bad_starts():
    with pytest.raises(ms.MeasureError):
        rc.simulate(SPEC_12, [-1.0], 5, 0)
    with pytest.raises(ms.MeasureError):
        rc.simulate(SPEC_12, [0.5], 5, 0)  # lattice coordinate


def test_walkspec_rejects_unnormalized_and_extra_free():
    with pytest.raises(ms.MeasureError):
        spec_1d({2: 1.0})
    pm1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    with pytest.raises(ms.MeasureError):
        rc.WalkSpec(ms.JointMeasure.product(
            (1, 0, 3, 0), [ms.Measure1D.lattice({1: 0.5, 2: 0.5})] + [pm1] * 3))


def test_walkspec_refuses_its_first_failed_check():
    pm1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    m24 = ms.Measure1D.lattice({2: 0.5, 4: 0.5})
    cases = [
        ((0, 0, 1, 0), [pm1], "dims_reflected"),
        ((0, 0, 3, 0), [pm1] * 3, "dims_free"),          # r = 0 and s = 3: first one
        ((1, 0, 3, 0), [m24] + [pm1] * 3, "dims_free"),
        ((2, 0, 0, 0), [pm1, m24], "normalized_1"),
    ]
    for dims, factors, name in cases:
        law = ms.JointMeasure.product(dims, factors)
        failed = [n for n, ok, _ in rc.WalkSpec.checks(law) if not ok]
        assert failed[0] == name
        with pytest.raises(ms.MeasureError, match=f"^{name}: "):
            rc.WalkSpec(law)
    # a finite joint law whose reflecting marginal has gcd 2
    with pytest.raises(ms.MeasureError, match="divide the lattice by 2"):
        rc.WalkSpec(ms.JointMeasure.finite((2, 0, 0, 0), [((2, 1), .5), ((4, 3), .5)]))
    # sampler-backed, tailed and continuous reflecting marginals are not gcd-checked
    for m, dims in ((ms.subordinated(0.5), (1, 0, 0, 0)),
                    (ms.wiener_hopf_log_tail(1000), (1, 0, 0, 0)),
                    (ms.uniform(0.0, 2.0), (0, 1, 0, 0))):
        law = ms.JointMeasure.product(dims, [m])
        assert [n for n, _, _ in rc.WalkSpec.checks(law)] == ["dims_free", "dims_reflected"]
        rc.WalkSpec(law)
    # a continuous reflected coordinate of a finite law: integer values, gcd 2
    rc.WalkSpec(ms.JointMeasure.finite((0, 1, 0, 0), [((2.0,), .5), ((4.0,), .5)]))


def test_power_refuses_with_measure_error():
    word = rc.ContractionWord([1, 2])
    assert len(word.power(3)) == 6
    with pytest.raises(ms.MeasureError, match="power must be at least 1"):
        word.power(0)


def test_replay_determinism():
    a = rc.simulate(SPEC_12, [0.0], 500, 123)
    b = rc.simulate(SPEC_12, [0.0], 500, 123)
    assert np.array_equal(a.states, b.states)
    c = rc.simulate(SPEC_12, [0.0], 500, 124)
    assert not np.array_equal(a.states, c.states)


def test_reflected_states_stay_nonnegative():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 3), 0.5), ((3, -1), 0.5)])
    traj = rc.simulate(rc.WalkSpec(j), [0.0, 1.0], 2000, 77)
    assert (traj.states[:, :2] >= 0).all()


# ---------------------------------------------------------------------------
# the walk engine against the literal fold and the kernel oracle
# ---------------------------------------------------------------------------

def fold(y, x):
    """The recurrence ``x = |x - y|`` written out step by step."""
    out = np.empty(y.shape, dtype=np.result_type(y, x))
    for t in range(len(y)):
        x = np.abs(x - y[t])
        out[t] = x
    return out


@st.composite
def lattice_laws(draw):
    """Finite lattice law with mass on (0, inf): nonnegative or two-sided."""
    lo = draw(st.sampled_from([0, -3]))
    pts = draw(st.lists(st.integers(lo, 6), min_size=1, max_size=4, unique=True))
    pts = sorted(set(pts) | {draw(st.integers(1, 6))})
    weights = draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    return ms.Measure1D.lattice({x: w / sum(weights) for x, w in zip(pts, weights)})


@given(st.lists(lattice_laws(), min_size=1, max_size=2), st.integers(0, 700),
       st.integers(1, 4), st.integers(0, 15), st.integers(0, 2**32 - 1),
       st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_engine_matches_literal_fold(laws, steps, replicas, top, seed, sub):
    law = ms.JointMeasure.product((len(laws), 0, 0, 0), laws)
    rng = np.random.default_rng(seed)
    y = law.sample(rng, steps * replicas).reshape(steps, replicas, len(laws))
    x = rng.integers(0, top + 1, size=(replicas, len(laws))).astype(float)  # may start above the support
    want = fold(y, x)
    got = rc._walk_states(law, y, x)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the table path itself, at any sub-block length (rarely a divisor of steps)
    lo = min(int(m.min_support()) for m in laws)
    hi = max(int(m.max_support()) for m in laws)
    size = max(hi, top) + 1 if lo >= 0 else sub * hi
    assert np.array_equal(rc._table_walk(y, x, sub, size), want)


@pytest.mark.parametrize("sub", [1, 2, 7, 64])
@pytest.mark.parametrize("steps", [0, 1, 5, 129, 1000])
def test_table_scan_matches_literal_fold(sub, steps):
    # nonnegative letters: sub-block starts by the prefix scan, empty and
    # partial sub-blocks included
    law = ms.JointMeasure.product((2, 0, 0, 0), [ms.Measure1D.lattice({0: .2, 1: .3, 3: .5}),
                                                 ms.Measure1D.lattice({2: .5, 5: .5})])
    rng = np.random.default_rng(100 * steps + sub)
    y = law.sample(rng, steps * 3).reshape(steps, 3, 2)
    x = rng.integers(0, 7, size=(3, 2)).astype(float)
    got = rc._table_walk(y, x, sub, 7)
    assert got.shape == y.shape and np.array_equal(got, fold(y, x))


@pytest.mark.parametrize("lo", [-2**20, -2**30, -(2**31 + 1)])
@pytest.mark.parametrize("seed", range(3))
def test_two_sided_walks_with_far_letters_match_literal_fold(lo, seed):
    # sub-block maps hold states up to sub * (hi - lo): a law whose maps would
    # pass int32 must step instead of wrapping around
    spec = spec_1d({lo: .5, 1: .5})
    traj = rc.simulate(spec, [0.0], 2000, seed)
    y = spec.law.sample(np.random.default_rng(seed), 2000)[:, None, :]
    assert np.array_equal(traj.states[1:, None], fold(y, np.zeros((1, 1))))


@given(st.lists(lattice_laws(), min_size=1, max_size=2), st.sampled_from([1, 3, 40]),
       st.integers(1, 8000), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_walk_blocks_match_literal_fold(laws, replicas, extra, top, seed):
    steps = ms._BLOCK_DRAWS // replicas + extra      # one full block and more
    law = ms.JointMeasure.product((len(laws), 0, 0, 0), laws)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, top + 1, size=(replicas, len(laws))).astype(float)
    blocks = list(rc._walk_blocks(law, x, rng, steps))
    lengths = [len(y) for _, y, _ in blocks]
    assert len(blocks) >= 2 and sum(lengths) == steps
    assert [k for k, _, _ in blocks] == np.cumsum([0] + lengths[:-1]).tolist()
    y = np.concatenate([y for _, y, _ in blocks])
    assert np.array_equal(np.concatenate([s for _, _, s in blocks]), fold(y, x))


@pytest.mark.parametrize("budget, replicas", [(None, 1), (None, 3), (None, 40), (None, 5000),
                                             (64, 3), (64, 100)])
def test_walk_blocks_hold_at_most_the_block_budget(monkeypatch, budget, replicas):
    # a block holds at most _BLOCK_DRAWS increments, or one step of every replica
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    rng = np.random.default_rng(replicas)
    blocks = rc._walk_blocks(SPEC_12.law, np.zeros((replicas, 1)), rng)
    for _, y, states in itertools.islice(blocks, 3):
        assert y.shape == states.shape and y.shape[1] == replicas
        assert len(y) * replicas <= ms._BLOCK_DRAWS or len(y) == 1
        assert (len(y) + 1) * replicas > ms._BLOCK_DRAWS


@pytest.mark.parametrize("law, start", [
    (SPEC_12.law, [3]),
    (ms.JointMeasure.finite((1, 0, 1, 0), [((1, 2), .3), ((2, -1), .7)]), [0, 5]),
    (ms.JointMeasure.finite((0, 1, 0, 1), [((0.5, 0.25), .5), ((1.5, -0.75), .5)]),
     [0.25, 1.0]),
], ids=["lattice", "finite-free", "finite-continuous"])
def test_simulate_equals_the_literal_fold_of_its_draws(monkeypatch, law, start):
    # 1000 steps in blocks of 64: the draws are one stream, the trajectory one fold
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)
    traj = rc.simulate(rc.WalkSpec(law), start, 1000, 97)
    r = law.n_reflected
    x = np.array(start, dtype=float)
    want = [x]
    for y in law.sample(np.random.default_rng(97), 1000):
        x = np.concatenate([np.abs(x[:r] - y[:r]), x[r:] + y[r:]])
        want.append(x)
    assert np.array_equal(traj.states, np.array(want))


def test_contraction_profile_equals_the_literal_fold_of_its_draws(monkeypatch):
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)
    law = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), .5), ((3, 2), .5)])
    dist = rc.contraction_distance_profile(rc.WalkSpec(law), [0, 1], [4, 4], 500, 101)
    a, b = np.array([0.0, 1.0]), np.array([4.0, 4.0])
    want = []
    for y in law.sample(np.random.default_rng(101), 500):
        a, b = np.abs(a - y), np.abs(b - y)
        want.append(np.sqrt(np.sum((a - b) ** 2)))
    assert np.array_equal(dist, want)


SPEC_125 = spec_1d({1: 0.5, 2: 0.3, 5: 0.2})
BULK_WALKS = {   # name: (call, bytes of its result)
    "simulate": (lambda: rc.simulate(SPEC_125, [0], 10 ** 6, 4), lambda t: t.states.nbytes),
    "contraction": (lambda: rc.contraction_distance_profile(SPEC_125, [0], [5], 10 ** 6, 6),
                    lambda d: d.nbytes),
    "backward": (lambda: rc.backward_sample(SPEC_125, [0], 500, 5, n_samples=10 ** 5),
                 lambda res: res.values.nbytes + res.converged.nbytes + res.blocks_used.nbytes),
}


@pytest.mark.parametrize("budget", [None, 1 << 13])
@pytest.mark.parametrize("name", sorted(BULK_WALKS))
def test_bulk_walks_hold_their_result_plus_the_block_budget(monkeypatch, traced_peak,
                                                            name, budget):
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    call, result_bytes = BULK_WALKS[name]
    out, peak = traced_peak(call)
    assert peak <= result_bytes(out) + 16 * 8 * ms._BLOCK_DRAWS


def test_only_the_core_steps_walks():
    # walkers read blocks from _walk_blocks; none may grow its own chunk loop
    package = Path(rc.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py"))
             if p.name != "reflect_core.py" and "_walk_states" in p.read_text()]
    assert users == []


def test_only_measures_convolves():
    # convolution powers live in measures.LatticeSumSampler alone
    package = Path(rc.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py"))
             if p.name != "measures.py"
             and any(word in p.read_text() for word in ("np.fft", "convolve"))]
    assert users == []


@pytest.mark.parametrize("mixed", [False, True])
def test_engine_walks_all_reflected_coordinates_by_one_plan(monkeypatch, mixed):
    # finite lattice factors go through the table path together; one
    # coordinate without finite lattice support sends all of them per step
    last = ms.wiener_hopf_log_tail(cutoff=20) if mixed else ms.Measure1D.lattice({1: .6, 4: .4})
    law = ms.JointMeasure.product((3, 0, 0, 0), [ms.Measure1D.lattice({1: .5, 2: .5}),
                                                 ms.Measure1D.lattice({0: .3, 3: .7}), last])
    calls = []

    def spy(name):
        real = getattr(rc, name)

        def walk(y, x, *plan):
            calls.append((name, y.shape[2]))
            return real(y, x, *plan)
        return walk

    for name in ("_table_walk", "_step_walk"):
        monkeypatch.setattr(rc, name, spy(name))
    rng = np.random.default_rng(6)
    y = law.sample(rng, 600).reshape(300, 2, 3)
    x = rng.integers(0, 5, size=(2, 3)).astype(float)
    assert np.array_equal(rc._walk_states(law, y, x), fold(y, x))
    assert calls == [("_step_walk" if mixed else "_table_walk", 3)]


def test_engine_free_coordinates_are_sequential_sums():
    law = ms.JointMeasure.product((1, 0, 0, 1), [ms.Measure1D.lattice({1: .5, 2: .5}),
                                                 ms.uniform(-1.0, 1.3)])
    rng = np.random.default_rng(4)
    y = law.sample(rng, 3000).reshape(1000, 3, 2)
    x = np.array([[1.0, 0.25], [0.0, -3.5], [2.0, 1e-3]])
    got = rc._walk_states(law, y, x)
    z = x[:, 1].copy()
    for t in range(len(y)):
        z = z + y[t, :, 1]
        assert np.array_equal(got[t, :, 1], z)
    assert np.array_equal(got[:, :, :1], fold(y[:, :, :1], x[:, :1]))


@pytest.mark.parametrize("atoms, x0", [({1: .5, 2: .5}, 0), ({0: .2, 1: .3, 3: .5}, 3),
                                        ({2: .7, 5: .3}, 4)])
def test_engine_exact_laws_of_small_horizons(atoms, x0):
    # every increment word of length n as one replica, weighted by its
    # probability: the end states must carry row x0 of K^n
    m = ms.Measure1D.lattice(atoms)
    law = ms.JointMeasure.product((1, 0, 0, 0), [m])
    kernel = ex.reflected_kernel_matrix(m)
    pts = np.array(list(atoms), dtype=float)
    probs = np.array(list(atoms.values()))
    for n in range(1, 5):
        words = np.array(np.meshgrid(*[np.arange(len(pts))] * n, indexing="ij")).reshape(n, -1)
        y = pts[words][:, :, None]
        ends = rc._walk_states(law, y, np.full((words.shape[1], 1), float(x0)))[-1, :, 0]
        weight = probs[words].prod(axis=0)
        law_n = np.bincount(ends.astype(np.int64), weights=weight, minlength=len(kernel))
        assert np.allclose(law_n, np.linalg.matrix_power(kernel, n)[x0], rtol=0, atol=1e-12)


def test_engine_exact_two_dimensional_laws():
    a = ms.Measure1D.lattice({0: .3, 2: .7})
    b = ms.Measure1D.lattice({1: .4, 3: .6})
    law = ms.JointMeasure.product((2, 0, 0, 0), [a, b])
    pts = law.atoms()[0]
    probs = np.array([a.prob(p[0]) * b.prob(p[1]) for p in pts])
    ka = ex.reflected_kernel_matrix(a, 4)
    kb = ex.reflected_kernel_matrix(b, 4)
    start = (1, 3)
    for n in range(1, 5):
        words = np.array(np.meshgrid(*[np.arange(len(pts))] * n, indexing="ij")).reshape(n, -1)
        ends = rc._walk_states(law, pts[words], np.tile(start, (words.shape[1], 1)).astype(float))[-1]
        weight = probs[words].prod(axis=0)
        joint = np.zeros((4, 4))
        np.add.at(joint, (ends[:, 0].astype(int), ends[:, 1].astype(int)), weight)
        want = np.outer(np.linalg.matrix_power(ka, n)[start[0]],
                        np.linalg.matrix_power(kb, n)[start[1]])
        assert np.allclose(joint, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# parity returns and induced words
# ---------------------------------------------------------------------------

def test_parity_return_mean_one_dimensional():
    times, _ = rc.parity_return_times(SPEC_12, [0.0], 20_000,
                                      np.random.default_rng(8))
    gaps = np.diff(np.concatenate([[0], times]))
    assert abs(gaps.mean() - 2.0) < 0.05


def test_parity_return_mean_two_dimensional_full_group():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    times, states = rc.parity_return_times(rc.WalkSpec(j), [0.0, 0.0], 10_000,
                                           np.random.default_rng(9))
    gaps = np.diff(np.concatenate([[0], times]))
    assert abs(gaps.mean() - 4.0) < 0.1       # group size 4
    # returned states carry the starting (even, even) parity
    assert (np.asarray(states, dtype=np.int64) % 2 == 0).all()


@pytest.mark.parametrize("spec, start, count", [
    (SPEC_12, [4.0], 5),
    (SPEC_12, [4.0], 10_000),                    # returns span draw blocks
    (rc.WalkSpec(ms.JointMeasure.finite(
        (2, 1, 1, 0), [((2, 3, 1, 1), 0.3), ((3, 1, 2, -1), 0.3),
                       ((1, 1, 0, 2), 0.2), ((0, 2, 3, 0), 0.2)])),
     [1.0, 2.0, 0.75, 3.0], 3_000),
])
def test_parity_return_times_match_simulation(spec, start, count):
    # times are the zeros of the cumulative increment parity of the walk drawn
    # from the same seed, and states are that walk's reflected states there
    for seed in range(8):
        times, states = rc.parity_return_times(spec, start, count, seed)
        draws = spec.law.sample(np.random.default_rng(seed), int(times[-1]))
        pars = np.cumsum(np.round(draws[:, :spec.r1]).astype(np.int64), axis=0) % 2
        assert times.tolist() == (np.flatnonzero(~pars.any(axis=1)) + 1).tolist()
        traj = rc.simulate(spec, start, int(times[-1]), seed)
        assert np.array_equal(states, traj.states[times, :spec.r])


def xor_parity_returns(spec, start, count, seed):
    """The first ``count`` times at which the XOR of the increments' parity
    codes is 0, with the reflected states then, read from the increments of
    the engine's block stream."""
    blocks = rc._walk_blocks(spec.law, np.array(start, dtype=float)[None, :],
                             np.random.default_rng(seed))
    par, times, states = 0, [], []
    while len(times) < count:
        k, y, block = next(blocks)
        pars = par ^ np.bitwise_xor.accumulate(rc._parity_codes(y[:, 0], spec.r1))
        hit = np.flatnonzero(pars == 0)[:count - len(times)]
        times.extend(k + 1 + hit)
        states.extend(block[hit, 0, :spec.r])
        par = pars[-1]
    return np.array(times, dtype=np.int64), np.array(states).reshape(-1, spec.r)


@pytest.mark.parametrize("law, start", [
    (SPEC_12.law, [3.0]),
    (ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), .5), ((3, 2), .3), ((1, 1), .2)]),
     [1.0, 4.0]),
    (ms.JointMeasure.product((2, 0, 0, 0), [ms.Measure1D.lattice({1: .4, 2: .6}),
                                            ms.Measure1D.lattice({-1: .5, 3: .5})]),
     [5.0, 0.0]),
    (ms.JointMeasure.product((1, 0, 1, 0), [ms.Measure1D.lattice({1: .7, 4: .3}),
                                            ms.Measure1D.lattice({-1: .5, 1: .5})]),
     [1.0, 3.0]),
    (ms.JointMeasure.product((1, 1, 0, 1), [ms.Measure1D.lattice({0: .2, 1: .5, 2: .3}),
                                            ms.uniform(0, 1), ms.uniform(-1, 1)]),
     [2.0, 0.5, -1.0]),
], ids=["finite-odd", "finite-2d", "product-2d", "product-free", "product-continuous"])
def test_parity_return_times_equal_the_xor_of_codes(law, start):
    # returns read from the state equal returns of the carried increment code,
    # over more than one block of draws
    spec = rc.WalkSpec(law)
    for seed in range(3):
        times, states = rc.parity_return_times(spec, start, 20_000, seed)
        want_times, want_states = xor_parity_returns(spec, start, 20_000, seed)
        assert times.tolist() == want_times.tolist()
        assert np.array_equal(states, want_states)
    assert times[-1] > ms._BLOCK_DRAWS


def test_first_hits_budget_and_empty_count():
    law = ms.JointMeasure.product((1, 0, 1, 0), [ms.Measure1D.lattice({1: .5, 2: .5}),
                                                 ms.Measure1D.lattice({1: 1.0})])
    times, states = rc._first_hits(law, np.zeros(2), 0, 0, lambda x: x[:, 0] == 0, 1, "none")
    assert times.shape == (0,) and times.dtype == np.int64 and states.shape == (0, 2)
    # the free coordinate never returns: the scan raises once a block starts
    # at the step budget
    with pytest.raises(ms.MeasureError, match="no return"):
        rc._first_hits(law, np.zeros(2), 0, 1, lambda x: x[:, 1] == 0, 3 * ms._BLOCK_DRAWS,
                       "no return")
    times, states = rc._first_hits(law, np.zeros(2), 0, 5, lambda x: x[:, 1] % 3 == 0,
                                   1, "none")
    assert times.tolist() == [3, 6, 9, 12, 15] and states[:, 1].tolist() == times.tolist()


def test_parity_return_requires_lattice_reflection():
    j = ms.JointMeasure.product((0, 1, 0, 0), [ms.uniform(0, 1)])
    with pytest.raises(ms.MeasureError):
        rc.parity_return_times(rc.WalkSpec(j), [0.0], 10,
                               np.random.default_rng(0))


def test_induced_word_delta_one():
    spec = spec_1d({1: 1.0})
    w = rc.induced_word(spec, np.random.default_rng(4))
    assert w.letters.ravel().tolist() == [1, 1]
    assert w.evaluate(0.0) == 0.0


def test_induced_word_replays_simulation():
    for seed in range(10):
        w = rc.induced_word(SPEC_12, seed)
        traj = rc.simulate(SPEC_12, [6.0], len(w), seed)
        assert w.evaluate(6.0) == traj.states[len(w), 0]


def test_word_concatenation_matches_parity_blocks():
    # k induced blocks composed in order reproduce the walk they drive at its
    # k-th parity return
    rng = np.random.default_rng(314)
    words = [rc.induced_word(SPEC_12, rng) for _ in range(5)]
    letters = np.concatenate([w.letters[:, 0] for w in words]).astype(np.int64)
    times = np.flatnonzero(np.cumsum(letters) % 2 == 0) + 1        # parity returns
    assert times.tolist() == np.cumsum([len(w) for w in words]).tolist()
    states, x = [], 4
    for y in letters:                                # the walk from 4, step by step
        x = abs(x - y)
        states.append(x)
    total = None
    for w, t in zip(words, times):
        total = w if total is None else total.then(w)
        assert total.evaluate(4.0) == states[t - 1]


def test_induced_word_two_dimensional_first_return():
    # rare parity flips make long words, which span several draw blocks
    m = ms.Measure1D.lattice({1: 0.01, 2: 0.99})
    spec = rc.WalkSpec(ms.JointMeasure.product((2, 0, 0, 0), [m, m]))
    rng = np.random.default_rng(21)
    points = np.array([[0, 0], [1, 4], [5, 2], [7, 7]])
    lengths = []
    for _ in range(500):
        w = rc.induced_word(spec, rng)
        letters = w.letters.astype(np.int64)
        pars = np.cumsum(letters, axis=0) % 2
        assert not pars[-1].any() and pars[:-1].any(axis=1).all()
        x = points.copy()
        for y in letters:
            x = np.abs(x - y)
        assert np.array_equal(w.evaluate(points), x)
        lengths.append(len(w))
    assert max(lengths) > 16 + 32              # words cross two block boundaries


def test_induced_word_step_budget_is_exact():
    spec = spec_1d({1: 1.0})                     # every word is [1, 1]
    with pytest.raises(ms.MeasureError):
        rc.induced_word(spec, 0, max_steps=1)
    assert rc.induced_word(spec, 0, max_steps=2).letters.ravel().tolist() == [1, 1]


def test_induced_word_two_dimensional_replay():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    spec = rc.WalkSpec(j)
    for seed in range(5):
        w = rc.induced_word(spec, seed)
        traj = rc.simulate(spec, [4.0, 2.0], len(w), seed)
        assert np.array_equal(w.evaluate(np.array([4.0, 2.0])),
                              traj.states[len(w), :2])


def test_backward_joint_law_matches_conditioned_occupation():
    # independent oracle: the time average of one long trajectory restricted
    # to the even-even parity class, against exact backward samples
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    spec = rc.WalkSpec(j)
    res = rc.backward_sample(spec, [0, 0], horizon=400, rng=3,
                             n_samples=40_000)
    assert res.converged.all()
    vals, cnts = np.unique(res.values, axis=0, return_counts=True)
    emp_bw = {tuple(map(int, v)): c / len(res.values)
              for v, c in zip(vals, cnts)}
    traj = rc.simulate(spec, [0.0, 0.0], 300_000, 99)
    pts = np.asarray(traj.states[1000:, :2], dtype=np.int64)
    sel = pts[((pts % 2) == 0).all(axis=1)]
    uv, uc = np.unique(sel, axis=0, return_counts=True)
    emp_occ = {tuple(map(int, v)): c / len(sel) for v, c in zip(uv, uc)}
    states = set(emp_bw) | set(emp_occ)
    tv = 0.5 * sum(abs(emp_bw.get(s, 0.0) - emp_occ.get(s, 0.0))
                   for s in states)
    assert tv < 0.05, (tv, emp_bw, emp_occ)


@pytest.mark.parametrize("letters", [
    np.array([[2], [5], [1]]), np.array([[2.5], [0.5], [4.0]]),
    np.array([[2, 1, 0], [0, 3, 1], [1, 1, 4]]), np.array([[0.5, 2.0, 1.0], [3.0, 0.25, 1.5]]),
], ids=["int-1d", "float-1d", "int-3d", "float-3d"])
def test_evaluate_equals_the_literal_fold(letters):
    w = rc.ContractionWord(letters)
    r = w.width
    dtype = letters.dtype if letters.dtype.kind == "f" else np.int64
    rng = np.random.default_rng(r)
    shapes = [(), (1,), (4,), (4, 1)] if r == 1 else [(r,), (4, r)]
    points = [rng.integers(0, 7, size=shape).astype(dtype) for shape in shapes]
    for x in points + ([3, np.int64(3)] if r == 1 else []):
        want = np.array(x, dtype=dtype)
        for row in letters:
            want = np.abs(want - (row[0] if r == 1 else row))
        got = w.evaluate(x)
        assert np.shape(got) == np.shape(x) and np.asarray(got).dtype == dtype
        assert np.array_equal(got, want)
        assert np.ndim(x) > 0 or np.isscalar(got)      # a point in, a scalar out


def test_single_even_letter_preserves_parity():
    w = rc.ContractionWord(np.array([2]))
    for x in (0, 1, 2, 5, 8):
        assert w.evaluate(x) == abs(x - 2)
        assert (w.evaluate(x) - x) % 2 == 0


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=12),
       st.floats(0, 50), st.floats(0, 50))
@settings(max_examples=100, deadline=None)
def test_word_is_one_lipschitz(letters, x, y):
    w = rc.ContractionWord(np.array(letters, dtype=float))
    assert abs(w.evaluate(x) - w.evaluate(y)) <= abs(x - y) + 1e-12


def test_parity_difference_conserved_under_coupling():
    prof = rc.contraction_distance_profile(SPEC_12, [0.0], [1.0], 500,
                                           np.random.default_rng(12))
    assert (np.asarray(prof, dtype=np.int64) % 2 == 1).all()
    assert (prof > 0).all()


def test_coupled_identical_starts_stay_identical():
    prof = rc.contraction_distance_profile(SPEC_12, [3.0], [3.0], 200,
                                           np.random.default_rng(1))
    assert (prof == 0).all()


# ---------------------------------------------------------------------------
# backward sampling
# ---------------------------------------------------------------------------

def test_backward_delta_one_even_class():
    res = rc.backward_sample(spec_1d({1: 1.0}), [0], horizon=10,
                             rng=np.random.default_rng(1), n_samples=50)
    assert res.converged.all()
    assert (res.values == 0).all()
    assert (res.blocks_used == 1).all()


def test_backward_matches_conditioned_invariant_law():
    res = rc.backward_sample(SPEC_12, [0], horizon=500,
                             rng=np.random.default_rng(7), n_samples=100_000)
    assert res.converged.all()
    nu = ex.invariant_measure_nonneg(ms.Measure1D.lattice({1: 0.5, 2: 0.5}))
    d = nu.as_dict()
    even_mass = d[0] + d[2]
    exact = {0.0: d[0] / even_mass, 2.0: d[2] / even_mass}
    vals, counts = np.unique(res.values, return_counts=True)
    emp = dict(zip(vals.tolist(), (counts / len(res.values)).tolist()))
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - v) for k, v in exact.items())
    assert tv < 0.02


def test_backward_sample_parity_of_output():
    res = rc.backward_sample(SPEC_12, [1], horizon=500,
                             rng=np.random.default_rng(2), n_samples=2000)
    assert res.converged.all()
    assert (np.asarray(res.values, dtype=np.int64) % 2 == 1).all()


def test_backward_rejects_parity_mismatch_and_null_recurrent():
    with pytest.raises(ms.MeasureError):
        rc.backward_sample(SPEC_12, [0, 1], 10, np.random.default_rng(0))
    null_spec = spec_1d({-1: 0.5, 1: 0.5})
    with pytest.raises(ms.MeasureError):
        rc.backward_sample(null_spec, [0], 10, np.random.default_rng(0))


def test_backward_two_dimensional_support():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    res = rc.backward_sample(rc.WalkSpec(j), [0, 0], horizon=400,
                             rng=np.random.default_rng(5), n_samples=5000)
    assert res.converged.all()
    got = {tuple(map(int, v)) for v in res.values}
    # even-even states of the essential class of this law
    assert got == {(0, 2), (2, 0), (2, 2)}


def test_backward_two_sided_default_window_certifies_nothing():
    # {-1: .3, 2: .7} is positive recurrent; blocks such as (-1, -1) map 2 to
    # 4, out of the window [0, 2], and the even-class stationary law puts
    # several percent of its mass above 2, which no sample confined to the
    # window can carry: no window is closed, so the sampler refuses
    spec = spec_1d({-1: 0.3, 2: 0.7})
    with pytest.raises(ms.MeasureError, match="no window is closed"):
        rc.backward_sample(spec, [0], horizon=2000, rng=11, n_samples=5000)
    states = rc.simulate(spec, [0], 200_000, 12).states[1000:, 0]
    even = states[states % 2 == 0]
    assert np.mean(even > 2) > 0.03


def test_backward_random_nonneg_laws_match_exact_invariant_law():
    rng = np.random.default_rng(31)
    for _ in range(3):
        m = random_nonneg_lattice(rng, max_top=8)
        res = rc.backward_sample(rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0), [m])),
                                 [0], horizon=500, rng=rng, n_samples=20_000)
        assert res.converged.all() and not res.guard_fired
        nu = {x: v for x, v in ex.invariant_measure_nonneg(m).as_dict().items()
              if x % 2 == 0}
        vals, counts = np.unique(res.values[:, 0].astype(np.int64), return_counts=True)
        emp = dict(zip(vals.tolist(), (counts / counts.sum()).tolist()))
        total = sum(nu.values())
        tv = 0.5 * sum(abs(emp.get(x, 0.0) - v / total) for x, v in nu.items())
        assert set(emp) <= set(nu) and tv < 0.02


def _blocks_used_law(atoms, parity, window, blocks, left_out=1e-9):
    """Exact ``P(blocks_used = n)`` for ``n = 1..blocks`` of a 1-D lattice law.

    Enumerates words of whole first-return blocks of the parity scan letter
    by letter, pooling words with equal images of the class points, parity
    and block count, until the mass of the still open words is below
    ``left_out``.  Words are read forward: the first ``n`` blocks and their
    reverse are both ``n``-block words with the same probability, and a map
    constant after ``n`` blocks stays constant, so ``P(blocks_used <= n)``
    is the same in the backward reading.
    """
    law = np.zeros(blocks + 1)
    open_words = {(tuple(range(parity, window + 1, 2)), 0, 0): 1.0}
    while sum(open_words.values()) >= left_out:
        longer = {}
        for (image, code, done), p in open_words.items():
            for y, q in atoms.items():
                image_y, code_y = tuple(abs(x - y) for x in image), code ^ (y & 1)
                done_y = done + (code_y == 0)
                if code_y == 0 and len(set(image_y)) == 1:
                    law[done_y] += p * q
                elif done_y < blocks:
                    key = (image_y, code_y, done_y)
                    longer[key] = longer.get(key, 0.0) + p * q
        open_words = longer
    return law[1:]


def test_backward_blocks_used_matches_exact_law():
    # no single block of this law maps {0, 2, 4} to one point: P(1 block) = 0
    atoms = {1: 0.2, 4: 0.5, 5: 0.3}
    law = _blocks_used_law(atoms, 0, 5, 8)
    n = 20_000
    res = rc.backward_sample(spec_1d(atoms), [0], horizon=500, rng=17, n_samples=n)
    assert res.converged.all()
    freq = np.bincount(res.blocks_used, minlength=len(law) + 1)[1:len(law) + 1] / n
    se = np.sqrt(law * (1 - law) / n)
    assert law[0] == freq[0] == 0
    assert (np.abs(freq - law) <= 5 * se).all(), (freq, law)


def test_backward_identity_letters_are_not_blocks():
    # conditioned on a nonzero letter this law is {1: .2, 4: .5, 5: .3}: the
    # letter 0 maps every state to itself, so it must not use up the horizon
    # and blocks_used must follow the law of the conditioned walk
    law = _blocks_used_law({1: 0.2, 4: 0.5, 5: 0.3}, 0, 5, 8)
    n = 20_000
    res = rc.backward_sample(spec_1d({0: 0.5, 1: 0.1, 4: 0.25, 5: 0.15}), [0],
                             horizon=500, rng=19, n_samples=n)
    assert res.converged.all()
    freq = np.bincount(res.blocks_used, minlength=len(law) + 1)[1:len(law) + 1] / n
    se = np.sqrt(law * (1 - law) / n)
    assert law[0] == freq[0] == 0
    assert (np.abs(freq - law) <= 5 * se).all(), (freq, law)


@pytest.mark.parametrize("atoms", [{0: 0.999, 1: 0.001}, {0: 0.99, 2: 0.004, 3: 0.006}])
@pytest.mark.parametrize("parity", [0, 1])
def test_backward_mostly_idle_laws_match_exact_class_law(atoms, parity):
    # letters come from the law given a nonzero reflected part, so a law that
    # is almost always 0 costs one draw per step and keeps its class law
    n = 20_000
    res = rc.backward_sample(spec_1d(atoms), [parity], horizon=500, rng=23, n_samples=n)
    assert res.converged.all()
    nu = {x: v for x, v in ex.invariant_measure_nonneg(ms.Measure1D.lattice(atoms))
          .as_dict().items() if x % 2 == parity}
    total = sum(nu.values())
    vals = res.values[:, 0].astype(np.int64)
    assert set(np.unique(vals).tolist()) <= set(nu)
    for x, v in nu.items():
        p = v / total
        assert abs(np.mean(vals == x) - p) <= 5 * np.sqrt(p * (1 - p) / n), (x, p)


def _exact_class_law(law, parity):
    """Stationary law of the closed class of a nonnegative bounded lattice law,
    given the parity: the box ``prod [0, N_i]`` is closed, so the kernel on
    it is exact, and the class comes from ``essential_classes``."""
    pts, probs = law.atoms()
    rows = pts.astype(np.int64)
    top = rows.max(axis=0)
    coords, succ = ex._window_successors(rows, top)
    kernel = np.zeros((len(coords), len(coords)))
    a, s = np.nonzero(succ >= 0)
    np.add.at(kernel, (s, succ[a, s]), probs[a])
    coset = ls.parity_group(law).coset_of(parity)
    (rep,) = [r for r in ls.essential_classes(law, window=int(top.max()))
              if r.coset_index == coset]
    assert rep.certificate == "exact_bounded"
    states = np.array(rep.members)
    idx = np.ravel_multi_index(states.T, tuple(top + 1))
    k = kernel[np.ix_(idx, idx)]
    assert np.allclose(k.sum(axis=1), 1.0, rtol=0, atol=1e-15)    # the class is closed
    eqs = np.vstack([k.T - np.eye(len(idx)), np.ones(len(idx))])
    pi = np.linalg.lstsq(eqs, np.r_[np.zeros(len(idx)), 1.0], rcond=None)[0]
    keep = ((states & 1) == parity).all(axis=1)
    return {tuple(map(int, x)): p for x, p in zip(states[keep], pi[keep] / pi[keep].sum())}


LAW_SWAP = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
LAW_PRODUCT = ms.JointMeasure.product((2, 0, 0, 0), [ms.Measure1D.lattice({1: .2, 4: .5, 5: .3}),
                                                     ms.Measure1D.lattice({1: .5, 2: .5})])


@pytest.mark.parametrize("law, parity", [(LAW_SWAP, (0, 0)), (LAW_SWAP, (1, 0)),
                                         (LAW_PRODUCT, (0, 1)), (LAW_PRODUCT, (1, 0))],
                         ids=["finite-00", "finite-10", "product-01", "product-10"])
def test_backward_two_dimensional_matches_exact_class_law(law, parity):
    n = 40_000
    res = rc.backward_sample(rc.WalkSpec(law), list(parity), horizon=500, rng=3,
                             n_samples=n)
    assert res.converged.all()
    exact = _exact_class_law(law, np.array(parity))
    vals, counts = np.unique(res.values.astype(np.int64), axis=0, return_counts=True)
    emp = {tuple(map(int, v)): c / n for v, c in zip(vals, counts)}
    assert set(emp) <= set(exact)
    for x, p in exact.items():
        assert abs(emp.get(x, 0.0) - p) <= 5 * np.sqrt(p * (1 - p) / n), (x, p, emp)


def xor_backward_sample(spec, parity, horizon, seed, n_samples):
    """``backward_sample`` for at most one slot block of samples, one sample
    and one step at a time, block ends found by carrying the XOR of the
    letters' parity codes."""
    r1 = spec.r1
    rng = np.random.default_rng(seed)
    moving = rc._moving_law(spec.law, r1)
    xs = np.arange(max(2, *(int(m.max_support()) for m in spec.reflected_marginals())) + 1)
    cls, cols = np.array(parity), np.arange(r1)
    on_class = (xs[:, None] & 1) == cls
    b = [np.tile(xs[:, None], (1, r1)) for _ in range(n_samples)]
    par = [0] * n_samples
    values = np.empty((n_samples, r1))
    converged = np.zeros(n_samples, dtype=bool)
    blocks = np.zeros(n_samples, dtype=np.int64)
    live, step = list(range(n_samples)), 0
    while live:
        step += 1
        done = set()
        for s, y in zip(live, moving.sample(rng, len(live)).astype(np.int64)):
            b[s] = b[s][np.abs(xs[:, None] - y), cols]
            par[s] ^= int(rc._parity_codes(y, r1))
            top = b[s][cls, cols]
            if par[s] == 0:
                blocks[s] += 1
                coal = bool(((b[s] == top) | ~on_class).all())
                if coal or blocks[s] == horizon:
                    values[s], converged[s] = top, coal
                    done.add(s)
                    continue
            if step >= horizon * 64 * 2 ** r1:
                values[s] = top
                done.add(s)
        live = [s for s in live if s not in done]
    return values, converged, blocks


@pytest.mark.parametrize("law, parity, horizon, n", [
    (SPEC_12.law, [1], 3, 300),
    (ms.JointMeasure.product((1, 0, 0, 0), [ms.Measure1D.lattice({0: .3, 1: .2, 3: .5})]),
     [0], 2, 300),
    (ms.JointMeasure.product((1, 0, 0, 0), [ms.Measure1D.lattice({1: .01, 2: .99})]),
     [0], 1, 2000),                             # the draw guard fires
    (ms.JointMeasure.finite((2, 0, 1, 0), [((2, 3, 1), .4), ((3, 2, -1), .3),
                                           ((0, 0, 2), .1), ((1, 2, 0), .2)]),
     [1, 0], 4, 300),
], ids=["fair-odd", "zero-letter", "guard", "finite-2d-free"])
def test_backward_sample_equals_the_xor_of_codes(law, parity, horizon, n):
    # block ends read from b[0] equal block ends of the carried increment code
    spec = rc.WalkSpec(law)
    for seed in range(3):
        res = rc.backward_sample(spec, parity, horizon, seed, n_samples=n)
        values, converged, blocks = xor_backward_sample(spec, parity, horizon, seed, n)
        assert res.guard_fired == (n == 2000)
        assert np.array_equal(res.values, values)
        assert np.array_equal(res.converged, converged)
        assert np.array_equal(res.blocks_used, blocks)


def test_backward_guard_shows_in_result():
    # long odd-started blocks exhaust the draw guard of a one-block horizon
    res = rc.backward_sample(spec_1d({1: 0.01, 2: 0.99}), [0], horizon=1, rng=0,
                             n_samples=2000)
    assert res.guard_fired
    assert not res.converged.all()


def test_backward_guard_counts_the_draws_of_each_sample(monkeypatch):
    # 64 samples are walked at once, so most start long after the first; a
    # sample is still spent after its own 128 draws: a one-block horizon is
    # spent exactly when an odd first letter is followed by 127 even ones
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 3 * 64)
    n = 20_000
    res = rc.backward_sample(spec_1d({1: 0.01, 2: 0.99}), [0], horizon=1, rng=0,
                             n_samples=n)
    spent = np.count_nonzero(res.blocks_used == 0)
    p = 0.01 * 0.99 ** 127
    assert res.guard_fired and not res.converged[res.blocks_used == 0].any()
    assert abs(spent - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (spent, n * p)


def test_word_text_format():
    # the CLI prints words this way: one line for 1-D words, one per letter else
    assert rc.ContractionWord(np.array([3, -1, 2])).to_text() == "3 -1 2"
    assert rc.ContractionWord(np.array([[1, 2.5], [3, -4]])).to_text() == "1 2.5\n3 -4"


def test_trajectory_csv_roundtrip(tmp_path):
    traj = rc.simulate(SPEC_12, [0.0], 20, 3)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], traj.states[:, 0])
