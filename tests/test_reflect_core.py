"""Tests for the simulation core, contraction words and backward sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectwalk import exact_1d as ex
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
    pts = law.support_points()
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
    # k induced blocks composed in order reproduce the walk at the k-th
    # parity return, for the same seed
    seed = 314
    rng = np.random.default_rng(seed)
    words = [rc.induced_word(SPEC_12, rng) for _ in range(5)]
    total = words[0]
    for w in words[1:]:
        total = total.then(w)
    times, states = rc.parity_return_times(SPEC_12, [4.0], 5,
                                           np.random.default_rng(seed))
    assert times[-1] == len(total)
    assert total.evaluate(4.0) == states[-1][0]


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


def test_even_coupling_coalesces():
    frac = rc.coupled_coalescence_fraction(SPEC_12, [0.0], [2.0], steps=200,
                                           runs=10_000,
                                           rng=np.random.default_rng(3))
    assert frac > 0.99


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
    # 4, out of the default window [0, 2], and the even-class stationary law
    # puts several percent of its mass above 2, which no sample confined to
    # the window can carry
    spec = spec_1d({-1: 0.3, 2: 0.7})
    res = rc.backward_sample(spec, [0], horizon=2000, rng=11, n_samples=5000)
    assert res.escaped.any()
    assert not res.converged.any()
    states = rc.simulate(spec, [0], 200_000, 12).states[1000:, 0]
    even = states[states % 2 == 0]
    assert np.mean(even > 2) > 0.03


def test_backward_random_nonneg_laws_match_exact_invariant_law():
    rng = np.random.default_rng(31)
    for _ in range(3):
        m = random_nonneg_lattice(rng, max_top=8)
        res = rc.backward_sample(rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0), [m])),
                                 [0], horizon=500, rng=rng, n_samples=20_000)
        assert res.converged.all() and not res.escaped.any() and not res.guard_fired
        nu = {x: v for x, v in ex.invariant_measure_nonneg(m).as_dict().items()
              if x % 2 == 0}
        vals, counts = np.unique(res.values[:, 0].astype(np.int64), return_counts=True)
        emp = dict(zip(vals.tolist(), (counts / counts.sum()).tolist()))
        total = sum(nu.values())
        tv = 0.5 * sum(abs(emp.get(x, 0.0) - v / total) for x, v in nu.items())
        assert set(emp) <= set(nu) and tv < 0.02


def test_backward_guard_shows_in_result():
    # long odd-started blocks exhaust the draw guard of a one-block horizon
    res = rc.backward_sample(spec_1d({1: 0.01, 2: 0.99}), [0], horizon=1, rng=0,
                             n_samples=2000)
    assert res.guard_fired
    assert not res.converged.all()


def test_word_text_roundtrip():
    w = rc.ContractionWord(np.array([3, -1, 2]))
    assert w.to_text() == "3 -1 2"
    back = rc.ContractionWord.from_text(w.to_text())
    assert np.array_equal(back.letters, w.letters)
    w2 = rc.ContractionWord(np.array([[1, 2], [3, -4]]))
    back2 = rc.ContractionWord.from_text(w2.to_text())
    assert np.array_equal(back2.letters, w2.letters)


def test_trajectory_csv_roundtrip(tmp_path):
    traj = rc.simulate(SPEC_12, [0.0], 20, 3)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], traj.states[:, 0])
