"""Tests for the Monte Carlo recurrence laboratory."""

import math

import numpy as np
import pytest

from reflectwalk import exact_1d as ex
from reflectwalk import lattice_structure as ls
from reflectwalk import measures as ms
from reflectwalk import reflect_core as rc
import reflectwalk.diagnostics as dg


PM1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
M12 = ms.Measure1D.lattice({1: 0.5, 2: 0.5})


def spec_of(*factors, dims=None):
    dims = dims or (len(factors), 0, 0, 0)
    return rc.WalkSpec(ms.JointMeasure.product(dims, list(factors)))


# ---------------------------------------------------------------------------
# occupation vs invariant law
# ---------------------------------------------------------------------------

def test_occupation_matches_exact_invariant_law():
    nu = ex.invariant_measure_nonneg(M12)
    tv, occ = dg.occupation_vs_invariant(spec_of(M12), nu, 300_000, 10_000, 42)
    assert tv < 0.02
    assert set(occ) == {(0,), (1,), (2,)}


def test_occupation_two_cycle_exact():
    m = ms.Measure1D.lattice({1: 1.0})
    nu = ex.invariant_measure_nonneg(m)
    tv, occ = dg.occupation_vs_invariant(spec_of(m), nu, 100_000, 0, 0)
    assert tv < 1e-4  # deterministic alternation, off only by edge effects


def test_occupation_support_matches_essential_class():
    from reflectwalk import lattice_structure as ls
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    reports = ls.essential_classes(j, window=10)
    expected = reports[0].member_set()
    # uniform reference on the class only for support comparison
    ref = {k: 1.0 / len(expected) for k in expected}
    tv, occ = dg.occupation_vs_invariant(rc.WalkSpec(j), ref, 100_000, 1000, 3)
    assert set(occ) == expected


def test_occupation_refuses_escaping_walk():
    sub = ms.subordinated(0.3)
    with pytest.raises(ms.MeasureError):
        dg.occupation_vs_invariant(spec_of(sub), {(0,): 1.0}, 20_000, 1000, 1)


def test_occupation_refuses_continuous_reference():
    nu = ex.invariant_measure_nonneg(ms.uniform(0, 1))
    with pytest.raises(ms.MeasureError, match="lattice"):
        dg.occupation_vs_invariant(spec_of(ms.uniform(0, 1)), nu, 2000, 100, 1)


# ---------------------------------------------------------------------------
# return-time evidence
# ---------------------------------------------------------------------------

def test_positive_recurrent_evidence():
    stats, ev = dg.return_time_stats(spec_of(M12), [0.0], ((0.0,), 0.0),
                                     100_000, 16, 7)
    assert ev.category == "positive_evidence"
    m = np.array(ev.mean_return_times)
    assert np.all(np.abs(m / m[0] - 1.0) < 0.1)


def test_null_recurrent_evidence():
    stats, ev = dg.return_time_stats(spec_of(PM1), [0.0], ((0.0,), 0.0),
                                     100_000, 16, 7)
    assert ev.category == "null_evidence"
    assert ev.mean_return_times[-1] / ev.mean_return_times[0] >= 1.5


def test_transient_evidence_subordinated():
    stats, ev = dg.return_time_stats(spec_of(ms.subordinated(0.3)), [0.0],
                                     ((0.0,), 0.0), 200_000, 16, 7)
    assert ev.category == "transient_evidence"
    assert ev.escape_fraction >= 0.9


def test_tiny_budget_refused():
    with pytest.raises(ms.MeasureError):
        dg.return_time_stats(spec_of(M12), [0.0], ((0.0,), 0.0), 500, 4, 7)


def test_max_displacement_covers_every_step():
    # replay the experiment's increment stream (chunks of 8192 steps x 4
    # replicas) through the literal fold and take the maximum over all steps
    law = ms.JointMeasure.product((1, 0, 0, 0), [PM1])
    stats, _ = dg.return_time_stats(rc.WalkSpec(law), [0.0], ((0.0,), 0.0),
                                    20_000, 4, 3)
    rng = np.random.default_rng(3)
    x = np.zeros((4, 1))
    peak = 0.0
    for b in (8192, 8192, 3616):
        draws = law.sample(rng, b * 4).reshape(b, 4, 1)
        for t in range(b):
            x = np.abs(x - draws[t])
            peak = max(peak, float(x.max()))
    assert stats.max_displacement == peak
    assert peak == 172.0


def test_return_experiment_without_records_counts_the_same():
    law = ms.JointMeasure.product((1, 0, 0, 0), [PM1])

    def at_zero(x, z):
        return x[..., 0] == 0

    full = dg._run_return_experiment(law, np.zeros(1), at_zero, 20_000, 4, 5)
    bare = dg._run_return_experiment(law, np.zeros(1), at_zero, 20_000, 4, 5,
                                     record=False)
    assert bare[0] == full[0] and bare[1:] == (None, None, None)
    assert len(full[1]) > 0 and full[2] > 0 and full[3] >= len(full[1])
    # the nested budgets as plain ints: results hold Python numbers, not
    # numpy scalars
    assert full[0].budgets == [2500, 5000, 10_000, 20_000]
    assert all(type(b) is int for b in full[0].budgets)


def test_evidence_deterministic_given_seed():
    a = dg.return_time_stats(spec_of(PM1), [0.0], ((0.0,), 0.0), 50_000, 8, 99)
    b = dg.return_time_stats(spec_of(PM1), [0.0], ((0.0,), 0.0), 50_000, 8, 99)
    assert a[1] == b[1]
    assert np.array_equal(a[0].return_times, b[0].return_times)


def test_return_times_keep_a_capped_prefix_and_count_every_visit():
    stats, _ = dg.return_time_stats(spec_of(M12), [0.0], ((0.0,), 0.0), 40_000, 2, 11)
    times = stats.return_times
    # M12 visits 0 at a third of its steps: far more than the cap
    assert len(times) == dg.RETURN_TIMES_KEPT < stats.visits
    assert stats.visits == pytest.approx(40_000 / 3, rel=0.05)
    assert np.all(np.diff(times) > 0) and times[0] >= 1
    assert stats.seed == 11
    gen = np.random.default_rng(11)
    assert dg.return_time_stats(spec_of(M12), [0.0], ((0.0,), 0.0), 4000, 2, gen)[0].seed is None
    # a short run keeps every visit
    short, _ = dg.return_time_stats(spec_of(M12), [0.0], ((0.0,), 0.0), 3000, 2, 11)
    assert len(short.return_times) == short.visits


# ---------------------------------------------------------------------------
# symmetrization identity
# ---------------------------------------------------------------------------

def test_symmetrization_exact_one_dimensional():
    j = ms.JointMeasure.product((0, 0, 1, 0), [PM1])
    # law of X_2 from 0 is {0: 1/2, 2: 1/2}, equal to the law of |S_2|
    assert dg.symmetrization_check(j, [0.0], 2, "exact_enumeration") < 1e-15


def test_symmetrization_zero_horizon():
    j = ms.JointMeasure.product((0, 0, 1, 0), [PM1])
    assert dg.symmetrization_check(j, [3.0], 0, "exact_enumeration") == 0.0
    # Monte Carlo mode keeps its (tv, se) shape
    assert dg.symmetrization_check(j, [3.0], 0, "monte_carlo", rng=1) == (0.0, 0.0)


@pytest.mark.parametrize("n", [0, 2])
def test_symmetrization_rejects_unknown_mode(n):
    j = ms.JointMeasure.product((0, 0, 1, 0), [PM1])
    with pytest.raises(ms.MeasureError, match="unknown mode"):
        dg.symmetrization_check(j, [0.0], n, "bogus")


@pytest.mark.parametrize("mode", ["exact_enumeration", "monte_carlo"])
def test_symmetrization_rejects_negative_horizon(mode):
    j = ms.JointMeasure.product((0, 0, 1, 0), [PM1])
    with pytest.raises(ms.MeasureError, match="horizon"):
        dg.symmetrization_check(j, [0.0], -1, mode, rng=1)


def test_symmetrization_exact_two_dimensional():
    j = ms.JointMeasure.product((0, 0, 2, 0), [PM1, PM1])
    for n in (3, 6):
        assert dg.symmetrization_check(j, [1.0, 2.0], n,
                                       "exact_enumeration") < 1e-12


def test_symmetrization_blocks_merge_to_the_one_block_histogram(monkeypatch):
    # a finite law draws one stream at any block size, so the merged block
    # tables hold the same states and masses as one table
    j = ms.JointMeasure.finite((0, 0, 2, 0), [((a, b), 0.25) for a in (-1, 1) for b in (-2, 2)])
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 1 << 30)
    tv, se = dg.symmetrization_check(j, [1.0, 0.0], 5, "monte_carlo", rng=7, samples=3000)
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)        # 12 samples per block
    tv_blocks, se_blocks = dg.symmetrization_check(j, [1.0, 0.0], 5, "monte_carlo", rng=7,
                                                   samples=3000)
    assert se_blocks == se and tv_blocks == pytest.approx(tv, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("budget", [None, 1 << 13])
def test_symmetrization_holds_the_block_budget(monkeypatch, traced_peak, budget):
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    pm2 = ms.Measure1D.lattice({-2: .25, -1: .25, 1: .25, 2: .25})
    j = ms.JointMeasure.product((0, 0, 2, 0), [PM1, pm2])
    (tv, se), peak = traced_peak(lambda: dg.symmetrization_check(
        j, [1, 0], 6, "monte_carlo", rng=3, samples=100_000))
    assert tv <= 3 * se
    assert peak <= 16 * 8 * ms._BLOCK_DRAWS


def test_exact_symmetrization_holds_the_block_budget(traced_peak):
    # 2^20 words of 20 steps, enumerated _BLOCK_DRAWS // 20 at a time
    j = ms.JointMeasure.product((0, 0, 1, 0), [PM1])
    d, peak = traced_peak(lambda: dg.symmetrization_check(j, [1.0], 20, "exact_enumeration"))
    assert d < 1e-12
    assert peak <= 16 * 8 * ms._BLOCK_DRAWS


def test_exact_symmetrization_blocks_merge_to_the_one_block_discrepancy(monkeypatch):
    # one block's table alone is far from zero (its words' reflected and free
    # states differ); only the merged tables of all blocks cancel
    pm2 = ms.Measure1D.lattice({-2: .25, -1: .25, 1: .25, 2: .25})
    j = ms.JointMeasure.product((0, 0, 2, 0), [PM1, pm2])
    d = dg.symmetrization_check(j, [1.0, 2.0], 5, "exact_enumeration")
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)        # 12 words per block
    d_blocks = dg.symmetrization_check(j, [1.0, 2.0], 5, "exact_enumeration")
    assert d < 1e-12 and d_blocks == pytest.approx(d, abs=1e-15)


def test_exact_symmetrization_of_the_point_mass_at_long_horizons():
    # one word of 100 steps: more digits than an array has dimensions
    j = ms.JointMeasure.product((0, 0, 1, 0), [ms.Measure1D.lattice({0: 1.0})])
    assert dg.symmetrization_check(j, [1.0], 100, "exact_enumeration") == 0.0


def test_symmetrization_rejects_asymmetric():
    j = ms.JointMeasure.finite((0, 0, 2, 0), [((-1, 1), 0.5), ((1, -1), 0.5)])
    with pytest.raises(ms.MeasureError):
        dg.symmetrization_check(j, [0.0, 0.0], 2, "exact_enumeration")


def test_sign_rule_coupling_pathwise_identity():
    # signed walk with the reflecting sign rule: |W_n| equals the reflected
    # walk driven by the same increments, step for step
    rng = np.random.default_rng(123)
    for _ in range(20):
        y = PM1.sample(rng, 200)
        coins = rng.integers(0, 2, size=200) * 2 - 1
        w = 7.0
        x = 7.0
        for k in range(200):
            e = -1.0 if w > 0 else (1.0 if w < 0 else float(coins[k]))
            w = w + e * y[k]
            x = abs(x - y[k])
            assert abs(w) == x


# ---------------------------------------------------------------------------
# product-set occupation bound
# ---------------------------------------------------------------------------

def test_cesaro_bound_product_of_bounded_walks():
    nu = ex.invariant_measure_nonneg(M12)
    out = dg.cesaro_lower_bound(nu, nu, {0, 1, 2}, {0, 1, 2},
                                spec_of(M12, M12), 200_000, 5)
    assert out["bound"] == pytest.approx(1.0)
    assert out["empirical"] >= 0.97
    assert out["satisfied"]


def test_cesaro_bound_empty_set_not_asserted():
    nu = ex.invariant_measure_nonneg(M12)
    out = dg.cesaro_lower_bound(nu, nu, set(), set(),
                                spec_of(M12, M12), 10_000, 5)
    assert out["bound"] == pytest.approx(-1.0)
    assert out["satisfied"] is None


def test_cesaro_bound_finite_support_example():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    m1 = j.marginal(0)
    nu1 = ex.invariant_measure_nonneg(m1)
    a = {0, 1, 2, 3}
    bound = nu1.mass_of(a) / nu1.total_mass * 2 - 1
    assert bound == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reflected plus free
# ---------------------------------------------------------------------------

def test_reflected_plus_free_centred_vs_drifted():
    centred = spec_of(M12, PM1, dims=(1, 0, 1, 0))
    ev, wald = dg.reflected_plus_free_experiment(centred, 100_000, 24, 11,
                                                 wald_cycles=20_000)
    assert ev.category == "null_evidence"
    assert wald["passed"]
    drift = ms.Measure1D.lattice({-1: 0.4, 1: 0.6})
    drifted = spec_of(M12, drift, dims=(1, 0, 1, 0))
    ev2, wald2 = dg.reflected_plus_free_experiment(drifted, 100_000, 24, 11,
                                                   wald_cycles=20_000)
    assert ev2.category == "transient_evidence"
    assert wald2["passed"]
    # the identity itself: mean Z per cycle ~ mean cycle x drift
    assert wald2["mean_z_per_cycle"][0] == pytest.approx(
        wald2["mean_cycle_length"] * 0.2, abs=0.05)


def test_reflected_plus_free_requires_free_part():
    with pytest.raises(ms.MeasureError):
        dg.reflected_plus_free_experiment(spec_of(M12), 10_000, 8, 1)


# ---------------------------------------------------------------------------
# local return-probability exponent probes
# ---------------------------------------------------------------------------

def test_null_probe_marginal_exponent():
    out = dg.product_null_recurrence_probe(
        [PM1, PM1], [0, 0], [2 ** k for k in range(6, 13)], 100_000, rng=9)
    for f in out["factors"]:
        assert -0.65 < f["slope"] < -0.35
    joint = out["joint"]["slope"]
    s1 = out["factors"][0]["slope"]
    s2 = out["factors"][1]["slope"]
    se = 3 * (out["factors"][0]["slope_se"] + out["factors"][1]["slope_se"]
              + out["joint"]["slope_se"])
    assert abs(joint - (s1 + s2)) < max(se, 0.15)


def test_null_probe_general_symmetric_law():
    m = ms.Measure1D.lattice({-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25})
    out = dg.product_null_recurrence_probe(
        [m], [0], [2 ** k for k in range(6, 11)], 20_000, rng=5)
    assert -0.8 < out["factors"][0]["slope"] < -0.25


def test_null_probe_general_centred_law():
    # centred but not symmetric: the reflected walk itself is simulated
    m = ms.Measure1D.lattice({-1: 2 / 3, 2: 1 / 3})
    out = dg.product_null_recurrence_probe(
        [m], [0], [2 ** k for k in range(6, 11)], 20_000, rng=5)
    assert -0.8 < out["factors"][0]["slope"] < -0.25


def test_null_probe_equal_factors_share_sum_levels(monkeypatch):
    # two equal laws (distinct objects) get one sampler: only the first
    # factor grows convolution levels, as many as a one-factor probe does
    grown = []
    grow = ms.LatticeSumSampler._grow

    def counting_grow(self):
        grown.append(id(self))
        grow(self)

    monkeypatch.setattr(ms.LatticeSumSampler, "_grow", counting_grow)
    grid = [2 << i for i in range(6)]
    dg.product_null_recurrence_probe([PM1], [0], grid, 2000, rng=3)
    alone = len(grown)
    grown.clear()
    dg.product_null_recurrence_probe([PM1, ms.Measure1D.lattice({-1: 0.5, 1: 0.5})],
                                     [0, 0], grid, 2000, rng=3)
    assert alone > 0 and len(grown) == alone and len(set(grown)) == 1


@pytest.mark.parametrize("grid", [[], [0, 64, 128, 256], [64, 64, 128]],
                         ids=["empty", "zero_time", "two_distinct"])
def test_null_probe_refuses_a_short_or_nonpositive_grid(grid):
    with pytest.raises(ms.MeasureError, match="n_grid"):
        dg.product_null_recurrence_probe([PM1], [0], grid, 100, rng=1)


def test_null_probe_rejects_drift():
    m = ms.Measure1D.lattice({-1: 0.4, 1: 0.6})
    with pytest.raises(ms.MeasureError, match="centred"):
        dg.product_null_recurrence_probe([m], [0], [64, 128], 1000, rng=1)


# ---------------------------------------------------------------------------
# dimension probe
# ---------------------------------------------------------------------------

def test_dimension_probe_contrast():
    j3 = ms.JointMeasure.product((3, 0, 0, 0), [PM1] * 3)
    j2 = ms.JointMeasure.product((2, 0, 0, 0), [PM1] * 2)
    r3 = dg.dimension_transience_probe(j3, 200_000, 128, 2024)
    r2 = dg.dimension_transience_probe(j2, 200_000, 128, 2024)
    assert r3["escape_fraction"] > r2["escape_fraction"] + 0.2
    assert min(r3["min_distance_after_burn_in"]) >= 0


def test_dimension_probe_one_dimensional_returns():
    j1 = ms.JointMeasure.product((1, 0, 0, 0), [PM1])
    r1 = dg.dimension_transience_probe(j1, 100_000, 64, 11)
    assert r1["escape_fraction"] < 0.2


def test_dimension_probe_rejects_asymmetric():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 1), 0.5), ((1, -1), 0.5)])
    with pytest.raises(ms.MeasureError):
        dg.dimension_transience_probe(j, 10_000, 8, 1)


def test_dimension_probe_refuses_continuous_coordinates():
    j = ms.JointMeasure.product((1, 1, 0, 0), [PM1, ms.uniform(-1.0, 1.0)])
    with pytest.raises(ms.MeasureError):
        dg.dimension_transience_probe(j, 10_000, 8, 1)


def test_dimension_probe_refuses_unbounded_laws():
    j = ms.JointMeasure.product((2, 0, 0, 0), [PM1, ms.subordinated(0.6)])
    with pytest.raises(ms.MeasureError):
        dg.dimension_transience_probe(j, 10_000, 8, 1)


def _exact_min_distance_law(j: ms.JointMeasure, budget, burn):
    """Law of the least post-burn-in sup distance of the free walk from 0.

    Dynamic programming over (position, running minimum), the minimum taken
    over the positions after steps ``burn + 1 .. budget``.  Entry ``m`` of
    the result is ``P[min = m]``; the last entry is "never observed".
    """
    pts, probs = j.atoms()
    pts = pts.astype(int)
    top = budget * int(np.abs(pts).max())       # no walk leaves [-top, top]^d
    grid = (2 * top + 1,) * j.dim
    dist = np.abs(np.indices(grid) - top).max(axis=0)
    law = np.zeros(grid + (top + 2,))
    law[(top,) * j.dim + (top + 1,)] = 1.0
    cells = np.arange(dist.size).reshape(grid)[..., None] * (top + 2)
    for step in range(1, budget + 1):
        law = sum(p * np.roll(law, tuple(pt), axis=tuple(range(j.dim)))
                  for pt, p in zip(pts, probs))
        if step > burn:
            m = np.minimum(np.arange(top + 2), dist[..., None])
            law = np.bincount((cells + m).ravel(), law.ravel(),
                              minlength=law.size).reshape(law.shape)
    return law.reshape(-1, top + 2).sum(axis=0)


# mostly +-2: a jump rule that took the reach for 1 lands inside the window
PM12 = ms.Measure1D.lattice({-2: 0.4, -1: 0.1, 1: 0.1, 2: 0.4})


@pytest.mark.parametrize("j", [
    ms.JointMeasure.product((1, 0, 0, 0), [PM1]),
    ms.JointMeasure.product((2, 0, 0, 0), [PM1, PM1]),
    ms.JointMeasure.product((1, 0, 0, 0), [PM12]),
    ms.JointMeasure.finite((2, 0, 0, 0), [((1, 1), .05), ((1, -1), .05), ((-1, 1), .05),
                                          ((-1, -1), .05), ((2, 0), .2), ((-2, 0), .2),
                                          ((0, 2), .2), ((0, -2), .2)]),
], ids=["pm1_1d", "pm1_2d", "reach2_1d", "joint_2d"])
def test_dimension_probe_matches_exact_law(j):
    budget, burn, radius, n = 14, 3, 1.0, 20_000
    res = dg.dimension_transience_probe(j, budget, n, 99, window_radius=radius,
                                        burn_in=burn)
    p = _exact_min_distance_law(j, budget, burn)
    mins = np.asarray(res["min_distance_after_burn_in"])
    assert np.isfinite(mins).all()
    f = np.bincount(mins.astype(int), minlength=len(p)) / n
    assert len(f) == len(p) and not f[p == 0].any()      # no impossible minimum
    # minima expected fewer than 10 times are pooled into one bin
    common = p * n >= 10
    p = np.append(p[common], p[~common].sum())
    f = np.append(f[common], f[~common].sum())
    assert np.all(np.abs(f - p) <= 5 * np.sqrt(p * (1 - p) / n))
    assert res["escape_fraction"] == np.mean(mins > radius)
    # the walk skipped steps: fewer draws than one burn-in jump plus single steps
    assert res["jumps"] < n * (1 + budget - burn)


# ---------------------------------------------------------------------------
# subordinated machinery
# ---------------------------------------------------------------------------

def test_sum_sampler_matches_brute_force():
    alpha = 0.7
    ss = dg.SubordinatorSumSampler(alpha)
    fast = ss.sample_sum(64, 50_000, np.random.default_rng(5))
    sub = ms.SubordinatorAlpha(alpha)
    brute = sub.sample(np.random.default_rng(6), 64 * 50_000)
    brute = brute.reshape(50_000, 64).sum(axis=1)
    for t in (150, 300, 1000, 10_000):
        pf = (fast > t).mean()
        pb = (brute > t).mean()
        se = math.sqrt(max(pb * (1 - pb), 1e-12) / 50_000) * math.sqrt(2)
        assert abs(pf - pb) < 5 * se, (t, pf, pb)


def test_sum_sampler_minimum_value():
    ss = dg.SubordinatorSumSampler(0.5)
    vals = ss.sample_sum(32, 1000, np.random.default_rng(1))
    assert vals.min() >= 32  # every increment is at least 1


def test_sum_sampler_sums_beyond_two_to_the_sixteen():
    # a sum of 2^17 increments has the law of two independent sums of 2^16
    ss = dg.SubordinatorSumSampler(0.7)
    rng = np.random.default_rng(12)
    n = 20_000
    whole = ss.sample_sum(1 << 17, n, rng)
    halves = ss.sample_sum(1 << 16, n, rng) + ss.sample_sum(1 << 16, n, rng)
    assert whole.min() >= 1 << 17
    for t in np.quantile(halves, [0.1, 0.5, 0.9, 0.99]):
        pw, ph = (whole > t).mean(), (halves > t).mean()
        assert abs(pw - ph) < 5 * math.sqrt(2 * ph * (1 - ph) / n), (t, pw, ph)


@pytest.mark.parametrize("budget", [None, 1 << 13])
def test_sum_sampler_holds_the_block_budget(monkeypatch, traced_peak, budget):
    # about 10^6 large increments: 20 000 sums of 2^14 at tail(4096) = 3.1e-3
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    ss = dg.SubordinatorSumSampler(0.6)
    ss.sample_sum(1 << 14, 10, np.random.default_rng(1))        # builds the head levels
    assert 20_000 * (1 << 14) * ss.q_tail > 10 ** 6
    out, peak = traced_peak(lambda: ss.sample_sum(1 << 14, 20_000, np.random.default_rng(2)))
    assert out.shape == (20_000,) and out.min() >= 1 << 14
    assert peak <= out.nbytes + 16 * 8 * ms._BLOCK_DRAWS


def test_sum_sampler_rows_and_tails_in_blocks_keep_the_law(monkeypatch):
    # blocks of 64 rows and 64 large values: the row sums stay those of the
    # increments, checked against brute-force sums of tau draws
    n, m = 20_000, 256
    brute = ms.SubordinatorAlpha(0.4).sample(np.random.default_rng(4), n * m)
    brute = brute.reshape(n, m).sum(axis=1)
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)
    fast = dg.SubordinatorSumSampler(0.4).sample_sum(m, n, np.random.default_rng(3))
    assert fast.min() >= m
    for t in np.quantile(brute, [0.1, 0.5, 0.9, 0.99]):
        pf, pb = (fast > t).mean(), (brute > t).mean()
        assert abs(pf - pb) < 5 * math.sqrt(2 * pb * (1 - pb) / n), (t, pf, pb)


def test_subordinated_exponent_probe_small_scale():
    out = dg.subordinated_return_exponent(0.7, rng=17, n_max=2 ** 12,
                                          replicas=100_000)
    assert abs(out["slope"] - out["expected_exponent"]) < 0.15


def test_categorize_rules_are_pure():
    ev1 = dg.categorize([10, 20, 40, 80], [5, 10, 20, 40],
                        [100, 200, 400, 800], 0.0)
    ev2 = dg.categorize([10, 20, 40, 80], [5, 10, 20, 40],
                        [100, 200, 400, 800], 0.0)
    assert ev1 == ev2
    assert ev1.category == "positive_evidence"
    ev3 = dg.categorize([10, 20, 40, 80], [4, 5, 6, 7],
                        [100, 200, 400, 800], 0.0)
    assert ev3.category == "null_evidence"
    ev4 = dg.categorize([10, 20, 40, 80], [0, 0, 0, 0],
                        [100, 200, 400, 800], 0.95)
    assert ev4.category == "transient_evidence"


# ---------------------------------------------------------------------------
# empty sizes
# ---------------------------------------------------------------------------

NU12 = ex.invariant_measure_nonneg(M12)
PLANE = ms.JointMeasure.product((2, 0, 0, 0), [PM1, PM1])

EMPTY_SIZES = {   # name: (the size the message names, the call)
    "return_time_replicas": ("replicas", lambda: dg.return_time_stats(
        spec_of(M12), [0], ([0], 0), 2000, 0, 1)),
    "equivalence_replicas": ("replicas", lambda: ex.symmetric_equivalence_check(
        PM1, 2000, 0.5, 1, replicas=0)),
    "cesaro_steps": ("steps", lambda: dg.cesaro_lower_bound(
        NU12, NU12, {0}, {0}, spec_of(M12, M12), 0, 1)),
    "symmetrization_samples": ("samples", lambda: dg.symmetrization_check(
        PLANE, [0, 0], 2, "monte_carlo", 1, samples=0)),
    "occupation_burn_in": ("burn_in", lambda: dg.occupation_vs_invariant(
        spec_of(M12), NU12, 1000, 1000, 1)),
    "null_probe_replicas": ("replicas", lambda: dg.product_null_recurrence_probe(
        [PM1], [0], [64, 128, 256], 0, 1)),
    "dimension_replicas": ("replicas", lambda: dg.dimension_transience_probe(
        PLANE, 10_000, 0, 1)),
    # the budget must exceed the burn-in (1000 by default)
    "dimension_budget": ("budget", lambda: dg.dimension_transience_probe(
        PLANE, 500, 4, 1)),
    "dimension_budget_at_burn_in": ("budget", lambda: dg.dimension_transience_probe(
        PLANE, 50, 16, 3, burn_in=50)),
    "subordinated_replicas": ("replicas", lambda: dg.subordinated_return_exponent(
        0.6, 1, n_max=1024, replicas=0)),
    "wald_cycles": ("wald_cycles", lambda: dg.reflected_plus_free_experiment(
        spec_of(M12, PM1, dims=(1, 0, 1, 0)), 2000, 4, 1, wald_cycles=0)),
    # one cycle leaves no standard error
    "wald_one_cycle": ("wald_cycles", lambda: dg.reflected_plus_free_experiment(
        spec_of(M12, PM1, dims=(1, 0, 1, 0)), 2000, 4, 1, wald_cycles=1)),
    "backward_horizon": ("horizon", lambda: rc.backward_sample(
        spec_of(M12), [0], 0, 1)),
    "backward_samples": ("n_samples", lambda: rc.backward_sample(
        spec_of(M12), [0], 10, 1, n_samples=-1)),
    "ladder_samples": ("samples", lambda: ex.ladder_monte_carlo(PM1, 0, 1)),
    "lifted_samples": ("samples", lambda: ex.lifted_invariant_measure(
        M12, ex.ladder_exact_skip_free(M12), {0}, 0, 1)),
    # one sample leaves no standard error
    "lifted_one_sample": ("samples", lambda: ex.lifted_invariant_measure(
        M12, ex.ladder_exact_skip_free(M12), {0}, 1, 1)),
}


@pytest.mark.parametrize("size, call", EMPTY_SIZES.values(), ids=EMPTY_SIZES.keys())
def test_empty_sizes_raise_measure_error(size, call):
    with pytest.raises(ms.MeasureError, match=size):
        call()


BAD_SIZES = {   # name: (the size the message names, the call)
    "subordinated_chunk_zero": ("chunk", lambda: dg.subordinated_return_exponent(
        0.6, 1, n_max=1024, replicas=10, chunk=0)),
    "subordinated_chunk": ("chunk", lambda: dg.subordinated_return_exponent(
        0.6, 1, n_max=1024, replicas=10, chunk=-1)),
    "parity_count": ("count", lambda: rc.parity_return_times(spec_of(M12), [0], -1, 1)),
    "contraction_n": ("n", lambda: rc.contraction_distance_profile(
        spec_of(M12), [0], [1], -1, 1)),
    "witness_range": ("verified_range", lambda: ls.constant_map_witness(
        M12, verified_range=-1)),
    # two's-complement bits of a negative count would select every level
    "lattice_sum_counts": ("counts", lambda: ms.LatticeSumSampler(PM1).sample(
        [-1, -3, 2], np.random.default_rng(1))),
    "subordinator_sum_counts": ("counts", lambda: dg.SubordinatorSumSampler(0.6).sample_sum(
        -5, 3, np.random.default_rng(1))),
}


@pytest.mark.parametrize("size, call", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_sizes_below_their_least_raise_measure_error(size, call):
    with pytest.raises(ms.MeasureError, match=size):
        call()


BAD_INPUTS = {   # name: (words of the message, the call); none may broadcast
    "return_center_too_long": ("center", lambda: dg.return_time_stats(
        spec_of(M12), [0], ((0, 5), 0), 2000, 2, 1)),
    "return_center_too_short": ("center", lambda: dg.return_time_stats(
        spec_of(M12, M12), [0, 0], ((1,), 0), 2000, 2, 1)),
    "return_center_of_three": ("center", lambda: dg.return_time_stats(
        spec_of(M12, M12), [0, 0], ((0, 0, 0), 1), 2000, 2, 1)),
    "return_radius": ("radius", lambda: dg.return_time_stats(
        spec_of(M12), [0], ((0,), -1), 2000, 2, 1)),
    "symmetrization_start_exact": ("start", lambda: dg.symmetrization_check(
        PLANE, [1], 2, "exact_enumeration")),
    "symmetrization_start_mc": ("start", lambda: dg.symmetrization_check(
        PLANE, [1], 2, "monte_carlo", rng=1, samples=100)),
    "null_target_short": ("target", lambda: dg.product_null_recurrence_probe(
        [PM1, PM1], [0], [64, 128, 256], 10, 1)),
    "null_target_long": ("target", lambda: dg.product_null_recurrence_probe(
        [PM1], [0, 0], [64, 128, 256], 10, 1)),
    # an exact return of a continuous coordinate never comes
    "free_experiment_continuous": ("lattice reflected", lambda: (
        dg.reflected_plus_free_experiment(spec_of(ms.uniform(0, 1), PM1, dims=(0, 1, 1, 0)),
                                          2000, 2, 1, wald_cycles=2))),
    "dimension_radius": ("radius", lambda: dg.dimension_transience_probe(
        PLANE, 10_000, 4, 1, window_radius=-1)),
    "dimension_radius_infinite": ("radius", lambda: dg.dimension_transience_probe(
        PLANE, 10_000, 4, 1, window_radius=math.inf)),
    # E|Y| is infinite for alpha <= 1/2, so the Wald identity has no drift to check
    "free_experiment_no_mean": ("mean", lambda: dg.reflected_plus_free_experiment(
        spec_of(M12, ms.subordinated(0.3), dims=(1, 0, 1, 0)), 2000, 4, 1,
        wald_cycles=2000)),
}


@pytest.mark.parametrize("words, call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_walker_input_raises_measure_error(words, call):
    with pytest.raises(ms.MeasureError, match=words):
        call()


def test_zero_sizes_give_empty_results():
    times, states = rc.parity_return_times(spec_of(M12), [0], 0, 1)
    assert times.shape == (0,) and states.shape == (0, 1)
    assert rc.contraction_distance_profile(spec_of(M12), [0], [1], 0, 1).shape == (0,)
    assert ls.constant_map_witness(M12, verified_range=0).table.shape == (1, 0)
