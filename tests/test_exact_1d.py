"""Tests for invariant measures, recurrence classification and ladders."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from reflectwalk import exact_1d as ex
from reflectwalk import measures as ms


def lattice(d):
    return ms.Measure1D.lattice(d)


from family_helpers import power_tail_family, random_nonneg_lattice


# ---------------------------------------------------------------------------
# invariant measure for nonnegative increments
# ---------------------------------------------------------------------------

def test_invariant_measure_worked_example():
    nu = ex.invariant_measure_nonneg(lattice({1: 0.5, 2: 0.5}))
    assert nu.as_dict() == {0: 0.5, 1: 0.75, 2: 0.25}
    assert nu.total_mass == pytest.approx(1.5, abs=1e-15)


def test_invariant_measure_delta_one_two_state_chain():
    nu = ex.invariant_measure_nonneg(lattice({1: 1.0}))
    assert nu.as_dict() == {0: 0.5, 1: 0.5}


def test_invariant_measure_tailed_law_above_zero():
    # geometric law mu(x) = 2^-x on {1, 2, ...}: atoms up to 20, analytic tail above
    xs = np.arange(1, 21)
    m = ms.Measure1D.lattice_tailed(xs, 0.5 ** xs, tail_fn=lambda x: 0.5 ** x,
                                    pmf_fn=lambda x: 0.5 ** np.asarray(x, dtype=float))
    nu = ex.invariant_measure_nonneg(m)
    assert nu.support.tolist() == list(range(21))
    assert nu.masses[0] == (1.0 - m.prob(0)) / 2.0 == 0.5
    want = [m.prob(x) / 2.0 + m.tail(x) for x in range(1, 21)]   # mu(x)/2 + tail(x)
    assert np.allclose(nu.masses[1:], want, rtol=1e-15, atol=0)
    assert nu.masses[1:3].tolist() == [0.75, 0.375]
    assert nu.total_mass == pytest.approx(2.0, rel=1e-9)      # the mean


def test_mass_of_looks_points_up_in_the_support(traced_peak):
    # a million-point support: no table of it is built per call
    nu = ex.invariant_measure_nonneg(ms.wiener_hopf_log_tail(10 ** 6))
    points = [0, 5, 999_999, 10 ** 6, 10 ** 7, -3, 5]
    mass, peak = traced_peak(lambda: nu.mass_of(points))
    table = nu.as_dict()
    assert mass == sum(table.get(p, 0.0) for p in points)
    assert peak < 64 * 1024
    assert nu.mass_of({10 ** 7}) == 0.0 and nu.mass_of([]) == 0.0


def test_invariant_measure_balance_against_kernel_oracle():
    # brute-force oracle: explicit reflected kernel on {0..N}
    rng = np.random.default_rng(99)
    for _ in range(10):
        m = random_nonneg_lattice(rng)
        p = ex.reflected_kernel_matrix(m)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        nu = ex.invariant_measure_nonneg(m)
        v = np.zeros(p.shape[0])
        v[nu.support] = nu.masses
        assert np.abs(v @ p - v).max() < 1e-12


def _literal_kernel(m, n):
    """``p[x, 0] = mu(x)``, ``p[x, y] = mu(x - y) + mu(x + y)``, term by term."""
    atoms = m.atoms_dict()
    p = np.zeros((n, n))
    for x in range(n):
        p[x, 0] = atoms.get(x, 0.0)
        for y in range(1, n):
            p[x, y] = atoms.get(x - y, 0.0) + atoms.get(x + y, 0.0)
    return p


def test_kernel_matrix_equals_literal_formula():
    # the successor table must add the same atoms in the same order as the
    # formula, so the match is bit for bit, inside, at and beyond N + 1
    rng = np.random.default_rng(123)
    for _ in range(40):
        m = random_nonneg_lattice(rng)
        top = int(m.support[-1])
        assert np.array_equal(ex.reflected_kernel_matrix(m), _literal_kernel(m, top + 1))
        for n in {1, max(1, top // 2), top, top + 1, top + 2, 2 * top + 3}:
            assert np.array_equal(ex.reflected_kernel_matrix(m, n), _literal_kernel(m, n))


@pytest.mark.parametrize("size", [0, -1])
def test_kernel_matrix_rejects_empty_size(size):
    with pytest.raises(ms.MeasureError, match="size must be at least 1"):
        ex.reflected_kernel_matrix(lattice({1: 0.5, 2: 0.5}), size)


def _dense_invariant_masses(m):
    """``mu(x)/2 + mu((x, inf))`` from a dense pmf and its reversed cumsum."""
    top = int(m.support[-1])
    pm = np.zeros(top + 1)
    pm[m.support] = m.probs
    tail = m.tail(top) if m.has_analytic_tail else 0.0
    tails = np.concatenate([np.cumsum(pm[::-1])[::-1][1:], [0.0]]) + tail
    masses = pm / 2.0 + tails
    masses[0] = (1.0 - pm[0]) / 2.0
    return masses


def test_invariant_measure_equals_dense_tail_formula():
    # the tail table read over the atom gaps adds the same terms in the same
    # order as the dense formula: equal bit for bit, sparse and tailed laws too
    rng = np.random.default_rng(21)
    laws = [random_nonneg_lattice(rng, max_top) for max_top in (5, 30, 3000) for _ in range(20)]
    laws += [lattice({1: 0.5, 10**5: 0.5}), lattice({0: 0.2, 3: 0.3, 70: 0.5}),
             ms.wiener_hopf_log_tail(cutoff=50), power_tail_family(2.5, 500)]
    geo = lambda x: 0.4 * 0.5 ** (np.asarray(x, dtype=float) - 9)
    for s0 in (0, 1):
        laws.append(ms.Measure1D.lattice_tailed([s0, 4, 9], [.3, .2, .1], geo,
                                                pmf_fn=lambda x: 0.5 * geo(x)))
    for m in laws:
        nu = ex.invariant_measure_nonneg(m)
        assert nu.support.tolist() == list(range(int(m.support[-1]) + 1))
        assert np.array_equal(nu.masses, _dense_invariant_masses(m))


def test_invariant_measure_continuous_uniform():
    u = ms.uniform(0, 1)
    nu = ex.invariant_measure_nonneg(u)
    assert nu.total_mass == pytest.approx(0.5, abs=1e-6)
    for x in (0.0, 0.3, 0.99):
        assert nu.density(x) == pytest.approx(1 - x, abs=1e-12)
    # weak invariance oracle: nu P = nu on indicator test sets by quadrature
    def tail(x):
        return u.tail(x)

    def kernel_mass(x, a, b):
        # P[ |x - Y| in [a, b] ] for Y uniform on [0, 1]
        lo1, hi1 = max(x - b, 0.0) if x - b > 0 else 0.0, 0.0
        total = 0.0
        total += max(0.0, min(x - a, 1.0) - max(x - b, 0.0))   # Y in [x-b, x-a]
        total += max(0.0, min(x + b, 1.0) - max(x + a, 0.0))   # Y in [x+a, x+b]
        return total

    for (a, b) in ((0.0, 0.25), (0.25, 0.5), (0.1, 0.9)):
        lhs, _ = integrate.quad(lambda x: tail(x) * kernel_mass(x, a, b), 0, 1,
                                limit=200)
        rhs, _ = integrate.quad(tail, a, b, limit=200)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_continuous_invariant_measure_has_no_lattice_probabilities():
    nu = ex.invariant_measure_nonneg(ms.uniform(0, 1))
    with pytest.raises(ms.MeasureError, match="lattice"):
        nu.normalized_probabilities()


def test_invariant_measure_rejects_negative_support():
    with pytest.raises(ms.MeasureError):
        ex.invariant_measure_nonneg(lattice({-1: 0.5, 1: 0.5}))


def test_mass_identity_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_nonneg_lattice(rng)
        nu = ex.invariant_measure_nonneg(m)
        assert abs(nu.total_mass - m.moment(1.0)) < 1e-12


# ---------------------------------------------------------------------------
# recurrence classification
# ---------------------------------------------------------------------------

def test_classify_nonneg_finite_mean():
    v = ex.classify_positive_recurrence(lattice({1: 0.5, 2: 0.5}), "nonneg")
    assert v.verdict == "positive_recurrent"


def test_classify_nonneg_infinite_mean():
    v = ex.classify_positive_recurrence(ms.wiener_hopf_log_tail(50_000), "nonneg")
    assert v.verdict == "not_positive_recurrent"


def test_classify_two_sided_cases():
    sym = lattice({-1: 0.5, 1: 0.5})
    assert ex.classify_positive_recurrence(sym, "two_sided").verdict == "null_recurrent"
    up = lattice({-1: 0.25, 2: 0.75})
    assert ex.classify_positive_recurrence(up, "two_sided").verdict == "positive_recurrent"
    down = lattice({-2: 0.5, 1: 0.5})
    assert ex.classify_positive_recurrence(down, "two_sided").verdict == \
        "transient_to_plus_infinity"


@pytest.mark.parametrize("a, verdict", [(1.8, "null_recurrent"), (1.3, "undecided")])
def test_classify_two_sided_upward_drift_with_infinite_mean(a, verdict):
    # pmf ~ (x+2)^-a: E(Y+) diverges for a <= 2, E(sqrt(Y+)) for a <= 1.5
    v = ex.classify_positive_recurrence(power_tail_family(a), "two_sided")
    assert v.verdict == verdict
    assert math.isinf(v.moments["E(Y+)"]) and v.moments["E(Y-)"] == 0.0
    assert math.isfinite(v.moments["E(sqrt(Y+))"]) == (verdict == "null_recurrent")


def rounded_centred_laws():
    """Centred laws on {-1, 0, 1, 2}: mu(-1) = mu(1) + 2 mu(2); the computed
    drift moments differ by rounding, sometimes with E(Y-) > E(Y+)."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        w0, w1, w2 = rng.dirichlet(np.ones(3))
        s = 1.0 / (w0 + 2 * w1 + 3 * w2)
        yield lattice({-1: s * (w1 + 2 * w2), 0: s * w0, 1: s * w1, 2: s * w2})


def test_classify_centred_laws_with_rounded_means():
    downward = 0
    for m in rounded_centred_laws():
        downward += m.moment(1.0, "negative") > m.moment(1.0, "positive")
        assert ex.classify_positive_recurrence(m, "two_sided").verdict == "null_recurrent"
    assert downward > 0


def test_every_centring_check_follows_drift_sign():
    # mean -5e-10 is a downward drift at every site, the Monte Carlo ladder
    # included; the rounded laws are centred at every site
    from reflectwalk import diagnostics as dg
    ladder = ex.ladder_exact_skip_free(lattice({1: 0.5, 2: 0.5}))
    drifted = lattice({-1: .5 + 2.5e-10, 1: .5 - 2.5e-10})
    assert drifted.drift_sign() == -1
    for m in [drifted, *rounded_centred_laws()]:
        centred = m.drift_sign() == 0
        verdict = ex.classify_positive_recurrence(m, "two_sided").verdict
        assert verdict == ("null_recurrent" if centred else "transient_to_plus_infinity")
        sites = [lambda: ex.ladder_exact_skip_free(m),
                 lambda: ex.ladder_monte_carlo(m, 20, 1, step_cap=10_000),
                 lambda: dg.product_null_recurrence_probe([m], [0], [4, 8, 16], 200, 1)]
        for site in sites:
            if centred:
                site()
            else:
                with pytest.raises(ms.MeasureError, match="drift|centred"):
                    site()
        with pytest.raises(ms.MeasureError, match="positive drift"):
            ex.lifted_invariant_measure(m, ladder, {0}, 10, 1)


# ---------------------------------------------------------------------------
# recurrence criteria chain
# ---------------------------------------------------------------------------

def test_criteria_power_tail_holds():
    # pmf ~ (x+2)^(-4): E sqrt(Y) = sum sqrt(x) x^(-4) converges.
    # partial-sum oracle first:
    xs = np.arange(2, 200_000, dtype=float)
    partial = np.cumsum(np.sqrt(xs) * xs ** -4.0)
    assert partial[-1] - partial[len(partial) // 2] < 1e-6  # plateaued
    m = power_tail_family(4.0)
    rep = ex.recurrence_criteria(m)
    assert rep.as_tuple() == ("holds", "holds", "holds")


def test_criteria_log_tail_family_fails_first():
    # dyadic block sums of sqrt(x) * pmf(x) grow without decay
    wh = ms.wiener_hopf_log_tail(cutoff=100_000)
    rep = ex.recurrence_criteria(wh)
    assert rep.cond_sqrt_moment == "fails"


def test_criteria_bounded_support_all_hold():
    rep = ex.recurrence_criteria(lattice({5: 1.0}))
    assert rep.as_tuple() == ("holds", "holds", "holds")


@pytest.mark.parametrize("a,b", [(0, 1), (0.2, 3.7), (0.5, 2.0)])
def test_criteria_uniform_tail_square_sum_closed_form(a, b):
    # int_0^b tail(x)^2 dx = a + (b - a)/3
    rep = ex.recurrence_criteria(ms.uniform(a, b))
    assert rep.as_tuple() == ("holds",) * 3
    assert rep.details["tail_square_sum"] == pytest.approx(a + (b - a) / 3,
                                                           rel=1e-12, abs=0.0)


def test_criteria_chain_never_violated():
    rng = np.random.default_rng(31)
    rank = {"fails": 0, "undecided": 1, "holds": 2}
    for i in range(20):
        if i % 2 == 0:
            m = random_nonneg_lattice(rng)
        else:
            m = power_tail_family(float(rng.uniform(1.05, 4.0)), cutoff=50_000)
        t = ex.recurrence_criteria(m, truncation=1 << 20).as_tuple()
        assert rank[t[0]] <= rank[t[1]] <= rank[t[2]], (i, t)


def test_criteria_chain_at_decay_boundaries():
    # tail exponents at and around the convergence boundaries of the three
    # conditions; only chain consistency is claimed there
    rank = {"fails": 0, "undecided": 1, "holds": 2}
    for a in (1.5, 2.0, 1.45, 1.55, 2.5, 3.0):
        t = ex.recurrence_criteria(power_tail_family(a, cutoff=50_000),
                                   truncation=1 << 20).as_tuple()
        assert rank[t[0]] <= rank[t[1]] <= rank[t[2]], (a, t)
    # far from the boundaries the verdicts themselves are pinned:
    # pmf ~ x^(-4) has E sqrt(Y) finite, pmf ~ x^(-1.2) fails even the third
    assert ex.recurrence_criteria(power_tail_family(4.0)).as_tuple() == \
        ("holds", "holds", "holds")
    weak = ex.recurrence_criteria(power_tail_family(1.2, cutoff=50_000),
                                  truncation=1 << 20)
    assert weak.cond_sqrt_moment == "fails"


def test_criteria_widely_spaced_atoms():
    # the tail is constant between atoms: the sums cost O(atoms), not O(span)
    t0 = time.monotonic()
    rep = ex.recurrence_criteria(lattice({1: 0.5, 10 ** 9: 0.5}))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    assert rep.details["tail_square_sum"] == pytest.approx(
        1.0 + 0.25 * (10 ** 9 - 1), rel=1e-12, abs=0.0)
    assert rep.as_tuple() == ("holds", "holds", "holds")


def test_tail_product_verdict_holds_for_finite_laws():
    # tail(y) = 0 from the top atom on, even when it lies past the truncation
    for atoms in ({1: 0.5, 10 ** 9: 0.5}, {0: 0.2, 3: 0.3, 10 ** 7: 0.5}):
        verdict, seq = ex._tail_product_verdict(lattice(atoms), 1 << 22)
        assert verdict == "holds", seq


def test_criteria_reject_negative_support():
    with pytest.raises(ms.MeasureError):
        ex.recurrence_criteria(lattice({-1: 0.5, 1: 0.5}))


def test_criteria_refuse_truncation_below_16():
    m = lattice({1: 0.5, 2: 0.5})
    for bad in (-5, 0, 1, 15):
        with pytest.raises(ms.MeasureError, match="truncation must be at least 16"):
            ex.recurrence_criteria(m, truncation=bad)
    rep = ex.recurrence_criteria(m, truncation=16)
    assert rep.truncation == 16
    assert len(rep.details["tail_product_sequence"]) == 3       # y = 4, 8, 16


# ---------------------------------------------------------------------------
# ladder decompositions
# ---------------------------------------------------------------------------

def test_exact_ladder_symmetric_walk():
    lad = ex.ladder_exact_skip_free(lattice({-1: 0.5, 1: 0.5}))
    assert lad.ladder.atoms_dict() == {0: 0.5, 1: 0.5}
    assert lad.method == "exact_skip_free"


def test_exact_ladder_no_descents():
    lad = ex.ladder_exact_skip_free(lattice({1: 1.0}))
    assert lad.ladder.atoms_dict() == {1: 1.0}


def test_exact_ladder_round_trip():
    base = lattice({-1: 0.4, 0: 0.15, 1: 0.2, 3: 0.25 / 3, 2: 0.5 / 3})
    # recentre to mean zero: use the constructed family instead
    mbar = lattice({0: 0.45, 1: 0.3, 2: 0.15, 3: 0.1})
    mu = ex.wiener_hopf_construct(mbar)
    assert mu.mean() == pytest.approx(0.0, abs=1e-14)
    back = ex.ladder_exact_skip_free(mu)
    got = back.ladder.atoms_dict()
    for x, p in mbar.atoms_dict().items():
        assert got.get(x, 0.0) == pytest.approx(p, abs=1e-14)


def _centred_skip_free(rng, top):
    """Random centred law on ``{-1, 0, ..., top}`` with an atom at ``top``."""
    pts = np.unique(np.append(rng.choice(np.arange(1, top + 1), size=min(top, 4)), top))
    w = rng.dirichlet(np.ones(len(pts)))
    down, zero = float(pts @ w), float(rng.random())
    atoms = {int(x): float(v) for x, v in zip(pts, w)}
    atoms.update({-1: down, 0: zero})
    return lattice({x: v / (1 + down + zero) for x, v in atoms.items()})


def test_exact_ladder_and_construction_equal_their_pointwise_formulas():
    # ladder(x) = tail(x - 1) and mu(x) = mbar(x) - mbar(x + 1), one point at a time
    rng = np.random.default_rng(8)
    for top in (1, 2, 7, 40, 900):
        m = _centred_skip_free(rng, top)
        lad = ex.ladder_exact_skip_free(m).ladder
        want = {0: 1.0 - m.prob(-1)}
        want.update({x: m.tail(x - 1) for x in range(1, top + 1)})
        assert lad.atoms_dict() == {x: p for x, p in want.items() if p > 0}
        mu = ex.wiener_hopf_construct(lad)
        vals = [lad.prob(x) for x in range(top + 2)]
        want = {-1: 1.0 - vals[0]}
        want.update({x: vals[x] - vals[x + 1] for x in range(top + 1)})
        assert mu.atoms_dict() == {x: p for x, p in want.items() if p > 0}


def test_exact_ladder_rejects_deep_and_drifting():
    with pytest.raises(ms.MeasureError):
        ex.ladder_exact_skip_free(lattice({-2: 0.5, 1: 0.5}))
    with pytest.raises(ms.MeasureError):
        ex.ladder_exact_skip_free(lattice({-1: 0.25, 2: 0.75}))  # drift up


def test_mc_ladder_agrees_with_exact():
    rng = np.random.default_rng(42)
    mc = ex.ladder_monte_carlo(lattice({-1: 0.5, 1: 0.5}), 20_000, rng,
                               step_cap=10 ** 6)
    got = mc.ladder.atoms_dict()
    tv = 0.5 * (abs(got.get(0, 0) - 0.5) + abs(got.get(1, 0) - 0.5))
    assert tv < 0.02
    assert mc.capped_excursions < 100


@pytest.mark.parametrize("budget, n, step_cap", [(None, 70_000, 4096), (256, 1000, 2000)])
def test_first_records_blocks_hold_at_most_the_block_budget(monkeypatch, budget, n, step_cap):
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    blocks = list(ex._first_records(lattice({-1: 0.5, 1: 0.5}), n,
                                    np.random.default_rng(3), step_cap))
    assert len(blocks) > 5
    for rows, paths, first in blocks:
        assert paths.shape == (rows.size, paths.shape[1])
        assert rows.size * paths.shape[1] <= ms._BLOCK_DRAWS or paths.shape[1] == 1


def test_mc_ladder_memory_stays_within_the_block_budget():
    # the excursion blocks, not the sample count, bound the ladder's temporaries
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ex.ladder_monte_carlo(lattice({-1: 0.5, 1: 0.5}), 20_000,
                              np.random.default_rng(8), step_cap=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak - base < 8e6


def test_mc_ladder_delta_one_exact():
    mc = ex.ladder_monte_carlo(lattice({1: 1.0}), 1000, np.random.default_rng(1))
    assert mc.ladder.atoms_dict() == {1: 1.0}


def test_mc_ladder_refuses_negative_drift():
    with pytest.raises(ms.MeasureError):
        ex.ladder_monte_carlo(lattice({-2: 0.5, 1: 0.5}), 100,
                              np.random.default_rng(1))


def test_mc_ladder_refuses_continuous_law_before_sampling():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ms.MeasureError):
        ex.ladder_monte_carlo(ms.uniform(-1.0, 1.5), 200_000, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# ladder-law construction
# ---------------------------------------------------------------------------

def test_construct_from_two_point_ladder():
    mu = ex.wiener_hopf_construct(lattice({0: 0.5, 1: 0.5}))
    assert mu.atoms_dict() == {-1: 0.5, 1: 0.5}


def test_construct_rejects_trivial_and_nonmonotone():
    with pytest.raises(ms.MeasureError):
        ex.wiener_hopf_construct(lattice({0: 1.0}))
    with pytest.raises(ms.MeasureError):
        ex.wiener_hopf_construct(lattice({0: 0.3, 1: 0.7}))


def test_construct_from_truncated_log_tail_is_centred():
    fam = ms.wiener_hopf_log_tail(cutoff=100_000)
    probs = fam.probs / fam.probs.sum()
    mbar = ms.Measure1D.lattice_arrays(fam.support, probs)
    mu = ex.wiener_hopf_construct(mbar)
    assert abs(mu.mean()) < 1e-3
    assert mu.min_support() == -1


# ---------------------------------------------------------------------------
# lifted invariant measure
# ---------------------------------------------------------------------------

def test_lifted_measure_delta_one():
    m = lattice({1: 1.0})
    lad = ex.ladder_exact_skip_free(m)
    est, se = ex.lifted_invariant_measure(m, lad, (0, 10 ** 9), 500,
                                          np.random.default_rng(3))
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_lifted_measure_unreachable_set_is_zero():
    m = lattice({-1: 0.25, 2: 0.75})
    lad = ex.ladder_monte_carlo(m, 5000, np.random.default_rng(4))
    est, _ = ex.lifted_invariant_measure(m, lad, (10 ** 6, 10 ** 7), 2000,
                                         np.random.default_rng(5))
    assert est == 0.0


def test_lifted_measure_reproducible_across_seeds():
    m = lattice({-1: 0.5, 2: 0.5})
    lad = ex.ladder_monte_carlo(m, 30_000, np.random.default_rng(6))
    e1, s1 = ex.lifted_invariant_measure(m, lad, {0}, 20_000,
                                         np.random.default_rng(7))
    e2, s2 = ex.lifted_invariant_measure(m, lad, {0}, 20_000,
                                         np.random.default_rng(8))
    assert abs(e1 - e2) < 3 * math.hypot(s1, s2)


def test_lifted_measure_refuses_continuous_law():
    m = lattice({1: 1.0})
    lad = ex.ladder_exact_skip_free(m)
    with pytest.raises(ms.MeasureError):
        ex.lifted_invariant_measure(ms.uniform(-1.0, 2.0), lad, (0, 1), 500,
                                    np.random.default_rng(3))


def test_lifted_measure_refuses_unfinished_excursions():
    # slight upward drift: some excursions outlast 64 steps
    m = lattice({-1: 0.49, 1: 0.51})
    lad = ex.ladder_exact_skip_free(lattice({1: 1.0}))
    with pytest.raises(ms.MeasureError, match="excursions had no weak record"):
        ex.lifted_invariant_measure(m, lad, (0, 10 ** 9), 2000,
                                    np.random.default_rng(3), step_cap=64)


# ---------------------------------------------------------------------------
# symmetric equivalence of reflected and free returns
# ---------------------------------------------------------------------------

def test_symmetric_equivalence_simple_walk():
    rep = ex.symmetric_equivalence_check(lattice({-1: 0.5, 1: 0.5}),
                                         horizon=20_000, window=0.0,
                                         rng=np.random.default_rng(2),
                                         replicas=16)
    assert rep.free_category == "recurrent_evidence"
    assert rep.reflected_category == "recurrent_evidence"
    assert rep.agree
    assert rep.free_visits[1] > 0 and rep.reflected_visits[1] > 0


def test_symmetric_equivalence_heavy_subordinated():
    rep = ex.symmetric_equivalence_check(ms.subordinated(0.3),
                                         horizon=50_000, window=0.0,
                                         rng=np.random.default_rng(3),
                                         replicas=16)
    assert rep.free_category == "transient_evidence"
    assert rep.reflected_category == "transient_evidence"
    assert rep.agree


def test_symmetric_equivalence_rejects_bad_input():
    with pytest.raises(ms.MeasureError):
        ex.symmetric_equivalence_check(lattice({0: 1.0}), 10_000, 0.0,
                                       np.random.default_rng(1))
    with pytest.raises(ms.MeasureError):
        ex.symmetric_equivalence_check(lattice({-1: 0.25, 2: 0.75}), 10_000,
                                       0.0, np.random.default_rng(1))


@pytest.mark.parametrize("n_budgets", [2, 6])
def test_symmetric_equivalence_reads_the_last_two_budgets(monkeypatch, n_budgets):
    # the halves are counts[-2] and counts[-1] - counts[-2] at any budget count
    from reflectwalk import diagnostics

    def report():
        return ex.symmetric_equivalence_check(lattice({-1: 0.5, 1: 0.5}), 4000, 1.0,
                                              np.random.default_rng(5), replicas=8)

    want = report()
    monkeypatch.setitem(diagnostics.THRESHOLDS, "n_budgets", n_budgets)
    assert report() == want
