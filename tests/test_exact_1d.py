"""Tests for invariant measures, recurrence classification and ladders."""

import math
import time

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


def test_classify_centred_laws_with_rounded_means():
    # centred laws on {-1, 0, 1, 2}: mu(-1) = mu(1) + 2 mu(2); the computed
    # drift moments differ by rounding, sometimes with E(Y-) > E(Y+)
    rng = np.random.default_rng(2024)
    downward = 0
    for _ in range(200):
        w0, w1, w2 = rng.dirichlet(np.ones(3))
        s = 1.0 / (w0 + 2 * w1 + 3 * w2)
        m = lattice({-1: s * (w1 + 2 * w2), 0: s * w0, 1: s * w1, 2: s * w2})
        downward += m.moment(1.0, "negative") > m.moment(1.0, "positive")
        assert ex.classify_positive_recurrence(m, "two_sided").verdict == "null_recurrent"
    assert downward > 0


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
    nub = ex.invariant_measure_nonneg(lad.ladder)
    est, se = ex.lifted_invariant_measure(m, lad, nub, (0, 10 ** 9), 500,
                                          np.random.default_rng(3))
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_lifted_measure_unreachable_set_is_zero():
    m = lattice({-1: 0.25, 2: 0.75})
    lad = ex.ladder_monte_carlo(m, 5000, np.random.default_rng(4))
    nub = ex.invariant_measure_nonneg(lad.ladder)
    est, _ = ex.lifted_invariant_measure(m, lad, nub, (10 ** 6, 10 ** 7), 2000,
                                         np.random.default_rng(5))
    assert est == 0.0


def test_lifted_measure_reproducible_across_seeds():
    m = lattice({-1: 0.5, 2: 0.5})
    lad = ex.ladder_monte_carlo(m, 30_000, np.random.default_rng(6))
    nub = ex.invariant_measure_nonneg(lad.ladder)
    e1, s1 = ex.lifted_invariant_measure(m, lad, nub, {0}, 20_000,
                                         np.random.default_rng(7))
    e2, s2 = ex.lifted_invariant_measure(m, lad, nub, {0}, 20_000,
                                         np.random.default_rng(8))
    assert abs(e1 - e2) < 3 * math.hypot(s1, s2)


def test_lifted_measure_refuses_continuous_law():
    m = lattice({1: 1.0})
    lad = ex.ladder_exact_skip_free(m)
    nub = ex.invariant_measure_nonneg(lad.ladder)
    with pytest.raises(ms.MeasureError):
        ex.lifted_invariant_measure(ms.uniform(-1.0, 2.0), lad, nub, (0, 1), 500,
                                    np.random.default_rng(3))


def test_lifted_measure_refuses_unfinished_excursions():
    # slight upward drift: some excursions outlast 64 steps
    m = lattice({-1: 0.49, 1: 0.51})
    lad = ex.ladder_exact_skip_free(lattice({1: 1.0}))
    nub = ex.invariant_measure_nonneg(lad.ladder)
    with pytest.raises(ms.MeasureError, match="excursions had no weak record"):
        ex.lifted_invariant_measure(m, lad, nub, (0, 10 ** 9), 2000,
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
