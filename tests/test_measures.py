"""Tests for increment-law construction, moments, tails and samplers."""

import math
import mmap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaln

from reflectwalk import measures as ms

from family_helpers import power_tail_family


def lattice(d):
    return ms.Measure1D.lattice(d)


# ---------------------------------------------------------------------------
# gcd normalization
# ---------------------------------------------------------------------------

def test_gcd_normalize_divides_common_factor():
    m, k = ms.gcd_normalize(lattice({2: 0.5, 4: 0.5}))
    assert k == 2
    assert m.atoms_dict() == {1: 0.5, 2: 0.5}
    assert m.normalized


def test_gcd_normalize_already_normalized():
    m0 = lattice({1: 0.5, 2: 0.5})
    m, k = ms.gcd_normalize(m0)
    assert k == 1 and m.atoms_dict() == m0.atoms_dict()


def test_gcd_normalize_mixed_signs():
    m, k = ms.gcd_normalize(lattice({-1: 1 / 3, 3: 1 / 3, 5: 1 / 3}))
    assert k == 1
    assert sorted(m.atoms_dict()) == [-1, 3, 5]


def test_gcd_normalize_rejects_degenerate():
    with pytest.raises(ms.MeasureError):
        ms.gcd_normalize(lattice({0: 1.0}))
    with pytest.raises(ms.MeasureError):
        lattice({})


@given(st.dictionaries(st.integers(-20, 20), st.floats(0.05, 1.0),
                       min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_gcd_normalize_idempotent(atoms):
    total = sum(atoms.values())
    atoms = {k: v / total for k, v in atoms.items()}
    if set(atoms) == {0}:
        return
    m = lattice(atoms)
    m1, _ = ms.gcd_normalize(m)
    m2, k2 = ms.gcd_normalize(m1)
    assert k2 == 1
    assert m1.atoms_dict() == m2.atoms_dict()


# ---------------------------------------------------------------------------
# validation invariants
# ---------------------------------------------------------------------------

def test_lattice_sum_validation():
    with pytest.raises(ms.MeasureError):
        ms.Measure1D.lattice_arrays([0, 1], [0.5, 0.6])
    with pytest.raises(ms.MeasureError):
        ms.Measure1D.lattice_arrays([0, 1], [0.7, -0.2])


def test_nan_probabilities_raise():
    # dropping the NaN atom would leave {1: .5, 3: .5}, which sums to 1
    nan = float("nan")
    with pytest.raises(ms.MeasureError, match="nonnegative"):
        ms.Measure1D.lattice({1: .5, 2: nan, 3: .5})
    with pytest.raises(ms.MeasureError, match="nonnegative"):
        ms.Measure1D.lattice_arrays([1, 2, 3], [.5, nan, .5])
    with pytest.raises(ms.MeasureError, match="nonnegative"):
        ms.Measure1D.lattice_tailed([0, 1], [.5, nan], tail_fn=lambda x: .5)
    with pytest.raises(ms.MeasureError, match="!= 1"):
        ms.Measure1D.lattice_tailed([0, 1], [.5, .4], tail_fn=lambda x: nan)


def test_nan_joint_probabilities_raise():
    # a NaN weight would make every draw return the first point
    nan = float("nan")
    with pytest.raises(ms.MeasureError, match="nonnegative"):
        ms.JointMeasure.finite((0, 0, 2, 0), [((1, 2), .5), ((2, 1), nan), ((1, 1), .5)])
    with pytest.raises(ms.MeasureError, match="sum to"):
        ms.JointMeasure.finite((0, 0, 2, 0), [((1, 2), .5), ((2, 1), float("inf"))])


def test_drift_sign_is_the_relative_centring_rule():
    assert lattice({-1: .5, 1: .5}).drift_sign() == 0
    assert lattice({-1: .4, 1: .6}).drift_sign() == 1
    assert lattice({-1: .6, 1: .4}).drift_sign() == -1
    # mean -5e-10 is a drift, 1e-12 relative to max(1, E(Y+)) is not
    assert lattice({-1: .5 + 2.5e-10, 1: .5 - 2.5e-10}).drift_sign() == -1
    assert lattice({-100: .5 + 2.5e-14, 100: .5 - 2.5e-14}).drift_sign() == 0
    assert ms.subordinated(0.7).drift_sign() == 0          # declared mean
    with pytest.raises(ms.MeasureError, match="mean"):     # E|Y| infinite: none declared
        ms.subordinated(0.5).drift_sign()
    assert ms.wiener_hopf_log_tail(1000).drift_sign() == 1


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
def test_subordinated_declares_no_mean_where_none_exists(alpha):
    # E|S_T| < inf iff E sqrt(T) < inf iff alpha > 1/2
    with pytest.raises(ms.MeasureError, match="declares no mean"):
        ms.subordinated(alpha).mean()
    assert ms.subordinated(0.5 + 1e-9).mean() == 0.0


def test_non_integer_lattice_atoms_raise():
    with pytest.raises(ms.MeasureError, match="non-integer"):
        ms.Measure1D.lattice([(1.5, 0.5), (2, 0.5)])
    with pytest.raises(ms.MeasureError, match="non-integer"):
        ms.measure_from_config({"atoms": [[0.6, 0.5], [2, 0.5]]})
    with pytest.raises(ms.MeasureError, match="non-integer"):
        ms.Measure1D.lattice_arrays([1.7, 2], [0.5, 0.5])
    # integral floats are lattice points, and repeated points merge
    m = ms.Measure1D.lattice([(2.0, 0.25), (1, 0.5), (2, 0.25)])
    assert m.atoms_dict() == {1: 0.5, 2: 0.5} and m.normalized
    # integer points stay exact beside floats, above the float64 integer range
    m = ms.Measure1D.lattice([(2**53 + 1, 0.5), (0.0, 0.5)])
    assert m.support.tolist() == [0, 2**53 + 1]


def test_tailed_family_mass_consistency():
    wh = ms.wiener_hopf_log_tail(cutoff=50_000)
    assert abs(wh.probs.sum() + wh.tail(49_999) - 1.0) < 1e-9
    # tail is nonincreasing and tends to 0
    xs = [10, 100, 10_000, 10 ** 6, 10 ** 9]
    ts = [wh.tail(x) for x in xs]
    assert all(a >= b for a, b in zip(ts, ts[1:]))
    assert ts[-1] < 1e-3


def test_lattice_tailed_refuses_fractional_or_unsorted_support():
    with pytest.raises(ms.MeasureError, match="non-integer"):
        ms.Measure1D.lattice_tailed([0, 1.5], [.5, .4], tail_fn=lambda x: .1)
    # unsorted, tail(0) would read 0.4 and tail(1) 0.1 (true: 0.7 and 0.4)
    with pytest.raises(ms.MeasureError, match="strictly increasing"):
        ms.Measure1D.lattice_tailed([2, 0, 1], [.3, .3, .3], tail_fn=lambda x: .1)
    with pytest.raises(ms.MeasureError, match="strictly increasing"):
        ms.Measure1D.lattice_tailed([0, 1, 1], [.3, .3, .3], tail_fn=lambda x: .1)
    # an int64 support is kept as given, not copied
    xs = np.arange(3, dtype=np.int64)
    m = ms.Measure1D.lattice_tailed(xs, [.3, .3, .3], tail_fn=lambda x: .1)
    assert m.support is xs and m.tail(0) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# moments and tails
# ---------------------------------------------------------------------------

def test_moment_direct_weighted_sum():
    m = lattice({1: 0.5, 2: 0.5})
    assert m.moment(1.0) == pytest.approx(1.5, abs=1e-15)
    assert m.moment(0.5) == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-15)


def test_moment_point_mass_at_zero():
    m = lattice({0: 1.0})
    for p in (0.5, 1.0, 2.0, 3.5):
        assert m.moment(p) == 0.0


def test_moment_signed_mean_consistency():
    m = lattice({-2: 0.25, 1: 0.5, 3: 0.25})
    direct = -2 * 0.25 + 1 * 0.5 + 3 * 0.25
    assert m.moment(1, "positive") - m.moment(1, "negative") == pytest.approx(direct)
    assert m.mean() == pytest.approx(direct)


def test_tail_values():
    m = lattice({1: 0.5, 2: 0.5})
    assert m.tail(1) == 0.5
    assert m.tail(0) == 1.0
    assert m.tail(2) == 0.0
    assert m.tail(5.5) == 0.0
    assert m.tail(-3) == 1.0


@given(st.dictionaries(st.integers(-10, 10), st.floats(0.05, 1.0),
                       min_size=1, max_size=6),
       st.floats(-12, 12))
@settings(max_examples=80, deadline=None)
def test_tail_matches_enumeration(atoms, x):
    total = sum(atoms.values())
    atoms = {k: v / total for k, v in atoms.items()}
    m = lattice(atoms)
    expected = sum(p for y, p in atoms.items() if y > x)
    assert m.tail(x) == pytest.approx(expected, abs=1e-12)


def test_divergent_moment_flagged():
    wh = ms.wiener_hopf_log_tail(cutoff=100_000)
    assert math.isinf(wh.moment(0.5))
    assert math.isinf(wh.moment(1.0))


# blocks inside the table, straddling its end, and longer than 2^12 beyond it
# (the fourth case has a long block that starts below 2^12); then the merge of
# edges into the atom run: repeated edges, edges on atoms, blocks holding no
# atom, every edge past the table, and a one-atom law
_BLOCK_SUM_CASES = [
    ("finite_with_gaps", lambda: lattice({2: 0.3, 9000: 0.5, 12345: 0.2}),
     [0, 1, 3, 4096, 8999, 9000, 9001, 12345, 20000, 40000]),
    ("power_tail_cutoff_5000", lambda: power_tail_family(1.3, cutoff=5000),
     [0, 7, 4096, 4999, 5000, 5003, 8192, 1 << 14, 1 << 15, (1 << 16) + 5, 1 << 18]),
    ("log_tail_cutoff_1e4", lambda: ms.wiener_hopf_log_tail(cutoff=10_000),
     [0, 3, 8192, 12_000, 1 << 14, 1 << 17, (1 << 19) + 3]),
    ("power_tail_cutoff_100", lambda: power_tail_family(2.5, cutoff=100),
     [0, 50, 99, 20_000, 70_000]),
    ("repeated_edges", lambda: lattice({1: 0.2, 4: 0.5, 5: 0.3}), [3, 3, 7]),
    ("edges_on_atoms", lambda: lattice({1: 0.2, 4: 0.5, 5: 0.3}), [1, 4, 4, 5]),
    ("block_without_atoms", lambda: lattice({1: 0.2, 10: 0.5, 20: 0.3}),
     [0, 2, 9, 15, 25]),
    ("edges_past_finite_table", lambda: lattice({1: 0.2, 4: 0.5, 5: 0.3}),
     [5, 6, 9, 100]),
    ("edges_past_tailed_table", lambda: power_tail_family(2.5, cutoff=100),
     [99, 99, 150, 5000, 70_000]),
    ("one_atom", lambda: lattice({3: 1.0}), [0, 2, 3, 3, 4, 10]),
]


def _brute_tail(m, lo, hi):
    """``tail(x)`` for ``lo <= x < hi``: point by point over the atom table."""
    top = int(m.support[-1])
    xs = np.arange(lo, hi)
    inside = [m.tail(int(x)) for x in xs[xs < top]]
    beyond = (m._tail_fn(xs[xs >= top].astype(float)) if m.has_analytic_tail
              else np.zeros(np.count_nonzero(xs >= top)))
    return np.concatenate([inside, beyond])


@pytest.mark.parametrize("name,make,edges", _BLOCK_SUM_CASES,
                         ids=[c[0] for c in _BLOCK_SUM_CASES])
def test_tail_block_sums_match_brute_force(name, make, edges):
    m = make()
    for power in (1, 2):
        got = list(m.tail_block_sums(edges, power))
        want = [float(np.sum(_brute_tail(m, lo, hi) ** power))
                for lo, hi in zip(edges[:-1], edges[1:])]
        # 1e-12 also checks the Euler-Maclaurin slope term (1e-10 here)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, power)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_tail_block_sums_and_moments_across_chunks(monkeypatch, chunk):
    # passes over the atom table go _BLOCK_DRAWS atoms at a time; tiny chunks
    # put chunk ends inside blocks, on edges and on the table's last atom
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", chunk)
    for name, make, edges in _BLOCK_SUM_CASES:
        m = make()
        if len(m.support) > 200:
            continue
        for power in (1, 2):
            got = list(m.tail_block_sums(edges, power))
            want = [float(np.sum(_brute_tail(m, lo, hi) ** power))
                    for lo, hi in zip(edges[:-1], edges[1:])]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, power)
    m = power_tail_family(2.5, cutoff=100)
    want = float(np.sum(m.support ** 1.5 * m.probs)) + m._tail_block_series(1.5)
    assert m.moment(1.5) == pytest.approx(want, rel=1e-14, abs=0.0)
    m = lattice({-3: 0.25, 0: 0.25, 2: 0.3, 9: 0.2})
    assert m.moment(1.0, "negative") == pytest.approx(0.75, rel=1e-15)
    assert m.moment(2.0, "positive") == pytest.approx(4 * 0.3 + 81 * 0.2, rel=1e-15)


def test_suffix_and_log_tail_probs_match_reference_formulas():
    # built in place, the arrays equal the plain formulas bit for bit
    cutoff = 10 ** 5
    wh = ms.wiener_hopf_log_tail(cutoff)
    xs = np.arange(cutoff, dtype=float)
    raw = np.log(xs + 2.0) / (xs + 2.0) ** 1.5
    u = cutoff - 1 + 2.5
    c = 1.0 / (raw.sum() + float(2.0 * (np.log(u) + 2.0) / np.sqrt(u)))
    assert wh.meta["normalizing_constant"] == c
    assert np.array_equal(wh.probs, c * raw)
    beyond = np.arange(cutoff, cutoff + 50, dtype=float)
    pmf = wh._pmf_fn(beyond)
    assert np.array_equal(beyond, np.arange(cutoff, cutoff + 50, dtype=float))
    assert np.array_equal(pmf, c * (np.log(beyond + 2.0) / (beyond + 2.0) ** 1.5))
    rng = np.random.default_rng(3)
    for m in (wh, lattice({4: 1.0}), lattice({0: 0.5, 3: 0.25, 8: 0.25}),
              ms.Measure1D.lattice_arrays(np.arange(1000), rng.dirichlet(np.ones(1000)))):
        p = m.probs
        assert np.array_equal(m._suffix, np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]]))


def test_log_tail_table_is_the_only_table_sized_allocation():
    # at 10^6 atoms, support, probs and _suffix keep 24 MB; building them may
    # take one more float table, and the recurrence criteria only O(_CHUNK)
    from reflectwalk import exact_1d as ex
    ex.recurrence_criteria(ms.wiener_hopf_log_tail(1000))       # caches and imports
    cutoff = 10 ** 6
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wh = ms.wiener_hopf_log_tail(cutoff)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ex.recurrence_criteria(wh)
        criteria_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert kept - before >= 3 * 8 * cutoff
    assert peak - kept <= 8 * cutoff + (1 << 20)     # one float table, a bool mask
    assert criteria_peak - kept <= 4e6


@pytest.mark.parametrize("a", [1.3, 1.75, 2.5, 4.0])
def test_tail_block_sums_match_hurwitz_zeta(a):
    # past the table tail(x) = K' (x + 5/2)^(1 - a), so a block of tail^power is
    # K (zeta(s, lo + 5/2) - zeta(s, hi + 5/2)), s = power (a - 1): an oracle for
    # the Gauss-Legendre blocks up to 2^40, far beyond the brute-force sums
    mp = pytest.importorskip("mpmath")
    m = power_tail_family(a, cutoff=5000)
    c = float(m.probs[0]) * 2.0 ** a                     # pmf c (x + 2)^(-a) at 0
    edges = [5000] + [1 << e for e in range(13, 41)]
    for power in (1, 2):
        got = list(m.tail_block_sums(edges, power))
        with mp.workdps(40):
            k, s = (mp.mpf(c) / (a - 1)) ** power, power * (mp.mpf(a) - 1)
            want = [float(k * (mp.zeta(s, lo + mp.mpf(2.5)) - mp.zeta(s, hi + mp.mpf(2.5))))
                    for lo, hi in zip(edges[:-1], edges[1:])]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (a, power)


def test_gauss_legendre_halves_until_the_rules_agree():
    # a bump of width 200 in [4096, 8192]: one 20-point piece is far off, halved ones are not
    got = ms._gauss_legendre(lambda x: np.exp(-((x - 6000.0) / 200.0) ** 2), 4096, 8192)
    assert got == pytest.approx(200.0 * math.sqrt(math.pi), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("step", [6000.5, 9999.5, 12345.6])
def test_series_block_sum_refuses_a_jump(step):
    with pytest.raises(ms.MeasureError, match="does not settle"):
        ms._series_block_sum(lambda x: np.where(x < step, 1e-3, 0.0), 4096, 1 << 14)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_moment_of_power_tail_matches_brute_force(p):
    # pmf ~ x^-4: the terms beyond 2^22 add under 1e-12 of the moment
    m = power_tail_family(4.0, cutoff=5000)
    want = float(np.dot(m.support.astype(float) ** p, m.probs))
    for lo in range(5000, 1 << 22, 1 << 20):
        xs = np.arange(lo, min(lo + (1 << 20), 1 << 22), dtype=float)
        want += float(np.sum(xs ** p * m._pmf_fn(xs)))
    assert m.moment(p) == pytest.approx(want, rel=1e-9, abs=0.0)


UNIFORM_ENDS = [(0, 1), (-1, 1), (-0.5, 2), (0.2, 3.7), (-3, -0.5), (-2.2, 0.7)]


def _uniform_moment(a, b, p, part):
    """Closed form of ``E (Y^+)^p``, ``E (Y^-)^p`` or ``E |Y|^p`` on ``[a, b]``."""
    if p == 0:
        return 1.0
    pos = (max(b, 0) ** (p + 1) - max(a, 0) ** (p + 1)) / ((p + 1) * (b - a))
    neg = (max(-a, 0) ** (p + 1) - max(-b, 0) ** (p + 1)) / ((p + 1) * (b - a))
    return {"positive": pos, "negative": neg, "full": pos + neg}[part]


@pytest.mark.parametrize("a,b", UNIFORM_ENDS)
def test_uniform_moments_match_closed_forms(a, b):
    m = ms.uniform(a, b)
    for p in (0, 0.5, 1, 1.5, 2):
        for part in ("full", "positive", "negative"):
            want = _uniform_moment(a, b, p, part)
            assert m.moment(p, part) == pytest.approx(want, rel=1e-12, abs=0.0), \
                (p, part)


def _read(blocks, seen):
    """Yield ``blocks``, appending each to ``seen`` as it is read."""
    for b in blocks:
        seen.append(b)
        yield b


def _geometric(ratio, n):
    return [ratio ** j for j in range(n)]


def test_dyadic_series_sums_a_geometric_series():
    verdict, total, run = ms.dyadic_series(_geometric(0.9, 10_000))
    assert (verdict, run) == ("holds", 0)
    assert total == pytest.approx(10.0, rel=1e-12)


def test_dyadic_series_fails_after_divergence_blocks_ratios():
    seen = []
    verdict, total, run = ms.dyadic_series(_read(_geometric(0.97, 10_000), seen))
    assert (verdict, total, run) == ("fails", math.inf, ms.DIVERGENCE_BLOCKS)
    assert len(seen) == ms.DIVERGENCE_BLOCKS + 1      # one ratio per block after the first


def test_dyadic_series_undecided_when_blocks_run_out():
    verdict, total, run = ms.dyadic_series(_geometric(0.97, 5))
    assert (verdict, run) == ("undecided", 4)
    assert total == pytest.approx(sum(_geometric(0.97, 5)), rel=1e-15)


def test_dyadic_series_stops_at_a_zero_block():
    seen = []
    verdict, total, _ = ms.dyadic_series(_read([1.0, 0.5, 0.0, 7.0], seen))
    assert (verdict, total, seen) == ("holds", 1.5, [1.0, 0.5, 0.0])


def test_dyadic_series_truncation_stop():
    seen = []
    verdict, total, run = ms.dyadic_series(_read(_geometric(0.97, 10_000), seen),
                                           stop=lambda j, b, total, run: j == 2)
    assert (verdict, run, len(seen)) == ("holds", 2, 3)
    assert total == 1.0 + 0.97 + 0.97 ** 2


# ---------------------------------------------------------------------------
# joint measures
# ---------------------------------------------------------------------------

def test_marginal_finite_support():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    assert j.marginal(0).atoms_dict() == {2: 0.5, 3: 0.5}
    assert j.marginal(1).atoms_dict() == {2: 0.5, 3: 0.5}


def test_marginal_product_lookup():
    a = lattice({1: 0.5, 2: 0.5})
    b = lattice({-1: 0.5, 1: 0.5})
    j = ms.JointMeasure.product((1, 0, 1, 0), [a, b])
    assert j.marginal(1) is b


def test_product_sample_equals_stacked_factor_draws():
    # one preallocated float array, filled factor by factor, draws and casts
    # exactly as stacking the factors' float copies
    factors = [lattice({1: 0.5, 2: 0.5}), lattice({-1: 0.5, 1: 0.5}), ms.uniform(-1.0, 1.3)]
    j = ms.JointMeasure.product((1, 0, 1, 1), factors)
    for n in (0, 1, 777):
        got = j.sample(np.random.default_rng(n), n)
        rng = np.random.default_rng(n)
        want = np.column_stack([np.asarray(f.sample(rng, n), dtype=float) for f in factors])
        assert got.dtype == want.dtype and got.shape == (n, 3)
        assert np.array_equal(got, want)


def test_marginal_two_sided_finite():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 2), 0.5), ((2, -1), 0.5)])
    assert j.marginal(1).atoms_dict() == {-1: 0.5, 2: 0.5}


def test_marginal_adds_repeated_points_in_body_order():
    # each atom's mass is the running sum over its rows in body order, as a
    # dict accumulation would give it
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = rng.integers(-4, 5, size=(int(rng.integers(1, 30)), 2)).astype(float)
        pts[:, 0] = np.abs(pts[:, 0]) + 1
        pts = np.concatenate([pts, pts[::2]])
        j = ms.JointMeasure((2, 0, 0, 0), points=pts, probs=rng.dirichlet(np.ones(len(pts))))
        for i in range(2):
            acc = {}
            for x, p in zip(pts[:, i].astype(int).tolist(), j.probs.tolist()):
                acc[x] = acc.get(x, 0.0) + p
            assert j.marginal(i).atoms_dict() == dict(sorted(acc.items()))


def test_marginal_index_out_of_range():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    with pytest.raises(ms.MeasureError):
        j.marginal(2)


def test_joint_atoms_lists_finite_and_product_bodies():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.25), ((3, 2), 0.75)])
    pts, probs = j.atoms()
    assert pts is j.points and probs is j.probs
    a = ms.Measure1D.lattice({1: 0.2, 4: 0.8})
    b = ms.Measure1D.lattice({-1: 0.5, 2: 0.25, 3: 0.25})
    pts, probs = ms.JointMeasure.product((1, 0, 1, 0), [a, b]).atoms()
    want = [((x, y), a.prob(x) * b.prob(y)) for x in (1, 4) for y in (-1, 2, 3)]
    assert pts.tolist() == [list(p) for p, _ in want]
    assert probs.tolist() == [q for _, q in want]


def test_joint_atoms_need_finite_factors():
    j = ms.JointMeasure.product((1, 0, 0, 0), [power_tail_family(1.5, cutoff=100)])
    with pytest.raises(ms.MeasureError, match="finite factors"):
        j.atoms()


def test_joint_prob_sum_validation():
    with pytest.raises(ms.MeasureError):
        ms.JointMeasure.finite((2, 0, 0, 0), [((1, 1), 0.5), ((2, 2), 0.6)])


def test_joint_rejects_trivial_reflecting_marginal():
    with pytest.raises(ms.MeasureError):
        ms.JointMeasure.finite((2, 0, 0, 0), [((0, 1), 0.5), ((-1, 2), 0.5)])


def test_finite_joint_law_with_a_continuous_reflected_coordinate():
    # the reflected-mass check reads the column: no lattice marginal is built
    j = ms.JointMeasure.finite((0, 1, 0, 0), [((0.5,), .5), ((1.5,), .5)])
    assert j.n_reflected == 1 and j.lattice_coords() == []
    with pytest.raises(ms.MeasureError, match="no mass on"):
        ms.JointMeasure.finite((0, 1, 0, 0), [((-0.5,), .5), ((0.0,), .5)])
    with pytest.raises(ms.MeasureError, match="no mass on"):
        ms.JointMeasure.finite((0, 1, 0, 0), [((0.5,), 0.0), ((-1.5,), 1.0)])


def test_fully_symmetric_examples():
    j = ms.JointMeasure.finite((0, 0, 2, 0), [((-1, 1), 0.5), ((1, -1), 0.5)])
    assert not j.is_fully_symmetric()
    pm1 = lattice({-1: 0.5, 1: 0.5})
    jp = ms.JointMeasure.product((0, 0, 2, 0), [pm1, pm1])
    assert jp.is_fully_symmetric()
    j0 = ms.JointMeasure.finite((0, 0, 2, 0), [((0, 0), 1.0)])
    assert j0.is_fully_symmetric()


def test_fully_symmetric_adds_repeated_points():
    j = ms.JointMeasure.finite((1, 0, 0, 0),
                               [((1,), .25), ((1,), .25), ((-1,), .5)])
    assert j.marginal(0).is_symmetric()
    assert j.is_fully_symmetric()
    lop = ms.JointMeasure.finite((1, 0, 0, 0),
                                 [((1,), .25), ((1,), .5), ((-1,), .25)])
    assert not lop.is_fully_symmetric()


def test_fully_symmetric_implies_symmetric_marginals():
    pts = [((-1, -2), 0.25), ((1, -2), 0.25), ((-1, 2), 0.25), ((1, 2), 0.25)]
    j = ms.JointMeasure.finite((0, 0, 2, 0), pts)
    assert j.is_fully_symmetric()
    for i in range(2):
        assert j.marginal(i).is_symmetric()


def test_joint_sampling_matches_probs():
    j = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.25), ((3, 2), 0.75)])
    rng = np.random.default_rng(5)
    draws = j.sample(rng, 40_000)
    frac = float((draws[:, 0] == 2).mean())
    assert abs(frac - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 40_000)


# ---------------------------------------------------------------------------
# subordinator law
# ---------------------------------------------------------------------------

def test_subordinator_pmf_closed_values():
    assert ms.subordinator_pmf(0.5, 1) == pytest.approx(0.5, abs=1e-15)
    assert ms.subordinator_pmf(0.5, 2) == pytest.approx(0.125, abs=1e-15)


def test_subordinator_pmf_mass():
    ks = np.arange(1, 10 ** 6 + 1, dtype=float)
    total = float(ms.subordinator_pmf(0.5, ks).sum())
    tail_bound = float(ms.subordinator_tail(0.5, 10 ** 6))
    assert abs(total - 1.0) <= 10 * tail_bound


def test_subordinator_pmf_asymptotic():
    # pmf(k) ~ alpha / (Gamma(1 - alpha) k^(1 + alpha)) for large k
    for alpha in (0.3, 0.7):
        k = 1e6
        lead = alpha / (math.gamma(1 - alpha) * k ** (1 + alpha))
        assert ms.subordinator_pmf(alpha, k) == pytest.approx(lead, rel=1e-3)


def test_subordinator_pmf_rejects_bad_args():
    with pytest.raises(ms.MeasureError):
        ms.subordinator_pmf(1.5, 3)
    with pytest.raises(ms.MeasureError):
        ms.subordinator_pmf(0.5, 0)
    # P[T > k] is 1 below k = 0, where the gamma ratio means nothing
    for k in (-1, -0.5, np.array([3.0, -2.0])):
        with pytest.raises(ms.MeasureError):
            ms.subordinator_tail(0.5, k)


@given(st.floats(0.05, 0.95), st.integers(1, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_subordinator_pmf_ratio_recurrence(alpha, k):
    r = ms.subordinator_pmf(alpha, k + 1) / ms.subordinator_pmf(alpha, k)
    # log-gamma evaluation carries ~1e-10 relative noise at k ~ 1e5
    assert r == pytest.approx((k - alpha) / (k + 1), rel=5e-9)


def test_subordinator_tail_telescopes():
    alpha = 0.37
    ks = np.arange(1, 2000, dtype=float)
    pm = ms.subordinator_pmf(alpha, ks)
    tails = ms.subordinator_tail(alpha, ks)
    # tail(k) = tail(k-1) - pmf(k), tail(0) = 1
    recon = 1.0 - np.cumsum(pm)
    assert np.max(np.abs(recon - tails)) < 1e-12


def _mp_log_tail(mp, alpha, k):
    a, k = mp.mpf(alpha), mp.mpf(k)
    return mp.loggamma(k + 1 - a) - mp.loggamma(k + 1) - mp.loggamma(1 - a)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.8, 0.95])
def test_subordinator_tail_and_pmf_match_mpmath(alpha):
    mp = pytest.importorskip("mpmath")
    ks = [10 ** e for e in range(3, 19)] + [3 * 10 ** e for e in range(3, 18)] + [1 << 62]
    with mp.workdps(50):
        for k in ks:
            tail = mp.exp(_mp_log_tail(mp, alpha, k))
            pmf = mp.exp(_mp_log_tail(mp, alpha, k - 1)) * alpha / k
            assert abs(ms.subordinator_tail(alpha, float(k)) / tail - 1) < 2e-14, k
            assert abs(ms.subordinator_pmf(alpha, float(k)) / pmf - 1) < 2e-14, k


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.55, 0.8, 0.95])
def test_log_tail_small_k_matches_mpmath(alpha):
    # below k + 1 = 16 the log tail is a difference of math.lgamma values,
    # one per distinct argument: repeated and unordered k, in any shape
    mp = pytest.importorskip("mpmath")
    ks = np.arange(21)
    with mp.workdps(50):
        want = np.array([float(_mp_log_tail(mp, alpha, int(k))) for k in ks])
    assert np.max(np.abs(ms._log_tail(alpha, ks) - want)) < 1e-14
    grid = np.array([[20, 3, 0], [3, 15, 3]])
    assert np.array_equal(ms._log_tail(alpha, grid), ms._log_tail(alpha, ks)[grid])


def test_lambert_w_lower_matches_scipy():
    # the log-tail sampler asks for z in [-0.34, 0); scipy is checked up to
    # 1e-3 from the branch point, where its own error is about 2e-15
    lambertw = pytest.importorskip("scipy.special").lambertw
    z = -np.concatenate([np.geomspace(1e-300, 0.3, 2000),
                         1 / math.e - np.geomspace(1e-3, 0.07, 500)])
    got = ms._lambert_w_lower(z)
    assert np.max(np.abs(got / lambertw(z, -1).real - 1)) < 1e-14


def test_lambert_w_lower_near_the_branch_point_matches_mpmath():
    # W_-1 has relative condition number 1 / |1 + w| there: one rounding of z
    # moves w by about 1e-16 / |1 + w| (scipy 1.17 returns -1 exactly within 2e-9)
    mp = pytest.importorskip("mpmath")
    z = -1 / math.e + np.geomspace(1e-12, 1e-3, 400)
    got = ms._lambert_w_lower(z)
    with mp.workdps(40):
        want = np.array([float(mp.lambertw(float(x), -1).real) for x in z])
    assert np.all(np.abs(got / want - 1) * np.abs(1 + want) < 1e-15)


def test_lambert_w_lower_guards(monkeypatch):
    for bad in (0.0, -1 / math.e, -0.5, 1e-3, math.nan):
        with pytest.raises(ms.MeasureError):
            ms._lambert_w_lower(np.array([-0.1, bad]))
    monkeypatch.setattr(ms, "_HALLEY_STEPS", 1)
    with pytest.raises(ms.MeasureError, match="did not settle"):
        ms._lambert_w_lower(np.array([-0.1, -1e-200]))


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.95])
def test_tau_tail_is_a_beta_mixed_geometric(alpha):
    # P[T > k] = E (1 - B)^k, B ~ Beta(alpha, 1 - alpha), by quadrature: b = t^(1/alpha)
    # removes the b^(alpha - 1) singularity, and the breakpoints b = 2^j / k
    # follow the mass, which sits at b ~ 1/k
    norm = alpha * math.pi / math.sin(math.pi * alpha)      # alpha B(alpha, 1 - alpha)
    for k in (1, 2, 7, 100, 4096, 10 ** 6):
        def f(t):
            return math.exp((k - alpha) * math.log1p(-t ** (1 / alpha)))
        edges = [0.0] + [(2.0 ** j / k) ** alpha for j in range(-8, 40) if 2 ** j < k] + [1.0]
        mass = sum(integrate.quad(f, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:]))
        assert mass / norm == pytest.approx(ms.subordinator_tail(alpha, k), rel=1e-10), k


def _within_5se(hits, n, p, what):
    assert abs(hits / n - p) <= 5 * math.sqrt(p * (1 - p) / n), (what, hits / n, p)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.95])
def test_tau_sample_matches_exact_law(alpha):
    n = 10 ** 6
    t = ms.SubordinatorAlpha(alpha).sample(np.random.default_rng(41), n)
    assert t.dtype == np.int64
    assert 1 <= t.min() and t.max() <= ms.SubordinatorAlpha.CAP
    for k in range(1, 6):
        _within_5se(np.count_nonzero(t == k), n, ms.subordinator_pmf(alpha, k), k)
    for k in (1 << 20, 1 << 40):
        _within_5se(np.count_nonzero(t > k), n, ms.subordinator_tail(alpha, k), k)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.95])
def test_tau_conditional_tail_sample_matches_tail_ratio(alpha):
    n, h = 10 ** 6, 4096
    t = ms.SubordinatorAlpha(alpha).conditional_tail_sample(np.random.default_rng(43), n, h)
    assert h < t.min() and t.max() <= ms.SubordinatorAlpha.CAP
    base = ms.subordinator_tail(alpha, h)
    for k in (h + 1, 2 * h, 1 << 16, 1 << 24, 1 << 40):
        _within_5se(np.count_nonzero(t > k), n, ms.subordinator_tail(alpha, k) / base, k)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_subordinated_increment_matches_binomial_mixture(alpha):
    # P(S_T = y) = sum_k pmf(k) C(k, (k + y)/2) / 2^k, truncated at K = 2^22; the
    # omitted mass is at most tail(K) * max_k>K P(S_k = y) <= tail(K) sqrt(2 / (pi K))
    n, big_k = 10 ** 6, 1 << 22
    y = ms.subordinated_increment_sampler(alpha, np.random.default_rng(47), size=n)
    assert (y.dtype, y.shape) == (np.int64, (n,))
    ks = np.arange(big_k + 1)
    log_fact = gammaln(ks + 1.0)
    pmf = ms.subordinator_pmf(alpha, ks[1:].astype(float))
    omitted = ms.subordinator_tail(alpha, big_k) * math.sqrt(2 / (math.pi * big_k))
    for v in (0, 1, 2, 5):
        k = ks[v or 2::2]                   # k >= max(v, 1) of the parity of v
        j = (k + v) // 2
        binom = np.exp(log_fact[k] - log_fact[j] - log_fact[k - j] - k * math.log(2.0))
        exact = float(np.dot(pmf[k - 1], binom))
        emp = np.count_nonzero(y == v) / n
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(emp - exact) <= 5 * se + omitted, (v, emp, exact)


class _FixedMixing(np.random.Generator):
    """A generator whose Beta draws all return ``b``: fixes the mixing variable."""

    def __init__(self, b, seed):
        super().__init__(np.random.PCG64(seed))
        self.b = b

    def beta(self, a, b, size=None):
        return np.full(size, self.b)


@pytest.mark.parametrize("b", [1e-4, 0.05, 0.3, 0.9])
def test_subordinated_increment_two_sided_geometric_law(b):
    # given B, the draw is a fair step plus G - G', where
    # P(|G - G'| = k) = 2 p q^k / (1 + q) for k >= 1 and p / (1 + q) at k = 0
    n = 10 ** 6
    r = math.sqrt(b * (2 - b))
    p = (b + r) / (1 + r)
    q = 1 - p

    def two_sided(d):
        return p * q ** abs(d) / (1 + q)

    y = ms.subordinated_increment_sampler(0.3, _FixedMixing(b, 59), size=n)
    for v in (0, 1, 2, 5):
        exact = 0.5 * (two_sided(v - 1) + two_sided(v + 1))
        _within_5se(np.count_nonzero(y == v), n, exact, v)
        _within_5se(np.count_nonzero(y == -v), n, exact, -v)


def test_subordinated_increment_at_mixing_one_is_a_fair_step():
    # B = 1 gives p = 1 and log q = -inf: G - G' = 0, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ms.subordinated_increment_sampler(0.3, _FixedMixing(1.0, 61), size=10 ** 4)
    assert set(np.unique(y).tolist()) == {-1, 1}


def test_log_tail_sampler_atoms_beyond_the_cutoff():
    # draws at or above the cutoff follow (tail(k - 1) - tail(k)) / tail(cutoff - 1)
    cutoff = 10
    wh = ms.wiener_hopf_log_tail(cutoff)
    y = wh.sample(np.random.default_rng(53), 10 ** 6)
    beyond = y[y >= cutoff]
    base = wh.tail(cutoff - 1)
    for k in range(cutoff, cutoff + 6):
        _within_5se(np.count_nonzero(beyond == k), len(beyond),
                    (wh.tail(k - 1) - wh.tail(k)) / base, k)


def test_subordinated_sampler_parity_and_mean():
    rng = np.random.default_rng(17)
    sub = ms.SubordinatorAlpha(0.6)
    t = sub.sample(rng, 100_000)
    y = 2 * rng.binomial(t, 0.5) - t
    assert np.all((y & 1) == (t & 1))  # parity of the sum equals parity of T
    draws = ms.subordinated_increment_sampler(0.6, np.random.default_rng(3),
                                              size=100_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se


def test_subordinated_tail_heaviness_ordering():
    heavy = ms.subordinated_increment_sampler(0.3, np.random.default_rng(11),
                                              size=100_000)
    light = ms.subordinated_increment_sampler(0.9, np.random.default_rng(11),
                                              size=100_000)
    assert (np.abs(heavy) > 100).mean() > (np.abs(light) > 100).mean()


def test_subordinator_sampler_matches_exact_law():
    sub = ms.SubordinatorAlpha(0.55)
    rng = np.random.default_rng(123)
    t = sub.sample(rng, 500_000)
    for k in (1, 2, 128, 129, 500):
        emp = float((t == k).mean())
        exact = ms.subordinator_pmf(0.55, k)
        se = math.sqrt(exact * (1 - exact) / 500_000)
        assert abs(emp - exact) < 5 * se + 1e-9, k
    for thr in (1000, 10 ** 5):
        emp = float((t > thr).mean())
        exact = ms.subordinator_tail(0.55, thr)
        se = math.sqrt(exact * (1 - exact) / 500_000)
        assert abs(emp - exact) < 5 * se


def _random_law(seed, lo, hi):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.choice(np.arange(lo, hi + 1), size=4, replace=False))
    return ms.Measure1D.lattice_arrays(xs, rng.dirichlet(np.ones(4)))


def _kfold_pmfs(m, counts):
    """Exact law of a sum of ``c`` draws for each ``c``, by repeated np.convolve."""
    lo, base = int(m.support[0]), np.zeros(int(m.support[-1] - m.support[0]) + 1)
    base[m.support - lo] = m.probs
    pmfs, cur = {}, np.ones(1)
    for c in range(max(counts) + 1):
        if c in counts:
            pmfs[c] = {c * lo + i: p for i, p in enumerate(cur)}
        cur = np.convolve(cur, base)
    return pmfs


@pytest.mark.parametrize("law", [_random_law(1, 0, 6), _random_law(2, -4, 5),
                                 _random_law(3, -9, -1),
                                 ms.Measure1D.lattice({-3: .5, 5: .5})],
                         ids=["one_sided", "two_sided", "negative", "sparse"])
def test_lattice_sum_sampler_matches_convolution_powers(law):
    counts = (0, 1, 7, 64, 1000)
    n = 20_000
    rng = np.random.default_rng(8)
    rows = rng.permutation(np.repeat(counts, n))      # mixed counts per row
    sums = ms.LatticeSumSampler(law).sample(rows, rng)
    oracle = _kfold_pmfs(law, counts)
    for c in counts:
        got = sums[rows == c]
        assert c * law.support[0] <= got.min() and got.max() <= c * law.support[-1]
        vals, hits = np.unique(got, return_counts=True)
        freq = dict(zip(vals.tolist(), (hits / n).tolist()))
        keys = sorted(set(freq) | set(oracle[c]))
        p = np.array([oracle[c].get(v, 0.0) for v in keys])
        f = np.array([freq.get(v, 0.0) for v in keys])
        assert not f[p == 0].any(), c                  # no impossible sum
        # atoms expected fewer than 10 times are pooled into one bin
        common = p * n >= 10
        p = np.append(p[common], p[~common].sum())
        f = np.append(f[common], f[~common].sum())
        assert np.all(np.abs(f - p) <= 5 * np.sqrt(p * (1 - p) / n)), c


@given(st.integers(1, 100_000), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.5, 0.99]), st.booleans(), st.sampled_from([0.0, -9.0, 1e3]))
@settings(max_examples=60, deadline=None)
def test_guide_table_equals_searchsorted(n, seed, zero_frac, heavy, shift):
    rng = np.random.default_rng(seed)
    w = rng.pareto(0.3, n) if heavy else rng.random(n)
    w[rng.random(n) < zero_frac] = 0.0          # flat runs: zero-mass atoms
    w[rng.integers(n)] += 1e-3
    cdf = shift + np.cumsum(w)
    edges = cdf[0] + np.arange(n) * ((cdf[-1] - cdf[0]) / n)     # the bucket edges
    u = np.concatenate([cdf[0] + rng.random(2000) * (cdf[-1] - cdf[0]), cdf, edges,
                        np.nextafter(cdf, -np.inf), np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), [shift, cdf[-1] + 1.0]])
    got = ms.GuideTable(cdf).search(u)
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("short", [0, 64], ids=["guide", "count"])
def test_guide_table_branches_equal_searchsorted(short, monkeypatch):
    monkeypatch.setattr(ms.GuideTable, "SHORT", short)
    rng = np.random.default_rng(67)
    for n in range(1, 65):
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0            # zero-probability atoms
        w[0] += 1e-3
        cdf = np.cumsum(w)
        u = np.concatenate([[0.0], cdf, np.nextafter(cdf, -np.inf), rng.random(200) * cdf[-1],
                            [cdf[-1] + 1.0]])
        table = ms.GuideTable(cdf)
        assert np.array_equal(table.search(u), np.searchsorted(cdf, u, side="right")), n
        assert table.search(u).dtype == np.intp
        got = table.draw(np.random.default_rng(n), 500)
        ref = np.searchsorted(cdf, np.random.default_rng(n).random(500) * cdf[-1], side="right")
        assert np.array_equal(got, np.minimum(ref, n - 1)), n


def _searchsorted_draws(cdf, u):
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), len(cdf) - 1)


@pytest.mark.parametrize("law", [lattice({1: 1.0}), lattice({-1: 0.5, 1: 0.5}),
                                 _random_law(4, -3, 9),
                                 ms.Measure1D.lattice_arrays(
                                     np.arange(-20, 21),
                                     np.random.default_rng(5).dirichlet(np.ones(41)))],
                         ids=["point", "fair", "short", "long"])
def test_finite_draws_equal_searchsorted_inversion(law):
    got = law.sample(np.random.default_rng(71), 50_000)
    u = np.random.default_rng(71).random(50_000)
    assert np.array_equal(got, law.support[_searchsorted_draws(np.cumsum(law.probs), u)])


def test_tailed_draws_equal_searchsorted_inversion():
    wh = ms.wiener_hopf_log_tail(10 ** 5)
    got = wh.sample(np.random.default_rng(73), 200_000)
    u = np.random.default_rng(73).random(200_000)
    cdf = np.cumsum(wh.probs)
    in_table = u < cdf[-1]
    assert np.array_equal(got[in_table],
                          wh.support[np.searchsorted(cdf, u[in_table], side="right")])
    assert np.all(got[~in_table] >= 10 ** 5)


def test_joint_finite_draws_equal_searchsorted_inversion():
    j = ms.JointMeasure.finite((1, 0, 1, 0), [((1, -1), 0.2), ((2, 0), 0.3),
                                              ((-1, 3), 0.1), ((4, 4), 0.4)])
    got = j.sample(np.random.default_rng(79), 50_000)
    u = np.random.default_rng(79).random(50_000)
    assert np.array_equal(got, j.points[_searchsorted_draws(np.cumsum(j.probs), u)])


TABLE_LAWS = {   # laws whose draws are table inversions of one rng.random stream
    "lattice": lambda: lattice({-2: .2, 1: .3, 3: .5}),
    "tailed": lambda: ms.wiener_hopf_log_tail(1000),
    "joint_finite": lambda: ms.JointMeasure.finite(
        (1, 0, 1, 0), [((1, -1), .2), ((2, 0), .3), ((-1, 3), .1), ((4, 4), .4)]),
    "joint_product": lambda: ms.JointMeasure.product(
        (1, 0, 1, 0), [lattice({1: .5, 2: .5}), lattice({-2: .2, 1: .3, 3: .5})]),
}


@pytest.mark.parametrize("name", sorted(TABLE_LAWS))
def test_table_draws_do_not_depend_on_the_block_budget(monkeypatch, name):
    law = TABLE_LAWS[name]()
    whole = law.sample(np.random.default_rng(83), 5000)
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 64)
    assert np.array_equal(law.sample(np.random.default_rng(83), 5000), whole)


BULK_DRAWS = {
    "subordinated": lambda rng: ms.subordinated(0.6).sample(rng, 10 ** 6),
    "tau": lambda rng: ms.SubordinatorAlpha(0.6).sample(rng, 10 ** 6),
    "tau_tail": lambda rng: ms.SubordinatorAlpha(0.6).conditional_tail_sample(
        rng, 10 ** 6, 4096),
    "lattice": lambda rng: lattice({-2: .2, 1: .3, 3: .5}).sample(rng, 10 ** 6),
}


@pytest.mark.parametrize("budget", [None, 1 << 13])
@pytest.mark.parametrize("name", sorted(BULK_DRAWS))
def test_bulk_draws_hold_their_result_plus_the_block_budget(monkeypatch, traced_peak,
                                                             name, budget):
    if budget is not None:
        monkeypatch.setattr(ms, "_BLOCK_DRAWS", budget)
    out, peak = traced_peak(lambda: BULK_DRAWS[name](np.random.default_rng(89)))
    assert out.shape == (10 ** 6,)
    assert peak <= out.nbytes + 16 * 8 * ms._BLOCK_DRAWS


MAPPED_DRAWS = dict(BULK_DRAWS,
                    joint_finite=lambda rng: TABLE_LAWS["joint_finite"]().sample(rng, 10 ** 6),
                    joint_product=lambda rng: TABLE_LAWS["joint_product"]().sample(rng, 10 ** 6))


def _buffer(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.mark.parametrize("name", sorted(MAPPED_DRAWS))
def test_bulk_results_are_private_mappings_beside_one_block(monkeypatch, traced_peak, name):
    # a result of more than one block lives outside the malloc heap, so the
    # traced allocations of the call are its blocks alone
    monkeypatch.setattr(ms, "_BLOCK_DRAWS", 1 << 13)
    out, peak = traced_peak(lambda: MAPPED_DRAWS[name](np.random.default_rng(97)))
    assert len(out) == 10 ** 6 and out.flags.writeable
    assert isinstance(_buffer(out), mmap.mmap)
    assert peak <= 16 * 8 * ms._BLOCK_DRAWS


def test_tailed_draws_hold_their_result_plus_one_block(traced_peak):
    # uniforms are drawn and inverted one block at a time: the call holds its
    # result, one block and its one tail draw (about 2% of the draws here)
    law = ms.wiener_hopf_log_tail(10 ** 5)
    law.sample(np.random.default_rng(0), 10)                # builds the tables
    out, peak = traced_peak(lambda: law.sample(np.random.default_rng(101), 10 ** 6))
    assert out.dtype == np.int64 and isinstance(_buffer(out), mmap.mmap)
    assert peak < out.nbytes / 2


def test_guide_table_on_the_subordinator_tail_table():
    # heavy-tailed: 2^20 log tails, the densest entries at the lowest values
    table = ms.GuideTable(ms._log_tail(0.3, np.arange(1 << 20, -1, -1, dtype=float)))
    u = np.concatenate([np.log(np.random.default_rng(2).random(200_000)), table.cdf[::97]])
    assert np.array_equal(table.search(u), np.searchsorted(table.cdf, u, side="right"))


def _searchsorted_sums(levels, counts, rng):
    """Sums drawn by the plain inversion of each level's cdf from one stream."""
    want = np.zeros(len(counts), dtype=np.int64)
    for j, (offset, table) in enumerate(levels):
        mask = (counts >> j) & 1 == 1
        if mask.any():
            idx = np.searchsorted(table.cdf, rng.random(int(mask.sum())) * table.cdf[-1],
                                  side="right")
            want[mask] += offset + np.minimum(idx, len(table.cdf) - 1)
    return want


def test_lattice_sum_sampler_draws_equal_searchsorted_inversion():
    law = _random_law(2, -4, 5)
    counts = np.random.default_rng(0).integers(0, 5000, 3000)
    sampler = ms.LatticeSumSampler(law)
    got = sampler.sample(counts, np.random.default_rng(9))
    assert np.array_equal(got, _searchsorted_sums(sampler._levels, counts,
                                                  np.random.default_rng(9)))


# level 0 pmfs of 3, 6, 10 and 24 entries: 2 len - 1 = 5, 11, 19, 47
SUM_LAWS = {"pm1": lattice({-1: 0.5, 1: 0.5}), "three_point": lattice({-2: .3, 0: .3, 3: .4}),
            "random": _random_law(2, -4, 5),
            "uniform_24": ms.Measure1D.lattice_arrays(np.arange(1, 25), np.full(24, 1 / 24))}


@pytest.mark.parametrize("law", SUM_LAWS.values(), ids=SUM_LAWS.keys())
def test_lattice_sum_sampler_levels_are_convolution_squares(law):
    counts = np.random.default_rng(0).integers(0, 1 << 12, 3000)
    sampler = ms.LatticeSumSampler(law)
    got = sampler.sample(counts, np.random.default_rng(9))
    assert len(sampler._levels) == 12
    for (lo, below), (offset, table) in zip(sampler._levels, sampler._levels[1:]):
        pmf = np.diff(below.cdf, prepend=0.0)
        square = np.maximum(np.convolve(pmf, pmf), 0.0)
        cs = np.cumsum(square)
        a, b = np.searchsorted(cs, 1e-15), np.searchsorted(cs, cs[-1] - 1e-15) + 1
        want = np.zeros_like(square)
        want[a:b] = square[a:b]
        # rounding may move a trim point by a few atoms, each of mass below 1e-15
        level = np.zeros_like(square)
        i = offset - 2 * lo
        level[i:i + len(table.cdf)] = np.diff(table.cdf, prepend=0.0)
        assert np.abs(level - want).max() <= 1e-15
    assert np.array_equal(got, _searchsorted_sums(sampler._levels, counts,
                                                  np.random.default_rng(9)))


def test_lattice_sum_sampler_refuses_infinite_support():
    with pytest.raises(ms.MeasureError):
        ms.LatticeSumSampler(ms.subordinated(0.5))
    with pytest.raises(ms.MeasureError):
        ms.LatticeSumSampler(ms.uniform(-1.0, 1.0))


# ---------------------------------------------------------------------------
# builtin families and config loading
# ---------------------------------------------------------------------------

def test_wiener_hopf_family_metadata():
    wh = ms.wiener_hopf_log_tail(cutoff=20_000)
    c = wh.meta["normalizing_constant"]
    assert 0 < c < 1
    # atoms follow c*log(x+2)/(x+2)^1.5 exactly
    assert wh.prob(0) == pytest.approx(c * math.log(2) / 2 ** 1.5, rel=1e-12)
    assert wh.prob(7) == pytest.approx(c * math.log(9) / 9 ** 1.5, rel=1e-12)


def test_uniform_family():
    u = ms.uniform(0, 1)
    assert u.tail(0.25) == pytest.approx(0.75)
    assert u.moment(1.0) == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(0)
    x = u.sample(rng, 10_000)
    assert 0 <= x.min() and x.max() <= 1


def test_measure_from_config_forms():
    m = ms.measure_from_config({"atoms": [[1, 0.5], [2, 0.5]]})
    assert m.atoms_dict() == {1: 0.5, 2: 0.5}
    u = ms.measure_from_config({"family": "uniform", "a": -1.0, "b": 1.0})
    assert u.kind == "continuous"
    s = ms.measure_from_config({"family": "subordinated", "alpha": 0.5})
    assert s.is_lattice and s.is_symmetric()
    with pytest.raises(ms.MeasureError):
        ms.measure_from_config({"family": "nope"})
    with pytest.raises(ms.MeasureError):
        ms.measure_from_config({})


def test_measure_from_config_refuses_unknown_family_keys():
    with pytest.raises(ms.MeasureError):
        ms.measure_from_config({"family": "uniform", "c": 1})
    with pytest.raises(ms.MeasureError):
        ms.measure_from_config({"family": "subordinated", "alpha": 0.5, "cap": 1048576})


def test_joint_from_config_roundtrip():
    cfg = {"dims": [2, 0, 0, 0],
           "atoms": [[[2, 3], 0.5], [[3, 2], 0.5]]}
    j = ms.joint_from_config(cfg)
    assert j.dims == (2, 0, 0, 0)
    assert j.marginal(0).atoms_dict() == {2: 0.5, 3: 0.5}
    cfg2 = {"dims": [1, 0, 1, 0],
            "product": [{"atoms": [[1, 0.5], [2, 0.5]]},
                        {"atoms": [[-1, 0.5], [1, 0.5]]}]}
    j2 = ms.joint_from_config(cfg2)
    assert j2.dims == (1, 0, 1, 0)
