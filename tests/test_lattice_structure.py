"""Tests for parity cosets, essential classes and the constant-map witness."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reflectwalk import lattice_structure as ls
from reflectwalk import measures as ms
from reflectwalk import reflect_core as rc


def joint_finite(atoms, dims=(2, 0, 0, 0)):
    return ms.JointMeasure.finite(dims, atoms)


LAW_A = joint_finite([((2, 3), 0.5), ((3, 2), 0.5)])
LAW_B = joint_finite([((-1, 2), 0.5), ((2, -1), 0.5)])
LAW_C = joint_finite([((-1, 3), 0.5), ((3, -1), 0.5)])


# ---------------------------------------------------------------------------
# parity group
# ---------------------------------------------------------------------------

def test_parity_group_two_element_subgroup():
    dec = ls.parity_group(LAW_C)
    assert {tuple(map(int, g)) for g in dec.group} == {(0, 0), (1, 1)}
    assert dec.n_cosets == 2
    assert dec.coset_of([0, 0]) == 0
    assert dec.coset_of([1, 1]) == 0
    assert dec.coset_of([1, 0]) == dec.coset_of([0, 1]) == 1


def test_parity_group_full_hypercube():
    dec = ls.parity_group(LAW_A)
    assert len(dec.group) == 4 and dec.n_cosets == 1
    assert dec.exponent == 0


def test_parity_group_one_dimensional():
    j = ms.JointMeasure.product((1, 0, 0, 0), [ms.Measure1D.lattice({1: 1.0})])
    dec = ls.parity_group(j)
    assert len(dec.group) == 2 and dec.n_cosets == 1


def test_parity_group_rejects_all_even():
    j = joint_finite([((2, 2), 0.5), ((4, 6), 0.5)])
    with pytest.raises(ms.MeasureError):
        ls.parity_group(j)


def test_group_and_cosets_partition_hypercube():
    for law in (LAW_A, LAW_B, LAW_C):
        dec = ls.parity_group(law)
        assert len(dec.group) * dec.n_cosets == 2 ** dec.r1
        seen = set()
        for cs in dec.cosets:
            for e in cs:
                seen.add(tuple(map(int, e)))
        assert len(seen) == 2 ** dec.r1


def _random_parity_laws(rng, n):
    """Finite and product lattice laws with 1..5 reflecting coordinates."""
    for k in range(n):
        r1 = 1 + k % 5
        if k % 2:
            while True:
                pts = rng.integers(-2, 5, size=(int(rng.integers(1, 6)), r1))
                pts = np.vstack([pts, rng.integers(1, 5, size=r1)])   # mass above 0
                if (pts & 1).any():
                    break
            pts = np.unique(pts, axis=0)
            probs = rng.dirichlet(np.ones(len(pts)))
            yield joint_finite(list(zip(pts.tolist(), probs.tolist())), (r1, 0, 0, 0))
        else:
            factors = []
            for _ in range(r1):
                sup = np.unique(np.append(rng.integers(0, 6, size=2), 1))
                factors.append(ms.Measure1D.lattice_arrays(
                    sup, rng.dirichlet(np.ones(len(sup)))))
            yield ms.JointMeasure.product((r1, 0, 0, 0), factors)


def _xor_span(rows):
    span = {(0,) * len(rows[0])}
    while True:
        grown = span | {tuple(a ^ b for a, b in zip(s, g)) for s in span for g in rows}
        if grown == span:
            return span
        span = grown


def test_parity_structure_of_random_laws():
    rng = np.random.default_rng(11)
    for law in _random_parity_laws(rng, 60):
        dec = ls.parity_group(law)
        r1 = dec.r1
        if law.is_finite:
            pars = np.asarray(law.points[:, :r1], dtype=np.int64) & 1
        else:
            pars = np.array([[int(x) & 1 for x in row] for row in law.atoms()[0]])
        span = _xor_span([tuple(map(int, p)) for p in pars])
        assert [tuple(map(int, g)) for g in dec.group] == sorted(span)
        # the cosets tile the hypercube, each in tuple order, in least-member order
        vectors = list(itertools.product((0, 1), repeat=r1))
        rows = [[tuple(map(int, e)) for e in cs] for cs in dec.cosets]
        assert rows[0] == sorted(span)
        assert sorted(e for cs in rows for e in cs) == vectors
        assert [cs[0] for cs in rows] == sorted(cs[0] for cs in rows)
        for cs in rows:
            assert cs == sorted({tuple(a ^ b for a, b in zip(cs[0], g)) for g in span})
        assert dec.n_cosets == 2 ** dec.exponent == 2 ** r1 // len(span)
        for v in vectors:
            assert v in rows[dec.coset_of(v)]
        # the uniform law on each coset is stationary for the parity kernel
        kernel, pmf, _ = ls.hypercube_chain(law)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        for cs in dec.cosets:
            u = np.zeros(kernel.shape[0])
            u[np.asarray(cs, dtype=np.int64) @ (1 << np.arange(r1))] = 1.0 / len(cs)
            assert np.abs(u @ kernel - u).max() < 1e-15


# ---------------------------------------------------------------------------
# parity kernel
# ---------------------------------------------------------------------------

def test_hypercube_chain_one_dimensional():
    j = ms.JointMeasure.product((1, 0, 0, 0),
                                [ms.Measure1D.lattice({1: 0.5, 2: 0.5})])
    kernel, pmf, _ = ls.hypercube_chain(j)
    assert kernel[0, 0] == kernel[1, 1] == pytest.approx(0.5)   # even mass
    assert kernel[0, 1] == kernel[1, 0] == pytest.approx(0.5)   # odd mass


def test_hypercube_chain_deterministic_flip():
    kernel, pmf, _ = ls.hypercube_chain(LAW_C)
    # both atoms have parity (1, 1): deterministic jump by (1, 1)
    assert pmf[0b11] == pytest.approx(1.0)
    assert kernel[0b00, 0b11] == pytest.approx(1.0)


def test_uniform_law_stationary_on_each_coset():
    for law in (LAW_A, LAW_B, LAW_C):
        kernel, _, dec = ls.hypercube_chain(law)
        for cs in dec.cosets:
            codes = (np.asarray(cs) @ (1 << np.arange(dec.r1))).astype(int)
            u = np.zeros(kernel.shape[0])
            u[codes] = 1.0 / len(codes)
            assert np.abs(u @ kernel - u).max() < 1e-15


# ---------------------------------------------------------------------------
# essential classes
# ---------------------------------------------------------------------------

def test_essential_classes_bounded_support():
    reports = ls.essential_classes(LAW_A, window=20)
    assert len(reports) == 1
    r = reports[0]
    assert r.certificate == "exact_bounded"
    expected = {(i, jj) for i in range(4) for jj in range(4)} \
        - {(0, 0), (2, 3), (3, 2), (3, 3)}
    assert r.member_set() == expected
    assert sorted(map(sorted, r.transient_classes)) == \
        [[(0, 0), (2, 3), (3, 2)], [(3, 3)]]


def test_essential_classes_transient_classes_sorted():
    r = ls.essential_classes(LAW_A, window=20)[0]
    assert r.transient_classes == [[(0, 0), (2, 3), (3, 2)], [(3, 3)]]


def test_essential_classes_unbounded_support():
    reports = ls.essential_classes(LAW_B, window=20)
    assert len(reports) == 1
    r = reports[0]
    assert r.certificate == "windowed"
    expected = {(i, jj) for i in range(21) for jj in range(21)} - {(0, 0)}
    assert r.member_set() == expected
    assert r.transient_classes == [[(0, 0)]]


def test_essential_classes_coset_split():
    reports = ls.essential_classes(LAW_C, window=20)
    assert len(reports) == 2
    odd = {(i, jj) for i in range(21) for jj in range(21) if (i + jj) % 2 == 1}
    even = {(i, jj) for i in range(21) for jj in range(21)
            if (i + jj) % 2 == 0} - {(0, 0)}
    by_coset = {r.coset_index: r for r in reports}
    assert by_coset[0].member_set() == even
    assert by_coset[0].transient_classes == [[(0, 0)]]
    assert by_coset[1].member_set() == odd
    assert by_coset[1].transient_classes == []


def test_essential_class_closure_property():
    reports = ls.essential_classes(LAW_A, window=20)
    members = reports[0].member_set()
    supp = [np.array([2, 3]), np.array([3, 2])]
    for x in members:
        for y in supp:
            img = tuple(int(v) for v in np.abs(np.array(x) - y))
            assert img in members


def test_essential_class_single_coset_and_full_parity_coverage():
    for law in (LAW_A, LAW_C):
        dec = ls.parity_group(law)
        for rep in ls.essential_classes(law, window=12):
            cosets = {dec.coset_of(np.array(m) % 2) for m in rep.members}
            assert cosets == {rep.coset_index}
            parities = {tuple(np.array(m) % 2) for m in rep.members}
            expected = {tuple(map(int, e)) for e in dec.cosets[rep.coset_index]}
            assert parities == expected


def test_window_too_small_raises():
    # margins stop at 128, the first 4 * 2^k past 4 (window + 16) = 68: no jump of 300 fits
    law = joint_finite([((-1, 300), 0.5), ((300, -1), 0.5)])
    with pytest.raises(ms.MeasureError, match="cannot contain"):
        ls.essential_classes(law, window=1)


@pytest.mark.parametrize("law", [LAW_A, LAW_B])
@pytest.mark.parametrize("window", [-1, -3])
def test_negative_window_raises(law, window):
    with pytest.raises(ms.MeasureError, match="window must be at least 0"):
        ls.essential_classes(law, window=window)


def test_margin_starts_at_the_least_that_holds_a_jump():
    # a jump of 30 at window 3 needs 3 + m >= 30: the first margin is 32, and
    # the report is returned at 64, the first doubling that leaves it unchanged
    law = joint_finite([((-1, 30), 0.5), ((30, -1), 0.5)])
    assert [r.margin for r in ls.essential_classes(law, window=3)] == [64]


def test_nonnegative_law_uses_the_exact_box_below_its_tops():
    # the box [0, 3]^2 is closed whatever the window: (0, 0) reaches (2, 3),
    # which leaves its component, so (0, 0) is transient at every window
    rep, = ls.essential_classes(LAW_A, window=2)
    assert (rep.certificate, rep.margin) == ("exact_bounded", 0)
    assert rep.member_set() == {(i, jj) for i in range(3) for jj in range(3)} - {(0, 0)}
    assert rep.transient_classes == [[(0, 0)]]


@pytest.mark.parametrize("top", [130, 300, 50_000])
def test_nonnegative_law_beyond_the_margin_cap_is_refused(top):
    # the exact box side is tied to the window as the windowed one is: at
    # window 1 the margins stop at 128, so a top above 1 + 128 is refused
    law = joint_finite([((1, top), 0.5), ((top, 1), 0.5)])
    with pytest.raises(ms.MeasureError, match="cannot contain"):
        ls.essential_classes(law, window=1)


def test_nonnegative_law_at_the_margin_cap_uses_the_exact_box():
    law = joint_finite([((1, 129), 0.5), ((129, 1), 0.5)])
    reports = ls.essential_classes(law, window=1)
    assert {(r.certificate, r.margin) for r in reports} == {("exact_bounded", 0)}


def _closed_window_classes(pts, window):
    """Closed classes of ``x -> |x - y|`` over ``prod [0, N_i]``, cut to the window,
    by brute-force reachability."""
    states = list(itertools.product(*[range(t + 1) for t in pts.max(axis=0)]))
    reach = {}
    for s in states:
        seen, stack = {s}, [s]
        while stack:
            x = np.array(stack.pop())
            for t in map(tuple, np.abs(x - pts).tolist()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[s] = seen
    return {frozenset(t for t in reach[s] if max(t) <= window) for s in states
            if max(s) <= window and all(s in reach[t] for t in reach[s])}


def test_exact_box_classes_match_brute_force_above_the_window():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        pts = rng.integers(0, 9 if d == 2 else 6, size=(int(rng.integers(2, 5)), d))
        window = int(rng.integers(1, pts.max()))
        try:
            law = ms.JointMeasure((d, 0, 0, 0), points=pts.astype(float),
                                  probs=np.full(len(pts), 1 / len(pts)))
            reports = ls.essential_classes(law, window)
        except ms.MeasureError:       # a coordinate without mass on (0, inf), or all even
            continue
        assert {r.certificate for r in reports} == {"exact_bounded"}
        assert {frozenset(r.member_set()) for r in reports} == \
            _closed_window_classes(pts, window)


@pytest.mark.parametrize("window", [1, 6])
def test_unsettled_classes_at_the_margin_cap_raise(window):
    # the reports at margins 64 and 128 still differ, and 128 is past the cap
    law = joint_finite([((2, -2), 0.5), ((32, 39), 0.5)])
    with pytest.raises(ms.MeasureError, match="enlarge the window"):
        ls.essential_classes(law, window=window)


def test_classes_settled_below_the_cap_are_returned():
    law = joint_finite([((2, -2), 0.5), ((32, 39), 0.5)])
    reports = ls.essential_classes(law, window=20)
    assert [r.margin for r in reports] == [128, 128]
    assert {r.certificate for r in reports} == {"windowed"}


def test_coset_confinement_of_trajectories():
    dec = ls.parity_group(LAW_C)
    spec = rc.WalkSpec(LAW_C)
    for start, coset in (((0.0, 1.0), 1), ((1.0, 1.0), 0)):
        traj = rc.simulate(spec, start, 500, 11)
        pars = np.asarray(traj.states[:, :2], dtype=np.int64) % 2
        assert {dec.coset_of(p) for p in pars} == {coset}


# ---------------------------------------------------------------------------
# constant-map witness
# ---------------------------------------------------------------------------

def test_witness_support_two_three():
    w = ls.constant_map_witness(ms.Measure1D.lattice({2: 0.5, 3: 0.5}), 50)
    g = w.euclid_words[-1]
    assert g.letters.ravel().tolist() == [3, 2]
    assert g.evaluate(0) == 1 and g.evaluate(1) == 0
    h = w.parity_map
    assert (h.evaluate(0), h.evaluate(1), h.evaluate(2)) == (0, 1, 0)
    assert w.checks_passed


def test_witness_support_containing_one():
    w = ls.constant_map_witness(ms.Measure1D.lattice({1: 0.3, 7: 0.7}), 30)
    assert w.generators == [1]
    assert w.euclid_words[-1].letters.ravel().tolist() == [1]
    assert w.parity_map.letters.ravel().tolist() == [1, 1]
    assert w.checks_passed


def test_witness_negative_support_lift():
    w = ls.constant_map_witness(ms.Measure1D.lattice({-1: 0.5, 3: 0.5}), 50)
    assert w.generators == [2, 3]
    lift = w.generator_words[0]
    assert lift.letters.ravel().tolist() == [-1, 3]
    xs = np.arange(0, 101)
    assert np.array_equal(lift.evaluate(xs), np.abs(xs - 2))
    assert w.checks_passed


def test_witness_euclid_words_agree_with_reflection_at_gcd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        sup = rng.choice(np.arange(-10, 11), size=k, replace=False)
        if not (sup > 0).any():
            continue
        pr = rng.dirichlet(np.ones(k))
        m, _ = ms.gcd_normalize(ms.Measure1D.lattice(
            {int(x): float(p) for x, p in zip(sup, pr)}))
        if not (m.support > 0).any():
            continue
        w = ls.constant_map_witness(m, 50)
        assert w.checks_passed
        for g, d in zip(w.euclid_words, w.gcd_chain):
            pts = np.arange(0, d + 1)
            assert np.array_equal(g.evaluate(pts), np.abs(pts - d))


def test_witness_rejects_bad_inputs():
    with pytest.raises(ms.MeasureError):
        ls.constant_map_witness(ms.Measure1D.lattice({2: 0.5, 4: 0.5}), 10)
    with pytest.raises(ms.MeasureError):
        ls.constant_map_witness(ms.Measure1D.lattice({-3: 0.5, -1: 0.5}), 10)


# ---------------------------------------------------------------------------
# one-dimensional attractor
# ---------------------------------------------------------------------------

def test_attractor_bounded_lattice():
    a = ls.attractor_1d(ms.Measure1D.lattice({1: 0.5, 2: 0.5}))
    assert a.points().tolist() == [0, 1, 2]


def test_attractor_unbounded_with_negative_support():
    a = ls.attractor_1d(ms.Measure1D.lattice({-1: 0.5, 2: 0.5}))
    assert a.upper == float("inf")


def test_attractor_continuous_interval():
    a = ls.attractor_1d(ms.uniform(0, 1))
    assert a.upper == 1.0 and not a.lattice


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def test_parity_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(root / "demos" / "parity_and_classes.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "parity kernel of law (a)" in out.stdout
