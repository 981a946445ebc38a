"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success; failures carry the offending
numbers.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import time

import numpy as np

from reflectwalk import exact_1d as ex
from reflectwalk import lattice_structure as ls
from reflectwalk import measures as ms
from reflectwalk import reflect_core as rc
import reflectwalk.diagnostics as dg

from family_helpers import (power_tail_family, random_nonneg_lattice,
                            random_normalized_lattice, random_symmetric_joint)


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_invariant_balance():
    """nu P = nu for 50 randomized nonnegative lattice laws, residual < 1e-12."""
    rng = np.random.default_rng(20240811)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        m = random_nonneg_lattice(rng, max_top=25)
        kernel = ex.reflected_kernel_matrix(m)
        assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12
        nu = ex.invariant_measure_nonneg(m)
        v = np.zeros(kernel.shape[0])
        v[nu.support] = nu.masses
        worst = max(worst, float(np.abs(v @ kernel - v).max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12, worst
    assert elapsed < 5.0, elapsed
    _report(1, f"max residual {worst:.2e} over 50 laws in {elapsed:.2f}s")


def test_criterion_02_mass_identity():
    """Total invariant mass equals E(Y): 1e-12 lattice, 1e-6 continuous."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m = random_nonneg_lattice(rng)
        nu = ex.invariant_measure_nonneg(m)
        worst = max(worst, abs(nu.total_mass - m.moment(1.0)))
    assert worst < 1e-12, worst
    nu_u = ex.invariant_measure_nonneg(ms.uniform(0, 1))
    assert abs(nu_u.total_mass - 0.5) < 1e-6
    _report(2, f"lattice deviation {worst:.2e}; uniform mass "
               f"{nu_u.total_mass:.8f}")


def test_criterion_03_golden_classes():
    """The three worked two-dimensional class structures, exactly."""
    t0 = time.monotonic()
    ja = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    ra = ls.essential_classes(ja, window=20)
    assert len(ra) == 1 and ra[0].certificate == "exact_bounded"
    expected_a = {(i, j) for i in range(4) for j in range(4)} \
        - {(0, 0), (2, 3), (3, 2), (3, 3)}
    assert ra[0].member_set() == expected_a
    assert sorted(map(sorted, ra[0].transient_classes)) == \
        [[(0, 0), (2, 3), (3, 2)], [(3, 3)]]

    jb = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 2), 0.5), ((2, -1), 0.5)])
    rb = ls.essential_classes(jb, window=20)
    expected_b = {(i, j) for i in range(21) for j in range(21)} - {(0, 0)}
    assert len(rb) == 1 and rb[0].certificate == "windowed"
    assert rb[0].member_set() == expected_b
    assert rb[0].transient_classes == [[(0, 0)]]

    jc = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 3), 0.5), ((3, -1), 0.5)])
    dec = ls.parity_group(jc)
    assert {tuple(map(int, g)) for g in dec.group} == {(0, 0), (1, 1)}
    rcs = ls.essential_classes(jc, window=20)
    by_coset = {r.coset_index: r for r in rcs}
    odd = {(i, j) for i in range(21) for j in range(21) if (i + j) % 2 == 1}
    even = {(i, j) for i in range(21) for j in range(21)
            if (i + j) % 2 == 0} - {(0, 0)}
    assert by_coset[1].member_set() == odd
    assert by_coset[0].member_set() == even
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _report(3, f"examples (a), (b), (c) reproduced in {elapsed:.2f}s")


def test_criterion_04_witness_tables():
    """Parity-map construction passes the full verification table, 30 laws."""
    rng = np.random.default_rng(424242)
    t0 = time.monotonic()
    for i in range(30):
        m = random_normalized_lattice(rng, -10, 10)
        w = ls.constant_map_witness(m, verified_range=50)
        assert w.checks_passed, (i, m.atoms_dict())
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _report(4, f"30 randomized witnesses verified to k=50 in {elapsed:.2f}s")


def test_criterion_05_symmetrization_exact():
    """Reflected law equals folded free law, enumeration scale, < 1e-12."""
    rng = np.random.default_rng(55)
    worst = 0.0
    cases = 0
    for dim in (1, 2):
        for _ in range(5):
            j = random_symmetric_joint(rng, dim)
            n = int(rng.integers(2, 7))
            n_words = (len(j.support_points()) if j.points is None
                       else len(j.points)) ** n
            if n_words > 500_000:
                n = 3
            start = [float(rng.integers(0, 3)) for _ in range(dim)]
            d = dg.symmetrization_check(j, start, n, "exact_enumeration")
            worst = max(worst, d)
            cases += 1
    assert cases == 10
    assert worst < 1e-12, worst
    _report(5, f"max discrepancy {worst:.2e} over 10 symmetric laws")


def test_criterion_06_occupation_convergence():
    """TV(occupation, invariant law) < 0.02 after 1e6 steps, fixed seed."""
    t0 = time.monotonic()
    m = ms.Measure1D.lattice({1: 0.5, 2: 0.5})
    spec = rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0), [m]))
    nu = ex.invariant_measure_nonneg(m)
    tv, _ = dg.occupation_vs_invariant(spec, nu, 1_000_000, 10_000, 20240607)
    elapsed = time.monotonic() - t0
    assert tv < 0.02, tv
    assert elapsed < 10.0, elapsed
    _report(6, f"TV {tv:.4f} after 1e6 steps in {elapsed:.2f}s")


def test_criterion_07_ladder_consistency():
    """Exact skip-free ladder vs Monte Carlo: TV < 0.02; round trip 1e-14."""
    m = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    exact = ex.ladder_exact_skip_free(m).ladder.atoms_dict()
    mc = ex.ladder_monte_carlo(m, 100_000, np.random.default_rng(1905),
                               step_cap=1_000_000)
    got = mc.ladder.atoms_dict()
    tv = 0.5 * sum(abs(got.get(k, 0.0) - v) for k, v in exact.items())
    tv += 0.5 * sum(p for k, p in got.items() if k not in exact)
    assert tv < 0.02, tv
    # round trip on a skip-free law: decompose then reconstruct, exactly
    mbar = ms.Measure1D.lattice({0: 0.4, 1: 0.25, 2: 0.2, 3: 0.15})
    mu = ex.wiener_hopf_construct(mbar)
    back = ex.ladder_exact_skip_free(mu).ladder.atoms_dict()
    worst = max(abs(back.get(k, 0.0) - v) for k, v in mbar.atoms_dict().items())
    assert worst < 1e-14, worst
    _report(7, f"MC ladder TV {tv:.4f} at 1e5 excursions "
               f"({mc.capped_excursions} capped); round trip {worst:.1e}")


def test_criterion_08_criteria_chain():
    """Verdicts never break the implication chain; log-tail family fails (i)."""
    rng = np.random.default_rng(314159)
    t0 = time.monotonic()
    rank = {"fails": 0, "undecided": 1, "holds": 2}
    for i in range(100):
        if i % 2 == 0:
            m = random_nonneg_lattice(rng)
        else:
            m = power_tail_family(float(rng.uniform(1.05, 4.0)), cutoff=50_000)
        t = ex.recurrence_criteria(m, truncation=1 << 20).as_tuple()
        assert rank[t[0]] <= rank[t[1]] <= rank[t[2]], (i, t)
    wh = ms.wiener_hopf_log_tail(cutoff=1_000_000)
    rep = ex.recurrence_criteria(wh)
    assert rep.cond_sqrt_moment == "fails"
    elapsed = time.monotonic() - t0
    assert elapsed < 3.0, elapsed
    _report(8, f"chain holds over 100 laws; log-tail family fails (i) "
               f"in {elapsed:.2f}s")


def test_criterion_09_subordinated_exponent():
    """Return exponent within 0.15 of 1/(2 alpha); alpha=0.3 walk escapes."""
    t0 = time.monotonic()
    summaries = []
    for alpha in (0.6, 0.8):
        out = dg.subordinated_return_exponent(alpha, rng=31337, n_max=1 << 14,
                                              replicas=1_000_000)
        err = abs(out["slope"] - out["expected_exponent"])
        assert err < 0.15, (alpha, out["slope"], out["expected_exponent"])
        summaries.append(f"alpha={alpha}: slope {out['slope']:.3f} "
                         f"(target {out['expected_exponent']:.3f})")
    spec = rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0),
                                               [ms.subordinated(0.3)]))
    _, ev = dg.return_time_stats(spec, [0.0], ((0.0,), 0.0), 1_000_000, 32,
                                 20240608)
    assert ev.category == "transient_evidence", ev
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    _report(9, "; ".join(summaries) + f"; alpha=0.3 transient "
                                      f"(escape {ev.escape_fraction:.2f}) "
                                      f"in {elapsed:.0f}s")


def test_criterion_10_reflected_plus_free():
    """Centred free part: null evidence; drifted: transient; mean identity."""
    m12 = ms.Measure1D.lattice({1: 0.5, 2: 0.5})
    pm1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    centred = rc.WalkSpec(ms.JointMeasure.product((1, 0, 1, 0), [m12, pm1]))
    ev, wald = dg.reflected_plus_free_experiment(centred, 400_000, 32,
                                                 20240609,
                                                 wald_cycles=100_000)
    assert ev.category == "null_evidence", ev
    assert wald["passed"], wald
    drift = ms.Measure1D.lattice({-1: 0.4, 1: 0.6})
    drifted = rc.WalkSpec(ms.JointMeasure.product((1, 0, 1, 0), [m12, drift]))
    ev2, wald2 = dg.reflected_plus_free_experiment(drifted, 400_000, 32,
                                                   20240609,
                                                   wald_cycles=100_000)
    assert ev2.category == "transient_evidence", ev2
    assert wald2["passed"], wald2
    _report(10, f"centred null (counts {ev.return_counts}); drift 0.2 "
                f"transient (escape {ev2.escape_fraction:.2f}); mean-identity "
                f"deviations {wald['deviation'][0]:.4f}/"
                f"{wald2['deviation'][0]:.4f} within 3 SE at 1e5 cycles")


def test_criterion_11_dimension_probe():
    """3-D escape > 0.9 and 2-D escape < 0.5 under one protocol and seed."""
    pm1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    kwargs = dict(budget=1_000_000, replicas=512, rng=2024, window_radius=2.0)
    r3 = dg.dimension_transience_probe(
        ms.JointMeasure.product((3, 0, 0, 0), [pm1] * 3), **kwargs)
    r2 = dg.dimension_transience_probe(
        ms.JointMeasure.product((2, 0, 0, 0), [pm1] * 2), **kwargs)
    assert r3["escape_fraction"] > 0.9, r3["escape_fraction"]
    assert r2["escape_fraction"] < 0.5, r2["escape_fraction"]
    _report(11, f"escape fractions: 3-D {r3['escape_fraction']:.3f} > 0.9, "
                f"2-D {r2['escape_fraction']:.3f} < 0.5")
