"""Seeded workloads of the reflectwalk benchmark: inputs, jobs and oracles.

``generate(workload, seed)`` turns a workload seed into a list of job specs.
A spec is plain data (JSON-serialisable): laws appear as atom lists or
family parameters, and every job carries its own seed.  ``build(spec)``
constructs the library objects the job needs (this is set-up work) and
returns a zero-argument callable.  Calling it runs the job through the public
API of ``reflectwalk`` and checks the output against a reference that does not
come from the code under test: a closed form, a brute-force oracle or a
statistical identity.  A mismatch raises :class:`OracleMismatch`.  The callable
returns a dict of named measurements (usually empty).

The amount of work per job does not depend on the seed: support sizes, word
counts, step budgets and replica counts are fixed, and only atom positions,
probabilities and random streams vary.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from reflectwalk import diagnostics as dg
from reflectwalk import exact_1d as ex
from reflectwalk import lattice_structure as ls
from reflectwalk import measures as ms
from reflectwalk import reflect_core as rc

WORKLOADS = ("lattice_walks", "heavy_tails", "exact_analysis")

# Jobs whose oracle is known to reject the library's output, with the reason.
# They still run and count in ``failed``; they do not make a run incorrect.
KNOWN_FAILURES = {
    "backward_sample.two_sided": (
        "backward_sample clips block images that leave the window, so on "
        "two-sided laws it certifies wrong samples (ROADMAP item 3)"),
    "classify_positive_recurrence.centred": (
        "classify_positive_recurrence tests for downward drift before it "
        "applies its centring tolerance, so a centred law whose rounded mean "
        "is slightly negative is classified transient_to_plus_infinity"),
}

# Families timed by the sampler probe, reported as measures.draws_per_s.<family>.
PROBE_FAMILIES = ("lattice", "wiener_hopf_log_tail", "subordinated", "uniform",
                  "joint_finite", "joint_product")

SE_LIMIT = 5.0  # statistical checks allow this many standard errors


class OracleMismatch(AssertionError):
    """A job's output disagrees with its independent reference."""


def _expect(ok, message):
    if not ok:
        raise OracleMismatch(message)


# ---------------------------------------------------------------------------
# plain-data law generators
# ---------------------------------------------------------------------------

def _probs(rng, k, floor=0.05):
    """``k`` random probabilities summing to 1, each at least ``floor``."""
    p = floor + (1.0 - k * floor) * rng.dirichlet(np.ones(k))
    return [float(v) for v in p / p.sum()]


def _nonneg_atoms(rng, top, k):
    """``k`` atoms on ``{0..top}``, always including ``top``, support gcd 1."""
    while True:
        pts = sorted({top, *(int(v) for v in rng.choice(top, k - 1, replace=False))})
        if math.gcd(*pts) == 1:
            return [[x, p] for x, p in zip(pts, _probs(rng, len(pts)))]


def _signed_atoms(rng, lo, hi, k):
    """``k`` nonzero atoms in ``[lo, hi]`` with a positive one and gcd 1."""
    values = [v for v in range(lo, hi + 1) if v != 0]
    while True:
        pts = sorted(int(v) for v in rng.choice(values, k, replace=False))
        if pts[-1] > 0 and math.gcd(*pts) == 1:
            return [[x, p] for x, p in zip(pts, _probs(rng, k))]


def _symmetric_atoms(rng, magnitudes):
    """Symmetric law on ``{+-m}`` for the given distinct magnitudes."""
    half = _probs(rng, len(magnitudes))
    atoms = []
    for m, p in zip(magnitudes, half):
        atoms += [[-m, p / 2], [m, p / 2]]
    return atoms


def _two_magnitudes(rng, top):
    a, b = sorted(int(v) for v in rng.choice(np.arange(1, top + 1), 2, replace=False))
    return [a, b]


def _joint_atoms(rng, k, hi, dim):
    """``k`` distinct points of ``{0..hi}^dim``; every coordinate has gcd 1."""
    grid = np.array(list(itertools.product(range(hi + 1), repeat=dim)))
    while True:
        pts = grid[rng.choice(len(grid), k, replace=False)]
        if all(math.gcd(*(int(v) for v in col)) == 1 for col in pts.T):
            return [[[int(v) for v in pt], p] for pt, p in zip(pts, _probs(rng, k))]


def _centred_skip_free(rng):
    """Centred law on ``{-1, 0, 1, 2}``: ``mu(-1) = mu(1) + 2 mu(2)``."""
    w0, w1, w2 = _probs(rng, 3, floor=0.1)
    s = 1.0 / (w0 + 2 * w1 + 3 * w2)
    return [[-1, s * (w1 + 2 * w2)], [0, s * w0], [1, s * w1], [2, s * w2]]


def _seed(rng):
    return int(rng.integers(1 << 62))


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------

M12 = [[1, 0.5], [2, 0.5]]
FAIR = [[-1, 0.5], [1, 0.5]]


def _lattice_walks(rng):
    mu = _nonneg_atoms(rng, top=5, k=3)
    return [
        dict(name="occupation_vs_invariant", law=M12, steps=200_000,
             burn_in=2_000, seed=_seed(rng)),
        dict(name="return_time_stats.lattice", law=M12, budget=20_000,
             replicas=32, expect="positive_evidence", seed=_seed(rng)),
        dict(name="return_time_stats.subordinated", alpha=0.3, budget=20_000,
             replicas=32, expect="transient_evidence", seed=_seed(rng)),
        dict(name="reflected_plus_free.centred", law=M12, free=FAIR,
             budget=40_000, replicas=32, wald_cycles=10_000,
             expect="null_evidence", seed=_seed(rng)),
        dict(name="reflected_plus_free.drifted", law=M12,
             free=[[-1, 0.4], [1, 0.6]], budget=40_000, replicas=32,
             wald_cycles=10_000, expect="transient_evidence", seed=_seed(rng)),
        dict(name="simulate", law=mu, steps=100_000, seed=_seed(rng)),
        dict(name="parity_return_times", law=mu, count=20_000, seed=_seed(rng)),
        dict(name="induced_word", law=mu, words=300, seed=_seed(rng)),
        dict(name="contraction_distance_profile", law=mu, start=[0, 3],
             steps=40_000, seed=_seed(rng)),
        dict(name="ladder_monte_carlo", law=_centred_skip_free(rng),
             excursions=5_000, step_cap=10_000, seed=_seed(rng)),
        dict(name="cesaro_lower_bound", laws=[M12, mu], sets=[[0, 1], [1, 2, 3, 4]],
             steps=50_000, seed=_seed(rng)),
        dict(name="symmetric_equivalence_check",
             law=_symmetric_atoms(rng, [1, 2]), horizon=20_000, replicas=32,
             seed=_seed(rng)),
        dict(name="backward_sample.nonneg", law=mu, horizon=500,
             samples=20_000, seed=_seed(rng)),
        dict(name="backward_sample.two_sided", law=[[-1, 0.3], [2, 0.7]],
             horizon=2_000, samples=20_000, forward_steps=200_000,
             seed=_seed(rng)),
    ]


def _heavy_tails(rng):
    # The two probes with the largest fixed-size blocks run first, so the
    # memory peak does not depend on the heap left by random-size draws.
    return [
        dict(name="product_null_recurrence_probe.symmetric",
             laws=[_symmetric_atoms(rng, [1, int(rng.integers(2, 4))])],
             grid=[64 << i for i in range(5)], replicas=8_000, seed=_seed(rng)),
        dict(name="dimension_transience_probe", budget=10_000, replicas=512,
             burn_in=2_000, seed=_seed(rng)),
        dict(name="subordinated_return_exponent.0.6", alpha=0.6,
             n_max=1 << 10, replicas=100_000, seed=_seed(rng)),
        dict(name="subordinated_return_exponent.0.8", alpha=0.8,
             n_max=1 << 10, replicas=100_000, seed=_seed(rng)),
        dict(name="product_null_recurrence_probe.fair", laws=[FAIR, FAIR],
             grid=[64 << i for i in range(7)], replicas=20_000, seed=_seed(rng)),
        dict(name="symmetrization_check.monte_carlo",
             laws=[_symmetric_atoms(rng, _two_magnitudes(rng, 4)) for _ in range(2)],
             start=[1, 0], n=6, samples=100_000, seed=_seed(rng)),
        dict(name="sampler_probe", draws=500_000,
             lattice=_signed_atoms(rng, -10, 10, 6),
             log_tail_cutoff=100_000, alpha=0.6,
             uniform=sorted(float(v) for v in rng.uniform(-2.0, 3.0, 2)),
             joint_finite=[[[int(a), int(b)], p] for (a, b), p in zip(
                 rng.integers(-3, 6, size=(5, 2)), _probs(rng, 5))],
             seed=_seed(rng)),
    ]


def _exact_analysis(rng):
    power_exponents = [float(v) for v in np.concatenate(
        [rng.uniform(1.05, 1.35, 3), rng.uniform(1.65, 4.0, 3)])]
    return [
        dict(name="invariant_measure_nonneg.kernel_residual",
             laws=[_nonneg_atoms(rng, top=25, k=5) for _ in range(30)]),
        dict(name="recurrence_criteria",
             laws=[_nonneg_atoms(rng, top=30, k=5) for _ in range(6)],
             power_exponents=power_exponents, power_cutoff=50_000,
             log_tail_cutoff=1_000_000),
        dict(name="essential_classes",
             laws=[_joint_atoms(rng, 3, 5, 2) for _ in range(6)]),
        dict(name="constant_map_witness",
             laws=[_signed_atoms(rng, -10, 10, 4) for _ in range(10)],
             verified_range=50),
        dict(name="symmetrization_check.exact",
             laws_1d=[_symmetric_atoms(rng, _two_magnitudes(rng, 4)) for _ in range(3)],
             laws_2d=[[_symmetric_atoms(rng, [int(rng.integers(1, 4))])
                       for _ in range(2)] for _ in range(3)],
             n=6),
        dict(name="ladder_round_trip",
             ladders=[sorted(_probs(rng, 6), reverse=True) for _ in range(5)]),
        dict(name="classify_positive_recurrence.drifted",
             laws=[_signed_atoms(rng, -6, 6, 4) for _ in range(20)]),
        dict(name="classify_positive_recurrence.centred",
             laws=[_centred_skip_free(rng) for _ in range(40)]),
        dict(name="parity_group",
             laws=[_joint_atoms(rng, 4, 4, 3) for _ in range(10)]),
    ]


_GENERATORS = {"lattice_walks": _lattice_walks, "heavy_tails": _heavy_tails,
               "exact_analysis": _exact_analysis}


def generate(workload: str, seed: int) -> list[dict]:
    """Job specs of ``workload`` for ``seed``; equal seeds give equal specs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([int(seed), index])
    return _GENERATORS[workload](rng)


# ---------------------------------------------------------------------------
# reference computations (independent of the library)
# ---------------------------------------------------------------------------

def stationary_law(atoms) -> dict[int, float]:
    """Normalized invariant law of ``x -> |x - Y|`` for ``Y >= 0`` (closed form).

    ``nu(0) = (1 - mu(0)) / 2`` and ``nu(x) = mu(x)/2 + mu((x, inf))``, total
    mass ``E(Y)``.
    """
    mu = {int(x): float(p) for x, p in atoms}
    top = max(mu)
    mass = sum(x * p for x, p in mu.items())
    nu = {0: (1.0 - mu.get(0, 0.0)) / 2.0}
    for x in range(1, top + 1):
        nu[x] = mu.get(x, 0.0) / 2.0 + sum(p for y, p in mu.items() if y > x)
    return {x: v / mass for x, v in nu.items() if v > 0}


def _restrict(law: dict, parity: int) -> dict:
    part = {x: v for x, v in law.items() if x % 2 == parity}
    total = sum(part.values())
    return {x: v / total for x, v in part.items()}


def _empirical(values) -> dict[int, float]:
    vals, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    return dict(zip(vals.tolist(), (counts / counts.sum()).tolist()))


def _tv(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def _within_se(name, got, want, se):
    _expect(abs(got - want) <= SE_LIMIT * se,
            f"{name}: {got:.6g} vs {want:.6g} (SE {se:.3g})")


def _check_frequency(name, hits, n, p):
    """Binomial proportion ``hits / n`` against probability ``p``."""
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    _within_se(name, hits / n, p, se)


def _check_mean_gap(name, times):
    """Parity-return gaps of one lattice coordinate have mean 2.

    The parity of the increment sum is a chain on ``{0, 1}`` with uniform
    stationary law whenever some increment is odd, so by Kac's formula its
    mean return time is 2.
    """
    gaps = np.diff(np.concatenate([[0], times]))
    _within_se(name, gaps.mean(), 2.0, gaps.std(ddof=1) / math.sqrt(len(gaps)))


def closed_classes(points, box) -> list[set]:
    """Closed communicating classes of ``x -> |x - y|`` on ``prod [0, box_i]``.

    Brute force: boolean reachability by repeated squaring, then the mutually
    reachable sets that reach nothing outside themselves.  ``points`` must be
    nonnegative with maxima ``box``, so the box is closed.
    """
    grid = list(itertools.product(*[range(b + 1) for b in box]))
    index = {pt: i for i, pt in enumerate(grid)}
    n = len(grid)
    reach = np.eye(n, dtype=bool)
    for pt in grid:
        for y in points:
            reach[index[pt], index[tuple(abs(a - b) for a, b in zip(pt, y))]] = True
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (nxt == reach).all():
            break
        reach = nxt
    mutual = reach & reach.T
    classes = []
    for i in range(n):
        members = set(np.nonzero(mutual[i])[0].tolist())
        if set(np.nonzero(reach[i])[0].tolist()) == members and members not in classes:
            classes.append(members)
    return [{grid[i] for i in c} for c in classes]


def span_gf2(rows) -> set:
    """All GF(2) combinations of the given 0/1 rows (brute force)."""
    rows = [tuple(int(v) & 1 for v in r) for r in rows]
    span = {tuple(0 for _ in rows[0])}
    for r in rows:
        span |= {tuple(a ^ b for a, b in zip(s, r)) for s in span}
    return span


# ---------------------------------------------------------------------------
# job set-up: build the inputs, then return a callable that runs and checks
# ---------------------------------------------------------------------------

def _lattice(atoms) -> ms.Measure1D:
    return ms.Measure1D.lattice([(x, p) for x, p in atoms])


def _walk(*factor_atoms, free=()) -> rc.WalkSpec:
    dims = (len(factor_atoms), 0, len(free), 0)
    laws = [_lattice(a) for a in (*factor_atoms, *free)]
    return rc.WalkSpec(ms.JointMeasure.product(dims, laws))


def _occupation_vs_invariant(spec):
    walk = _walk(spec["law"])
    ref = stationary_law(spec["law"])

    def run():
        tv_lib, occ = dg.occupation_vs_invariant(
            walk, {(x,): p for x, p in ref.items()}, spec["steps"],
            spec["burn_in"], spec["seed"])
        total = sum(occ.values())
        tv = _tv({k[0]: v / total for k, v in occ.items()}, ref)
        _expect(abs(tv - tv_lib) < 1e-9, f"reported TV {tv_lib} != {tv}")
        _expect(tv < 0.02, f"occupation TV {tv:.4f} >= 0.02")
        return {}
    return run


def _return_time_stats(spec):
    law = ms.subordinated(spec["alpha"]) if "alpha" in spec else _lattice(spec["law"])
    walk = rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0), [law]))

    def run():
        _, ev = dg.return_time_stats(walk, [0.0], ((0.0,), 0.0), spec["budget"],
                                     spec["replicas"], spec["seed"])
        _expect(ev.category == spec["expect"],
                f"category {ev.category}, expected {spec['expect']}")
        if "law" in spec:
            # Kac: the mean return time to 0 is 1 / nu(0)
            kac = 1.0 / stationary_law(spec["law"])[0]
            rel = abs(ev.mean_return_times[-1] / kac - 1.0)
            _expect(rel < 0.02, f"mean return time {ev.mean_return_times[-1]:.4f} "
                                f"vs Kac {kac:.4f}")
        return {}
    return run


def _reflected_plus_free(spec):
    walk = _walk(spec["law"], free=[spec["free"]])

    def run():
        ev, wald = dg.reflected_plus_free_experiment(
            walk, spec["budget"], spec["replicas"], spec["seed"],
            wald_cycles=spec["wald_cycles"])
        _expect(ev.category == spec["expect"],
                f"category {ev.category}, expected {spec['expect']}")
        # Wald: per-cycle free displacement = cycle length x drift
        drift = sum(x * p for x, p in spec["free"])
        _expect(abs(wald["free_drift"][0] - drift) < 1e-12, "free drift")
        for dev, se in zip(wald["deviation"], wald["std_error"]):
            _within_se("Wald identity deviation", dev, 0.0, se)
        return {}
    return run


def _simulate(spec):
    walk = _walk(spec["law"])
    ref = stationary_law(spec["law"])
    top = max(x for x, _ in spec["law"])

    def run():
        traj = rc.simulate(walk, [0], spec["steps"], spec["seed"])
        states = traj.states[:, 0]
        _expect(traj.states.shape == (spec["steps"] + 1, 1), "trajectory shape")
        _expect(states.min() >= 0 and states[1:].max() <= top,
                "trajectory left the attractor [0, max support]")
        tv = _tv(_empirical(states[1000:]), ref)
        _expect(tv < 0.03, f"trajectory occupation TV {tv:.4f} >= 0.03")
        return {}
    return run


def _parity_return_times(spec):
    walk = _walk(spec["law"])

    def run():
        times, states = rc.parity_return_times(walk, [0], spec["count"], spec["seed"])
        _expect(len(times) == spec["count"] and (np.diff(times) > 0).all(),
                "return times not strictly increasing")
        _expect((states[:, 0] % 2 == 0).all(), "state outside the start parity class")
        _check_mean_gap("mean parity-return gap", times)
        return {}
    return run


def _induced_word(spec):
    walk = _walk(spec["law"])
    top = max(x for x, _ in spec["law"])
    points = np.arange(0, 2 * top + 2, 2)

    def run():
        rng = np.random.default_rng(spec["seed"])
        lengths = []
        for _ in range(spec["words"]):
            word = rc.induced_word(walk, rng)
            letters = word.letters[:, 0].astype(np.int64)
            _expect(letters.sum() % 2 == 0 and (letters[:-1].cumsum() % 2 == 1).all(),
                    "word does not end at the first parity return")
            # the word as a map: fold |x - y| letter by letter
            x = points.copy()
            for y in letters:
                x = np.abs(x - y)
            _expect(np.array_equal(word.evaluate(points), x), "word evaluation")
            lengths.append(len(letters))
        _check_mean_gap("mean word length", np.cumsum(lengths))
        return {}
    return run


def _contraction_distance_profile(spec):
    walk = _walk(spec["law"])
    x, y = spec["start"]

    def run():
        dist = rc.contraction_distance_profile(walk, [x], [y], spec["steps"],
                                               spec["seed"])
        d = np.rint(dist).astype(np.int64)
        _expect(np.array_equal(d, dist), "non-integer lattice distance")
        _expect((np.diff(np.concatenate([[abs(x - y)], d])) <= 0).all(),
                "synchronous coupling distance increased")
        _expect((d % 2 == abs(x - y) % 2).all(), "distance parity changed")
        return {}
    return run


def _ladder_monte_carlo(spec):
    law = _lattice(spec["law"])
    mu = dict((x, p) for x, p in spec["law"])
    # weak ascending ladder of a centred skip-free-down law (closed form)
    exact = {0: 1.0 - mu[-1]}
    for h in range(1, max(mu) + 1):
        exact[h] = sum(p for x, p in mu.items() if x >= h)

    def run():
        lad = ex.ladder_monte_carlo(law, spec["excursions"],
                                    np.random.default_rng(spec["seed"]),
                                    step_cap=spec["step_cap"])
        oracle = ex.ladder_exact_skip_free(law).ladder.atoms_dict()
        _expect(_tv(oracle, exact) < 1e-12, "exact skip-free ladder vs closed form")
        got = lad.ladder.atoms_dict()
        for h, p in exact.items():
            _check_frequency(f"ladder height {h}", got.get(h, 0.0) * lad.samples,
                             lad.samples, p)
        _expect(set(got) <= set(exact), f"ladder heights {sorted(got)}")
        _expect(lad.capped_excursions < 0.02 * spec["excursions"],
                f"{lad.capped_excursions} capped excursions")
        return {}
    return run


def _cesaro_lower_bound(spec):
    laws = [_lattice(a) for a in spec["laws"]]
    walk = rc.WalkSpec(ms.JointMeasure.product((2, 0, 0, 0), laws))
    nus = [ex.invariant_measure_nonneg(m) for m in laws]
    refs = [stationary_law(a) for a in spec["laws"]]
    # independent coordinates: the product set has stationary mass p1 * p2
    p1, p2 = (sum(r.get(x, 0.0) for x in s) for r, s in zip(refs, spec["sets"]))

    def run():
        out = dg.cesaro_lower_bound(nus[0], nus[1], spec["sets"][0], spec["sets"][1],
                                    walk, spec["steps"], spec["seed"])
        _expect(abs(out["bound"] - (p1 + p2 - 1.0)) < 1e-12,
                f"bound {out['bound']} vs {p1 + p2 - 1.0}")
        _expect(out["satisfied"] is True, f"bound not satisfied: {out}")
        _expect(abs(out["empirical"] - p1 * p2) <= max(SE_LIMIT * out["ci"], 0.01),
                f"Cesaro average {out['empirical']:.4f} vs {p1 * p2:.4f}")
        return {}
    return run


def _symmetric_equivalence_check(spec):
    law = _lattice(spec["law"])

    def run():
        rep = ex.symmetric_equivalence_check(law, spec["horizon"], 0.0,
                                             spec["seed"], replicas=spec["replicas"])
        # a centred finite symmetric walk is recurrent, reflected or not
        _expect(rep.free_category == rep.reflected_category == "recurrent_evidence",
                f"categories {rep.free_category}/{rep.reflected_category}")
        _expect(rep.agree, "report says the categories disagree")
        return {}
    return run


def _backward_target(spec):
    """Even-class stationary law the backward sampler must reproduce."""
    if min(x for x, _ in spec["law"]) >= 0:
        return _restrict(stationary_law(spec["law"]), 0)
    # two-sided law: no closed form; use a forward run of the same walk
    traj = rc.simulate(_walk(spec["law"]), [0], spec["forward_steps"], spec["seed"] + 1)
    states = traj.states[1000:, 0].astype(np.int64)
    return _empirical(states[states % 2 == 0])


def _backward_sample(spec):
    walk = _walk(spec["law"])
    forward = "forward_steps" in spec

    def run():
        res = rc.backward_sample(walk, [0], spec["horizon"], spec["seed"],
                                 n_samples=spec["samples"])
        target = _backward_target(spec)
        converged = float(res.converged.mean())
        _expect(converged == 1.0, f"only {converged:.3f} of samples converged")
        tv = _tv(_empirical(res.values[:, 0]), target)
        limit = 0.03 if forward else 0.02
        _expect(tv < limit, f"backward law TV {tv:.4f} >= {limit} from the "
                            f"{'forward run' if forward else 'closed form'}")
        return {}
    return run


def _subordinated_return_exponent(spec):
    def run():
        out = dg.subordinated_return_exponent(spec["alpha"], spec["seed"],
                                              n_max=spec["n_max"],
                                              replicas=spec["replicas"],
                                              chunk=spec["replicas"])
        want = -1.0 / (2.0 * spec["alpha"])
        _expect(abs(out["expected_exponent"] - want) < 1e-12, "expected exponent")
        _expect(abs(out["slope"] - want) < 0.15,
                f"slope {out['slope']:.3f} vs {want:.3f}")
        return {}
    return run


def _dimension_transience_probe(spec):
    pm1 = _lattice(FAIR)
    laws = {d: ms.JointMeasure.product((d, 0, 0, 0), [pm1] * d) for d in (3, 2)}

    def run():
        esc = {}
        for d, j in laws.items():
            out = dg.dimension_transience_probe(
                j, spec["budget"], spec["replicas"], spec["seed"] + d,
                window_radius=2.0, burn_in=spec["burn_in"])
            esc[d] = out["escape_fraction"]
        _expect(esc[3] > 0.9 and esc[3] > esc[2],
                f"escape fractions 3-D {esc[3]:.3f}, 2-D {esc[2]:.3f}")
        return {}
    return run


def _product_null_recurrence_probe(spec):
    laws = [_lattice(a) for a in spec["laws"]]

    def run():
        out = dg.product_null_recurrence_probe(laws, [0] * len(laws), spec["grid"],
                                               spec["replicas"], spec["seed"])
        # P[X_n = 0] ~ c n^(-1/2) per centred factor, independent factors multiply
        fits = [(f["slope"], f["slope_se"], -0.5) for f in out["factors"]]
        if "joint" in out:
            fits.append((out["joint"]["slope"], out["joint"]["slope_se"],
                         -0.5 * len(laws)))
        for slope, se, want in fits:
            _expect(abs(slope - want) <= 0.05 + SE_LIMIT * se,
                    f"slope {slope:.3f} (SE {se:.3f}) vs {want}")
        return {}
    return run


def _symmetrization_monte_carlo(spec):
    j = ms.JointMeasure.product((0, 0, 2, 0), [_lattice(a) for a in spec["laws"]])

    def run():
        tv, se = dg.symmetrization_check(j, spec["start"], spec["n"], "monte_carlo",
                                         rng=spec["seed"], samples=spec["samples"])
        _expect(tv <= 3.0 * se, f"reflected vs folded TV {tv:.4f} (SE bound {se:.4f})")
        return {}
    return run


def _sampler_probe(spec):
    """Bulk draws of each family, timed, with a tail or moment check each."""
    n = spec["draws"]
    a, b = spec["uniform"]
    lattice = _lattice(spec["lattice"])
    joint_atoms = {}
    for pt, p in spec["joint_finite"]:
        joint_atoms[tuple(pt)] = joint_atoms.get(tuple(pt), 0.0) + p
    joint_finite = ms.JointMeasure.finite((0, 0, 2, 0), list(joint_atoms.items()))
    lattice_mean = sum(x * p for x, p in spec["lattice"])
    lattice_var = sum(x * x * p for x, p in spec["lattice"]) - lattice_mean ** 2
    alpha = spec["alpha"]

    def timed(draw):
        t0 = time.perf_counter()
        out = draw()
        return out, time.perf_counter() - t0

    def run():
        rng = np.random.default_rng(spec["seed"])
        rates = {}

        y, dt = timed(lambda: lattice.sample(rng, n))
        rates["lattice"] = n / dt
        for x, p in spec["lattice"]:
            _check_frequency(f"lattice atom {x}", np.count_nonzero(y == x), n, p)

        cutoff = spec["log_tail_cutoff"]
        wh = ms.wiener_hopf_log_tail(cutoff)
        y, dt = timed(lambda: wh.sample(rng, n))
        rates["wiener_hopf_log_tail"] = n / dt
        for x in (0, 10, 1000, cutoff - 1, 10 * cutoff):
            _check_frequency(f"log-tail P(Y > {x})", np.count_nonzero(y > x), n,
                             float(wh.tail(x)))

        law = ms.subordinated(alpha)
        y, dt = timed(lambda: law.sample(rng, n))
        rates["subordinated"] = n / dt
        # parity of Y is the parity of T, and E[(-1)^T] = 1 - 2^alpha
        _check_frequency("subordinated P(Y odd)", np.count_nonzero(y % 2), n,
                         2.0 ** (alpha - 1.0))
        _check_frequency("subordinated P(Y > 0)", np.count_nonzero(y > 0),
                         np.count_nonzero(y), 0.5)
        sub = law.meta["subordinator"]
        t = sub.sample(rng, n)
        for k in (1, 10, 1000, 1 << 16, 1 << 20):
            _check_frequency(f"tau P(T > {k})", np.count_nonzero(t > k), n,
                             float(ms.subordinator_tail(alpha, k)))
        t = sub.conditional_tail_sample(rng, n // 10, 4096)
        for k in (8192, 1 << 16, 1 << 20):
            _check_frequency(f"tau P(T > {k} | T > 4096)", np.count_nonzero(t > k),
                             n // 10, float(ms.subordinator_tail(alpha, k)
                                            / ms.subordinator_tail(alpha, 4096)))

        u_law = ms.uniform(a, b)
        y, dt = timed(lambda: u_law.sample(rng, n))
        rates["uniform"] = n / dt
        _within_se("uniform mean", float(np.mean(y)), (a + b) / 2,
                   (b - a) / math.sqrt(12.0 * n))

        y, dt = timed(lambda: joint_finite.sample(rng, n))
        rates["joint_finite"] = n / dt
        for pt, p in joint_atoms.items():
            _check_frequency(f"joint atom {pt}",
                             np.count_nonzero((y == np.array(pt)).all(axis=1)), n, p)

        product = ms.JointMeasure.product((0, 0, 1, 1), [lattice, u_law])
        y, dt = timed(lambda: product.sample(rng, n))
        rates["joint_product"] = n / dt
        _within_se("product lattice mean", float(np.mean(y[:, 0])), lattice_mean,
                   math.sqrt(lattice_var / n))
        _within_se("product uniform mean", float(np.mean(y[:, 1])), (a + b) / 2,
                   (b - a) / math.sqrt(12.0 * n))
        return {f"measures.draws_per_s.{k}": v for k, v in rates.items()}
    return run


def _kernel_residual(spec):
    laws = [_lattice(a) for a in spec["laws"]]

    def run():
        for atoms, m in zip(spec["laws"], laws):
            kernel = ex.reflected_kernel_matrix(m)
            _expect(np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12, "kernel rows")
            nu = ex.invariant_measure_nonneg(m)
            v = np.zeros(kernel.shape[0])
            v[nu.support] = nu.masses
            residual = float(np.abs(v @ kernel - v).max())
            _expect(residual < 1e-12, f"nu P - nu residual {residual:.2e}")
            mean = sum(x * p for x, p in atoms)
            _expect(abs(nu.total_mass - mean) < 1e-12, "total mass != E(Y)")
        return {}
    return run


def power_tail_law(a: float, cutoff: int) -> ms.Measure1D:
    """Lattice law with pmf proportional to ``(x+2)^(-a)`` on N_0 (``a > 1``)."""
    xs = np.arange(cutoff, dtype=float)
    raw = (xs + 2.0) ** -a

    def raw_tail(x):
        return (np.asarray(x, dtype=float) + 2.5) ** (1.0 - a) / (a - 1.0)

    c = 1.0 / (raw.sum() + float(raw_tail(cutoff - 1)))
    return ms.Measure1D.lattice_tailed(
        np.arange(cutoff, dtype=np.int64), c * raw,
        tail_fn=lambda x: c * raw_tail(x),
        pmf_fn=lambda x: c * (np.asarray(x, dtype=float) + 2.0) ** -a)


def _recurrence_criteria(spec):
    rank = {"fails": 0, "undecided": 1, "holds": 2}
    finite = [_lattice(a) for a in spec["laws"]]
    tailed = [(a, power_tail_law(a, spec["power_cutoff"]))
              for a in spec["power_exponents"]]

    def verdicts(m):
        t = ex.recurrence_criteria(m, truncation=1 << 20).as_tuple()
        _expect(rank[t[0]] <= rank[t[1]] <= rank[t[2]], f"chain broken: {t}")
        return t

    def run():
        for m in finite:
            _expect(verdicts(m) == ("holds",) * 3, "finite law must satisfy all")
        for a, m in tailed:
            # E sqrt(Y) < inf exactly when the pmf exponent a exceeds 3/2
            want = "holds" if a > 1.5 else "fails"
            got = verdicts(m)[0]
            _expect(got == want, f"power tail a={a:.3f}: (i) {got}, expected {want}")
        wh = ms.wiener_hopf_log_tail(cutoff=spec["log_tail_cutoff"])
        _expect(ex.recurrence_criteria(wh).cond_sqrt_moment == "fails",
                "log-tail family must fail (i)")
        return {}
    return run


def _golden_classes():
    """The three worked two-dimensional class structures."""
    ja = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    jb = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 2), 0.5), ((2, -1), 0.5)])
    jc = ms.JointMeasure.finite((2, 0, 0, 0), [((-1, 3), 0.5), ((3, -1), 0.5)])
    box = {(i, j) for i in range(21) for j in range(21)}
    want_a = {(i, j) for i in range(4) for j in range(4)} - {(0, 0), (2, 3), (3, 2), (3, 3)}
    want_b = box - {(0, 0)}
    want_c = {0: {p for p in box if sum(p) % 2 == 0} - {(0, 0)},
              1: {p for p in box if sum(p) % 2 == 1}}
    return [(ja, {0: want_a}), (jb, {0: want_b}), (jc, want_c)]


def _essential_classes(spec):
    golden = _golden_classes()
    randoms = []
    for atoms in spec["laws"]:
        pts = [tuple(pt) for pt, _ in atoms]
        box = tuple(max(p[i] for p in pts) for i in range(2))
        law = ms.JointMeasure.finite((2, 0, 0, 0), [(pt, p) for pt, p in atoms])
        randoms.append((law, pts, box))

    def run():
        for law, want in golden:
            got = {r.coset_index: r.member_set()
                   for r in ls.essential_classes(law, window=20)}
            _expect(got == want, "golden class sets differ")
        for law, pts, box in randoms:
            got = [r.member_set() for r in ls.essential_classes(law, window=20)]
            want = closed_classes(pts, box)
            _expect(sorted(map(sorted, got)) == sorted(map(sorted, want)),
                    f"classes of {pts} differ from brute force")
        return {}
    return run


def _constant_map_witness(spec):
    laws = [_lattice(a) for a in spec["laws"]]
    k = spec["verified_range"]

    def run():
        for m in laws:
            w = ls.constant_map_witness(m, verified_range=k)
            _expect(w.checks_passed, f"witness for {m.atoms_dict()} failed")
            for d, g in zip(w.gcd_chain, w.euclid_words):
                pts = np.arange(d + 1)
                _expect(np.array_equal(g.evaluate(pts), np.abs(pts - d)),
                        f"Euclid word is not reflection at {d}")
            # h^j maps {0..2k-1} onto its parity, {0, 1}, after j = k iterations
            x = np.arange(2 * k)
            for _ in range(k):
                x = w.parity_map.evaluate(x)
            _expect(np.array_equal(x, np.arange(2 * k) % 2), "parity map table")
        return {}
    return run


def _symmetrization_exact(spec):
    laws = [ms.JointMeasure.product((0, 0, 1, 0), [_lattice(a)])
            for a in spec["laws_1d"]]
    laws += [ms.JointMeasure.product((0, 0, 2, 0), [_lattice(a) for a in pair])
             for pair in spec["laws_2d"]]

    def run():
        for j in laws:
            start = [1.0] * j.dim
            d = dg.symmetrization_check(j, start, spec["n"], "exact_enumeration")
            _expect(d < 1e-12, f"reflected vs folded discrepancy {d:.2e}")
        return {}
    return run


def _ladder_round_trip(spec):
    ladders = [_lattice(list(enumerate(p))) for p in spec["ladders"]]

    def run():
        for mbar in ladders:
            mu = ex.wiener_hopf_construct(mbar)
            atoms = mu.atoms_dict()
            _expect(abs(sum(x * p for x, p in atoms.items())) < 1e-12, "not centred")
            back = ex.ladder_exact_skip_free(mu).ladder.atoms_dict()
            worst = max(abs(back.get(x, 0.0) - p) for x, p in mbar.atoms_dict().items())
            _expect(worst < 1e-14, f"round trip error {worst:.2e}")
        return {}
    return run


def _classify_positive_recurrence(spec):
    laws = [(_lattice(a), sum(x * p for x, p in a)) for a in spec["laws"]]

    def run():
        bad = []
        for m, mean in laws:
            got = ex.classify_positive_recurrence(m, "two_sided").verdict
            # finite support: the sign of the drift decides; the library
            # treats |mean| <= 1e-12 as centred
            if abs(mean) <= 1e-12:
                want = "null_recurrent"
            else:
                want = "positive_recurrent" if mean > 0 else "transient_to_plus_infinity"
            if got != want:
                bad.append(f"mean {mean:+.3g}: {got}, expected {want}")
        _expect(not bad, f"{len(bad)} of {len(laws)} laws misclassified: {bad[0] if bad else ''}")
        return {}
    return run


def _parity_group(spec):
    laws = [(ms.JointMeasure.finite((3, 0, 0, 0), [(pt, p) for pt, p in atoms]),
             [pt for pt, _ in atoms]) for atoms in spec["laws"]]

    def run():
        for j, pts in laws:
            dec = ls.parity_group(j)
            got = {tuple(int(v) for v in g) for g in dec.group}
            _expect(got == span_gf2(pts), "parity group differs from brute force")
            _expect(len(got) * dec.n_cosets == 8, "cosets do not tile {0,1}^3")
        return {}
    return run


_SETUPS = {
    "occupation_vs_invariant": _occupation_vs_invariant,
    "return_time_stats": _return_time_stats,
    "reflected_plus_free": _reflected_plus_free,
    "simulate": _simulate,
    "parity_return_times": _parity_return_times,
    "induced_word": _induced_word,
    "contraction_distance_profile": _contraction_distance_profile,
    "ladder_monte_carlo": _ladder_monte_carlo,
    "cesaro_lower_bound": _cesaro_lower_bound,
    "symmetric_equivalence_check": _symmetric_equivalence_check,
    "backward_sample": _backward_sample,
    "subordinated_return_exponent": _subordinated_return_exponent,
    "dimension_transience_probe": _dimension_transience_probe,
    "product_null_recurrence_probe": _product_null_recurrence_probe,
    "symmetrization_check.monte_carlo": _symmetrization_monte_carlo,
    "sampler_probe": _sampler_probe,
    "invariant_measure_nonneg.kernel_residual": _kernel_residual,
    "recurrence_criteria": _recurrence_criteria,
    "essential_classes": _essential_classes,
    "constant_map_witness": _constant_map_witness,
    "symmetrization_check.exact": _symmetrization_exact,
    "ladder_round_trip": _ladder_round_trip,
    "classify_positive_recurrence": _classify_positive_recurrence,
    "parity_group": _parity_group,
}


def build(spec: dict):
    """Set up one job; returns the callable that runs and checks it."""
    name = spec["name"]
    setup = _SETUPS.get(name) or _SETUPS[name.split(".", 1)[0]]
    return setup(spec)
