"""Monte Carlo recurrence laboratory.

Everything here produces *evidence*, not proofs: occupation laws against
exact invariant measures, return-time statistics with fixed decision rules,
exact symmetrization identities at enumeration scale, product and dimension
probes, and the reflected-plus-free experiments.

Decision rules (fixed, recorded in every report): with four nested budgets
``B/8, B/4, B/2, B`` and the mean-return-time estimate ``total observed time
/ total returns`` per budget,

* ``transient_evidence``: at least 90% of replicas never visit the target
  after a burn-in of 10% of the budget;
* ``positive_evidence``: every consecutive budget doubling moves the mean
  return estimate by less than 10%;
* ``null_evidence``: return counts grow across budgets while the mean return
  estimate grows by at least 50% over the doubling suite;
* otherwise ``inconclusive``.

Evidence categories are deterministic functions of the statistics, which are
deterministic given the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .measures import (JointMeasure, LatticeSumSampler, Measure1D, MeasureError,
                       SubordinatorAlpha, _at_least, _fill, subordinator_tail)
from . import measures
from .reflect_core import WalkSpec, _first_hits, _walk_blocks
from .exact_1d import InvariantMeasure1D
from .rng import make_rng

THRESHOLDS = {
    "escape_fraction_transient": 0.9,
    "positive_stability_drift": 0.10,
    "null_total_growth": 1.5,
    "burn_in_fraction": 0.10,
    "n_budgets": 4,
}
RETURN_TIMES_KEPT = 10_000  # visit times of replica 0 kept in TrajectoryStats


# ---------------------------------------------------------------------------
# evidence bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryStats:
    """Raw return statistics behind an evidence category."""

    target: str
    return_times: np.ndarray          # replica 0's first RETURN_TIMES_KEPT visit times
    visits: int                       # replica 0's visits, kept or not
    max_displacement: float
    budget: int
    replicas: int
    counts_per_budget: list           # pooled visit counts at nested budgets
    budgets: list
    seed: Optional[int] = None


@dataclass
class RecurrenceEvidence:
    """Deterministic category assigned by the fixed decision rules."""

    category: str
    mean_return_times: list
    return_counts: list
    escape_fraction: float
    budgets: list
    thresholds: dict = field(default_factory=lambda: dict(THRESHOLDS))
    notes: str = ""


def categorize(budgets, counts, total_time_per_budget,
               escape_fraction) -> RecurrenceEvidence:
    """Apply the fixed decision rules to pooled return statistics."""
    means = [t / c if c > 0 else math.inf
             for c, t in zip(counts, total_time_per_budget)]
    if escape_fraction >= THRESHOLDS["escape_fraction_transient"]:
        cat = "transient_evidence"
    else:
        finite = [m for m in means if math.isfinite(m)]
        stable = (len(finite) == len(means) and len(means) >= 2 and all(
            abs(means[i + 1] / means[i] - 1.0) < THRESHOLDS["positive_stability_drift"]
            for i in range(len(means) - 1)))
        growing_counts = all(counts[i + 1] > counts[i] for i in range(len(counts) - 1))
        if stable:
            cat = "positive_evidence"
        elif (growing_counts and counts[0] > 0 and math.isfinite(means[0])
              and means[-1] / means[0] >= THRESHOLDS["null_total_growth"]):
            cat = "null_evidence"
        else:
            cat = "inconclusive"
    return RecurrenceEvidence(category=cat, mean_return_times=means,
                              return_counts=[int(c) for c in counts],
                              escape_fraction=float(escape_fraction),
                              budgets=list(budgets))


# ---------------------------------------------------------------------------
# shared vectorized walkers
# ---------------------------------------------------------------------------

def _run_return_experiment(law: JointMeasure, start: np.ndarray, in_target,
                           budget: int, replicas: int, rng, record: bool = True):
    """Drive ``replicas`` coupled-by-nothing walkers and pool target visits.

    ``start`` is a checked start of a walk with increment law ``law``.
    ``in_target(X, Z)`` maps (steps, replicas, r) blocks of reflected states
    and (steps, replicas, s) blocks of free states to a (steps, replicas)
    boolean block.  Returns the :func:`categorize` verdict on the pooled
    counts at the nested budgets ``B/2^(n-1), ..., B/2, B`` (``n =
    THRESHOLDS["n_budgets"]``, as ints) and the escape fraction (replicas with
    no visit after the burn-in), then replica 0's first ``RETURN_TIMES_KEPT``
    visit times, the largest displacement and replica 0's visit count (``None``
    each when ``record`` is false).
    """
    rng = make_rng(rng)
    budget = int(budget)
    if budget < 1000:
        raise MeasureError("budgets below 1000 steps are refused as meaningless")
    replicas = _at_least("replicas", replicas)
    r = law.n_reflected
    budgets = budget >> np.arange(THRESHOLDS["n_budgets"])[::-1]     # ..., B/2, B
    burn = int(budget * THRESHOLDS["burn_in_fraction"])
    counts = np.zeros(len(budgets), dtype=np.int64)
    visited_after_burn = np.zeros(replicas, dtype=bool)
    times0, maxdisp, visits0 = ([], 0.0, 0) if record else (None, None, None)
    for k, y, block in _walk_blocks(law, np.tile(start, (replicas, 1)), rng, budget):
        hits = in_target(block[:, :, :r], block[:, :, r:])
        ks = np.arange(k + 1, k + len(block) + 1)
        # counts[j] collects the hits of every step up to budgets[j]
        counts += (np.count_nonzero(hits, axis=1) * (ks <= budgets[:, None])).sum(axis=1)
        visited_after_burn |= hits[ks > burn].any(axis=0)
        if record:
            at = ks[hits[:, 0]]
            times0.extend(at[:RETURN_TIMES_KEPT - len(times0)].tolist())
            visits0 += len(at)
            maxdisp = max(maxdisp, float(block.max()), -float(block.min()))
        del y, block     # so the next draws do not coexist with this block
    budgets = budgets.tolist()
    ev = categorize(budgets, counts.tolist(), [b * replicas for b in budgets],
                    float(np.mean(~visited_after_burn)))
    return ev, np.asarray(times0) if record else None, maxdisp, visits0


# ---------------------------------------------------------------------------
# occupation vs invariant law
# ---------------------------------------------------------------------------

def occupation_vs_invariant(spec: WalkSpec, exact, steps: int, burn_in: int,
                            rng) -> tuple[float, dict]:
    """Total-variation distance of the empirical occupation law to ``exact``.

    ``exact`` is a normalized reference law on the attractor: an
    :class:`InvariantMeasure1D` (normalized by its finite mass) or a mapping
    ``state tuple -> probability``.  The time average mixes the parity
    classes with their stationary weights, which the exact invariant law
    already carries, so the comparison is direct.  Refuses when the walk
    spends under half of its post-burn-in time on the reference support
    (escape: no recurrent occupation to compare).
    """
    rng = make_rng(rng)
    steps, burn_in = int(steps), int(burn_in)
    if burn_in >= steps:
        raise MeasureError(f"burn_in {burn_in} leaves none of the {steps} steps")
    if isinstance(exact, InvariantMeasure1D):
        if not (math.isfinite(exact.total_mass) and exact.total_mass > 0):
            raise MeasureError("reference invariant measure must have finite mass")
        ref = {(xx,): mm / exact.total_mass for xx, mm in exact.as_dict().items()}
    else:
        ref = {tuple(int(v) for v in np.atleast_1d(k)): float(p)
               for k, p in dict(exact).items()}
    r = spec.r
    if spec.s:
        raise MeasureError("occupation comparison applies to reflected-only specs")
    occ: dict = {}
    kept = 0
    for done, _, block in _walk_blocks(spec.law, np.zeros((1, r)), rng, steps):
        post = block[max(0, burn_in - done):, 0]
        # distinct states in order of first visit, with their visit counts; rows
        # compare as raw bytes (fast), exact since states are never -0.0 or NaN
        rows = np.ascontiguousarray(post).view(np.dtype((np.void, post.itemsize * r)))
        _, first, counts = np.unique(rows.ravel(), return_index=True, return_counts=True)
        order = np.argsort(first)
        for row, c in zip(post[first[order]], counts[order].tolist()):
            key = tuple(int(v) if v == int(v) else round(v, 9) for v in row)
            occ[key] = occ.get(key, 0) + c
            if key in ref:
                kept += c
    total = sum(occ.values())
    if kept < 0.5 * total:
        raise MeasureError("walk escaped the reference support: occupation "
                           "comparison refused for non-recurrent behaviour")
    states = set(ref) | set(occ)
    tv = 0.5 * sum(abs(occ.get(st, 0) / total - ref.get(st, 0.0)) for st in states)
    return float(tv), occ


# ---------------------------------------------------------------------------
# return-time statistics
# ---------------------------------------------------------------------------

def return_time_stats(spec: WalkSpec, start, window, budget: int,
                      replicas: int, rng):
    """Return times to a window, with the fixed-rule evidence category.

    ``window`` is ``(center, radius)`` in the sup norm on the reflected
    part (radius 0 means exact lattice hits).  Returns
    ``(TrajectoryStats, RecurrenceEvidence)``; the stats record ``rng`` as
    their seed when it is an int.
    """
    center, radius = window
    center = measures._coords("window center", center, spec.r)
    if not radius >= 0:
        raise MeasureError(f"window radius must be >= 0, got {radius}")

    def in_target(x, z):
        return (np.abs(x - center) <= radius).all(axis=-1)

    seed = rng if isinstance(rng, (int, np.integer)) else None
    ev, times0, maxdisp, visits0 = _run_return_experiment(
        spec.law, spec.check_start(start), in_target, budget, replicas, rng)
    stats = TrajectoryStats(
        target=f"sup-ball(center={center.tolist()}, radius={radius})",
        return_times=times0, visits=visits0, max_displacement=maxdisp,
        budget=int(budget), replicas=int(replicas),
        counts_per_budget=ev.return_counts, budgets=ev.budgets, seed=seed)
    return stats, ev


# ---------------------------------------------------------------------------
# symmetrization identity
# ---------------------------------------------------------------------------

def symmetrization_check(j: JointMeasure, x, n: int, mode: str, rng=None,
                         samples: int = 100_000):
    """Compare the law of the reflected walk with the folded free walk.

    For fully symmetric increment laws the reflected walk started at ``|x|``
    has, at every fixed time, the law of the componentwise absolute value of
    the free walk started at ``x``.  Exact mode enumerates all increment
    words (finite-support laws) and returns the largest state discrepancy;
    Monte Carlo mode returns ``(tv, se)``, the estimated total-variation
    distance and its standard error.  Both walk ``_BLOCK_DRAWS // n`` words or
    samples (at least one) per block and merge the blocks' state tables at
    the end, holding ``O(_BLOCK_DRAWS)`` steps plus the tables.  At ``n = 0``
    both laws are the point mass at ``|x|``, so the result is 0.
    """
    if mode not in ("exact_enumeration", "monte_carlo"):
        raise MeasureError(f"unknown mode {mode!r}")
    n = int(n)
    if n < 0:
        raise MeasureError("horizon n must be >= 0")
    if mode == "monte_carlo":
        samples = _at_least("samples", samples)
    if not j.is_fully_symmetric():
        raise MeasureError("symmetrization needs a fully symmetric law")
    d = j.dim
    x = measures._coords("start", x, d)
    if n == 0:
        return 0.0 if mode == "exact_enumeration" else (0.0, 0.0)
    per = max(1, measures._BLOCK_DRAWS // n)           # words or samples per block
    if mode == "exact_enumeration":
        pts, probs = j.atoms()
        total = len(pts) ** n
        if total > 2_000_000:
            raise MeasureError("enumeration too large; use monte_carlo mode")
        place = len(pts) ** np.arange(n - 1, -1, -1)[:, None]    # step i: digit i of a word
    else:
        rng, total = make_rng(rng), samples
    # per block, a weighted histogram: reflected mass minus folded free mass per
    # state, rows compared as raw bytes (fast; exact, since states are never
    # -0.0 or NaN); the block tables merge once at the end
    keys, masses = [], []
    for lo in range(0, total, per):
        k = min(per, total - lo)
        if mode == "exact_enumeration":
            words = np.arange(lo, lo + k) // place % len(pts)     # [step, word]
            steps, weights = pts[words], np.prod(probs[words], axis=0)
        else:
            steps = j.sample(rng, k * n).reshape(k, n, d).swapaxes(0, 1)
            weights = np.full(k, 1.0 / samples)
        refl, free = np.abs(x), x
        for y in steps:
            refl, free = np.abs(refl - y), free + y
        rows = np.round(np.concatenate([refl, np.abs(free)]), 9)
        key, state = np.unique(rows.view(np.dtype((np.void, rows.itemsize * d))).ravel(),
                               return_inverse=True)
        keys.append(key)
        masses.append(np.bincount(state, np.concatenate([weights, -weights])))
    _, state = np.unique(np.concatenate(keys), return_inverse=True)
    diff = np.abs(np.bincount(state, np.concatenate(masses)))
    if mode == "exact_enumeration":
        return float(diff.max())
    return float(0.5 * diff.sum()), math.sqrt(len(diff) / (4.0 * samples))


# ---------------------------------------------------------------------------
# product-marginal lower bound on joint occupation
# ---------------------------------------------------------------------------

def cesaro_lower_bound(nu1: InvariantMeasure1D, nu2: InvariantMeasure1D,
                       set1, set2, spec: WalkSpec, steps: int, rng):
    """Occupation of a product set against the marginal-stationarity bound.

    The time average of the indicator of ``A1 x A2`` converges to at least
    ``nu1(A1) + nu2(A2) - 1`` when both marginal walks are positive
    recurrent.  Returns a dict with the analytic bound, the empirical Cesaro
    average, a batch-means confidence width, and whether the empirical value
    clears ``bound - 3 ci`` (not asserted when the bound is nonpositive).
    """
    rng = make_rng(rng)
    p1 = nu1.mass_of(set1) / nu1.total_mass
    p2 = nu2.mass_of(set2) / nu2.total_mass
    bound = p1 + p2 - 1.0
    s1 = {int(v) for v in set1}
    s2 = {int(v) for v in set2}
    r = spec.r
    if r != 2 or spec.s:
        raise MeasureError("the product bound experiment runs on 2-D "
                           "reflected-only specs")
    steps = _at_least("steps", steps)
    hits, totals = 0, []     # totals: hits at each batch end
    per_batch = max(1, steps // 10)
    for done, _, block in _walk_blocks(spec.law, np.zeros((1, 2)), rng, steps):
        inside = np.isin(block[:, 0, 0], list(s1)) & np.isin(block[:, 0, 1], list(s2))
        running = hits + np.cumsum(inside)
        ends = np.nonzero((np.arange(done + 1, done + len(block) + 1) % per_batch) == 0)[0]
        totals.extend(running[ends].tolist())
        hits = int(running[-1])
    batch_hits = (np.diff(np.concatenate([[0], totals])) / per_batch).tolist()
    avg = hits / steps
    ci = float(np.std(batch_hits, ddof=1) / math.sqrt(len(batch_hits))) \
        if len(batch_hits) > 1 else math.nan
    out = {"bound": float(bound), "empirical": float(avg), "ci": ci,
           "satisfied": None}
    if bound > 0 and math.isfinite(ci):
        out["satisfied"] = bool(avg >= bound - 3 * ci)
    return out


# ---------------------------------------------------------------------------
# reflected plus free coordinates
# ---------------------------------------------------------------------------

def reflected_plus_free_experiment(spec: WalkSpec, budget: int, replicas: int,
                                   rng, wald_cycles: int = 100_000):
    """Joint returns of ``(X, Z)`` plus the stopped-sum mean identity check.

    Counts joint visits to (start reflected state, origin) -- exact hits on
    lattice free coordinates, radius 0.5 around 0 for continuous ones -- and
    categorizes with the fixed rules.  Also reruns the walk for
    ``wald_cycles`` returns of ``X`` to its start and checks that the mean
    free displacement per cycle matches (mean cycle length) x (free drift)
    within three standard errors, as the i.i.d.-cycle identity demands.

    Returns ``(RecurrenceEvidence, wald_report_dict)``.
    """
    if spec.s not in (1, 2):
        raise MeasureError("experiment needs 1 or 2 free coordinates")
    if spec.dims[1]:
        raise MeasureError("experiment needs lattice reflected coordinates: a "
                           "continuous one never returns exactly to its start")
    wald_cycles = _at_least("wald_cycles", wald_cycles, 2)     # the SE needs two
    rng = make_rng(rng)
    r1, r2, sl1, sl2 = spec.law.dims
    r, s = spec.r, spec.s
    start = np.zeros(spec.dim)
    free_radius = np.array([0.0] * sl1 + [0.5] * sl2)
    xc = start[:r]

    def in_target(x, z):
        return (x == xc).all(axis=-1) & (np.abs(z) <= free_radius).all(axis=-1)

    drift = np.array([spec.law.marginal(r + i).mean() for i in range(s)])
    ev = _run_return_experiment(spec.law, start, in_target, budget, replicas, rng,
                                record=False)[0]
    wald = _wald_cycle_check(spec, wald_cycles, drift, rng)
    return ev, wald


def _wald_cycle_check(spec: WalkSpec, cycles: int, drift: np.ndarray, rng):
    """Mean of Z over i.i.d. return cycles of X vs E(cycle) * E(V)."""
    r = spec.r
    times, states = _first_hits(     # the returns of X to 0
        spec.law, np.zeros(spec.dim), rng, cycles, lambda x: (x[:, :r] == 0).all(axis=1),
        1 << 31, "start state not revisited within the guard budget")
    gaps = np.diff(times, prepend=0).astype(float)
    zs = np.diff(states[:, r:], axis=0, prepend=0)
    # per-cycle deviations D_k = Z_k - gap_k * E(V) are i.i.d. centred under
    # the identity; test the pooled mean against 3 SE componentwise
    dev = zs - gaps[:, None] * drift[None, :]
    mean_dev = dev.mean(axis=0)
    se = dev.std(axis=0, ddof=1) / math.sqrt(cycles)
    return {
        "cycles": int(cycles),
        "mean_cycle_length": float(gaps.mean()),
        "mean_z_per_cycle": zs.mean(axis=0).tolist(),
        "free_drift": drift.tolist(),
        "deviation": mean_dev.tolist(),
        "std_error": se.tolist(),
        "passed": bool((np.abs(mean_dev) <= 3 * np.maximum(se, 1e-300)).all()),
    }


# ---------------------------------------------------------------------------
# local return-probability exponents
# ---------------------------------------------------------------------------

def _slope_fit(ns, phat, reps) -> dict:
    """``phat`` with the weighted least-squares slope of ``log phat`` on
    ``log ns`` and its standard error, as the exponent probes report them."""
    ns = np.asarray(ns, dtype=float)
    phat = np.asarray(phat, dtype=float)
    keep = phat > 0
    if keep.sum() < 3:
        raise MeasureError("too few nonzero return-probability estimates for "
                           "a slope fit")
    lx = np.log(ns[keep])
    ly = np.log(phat[keep])
    w = phat[keep] * reps / np.maximum(1.0 - phat[keep], 1e-12)  # 1/Var(log p)
    A = np.vstack([lx, np.ones_like(lx)]).T
    W = np.diag(w)
    cov = np.linalg.inv(A.T @ W @ A)
    beta = cov @ (A.T @ W @ ly)
    return {"phat": phat.tolist(), "slope": float(beta[0]),
            "slope_se": float(math.sqrt(cov[0, 0]))}


def product_null_recurrence_probe(factors: Sequence[Measure1D], y, n_grid,
                                  replicas: int, rng):
    """Decay exponent of ``P[X_n = y]`` for product reflected walks.

    For centred lattice laws with finite support the marginal return
    probabilities decay like ``n^(-1/2)``; the probe estimates them on a
    geometric grid and regresses log-probability on log-time.  Fully
    symmetric factors are simulated through the sign-flip identity (the
    reflected law at a fixed time equals the folded free-walk law): the free
    walk jumps between grid points by exact sums of the gap's increments.
    The grid needs at least three distinct positive times.

    Returns a dict with per-factor slopes, the joint slope, and standard
    errors.
    """
    rng = make_rng(rng)
    y = measures._coords("target", y, len(factors), np.int64)
    ns = np.asarray(sorted(int(n) for n in n_grid), dtype=np.int64)
    for m in factors:
        if not (m.is_lattice and m.has_atoms and not m.has_analytic_tail):
            raise MeasureError("probe needs finite lattice laws")
        if m.drift_sign() != 0:
            raise MeasureError("probe needs centred laws")
        if not m.normalized:
            raise MeasureError("probe needs gcd-normalized laws")
    if len(np.unique(ns)) < 3 or ns[0] < 1:
        raise MeasureError(f"n_grid needs at least three distinct positive times, "
                           f"got {ns.tolist()}")
    replicas = _at_least("replicas", replicas)
    hits = np.ones((len(ns), replicas), dtype=bool)
    per_factor = []
    samplers = {}                       # equal symmetric factors share their levels
    for fi, m in enumerate(factors):
        jumps = None
        if m.is_symmetric():
            key = (m.support.tobytes(), m.probs.tobytes())
            if key not in samplers:
                samplers[key] = LatticeSumSampler(m)
            jumps = samplers[key]
        ind = _factor_return_indicators(m, int(y[fi]), ns, replicas, rng, jumps)
        per_factor.append(ind)
        hits &= ind
    out = {"grid": ns.tolist(), "replicas": replicas,
           "factors": [_slope_fit(ns, ind.mean(axis=1), replicas) for ind in per_factor]}
    if len(factors) > 1:
        out["joint"] = _slope_fit(ns, hits.mean(axis=1), replicas)
    return out


def _factor_return_indicators(m: Optional[Measure1D], y: int, ns: np.ndarray,
                              replicas: int, rng, jumps) -> np.ndarray:
    """Indicator matrix ``[grid point, replica]`` of ``X_n = y``.

    ``jumps`` is ``None`` for the reflected walk of ``m``; otherwise ``m`` is
    unread and the folded free walk jumps once per grid gap by
    ``jumps.sample(counts, rng)`` (a lattice or subordinator sum sampler).
    """
    if jumps is not None:
        s = np.zeros(replicas, dtype=np.int64)
        out = np.empty((len(ns), replicas), dtype=bool)
        for i, gap in enumerate(np.diff(ns, prepend=0)):
            s += jumps.sample(np.full(replicas, gap), rng)
            out[i] = np.abs(s) == y
        return out
    # general centred law: the reflected walk, read at the grid times
    law = JointMeasure.product((1, 0, 0, 0), [m])
    out = np.full((len(ns), replicas), y == 0)
    for k, _, block in _walk_blocks(law, np.zeros((replicas, 1)), rng, int(ns[-1])):
        at = (ns > k) & (ns <= k + len(block))
        out[at] = block[ns[at] - k - 1, :, 0] == y
    return out


def dimension_transience_probe(j: JointMeasure, budget: int, replicas: int,
                               rng, window_radius: float = 2.0,
                               burn_in: Optional[int] = None):
    """Escape statistics of fully symmetric reflected walks by dimension.

    Uses the sign-flip identity to equate reflected returns with free-walk
    returns to the symmetric window, so the probe simulates plain partial
    sums.  Reports the escape fraction (no window visit after the burn-in)
    and the minimum post-burn-in sup-norm distance per replica.

    The default burn-in is 0.1% of the budget, not the 10% used by the
    return-time evidence rules: recurrent two-dimensional walks revisit a
    fixed window on a log time scale (the chance of a visit in ``(b, B]``
    behaves like ``1 - log b / log B``), so a 10% burn-in would label them
    escaping and erase the dimension contrast the probe exists to show.

    The walk skips ahead exactly.  The sup distance ``D`` moves by at most
    ``reach = max |y|`` per step, so a replica at ``D`` whose next
    ``(D - lim) // reach`` positions all stay at or beyond
    ``lim = max(floor(r) + 1, running minimum)`` can neither enter the window
    nor lower its minimum there: it jumps over them and the next step in one
    draw, observed at the end.  A jump of ``k`` steps is the exact law of ``k``
    increments, ``multinomial(k, probs) @ atoms`` (once per factor of a
    product law, once for a finite joint law); the burn-in is one jump and no
    jump runs past the budget.  ``jumps`` counts the replica jumps drawn,
    against ``budget * replicas`` single steps.  Laws with unbounded support,
    and budgets that do not exceed the burn-in, are refused.
    """
    if not j.is_fully_symmetric():
        raise MeasureError("dimension probe needs a fully symmetric law")
    if j.dims[1] + j.dims[3] > 0:
        raise MeasureError("dimension probe needs lattice coordinates only")
    if not 0 <= window_radius < math.inf:
        raise MeasureError(f"window radius must be finite and >= 0, got {window_radius}")
    rng = make_rng(rng)
    if j.is_finite:
        parts = [(j.probs, j.points.astype(np.int64))]
    elif all(f.has_atoms and not f.has_analytic_tail for f in j.factors):
        eye = np.eye(j.dim, dtype=np.int64)
        parts = [(f.probs, f.support[:, None] * eye[i]) for i, f in enumerate(j.factors)]
    else:
        raise MeasureError("dimension probe needs laws with bounded support")
    reach = max(1, max(int(np.abs(atoms).max()) for _, atoms in parts))

    def jump(k):
        return sum(rng.multinomial(k, probs) @ atoms for probs, atoms in parts)

    budget = int(budget)
    burn = (max(1000, budget // 1000) if burn_in is None
            else _at_least("burn_in", burn_in, 0))
    budget = _at_least("budget", budget, burn + 1)   # steps observed after the burn-in
    replicas = _at_least("replicas", replicas)
    free = math.floor(window_radius) + 1       # the least distance outside the window
    mindist = np.full(replicas, np.inf)
    live = np.arange(replicas)
    pos = jump(np.full(live.size, burn))
    t = np.full(live.size, burn)
    dist = np.abs(pos).max(axis=1, initial=0)
    jumps = live.size if burn > 0 else 0
    while live.size:
        # an infinite minimum (nothing observed yet) allows one step
        lim = np.maximum(free, mindist[live])
        k = np.minimum(np.maximum(dist - lim, 0) // reach + 1, budget - t).astype(np.int64)
        pos += jump(k)
        t += k
        jumps += live.size
        dist = np.abs(pos).max(axis=1)
        mindist[live] = np.minimum(mindist[live], dist)
        going = t < budget
        live, pos, t, dist = live[going], pos[going], t[going], dist[going]
    return {
        "dimension": j.dim,
        "escape_fraction": float(np.mean(mindist > window_radius)),
        "min_distance_after_burn_in": mindist.tolist(),
        "budget": budget,
        "burn_in": burn,
        "replicas": replicas,
        "window_radius": float(window_radius),
        "jumps": int(jumps),
    }


# ---------------------------------------------------------------------------
# subordinated walks: exact hierarchical sum sampling and the exponent probe
# ---------------------------------------------------------------------------

class SubordinatorSumSampler:
    """Exact sampler of sums of many tau_alpha increments.

    Splits each increment at ``HEAD_CUT``: the number of large increments in
    a sum of ``m`` is binomial, large values come from the exact conditional
    tail (:meth:`SubordinatorAlpha.conditional_tail_sample`), and the sum of
    the bounded remainder comes from a :class:`LatticeSumSampler` of the head
    law.  This gives per-replica exact samples of a sum of ``2^15``
    heavy-tailed variables in a handful of vectorized operations.  Rows are
    summed ``_BLOCK_DRAWS`` at a time and each row block's tail values are
    drawn ``_BLOCK_DRAWS`` at a time, so a call holds its result plus
    ``O(_BLOCK_DRAWS)`` however many large increments it draws.
    """

    HEAD_CUT = 4096      # increments above this come from the exact tail

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        self.sub = SubordinatorAlpha(alpha)
        self.q_tail = float(subordinator_tail(alpha, self.HEAD_CUT))
        ks = np.arange(1, self.HEAD_CUT + 1)
        pmf = np.asarray(self.sub.pmf(ks), dtype=float)
        self.head = LatticeSumSampler(Measure1D.lattice_arrays(ks, pmf / pmf.sum()))

    def sample_sum(self, m, replicas: int, rng) -> np.ndarray:
        """``replicas`` independent sums of ``m`` increments (an int, or one
        count per replica)."""
        m = np.broadcast_to(np.asarray(m, dtype=np.int64), (replicas,))
        _at_least("counts", m.min(initial=0), 0)
        return _fill(replicas, lambda lo, hi: self._row_block_sum(m[lo:hi], rng))

    def _row_block_sum(self, m: np.ndarray, rng) -> np.ndarray:
        n_large = rng.binomial(m, self.q_tail)
        total = self.head.sample(m - n_large, rng)
        # row i's large values are draws ends[i-1]:ends[i] of one stream, read
        # block by block: its running sum at the row ends, differenced
        ends = np.cumsum(n_large)
        at_ends = np.zeros(len(m), dtype=np.int64)
        carry, count = 0, int(n_large.sum())
        for lo in range(0, count, measures._BLOCK_DRAWS):
            hi = min(lo + measures._BLOCK_DRAWS, count)
            cs = np.cumsum(self.sub.conditional_tail_sample(rng, hi - lo, self.HEAD_CUT))
            cs += carry            # int64 wraps alike in cs and at_ends: differences hold
            i, j = np.searchsorted(ends, [lo, hi], side="right")
            at_ends[i:j] = cs[ends[i:j] - lo - 1]
            carry = cs[-1]
        total += np.diff(at_ends, prepend=0)
        return total

    def sample(self, counts, rng) -> np.ndarray:
        """Subordinated fair walk displacement after ``counts[i]`` increments
        per row ``i``: ``2 Bin(dt, 1/2) - dt`` given the accrued time ``dt``."""
        dt = self.sample_sum(counts, len(counts), rng)
        return 2 * rng.binomial(dt, 0.5) - dt


def subordinated_return_exponent(alpha: float, rng, n_max: int = 1 << 14,
                                 replicas: int = 1_000_000,
                                 chunk: int = 200_000):
    """Regression estimate of the return-probability exponent at even times.

    Each replica is one path of the subordinated fair walk observed on the
    doubling grid ``n = 2^6 .. n_max``, ``chunk`` replicas at a time: the
    grid walker of the null probe jumps it through
    :meth:`SubordinatorSumSampler.sample` once per grid gap.  The log return
    frequency at ``2n`` is regressed on ``log n``; the theoretical slope is
    ``-1/(2 alpha)``.
    """
    rng = make_rng(rng)
    ns = np.asarray([1 << k for k in range(6, int(n_max).bit_length())], dtype=np.int64)
    replicas = _at_least("replicas", replicas)
    chunk = _at_least("chunk", chunk)
    sampler = SubordinatorSumSampler(alpha)
    hits = np.zeros(len(ns), dtype=np.int64)
    for done in range(0, replicas, chunk):
        hits += _factor_return_indicators(None, 0, 2 * ns, min(chunk, replicas - done),
                                          rng, sampler).sum(axis=1)
    return {
        "alpha": float(alpha),
        "grid": ns.tolist(),
        **_slope_fit(ns, hits / replicas, replicas),
        "expected_exponent": -1.0 / (2.0 * alpha),
        "replicas": replicas,
    }
