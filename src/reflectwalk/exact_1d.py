"""Closed-form and semi-exact theory of the one-dimensional reflected walk.

For nonnegative increments the invariant measure of ``X_{n+1} = |X_n - Y|``
is explicit: a density equal to the increment tail in the continuous case,
and in the lattice case

    nu(0) = (1 - mu(0)) / 2,    nu(x) = mu(x)/2 + mu((x, inf))  for x >= 1,

with total mass ``E(Y)``.  Two-sided laws are handled through the ascending
ladder construction: the walk observed at its successive weak record times is
again a reflected walk with nonnegative increments, whose law is recovered
either exactly (centred skip-free-down laws) or by Monte Carlo.

Recurrence classification follows the classical moment criteria; fractional
moments on infinite-support families go through the dyadic-block divergence
test of :mod:`reflectwalk.measures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import (JointMeasure, Measure1D, MeasureError, _at_least, _drift_sign,
                       dyadic_series)
from . import measures
from .rng import make_rng

__all__ = [
    "InvariantMeasure1D", "LadderDecomposition", "RecurrenceVerdict",
    "invariant_measure_nonneg", "reflected_kernel_matrix",
    "classify_positive_recurrence", "recurrence_criteria",
    "ladder_exact_skip_free", "ladder_monte_carlo", "wiener_hopf_construct",
    "lifted_invariant_measure", "symmetric_equivalence_check",
]


# ---------------------------------------------------------------------------
# invariant measures for nonnegative increments
# ---------------------------------------------------------------------------

@dataclass
class InvariantMeasure1D:
    """Invariant measure of a reflected walk on the half line.

    Lattice version: ``support``/``masses`` arrays.  Continuous version:
    ``density`` callable.  ``total_mass`` equals the increment mean and is
    infinite exactly when the walk is not positive recurrent.
    """

    kind: str
    support: Optional[np.ndarray] = None
    masses: Optional[np.ndarray] = None
    density: Optional[Callable[[float], float]] = None
    total_mass: float = math.nan

    def mass_of(self, points) -> float:
        """Mass of a set of lattice points, looked up in the sorted ``support``."""
        if self.kind != "lattice":
            raise MeasureError("mass_of needs the lattice version")
        pts = np.array([int(p) for p in points], dtype=np.int64)
        at = np.minimum(np.searchsorted(self.support, pts), len(self.support) - 1)
        return float(sum(self.masses[at[self.support[at] == pts]].tolist()))

    def as_dict(self) -> dict[int, float]:
        if self.kind != "lattice":
            raise MeasureError("as_dict needs the lattice version")
        return {int(x): float(m) for x, m in zip(self.support, self.masses)}

    def normalized_probabilities(self) -> np.ndarray:
        if self.kind != "lattice":
            raise MeasureError("normalized_probabilities needs the lattice version")
        if not math.isfinite(self.total_mass) or self.total_mass <= 0:
            raise MeasureError("cannot normalize an infinite-mass measure")
        return self.masses / self.total_mass


def invariant_measure_nonneg(m: Measure1D) -> InvariantMeasure1D:
    """Invariant measure of the reflected walk for a nonnegative increment law.

    Rejects laws with negative support (those go through the ladder route).
    """
    if m.min_support() < 0:
        raise MeasureError("negative support present: decompose through the "
                           "ladder construction first")
    if m.kind == "continuous":
        mass = m.moment(1.0, "full")
        return InvariantMeasure1D("continuous", density=lambda x: m.tail(x),
                                  total_mass=mass)
    if not m.normalized:
        raise MeasureError("lattice law must be gcd-normalized")
    top = int(m.support[-1])
    # a support that is already 0..top (tailed families) is reused, not copied
    xs = m.support if len(m.support) == top + 1 else np.arange(top + 1, dtype=np.int64)
    masses = _table_tails(m)
    if m.has_analytic_tail:
        masses += m.tail(top)                   # mass above the table
    masses[m.support] += m.probs / 2.0
    masses[0] = (1.0 - m.prob(0)) / 2.0
    return InvariantMeasure1D("lattice", support=xs, masses=masses,
                              total_mass=m.moment(1.0, "full"))


def _table_tails(m: Measure1D) -> np.ndarray:
    """``mu((x, inf))`` of the atom table at ``x = 0..support[-1]``: ``_suffix[i]``
    on ``[support[i], support[i+1])``, the whole table below ``support[0]``."""
    s = m.support
    runs = np.diff(np.clip(np.append(s, s[-1] + 1), 0, None), prepend=0)
    return np.repeat(np.concatenate([[m._suffix[0] + m.probs[0]], m._suffix]), runs)


def _window_successors(rows: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    """The states of the box ``prod [0, box_i]`` and their one-step images.

    ``coords`` lists the states in lexicographic order; ``succ[a, s]`` is the
    index of ``|coords[s] - rows[a]|``, or -1 when that image leaves the box.
    """
    shape = tuple(int(b) + 1 for b in box)
    coords = np.indices(shape).reshape(len(shape), -1).T
    strides = np.array([math.prod(shape[i + 1:]) for i in range(len(shape))])
    succ = np.empty((len(rows), len(coords)), dtype=np.int64)
    for a, y in enumerate(rows):
        img = np.abs(coords - y)
        succ[a] = np.where((img < shape).all(axis=1), img @ strides, -1)
    return coords, succ


def reflected_kernel_matrix(m: Measure1D, size: Optional[int] = None) -> np.ndarray:
    """Transition matrix of ``x -> |x - Y|`` on ``{0, ..., size-1}``.

    For a nonnegative lattice law with maximum ``N`` the box ``{0..N}`` is
    closed, so the default size is ``N + 1``.  This kernel is the oracle
    against which the closed-form invariant measure is checked:
    ``p(x, 0) = mu(x)`` and ``p(x, y) = mu(x-y) + mu(x+y)`` for ``y >= 1``,
    the two atoms added in that order.
    """
    if not (m.is_lattice and not m.has_analytic_tail):
        raise MeasureError("kernel oracle needs a finite lattice law")
    if m.min_support() < 0:
        raise MeasureError("kernel oracle covers nonnegative laws only")
    n = int(m.support[-1]) + 1 if size is None else _at_least("size", size)
    _, succ = _window_successors(m.support[:, None], [n - 1])
    a, x = np.nonzero(succ >= 0)                 # ascending a: mu(x-y) before mu(x+y)
    p = np.zeros((n, n))
    np.add.at(p, (x, succ[a, x]), m.probs[a])
    return p


# ---------------------------------------------------------------------------
# recurrence classification
# ---------------------------------------------------------------------------

@dataclass
class RecurrenceVerdict:
    """Outcome of the moment-based recurrence classification."""

    verdict: str                  # positive_recurrent | null_recurrent |
    #                               not_positive_recurrent |
    #                               transient_to_plus_infinity | undecided
    moments: dict = field(default_factory=dict)
    note: str = ""


def classify_positive_recurrence(m: Measure1D, case: str) -> RecurrenceVerdict:
    """Classify the reflected walk driven by ``m``.

    ``case='nonneg'``: positive recurrence holds exactly when ``E(Y) < inf``.
    ``case='two_sided'``: with upward drift the walk is positive recurrent
    exactly when ``E(Y^+) < inf`` and null recurrent when additionally the
    half-moment of the positive part is finite; centred laws with
    ``E((Y^+)^{3/2}) < inf`` are null recurrent.  Downward drift means only
    finitely many reflections happen and the walk escapes to ``+inf``.
    """
    if case == "nonneg":
        if m.min_support() < 0:
            raise MeasureError("case 'nonneg' requires nonnegative support")
        ey = m.moment(1.0, "full")
        if math.isfinite(ey):
            return RecurrenceVerdict("positive_recurrent", {"E(Y)": ey})
        return RecurrenceVerdict("not_positive_recurrent", {"E(Y)": ey},
                                 note="infinite mean; run recurrence_criteria "
                                      "for null-recurrence evidence")
    if case != "two_sided":
        raise MeasureError(f"unknown case {case!r}")
    eplus = m.moment(1.0, "positive")
    eminus = m.moment(1.0, "negative")
    mom = {"E(Y+)": eplus, "E(Y-)": eminus}
    if math.isinf(eplus) and math.isinf(eminus):
        return RecurrenceVerdict("undecided", mom, note="both drift moments infinite")
    drift = _drift_sign(eplus, eminus)
    if drift < 0:
        return RecurrenceVerdict("transient_to_plus_infinity", mom,
                                 note="negative drift: finitely many reflections")
    if drift == 0:
        if eplus == 0.0:
            raise MeasureError("degenerate law concentrated at 0")
        m32 = m.moment(1.5, "positive")
        mom["E((Y+)^1.5)"] = m32
        if math.isfinite(m32):
            return RecurrenceVerdict("null_recurrent", mom)
        return RecurrenceVerdict("undecided", mom,
                                 note="centred but 3/2-moment diverges")
    # upward drift
    if math.isfinite(eplus):
        return RecurrenceVerdict("positive_recurrent", mom)
    mhalf = m.moment(0.5, "positive")
    mom["E(sqrt(Y+))"] = mhalf
    if math.isfinite(mhalf):
        return RecurrenceVerdict("null_recurrent", mom,
                                 note="drift up with infinite mean")
    return RecurrenceVerdict("undecided", mom)


_VERDICT_RANK = {"fails": 0, "undecided": 1, "holds": 2}
_RANK_VERDICT = {v: k for k, v in _VERDICT_RANK.items()}


@dataclass
class CriteriaReport:
    cond_sqrt_moment: str         # (i)   E(sqrt Y) < inf
    cond_tail_square: str         # (ii)  sum tail(x)^2 < inf
    cond_tail_product: str        # (iii) tail(y) * sum_{x<y} mu((x, y]) -> 0
    truncation: int
    details: dict = field(default_factory=dict)

    def as_tuple(self):
        return (self.cond_sqrt_moment, self.cond_tail_square, self.cond_tail_product)


def recurrence_criteria(m: Measure1D, truncation: int = 1 << 22) -> CriteriaReport:
    """Evaluate the chain of sufficient recurrence conditions numerically.

    Each condition implies the next, and each is sufficient for recurrence of
    the reflected walk on its attractor.  Verdicts are post-processed so the
    reported triple never violates the implication chain.

    Blocks of ``tail(x)^2`` and ``tail(x)`` come from
    :meth:`Measure1D.tail_block_sums` (exact sums for lattice laws, ``quad``
    for continuous ones).  A bounded support gives (ii) as one block; else (i)
    and (ii) are dyadic series decided by :func:`measures.dyadic_series`.
    ``truncation`` (at least 16) bounds the dyadic points of the tail-product
    sequence and is where the series of (ii) may first stop.
    """
    k = _at_least("truncation", truncation, 16)
    if m.min_support() < 0:
        raise MeasureError("criteria apply to nonnegative support only")

    v1 = "holds" if math.isfinite(m.moment(0.5, "full")) else "fails"

    v2, tail_sq_val = _tail_square_verdict(m, k)
    v3, seq = _tail_product_verdict(m, k)

    r1 = _VERDICT_RANK[v1]
    r2 = max(_VERDICT_RANK[v2], r1)
    r3 = max(_VERDICT_RANK[v3], r2)
    return CriteriaReport(_RANK_VERDICT[r1], _RANK_VERDICT[r2], _RANK_VERDICT[r3],
                          truncation=k,
                          details={"tail_square_sum": tail_sq_val,
                                   "tail_product_sequence": seq})


def _tail_square_verdict(m: Measure1D, k: int):
    top = m.max_support()
    if math.isfinite(top):
        return "holds", sum(m.tail_block_sums([0, math.floor(top) + 1], 2))
    # dyadic blocks [0, 2), [2, 4), [4, 8), ... of tail(x)^2, up to the first
    # edge at or above max(k, 2^40); past k a block below 1e-6 of the sum
    # after a decaying ratio ends the sum
    cap = max(k, 1 << 40)
    edges = [0] + [1 << e for e in range(1, 65) if 1 << (e - 1) < cap]
    verdict, total, run = dyadic_series(
        m.tail_block_sums(edges, 2),
        stop=lambda j, block, total, run: (edges[j + 1] >= k and run == 0
                                           and block / max(total, 1e-300) < 1e-6))
    if verdict == "undecided" and run >= 10:
        verdict = "fails"
    return verdict, total


def _tail_product_verdict(m: Measure1D, k: int):
    """Sequence ``a_y = tail(y) * sum_{x=0}^{y-1} (tail(x) - tail(y))`` at dyadic y."""
    ys = [1 << e for e in range(2, k.bit_length())]     # 4, 8, ..., up to k
    seq = []
    for y, prefix in zip(ys, np.cumsum(list(m.tail_block_sums([0] + ys, 1)))):
        ty = m.tail(y)
        seq.append(float(ty * (prefix - y * ty)))
    if math.isfinite(m.max_support()):
        return "holds", seq        # tail(y) = 0 from the top of the support on
    arr = np.array(seq)
    amax = float(arr.max(initial=0.0))
    if amax <= 1e-12:
        return "holds", seq
    last = arr[-1]
    if last <= 1e-3 * amax:
        return "holds", seq
    window = arr[-8:]
    logy = np.log([float(y) for y in ys[-len(window):]])
    slope = float(np.polyfit(logy, np.log(np.maximum(window, 1e-300)), 1)[0])
    if slope < -0.05:
        return "holds", seq
    if slope > 0.02 or last >= 0.5 * amax:
        return "fails", seq
    return "undecided", seq


# ---------------------------------------------------------------------------
# ladder decompositions
# ---------------------------------------------------------------------------

@dataclass
class LadderDecomposition:
    """Weak ascending ladder-height law of a random walk.

    ``ladder`` is the distribution of the first weak record increment; for
    the walk observed at record times this is the driving law of the embedded
    reflected walk.  ``method`` records how it was obtained.
    """

    base: Measure1D
    ladder: Measure1D
    method: str                       # exact_skip_free | monte_carlo
    samples: Optional[int] = None
    std_errors: Optional[dict] = None
    capped_excursions: int = 0
    step_cap: Optional[int] = None


def ladder_exact_skip_free(m: Measure1D) -> LadderDecomposition:
    """Exact weak-ladder law for skip-free-down lattice walks.

    Needs support in ``{-1, 0, 1, ...}``.  With no mass at ``-1`` every step
    is a weak record and the ladder law is the law itself.  With descents the
    inversion of ``mu = ladder + delta_{-1} - ladder * delta_{-1}`` applies,
    which presumes the strict descending ladder law is exactly ``delta_{-1}``
    (a proper law), i.e. the walk is centred:

        ladder(0) = 1 - mu(-1),   ladder(x) = sum_{y >= x} mu(y)  (x >= 1).

    Positive-drift laws with descents have a defective descending ladder and
    no such closed form; they are routed to :func:`ladder_monte_carlo`.
    """
    if not (m.is_lattice and not m.has_analytic_tail):
        raise MeasureError("exact ladder inversion needs a finite lattice law")
    if m.min_support() < -1:
        raise MeasureError("support below -1: use ladder_monte_carlo")
    p_down = m.prob(-1)
    if p_down == 0.0:
        return LadderDecomposition(m, m, "exact_skip_free")
    drift = m.drift_sign()
    if drift < 0:
        raise MeasureError("drift to -infinity: the walk has only finitely "
                           "many weak records")
    if drift > 0:
        raise MeasureError("positive drift with descents: the closed-form "
                           "inversion assumes a centred law; use "
                           "ladder_monte_carlo")
    probs = np.concatenate([[1.0 - p_down], _table_tails(m)[:-1]])   # tail(x - 1)
    return LadderDecomposition(m, Measure1D.lattice_arrays(np.arange(len(probs)), probs),
                               "exact_skip_free")


def ladder_monte_carlo(m: Measure1D, samples: int, rng,
                       step_cap: int = 10_000_000) -> LadderDecomposition:
    """Empirical law of the first weak-ascending record height.

    Each excursion runs the walk from 0 until ``S_n >= 0`` (ties count as
    records).  Excursions still running after ``step_cap`` steps are reported
    as capped and excluded from the height law; a large capped fraction
    aborts with a drift diagnostic.
    """
    if not m.is_lattice:
        raise MeasureError("Monte Carlo ladder needs a lattice law")
    # a symmetric walk oscillates, with or without a mean: records always come
    drift = 0 if m.is_symmetric() else m.drift_sign()
    if drift < 0:
        raise MeasureError(f"drift {m.mean():.4g} < 0: weak records dry up "
                           "and excursions do not terminate")
    samples = _at_least("samples", samples)
    heights = [np.zeros(0, dtype=np.int64)]
    for _, paths, first in _first_records(m, samples, make_rng(rng), step_cap):
        done = np.nonzero(first < paths.shape[1])[0]
        heights.append(paths[done, first[done]])
    heights = np.concatenate(heights)
    capped = samples - len(heights)
    if capped > 0.5 * samples:
        raise MeasureError("more than half the excursions hit the step cap: "
                           "drift to -infinity suspected")
    n_ok = len(heights)
    vals, counts = np.unique(heights, return_counts=True)
    probs = counts / n_ok
    ses = {int(v): float(math.sqrt(p * (1 - p) / n_ok)) for v, p in zip(vals, probs)}
    return LadderDecomposition(m, Measure1D.lattice_arrays(vals, probs), "monte_carlo",
                               samples=n_ok, std_errors=ses, capped_excursions=capped,
                               step_cap=step_cap)


def _first_records(m: Measure1D, n: int, rng, step_cap: int):
    """Free walks ``S_k`` from 0, run in doubling blocks until ``S_k >= 0``.

    Yields ``(rows, paths, first)`` per block: the excursions still running,
    their partial sums over the block as a ``(rows, b)`` array, and the block
    index of each row's first weak record (``b`` when there is none).  A
    block doubles in length but holds at most ``measures._BLOCK_DRAWS``
    increments (``b = 1`` when more rows than that are live), so its
    temporaries stay ``O(_BLOCK_DRAWS)``.  Every live excursion has run the
    same number of steps, so the walks stop all at once, after the first
    block that reaches ``step_cap`` steps; callers count the excursions left
    without a record.
    """
    rows = np.arange(n)
    last = np.zeros(n, dtype=np.int64)      # S_k at the end of the last block
    steps, block = 0, 16
    while rows.size and steps < step_cap:
        b = min(block, max(1, measures._BLOCK_DRAWS // rows.size))
        paths = last[:, None] + np.cumsum(
            np.asarray(m.sample(rng, (rows.size, b)), dtype=np.int64), axis=1)
        rec = paths >= 0
        first = np.where(rec.any(axis=1), np.argmax(rec, axis=1), b)
        yield rows, paths, first
        live = first == b
        rows, last = rows[live], paths[live, -1]
        steps += b
        block *= 2


def wiener_hopf_construct(mbar: Measure1D) -> Measure1D:
    """Centred skip-free-down law whose weak ascending ladder law is ``mbar``.

    Requires ``mbar`` nonincreasing on ``N_0``.  The construction inverts the
    factorization used by :func:`ladder_exact_skip_free`:

        mu(-1) = 1 - mbar(0),   mu(x) = mbar(x) - mbar(x+1)  (x >= 0).

    The result always has total mass 1, finite first absolute moment and mean
    exactly 0.
    """
    if not (mbar.is_lattice and not mbar.has_analytic_tail):
        raise MeasureError("construction needs a finite lattice ladder law")
    if mbar.min_support() < 0:
        raise MeasureError("ladder law must live on N_0")
    vals = np.zeros(int(mbar.support[-1]) + 1)
    vals[mbar.support] = mbar.probs
    if np.any(np.diff(vals) > 1e-15):
        raise MeasureError("ladder law must be nonincreasing")
    p_down = 1.0 - vals[0]
    if p_down <= 0.0:
        raise MeasureError("ladder law concentrated at 0 gives the degenerate "
                           "walk delta_0")
    support = np.arange(-1, len(vals), dtype=np.int64)
    probs = np.concatenate([[p_down], vals - np.concatenate([vals[1:], [0.0]])])
    return Measure1D.lattice_arrays(support, probs)


# ---------------------------------------------------------------------------
# lifting the embedded invariant measure
# ---------------------------------------------------------------------------

def lifted_invariant_measure(m: Measure1D, ladder: LadderDecomposition, query,
                             samples: int, rng, step_cap: int = 1 << 22):
    """Monte Carlo mass of ``query`` under the lifted invariant measure.

    The invariant measure of the original walk is obtained from the embedded
    record-walk measure (that of the walk driven by ``ladder.ladder``) by
    integrating the expected number of visits to the query set before the
    first weak record, using that the pre-record path is the free walk
    ``x - S_k``.  Requires upward drift and at least two samples.

    Returns ``(estimate, standard_error)``.  Raises when any excursion has
    no record within ``step_cap`` steps: its visits would be cut short.
    """
    if not (m.is_lattice and ladder.ladder.is_lattice):
        raise MeasureError("lifting needs a lattice law")
    n = _at_least("samples", samples, 2)      # the standard error needs two
    if m.drift_sign() <= 0:
        raise MeasureError("lifting requires strictly positive drift "
                           "(positive recurrent two-sided case)")
    nu_bar = invariant_measure_nonneg(ladder.ladder)
    rng = make_rng(rng)
    pred = _query_predicate(query)
    starts = Measure1D.lattice_arrays(nu_bar.support,
                                      nu_bar.normalized_probabilities()).sample(rng, n)
    counts = pred(starts.astype(float)).astype(float)  # k = 0 term
    finished = 0
    for rows, paths, first in _first_records(m, n, rng, step_cap):
        # visits of the pre-record path x - S_k, the record step excluded
        before = np.arange(paths.shape[1]) < first[:, None]
        x_paths = starts[rows, None] - paths
        counts[rows] += np.sum(pred(x_paths.astype(float)) & before, axis=1)
        finished += int(np.count_nonzero(first < paths.shape[1]))
    if finished < n:
        raise MeasureError(f"{n - finished} of {n} excursions had no weak record "
                           f"within step_cap={step_cap} steps")
    estimate = float(nu_bar.total_mass * counts.mean())
    se = float(nu_bar.total_mass * counts.std(ddof=1) / math.sqrt(n))
    return estimate, se


def _query_predicate(query):
    """Vectorized membership test from a set, interval pair, or callable."""
    if callable(query):
        return lambda arr: np.asarray(query(arr), dtype=bool)
    if isinstance(query, tuple) and len(query) == 2:
        lo, hi = query
        return lambda arr: (arr >= lo) & (arr <= hi)
    pts = np.asarray(sorted(query), dtype=float)
    return lambda arr: np.isin(arr, pts)


# ---------------------------------------------------------------------------
# symmetric laws: reflected vs free returns
# ---------------------------------------------------------------------------

@dataclass
class SymmetricEquivalenceReport:
    """Paired return diagnostics for a symmetric law.

    For symmetric increments the reflected walk is recurrent exactly when the
    free walk is, so their return evidence categories should agree.
    """

    free_category: str
    reflected_category: str
    agree: bool
    free_visits: list
    reflected_visits: list
    free_escape_fraction: float
    reflected_escape_fraction: float
    horizon: int
    replicas: int
    window: float


def symmetric_equivalence_check(m: Measure1D, horizon: int, window: float, rng,
                                replicas: int = 32) -> SymmetricEquivalenceReport:
    """Compare return behaviour of the free walk and the reflected walk.

    Both processes run ``replicas`` independent trajectories for ``horizon``
    steps under the same budget; visits to the window around 0 are counted in
    each half of the budget.  Evidence categories: ``transient_evidence`` by
    ``diagnostics.categorize`` (at least 90% of replicas never visit after a
    10% burn-in); ``recurrent_evidence`` when at most half the replicas do
    that (even null recurrent walks park a fifth of their paths away from 0
    on any finite budget, by the arcsine law) and the late half of the budget
    still collects at least one visit per replica on average; else
    ``inconclusive``.  Horizons below 1000 steps are refused.
    """
    if not m.is_symmetric():
        raise MeasureError("law is not symmetric")
    if m.is_lattice and len(m.support) == 1 and m.support[0] == 0:
        raise MeasureError("degenerate law delta_0")
    from .diagnostics import _run_return_experiment  # it imports exact_1d
    rng = make_rng(rng)
    horizon = int(horizon)
    lat = int(m.is_lattice)

    def in_window(x, z):       # the one coordinate, reflected or free
        return np.abs(np.concatenate([x, z], axis=-1))[..., 0] <= window

    stats = []
    for dims in ((0, 0, lat, 1 - lat), (lat, 1 - lat, 0, 0)):   # free, then reflected
        ev = _run_return_experiment(JointMeasure.product(dims, [m]), np.zeros(1),
                                    in_window, horizon, replicas, rng, record=False)[0]
        counts, escape = ev.return_counts, ev.escape_fraction
        visits = [counts[-2], counts[-1] - counts[-2]]  # first and late half
        cat = ("transient_evidence" if ev.category == "transient_evidence" else
               "recurrent_evidence" if escape <= 0.5 and visits[1] >= replicas else
               "inconclusive")
        stats.append((cat, visits, escape))
    (fcat, fv, fe), (rcat, rv, re_) = stats
    return SymmetricEquivalenceReport(
        free_category=fcat, reflected_category=rcat, agree=(fcat == rcat),
        free_visits=fv, reflected_visits=rv,
        free_escape_fraction=fe, reflected_escape_fraction=re_,
        horizon=horizon, replicas=replicas, window=float(window))
