"""Simulation core for reflected walks with optional free coordinates.

The process starts at ``(x, w)`` with ``x`` in the nonnegative orthant and
evolves by ``X_{n+1} = |X_n - Y_{n+1}|`` componentwise in the first ``r``
coordinates while the last ``s`` coordinates accumulate plain partial sums.
Everything randomized takes an explicit seed or generator; identical inputs
reproduce identical trajectories bit for bit.

On lattice reflecting coordinates the step map conserves parity differences,
so the walk observed at the successive times when all lattice coordinate
sums return to even parity is again an iterated system of independent random
contractions; those induced blocks are what :func:`induced_word` and
:func:`backward_sample` manipulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import JointMeasure, Measure1D, MeasureError
from . import exact_1d
from .rng import make_rng


def _num_text(v) -> str:
    return str(int(v)) if float(v) == int(v) else repr(float(v))

__all__ = [
    "WalkSpec", "ContractionWord", "Trajectory", "BackwardResult",
    "reflect_step", "simulate", "parity_return_times", "induced_word",
    "backward_sample", "contraction_distance_profile",
    "coupled_coalescence_fraction",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkSpec:
    """Dimensions plus joint increment law of a reflected/free walk.

    The state space is ``N_0^r1 x R_+^r2 x Z^s1 x R^s2``.  At least one
    coordinate must be reflected and at most two may be free; reflecting
    lattice marginals must be gcd-normalized and put mass on ``(0, inf)``.
    """

    law: JointMeasure

    @property
    def dims(self):
        return self.law.dims

    @property
    def r1(self):
        return self.law.dims[0]

    @property
    def r(self):
        return self.law.dims[0] + self.law.dims[1]

    @property
    def s(self):
        return self.law.dims[2] + self.law.dims[3]

    @property
    def dim(self):
        return self.law.dim

    def __post_init__(self):
        r1, r2, s1, s2 = self.law.dims
        if r1 + r2 < 1:
            raise MeasureError("a walk spec needs at least one reflected coordinate")
        if s1 + s2 > 2:
            raise MeasureError("only 0, 1 or 2 free coordinates are supported "
                               "(more are transient outright)")
        for i in range(r1):
            mi = self.law.marginal(i)
            if not mi.normalized:
                raise MeasureError(
                    f"reflecting lattice marginal {i} is not gcd-normalized")

    def check_start(self, start) -> np.ndarray:
        start = np.atleast_1d(np.asarray(start, dtype=float))
        if start.shape != (self.dim,):
            raise MeasureError(f"start must have {self.dim} coordinates")
        r1, r2, s1, s2 = self.law.dims
        if np.any(start[:self.r] < 0):
            raise MeasureError("reflected coordinates must start >= 0")
        lat = list(range(r1)) + list(range(self.r, self.r + s1))
        if any(start[i] != round(start[i]) for i in lat):
            raise MeasureError("lattice coordinates must start at integers")
        return start

    def reflected_marginals(self) -> list[Measure1D]:
        return [self.law.marginal(i) for i in range(self.r)]


class ContractionWord:
    """A finite composition of the maps ``f_y(x) = |x - y|`` (componentwise).

    ``letters`` has shape ``(m, r)``; letter 0 is applied first.  Evaluation
    is 1-Lipschitz in the start point and words compose associatively by
    concatenation.
    """

    def __init__(self, letters):
        arr = np.asarray(letters)
        if arr.ndim == 1:
            arr = arr[:, None]
        self.letters = arr

    def __len__(self):
        return self.letters.shape[0]

    @property
    def width(self):
        return self.letters.shape[1]

    def evaluate(self, x):
        """Apply the word to ``x`` (scalar, vector, or batch of points).

        ``x`` may have shape ``()``, ``(r,)`` or ``(k, r)``; the result has
        the same shape.
        """
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        pt = np.atleast_1d(np.asarray(x, dtype=self.letters.dtype if
                                      np.issubdtype(self.letters.dtype, np.floating)
                                      else np.int64))
        if pt.ndim == 1 and self.width == 1 and pt.shape[0] != 1:
            pt = pt[:, None]       # batch of scalar points
            squeeze = True
        else:
            squeeze = False
        cur = np.array(pt, copy=True)
        for row in self.letters:
            cur = np.abs(cur - row)
        if squeeze:
            cur = cur[:, 0]
        if scalar:
            return cur.ravel()[0]
        return cur.reshape(np.shape(x))

    def then(self, other: "ContractionWord") -> "ContractionWord":
        """The composition 'self first, then other'."""
        return ContractionWord(np.vstack([self.letters, other.letters]))

    def power(self, k: int) -> "ContractionWord":
        if k < 1:
            raise ValueError("power needs k >= 1")
        return ContractionWord(np.vstack([self.letters] * k))

    def coordinate(self, i: int) -> "ContractionWord":
        return ContractionWord(self.letters[:, i])

    def to_text(self) -> str:
        """Whitespace-separated increments, one line per letter if multi-d."""
        if self.width == 1:
            return " ".join(_num_text(v) for v in self.letters[:, 0])
        return "\n".join(" ".join(_num_text(v) for v in row)
                         for row in self.letters)

    @classmethod
    def from_text(cls, text: str) -> "ContractionWord":
        rows = [[float(tok) for tok in line.split()]
                for line in text.strip().splitlines() if line.strip()]
        if len(rows) == 1:
            arr = np.asarray(rows[0], dtype=float)
        else:
            arr = np.asarray(rows, dtype=float)
        if np.all(arr == np.round(arr)):
            arr = arr.astype(np.int64)
        return cls(arr)

    def __repr__(self):
        flat = self.letters[:, 0] if self.width == 1 else self.letters
        return f"ContractionWord({flat.tolist()})"


@dataclass
class Trajectory:
    """A simulated path: ``states[k]`` is the state after ``k`` steps."""

    start: np.ndarray
    states: np.ndarray
    seed: Optional[int]
    steps: int

    def to_csv(self, path):
        header = "step," + ",".join(f"x{i}" for i in range(self.states.shape[1]))
        steps = np.arange(self.states.shape[0])[:, None]
        np.savetxt(path, np.hstack([steps, self.states]), delimiter=",",
                   header=header, comments="", fmt="%.17g")


# ---------------------------------------------------------------------------
# elementary dynamics
# ---------------------------------------------------------------------------

def reflect_step(x, y):
    """One reflection step ``|x - y|`` componentwise."""
    xa = np.atleast_1d(np.asarray(x))
    ya = np.atleast_1d(np.asarray(y))
    if xa.shape != ya.shape:
        raise MeasureError(f"dimension mismatch {xa.shape} vs {ya.shape}")
    if np.any(xa < 0):
        raise MeasureError("state must be componentwise nonnegative")
    out = np.abs(xa - ya)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# the walk engine: every walker steps its increment blocks through here
# ---------------------------------------------------------------------------

_TABLE_CELLS = 512   # table size x columns above which per-step stepping wins


def _support_bounds(law: JointMeasure, i: int) -> Optional[tuple[int, int]]:
    """Support bounds of a reflected lattice coordinate with finite support, else None."""
    m = law.marginal(i) if i < law.dims[0] else None
    if m is None or not m.has_atoms or m.has_analytic_tail:
        return None
    return int(m.min_support()), int(m.max_support())


def _table_plan(steps: int, n_cols: int, lo: int, hi: int, top: int):
    """``(sub-block length L, table size)`` of the table path, or None if slower.

    Nonnegative support keeps a walk in ``[0, max(hi, start)]``, covered by
    one table, with ``L = sqrt(T)``.  With negative letters a walk at
    ``x >= L * hi`` cannot reflect within ``L`` steps: tables cover
    ``[0, L * hi)`` and a sub-block translates ``x -> x - S`` above.
    """
    if lo >= 0:
        size = max(hi, top) + 1
        return (max(1, math.isqrt(steps)), size) if size * n_cols <= _TABLE_CELLS else None
    sub = math.isqrt(8 * _TABLE_CELLS // (hi * n_cols))
    return (sub, sub * hi) if sub >= 16 else None     # shorter ones do not pay


def _walk_states(law: JointMeasure, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """State block of ``R`` walks driven by the increment block ``y``.

    ``y`` has shape ``(T, R, k)`` and covers the first ``k`` coordinates of
    ``law``; ``x`` is the ``(R, k)`` state carried in from the previous block.
    Row ``t`` is the state after step ``t + 1``: ``|x - y|`` on reflected
    coordinates (by :func:`_table_walk` where :func:`_table_plan` finds it
    faster, else :func:`_step_walk`), the running sum on free ones, equal bit
    for bit to the literal fold.
    """
    out = np.empty(y.shape, dtype=np.result_type(y, x))
    r = min(law.n_reflected, y.shape[2])
    bounds = [_support_bounds(law, i) for i in range(r)]
    table = [i for i in range(r) if bounds[i] is not None]
    plan = table and _table_plan(
        y.shape[0], y.shape[1] * len(table), min(bounds[i][0] for i in table),
        max(bounds[i][1] for i in table), int(x[:, table].max(initial=0)))
    table = table if plan else []
    step = [i for i in range(r) if i not in table]
    if table:
        cols = slice(0, r) if len(table) == r else table   # views, not copies
        out[:, :, cols] = _table_walk(y[:, :, cols], x[:, cols], *plan)
    if step:
        cols = slice(0, r) if len(step) == r else step
        out[:, :, cols] = _step_walk(y[:, :, cols], x[:, cols])
    free = out[:, :, r:]       # one cumulative sum: float rounding stays sequential
    free[:] = y[:, :, r:]
    free[:1] += x[:, r:]
    np.cumsum(free, axis=0, out=free)
    return out


def _step_walk(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``|x - y|`` one row at a time: two in-place ufuncs per step."""
    out = np.empty(y.shape, dtype=np.result_type(y, x))
    cur = x
    for row, dest in zip(y, out):
        np.subtract(cur, row, out=dest)
        np.abs(dest, out=dest)
        cur = dest
    return out


def _table_walk(y: np.ndarray, x: np.ndarray, sub: int, size: int) -> np.ndarray:
    """Reflected lattice walks by composed sub-block maps.

    The steps form ``nb`` sub-blocks of ``sub`` steps (the last padded with
    the identity letter 0).  Each one's map, a table over ``{0..size-1}`` and
    a translation above, is built for all at once; the sub-block starts are
    chained through the maps and the sub-blocks replayed in parallel.
    """
    steps, n_cols = y.shape[0], y.shape[1] * y.shape[2]
    nb = -(-steps // sub)
    padded = np.zeros((nb * sub, n_cols), dtype=np.int32)
    padded[:steps] = y.reshape(steps, n_cols)
    letters = padded.reshape(nb, sub, n_cols)     # [sub-block, step, column]
    shift = letters.sum(axis=1, dtype=np.int64)
    maps = np.empty((nb, size, n_cols), dtype=np.int32)   # [sub-block, state, column]
    maps[:] = np.arange(size)[:, None]
    for j in range(sub):
        np.subtract(maps, letters[:, j, None, :], out=maps)
        np.abs(maps, out=maps)
    flat = maps.reshape(nb, size * n_cols)
    column = np.arange(n_cols)
    states = np.empty((nb, sub, n_cols), dtype=np.int64)
    cur = x.reshape(n_cols).astype(np.int64)
    for b in range(nb):
        states[b, 0] = cur                      # start of sub-block b, for now
        cur = np.where(cur < size, flat[b, column + n_cols * np.minimum(cur, size - 1)],
                       cur - shift[b])
    cur = states[:, 0].copy()
    for j in range(sub):
        np.subtract(cur, letters[:, j], out=states[:, j])
        np.abs(states[:, j], out=states[:, j])
        cur = states[:, j]
    return states.reshape(nb * sub, n_cols)[:steps].reshape(y.shape)


def simulate(spec: WalkSpec, start, n: int, rng) -> Trajectory:
    """Run ``n`` steps of the reflected/free process from ``start``.

    Increments are i.i.d. draws from the joint law; the first ``r``
    coordinates are reflected, the remaining ``s`` evolve as exact running
    sums.
    """
    seed = rng if isinstance(rng, (int, np.integer)) else None
    rng = make_rng(rng)
    start = spec.check_start(start)
    n = int(n)
    if n < 0:
        raise MeasureError("step count must be nonnegative")
    states = np.empty((n + 1, spec.dim))
    states[0] = start
    if n == 0:
        return Trajectory(start, states, seed, 0)
    draws = spec.law.sample(rng, n)
    carry = np.where(np.arange(spec.dim) < spec.r, start, 0.0)  # free sums: start + cumsum
    states[1:] = _walk_states(spec.law, draws[:, None, :], carry[None, :])[:, 0]
    states[1:, spec.r:] += start[spec.r:]
    return Trajectory(start, states, seed, n)


# ---------------------------------------------------------------------------
# parity-return subsampling
# ---------------------------------------------------------------------------

def parity_return_times(spec: WalkSpec, start, count: int, rng,
                        max_steps: int = 1 << 26):
    """Successive times at which all lattice-coordinate sums are even.

    Returns ``(times, states)`` where ``times[j]`` is the ``j``-th time the
    parity vector of the increment sums returns to zero (so the reflected
    state is back in the parity class of the start) and ``states[j]`` is the
    reflected state then.  The gaps between successive times are i.i.d.
    """
    if spec.r1 < 1:
        raise MeasureError("parity returns need at least one lattice "
                           "reflecting coordinate")
    rng = make_rng(rng)
    start = spec.check_start(start)
    r, r1 = spec.r, spec.r1
    x = start[None, :r]
    par = np.zeros(r1, dtype=np.int64)
    times = np.empty(int(count), dtype=np.int64)
    states = np.empty((int(count), r))
    got = 0
    k = 0
    chunk = 4096
    while got < count:
        if k >= max_steps:
            raise MeasureError("parity returns exhausted the step budget")
        refl = spec.law.sample(rng, chunk)[:, :r]
        block = _walk_states(spec.law, refl[:, None, :], x)[:, 0]
        pars = (par + np.cumsum(np.round(refl[:, :r1]).astype(np.int64), axis=0)) & 1
        hit = np.nonzero(~pars.any(axis=1))[0][:count - got]
        times[got:got + hit.size] = k + 1 + hit
        states[got:got + hit.size] = block[hit]
        got += hit.size
        x, par, k = block[-1:], pars[-1], k + chunk
    return times, states


def induced_word(spec: WalkSpec, rng, max_steps: int = 1 << 22) -> ContractionWord:
    """One block of increments up to the next parity-return time.

    Evaluating the word at ``x`` reproduces the reflected state at the first
    parity-return time for every start with the same parity vector, because
    the block does not depend on the start.
    """
    if spec.r1 < 1:
        raise MeasureError("induced words need a lattice reflecting coordinate")
    rng = make_rng(rng)
    r, r1 = spec.r, spec.r1
    par = np.zeros(r1, dtype=np.int64)
    letters = []
    for _ in range(max_steps):
        y = spec.law.sample(rng, 1)[0, :r]
        letters.append(y)
        par ^= np.bitwise_and(np.asarray(np.round(y[:r1]), dtype=np.int64), 1)
        if not par.any():
            return ContractionWord(np.asarray(letters))
    raise MeasureError("no parity return within the step budget")


# ---------------------------------------------------------------------------
# backward (stationary) sampling
# ---------------------------------------------------------------------------

@dataclass
class BackwardResult:
    """Backward-iteration samples of the per-class stationary law.

    ``values`` holds one reflected state per sample; ``converged[i]`` is
    False when the horizon ran out before the whole start window coalesced,
    when a block mapped the window out of itself (``escaped[i]``) or when the
    window is not closed under the walk; ``values[i]`` is then the window
    image under the partial composition and must not be treated as a
    stationary draw.  ``guard_fired`` tells that the draw guard ended the run.
    """

    values: np.ndarray
    converged: np.ndarray
    blocks_used: np.ndarray
    parity: tuple
    escaped: np.ndarray
    guard_fired: bool = False


def _require_positive_recurrent(spec: WalkSpec):
    for i, m in enumerate(spec.reflected_marginals()):
        case = "nonneg" if m.min_support() >= 0 else "two_sided"
        verdict = exact_1d.classify_positive_recurrence(m, case).verdict
        if verdict != "positive_recurrent":
            raise MeasureError(
                f"backward sampling needs a positive recurrent reflected part; "
                f"marginal {i} classified {verdict}. The backward limit has no "
                f"stated meaning outside the positive recurrent case.")


def backward_sample(spec: WalkSpec, parity, horizon: int, rng,
                    n_samples: int = 1, window: Optional[int] = None) -> BackwardResult:
    """Sample the stationary law of one parity class by backward iteration.

    Composes induced blocks in reverse order, tracking the image of every
    lattice point of the parity class inside ``[0, window]`` per coordinate.
    A sample is emitted when the whole window has coalesced to a single
    point, which certifies the backward limit for every start in the window;
    after ``horizon`` blocks the sample is flagged unconverged instead of
    being silently returned.  A sample whose block maps a window point out of
    the window is retired at once, unconverged.  Coalescence certifies only a
    window closed under the walk (nonnegative support up to the window): in
    any other the limit may lie outside it, so no sample counts as converged.

    Only purely lattice reflected parts are supported: certified coalescence
    needs the full finite window, and a continuous coordinate offers no such
    finite certificate.
    """
    r1, r2, s1, s2 = spec.law.dims
    if r2 != 0:
        raise MeasureError("backward sampling is implemented for lattice "
                           "reflected parts (no certified coalescence window "
                           "exists for continuous coordinates)")
    _require_positive_recurrent(spec)
    rng = make_rng(rng)
    parity = tuple(int(p) & 1 for p in np.atleast_1d(parity))
    if len(parity) != r1:
        raise MeasureError(f"parity vector needs {r1} entries")
    r = spec.r
    n_samples = int(n_samples)
    marginals = spec.reflected_marginals()
    if window is None:
        window = max(int(abs(m.max_support()) if math.isfinite(m.max_support())
                         else 0) for m in marginals)
        window = max(window, max(int(abs(m.min_support())) for m in marginals), 2)
    closed = all(m.min_support() >= 0 and m.max_support() <= window for m in marginals)
    # per-coordinate grids restricted to the parity class
    grids = [np.arange(parity[i], window + 1, 2, dtype=np.int64) for i in range(r1)]
    # b[i][s, j] = value of the backward composition at grids[i][j]
    b = [np.tile(g, (n_samples, 1)) for g in grids]
    cur = [np.tile(g, (n_samples, 1)) for g in grids]  # partial block images
    par = np.zeros((n_samples, r1), dtype=np.int64)
    blocks = np.zeros(n_samples, dtype=np.int64)
    done = np.zeros(n_samples, dtype=bool)
    escaped = np.zeros(n_samples, dtype=bool)
    active = ~done
    steps_guard = 0
    guard_fired = False
    while active.any():
        idx = np.nonzero(active)[0]
        draws = spec.law.sample(rng, len(idx))[:, :r]
        ylat = np.asarray(np.round(draws[:, :r1]), dtype=np.int64)
        for i in range(r1):
            cur_i = cur[i][idx]
            cur[i][idx] = np.abs(cur_i - ylat[:, i][:, None])
        par[idx] ^= np.bitwise_and(ylat, 1)
        finished = idx[~par[idx].any(axis=1)]
        if finished.size:
            blocks[finished] += 1
            if not closed:   # a closed window keeps every image inside
                left = np.any([(c[finished] > window).any(axis=1) for c in cur], axis=0)
                escaped[finished[left]] = done[finished[left]] = True
                finished = finished[~left]
            for i in range(r1):
                # compose: new value at g = old value at (block image of g)
                img_idx = (cur[i][finished] - parity[i]) // 2
                b[i][finished] = np.take_along_axis(b[i][finished], img_idx, axis=1)
                cur[i][finished] = grids[i][None, :]
            coal = np.ones(finished.size, dtype=bool)
            for i in range(r1):
                coal &= (b[i][finished] == b[i][finished][:, :1]).all(axis=1)
            newly = finished[coal]
            done[newly] = True
            over = finished[blocks[finished] >= horizon]
            done[over] = True
            active = ~done
        steps_guard += 1
        if steps_guard > horizon * 64 * max(1, 2 ** r1):
            guard_fired = True
            break
    values = np.column_stack([b[i][:, 0] for i in range(r1)]).astype(float)
    converged = ~escaped & closed
    for i in range(r1):
        converged &= (b[i] == b[i][:, :1]).all(axis=1)
    return BackwardResult(values=values, converged=converged, blocks_used=blocks,
                          parity=parity, escaped=escaped, guard_fired=guard_fired)


# ---------------------------------------------------------------------------
# coupled contraction diagnostics
# ---------------------------------------------------------------------------

def contraction_distance_profile(spec: WalkSpec, x, y, n: int, rng) -> np.ndarray:
    """Distances between two starts under the synchronous coupling.

    Both trajectories consume the same increments; the returned array holds
    the Euclidean distance of the reflected parts after each step.  On
    lattice coordinates the difference keeps the parity of the start
    difference forever.
    """
    rng = make_rng(rng)
    xs = spec.check_start(x)[:spec.r]
    ys = spec.check_start(y)[:spec.r]
    draws = spec.law.sample(rng, int(n))[:, None, :spec.r]
    pair = _walk_states(spec.law, np.broadcast_to(draws, (int(n), 2, spec.r)),
                        np.stack([xs, ys]))
    return np.sqrt(np.sum((pair[:, 0] - pair[:, 1]) ** 2, axis=1))


def coupled_coalescence_fraction(spec: WalkSpec, x, y, steps: int, runs: int,
                                 rng) -> float:
    """Fraction of synchronous couplings that coalesce within ``steps``."""
    rng = make_rng(rng)
    xs = spec.check_start(x)[:spec.r]
    ys = spec.check_start(y)[:spec.r]
    runs = int(runs)
    a = np.tile(xs, (runs, 1))
    c = np.tile(ys, (runs, 1))
    alive = np.ones(runs, dtype=bool)
    for _ in range(int(steps)):
        if not alive.any():
            break
        idx = np.nonzero(alive)[0]
        draws = spec.law.sample(rng, len(idx))[:, :spec.r]
        a[idx] = np.abs(a[idx] - draws)
        c[idx] = np.abs(c[idx] - draws)
        alive[idx] = (a[idx] != c[idx]).any(axis=1)
    return float(1.0 - alive.mean())
