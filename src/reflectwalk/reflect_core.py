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

Every walk runs in blocks of at most ``measures._BLOCK_DRAWS`` increments
(:func:`_walk_blocks`; ``backward_sample`` walks that many window cells of
samples at once), so a call holds its result plus ``O(_BLOCK_DRAWS)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import JointMeasure, Measure1D, MeasureError, _at_least
from . import exact_1d, measures
from .rng import make_rng


def _num_text(v) -> str:
    return str(int(v)) if float(v) == int(v) else repr(float(v))

__all__ = [
    "WalkSpec", "ContractionWord", "Trajectory", "BackwardResult",
    "reflect_step", "simulate", "parity_return_times", "induced_word",
    "backward_sample", "contraction_distance_profile",
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

    @staticmethod
    def checks(law: JointMeasure):
        """The conditions on ``law``, as ``(name, ok, message)`` triples.

        At most two free coordinates, at least one reflected one, then a
        gcd-1 support for each finite reflecting lattice marginal (sampler-
        backed and tailed families are built normalized).  A walk spec
        refuses the first that fails; ``reflectwalk validate`` lists them all.
        """
        r1, r2, s1, s2 = law.dims
        yield ("dims_free", s1 + s2 <= 2,
               f"s={s1 + s2}: only 0, 1 or 2 free coordinates are meaningful "
               "(more makes the free part transient outright)")
        yield ("dims_reflected", r1 + r2 >= 1,
               f"r={r1 + r2}: at least one reflected coordinate required")
        for i in range(r1):
            m = law.marginal(i)
            if m.is_lattice and not m.has_analytic_tail:
                kappa = measures.gcd_normalize(m)[1]
                yield (f"normalized_{i}", kappa == 1, "support gcd is 1" if kappa == 1
                       else f"support gcd is {kappa}; auto-normalization would "
                            f"divide the lattice by {kappa}")

    def __post_init__(self):
        for name, ok, message in self.checks(self.law):
            if not ok:
                raise MeasureError(f"{name}: {message}")

    def check_start(self, start) -> np.ndarray:
        start = measures._coords("start", start, self.dim)
        if np.any(start[:self.r] < 0):
            raise MeasureError("reflected coordinates must start >= 0")
        if any(start[i] != round(start[i]) for i in self.law.lattice_coords()):
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

        ``x`` may have shape ``()``, ``(r,)`` or ``(k, r)``, or any shape when
        ``r = 1``; the result has the same shape.
        """
        floating = np.issubdtype(self.letters.dtype, np.floating)
        cur = np.array(x, dtype=self.letters.dtype if floating else np.int64)
        for row in self.letters[:, 0] if self.width == 1 else self.letters:
            cur = np.abs(cur - row)
        return cur[()]

    def then(self, other: "ContractionWord") -> "ContractionWord":
        """The composition 'self first, then other'."""
        return ContractionWord(np.vstack([self.letters, other.letters]))

    def power(self, k: int) -> "ContractionWord":
        return ContractionWord(np.vstack([self.letters] * _at_least("power", k)))

    def to_text(self) -> str:
        """Whitespace-separated increments, one line per letter if multi-d."""
        if self.width == 1:
            return " ".join(_num_text(v) for v in self.letters[:, 0])
        return "\n".join(" ".join(_num_text(v) for v in row)
                         for row in self.letters)

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
_CELLS_PER_CALL = 256  # table cells gathered by a prefix scan in about one ufunc call's time


def _table_plan(steps: int, n_cols: int, lo: int, hi: int, top: int):
    """``(sub-block length L, table size)`` of the table path, or None if slower.

    Nonnegative support keeps a walk in ``[0, max(hi, start)]``, covered by
    one table, and :func:`_table_walk` finds the sub-block starts by a
    prefix scan: about ``4 L`` ufunc calls against ``(T / L) log2(T / L)``
    gathered maps of ``size * n_cols`` cells, balanced by
    ``L = sqrt(T * cells / _CELLS_PER_CALL)``.  With negative letters a walk
    at ``x >= L * hi`` cannot reflect within ``L`` steps: tables cover
    ``[0, L * hi)`` and a sub-block translates ``x -> x - S`` above; laws
    whose int32 maps would pass ``2^31`` (they reach ``L * (hi - lo)``) step.
    """
    if lo >= 0:
        size = max(hi, top) + 1
        if size * n_cols > _TABLE_CELLS:
            return None
        return max(1, math.isqrt(steps * size * n_cols // _CELLS_PER_CALL)), size
    sub = math.isqrt(8 * _TABLE_CELLS // (hi * n_cols))
    # shorter sub-blocks do not pay
    return (sub, sub * hi) if sub >= 16 and sub * (hi - lo) < 1 << 31 else None


def _walk_states(law: JointMeasure, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """State block of ``R`` walks driven by the increment block ``y``.

    ``y`` has shape ``(T, R, k)`` and covers the first ``k`` coordinates of
    ``law``; ``x`` is the ``(R, k)`` state carried in from the previous block.
    Row ``t`` is the state after step ``t + 1``: ``|x - y|`` on reflected
    coordinates (all by :func:`_table_walk` when each has finite lattice
    support and :func:`_table_plan` finds it faster, else all by
    :func:`_step_walk`), the running sum on free ones, equal bit for bit to
    the literal fold.
    """
    out = np.empty(y.shape, dtype=np.result_type(y, x))
    r = min(law.n_reflected, y.shape[2])
    laws = [law.marginal(i) for i in range(r)] if r <= law.dims[0] else []
    plan = laws and all(m.is_lattice and not m.has_analytic_tail for m in laws) and _table_plan(
        y.shape[0], y.shape[1] * r, int(min(m.support[0] for m in laws)),
        int(max(m.support[-1] for m in laws)), int(x[:, :r].max(initial=0)))
    if plan:
        out[:, :, :r] = _table_walk(y[:, :, :r], x[:, :r], *plan)
    elif r:
        out[:, :, :r] = _step_walk(y[:, :, :r], x[:, :r])
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
    the identity letter 0).  The map of every sub-block but the last, a table
    over ``{0..size-1}`` and a translation above, is built for all at once;
    the sub-block starts follow from the maps and the sub-blocks are replayed
    in parallel.  When every letter and start lies in ``{0..size-1}`` the maps
    are total there, and the starts are prefix compositions built by doubling
    (``ceil(log2 nb)`` gathers), read at ``x``.  Otherwise (two-sided letters)
    a map may carry a state above the table, where it translates, and the
    starts are chained one sub-block at a time.
    """
    steps, n_cols = y.shape[0], y.shape[1] * y.shape[2]
    nb = -(-steps // sub)
    padded = np.zeros((nb * sub, n_cols), dtype=np.int32)
    padded[:steps] = y.reshape(steps, n_cols)
    letters = padded.reshape(nb, sub, n_cols)     # [sub-block, step, column]
    maps = np.empty((max(nb - 1, 0), size, n_cols), dtype=np.int32)  # [sub-block, state, column]
    maps[:] = np.arange(size)[:, None]
    for j in range(sub):
        np.subtract(maps, letters[:-1, j, None, :], out=maps)
        np.abs(maps, out=maps)
    states = np.empty((nb, sub, n_cols), dtype=np.int64)
    cur = x.reshape(n_cols).astype(np.int64)
    states[:1, 0] = cur                           # states[b, 0]: start of sub-block b
    # cell (b, s, c) of the maps is flat[base[b, 0, c] + s * n_cols]
    flat = maps.reshape(-1)
    base = np.arange(len(maps))[:, None, None] * (size * n_cols) + np.arange(n_cols)
    if steps and 0 <= padded.min() and padded.max() < size and cur.max() < size:
        k = 1
        while k < len(maps):                      # maps[b] becomes maps[b] o ... o maps[0]
            maps[k:] = flat.take(base[k:] + maps[:-k] * n_cols)
            k *= 2
        states[1:, 0] = flat.take(base[:, 0] + cur * n_cols)
    else:
        shift = letters.sum(axis=1, dtype=np.int64)
        for b in range(len(maps)):
            cur = np.where(cur < size, flat[base[b, 0] + np.minimum(cur, size - 1) * n_cols],
                           cur - shift[b])
            states[b + 1, 0] = cur
    cur = states[:, 0].copy()
    for j in range(sub):
        np.subtract(cur, letters[:, j], out=states[:, j])
        np.abs(states[:, j], out=states[:, j])
        cur = states[:, j]
    return states.reshape(nb * sub, n_cols)[:steps].reshape(y.shape)


def _walk_blocks(law: JointMeasure, x: np.ndarray, rng, steps: Optional[int] = None,
                 shared: bool = False):
    """State blocks of the ``R`` walks carried in ``x``: ``steps`` steps, or forever.

    The one chunk loop of the walk engine: each block draws ``T * R``
    increments in one time-major ``law.sample`` call (``T`` with ``shared``:
    a synchronous coupling, every walk driven by the same increments), with
    ``T = max(1, measures._BLOCK_DRAWS // R)`` so that a block's
    draws, states and table temporaries stay ``O(_BLOCK_DRAWS)`` at any
    replica count, and steps them through :func:`_walk_states`.  Yields
    ``(k, y, states)``: ``k`` steps precede the block, ``y`` and ``states``
    have shape ``(T, R, dim)`` (the last block may be shorter) and row ``t``
    is the state after step ``k + t + 1``.
    """
    n_rep = x.shape[0]
    chunk = max(1, measures._BLOCK_DRAWS // n_rep)
    k = 0
    while steps is None or k < steps:
        b = chunk if steps is None else min(chunk, steps - k)
        if shared:
            y = np.broadcast_to(law.sample(rng, b)[:, None, :], (b, n_rep, law.dim))
        else:
            y = law.sample(rng, b * n_rep).reshape(b, n_rep, law.dim)
        states = _walk_states(law, y, x)
        x = states[-1].copy()
        yield k, y, states
        del y, states        # so the next draws do not coexist with this block
        k += b


def _first_hits(law: JointMeasure, start: np.ndarray, rng, count: int, hit,
                max_steps: int, why: str):
    """Times ``(count,)`` and states ``(count, dim)`` of the first ``count``
    steps of one walk from ``start`` where ``hit`` (``(T, dim)`` states to
    ``T`` booleans) holds; a block from step ``max_steps`` on raises
    ``MeasureError(why)``."""
    blocks = _walk_blocks(law, start[None, :], rng)
    times = np.empty(count, dtype=np.int64)
    states = np.empty((count, law.dim))
    got = 0
    while got < count:
        k, _, block = next(blocks)
        if k >= max_steps:
            raise MeasureError(why)
        at = np.flatnonzero(hit(block[:, 0]))[:count - got]
        times[got:got + at.size] = k + 1 + at
        states[got:got + at.size] = block[at, 0]
        got += at.size
    return times, states


def simulate(spec: WalkSpec, start, n: int, rng) -> Trajectory:
    """Run ``n`` steps of the reflected/free process from ``start``.

    Increments are i.i.d. draws from the joint law; the first ``r``
    coordinates are reflected, the remaining ``s`` evolve as exact running
    sums.  The trajectory is written block by block from
    :func:`_walk_blocks`, so a call holds it plus ``O(_BLOCK_DRAWS)``.
    """
    seed = rng if isinstance(rng, (int, np.integer)) else None
    rng = make_rng(rng)
    start = spec.check_start(start)
    n = int(n)
    if n < 0:
        raise MeasureError("step count must be nonnegative")
    states = np.empty((n + 1, spec.dim))
    states[0] = start
    for k, _, block in _walk_blocks(spec.law, start[None, :], rng, n):
        states[k + 1:k + 1 + len(block)] = block[:, 0]
    return Trajectory(start, states, seed, n)


# ---------------------------------------------------------------------------
# parity-return subsampling
# ---------------------------------------------------------------------------

def _parity_codes(y, r1: int) -> np.ndarray:
    """Parity vectors of ``y[..., :r1]`` as integers, coordinate 0 the highest bit:
    code order is tuple order, and the parity of a sum is the XOR of the codes."""
    bits = np.asarray(np.round(np.asarray(y)[..., :r1]), dtype=np.int64) & 1
    return bits @ (1 << np.arange(r1 - 1, -1, -1))


def parity_return_times(spec: WalkSpec, start, count: int, rng,
                        max_steps: int = 1 << 26):
    """Successive times at which all lattice-coordinate sums are even.

    Returns ``(times, states)`` where ``times[j]`` is the ``j``-th time the
    parity vector of the increment sums returns to zero and ``states[j]`` is
    the reflected state then.  As ``|x - y| = x + y (mod 2)``, these are the
    times at which the state is back in the parity class of the start.  The
    gaps between successive times are i.i.d.
    """
    if spec.r1 < 1:
        raise MeasureError("parity returns need at least one lattice "
                           "reflecting coordinate")
    count = _at_least("count", count, 0)
    start = spec.check_start(start)
    code = _parity_codes(start, spec.r1)
    times, states = _first_hits(spec.law, start, make_rng(rng), count,
                                lambda x: _parity_codes(x, spec.r1) == code, max_steps,
                                "parity returns exhausted the step budget")
    return times, states[:, :spec.r]


def induced_word(spec: WalkSpec, rng, max_steps: int = 1 << 22) -> ContractionWord:
    """One block of increments up to the next parity-return time.

    Increments are drawn 16, 32, ... at a time; those after the return are
    discarded.  Evaluating the word at ``x`` reproduces the reflected state at
    the first parity-return time for every start with the same parity vector,
    because the block does not depend on the start.
    """
    if spec.r1 < 1:
        raise MeasureError("induced words need a lattice reflecting coordinate")
    rng = make_rng(rng)
    par, drawn, blocks = 0, 0, []
    while drawn < max_steps:
        y = spec.law.sample(rng, min(16 << len(blocks), max_steps - drawn))[:, :spec.r]
        pars = par ^ np.bitwise_xor.accumulate(_parity_codes(y, spec.r1))
        hit = np.flatnonzero(pars == 0)
        if hit.size:
            blocks.append(y[:hit[0] + 1])
            return ContractionWord(np.concatenate(blocks))
        blocks.append(y)
        par, drawn = pars[-1], drawn + len(y)
    raise MeasureError("no parity return within the step budget")


# ---------------------------------------------------------------------------
# backward (stationary) sampling
# ---------------------------------------------------------------------------

@dataclass
class BackwardResult:
    """Backward-iteration samples of the per-class stationary law.

    ``values`` holds one reflected state per sample; ``converged[i]`` is
    False when the horizon ran out before the whole start window coalesced;
    ``values[i]`` is then the window image under the partial composition and
    must not be treated as a stationary draw.  ``guard_fired`` tells that the
    draw guard ended the run.
    """

    values: np.ndarray
    converged: np.ndarray
    blocks_used: np.ndarray
    parity: tuple
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


def _moving_law(law: JointMeasure, r1: int) -> JointMeasure:
    """The reflected lattice part of ``law`` given that it is not all zero.

    ``law`` has finite reflected lattice marginals; the result is a finite
    law on their ``r1`` coordinates, equal rows added up, the zero row
    dropped and the rest renormalised.
    """
    if not law.is_finite:
        law = JointMeasure.product((r1, 0, 0, 0), law.factors[:r1])
    pts, probs = law.atoms()
    rows, inv = np.unique(np.round(pts[:, :r1]), axis=0, return_inverse=True)
    mass = np.bincount(inv.ravel(), weights=probs)
    moving = rows.any(axis=1)
    return JointMeasure((r1, 0, 0, 0), points=rows[moving],
                        probs=mass[moving] / mass[moving].sum())


def backward_sample(spec: WalkSpec, parity, horizon: int, rng,
                    n_samples: int = 1) -> BackwardResult:
    """Sample the stationary law of one parity class by coupling from the past.

    Each sample draws its own increments backward in time, ``Y_0, Y_-1, ...``,
    and keeps ``b[x]``, the time-0 value of the walk started at ``x`` at time
    ``-T``, for every ``x`` in the window ``[0, max(N, 2)]`` per coordinate,
    ``N`` the top of the supports; one more increment sets
    ``b[x] <- b[|x - y|]``, one flat ``take`` per draw.  A letter whose
    reflected part is all zero maps every state to itself and has parity
    code 0, so letters are drawn from the reflected part's law given that it
    is not zero (one draw per step): the backward limit keeps its law,
    and ``blocks_used`` counts only blocks made of moving letters.  The
    times at which the increment sums are even cut the sequence into induced
    blocks: as ``|x - y| = x + y (mod 2)``, they are those at which ``b[0]``
    is even.  At a block end the sample stops when ``b`` is constant on the
    parity class, which certifies the backward limit for every start in the
    window; after ``horizon`` blocks the sample is flagged unconverged
    instead of being silently returned, and so is a sample still open after
    ``horizon * 64 * 2^r`` draws (``guard_fired``).
    Samples are walked ``_BLOCK_DRAWS // (window size * r)`` at a time, a
    finished sample's slot going to the next one, so a call holds its result
    plus ``O(_BLOCK_DRAWS)``.

    Only nonnegative bounded lattice reflected parts are supported: certified
    coalescence needs a finite window closed under the walk.  A negative
    letter maps ``x`` to ``x + |y|`` and a continuous coordinate has no
    finite window, so no sample of such a walk could be certified.
    """
    horizon = _at_least("horizon", horizon)
    n_samples = _at_least("n_samples", n_samples)
    r1, r2, s1, s2 = spec.law.dims
    if r2 != 0:
        raise MeasureError("backward sampling is implemented for lattice "
                           "reflected parts (no certified coalescence window "
                           "exists for continuous coordinates)")
    _require_positive_recurrent(spec)
    rng = make_rng(rng)
    cls, cols = measures._coords("parity", parity, r1, np.int64) & 1, np.arange(r1)
    marginals = spec.reflected_marginals()
    if any(m.min_support() < 0 or not math.isfinite(m.max_support()) for m in marginals):
        raise MeasureError("backward sampling needs nonnegative bounded supports: "
                           "no window is closed under this walk, so no sample "
                           "could be certified")
    xs = np.arange(max(2, *(int(m.max_support()) for m in marginals)) + 1)[:, None]
    off_class = (xs & 1) != cls
    cap = max(1, measures._BLOCK_DRAWS // (len(xs) * r1))   # samples walked at once
    fresh = np.broadcast_to(xs.astype(np.int32), (cap, len(xs), r1))   # b at time 0
    rows = np.arange(cap)[:, None, None] * (len(xs) * r1) + cols   # flat row offsets
    guard = horizon * 64 * max(1, 2 ** r1)          # steps allowed per sample
    values = np.empty((n_samples, r1))
    converged = np.zeros(n_samples, dtype=bool)
    blocks_used = np.zeros(n_samples, dtype=np.int64)
    # per walked sample: its index, b, its first step
    none = np.zeros(0, dtype=np.int64)
    live, b, born = none, fresh[:0], none
    moving = _moving_law(spec.law, r1)
    started, step, guard_fired = 0, 0, False
    while True:
        new = min(cap - live.size, n_samples - started)
        if new:                  # freed slots go to the next samples, in order
            live = np.concatenate([live, np.arange(started, started + new)])
            b = np.concatenate([b, fresh[:new]])
            born = np.concatenate([born, np.full(new, step)])
            started += new
        if live.size == 0:
            break
        step += 1
        y = moving.sample(rng, live.size).astype(np.int64)
        idx = xs - y[:, None, :]                     # flat index of b[s, |x - y|, i]
        np.abs(idx, out=idx)
        idx *= r1
        idx += rows[:live.size]
        b = b.take(idx)
        done = np.zeros(live.size, dtype=bool)
        end = np.flatnonzero(~(b[:, 0] & 1).any(axis=1))   # b[s, 0]: parity of the sum
        if end.size:
            at = live[end]
            blocks_used[at] += 1
            b_end = b[end]
            top = b_end[:, cls, cols]                # the least class points
            coal = ((b_end == top[:, None, :]) | off_class).all(axis=(1, 2))
            stop = coal | (blocks_used[at] == horizon)
            values[at[stop]], converged[at[stop]] = top[stop], coal[stop]
            done[end[stop]] = True
        if step - born[0] >= guard:                  # born[0]: the oldest sample's
            spent = ~done & (step - born >= guard)
            values[live[spent]] = b[spent][:, cls, cols]
            done |= spent
            guard_fired = True
        if done.any():
            live, b, born = live[~done], b[~done], born[~done]
    return BackwardResult(values=values, converged=converged, blocks_used=blocks_used,
                          parity=tuple(cls.tolist()), guard_fired=guard_fired)


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
    n = _at_least("n", n, 0)
    rng = make_rng(rng)
    pair = np.stack([spec.check_start(x), spec.check_start(y)])
    out = np.empty(n)
    for k, _, block in _walk_blocks(spec.law, pair, rng, n, shared=True):
        gap = block[:, 0, :spec.r] - block[:, 1, :spec.r]
        out[k:k + len(block)] = np.sqrt(np.sum(gap ** 2, axis=1))
    return out
